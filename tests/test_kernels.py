"""Backward tree kernel: hand-worked cases, continuation identities, and
the comonotone closed form against the recursion it replaces."""

import numpy as np
import pytest
from scipy.stats import binom

import nebsde
from nebsde import _kernels
from nebsde import bsde as bs
from nebsde import scenarios as sc
from nebsde.errors import NonContractiveStepError

EXACT = 1e-12


def _backward_recursion(terminal, dt, kappa, include_y):
    """Oracle: the node-by-node ``kappa*(|y| + |z|)`` recursion, inlined."""
    w = np.array(terminal, dtype=float)
    half_inv_sq = 0.5 / np.sqrt(dt)
    kdt = kappa * dt
    for level in range(w.size - 2, -1, -1):
        lo = w[: level + 1]
        hi = w[1 : level + 2]
        a = 0.5 * (lo + hi) + np.abs((hi - lo) * half_inv_sq) * kdt
        if include_y:
            a = a / np.where(a >= 0.0, 1.0 - kdt, 1.0 + kdt)
        w[: level + 1] = a
    return float(w[0])


def _kernel(terminal, dt, kappa, include_y):
    """The tree kernel under ``kappa*(|y| + |z|)``, or ``kappa*|z|`` without y."""
    nodes = dt * np.arange(np.size(terminal))
    return _kernels.tree_backward_value(terminal, dt, bs.Driver.kappa_abs(kappa, include_y),
                                        nodes)


def _continuation(values, dt, steps, kappa, include_y):
    return bs.zero_noise_continuation(bs.Driver.kappa_abs(kappa, include_y), values,
                                      dt * np.arange(steps), dt)


def test_single_step_z_only_by_hand():
    # Terminal [-1, 3], dt=1: midpoint 1, |z| contribution |(3+1)/2| = 2.
    v = _kernel(np.array([-1.0, 3.0]), 1.0, 0.3, False)
    assert abs(v - 1.6) <= EXACT
    v = _kernel(np.array([-1.0, 3.0]), 1.0, -0.3, False)
    assert abs(v - 0.4) <= EXACT


def test_single_step_with_y_term_by_hand():
    # Positive intermediate value divides by (1 - kappa*dt) resp. (1 + kappa*dt).
    v = _kernel(np.array([-1.0, 3.0]), 1.0, 0.3, True)
    assert abs(v - 1.6 / 0.7) <= EXACT
    v = _kernel(np.array([-1.0, 3.0]), 1.0, -0.3, True)
    assert abs(v - 0.4 / 1.3) <= EXACT


def test_constant_terminal_matches_continuation():
    dt, m = 0.02, 10
    for kappa in (0.7, -0.7):
        v = _kernel(np.full(m + 1, 2.0), dt, kappa, True)
        cont = _continuation(np.array([2.0]), dt, m, kappa, True)
        assert abs(v - cont[0]) <= EXACT
        assert abs(v - 2.0 * (1.0 - kappa * dt) ** (-m)) <= EXACT


def test_continuation_matches_stepwise_factors():
    vals = np.array([-2.0, 0.001, 3.0])
    dt, steps, kappa = 0.01, 7, 0.4
    out = _continuation(vals, dt, steps, kappa, True)
    pos = (1.0 - kappa * dt) ** (-steps)
    neg = (1.0 + kappa * dt) ** (-steps)
    expected = np.where(vals >= 0.0, vals * pos, vals * neg)
    assert np.max(np.abs(out - expected)) <= EXACT
    # the closed form against the implicit steps it collapses
    stepped = vals
    for _ in range(steps):
        stepped = bs.implicit_step(bs.Driver.kappa_abs(kappa), 0.0, stepped, np.zeros(3), dt)
    assert np.max(np.abs(out - stepped)) <= EXACT


def test_continuation_identity_cases():
    vals = np.array([1.0, -4.0])
    assert np.array_equal(_continuation(vals, 0.1, 0, 0.5, True), vals)
    assert np.array_equal(_continuation(vals, 0.1, 5, 0.5, False), vals)
    assert np.array_equal(_continuation(vals, 0.1, 5, 0.0, True), vals)
    # a driver that ignores y, without kappa_structure, leaves the level as it is
    abs_z = bs.Driver(fn=lambda t, y, z: 0.3 * np.abs(z), lipschitz=0.3, depends_on_z=True)
    assert np.array_equal(bs.zero_noise_continuation(abs_z, vals, 0.1 * np.arange(5), 0.1), vals)


def test_step_size_guard():
    with pytest.raises(NonContractiveStepError):
        _continuation(np.array([1.0]), 1.0, 3, 1.5, True)
    with pytest.raises(NonContractiveStepError):
        _kernel(np.array([-1.0, 3.0]), 1.0, 1.5, True)


def test_input_validation():
    with pytest.raises(ValueError):
        _kernel(np.zeros((2, 2)), 1.0, 0.1, False)
    with pytest.raises(ValueError):
        _kernel(np.array([]), 1.0, 0.1, False)
    with pytest.raises(ValueError):
        _kernel(np.array([1.0]), 0.0, 0.1, False)


def _levels(m):
    b = (2.0 * np.arange(m + 1) - m) / np.sqrt(m)
    return {"increasing": b + 0.5, "decreasing": -np.exp(b), "constant": np.full(m + 1, 2.0)}


@pytest.mark.parametrize("m", [50, 200, 1000])
def test_comonotone_closed_form_matches_recursion(m):
    # A monotone claim under kappa*|z| (or any claim at kappa = 0, with or
    # without the y-part) is one binomial dot product; it agrees with the
    # node-by-node recursion on every sampled level of the tree.
    dt = 1.0 / m
    cases = [(kappa, False) for kappa in (0.5, -0.5, 0.3, 3.0)] + [(0.0, False), (0.0, True)]
    for kappa, include_y in cases:
        for name, terminal in _levels(m).items():
            for n in sorted({0, 1, 2, *np.linspace(0, m, 9).astype(int).tolist()}):
                level = terminal[: n + 1]
                got = _kernel(level, dt, kappa, include_y)
                ref = _backward_recursion(level, dt, kappa, include_y)
                assert abs(got - ref) <= 1e-13 * np.max(np.abs(level)), (name, kappa, n)


def test_non_comonotone_cases_run_the_recursion():
    # Non-monotone levels, a y-part and steps |kappa|*sqrt(dt) > 1 take the
    # recursion itself, so the result is bit-identical to it.
    m, dt = 60, 1.0 / 60
    b = (2.0 * np.arange(m + 1) - m) * np.sqrt(dt)
    cases = [
        (b * b - 1.0, 0.5, False),
        (np.sin(3.0 * b), -0.7, False),
        (b + 0.5, 0.5, True),
        (-np.exp(b), -0.3, True),
        (b + 0.5, 10.0, False),
        (-np.exp(b), -800.0, False),
    ]
    for level, kappa, include_y in cases:
        got = _kernel(level, dt, kappa, include_y)
        assert got == _backward_recursion(level, dt, kappa, include_y)


def test_kernel_leaves_its_input_unchanged():
    level = np.array([3.0, -1.0, 2.0])
    for kappa, include_y in ((0.4, True), (0.4, False)):
        _kernel(level, 0.5, kappa, include_y)
        assert level.tolist() == [3.0, -1.0, 2.0]


@pytest.mark.parametrize("m", [8, 200, 1000])
def test_binomial_weights_match_binom_pmf(m):
    for p in (0.5, 0.3, 0.5 * (1.0 + 0.5 / np.sqrt(m)), 0.9):
        got = sc.binomial_weights(m, p)
        ref = binom.pmf(np.arange(m + 1), m, p)
        live = ref > 0.0
        assert np.max(np.abs(got[live] - ref[live]) / ref[live]) <= 1e-11
        assert np.all(got[~live] == 0.0)


def test_binomial_weights_edge_cases():
    assert sc.binomial_weights(0, 0.3).tolist() == [1.0]
    assert sc.binomial_weights(3, 0.0).tolist() == [1.0, 0.0, 0.0, 0.0]
    assert sc.binomial_weights(3, 1.0).tolist() == [0.0, 0.0, 0.0, 1.0]
    for p in (-0.1, 1.1, np.nan):
        with pytest.raises(ValueError):
            sc.binomial_weights(3, p)


def test_backend_label():
    assert nebsde.KERNEL_BACKEND == "python"
