"""Backward tree kernel: hand-worked cases, continuation identities, and
the comonotone closed form against the recursion it replaces."""

import numpy as np
import pytest
from scipy.stats import binom

import nebsde
from nebsde import _kernels
from nebsde import bsde as bs
from nebsde import scenarios as sc
from nebsde.errors import FixedPointError, NonContractiveStepError

EXACT = 1e-12
# a stacked sweep against a one-level call, relative to max(1, |value|)
SWEPT = 1e-12


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
    """``values`` on the level ``steps`` dates before the horizon, continued to its date."""
    grid = sc.TimeGrid(dt * (steps + 1), steps + 1)
    driver = bs.Driver.kappa_abs(kappa, include_y)
    return bs.zero_noise_continuation(driver, [sc.RandomVariable(1, values)], grid)[0]


def _swept_close(got, ref):
    """Whether ``got`` is within ``SWEPT`` of ``ref``, relative to ``max(1, |ref|)``."""
    return bool(np.all(np.abs(got - ref) <= SWEPT * np.maximum(1.0, np.abs(ref))))


def _stepped_continuation(driver, rv, grid):
    """Oracle: one ``implicit_step`` per date from the horizon back to the level's own."""
    w = rv.values
    for t in reversed(grid.nodes[rv.index:grid.steps]):
        w = bs.implicit_step(driver, float(t), w, np.zeros_like(w), grid.dt)
    return w


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
    got = bs.zero_noise_continuation(abs_z, [sc.RandomVariable(0, vals)], sc.TimeGrid(0.5, 5))
    assert len(got) == 1 and np.array_equal(got[0], vals)
    assert bs.zero_noise_continuation(bs.Driver.kappa_abs(0.5), [], sc.TimeGrid(0.5, 5)) == []


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


# -0.5*y + 0.3*|z|, declared affine in y or left to the sweep
AFFINE_FN = dict(fn=lambda t, y, z: -0.5 * np.asarray(y) + 0.3 * np.abs(z), lipschitz=0.8,
                 depends_on_y=True, depends_on_z=True)
AFFINE_Y = bs.Driver(**AFFINE_FN, y_coefficient=-0.5)
Y_PART = bs.Driver(fn=lambda t, y, z: -0.4 * np.sin(y) + 0.3 * np.abs(z) * (1.0 + t),
                   lipschitz=1.0, depends_on_y=True, depends_on_z=True)


def _closed_form(driver):
    """Whether ``driver``'s implicit step is closed form (``kappa`` or affine in y)."""
    return driver.kappa_structure is not None or driver.y_coefficient is not None


def _mixed_stack(m):
    """Claims on levels of mixed depth, monotone and not, in no particular order."""
    b = [(2.0 * np.arange(n + 1) - n) / np.sqrt(m) for n in range(m + 1)]
    return [b[m] + 0.5, np.sin(3.0 * b[7]), -np.exp(b[30]), b[0] + 2.0, b[12] * b[12] - 1.0,
            b[30] - 0.2, np.cos(b[1]), b[m - 1] ** 3, np.full(5, 2.0), np.abs(b[21]) - 0.5]


@pytest.mark.parametrize("driver", [
    bs.Driver.kappa_abs(0.3), bs.Driver.kappa_abs(-0.7), bs.Driver.kappa_abs(0.5, False),
    bs.Driver.kappa_abs(-0.5, False), bs.Driver.kappa_abs(0.0), AFFINE_Y, Y_PART,
], ids=["kappa-y", "neg-kappa-y", "kappa-z", "neg-kappa-z", "kappa-0", "affine-y",
        "callable-y"])
def test_stacked_roll_back_matches_each_row_alone(driver):
    # Rows join the pass at their own depth; under the kappa family and a
    # driver declared affine in y every root equals the one-row roll-back
    # bit for bit, comonotone rows and recursion rows alike.  Any other
    # driver that reads y sweeps each level of the stack as one array,
    # within the sweep tolerance of each row alone.
    m = 40
    dt, nodes = 1.0 / m, np.linspace(0.0, 1.0, m + 1)
    stack = _mixed_stack(m)
    before = [w.copy() for w in stack]
    got = _kernels.tree_backward_values(stack, dt, driver, nodes)
    alone = [_kernels.tree_backward_value(w, dt, driver, nodes) for w in stack]
    assert got.shape == (len(stack),)
    if _closed_form(driver):
        assert np.array_equal(got, alone)
    else:
        assert _swept_close(got, np.array(alone))
    # the stack is left as it was
    assert all(np.array_equal(w, v) for w, v in zip(stack, before))


# a driver that does not vanish at the origin
OFF_ORIGIN = bs.Driver(fn=lambda t, y, z: 0.9 * np.cos(y + t) + 0.3 * np.abs(z), lipschitz=0.9,
                       depends_on_y=True, depends_on_z=True)
CONTINUED = [bs.Driver.kappa_abs(0.3), bs.Driver.kappa_abs(0.5, False), AFFINE_Y, Y_PART,
             OFF_ORIGIN]
CONTINUED_IDS = ["kappa-y", "kappa-z", "affine-y", "callable-y", "off-origin"]


def _check_continuation(driver, levels, grid):
    """One stacked call against each level's one-level call and the oracle.

    Under the ``kappa`` closed form or a driver declared affine in y the
    stack equals each one-level call bit for bit, and agrees with the
    oracle's steps to rounding (the ``kappa`` form collapses them into one
    power).  Any other callable driver sweeps the
    stack as one array: each level agrees with its one-level call, which
    runs the oracle's own steps bit for bit, within the sweep tolerance.
    """
    before = [rv.values.copy() for rv in levels]
    got = bs.zero_noise_continuation(driver, levels, grid)
    assert len(got) == len(levels)
    for rv, out in zip(levels, got):
        alone = bs.zero_noise_continuation(driver, [rv], grid)[0]
        ref = _stepped_continuation(driver, rv, grid)
        if _closed_form(driver):
            assert np.array_equal(out, alone)
            assert np.max(np.abs(out - ref)) <= EXACT * max(1.0, np.max(np.abs(ref)))
        else:
            assert np.array_equal(alone, ref)
            assert _swept_close(out, alone) and _swept_close(out, ref)
    assert all(np.array_equal(rv.values, v) for rv, v in zip(levels, before))
    return got


@pytest.mark.parametrize("driver", CONTINUED, ids=CONTINUED_IDS)
def test_stacked_continuation_matches_each_level_alone(driver):
    # Each tree level continued from the horizon back to its own date, the
    # stack stepping the levels still ahead of each date together.
    m = 40
    grid = sc.TimeGrid(1.0, m)
    levels = [sc.RandomVariable(w.size - 1, w) for w in _mixed_stack(m)]
    got = _check_continuation(driver, levels, grid)
    assert not np.array_equal(got[1], levels[1].values) or not driver.depends_on_y


@pytest.mark.parametrize("driver", CONTINUED, ids=CONTINUED_IDS)
def test_stacked_continuation_on_paths_matches_each_level_alone(driver):
    # Monte Carlo levels of mixed index, one row per level, all paths wide.
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 12), "montecarlo", n_paths=64, seed=3)
    levels = [sc.RandomVariable(i, np.sin(3.0 * scen.paths[:, i]) + 0.1 * i + 0.5)
              for i in (12, 5, 0, 9, 5, 11, 1)]
    got = _check_continuation(driver, levels, scen.grid)
    assert not np.array_equal(got[2], levels[2].values) or not driver.depends_on_y


def test_affine_roll_back_and_continuation_match_the_sweep():
    # The oracle is the same fn untagged: its sweep leaves each level within
    # the sweep tolerance 1e-13*(1 + max|y|) of the exact step, and no level
    # exceeds the stack's max|w|.  A tree step (positive weights, since
    # 0.3*sqrt(dt) <= 1, over 1 + 0.5*dt) and a zero-noise step (over
    # 1 + 0.5*dt) pass an error on no larger, so after m levels the two
    # agree within m sweep tolerances.  The tagged continuation is the
    # discount (1 + 0.5*dt)**(i - m) to rounding.
    m = 40
    dt, nodes = 1.0 / m, np.linspace(0.0, 1.0, m + 1)
    plain = bs.Driver(**AFFINE_FN)
    stack = _mixed_stack(m)
    bound = m * bs._SWEEP_TOL * (1.0 + max(float(np.max(np.abs(w))) for w in stack))
    got = _kernels.tree_backward_values(stack, dt, AFFINE_Y, nodes)
    assert np.max(np.abs(got - _kernels.tree_backward_values(stack, dt, plain, nodes))) <= bound
    grid = sc.TimeGrid(1.0, m)
    levels = [sc.RandomVariable(w.size - 1, w) for w in stack]
    got = bs.zero_noise_continuation(AFFINE_Y, levels, grid)
    for rv, out, ref in zip(levels, got, bs.zero_noise_continuation(plain, levels, grid)):
        assert np.max(np.abs(out - ref)) <= bound
        exact = rv.values * (1.0 + 0.5 * dt) ** (rv.index - m)
        assert np.max(np.abs(out - exact)) <= EXACT * max(1.0, np.max(np.abs(exact)))


def test_stacked_sweep_matches_each_row_alone():
    # A 2-d implicit step sweeps the stack as one array: rows that would
    # converge in fewer sweeps alone agree with their 1-d step within the
    # sweep tolerance.
    e = np.array([[1e-3, 2.0, -1.0], [50.0, -80.0, 3.0], [0.0, 0.0, 0.0]])
    z = np.array([[0.1, -0.2, 0.0], [4.0, 1.0, -2.0], [0.0, 0.0, 0.0]])
    got = bs.implicit_step(Y_PART, 0.3, e, z, 0.05)
    for row in range(3):
        assert _swept_close(got[row], bs.implicit_step(Y_PART, 0.3, e[row], z[row], 0.05))


def test_stacked_roll_back_input_validation():
    driver = bs.Driver.kappa_abs(0.3)
    nodes = np.linspace(0.0, 1.0, 5)
    assert _kernels.tree_backward_values([], 0.25, driver, nodes).shape == (0,)
    with pytest.raises(ValueError):
        _kernels.tree_backward_values([np.ones(3), np.array([])], 0.25, driver, nodes)
    with pytest.raises(ValueError):
        _kernels.tree_backward_values([np.ones(3), np.ones((2, 2))], 0.25, driver, nodes)
    blow_up = bs.Driver(fn=lambda t, y, z: np.where(np.asarray(y) > 1.5, np.inf, 0.0),
                        lipschitz=1.0, depends_on_y=True)
    with pytest.raises(FixedPointError):
        _kernels.tree_backward_values([np.ones(2), np.full(2, 2.0)], 0.25, blow_up, nodes)


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


def test_comonotone_weights_are_cached_read_only():
    # The cached weights equal a fresh computation, cannot be written to, and
    # leave the comonotone value's floats as they were.
    for n, p in ((8, 0.5), (200, 0.5 * (1.0 + 0.3 / np.sqrt(200))), (40, 0.2)):
        cached = _kernels._binomial_weights(n, p)
        assert np.array_equal(cached, sc.binomial_weights(n, p))
        assert _kernels._binomial_weights(n, p) is cached
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 1.0
    dt = 1.0 / 40
    for kappa in (0.5, -0.5):
        driver = bs.Driver.kappa_abs(kappa, False)
        for w in (np.linspace(-1.0, 2.0, 41), np.exp(-np.arange(31) / 7.0)):
            sign = 1.0 if w[-1] > w[0] else -1.0
            fresh = sc.binomial_weights(w.size - 1, 0.5 * (1.0 + sign * kappa * np.sqrt(dt)))
            assert _kernels._comonotone_value(w, dt, driver) == float(fresh @ w)


def test_backend_label():
    assert nebsde.KERNEL_BACKEND == "python"
