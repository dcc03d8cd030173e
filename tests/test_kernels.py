"""Backward tree kernels: hand-worked cases and continuation identities."""

import numpy as np
import pytest

import nebsde
from nebsde import _kernels

EXACT = 1e-12


def test_single_step_z_only_by_hand():
    # Terminal [-1, 3], dt=1: midpoint 1, |z| contribution |(3+1)/2| = 2.
    v = _kernels.tree_backward_value(np.array([-1.0, 3.0]), 1.0, 0.3, False)
    assert abs(v - 1.6) <= EXACT
    v = _kernels.tree_backward_value(np.array([-1.0, 3.0]), 1.0, -0.3, False)
    assert abs(v - 0.4) <= EXACT


def test_single_step_with_y_term_by_hand():
    # Positive intermediate value divides by (1 - kappa*dt) resp. (1 + kappa*dt).
    v = _kernels.tree_backward_value(np.array([-1.0, 3.0]), 1.0, 0.3, True)
    assert abs(v - 1.6 / 0.7) <= EXACT
    v = _kernels.tree_backward_value(np.array([-1.0, 3.0]), 1.0, -0.3, True)
    assert abs(v - 0.4 / 1.3) <= EXACT


def test_constant_terminal_matches_continuation():
    dt, m = 0.02, 10
    for kappa in (0.7, -0.7):
        v = _kernels.tree_backward_value(np.full(m + 1, 2.0), dt, kappa, True)
        cont = _kernels.kappa_continuation(np.array([2.0]), dt, m, kappa, True)
        assert abs(v - cont[0]) <= EXACT
        assert abs(v - 2.0 * (1.0 - kappa * dt) ** (-m)) <= EXACT


def test_continuation_matches_stepwise_factors():
    vals = np.array([-2.0, 0.001, 3.0])
    dt, steps, kappa = 0.01, 7, 0.4
    out = _kernels.kappa_continuation(vals, dt, steps, kappa, True)
    pos = (1.0 - kappa * dt) ** (-steps)
    neg = (1.0 + kappa * dt) ** (-steps)
    expected = np.where(vals >= 0.0, vals * pos, vals * neg)
    assert np.max(np.abs(out - expected)) <= EXACT


def test_continuation_identity_cases():
    vals = np.array([1.0, -4.0])
    assert np.array_equal(_kernels.kappa_continuation(vals, 0.1, 0, 0.5, True), vals)
    assert np.array_equal(_kernels.kappa_continuation(vals, 0.1, 5, 0.5, False), vals)
    assert np.array_equal(_kernels.kappa_continuation(vals, 0.1, 5, 0.0, True), vals)


def test_step_size_guard():
    with pytest.raises(ValueError):
        _kernels.kappa_continuation(np.array([1.0]), 1.0, 3, 1.5, True)
    with pytest.raises(ValueError):
        _kernels.tree_backward_value(np.array([-1.0, 3.0]), 1.0, 1.5, True)


def test_input_validation():
    with pytest.raises(ValueError):
        _kernels.tree_backward_value(np.zeros((2, 2)), 1.0, 0.1, False)
    with pytest.raises(ValueError):
        _kernels.tree_backward_value(np.array([]), 1.0, 0.1, False)
    with pytest.raises(ValueError):
        _kernels.tree_backward_value(np.array([1.0]), 0.0, 0.1, False)


def test_backend_label():
    assert nebsde.KERNEL_BACKEND == "python"
