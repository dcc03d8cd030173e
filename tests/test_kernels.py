"""Backward tree kernels: hand-worked cases, backend parity, env override."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nebsde
from nebsde import _kernels
from nebsde._kernels import _tree_np

try:
    from nebsde._kernels import _tree_cy
except ImportError:  # pragma: no cover - compiled backend optional
    _tree_cy = None

EXACT = 1e-12


def test_single_step_z_only_by_hand():
    # Terminal [-1, 3], dt=1: midpoint 1, |z| contribution |(3+1)/2| = 2.
    v = _tree_np.tree_backward_value(np.array([-1.0, 3.0]), 1.0, 0.3, False)
    assert abs(v - 1.6) <= EXACT
    v = _tree_np.tree_backward_value(np.array([-1.0, 3.0]), 1.0, -0.3, False)
    assert abs(v - 0.4) <= EXACT


def test_single_step_with_y_term_by_hand():
    # Positive intermediate value divides by (1 - kappa*dt) resp. (1 + kappa*dt).
    v = _tree_np.tree_backward_value(np.array([-1.0, 3.0]), 1.0, 0.3, True)
    assert abs(v - 1.6 / 0.7) <= EXACT
    v = _tree_np.tree_backward_value(np.array([-1.0, 3.0]), 1.0, -0.3, True)
    assert abs(v - 0.4 / 1.3) <= EXACT


def test_constant_terminal_matches_continuation():
    dt, m = 0.02, 10
    for kappa in (0.7, -0.7):
        v = _tree_np.tree_backward_value(np.full(m + 1, 2.0), dt, kappa, True)
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
        _tree_np.tree_backward_value(np.array([-1.0, 3.0]), 1.0, 1.5, True)
    if _tree_cy is not None:
        with pytest.raises(ValueError):
            _tree_cy.tree_backward_value(np.array([-1.0, 3.0]), 1.0, 1.5, True)


def test_input_validation():
    with pytest.raises(ValueError):
        _tree_np.tree_backward_value(np.zeros((2, 2)), 1.0, 0.1, False)
    with pytest.raises(ValueError):
        _tree_np.tree_backward_value(np.array([]), 1.0, 0.1, False)
    with pytest.raises(ValueError):
        _tree_np.tree_backward_value(np.array([1.0]), 0.0, 0.1, False)


@pytest.mark.skipif(_tree_cy is None, reason="compiled backend not built")
def test_backend_parity():
    rng = np.random.default_rng(2024)
    for m in (1, 5, 50, 200):
        vals = rng.normal(0.0, 2.0, m + 1)
        dt = 1.0 / m
        for kappa in (0.0, 0.5, -0.5, 2.0, -2.0):
            if abs(kappa) * dt >= 1.0:
                continue
            for include_y in (False, True):
                a = _tree_np.tree_backward_value(vals, dt, kappa, include_y)
                b = _tree_cy.tree_backward_value(vals, dt, kappa, include_y)
                assert abs(a - b) <= 1e-12, (m, kappa, include_y)


def test_backend_label():
    assert nebsde.KERNEL_BACKEND in ("cython", "python")
    assert _kernels.BACKEND == nebsde.KERNEL_BACKEND


def test_env_override_forces_python_backend(child_env):
    env = dict(child_env, NEBSDE_PURE_PYTHON="1")
    out = subprocess.run(
        [sys.executable, "-c", "import nebsde; print(nebsde.KERNEL_BACKEND)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "python"


def test_bench_script_runs_from_checkout(tmp_path):
    # The kernel benchmark finds the checkout's package without PYTHONPATH.
    script = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(script), "--sizes", "8", "--repeats", "1"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
