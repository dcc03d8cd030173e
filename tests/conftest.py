"""Shared scenario fixtures (session-scoped: building trees is cheap, reuse anyway)."""

import os
from pathlib import Path

import numpy as np
import pytest

import nebsde
from nebsde import TimeGrid, build_scenarios
from nebsde import scenarios as sc

from oracles import girsanov_weights


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports the package under test."""
    src = str(Path(nebsde.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` counts calls through a module attribute.

    Returns a one-item list holding the count; calls made through the
    module attribute (``pc.solve_reflected``, ...) are the ones seen.
    """

    def install(module, name):
        calls = [0]
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install


@pytest.fixture(scope="session")
def tree8():
    return build_scenarios(TimeGrid(1.0, 8), "tree")


@pytest.fixture(scope="session")
def tree50():
    return build_scenarios(TimeGrid(1.0, 50), "tree")


@pytest.fixture(scope="session")
def tree100():
    return build_scenarios(TimeGrid(1.0, 100), "tree")


@pytest.fixture(scope="session")
def tree200():
    return build_scenarios(TimeGrid(1.0, 200), "tree")


@pytest.fixture(scope="session")
def mc50():
    return build_scenarios(
        TimeGrid(1.0, 50), "montecarlo", n_paths=4000, seed=7, basis_degree=3
    )


def _log_space_tilted_means(scen, kernels, i, values):
    """Each kernel's tilted mean of ``values`` at index ``i``, built afresh per call.

    The per-call formula that :func:`nebsde.scenarios.tilt_table` replaced,
    kept as its oracle: on the tree the level's binomial weights times
    ``exp(theta*(B_i - B*))`` in log space, ``exp(logw - max logw)``,
    divided by their sum; on Monte Carlo paths one renormalised terminal
    Girsanov density per kernel.
    """
    thetas = np.atleast_1d(np.asarray(kernels, dtype=float))
    if scen.mode == "montecarlo":
        return np.array([np.mean(girsanov_weights(scen, th).values * values) for th in thetas])
    b = scen.tree_values[i]
    extreme = np.copysign(b[-1], thetas)[:, None]
    with np.errstate(divide="ignore", over="ignore"):
        logw = np.log(scen.tree_weights[i]) + thetas[:, None] * (b - extreme)
    w = np.exp(logw - np.max(logw, axis=1, keepdims=True))
    return np.sum(w * values, axis=1) / np.sum(w, axis=1)


@pytest.fixture
def tilt_oracle():
    """``tilt_oracle(scen, kernels, i, values)``: the log-space tilted means, one per kernel."""
    return _log_space_tilted_means
