"""Shared scenario fixtures (session-scoped: building trees is cheap, reuse anyway)."""

import os
from pathlib import Path

import pytest

import nebsde
from nebsde import TimeGrid, build_scenarios


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
