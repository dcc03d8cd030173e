"""Windowed successive approximation: invariance, fast paths, failure handling."""

import numpy as np
import pytest

from nebsde import bsde as bs
from nebsde import expectations as ne
from nebsde import picard as pc
from nebsde import reflection as rf
from nebsde import scenarios as sc
from nebsde.errors import PicardDivergenceError

CLS = ne.NonlinearExpectation.classical()


def _binding_instance(m=60):
    scen = sc.build_scenarios(sc.TimeGrid(1.0, m), "tree")
    claim = bs.TerminalClaim.from_function(scen, lambda b: b + 1.05)
    driver = bs.Driver(
        fn=lambda t, y, z: -0.2 * np.asarray(y) + 0.1 * np.abs(z),
        lipschitz=0.3, depends_on_y=True, depends_on_z=True,
    )
    return scen, claim, driver, rf.LossFunction.linear(1.0)


def test_window_count_invariance():
    scen, claim, driver, loss = _binding_instance()
    sols = {
        n: pc.solve_reflected(scen, claim, driver, loss, CLS, pc.SolveOptions(n_sub=n))
        for n in (1, 2, 4)
    }
    assert sols[1].K.total > 0.01  # constraint actually binds
    for a, b in ((1, 2), (1, 4), (2, 4)):
        dy = max(
            float(np.max(np.abs(ya.values - yb.values)))
            for ya, yb in zip(sols[a].Y, sols[b].Y)
        )
        dk = float(np.max(np.abs(sols[a].K.values - sols[b].K.values)))
        assert dy <= 5e-8
        assert dk <= 5e-8


def test_iteration_norms_contract():
    scen, claim, driver, loss = _binding_instance()
    sol = pc.solve_reflected(scen, claim, driver, loss, CLS, pc.SolveOptions(n_sub=1))
    norms = sol.picard.diff_norms[0]
    assert len(norms) >= 2
    assert norms[1] < norms[0]
    assert sol.picard.iterations[0] == len(norms)
    assert sol.picard.attempts == 1


def test_state_free_generator_collapses_to_exact_pass(tree50):
    claim = bs.TerminalClaim.from_function(tree50, lambda b: b + 0.5)
    loss = rf.LossFunction.linear(0.0)
    driver = bs.Driver.time_dependent(lambda t: -1.0 + 0.2 * t)
    via_picard = pc.solve_reflected(tree50, claim, driver, loss, CLS)
    # Hand oracle: B is a martingale, so the unreflected level is
    # B_{t_i} + 0.5 + sum_{j >= i} c_j dt; the minimal shift under the floor
    # 0 is max(0, -mean); Y adds the suffix max of the shifts.
    nodes, dt = tree50.grid.nodes, tree50.grid.dt
    tail = np.append(np.cumsum(((-1.0 + 0.2 * nodes[:-1]) * dt)[::-1])[::-1], 0.0)
    shifts = np.maximum(0.0, -(0.5 + tail))
    suffix = np.maximum.accumulate(shifts[::-1])[::-1]
    assert shifts.max() > 0.1  # the floor binds
    assert np.max(np.abs(via_picard.K.values - (suffix[0] - suffix))) <= 2e-8
    for i, y in enumerate(via_picard.Y):
        expected = tree50.tree_values[i] + 0.5 + tail[i] + suffix[i]
        assert np.max(np.abs(y.values - expected)) <= 2e-8
    assert via_picard.picard.n_sub == 1
    assert list(via_picard.picard.iterations) == [1]


def test_iteration_budget_exhaustion_raises():
    # A binding problem with a state-dependent generator needs at least two
    # passes; a budget of one must fail under either action (halving ends at
    # single-step windows, which still need the second pass).
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 12), "tree")
    claim = bs.TerminalClaim.from_function(scen, lambda b: b + 1.05)
    driver = bs.Driver(
        fn=lambda t, y, z: -0.5 * np.asarray(y), lipschitz=0.5, depends_on_y=True
    )
    loss = rf.LossFunction.linear(1.0)
    for action in ("fail", "halve-intervals"):
        opts = pc.SolveOptions(n_sub=1, max_picard_iters=1, divergence_action=action)
        with pytest.raises(PicardDivergenceError):
            pc.solve_reflected(scen, claim, driver, loss, CLS, opts)
    # Same instance with the default budget self-consists in two passes.
    sol = pc.solve_reflected(scen, claim, driver, loss, CLS, pc.SolveOptions(n_sub=1))
    assert list(sol.picard.iterations) == [2]
    assert sol.K.total > 0.1


def test_subinterval_plan_shapes(tree50):
    scen10 = sc.build_scenarios(sc.TimeGrid(1.0, 10), "tree")
    drv = bs.Driver.constant(0.0)
    plan = pc.subinterval_plan(scen10, drv, 1.0, 1.0, 0.0, 3)
    assert plan == [(0, 3), (3, 7), (7, 10)]
    with pytest.raises(ValueError):
        pc.subinterval_plan(scen10, drv, 1.0, 1.0, 0.0, 11)
    # Automatic choice: contiguous cover with nonempty windows.
    lip = bs.Driver(
        fn=lambda t, y, z: 0.3 * np.asarray(y), lipschitz=0.3, depends_on_y=True
    )
    auto = pc.subinterval_plan(tree50, lip, 0.5, 2.0, 0.0, 0)
    assert auto[0][0] == 0 and auto[-1][1] == 50
    assert all(b > a for a, b in auto)
    assert all(auto[k][1] == auto[k + 1][0] for k in range(len(auto) - 1))
    # A harsher generator never loosens the plan.
    harsher = bs.Driver(
        fn=lambda t, y, z: 3.0 * np.asarray(y), lipschitz=3.0, depends_on_y=True
    )
    assert len(pc.subinterval_plan(tree50, harsher, 0.5, 2.0, 0.0, 0)) >= len(auto)


def test_contraction_heuristic_monotone():
    base = pc.contraction_heuristic(0.3, 0.0, 1.0, 1.0, 1.0)
    assert pc.contraction_heuristic(0.6, 0.0, 1.0, 1.0, 1.0) > base
    assert pc.contraction_heuristic(0.3, 0.5, 1.0, 1.0, 1.0) > base
    assert pc.contraction_heuristic(0.3, 0.0, 0.5, 2.0, 1.0) > base


def test_solution_stitching_invariants():
    scen, claim, driver, loss = _binding_instance()
    sol = pc.solve_reflected(scen, claim, driver, loss, CLS, pc.SolveOptions(n_sub=4))
    m = scen.grid.steps
    assert len(sol.Y) == m + 1
    assert [y.index for y in sol.Y] == list(range(m + 1))
    assert len(sol.Z) == m
    assert sol.K.values.shape == (m + 1,)
    assert sol.K.values[0] == 0.0
    assert np.min(np.diff(sol.K.values)) >= -1e-12
    diag = sol.picard
    assert diag.n_sub == 4
    assert len(diag.window_bounds) == 4
    assert diag.window_bounds[0][0] == 0 and diag.window_bounds[-1][1] == m
    assert len(diag.iterations) == 4
    # Terminal level reproduces the claim exactly.
    assert np.array_equal(sol.Y[-1].values, claim.values)
    # Constraint holds everywhere after reflection.
    assert float(np.min(sol.diagnostics.constraint_values)) >= -1e-8


def test_options_validation():
    with pytest.raises(ValueError):
        pc.SolveOptions(n_sub=-1)
    with pytest.raises(ValueError):
        pc.SolveOptions(picard_tol=0.0)
    with pytest.raises(ValueError):
        pc.SolveOptions(max_picard_iters=0)
    with pytest.raises(ValueError):
        pc.SolveOptions(divergence_action="panic")


def test_mean_constraint_problem_wiring(tree50):
    loss = rf.LossFunction.linear(0.2)
    problem = pc.mean_constraint_problem(tree50, loss, CLS, 1e-8)
    rv = sc.RandomVariable(50, tree50.tree_values[50] + 0.7)
    assert abs(problem.constraint(50, rv.values) - (0.7 - 0.2)) <= 1e-12
    shift, iters = problem.shift(50, rv)
    assert shift == 0.0 and iters == 0
    low = sc.RandomVariable(50, tree50.tree_values[50] - 0.7)
    shift, _ = problem.shift(50, low)
    assert shift == pytest.approx(0.9, abs=2e-8)
