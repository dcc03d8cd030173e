"""The reflected backward recursion: per-step iteration, oracles, failure handling."""

import numpy as np
import pytest

from nebsde import bsde as bs
from nebsde import expectations as ne
from nebsde import picard as pc
from nebsde import reflection as rf
from nebsde import risk as rk
from nebsde import scenarios as sc
from nebsde.errors import FixedPointError, PicardDivergenceError

CLS = ne.NonlinearExpectation.classical()


def _binding_instance(m=60):
    scen = sc.build_scenarios(sc.TimeGrid(1.0, m), "tree")
    claim = bs.TerminalClaim.from_function(scen, lambda b: b + 1.05)
    driver = bs.Driver(
        fn=lambda t, y, z: -0.2 * np.asarray(y) + 0.1 * np.abs(z),
        lipschitz=0.3, depends_on_y=True, depends_on_z=True,
    )
    return scen, claim, driver, rf.LossFunction.linear(1.0)


def test_iteration_norms_contract():
    scen, claim, driver, loss = _binding_instance()
    sol = pc.solve_reflected(scen, claim, driver, loss, CLS)
    diag = sol.picard
    assert [len(norms) for norms in diag.diff_norms] == diag.iterations
    binding = [norms for norms in diag.diff_norms if len(norms) >= 2]
    assert binding  # the lift feeds back through the generator
    for norms in binding:
        assert norms[1] < norms[0]
        assert norms[-1] <= 1e-8
    assert diag.ratio_max < 1.0
    assert diag.attempts == 1


def test_state_free_generator_collapses_to_exact_pass(tree50):
    claim = bs.TerminalClaim.from_function(tree50, lambda b: b + 0.5)
    loss = rf.LossFunction.linear(0.0)
    driver = bs.Driver.time_dependent(lambda t: -1.0 + 0.2 * t)
    via_picard = pc.solve_reflected(tree50, claim, driver, loss, CLS)
    # Hand oracle: B is a martingale, so the unreflected level is
    # B_{t_i} + 0.5 + sum_{j >= i} c_j dt; the minimal shift under the floor
    # 0 is max(0, -mean); Y adds the suffix max of the shifts, which is what
    # lifting each level by the shift it still needs adds up to.
    nodes, dt = tree50.grid.nodes, tree50.grid.dt
    tail = np.append(np.cumsum(((-1.0 + 0.2 * nodes[:-1]) * dt)[::-1])[::-1], 0.0)
    shifts = np.maximum(0.0, -(0.5 + tail))
    suffix = np.maximum.accumulate(shifts[::-1])[::-1]
    assert shifts.max() > 0.1  # the floor binds
    assert np.max(np.abs(via_picard.K.values - (suffix[0] - suffix))) <= 2e-8
    for i, y in enumerate(via_picard.Y):
        expected = tree50.tree_values[i] + 0.5 + tail[i] + suffix[i]
        assert np.max(np.abs(y.values - expected)) <= 2e-8
    assert via_picard.picard.iterations == [1] * 50


def test_iteration_budget_exhaustion_raises():
    # A binding problem with a state-dependent generator needs at least two
    # passes on each binding step; a budget of one must fail.
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 12), "tree")
    claim = bs.TerminalClaim.from_function(scen, lambda b: b + 1.05)
    driver = bs.Driver(
        fn=lambda t, y, z: -0.5 * np.asarray(y), lipschitz=0.5, depends_on_y=True
    )
    loss = rf.LossFunction.linear(1.0)
    with pytest.raises(PicardDivergenceError):
        pc.solve_reflected(scen, claim, driver, loss, CLS, pc.SolveOptions(max_picard_iters=1))
    # Same instance with the default budget self-consists in two passes.
    sol = pc.solve_reflected(scen, claim, driver, loss, CLS)
    assert max(sol.picard.iterations) == 2
    assert sol.K.total > 0.1


def test_non_finite_level_raises(tree8):
    claim = bs.TerminalClaim.from_function(tree8, lambda b: b + 1.0)
    driver = bs.Driver(
        fn=lambda t, y, z: np.full_like(np.asarray(z, dtype=float), np.inf),
        lipschitz=1.0, depends_on_z=True,
    )
    with pytest.raises(FixedPointError):
        pc.solve_reflected(tree8, claim, driver, rf.LossFunction.linear(0.0), CLS)


def test_solution_stitching_invariants():
    scen, claim, driver, loss = _binding_instance()
    sol = pc.solve_reflected(scen, claim, driver, loss, CLS)
    m = scen.grid.steps
    assert len(sol.Y) == m + 1
    assert [y.index for y in sol.Y] == list(range(m + 1))
    assert len(sol.Z) == m
    assert sol.K.values.shape == (m + 1,)
    assert sol.K.values[0] == 0.0
    assert np.min(np.diff(sol.K.values)) >= -1e-12
    diag = sol.picard
    assert diag.window_bounds == [(i, i + 1) for i in range(m)]
    assert len(diag.iterations) == m
    # Terminal level reproduces the claim exactly.
    assert np.array_equal(sol.Y[-1].values, claim.values)
    # Constraint holds everywhere after reflection.
    assert float(np.min(sol.diagnostics.constraint_values)) >= -1e-8


def test_options_validation():
    bad = [
        ("picard_tol", 0.0), ("picard_tol", -1e-8), ("picard_tol", np.nan),
        ("picard_tol", np.inf), ("max_picard_iters", 0),
        ("operator_tol", 0.0), ("operator_tol", -1.0), ("operator_tol", np.nan),
        ("operator_tol", np.inf),
        ("feasibility_tol", -1e-6), ("feasibility_tol", np.nan), ("feasibility_tol", np.inf),
    ]
    for field, value in bad:
        with pytest.raises(ValueError):
            pc.SolveOptions(**{field: value})
    pc.SolveOptions(feasibility_tol=0.0)


def test_mean_constraint_problem_wiring(tree50):
    loss = rf.LossFunction.linear(0.2)
    problem = rf.mean_constraint_problem(tree50, loss, CLS)
    assert problem.exact and problem.slope == 1.0
    rv = sc.RandomVariable(50, tree50.tree_values[50] + 0.7)
    assert abs(problem.constraint(50, rv.values) - (0.7 - 0.2)) <= 1e-12
    shift, iters, _ = rf.lift(problem, 50, rv.values, 1e-8)
    assert shift == 0.0 and iters == 0
    low = sc.RandomVariable(50, tree50.tree_values[50] - 0.7)
    shift, _, value = rf.lift(problem, 50, low.values, 1e-8)
    assert shift == pytest.approx(0.9, abs=2e-8)
    assert value == problem.constraint(50, low.values + shift) >= 0.0


CONCAVE = rf.LossFunction(fn=lambda t, x: np.minimum(x, 0.6 * np.asarray(x)),
                          lower=0.6, upper=1.0, shape="concave")
Y_DRIVER = bs.Driver(fn=lambda t, y, z: -0.2 * np.asarray(y) + 0.1 * np.abs(z),
                     lipschitz=0.3, depends_on_y=True, depends_on_z=True)


@pytest.mark.parametrize("case", ["maxmin-linear", "gexp-concave", "montecarlo-classical"])
def test_stored_constraint_values_match_a_fresh_evaluation(case):
    # constraint_values[i] is the value the lift verified on the final level
    # i; it must equal a from-scratch evaluation of Y_i bit for bit, and the
    # stored residual must equal the from-scratch audit.
    if case == "montecarlo-classical":
        scen = sc.build_scenarios(sc.TimeGrid(1.0, 20), "montecarlo", n_paths=500, seed=3,
                                  basis_degree=3)
        claim = bs.TerminalClaim.from_function(scen, lambda b: b + 1.05)
        exp, loss, driver = CLS, rf.LossFunction.linear(1.0), Y_DRIVER
    else:
        scen = sc.build_scenarios(sc.TimeGrid(1.0, 60), "tree")
        claim = bs.TerminalClaim.from_function(scen, lambda b: b + 0.5)
        driver = bs.Driver.constant(-1.0)
        if case == "maxmin-linear":
            exp = ne.NonlinearExpectation.alpha_maxmin(alpha=0.3, kappa=0.5)
            loss = rf.LossFunction.linear(0.0)
        else:
            exp = ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(0.3, include_y=True))
            loss = CONCAVE
    sol = pc.solve_reflected(scen, claim, driver, loss, exp)
    diag = sol.diagnostics
    assert diag.shift_closed_form + diag.shift_search > 0
    if case == "maxmin-linear":
        assert diag.shift_search == 0
    elif case == "gexp-concave":
        assert diag.shift_closed_form == 0
    else:
        assert max(sol.picard.iterations) > 1
    fresh = [rf.constraint_value(exp, loss, scen, y.index, y.values) for y in sol.Y]
    assert np.array_equal(diag.constraint_values, fresh)
    assert rf.skorokhod_residual(scen, sol, loss, exp) == diag.skorokhod_residual


def test_stored_risk_slack_matches_a_fresh_evaluation(tree50):
    # A rate != 0 makes the generator read y, so binding steps take several
    # passes; the stored slack is the one of the final pass.
    mkt = rk.Market(rate=0.05, drift=0.25, volatility=0.2)
    rho = rk.RiskMeasure.coherent_family([-0.5, 0.0, 0.5])
    q = rk.Benchmark.constant(tree50.grid, 0.45)
    claim = bs.TerminalClaim.from_function(tree50, lambda b: b + 0.45)
    sol = rk.superhedge_price(mkt, tree50, claim, rho, q).solution
    assert sol.K.total > 0.0 and max(sol.picard.iterations) > 1
    fresh = [0.45 - rk.evaluate_risk(rho, tree50, y.index, y) for y in sol.Y]
    assert np.array_equal(sol.diagnostics.constraint_values, fresh)


def _counting(monkeypatch, module, name):
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("mode", ["tree", "montecarlo", "risk"])
def test_slack_solve_evaluates_each_level_once(monkeypatch, mode):
    # Nothing binds: the terminal feasibility check, then one evaluation per
    # level, kept as that level's constraint value.
    m = 20
    if mode == "montecarlo":
        scen = sc.build_scenarios(sc.TimeGrid(1.0, m), "montecarlo", n_paths=200, seed=1)
    else:
        scen = sc.build_scenarios(sc.TimeGrid(1.0, m), "tree")
    claim = bs.TerminalClaim.from_function(scen, lambda b: b + 5.0)
    driver = bs.Driver.constant(0.0)
    if mode == "risk":
        calls = _counting(monkeypatch, rk, "evaluate_risk")
        rho = rk.RiskMeasure.coherent_family([-0.5, 0.5])
        sol = rk.solve_risk_reflected(scen, claim, driver, rho,
                                      rk.Benchmark.constant(scen.grid, 0.0))
    else:
        calls = _counting(monkeypatch, rf, "constraint_value")
        sol = pc.solve_reflected(scen, claim, driver, rf.LossFunction.linear(0.0), CLS)
    assert sol.K.total == 0.0
    assert calls[0] <= m + 2
