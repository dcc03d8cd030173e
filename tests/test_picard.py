"""The reflected backward recursion: one root per date, oracles, failure handling."""

import configparser
import dataclasses

import numpy as np
import pytest

from nebsde import bsde as bs
from nebsde import cli
from nebsde import expectations as ne
from nebsde import picard as pc
from nebsde import reflection as rf
from nebsde import risk as rk
from nebsde import scenarios as sc
from nebsde.errors import BracketFailureError, FixedPointError, SupportMismatchError

from oracles import REROLL_TOL, reroll_solve, time_dependent_driver

CLS = ne.NonlinearExpectation.classical()


def _binding_instance(m=60):
    scen = sc.build_scenarios(sc.TimeGrid(1.0, m), "tree")
    claim = bs.TerminalClaim.from_function(scen, lambda b: b + 1.05)
    driver = bs.Driver(
        fn=lambda t, y, z: -0.2 * np.asarray(y) + 0.1 * np.abs(z),
        lipschitz=0.3, depends_on_y=True, depends_on_z=True,
    )
    return scen, claim, driver, rf.LossFunction.linear(1.0)


def test_flow_search_takes_one_root_per_date():
    # A driver that reads y: each binding level is the step taken with its
    # flow increment, Y_i = S(e + dK_i) to the sweep tolerance, and dK_i is
    # the least such increment: OPERATOR_TOL less misses the constraint.
    scen, claim, driver, loss = _binding_instance()
    sol = pc.solve_reflected(scen, claim, driver, loss, CLS)
    m, dt = scen.grid.steps, scen.grid.dt
    assert sol.picard.iterations == [1] * m and sol.picard.attempts == 1
    problem = rf.mean_constraint_problem(scen, loss, CLS)
    binding = np.flatnonzero(sol.K.increments > 0.0)
    assert binding.size > m // 2
    assert sol.diagnostics.shift_search == binding.size
    for i in binding:
        t = float(scen.grid.nodes[i])
        e, z = sc.step_fit(scen, sol.Y[i + 1].values, i)
        d = sol.K.increments[i]
        stepped = bs.implicit_step(driver, t, e + d, z, dt)
        assert np.max(np.abs(stepped - sol.Y[i].values)) <= 1e-12
        short = bs.implicit_step(driver, t, e + d - rf.OPERATOR_TOL, z, dt)
        assert problem.constraint(i, short) <= 1e-12


def test_state_free_generator_collapses_to_exact_pass(tree50):
    claim = bs.TerminalClaim.from_function(tree50, lambda b: b + 0.5)
    loss = rf.LossFunction.linear(0.0)
    driver = time_dependent_driver(lambda t: -1.0 + 0.2 * t)
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
    assert via_picard.diagnostics.shift_search == 0


def test_iteration_budget_exhaustion_raises(monkeypatch):
    # A binding problem with a state-dependent generator searches each
    # binding date's flow increment; the closed form alone lands q*|v0| from
    # the root, so a budget of one probe must fail.
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 12), "tree")
    claim = bs.TerminalClaim.from_function(scen, lambda b: b + 1.05)
    driver = bs.Driver(
        fn=lambda t, y, z: -0.5 * np.asarray(y), lipschitz=0.5, depends_on_y=True
    )
    loss = rf.LossFunction.linear(1.0)
    with monkeypatch.context() as patch:
        patch.setattr(rf, "_MAX_ROOT_STEPS", 1)
        with pytest.raises(BracketFailureError, match="did not close in 1 probes"):
            pc.solve_reflected(scen, claim, driver, loss, CLS)
    # Same instance with the shipped budget: one search per binding date.
    sol = pc.solve_reflected(scen, claim, driver, loss, CLS)
    assert sol.diagnostics.shift_search > 0 and sol.diagnostics.shift_closed_form == 0
    assert sol.K.total > 0.1


def test_non_finite_level_raises(tree8):
    claim = bs.TerminalClaim.from_function(tree8, lambda b: b + 1.0)
    driver = bs.Driver(
        fn=lambda t, y, z: np.full_like(np.asarray(z, dtype=float), np.inf),
        lipschitz=1.0, depends_on_z=True,
    )
    with pytest.raises(FixedPointError):
        pc.solve_reflected(tree8, claim, driver, rf.LossFunction.linear(0.0), CLS)


@pytest.mark.parametrize("exp", [CLS, ne.NonlinearExpectation.alpha_maxmin(0.3, 0.5)],
                         ids=["classical", "alpha_maxmin"])
def test_overflowing_loss_level_is_a_fixed_point_error(exp):
    # The loss 1000*x of the claim 1e306*B_T overflows at the terminal
    # level: a divergence, with no numpy warning, not a ValueError.
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 10), "tree")
    claim = bs.TerminalClaim.from_function(scen, lambda b: 1e306 * b)
    loss = rf.LossFunction(fn=lambda t, x: np.asarray(x) * 1000.0, lower=1000.0,
                           upper=1000.0, shape="linear")
    with pytest.raises(FixedPointError, match="values must be finite"):
        pc.solve_reflected(scen, claim, bs.Driver.constant(0.0), loss, exp)
    # a loss level of the wrong size stays a support mismatch
    longer = rf.LossFunction(fn=lambda t, x: np.append(x, 0.0))
    with pytest.raises(SupportMismatchError):
        pc.solve_reflected(scen, claim, bs.Driver.constant(0.0), longer, CLS)


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


def test_mean_constraint_problem_wiring(tree50):
    loss = rf.LossFunction.linear(0.2)
    problem = rf.mean_constraint_problem(tree50, loss, CLS)
    assert problem.exact and problem.slope == 1.0
    rv = sc.RandomVariable(50, tree50.tree_values[50] + 0.7)
    assert abs(problem.constraint(50, rv.values) - (0.7 - 0.2)) <= 1e-12
    shift, iters, _ = rf.lift(problem, 50, rv.values)
    assert shift == 0.0 and iters == 0
    low = sc.RandomVariable(50, tree50.tree_values[50] - 0.7)
    shift, _, value = rf.lift(problem, 50, low.values)
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
        assert diag.shift_search > 0
    fresh = [rf.constraint_value(exp, loss, scen, y.index, y.values) for y in sol.Y]
    assert np.array_equal(diag.constraint_values, fresh)
    assert rf.skorokhod_residual(scen, sol, loss, exp) == diag.skorokhod_residual


def test_stored_risk_slack_matches_a_fresh_evaluation(tree50):
    # A rate != 0 makes the wealth generator read y; declared affine in y,
    # each binding step takes one closed-form lift, and the stored slack is
    # the one that lift verified on the final level.
    mkt = rk.Market(rate=0.05, drift=0.25, volatility=0.2)
    rho = rk.RiskMeasure.coherent_family([-0.5, 0.0, 0.5])
    q = rk.Benchmark.constant(tree50.grid, 0.45)
    claim = bs.TerminalClaim.from_function(tree50, lambda b: b + 0.45)
    sol = rk.superhedge_price(mkt, tree50, claim, rho, q).solution
    assert sol.K.total > 0.0 and sol.diagnostics.shift_search == 0
    fresh = [0.45 - rk.evaluate_risk(rho, tree50, y) for y in sol.Y]
    assert np.array_equal(sol.diagnostics.constraint_values, fresh)


def _affine_case(case, scen):
    """``(claim, problem, solve)`` of a binding reflected solve under ``case``'s constraint;
    ``solve(driver)`` runs it."""
    if case == "risk":
        claim = bs.TerminalClaim.from_function(scen, lambda b: b + 0.45)
        rho = rk.RiskMeasure.coherent_family([-0.5, 0.0, 0.5])
        q = rk.Benchmark.constant(scen.grid, 0.45)
        return (claim, rk._risk_problem(rho, q, scen),
                lambda driver: rk.solve_risk_reflected(scen, claim, driver, rho, q))
    exp = {"classical": CLS,
           "gexp-z": ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(0.3, include_y=False)),
           "gexp-y": ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(0.3))}[case]
    claim = bs.TerminalClaim.from_function(scen, lambda b: b + 1.05)
    loss = rf.LossFunction.linear(1.0)
    return (claim, rf.mean_constraint_problem(scen, loss, exp),
            lambda driver: pc.solve_reflected(scen, claim, driver, loss, exp))


@pytest.mark.parametrize("rate", [0.05, -0.05, 0.0])
@pytest.mark.parametrize("case", ["classical", "gexp-z", "gexp-y", "risk"])
def test_affine_lift_matches_the_re_roll(tree50, case, rate):
    # The wealth generator -(r*y + z) declared affine in y (a = -r, also at
    # r = 0) against the same fn untagged under the re-roll oracle, which
    # sweeps each step and re-rolls each lifted one.  Under a closed-form
    # lift of a cash-additive constraint (classical, gexp-z, risk) the
    # re-roll's second pass moves its level by a constant that the lift
    # takes back, so it lands on u + lift(u) with the swept u: each step is
    # within the sweep tolerance 1e-13*(1 + max|Y|) of the exact one, and a
    # tree step (positive weights, since sqrt(dt) <= 1, over 1 + r*dt)
    # passes an error on at most 1/(1 - |r|*dt) times, so Y agrees within m
    # sweep tolerances times (1 - |r|*dt)**-m, and Z, a difference quotient
    # over 2*sqrt(dt), within that over sqrt(dt).  K and the constraint
    # values agree within REROLL_TOL.  A searched lift (gexp-y) lands
    # anywhere in its final bracket, OPERATOR_TOL wide, on either side, and
    # moves the constraint by at most (1 - 0.3*dt)**-m < 2 per unit shift,
    # so there Y, K and the constraint values agree within 2*OPERATOR_TOL;
    # a constant shift leaves Z as it is, so Z keeps the sweep bound.
    m, dt = tree50.grid.steps, tree50.grid.dt
    fn = lambda t, y, z: -(rate * np.asarray(y) + np.asarray(z))
    plain = bs.Driver(fn=fn, lipschitz=abs(rate) + 1.0, depends_on_y=True, depends_on_z=True)
    claim, problem, solve = _affine_case(case, tree50)
    tagged = solve(dataclasses.replace(plain, y_coefficient=-rate))
    ys, zs, dk, cons = reroll_solve(tree50, claim, plain, problem)
    assert tagged.K.total > 0.05
    assert tagged.diagnostics.shift_search > 0 if case == "gexp-y" else (
        tagged.diagnostics.shift_search == 0)
    y_max = max(float(np.max(np.abs(y.values))) for y in tagged.Y)
    swept = m * bs._SWEEP_TOL * (1.0 + y_max) * (1.0 - abs(rate) * dt) ** -m
    y_tol, k_tol = (2.0 * rf.OPERATOR_TOL,) * 2 if case == "gexp-y" else (swept, REROLL_TOL)
    assert max(float(np.max(np.abs(a.values - b))) for a, b in zip(tagged.Y, ys)) <= y_tol
    assert max(float(np.max(np.abs(a.values - b))) for a, b in zip(tagged.Z, zs)) <= swept / np.sqrt(dt)
    assert np.max(np.abs(tagged.K.increments - dk)) <= k_tol
    assert np.max(np.abs(tagged.diagnostics.constraint_values - cons)) <= k_tol


FLOW_DRIVERS = {
    "readme": Y_DRIVER,
    "sin": bs.Driver(fn=lambda t, y, z: 0.5 * np.sin(y) - 1.0 + 0.2 * np.abs(z),
                     lipschitz=0.7, depends_on_y=True, depends_on_z=True),
    "kinked": bs.Driver(fn=lambda t, y, z: -2.0 * np.maximum(y, 0.5 * np.asarray(y)) - 1.0,
                        lipschitz=2.0, depends_on_y=True),
    "kappa": bs.Driver.kappa_abs(-0.4),
}
FLOW_CASES = {
    # driver, operator, loss, claim offset, scenario mode
    "readme-classical": ("readme", CLS, rf.LossFunction.linear(1.0), 1.05, "tree"),
    "readme-classical-paths": ("readme", CLS, rf.LossFunction.linear(1.0), 1.05, "montecarlo"),
    "sin-classical": ("sin", CLS, rf.LossFunction.linear(0.0), 0.5, "tree"),
    "kinked-classical": ("kinked", CLS, rf.LossFunction.linear(0.0), 0.5, "tree"),
    "kappa-classical": ("kappa", CLS, rf.LossFunction.linear(1.0), 1.05, "tree"),
    "sin-maxmin-concave": ("sin", ne.NonlinearExpectation.alpha_maxmin(0.3, 0.5), CONCAVE, 0.5,
                           "tree"),
    "sin-gexp-concave": ("sin", ne.NonlinearExpectation.gexp(
        bs.Driver.kappa_abs(0.3, include_y=False)), CONCAVE, 0.5, "tree"),
    "readme-gexp-y": ("readme", ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(0.3)),
                      rf.LossFunction.linear(1.0), 1.05, "tree"),
}


def _flow_case(case, m=50):
    name, exp, loss, offset, mode = FLOW_CASES[case]
    kwargs = {"n_paths": 2000, "seed": 3, "basis_degree": 3} if mode == "montecarlo" else {}
    scen = sc.build_scenarios(sc.TimeGrid(1.0, m), mode, **kwargs)
    claim = bs.TerminalClaim.from_function(scen, lambda b: b + offset)
    return scen, claim, FLOW_DRIVERS[name], loss, exp


@pytest.mark.parametrize("case", list(FLOW_CASES))
def test_flow_search_matches_the_re_roll(case):
    # The search of each date's flow increment against the re-roll oracle.
    # Both solve one date to a tolerance: the search puts dK_i within
    # OPERATOR_TOL above the least increment, and the re-roll ends within
    # REROLL_TOL*q/(1 - q) of its fixed point, q = lipschitz*dt, with a lift
    # within OPERATOR_TOL of its own least one.  A binding level sits on its
    # constraint, so it does not carry the errors of the levels above it,
    # and the per-step gaps add up at most over the m steps: Y and dK agree
    # within 2*OPERATOR_TOL + m*REROLL_TOL*q/(1 - q), and on the tree Z, a
    # difference quotient over 2*sqrt(dt), within that over sqrt(dt).
    scen, claim, driver, loss, exp = _flow_case(case)
    m, dt = scen.grid.steps, scen.grid.dt
    sol = pc.solve_reflected(scen, claim, driver, loss, exp)
    ys, zs, dk, cons = reroll_solve(scen, claim, driver, rf.mean_constraint_problem(scen, loss, exp))
    q = driver.lipschitz * dt
    bound = 2.0 * rf.OPERATOR_TOL + m * REROLL_TOL * q / (1.0 - q)
    assert sol.diagnostics.shift_search > 0
    assert max(float(np.max(np.abs(a.values - b))) for a, b in zip(sol.Y, ys)) <= bound
    assert np.max(np.abs(sol.K.increments - dk)) <= bound
    if scen.mode == "tree":
        assert max(float(np.max(np.abs(a.values - b)))
                   for a, b in zip(sol.Z, zs)) <= bound / np.sqrt(dt)


@pytest.mark.parametrize("case", ["sin-maxmin-concave", "kinked-classical"])
def test_scheme_residual_is_the_sweep_tolerance(case):
    # Y_i - E_i[Y_{i+1}] - f(t_i, Y_i, Z_i)*dt - dK_i, recomputed from the
    # solution, relative to 1 + max|Y_i|: each level is the implicit step
    # with its flow increment, which its sweep solves to 1e-13 of the level.
    scen, claim, driver, loss, exp = _flow_case(case)
    sol = pc.solve_reflected(scen, claim, driver, loss, exp)
    assert sol.K.total > 0.1
    worst = 0.0
    for i in range(scen.grid.steps):
        y = sol.Y[i].values
        e, z = sc.step_fit(scen, sol.Y[i + 1].values, i)
        gap = y - e - driver.fn(float(scen.grid.nodes[i]), y, z) * scen.grid.dt
        gap -= sol.K.increments[i]
        worst = max(worst, float(np.max(np.abs(gap))) / (1.0 + float(np.max(np.abs(y)))))
    assert worst <= bs._SWEEP_TOL


def test_terminal_level_is_the_claim():
    # A claim 5e-7 below its constraint is accepted (FEASIBILITY_TOL = 1e-6)
    # and kept as Y_T; the first rolled-back level takes the lift, so K
    # records it and the means still balance.
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 20), "tree")
    claim = bs.TerminalClaim.from_function(scen, lambda b: b + 1.0 - 5e-7)
    sol = pc.solve_reflected(scen, claim, bs.Driver.constant(0.0),
                             rf.LossFunction.linear(1.0), CLS)
    assert np.array_equal(sol.Y[-1].values, claim.values)
    assert sol.K.increments[-1] == pytest.approx(5e-7, rel=1e-6)
    assert sol.K.total == pytest.approx(5e-7, rel=1e-6)
    assert abs(sol.value - sc.expect(scen, claim) - sol.K.total) <= 1e-14
    assert sol.diagnostics.constraint_values[-1] == pytest.approx(-5e-7, rel=1e-6)


@pytest.mark.parametrize("mode", ["tree", "montecarlo", "risk"])
def test_slack_solve_evaluates_each_level_once(count_calls, mode):
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
        calls = count_calls(rk, "_risk")
        rho = rk.RiskMeasure.coherent_family([-0.5, 0.5])
        sol = rk.solve_risk_reflected(scen, claim, driver, rho,
                                      rk.Benchmark.constant(scen.grid, 0.0))
    else:
        calls = count_calls(rf, "constraint_value")
        sol = pc.solve_reflected(scen, claim, driver, rf.LossFunction.linear(0.0), CLS)
    assert sol.K.total == 0.0
    assert calls[0] <= m + 2


def _per_level_solve(scen, claim, driver, loss, exp):
    """Oracle: the reflected recursion lifting every level from the claim down.

    Returns the lifted ``BsdePair``, the constraint values the lifts verified
    and the search steps per level.
    """
    problem = rf.mean_constraint_problem(scen, loss, exp)
    m = scen.grid.steps
    shift_iters = np.zeros(m + 1, dtype=int)
    cons = np.zeros(m + 1)
    cons[m] = problem.constraint(m, claim.values)
    q = driver.lipschitz * scen.grid.dt

    def lift(i, u, level):
        k, shift_iters[i], cons[i] = rf.lift(problem, i, u, level, q)
        return k

    return bs.solve_bsde(scen, claim, driver, lift=lift), cons, shift_iters


def _cli_gexp(expr, kappa, grid):
    cfg = configparser.ConfigParser()
    cfg.read_string(f"[problem]\ngexp_driver = {expr}\nkappa = {kappa}\n")
    driver = cli._build_driver(cfg, "problem.gexp_driver", "problem.kappa", grid, required=True)
    return ne.NonlinearExpectation.gexp(driver)


GEXP_Y = ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(0.3, include_y=True))
MAXMIN = ne.NonlinearExpectation.alpha_maxmin(alpha=0.3, kappa=0.5)


def _flat_off_case(case, scen):
    """(payoff offset, driver, loss, operator) of each case; the operators all roll back."""
    last = float(scen.grid.nodes[-2])
    const = bs.Driver.constant(-1.0)
    return {
        "slack": (5.0, const, rf.LossFunction.linear(0.0), GEXP_Y),
        # a drop in the last step only, then a rise: level m - 1 alone binds
        "last-level": (0.21, time_dependent_driver(lambda t: -1.0 if t >= last else 1.0),
                       rf.LossFunction.linear(0.0), MAXMIN),
        "early-block": (0.5, const, CONCAVE, GEXP_Y),
        "y-driver": (0.5, Y_DRIVER, rf.LossFunction.linear(0.6), GEXP_Y),
        "alpha-maxmin": (0.5, const, rf.LossFunction.linear(0.0), MAXMIN),
        "cli-driver": (0.5, const, CONCAVE, _cli_gexp("0.3 * (abs(y) + abs(z))", 0.3, scen.grid)),
    }[case]


@pytest.mark.parametrize("case", ["slack", "last-level", "early-block", "y-driver",
                                  "alpha-maxmin", "cli-driver"])
def test_flat_off_solve_matches_the_per_level_recursion(case, count_calls):
    # The one lifted recursion lifts nothing above the last level the plain
    # solution violates; every output equals the level-by-level recursion's
    # exactly (the CLI driver's audit residual within the sweep tolerance),
    # and the levels above that level take no lift.
    m = 24
    scen = sc.build_scenarios(sc.TimeGrid(1.0, m), "tree")
    offset, driver, loss, exp = _flat_off_case(case, scen)
    claim = bs.TerminalClaim.from_function(scen, lambda b: b + offset)
    pair, cons, shift_iters = _per_level_solve(scen, claim, driver, loss, exp)
    lifts = count_calls(rf, "lift")
    sol = pc.solve_reflected(scen, claim, driver, loss, exp)
    binding = np.flatnonzero(pair.shifts > 0.0)
    top = int(binding[-1]) + 1 if binding.size else 0
    # one lift of each level below that level, none above
    assert lifts[0] == top
    assert {"slack": top == 0, "last-level": binding.tolist() == [m - 1],
            "early-block": 0 < top < m // 2, "y-driver": sol.diagnostics.shift_search > 0,
            "alpha-maxmin": 0 < top < m, "cli-driver": 0 < top < m}[case]
    assert len(sol.Y) == len(pair.Y) and len(sol.Z) == len(pair.Z)
    assert all(np.array_equal(a.values, b.values) for a, b in zip(sol.Y, pair.Y))
    assert all(np.array_equal(a.values, b.values) for a, b in zip(sol.Z, pair.Z))
    assert np.array_equal(sol.K.values, np.concatenate(([0.0], np.cumsum(pair.shifts[:-1]))))
    diag = sol.diagnostics
    assert np.array_equal(diag.constraint_values, cons)
    assert np.array_equal(diag.shift_iterations, shift_iters)
    lifted = pair.shifts > 0.0
    assert diag.shift_closed_form == np.count_nonzero(lifted & (shift_iters == 0))
    assert diag.shift_search == np.count_nonzero(lifted & (shift_iters > 0))
    assert sol.picard.iterations == [1] * m
    audit = rf.skorokhod_residual(scen, sol, loss, exp)
    if case == "cli-driver":
        # the audit's stacked roll-back sweeps all levels as one array; each
        # constraint value is within 1e-12 of its own level's roll-back
        assert abs(audit - diag.skorokhod_residual) <= 1e-12 * np.sum(np.abs(sol.K.increments))
    else:
        assert audit == diag.skorokhod_residual


def test_flat_off_rule_is_read_from_the_problem(tree8):
    # A tree g-expectation or alpha-maxmin stacks its levels; the classical
    # mean, the risk constraint and Monte Carlo paths lift level by level.
    loss = rf.LossFunction.linear(0.0)
    mc = sc.build_scenarios(sc.TimeGrid(1.0, 8), "montecarlo", n_paths=50, seed=1)
    assert rf.mean_constraint_problem(tree8, loss, GEXP_Y).constraint_stack is not None
    assert rf.mean_constraint_problem(tree8, loss, MAXMIN).constraint_stack is not None
    assert rf.mean_constraint_problem(tree8, loss, CLS).constraint_stack is None
    assert rf.mean_constraint_problem(mc, loss, GEXP_Y).constraint_stack is None
