"""Structural checks: floors, representation, comparisons, competitor demos."""

import csv
import dataclasses
import io

import numpy as np
import pytest
from scipy.optimize import brentq

from nebsde import bsde as bs
from nebsde import expectations as ne
from nebsde import picard as pc
from nebsde import reflection as rf
from nebsde import scenarios as sc
from nebsde import verify as vf
from nebsde.errors import BracketFailureError

from oracles import brownian_rv

EXACT = 1e-12
CLS = ne.NonlinearExpectation.classical()


def test_mean_floor_linear_loss_is_exact_floor(tree50):
    # For l(x) = x - u the lowest admissible mean is u itself, whatever the
    # centered fluctuation looks like.
    ybar = sc.RandomVariable(20, tree50.tree_values[20] + 3.0)
    loss = rf.LossFunction.linear(0.7)
    got = vf.mean_floor(CLS, loss, tree50, ybar)
    assert abs(got - 0.7) <= 2e-8


def test_mean_floor_kinked_loss_matches_bisection(tree50):
    loss = rf.LossFunction(
        fn=lambda t, x: np.minimum(np.asarray(x) - 0.2, 0.5 * (np.asarray(x) - 0.2)),
        lower=0.5, upper=1.0, shape="concave",
    )
    i = 25
    ybar = brownian_rv(tree50, i)
    w = tree50.tree_weights[i]

    def mean_loss(x):
        v = ybar.values + x
        return float(w @ np.minimum(v - 0.2, 0.5 * (v - 0.2)))

    root = brentq(mean_loss, -10.0, 10.0, xtol=1e-12)
    assert abs(vf.mean_floor(CLS, loss, tree50, ybar) - root) <= 2e-8


def test_mean_floor_signed_root(tree50):
    # A loss with positive value at zero mean admits negative floors.
    loss = rf.LossFunction.linear(-0.4)
    ybar = sc.RandomVariable(10, tree50.tree_values[10])
    got = vf.mean_floor(CLS, loss, tree50, ybar)
    assert abs(got - (-0.4)) <= 2e-8



@pytest.mark.parametrize("mode", ["tree", "montecarlo"])
def test_mean_floor_overflowing_bracket_raises_bracket_failure(mode):
    # A y-dependent driver declared at kappa = 800 keeps the exp(kappa*T)
    # reach, which does not fit in a float; it is reported as the shift
    # search reports it, not evaluated.
    kw = {"n_paths": 200, "seed": 1} if mode == "montecarlo" else {}
    # 810 steps keep the declared constant contractive in the implicit step
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 810), mode, **kw)
    driver = bs.Driver(fn=lambda t, y, z: -0.5 * np.asarray(y), lipschitz=800.0,
                       depends_on_y=True)
    exp = ne.NonlinearExpectation.gexp(driver)
    ybar = brownian_rv(scen, 10)
    with pytest.raises(BracketFailureError, match="overflows"):
        vf.mean_floor(exp, rf.LossFunction.linear(0.2), scen, ybar)
    with pytest.raises(BracketFailureError, match="overflows"):
        rf.minimal_shift(exp, rf.LossFunction.linear(0.2), scen, ybar)


def test_mean_floor_cash_additive_reach_has_no_exponential():
    # alpha-maxmin at kappa*T = 710 is cash additive, so the reach is
    # |v0|/lower and the floor is finite and solves its equation.
    kappa, horizon = 0.05, 14200.0
    scen = sc.build_scenarios(sc.TimeGrid(horizon, 50), "tree")
    amm = ne.NonlinearExpectation.alpha_maxmin(alpha=1.0, kappa=kappa)
    loss = rf.LossFunction(fn=lambda t, x: np.minimum(x, 0.6 * np.asarray(x)),
                           lower=0.6, upper=1.0, shape="concave")
    ybar = sc.RandomVariable(30, scen.tree_values[30] + 3.0)
    got = vf.mean_floor(amm, loss, scen, ybar)
    centered = ybar.values - sc.expect(scen, ybar)

    def phi(x):
        return rf.constraint_value(amm, loss, scen, 30, centered + x)

    assert np.isfinite(got)
    assert phi(got - 1e-8) <= 0.0 <= phi(got + 1e-8)


def test_representation_on_ramp_instance():
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 80), "tree")
    claim = bs.TerminalClaim.from_function(scen, lambda b: b + 0.5)
    loss = rf.LossFunction.linear(0.0)
    sol = pc.solve_reflected(scen, claim, bs.Driver.constant(-1.0), loss, CLS)
    rep = vf.representation_gap(scen, sol, bs.Driver.constant(-1.0), CLS, loss)
    assert rep.max_abs_gap <= 5.0 * scen.grid.dt
    # In the binding stretch the sup is achieved at the running index itself;
    # past t* only the terminal bracket matters.
    assert rep.argmax[0] == 0
    assert rep.argmax[-2] == 80
    assert rep.means.shape == (81,)
    assert np.max(np.abs(rep.means - sol.mean_values(scen))) <= EXACT


@pytest.mark.parametrize("exp, loss", [
    (CLS, rf.LossFunction.linear(0.1)),
    (CLS, rf.LossFunction(fn=lambda t, x: np.minimum(x, 0.5 * np.asarray(x)) - 0.1,
                          lower=0.5, upper=1.0, shape="concave")),
    (ne.NonlinearExpectation.alpha_maxmin(alpha=0.3, kappa=0.5), rf.LossFunction.linear(0.1)),
])
def test_representation_floors_are_mean_floor(exp, loss):
    # One problem serves every floor; each is the one mean_floor finds on
    # its own, bit for bit, whether closed form or search.
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 30), "tree")
    claim = bs.TerminalClaim.from_function(scen, lambda b: b + 0.5)
    driver = bs.Driver.constant(-1.0)
    sol = pc.solve_reflected(scen, claim, driver, loss, exp)
    rep = vf.representation_gap(scen, sol, driver, exp, loss)
    floors = [vf.mean_floor(exp, loss, scen, sol.Y[i]) for i in range(30)]
    assert rep.floors.tolist() == floors


def test_representation_needs_a_full_grid_solution():
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 20), "tree")
    claim = bs.TerminalClaim.from_function(scen, lambda b: b + 0.5)
    loss = rf.LossFunction.linear(0.0)
    sol = pc.solve_reflected(scen, claim, bs.Driver.constant(-1.0), loss, CLS)
    short = dataclasses.replace(sol, Y=sol.Y[:-1])
    with pytest.raises(ValueError, match="full-grid solution"):
        vf.representation_gap(scen, short, bs.Driver.constant(-1.0), CLS, loss)


def test_representation_gap_vanishes_when_slack():
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 80), "tree")
    claim = bs.TerminalClaim.from_function(scen, lambda b: b + 5.0)
    loss = rf.LossFunction.linear(0.0)
    sol = pc.solve_reflected(scen, claim, bs.Driver.constant(-1.0), loss, CLS)
    rep = vf.representation_gap(scen, sol, bs.Driver.constant(-1.0), CLS, loss)
    assert sol.K.total <= EXACT
    assert rep.max_abs_gap <= 1e-6
    assert bool(np.all(rep.argmax == 80))


def test_solve_with_flow_zero_flow_is_plain_solve(tree50):
    claim = bs.TerminalClaim.from_function(tree50, lambda b: np.abs(b))
    driver = bs.Driver(
        fn=lambda t, y, z: -0.2 * np.asarray(y), lipschitz=0.2, depends_on_y=True
    )
    flowed = bs.solve_bsde(tree50, claim, driver, flow=np.zeros(50))
    pair = bs.solve_bsde(tree50, claim, driver)
    for a, b in zip(flowed.Y, pair.Y):
        assert np.max(np.abs(a.values - b.values)) <= EXACT


def test_solve_with_flow_adds_prescribed_increments(tree50):
    # With f = 0 each flow increment shifts all earlier levels verbatim.
    claim = bs.TerminalClaim.from_function(tree50, lambda b: b)
    vals = np.zeros(51)
    vals[30:] = 0.25
    flowed = bs.solve_bsde(
        tree50, claim, bs.Driver.constant(0.0), flow=rf.ReflectorFlow(vals).increments
    )
    assert abs(sc.expect(tree50, flowed.Y[0]) - 0.25) <= EXACT
    assert abs(sc.expect(tree50, flowed.Y[35])) <= EXACT


def test_ramp_instance_parameters(tree50):
    inst = vf.RampFlowInstance(gamma=1.0, floor=0.0, tilt=1.0, shift=0.5)
    assert np.array_equal(inst.claim(tree50).values, sc.brownian(tree50, 50) + 0.5)
    assert inst.t_star(tree50) == pytest.approx(0.5, abs=EXACT)
    flow = inst.flow_values(tree50)
    assert abs(flow[-1] - 0.5) <= EXACT
    assert inst.driver().fn(0.0, 0.0, 0.0) == -1.0
    with pytest.raises(ValueError):
        vf.RampFlowInstance(gamma=-1.0)
    # Margin outside (0, gamma*T) cannot bind as a ramp.
    rich = vf.RampFlowInstance(gamma=1.0, floor=0.0, tilt=1.0, shift=1.5)
    with pytest.raises(ValueError):
        rich.t_star(tree50)
    poor = vf.RampFlowInstance(gamma=1.0, floor=0.0, tilt=1.0, shift=-0.1)
    with pytest.raises(ValueError):
        poor.t_star(tree50)


def test_tilted_competitor_demo():
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 80), "tree")
    inst = vf.RampFlowInstance(1.0, 0.0, 1.0, 0.5)
    demo = vf.tilted_competitor_demo(inst, scen, inst.solve(scen))
    assert demo.mean_gap_max <= 1e-6
    assert demo.witness_gap >= 1e-6
    assert demo.martingale_min > 0.0
    assert demo.competitor_feasible
    assert 0 < demo.witness_index < 80


@pytest.mark.parametrize("tilt, floor", [(1.0, 0.0), (-0.7, 0.1)])
def test_tilted_competitor_demo_matches_per_level_means(tilt, floor):
    # The demo keeps its levels as arrays; a recomputation that builds each
    # level as a random variable and takes sc.expect agrees bit for bit.
    m = 60
    scen = sc.build_scenarios(sc.TimeGrid(1.0, m), "tree")
    inst = vf.RampFlowInstance(1.0, floor, tilt, 0.5)
    sol = inst.solve(scen)
    demo = vf.tilted_competitor_demo(inst, scen, sol)
    k = inst.flow_values(scen)
    gap_max, witness, feasible = 0.0, (0, 0, -np.inf), True
    for i in range(m + 1):
        x = sol.Y[i].values - (sol.K.total - sol.K.values[i])
        b = sc.brownian(scen, i)
        raw = np.exp(tilt * (b - (b.max() if tilt >= 0.0 else b.min())))
        mart = raw / sc.expect(scen, sc.RandomVariable(i, raw))
        ya = sc.RandomVariable(i, x + mart * (k[-1] - k[i]))
        y = sc.RandomVariable(i, x + (k[-1] - k[i]))
        gap_max = max(gap_max, abs(sc.expect(scen, ya) - sc.expect(scen, y)))
        node_gaps = y.values - ya.values
        j = int(np.argmax(node_gaps))
        if node_gaps[j] > witness[2]:
            witness = (i, j, float(node_gaps[j]))
        feasible &= sc.expect(scen, sc.RandomVariable(i, ya.values - floor)) >= -1e-9
    assert demo.mean_gap_max == gap_max
    assert (demo.witness_index, demo.witness_node, demo.witness_gap) == witness
    assert demo.competitor_feasible == feasible
    assert demo.witness_gap > 0.0


def test_structural_suite_refuses_monte_carlo(count_calls):
    # The constant-claim checks are tree identities; on paths the regression
    # Z of a constant is sampling noise, so the suite refuses paths before
    # it solves anything.
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 20), "montecarlo", n_paths=200, seed=1)
    inst = vf.RampFlowInstance(1.0)
    sol = inst.solve(scen)
    solves = count_calls(pc, "solve_reflected")
    with pytest.raises(ValueError, match="runs on the tree"):
        vf.run_structural_checks(scen)
    with pytest.raises(ValueError, match="runs on the tree"):
        vf.structural_checks(scen, inst, sol)
    assert solves[0] == 0


def test_tilted_competitor_demo_large_tilt_stays_finite():
    # At a = 1e9, exp(a*B_i - a^2 t_i/2) is 0 on every node of a level, so
    # the renormalisation divided 0 by 0; exp(a*B_i - max(a*B_i)) is 1 on
    # the top node, and the competitor still keeps every mean.
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 20), "tree")
    inst = vf.RampFlowInstance(1.0, 0.0, 1e9, 0.5)
    demo = vf.tilted_competitor_demo(inst, scen, inst.solve(scen))
    assert demo.mean_gap_max <= 1e-6
    assert demo.martingale_min >= 0.0
    assert np.isfinite(demo.witness_gap) and demo.witness_gap >= 1e-6
    assert demo.competitor_feasible
    records = vf.run_structural_checks(scen, tilt=1e9)
    assert all(np.isfinite(v) for r in records for v in r.evidence.values()
               if isinstance(v, float))


def test_huge_gamma_overflows_into_failed_checks():
    # At gamma = 1e308 the flow is near the float limit: the residual reads
    # inf in the diagnostics and in the audit alike, and the competitor
    # overflows; it keeps no mean and witnesses nothing instead of raising.
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 50), "tree")
    inst = vf.RampFlowInstance(1e308, 0.0, 1.0, 0.5)
    sol = inst.solve(scen)
    assert sol.diagnostics.skorokhod_residual == np.inf
    assert rf.skorokhod_residual(scen, sol, inst.loss(), CLS) == np.inf
    demo = vf.tilted_competitor_demo(inst, scen, sol)
    assert demo.mean_gap_max == np.inf and demo.witness_gap == -np.inf
    assert not demo.competitor_feasible
    records = {r.name: r.passed for r in vf.structural_checks(scen, inst, sol)}
    assert not records["tilted-competitor-means"]
    assert not records["tilted-competitor-witness"]


def test_comparison_report_driver_and_expectation_ordering(tree100):
    claim = bs.TerminalClaim.from_function(tree100, lambda b: b + 0.5)
    loss = rf.LossFunction.linear(0.0)
    first = vf.ParameterBundle(
        claim=claim, driver=bs.Driver.constant(0.2), loss=loss, expectation=CLS
    )
    second = vf.ParameterBundle(
        claim=claim, driver=bs.Driver.constant(0.0), loss=loss,
        expectation=ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(0.3)),
    )
    rep = vf.comparison_report(vf.ComparisonInstance(scen=tree100, first=first, second=second))
    assert all(rep.hypotheses.values())
    assert not rep.vacuous
    assert rep.pointwise_min_gap >= -1e-8


def test_comparison_report_loss_ordering_and_competitor(tree100):
    claim = bs.TerminalClaim.from_function(tree100, lambda b: b + 0.5)
    concave = rf.LossFunction(
        fn=lambda t, x: np.minimum(np.asarray(x), 0.6 * np.asarray(x)),
        lower=0.6, upper=1.0, shape="concave",
    )
    convex = rf.LossFunction(
        fn=lambda t, x: np.maximum(np.asarray(x), 1.5 * np.asarray(x)),
        lower=1.0, upper=1.5, shape="convex",
    )
    first = vf.ParameterBundle(
        claim=claim, driver=bs.Driver.constant(-1.0), loss=concave, expectation=CLS
    )
    second = vf.ParameterBundle(
        claim=claim, driver=bs.Driver.constant(-1.0), loss=convex, expectation=CLS
    )
    rep = vf.comparison_report(vf.ComparisonInstance(scen=tree100, first=first, second=second))
    assert all(rep.hypotheses.values())
    assert not rep.vacuous
    assert rep.mean_min_gap >= -1e-8
    assert rep.minimality_max_violation <= 1e-8
    assert rep.competitor_min_gain >= -1e-12
    assert rep.competitor_feasible


def test_comparison_report_flags_broken_hypothesis(tree50):
    # Swapping the drivers breaks f1 >= f2, swapping the losses l1 <= l2, and
    # swapping the expectations the weaker first one; the report must say so
    # rather than asserting conclusions.
    claim = bs.TerminalClaim.from_function(tree50, lambda b: b + 0.5)
    loss = rf.LossFunction.linear(0.0)
    zero = bs.Driver.constant(0.0)
    strong = ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(0.3))
    for key, driver1, loss2, exp1 in (
        ("drivers_ordered", bs.Driver.constant(-0.2), loss, CLS),
        ("losses_ordered", zero, rf.LossFunction.linear(0.5), CLS),
        ("expectations_ordered", zero, loss, strong),
    ):
        first = vf.ParameterBundle(claim=claim, driver=driver1, loss=loss, expectation=exp1)
        second = vf.ParameterBundle(claim=claim, driver=zero, loss=loss2, expectation=CLS)
        rep = vf.comparison_report(vf.ComparisonInstance(scen=tree50, first=first, second=second))
        assert [k for k, ok in rep.hypotheses.items() if not ok] == [key]
        assert rep.vacuous


def test_emit_report_lines_and_csv(tmp_path):
    records = [
        vf.CheckRecord("alpha", "first check", True, {"err": 0.25, "n": 3}),
        vf.CheckRecord("beta-long-name", "second check", False, {"gap": 1.5}),
    ]
    stream = io.StringIO()
    csv_path = tmp_path / "report.csv"
    lines = vf.emit_report(records, csv_path=str(csv_path), stream=stream)
    assert lines[0].startswith("[PASS] alpha")
    assert lines[1].startswith("[FAIL] beta-long-name")
    assert "err=0.25" in lines[0]
    assert stream.getvalue().splitlines() == lines
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["name", "property", "status", "evidence"]
    assert rows[1][0] == "alpha" and rows[1][2] == "pass"
    assert rows[2][2] == "fail"
    assert "n=3" in rows[1][3]


def test_structural_suite_all_pass(tree100):
    records = vf.run_structural_checks(tree100)
    assert len(records) == 10
    failed = [r.name for r in records if not r.passed]
    assert failed == []
    names = {r.name for r in records}
    assert "ramp-flow-closed-form" in names
    assert "tilted-competitor-witness" in names
    for r in records:
        assert r.status in ("pass", "fail")
        assert r.evidence


@pytest.mark.parametrize("m", [8, 50, 200, 1000])
def test_shrinking_envelope_is_exact_on_the_discrete_grid(m):
    # On a constant c0 every level of the lower envelope -kappa*(|y| + |z|)
    # is constant, so each of the m steps divides by 1 + kappa*dt: the value
    # is c0*(1 + kappa*dt)**(-m) within the rounding bound (m + 2)*eps*c0
    # derived in verify.structural_checks, which the suite's check uses.
    kappa, c0 = 0.5, 2.0
    scen = sc.build_scenarios(sc.TimeGrid(1.0, m), "tree")
    lower = ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(-kappa))
    got = ne.evaluate(lower, scen, bs.TerminalClaim.constant(scen, c0))
    exact = c0 * (1.0 + kappa * scen.grid.dt) ** -m
    assert abs(got - exact) <= (m + 2) * np.finfo(float).eps * c0
    if m <= 50:
        (record,) = [r for r in vf.run_structural_checks(scen)
                     if r.name == "shrinking-envelope-constant"]
        assert record.passed and record.evidence["value"] == got
        assert record.evidence["target"] == exact
        assert record.evidence["continuous_target"] == c0 * np.exp(-kappa)


def test_structural_suite_solves_the_ramp_problem_once(count_calls, tree50):
    # one solve for the ramp problem, which is also the comparison's second
    # bundle, and one for the comparison's first bundle; the means of each
    # are taken once, the ramp solution's by the representation check,
    # which the comparison reuses
    calls = count_calls(pc, "solve_reflected")
    means = count_calls(rf.ReflectedSolution, "mean_values")
    vf.run_structural_checks(tree50)
    assert calls[0] == 2
    assert means[0] == 2


def test_structural_checks_on_the_instance_solution(tree50):
    inst = vf.RampFlowInstance(gamma=1.2, floor=0.1, tilt=0.5, shift=0.6)
    given = vf.structural_checks(tree50, inst, inst.solve(tree50))
    ran = vf.run_structural_checks(tree50, gamma=1.2, floor=0.1, shift=0.6, tilt=0.5)
    assert len(given) == 10
    assert [(r.name, r.description, r.passed, r.evidence) for r in given] == [
        (r.name, r.description, r.passed, r.evidence) for r in ran
    ]
