"""Desk-scale acceptance checks: closed forms and structural orderings.

Each test prints one ``[PASS]``/``[FAIL]`` line (visible with ``pytest -s``;
under plain ``pytest -v`` the per-test PASSED/FAILED column carries the same
information).
"""

import math
import time

import numpy as np

from nebsde import bsde as bs
from nebsde import expectations as ne
from nebsde import picard as pc
from nebsde import reflection as rf
from nebsde import risk as rk
from nebsde import scenarios as sc
from nebsde import verify as vf
from nebsde.cli import run as cli_run

CLS = ne.NonlinearExpectation.classical()


def _line(name, passed, **kv):
    detail = " ".join(f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                      for k, v in kv.items())
    print(f"[{'PASS' if passed else 'FAIL'}] {name} {detail}", flush=True)
    assert passed, f"{name}: {detail}"


def test_a01_lower_envelope_closed_form(tree200):
    target = 2.0 * math.exp(-0.5)
    exp = ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(-0.5))
    t0 = time.perf_counter()
    value = ne.evaluate(exp, tree200, bs.TerminalClaim.constant(tree200, 2.0).rv)
    elapsed = time.perf_counter() - t0
    err = abs(value - target)
    _line("a01-envelope-closed-form", err <= 1e-3 and elapsed < 1.0,
          err=err, tol=1e-3, seconds=elapsed)


def test_a02_z_driver_preserves_constants(tree200):
    exp = ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(0.5, include_y=False))
    value = ne.evaluate(exp, tree200, bs.TerminalClaim.constant(tree200, 3.0).rv)
    err = abs(value - 3.0)
    _line("a02-constant-preserving", err <= 1e-10, err=err, tol=1e-10)


def test_a03_ramp_flow_closed_form(tree200):
    claim = bs.TerminalClaim.from_function(tree200, lambda b: b + 0.5)
    loss = rf.LossFunction.linear(0.0)
    t0 = time.perf_counter()
    sol = pc.solve_reflected(tree200, claim, bs.Driver.constant(-1.0), loss, CLS)
    elapsed = time.perf_counter() - t0
    flow_err = float(np.max(np.abs(sol.K.values - np.minimum(tree200.grid.nodes, 0.5))))
    resid = abs(sol.diagnostics.skorokhod_residual)
    ok = flow_err <= 2.0 * tree200.grid.dt and resid <= 0.02 and elapsed < 5.0
    _line("a03-ramp-flow", ok, flow_err=flow_err, tol=2.0 * tree200.grid.dt,
          residual=resid, seconds=elapsed)


def test_a04_running_floor_representation(tree200):
    loss = rf.LossFunction.linear(0.0)
    claim = bs.TerminalClaim.from_function(tree200, lambda b: b + 0.5)
    sol = pc.solve_reflected(tree200, claim, bs.Driver.constant(-1.0), loss, CLS)
    rep = vf.representation_gap(tree200, sol, bs.Driver.constant(-1.0), CLS, loss)

    slack_claim = bs.TerminalClaim.from_function(tree200, lambda b: b + 5.0)
    slack_sol = pc.solve_reflected(tree200, slack_claim, bs.Driver.constant(-1.0), loss, CLS)
    slack_rep = vf.representation_gap(tree200, slack_sol, bs.Driver.constant(-1.0), CLS, loss)

    ok = rep.max_abs_gap <= 5.0 * tree200.grid.dt and slack_rep.max_abs_gap <= 1e-6
    _line("a04-representation", ok, binding_gap=rep.max_abs_gap,
          tol=5.0 * tree200.grid.dt, slack_gap=slack_rep.max_abs_gap)


def test_a05_shift_operator_lipschitz(tree50):
    # |L(X) - L(X')| <= (C_l/c_l) e^{kappa T} E[|X - X'|] + 1e-6, kappa = 0.
    loss = rf.LossFunction(
        fn=lambda t, x: np.where(np.asarray(x) < 0.0, 0.5 * np.asarray(x),
                                 2.0 * np.asarray(x)),
        lower=0.5, upper=2.0, shape="convex",
    )
    rng = np.random.default_rng(12345)
    violations, bindings, worst = 0, 0, -np.inf
    for _ in range(100):
        x = rng.normal(-0.5, 1.0, 51)
        xp = x + rng.normal(0.0, 0.3, 51)
        lx = rf.minimal_shift(CLS, loss, tree50, 50, sc.RandomVariable(50, x))
        lxp = rf.minimal_shift(CLS, loss, tree50, 50, sc.RandomVariable(50, xp))
        bindings += int(lx > 0) + int(lxp > 0)
        bound = 4.0 * sc.expect(tree50, sc.RandomVariable(50, np.abs(x - xp))) + 1e-6
        slack = abs(lx - lxp) - bound
        worst = max(worst, slack)
        violations += int(slack > 0)
    _line("a05-shift-lipschitz", violations == 0 and bindings > 0,
          violations=violations, worst_slack=worst, bindings=bindings)


def test_a06_domination_sandwich(tree50):
    rng = np.random.default_rng(777)
    worst = np.inf
    for _ in range(50):
        x = sc.RandomVariable(50, rng.normal(0.0, 1.0, 51))
        y = sc.RandomVariable(50, rng.normal(0.0, 1.0, 51))
        for alpha in (0.0, 0.5, 1.0):
            exp = ne.NonlinearExpectation.alpha_maxmin(alpha=alpha, kappa=0.5)
            rep = ne.domination_gap(exp, tree50, x, y)
            worst = min(worst, rep.lower_slack, rep.upper_slack)
    _line("a06-domination-sandwich", worst >= -1e-6, min_slack=worst, tol=-1e-6)


def test_a07_comparison_suites(tree100):
    claim = bs.TerminalClaim.from_function(tree100, lambda b: b + 0.5)
    loss0 = rf.LossFunction.linear(0.0)

    # Bigger generator + weaker expectation on shared noise.
    first = vf.ParameterBundle(claim=claim, driver=bs.Driver.constant(0.2),
                               loss=loss0, expectation=CLS)
    second = vf.ParameterBundle(
        claim=claim, driver=bs.Driver.constant(0.0), loss=loss0,
        expectation=ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(0.3)),
    )
    rep_a = vf.comparison_report(vf.ComparisonInstance(scen=tree100, first=first, second=second))

    # Concave loss below convex loss, same generator, binding floor.
    concave = rf.LossFunction(
        fn=lambda t, x: np.minimum(np.asarray(x), 0.6 * np.asarray(x)),
        lower=0.6, upper=1.0, shape="concave",
    )
    convex = rf.LossFunction(
        fn=lambda t, x: np.maximum(np.asarray(x), 1.5 * np.asarray(x)),
        lower=1.0, upper=1.5, shape="convex",
    )
    first_b = vf.ParameterBundle(claim=claim, driver=bs.Driver.constant(-1.0),
                                 loss=concave, expectation=CLS)
    second_b = vf.ParameterBundle(claim=claim, driver=bs.Driver.constant(-1.0),
                                  loss=convex, expectation=CLS)
    rep_b = vf.comparison_report(vf.ComparisonInstance(scen=tree100, first=first_b, second=second_b))

    ok = (
        all(rep_a.hypotheses.values()) and not rep_a.vacuous
        and rep_a.pointwise_min_gap >= -1e-8
        and all(rep_b.hypotheses.values()) and not rep_b.vacuous
        and rep_b.mean_min_gap >= -1e-8
        and rep_b.minimality_max_violation <= 1e-8
        and rep_b.competitor_min_gain >= -1e-12
        and rep_b.competitor_feasible
    )
    _line("a07-comparison-suites", ok,
          pointwise=rep_a.pointwise_min_gap, meanwise=rep_b.mean_min_gap,
          competitor_gain=rep_b.competitor_min_gain)


def _per_step_closed_form(scen, y_coefficient=None):
    """A reflected solve and its worst per-step gap to the step's closed form.

    With ``f = -a y + c``, loss ``x - floor`` and the classical mean, level
    i solves ``Y = e + (c - a Y) dt + k`` with the least ``k >= 0`` putting
    ``E[Y]`` on the floor, where ``e = E_i[Y_{i+1}]`` is read off the
    solver's own next level.  Returns ``(sol, worst |dY|, worst |dK|)``.
    """
    a, c, floor = 0.2, 0.05, 1.0
    claim = bs.TerminalClaim.from_function(scen, lambda b: b + 1.05)
    driver = bs.Driver(
        fn=lambda t, y, z: -a * np.asarray(y) + c, lipschitz=a, depends_on_y=True,
        y_coefficient=y_coefficient,
    )
    sol = pc.solve_reflected(scen, claim, driver, rf.LossFunction.linear(floor), CLS)
    dt = scen.grid.dt
    worst_y = worst_k = 0.0
    for i in range(scen.grid.steps):
        e = sc.step_expect(scen, sol.Y[i + 1].values, i)
        mean_e = sc.expect(scen, sc.RandomVariable(i, e))
        k = max(0.0, floor * (1.0 + a * dt) - mean_e - c * dt)
        y = (e + c * dt + k) / (1.0 + a * dt)
        worst_y = max(worst_y, float(np.max(np.abs(sol.Y[i].values - y))))
        worst_k = max(worst_k, abs(sol.K.increments[i] - k))
    return sol, worst_y, worst_k


def test_a08_window_count_invariance(tree100):
    # Each step of the reflected recursion against its closed form, the
    # generator left to the sweep and the re-roll.
    sol, worst_y, worst_k = _per_step_closed_form(tree100)
    binding = [n for n in sol.picard.diff_norms if len(n) >= 2]
    norms = binding[0] if binding else []
    contracting = len(norms) >= 2 and norms[1] / norms[0] < 1.0
    ok = worst_y <= 5e-8 and worst_k <= 5e-8 and contracting and sol.K.total > 0.01
    _line("a08-per-step-closed-form", ok, max_y_diff=worst_y, max_dk_diff=worst_k,
          tol=5e-8, first_ratio=norms[1] / norms[0] if len(norms) >= 2 else float("nan"))


def test_a08_affine_step_is_the_closed_form(tree100):
    # The same recursion with the generator declared affine in y: one exact
    # step and one lift per level, so each level is its closed form to
    # rounding.
    sol, worst_y, worst_k = _per_step_closed_form(tree100, y_coefficient=-0.2)
    one_pass = sol.picard.iterations == [1] * tree100.grid.steps
    ok = worst_y <= 1e-12 and worst_k <= 1e-12 and one_pass and sol.K.total > 0.01
    _line("a08-affine-per-step-closed-form", ok, max_y_diff=worst_y, max_dk_diff=worst_k,
          tol=1e-12, one_pass=one_pass)


def test_a09_risk_and_mean_reflection_agree(tree100):
    claim = bs.TerminalClaim.from_function(tree100, lambda b: b + 0.2)
    driver = bs.Driver.constant(-1.0)
    rho = rk.RiskMeasure.coherent_family([0.0])
    solr = rk.solve_risk_reflected(
        tree100, claim, driver, rho, rk.Benchmark.constant(tree100.grid, 0.3)
    )
    solm = pc.solve_reflected(tree100, claim, driver, rf.LossFunction.linear(-0.3), CLS)
    dy = max(float(np.max(np.abs(a.values - b.values)))
             for a, b in zip(solr.Y, solm.Y))
    dk = float(np.max(np.abs(solr.K.values - solm.K.values)))
    ok = dy <= 1e-8 and dk <= 1e-8 and solr.K.total > 0.1
    _line("a09-risk-mean-equivalence", ok, dy=dy, dk=dk, tol=1e-8)


def test_a10_superhedge_discount_and_monotonicity(tree200):
    mkt = rk.Market(rate=0.05, drift=0.05, volatility=0.2)
    rho = rk.RiskMeasure.coherent_family([-0.5, 0.0, 0.5])
    claim = bs.TerminalClaim.constant(tree200, 1.0)
    prices = [
        rk.superhedge_price(mkt, tree200, claim, rho,
                            rk.Benchmark.constant(tree200.grid, qv)).price
        for qv in (10.0, 1.0, 0.1)
    ]
    err = abs(prices[0] - math.exp(-0.05))
    monotone = prices[0] <= prices[1] + 1e-12 and prices[1] <= prices[2] + 1e-12
    _line("a10-superhedge-sanity", err <= 1e-3 and monotone,
          err=err, tol=1e-3, monotone=monotone)


def test_a11_flow_not_pathwise_minimal(tree200):
    inst = vf.RampFlowInstance(1.0, 0.0, 1.0, 0.5)
    demo = vf.tilted_competitor_demo(inst, tree200, inst.solve(tree200))
    ok = (demo.witness_gap >= 1e-6 and demo.mean_gap_max <= 1e-6
          and demo.competitor_feasible)
    _line("a11-tilted-competitor", ok, witness_gap=demo.witness_gap,
          witness_index=demo.witness_index, mean_gap=demo.mean_gap_max)


def test_a12_rerun_byte_identical(tmp_path):
    ini = (
        "[scenario]\nhorizon = 1.0\nsteps = 40\n\n"
        "[problem]\npayoff = b + 0.5\ndriver = -1.0\nloss = x\n"
    )
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini, encoding="utf-8")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code1 = cli_run(["solve", "--config", str(cfg), "--out", str(out1)])
    code2 = cli_run(["solve", "--config", str(cfg), "--out", str(out2)])
    same = (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()
    _line("a12-reproducibility", code1 == 0 and code2 == 0 and same, identical=same)
