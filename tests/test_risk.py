"""Risk-side constraint: dual evaluation, explicit lifts, superhedging prices."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from nebsde import bsde as bs
from nebsde import expectations as ne
from nebsde import picard as pc
from nebsde import reflection as rf
from nebsde import risk as rk
from nebsde import scenarios as sc
from nebsde.errors import BracketFailureError

EXACT = 1e-12
CLS = ne.NonlinearExpectation.classical()


def test_evaluate_risk_matches_weighted_sums():
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 20), "tree")
    rng = np.random.default_rng(99)
    x = rng.normal(0.3, 0.8, 21)
    rv = sc.RandomVariable(20, x)
    kernels, penalties = [-0.4, 0.0, 0.4], [0.0, 0.05, 0.1]
    rho = rk.RiskMeasure.convex_family(kernels, penalties)
    b, w = scen.tree_values[20], scen.tree_weights[20]
    cands = []
    for theta, pen in zip(kernels, penalties):
        g = np.exp(theta * b)
        cands.append(float(w @ (g * (-x))) / float(w @ g) - pen)
    assert abs(rk.evaluate_risk(rho, scen, 20, rv) - max(cands)) <= EXACT


def test_evaluate_risk_interior_closed_form(tree50):
    # Single kernel theta on B_i: tilted mean factorises into per-step tanh.
    sq = math.sqrt(tree50.grid.dt)
    rho = rk.RiskMeasure(kernels=np.array([0.6]), penalties=np.array([0.0]))
    got = rho_val = rk.evaluate_risk(rho, tree50, 13, sc.brownian_rv(tree50, 13))
    exact = -13 * sq * math.tanh(0.6 * sq)
    assert abs(got - exact) <= EXACT
    assert rho_val < 0.0  # tilting cannot beat the deterministic bound here


def test_translation_invariance(tree50):
    rho = rk.RiskMeasure.coherent_family([-0.5, 0.0, 0.5])
    rv = sc.brownian_rv(tree50, 20)
    base = rk.evaluate_risk(rho, tree50, 20, rv)
    shifted = rk.evaluate_risk(
        rho, tree50, 20, sc.RandomVariable(20, rv.values + 0.7)
    )
    assert abs(shifted - (base - 0.7)) <= EXACT


def test_risk_shift_is_positive_part(tree50):
    rho = rk.RiskMeasure.coherent_family([-0.5, 0.0, 0.5])
    q = rk.Benchmark.constant(tree50.grid, 0.1)
    rv = sc.brownian_rv(tree50, 20)
    rho_val = rk.evaluate_risk(rho, tree50, 20, rv)
    assert rk.risk_shift(rho, q, tree50, 20, rv) == pytest.approx(
        max(rho_val - 0.1, 0.0), abs=EXACT
    )
    rich = sc.RandomVariable(20, rv.values + 10.0)
    assert rk.risk_shift(rho, q, tree50, 20, rich) == 0.0


def test_risk_shift_divides_by_scale_and_is_feasible(tree50):
    # rho(X + x) = rho(X) - x (the scale is 1), so the lift is the excess
    # over q, and the lifted level meets q as evaluated.
    rv = sc.brownian_rv(tree50, 20)
    q = rk.Benchmark.constant(tree50.grid, 0.0)
    rho = rk.RiskMeasure.coherent_family([-0.5, 0.0, 0.5])
    unit = rk.evaluate_risk(rho, tree50, 20, rv)
    assert unit > 0.1
    x = rk.risk_shift(rho, q, tree50, 20, rv)
    assert x == pytest.approx(unit, abs=EXACT)
    lifted = sc.RandomVariable(20, rv.values + x)
    assert 0.0 - rk.evaluate_risk(rho, tree50, 20, lifted) >= 0.0


def test_risk_shift_raises_when_lift_never_lands(tree50, monkeypatch):
    # A risk functional that ignores the lift breaks translation invariance;
    # the correction steps stop and report instead of looping.
    rho = rk.RiskMeasure.coherent_family([0.0])
    q = rk.Benchmark.constant(tree50.grid, 0.0)
    monkeypatch.setattr(rk, "_risk", lambda *args: 1.0)
    with pytest.raises(BracketFailureError):
        rk.risk_shift(rho, q, tree50, 20, sc.brownian_rv(tree50, 20))


def test_risk_scale_reflection_is_feasible_and_scale_free(tree50):
    # The translation-invariant rho (scale 1): the reflected levels meet the
    # acceptance set exactly, and the flow is flat off it.
    claim = bs.TerminalClaim.from_function(tree50, lambda b: b + 0.45)
    driver = bs.Driver.constant(-1.0)
    rho = rk.RiskMeasure.coherent_family([-0.5, 0.0, 0.5])
    q = rk.Benchmark.constant(tree50.grid, 0.45)
    sol = rk.solve_risk_reflected(tree50, claim, driver, rho, q)
    assert float(np.min(sol.diagnostics.constraint_values)) >= 0.0
    assert abs(sol.diagnostics.skorokhod_residual) <= 1e-15
    assert sol.K.values[-1] > 0.05


def test_family_flags_and_validation():
    assert rk.RiskMeasure.coherent_family([-0.5, 0.5]).coherent
    assert not rk.RiskMeasure.convex_family([0.0, 0.5], [0.0, 0.1]).coherent
    # the kernels and their penalties are the whole measure
    assert [f.name for f in dataclasses.fields(rk.RiskMeasure)] == ["kernels", "penalties"]
    with pytest.raises(ValueError):
        rk.RiskMeasure.coherent_family([])
    with pytest.raises(ValueError):
        rk.RiskMeasure.convex_family([0.0], [0.1, 0.2])
    with pytest.raises(ValueError):
        rk.RiskMeasure.convex_family([0.0], [-0.1])
    with pytest.raises(ValueError):
        rk.RiskMeasure.convex_family([], [])
    # non-finite kernels would fail inside the tilt, non-finite penalties in the solve
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="kernels must be finite"):
            rk.RiskMeasure.coherent_family([0.0, bad])
        with pytest.raises(ValueError, match="penalties must be finite"):
            rk.RiskMeasure.convex_family([0.0, 0.5], [0.0, bad])


def test_risk_solve_equals_mean_solve_on_trivial_family(tree100):
    # Zero-kernel coherent rho(X) = E[-X]: the constraint rho(Y) <= q is the
    # mean floor E[Y] >= -q.
    claim = bs.TerminalClaim.from_function(tree100, lambda b: b + 0.2)
    driver = bs.Driver.constant(-1.0)
    rho = rk.RiskMeasure.coherent_family([0.0])
    solr = rk.solve_risk_reflected(
        tree100, claim, driver, rho, rk.Benchmark.constant(tree100.grid, 0.3)
    )
    solm = pc.solve_reflected(
        tree100, claim, driver, rf.LossFunction.linear(-0.3), CLS
    )
    dy = max(
        float(np.max(np.abs(a.values - b.values))) for a, b in zip(solr.Y, solm.Y)
    )
    dk = float(np.max(np.abs(solr.K.values - solm.K.values)))
    assert solr.K.total > 0.1
    assert dy <= 1e-8
    assert dk <= 1e-8


def test_risk_solve_with_state_dependent_generator(tree50):
    # The acceptance region dips mid-horizon so the constraint binds away
    # from the terminal level.
    claim = bs.TerminalClaim.from_function(tree50, lambda b: b + 0.2)
    driver = bs.Driver(
        fn=lambda t, y, z: -0.2 * np.asarray(y) + 0.1 * np.abs(z),
        lipschitz=0.3, depends_on_y=True, depends_on_z=True,
    )
    rho = rk.RiskMeasure.coherent_family([-0.3, 0.0, 0.3])
    q = rk.Benchmark.from_knots(
        tree50.grid, [(0.0, 1.0), (0.5, -0.12), (1.0, 1.0)]
    )
    sol = rk.solve_risk_reflected(tree50, claim, driver, rho, q)
    slack = sol.diagnostics.constraint_values
    assert float(np.min(slack)) >= -1e-8
    assert abs(sol.diagnostics.skorokhod_residual) <= 1e-6
    assert sol.K.total > 0.01


def test_benchmark_constructors():
    grid = sc.TimeGrid(1.0, 4)
    const = rk.Benchmark.constant(grid, 0.3)
    assert np.array_equal(const.values, np.full(5, 0.3))
    knots = rk.Benchmark.from_knots(grid, [(1.0, 1.0), (0.0, 0.0)])
    assert np.allclose(knots.values, [0.0, 0.25, 0.5, 0.75, 1.0], atol=EXACT)
    with pytest.raises(ValueError):
        rk.Benchmark.from_knots(grid, [])
    with pytest.raises(ValueError):
        rk.Benchmark(np.array([np.nan, 0.0]))


def test_market_validation():
    mkt = rk.Market(rate=0.05, drift=0.25, volatility=0.2)
    assert mkt.price_of_risk == pytest.approx(1.0, abs=EXACT)
    with pytest.raises(ValueError):
        rk.Market(rate=0.0, drift=0.0, volatility=0.0)
    with pytest.raises(ValueError):
        rk.Market(rate=np.inf, drift=0.0, volatility=0.2)
    # finite inputs whose price of risk, or the wealth generator's Lipschitz
    # constant |rate| + |price of risk|, overflows
    for rate, drift, volatility in ((1e308, 0.05, 0.2), (0.05, 0.1, 1e-310),
                                    (np.float64(-1e308), np.float64(1e308), np.float64(1.0)),
                                    (1.5e308, 0.0, 1.0)):
        with pytest.raises(ValueError, match="price of risk"):
            rk.Market(rate=rate, drift=drift, volatility=volatility)


def test_subnormal_volatility_hedge_ratios_overflow_to_inf(tree8):
    # With no excess drift the price of risk is 0 and the price is finite;
    # Z / (sigma * Y) overflows, and reads inf without a RuntimeWarning.
    mkt = rk.Market(rate=0.05, drift=0.05, volatility=1e-310)
    claim = bs.TerminalClaim.from_function(tree8, lambda b: b + 2.0)
    report = rk.superhedge_price(mkt, tree8, claim, rk.RiskMeasure.coherent_family([0.0]),
                                 rk.Benchmark.constant(tree8.grid, 10.0))
    assert np.isfinite(report.price)
    assert np.isinf(report.hedge_ratios[0]).all()


def test_price_discounts_deterministic_claim(tree50):
    # theta = 0, vacuous constraint: plain discounting at the implicit rate.
    mkt = rk.Market(rate=0.05, drift=0.05, volatility=0.2)
    rho = rk.RiskMeasure.coherent_family([-0.5, 0.0, 0.5])
    rep = rk.superhedge_price(
        mkt, tree50, bs.TerminalClaim.constant(tree50, 1.0),
        rho, rk.Benchmark.constant(tree50.grid, 10.0),
    )
    exact = (1.0 + 0.05 * tree50.grid.dt) ** (-50)
    assert abs(rep.price - exact) <= 1e-10
    assert rep.solution.K.total <= 1e-12


def test_price_zero_rates_equals_mean(tree50):
    mkt = rk.Market(rate=0.0, drift=0.0, volatility=0.2)
    rho = rk.RiskMeasure.coherent_family([-0.5, 0.0, 0.5])
    claim = bs.TerminalClaim.from_function(tree50, lambda b: b + 0.5)
    rep = rk.superhedge_price(
        mkt, tree50, claim, rho, rk.Benchmark.constant(tree50.grid, 10.0)
    )
    assert abs(rep.price - 0.5) <= EXACT


def test_price_pinned_by_binding_constraint(tree50):
    # When the constraint binds at t=0, translation invariance pins the root
    # value at -q exactly.
    mkt = rk.Market(rate=0.05, drift=0.25, volatility=0.2)
    rho = rk.RiskMeasure.coherent_family([-0.5, 0.0, 0.5])
    claim = bs.TerminalClaim.from_function(tree50, lambda b: b + 0.45)
    prices = {}
    for qv in (2.0, 0.45, 0.3):
        rep = rk.superhedge_price(
            mkt, tree50, claim, rho, rk.Benchmark.constant(tree50.grid, qv)
        )
        prices[qv] = rep.price
    assert abs(prices[0.45] + 0.45) <= 1e-8
    assert abs(prices[0.3] + 0.3) <= 1e-8
    assert prices[2.0] < prices[0.45] < prices[0.3]


def test_superhedge_with_large_kernels_raises_no_warning():
    # Kernels of +-800 over [0, 1]: a slack constraint, so the price is the
    # unreflected wealth BSDE's, and nothing along the way may overflow.
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 400), "tree")
    mkt = rk.Market(rate=0.05, drift=0.25, volatility=0.2)
    rho = rk.RiskMeasure.coherent_family([-800.0, 0.0, 800.0])
    claim = bs.TerminalClaim.from_function(scen, lambda b: b + 0.45)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = rk.superhedge_price(mkt, scen, claim, rho, rk.Benchmark.constant(scen.grid, 50.0))
    theta = mkt.price_of_risk
    wealth = bs.Driver(
        fn=lambda t, y, z: -(0.05 * np.asarray(y) + theta * np.asarray(z)),
        lipschitz=0.05 + abs(theta), depends_on_y=True, depends_on_z=True,
    )
    plain = bs.solve_bsde(scen, claim, wealth)
    assert rep.solution.K.total == 0.0
    assert abs(rep.price - plain.value) <= EXACT
    assert float(np.min(rep.solution.diagnostics.constraint_values)) >= 0.0


def _superhedge_case(scen):
    """A binding superhedge: the constraint pins the price at -q."""
    mkt = rk.Market(rate=0.05, drift=0.25, volatility=0.2)
    rho = rk.RiskMeasure.convex_family([-0.5, 0.0, 0.5], [0.0, 0.01, 0.02])
    claim = bs.TerminalClaim.from_function(scen, lambda b: b + 0.45)
    return mkt, claim, rho, rk.Benchmark.constant(scen.grid, 0.45)


@pytest.mark.parametrize("mode", ["tree", "montecarlo"])
def test_superhedge_matches_the_log_space_formula(tree50, mode, monkeypatch, tilt_oracle):
    # The tilt table against a risk problem that builds each kernel's
    # weights afresh on every evaluation, in log space.
    scen = tree50 if mode == "tree" else sc.build_scenarios(
        sc.TimeGrid(1.0, 50), "montecarlo", n_paths=2000, seed=11)
    mkt, claim, rho, q = _superhedge_case(scen)
    report = rk.superhedge_price(mkt, scen, claim, rho, q)

    def oracle_problem(rho, q, scen):
        def constraint(i, values):
            means = tilt_oracle(scen, rho.kernels, i, values)
            return float(q.values[i]) - float(np.max(-means - rho.penalties))
        return rf.ReflectionProblem(constraint, 1.0, exact=True)

    monkeypatch.setattr(rk, "_risk_problem", oracle_problem)
    want = rk.superhedge_price(mkt, scen, claim, rho, q)
    assert report.solution.K.total > 0.05
    assert abs(report.price - want.price) <= 1e-12
    assert max(float(np.max(np.abs(a.values - b.values)))
               for a, b in zip(report.solution.Y, want.solution.Y)) <= 1e-12
    assert np.max(np.abs(report.solution.K.values - want.solution.K.values)) <= 1e-12


@pytest.mark.parametrize("mode", ["tree", "montecarlo"])
def test_superhedge_builds_one_tilt_table_per_level(tree50, mode, count_calls):
    # The lift's evaluations of a level (the slack at 0, then the closed
    # form's check on binding levels) share the level's table; on paths the
    # one table serves every index.
    scen = tree50 if mode == "tree" else sc.build_scenarios(
        sc.TimeGrid(1.0, 50), "montecarlo", n_paths=2000, seed=11)
    tables = count_calls(sc, "tilt_table")
    evaluations = count_calls(rk, "_risk")
    mkt, claim, rho, q = _superhedge_case(scen)
    report = rk.superhedge_price(mkt, scen, claim, rho, q)
    assert report.solution.diagnostics.shift_closed_form > 0
    assert tables[0] == (scen.grid.steps + 1 if mode == "tree" else 1)
    assert evaluations[0] > scen.grid.steps + 1


def test_hedge_ratio_mask(tree50):
    mkt = rk.Market(rate=0.05, drift=0.25, volatility=0.2)
    rho = rk.RiskMeasure.coherent_family([-0.5, 0.0, 0.5])
    claim = bs.TerminalClaim.from_function(tree50, lambda b: b + 0.45)
    rep = rk.superhedge_price(
        mkt, tree50, claim, rho, rk.Benchmark.constant(tree50.grid, 0.45)
    )
    assert len(rep.hedge_ratios) == len(rep.solution.Z)
    for ratio, y, z in zip(rep.hedge_ratios, rep.solution.Y, rep.solution.Z):
        mask = np.abs(y.values) > 1e-12
        assert np.all(np.isnan(ratio[~mask]))
        assert np.allclose(
            ratio[mask], z.values[mask] / (0.2 * y.values[mask]), atol=0.0, rtol=0.0
        )


def test_benchmark_must_cover_grid(tree50):
    rho = rk.RiskMeasure.coherent_family([0.0])
    claim = bs.TerminalClaim.constant(tree50, 1.0)
    short = rk.Benchmark(np.full(10, 1.0))
    with pytest.raises(ValueError):
        rk.solve_risk_reflected(tree50, claim, bs.Driver.constant(0.0), rho, short)
