"""Nonlinear expectation functionals: closed forms, dualities, envelopes."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nebsde import bsde as bs
from nebsde import expectations as ne
from nebsde import picard as pc
from nebsde import reflection as rf
from nebsde import scenarios as sc
from nebsde.errors import FixedPointError

EXACT = 1e-12
KAPPA = 0.5


def _const_rv(scen, c):
    return sc.RandomVariable(scen.grid.steps, np.full(scen.grid.steps + 1, float(c)))


def _gexp(scen, rv, kappa):
    return ne._gexp_value(scen, rv, bs.Driver.kappa_abs(kappa))


def test_lower_envelope_exponential_decay():
    # On a positive constant the lower envelope contracts like exp(-kappa*T)
    # as the grid refines.
    target = 2.0 * math.exp(-KAPPA)
    errs = []
    for m in (50, 100, 200):
        scen = sc.build_scenarios(sc.TimeGrid(1.0, m), "tree")
        exp = ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(-KAPPA))
        errs.append(abs(ne.evaluate(exp, scen, _const_rv(scen, 2.0)) - target))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-3


def test_duality_upper_equals_reflected_lower(tree50):
    rng = np.random.default_rng(4242)
    for _ in range(5):
        x = rng.normal(0.0, 1.0, 51)
        up = _gexp(tree50, sc.RandomVariable(50, x), KAPPA)
        lo = _gexp(tree50, sc.RandomVariable(50, -x), -KAPPA)
        assert abs(up + lo) <= EXACT


def test_positive_homogeneity(tree50):
    rng = np.random.default_rng(99)
    x = rng.normal(0.0, 1.0, 51)
    base = _gexp(tree50, sc.RandomVariable(50, x), KAPPA)
    for lam in (0.0, 0.7, 3.0):
        scaled = _gexp(tree50, sc.RandomVariable(50, lam * x), KAPPA)
        assert abs(scaled - lam * base) <= EXACT * (1.0 + lam)


def test_monotonicity(tree50):
    rng = np.random.default_rng(7)
    exp = ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(KAPPA))
    for _ in range(10):
        x = rng.normal(0.0, 1.0, 51)
        bump = rng.uniform(0.0, 1.0, 51)
        lo = ne.evaluate(exp, tree50, sc.RandomVariable(50, x))
        hi = ne.evaluate(exp, tree50, sc.RandomVariable(50, x + bump))
        assert hi >= lo - EXACT


def test_subadditivity_sandwich(tree50):
    # G^{-k}[X - Y] <= G^k[X] - G^k[Y] <= G^k[X - Y].
    rng = np.random.default_rng(4242)
    for _ in range(20):
        x = rng.normal(0.0, 1.0, 51)
        y = rng.normal(0.0, 1.0, 51)
        gx = _gexp(tree50, sc.RandomVariable(50, x), KAPPA)
        gy = _gexp(tree50, sc.RandomVariable(50, y), KAPPA)
        hi = _gexp(tree50, sc.RandomVariable(50, x - y), KAPPA)
        lo = _gexp(tree50, sc.RandomVariable(50, x - y), -KAPPA)
        assert hi - (gx - gy) >= -1e-10
        assert (gx - gy) - lo >= -1e-10


def test_z_only_driver_preserves_constants(tree50):
    exp = ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(KAPPA, include_y=False))
    for c in (3.0, -1.2):
        assert abs(ne.evaluate(exp, tree50, _const_rv(tree50, c)) - c) <= 1e-14


def test_classical_is_plain_mean(tree50):
    rv = sc.from_terminal_function(tree50, lambda b: b * b)
    exp = ne.NonlinearExpectation.classical()
    assert abs(ne.evaluate(exp, tree50, rv) - sc.expect(tree50, rv)) <= EXACT


def test_cash_additivity_flag(tree50):
    # The flag holds exactly where E[X + c] = E[X] + c.
    rv = sc.from_terminal_function(tree50, lambda b: np.sin(3.0 * b))
    shifted = sc.RandomVariable(50, rv.values + 0.8)
    flagged = [
        ne.NonlinearExpectation.classical(),
        ne.NonlinearExpectation.alpha_maxmin(alpha=0.3, kappa=KAPPA),
        ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(KAPPA, include_y=False)),
    ]
    for exp in flagged:
        assert exp.cash_additive
        assert abs(ne.evaluate(exp, tree50, shifted) - ne.evaluate(exp, tree50, rv) - 0.8) <= 1e-12
    exp = ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(KAPPA))
    assert not exp.cash_additive
    assert abs(ne.evaluate(exp, tree50, shifted) - ne.evaluate(exp, tree50, rv) - 0.8) > 1e-3


def test_maxmin_constant_preserving(tree50):
    exp = ne.NonlinearExpectation.alpha_maxmin(alpha=0.3, kappa=KAPPA)
    assert abs(ne.evaluate(exp, tree50, _const_rv(tree50, 1.7)) - 1.7) <= 1e-10


def test_maxmin_is_affine_in_alpha(tree100):
    rv = sc.from_terminal_function(tree100, lambda b: 0.5 * np.abs(b))
    vals = {
        a: ne.evaluate(ne.NonlinearExpectation.alpha_maxmin(alpha=a, kappa=KAPPA), tree100, rv)
        for a in (0.0, 0.5, 1.0)
    }
    assert abs(vals[0.5] - 0.5 * (vals[0.0] + vals[1.0])) <= EXACT


def _constant_tilt_maxmin(exp, scen, rv, n_kernels=21):
    # Second opinion for alpha_maxmin from constant Girsanov kernels: blend
    # the best and worst tilted means over a grid of kernels in
    # [-kappa, kappa].  The sup over constant kernels only approximates the
    # adapted sup, so this is a sanity check, not an oracle.
    vals = sc.tilted_expect(scen, np.linspace(-exp.kappa, exp.kappa, n_kernels), rv)
    return float(exp.alpha * np.max(vals) + (1.0 - exp.alpha) * np.min(vals))


def test_maxmin_dominates_constant_tilt_grid(tree100):
    # The adapted extremes beat any constant-kernel tilt: above the grid sup
    # at alpha=1, below the grid inf at alpha=0.
    for fn in (lambda b: b, lambda b: 0.5 * np.abs(b), lambda b: 0.4 * b * b):
        rv = sc.from_terminal_function(tree100, fn)
        top = ne.NonlinearExpectation.alpha_maxmin(alpha=1.0, kappa=KAPPA)
        bot = ne.NonlinearExpectation.alpha_maxmin(alpha=0.0, kappa=KAPPA)
        assert ne.evaluate(top, tree100, rv) >= _constant_tilt_maxmin(top, tree100, rv) - 1e-10
        assert ne.evaluate(bot, tree100, rv) <= _constant_tilt_maxmin(bot, tree100, rv) + 1e-10


def test_maxmin_matches_grid_on_linear_claim(tree100):
    # For B_T the optimal tilt is the constant +/-kappa kernel, so the two
    # computations agree up to discretisation.
    rv = sc.brownian_rv(tree100, 100)
    for alpha in (0.0, 1.0):
        exp = ne.NonlinearExpectation.alpha_maxmin(alpha=alpha, kappa=KAPPA)
        gap = abs(ne.evaluate(exp, tree100, rv) - _constant_tilt_maxmin(exp, tree100, rv))
        assert gap <= 2e-3


def test_interior_fast_path_matches_generic_solver(tree50):
    # Interior continuation: kernel shortcut vs the generic nodewise solver.
    rv = sc.RandomVariable(30, tree50.tree_values[30] ** 2 - 0.6)
    fast = ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(KAPPA))
    generic_driver = bs.Driver(
        fn=lambda t, y, z: KAPPA * (np.abs(y) + np.abs(z)),
        lipschitz=KAPPA, depends_on_y=True, depends_on_z=True,
    )
    generic = ne.NonlinearExpectation.gexp(generic_driver)
    a = ne.evaluate(fast, tree50, rv)
    b = ne.evaluate(generic, tree50, rv)
    assert abs(a - b) <= 1e-10


def _drivers(kappa):
    """``kappa*(|y| + |z|)`` and ``kappa*|z|`` (``kappa`` of either sign), the
    same formulas as plain callables, and a driver outside the family that
    reads t, y and z."""
    k = abs(kappa)
    return {
        "kappa_abs": bs.Driver.kappa_abs(kappa),
        "kappa_abs z": bs.Driver.kappa_abs(kappa, include_y=False),
        "plain y and z": bs.Driver(fn=lambda t, y, z: kappa * (np.abs(y) + np.abs(z)),
                                   lipschitz=k, depends_on_y=True, depends_on_z=True),
        "plain z": bs.Driver(fn=lambda t, y, z: kappa * np.abs(z), lipschitz=k,
                             depends_on_z=True),
        "non-kappa": bs.Driver(fn=lambda t, y, z: -0.4 * (1.0 + t) * y + 0.3 * np.tanh(z),
                               lipschitz=0.8, depends_on_y=True, depends_on_z=True),
    }


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(4, 12),
    data=st.data(),
    kappa=st.floats(0.05, 0.9) | st.floats(-0.9, -0.05),
    case=st.sampled_from(sorted(_drivers(1.0))),
    order=st.sampled_from(["none", "increasing", "decreasing"]),
)
def test_tree_evaluate_matches_solve_bsde_on_continued_claim(m, data, kappa, case, order):
    # The fast paths of ne.evaluate on the tree (the kappa family's
    # continuation factor and step, the comonotone dot product, the lean
    # roll-back) against the generic solver on the claim continued step by
    # step with z frozen at 0.  At least 4 steps keep lipschitz * dt <= 0.225,
    # where 50 fixed-point sweeps reach their tolerance.
    scen = sc.build_scenarios(sc.TimeGrid(1.0, m), "tree")
    index = data.draw(st.integers(0, m))
    x = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=index + 1,
                                    max_size=index + 1)))
    if order != "none":
        x = np.sort(x) if order == "increasing" else -np.sort(x)
    driver = _drivers(kappa)[case]
    got = ne.evaluate(ne.NonlinearExpectation.gexp(driver), scen, sc.RandomVariable(index, x))
    continued = x
    for j in range(m - 1, index - 1, -1):
        continued = bs.implicit_step(driver, float(scen.grid.nodes[j]), continued,
                                     np.zeros_like(x), scen.grid.dt)
    claim = bs.TerminalClaim(sc.RandomVariable(index, continued))
    ref = bs.solve_bsde(scen, claim, driver).value
    assert abs(got - ref) <= 1e-12 * (1.0 + np.max(np.abs(continued))), (case, got, ref)


def _operator(kind, alpha, kappa):
    return {
        "classical": ne.NonlinearExpectation.classical(),
        "alpha-maxmin": ne.NonlinearExpectation.alpha_maxmin(alpha=alpha, kappa=kappa),
        "gexp +kappa|z|": ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(kappa, include_y=False)),
        "gexp -kappa|z|": ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(-kappa, include_y=False)),
    }[kind]


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(2, 30),
    data=st.data(),
    kind=st.sampled_from(["classical", "alpha-maxmin", "gexp +kappa|z|", "gexp -kappa|z|"]),
    alpha=st.floats(0.0, 1.0),
    kappa=st.floats(0.0, 1.0),
    c=st.floats(-10.0, 10.0),
)
def test_operator_axioms_on_random_levels(m, data, kind, alpha, kappa, c):
    # Cash additivity, monotonicity and constant preservation of every
    # cash-additive operator, for a claim on a random level; a driver that
    # reads y moves constants by its implicit steps instead.
    scen = sc.build_scenarios(sc.TimeGrid(1.0, m), "tree")
    index = data.draw(st.integers(0, m))
    floats = st.lists(st.floats(-5.0, 5.0), min_size=index + 1, max_size=index + 1)
    x = np.array(data.draw(floats))
    d = np.abs(np.array(data.draw(floats)))
    exp = _operator(kind, alpha, kappa)
    assert exp.cash_additive
    value = ne.evaluate(exp, scen, sc.RandomVariable(index, x))
    scale = 1.0 + abs(c) + np.max(np.abs(x)) + np.max(d)
    shifted = ne.evaluate(exp, scen, sc.RandomVariable(index, x + c))
    assert abs(shifted - value - c) <= 1e-12 * (1.0 + abs(c) + np.max(np.abs(x)))
    assert ne.evaluate(exp, scen, sc.RandomVariable(index, x + d)) >= value - 1e-12 * scale
    const = sc.RandomVariable(index, np.full(index + 1, c))
    assert abs(ne.evaluate(exp, scen, const) - c) <= 1e-12 * (1.0 + abs(c))
    # kappa*(|y| + |z|): each of the m implicit steps divides c by 1 - sign(c)*kappa*dt
    with_y = ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(kappa))
    assert with_y.cash_additive == (kappa == 0.0)
    expected = c * (1.0 - np.sign(c) * kappa * scen.grid.dt) ** (-m)
    assert abs(ne.evaluate(with_y, scen, const) - expected) <= 1e-12 * (1.0 + abs(expected))


def test_tree_evaluate_runs_no_bsde_solve(tree8, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the tree evaluation ran bs.solve_bsde")

    monkeypatch.setattr(bs, "solve_bsde", refuse)
    driver = bs.Driver(fn=lambda t, y, z: -0.5 * y + 0.2 * np.abs(z), lipschitz=0.5,
                       depends_on_y=True, depends_on_z=True)
    rv = sc.from_terminal_function(tree8, lambda b: b * b)
    assert np.isfinite(ne.evaluate(ne.NonlinearExpectation.gexp(driver), tree8, rv))


def test_non_finite_driver_on_tree_raises_fixed_point_error(tree8):
    nan = bs.Driver(fn=lambda t, y, z: np.full_like(np.asarray(z, dtype=float), np.nan),
                    lipschitz=0.5, depends_on_z=True)
    rv = sc.from_terminal_function(tree8, lambda b: b + 1.0)
    with pytest.raises(FixedPointError):
        ne.evaluate(ne.NonlinearExpectation.gexp(nan), tree8, rv)
    with pytest.raises(FixedPointError):
        ne.evaluate(ne.NonlinearExpectation.gexp(nan), tree8, sc.RandomVariable(3, np.ones(4)))


def test_domination_gap_report(tree50):
    rng = np.random.default_rng(777)
    x = sc.RandomVariable(50, rng.normal(0.0, 1.0, 51))
    y = sc.RandomVariable(50, rng.normal(0.0, 1.0, 51))
    exp = ne.NonlinearExpectation.alpha_maxmin(alpha=0.5, kappa=KAPPA)
    rep = ne.domination_gap(exp, tree50, x, y)
    assert rep.lower_bound <= rep.upper_bound
    assert rep.lower_slack >= -1e-10
    assert rep.upper_slack >= -1e-10
    with pytest.raises(ValueError):
        ne.domination_gap(exp, tree50, x, sc.RandomVariable(49, np.zeros(50)))


def test_driver_without_vanishing_origin_rejected(tree8):
    with pytest.raises(ValueError, match="vanish"):
        ne.check_operator(ne.NonlinearExpectation.gexp(bs.Driver.constant(0.3)), tree8)


def test_parameter_validation():
    with pytest.raises(ValueError):
        ne.NonlinearExpectation(kind="median")
    for kappa in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            ne.NonlinearExpectation.alpha_maxmin(alpha=0.3, kappa=kappa)
    with pytest.raises(ValueError):
        ne.NonlinearExpectation.alpha_maxmin(alpha=1.2, kappa=0.5)
    with pytest.raises(ValueError):
        ne.NonlinearExpectation(kind="gexp")
    # the mixture's driver is its upper kappa*|z| envelope, nothing else
    for driver in (bs.Driver.kappa_abs(-0.5, include_y=False), bs.Driver.kappa_abs(0.5),
                   bs.Driver(fn=lambda t, y, z: 0.5 * np.abs(z), lipschitz=0.5,
                             depends_on_z=True)):
        with pytest.raises(ValueError):
            ne.NonlinearExpectation(kind="alpha_maxmin", driver=driver, alpha=0.3)
    exp = ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(0.4))
    assert exp.kappa == pytest.approx(0.4, abs=0)
    # one constant per operator: kappa is the driver's Lipschitz constant
    generic = bs.Driver(fn=lambda t, y, z: -0.5 * y, lipschitz=0.7, depends_on_y=True)
    amm = ne.NonlinearExpectation.alpha_maxmin(alpha=0.3, kappa=0.5)
    assert ne.NonlinearExpectation.gexp(generic).kappa == 0.7
    assert amm.kappa == amm.driver.lipschitz == 0.5
    assert amm.driver.kappa_structure == (0.5, False)
    assert ne.NonlinearExpectation.classical().kappa == 0.0
    assert [f.name for f in dataclasses.fields(ne.NonlinearExpectation)] == [
        "kind", "driver", "alpha"]


def test_driver_vanishing_checked_on_every_grid_date():
    # A generator that is 0 on [0, 1] but not on (1, 2] does not preserve
    # constants on a horizon of 2; the solve refuses it before evaluating.
    scen = sc.build_scenarios(sc.TimeGrid(2.0, 20), "tree")
    late = ne.NonlinearExpectation.gexp(bs.Driver.time_dependent(lambda t: max(t - 1.0, 0.0)))
    claim = bs.TerminalClaim.from_function(scen, lambda b: b + 1.0)
    with pytest.raises(ValueError, match="vanish"):
        pc.solve_reflected(scen, claim, bs.Driver.constant(0.0),
                           rf.LossFunction.linear(1.0), late)
    with pytest.raises(ValueError, match="vanish"):
        rf.minimal_shift(late, rf.LossFunction.linear(1.0), scen, 20, claim.rv)
    with pytest.raises(ValueError, match="vanish"):
        ne.check_operator(late, scen)
    early = ne.NonlinearExpectation.gexp(bs.Driver.time_dependent(lambda t: max(t - 2.0, 0.0)))
    ne.check_operator(early, scen)


def test_envelopes_and_their_blend(tree50):
    # alpha-maxmin weighs its upper kappa*|z| driver by alpha and the lower
    # -kappa*|z| one by 1 - alpha; a g-expectation is its own driver at
    # weight 1, whose blend leaves a value (a negative zero too) as it is.
    amm = ne.NonlinearExpectation.alpha_maxmin(alpha=0.3, kappa=KAPPA)
    (w_hi, hi), (w_lo, lo) = amm.envelopes
    assert (w_hi, w_lo) == (0.3, 1.0 - 0.3)
    assert hi is amm.driver and lo.kappa_structure == (-KAPPA, False)
    gexp = ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(0.4))
    assert gexp.envelopes == ((1.0, gexp.driver),)
    assert ne.NonlinearExpectation.classical().envelopes == ()
    assert math.copysign(1.0, gexp.blend(lambda driver: -0.0)) == -1.0
    rv = sc.from_terminal_function(tree50, lambda b: np.sin(2.0 * b))
    upper, lower = (ne._gexp_value(tree50, rv, d) for d in (hi, lo))
    assert ne.evaluate(amm, tree50, rv) == 0.3 * upper + (1.0 - 0.3) * lower


def test_lower_envelope_is_built_once(tree50, count_calls):
    # alpha-maxmin builds its lower -kappa*|z| driver on first access and
    # keeps it: every evaluation reads the same object.
    built = count_calls(bs.Driver, "kappa_abs")
    amm = ne.NonlinearExpectation.alpha_maxmin(alpha=0.3, kappa=KAPPA)
    lower = amm.envelopes[1][1]
    assert amm.envelopes[1][1] is lower
    rv = sc.from_terminal_function(tree50, lambda b: np.sin(2.0 * b))
    for _ in range(3):
        ne.evaluate(amm, tree50, rv)
    assert amm.envelopes[1][1] is lower
    assert built[0] == 2  # the upper driver at construction, the lower one once
