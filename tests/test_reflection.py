"""Reflection machinery: minimal shifts, flow algebra, exact constant-driver solves."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from nebsde import bsde as bs
from nebsde import expectations as ne
from nebsde import picard as pc
from nebsde import reflection as rf
from nebsde import scenarios as sc
from nebsde.errors import BracketFailureError, InfeasibleProblemError

from oracles import brownian_rv

EXACT = 1e-12
SHIFT_TOL = 2e-8
CLS = ne.NonlinearExpectation.classical()


def _solve_constant(scen, claim, c, loss):
    return pc.solve_reflected(scen, claim, bs.Driver.constant(c), loss, CLS)


def _lift(exp, loss, scen, i, rv):
    return rf.lift(rf.mean_constraint_problem(scen, loss, exp), i, rv.values)


def test_flow_and_profile_validation():
    with pytest.raises(ValueError):
        rf.ReflectorFlow(np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        rf.ReflectorFlow(np.array([0.0, 0.5, 0.4]))


def test_minimal_shift_against_scalar_bisection(tree50):
    # Independent root-find of E[l(x + s)] = 0 for a kinked loss.
    loss = rf.LossFunction(
        fn=lambda t, x: np.minimum(np.asarray(x) - 0.2, 0.4 * (np.asarray(x) - 0.2)),
        lower=0.4, upper=1.0, shape="concave",
    )
    rv = sc.RandomVariable(25, tree50.tree_values[25] - 0.8)
    w = tree50.tree_weights[25]

    def mean_loss(s):
        return float(w @ np.minimum(rv.values + s - 0.2, 0.4 * (rv.values + s - 0.2)))

    root = brentq(mean_loss, 0.0, 10.0, xtol=1e-12)
    got = rf.minimal_shift(CLS, loss, tree50, rv)
    assert abs(got - root) <= SHIFT_TOL


@settings(max_examples=60, deadline=None)
@given(
    index=st.integers(1, 50),
    level=st.floats(-3.0, 1.0),
    floor=st.floats(-1.0, 1.0),
    slopes=st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0)),
)
# A level on the floor up to rounding: h0 = -5.2e-22, whose slope-bound reach
# stays below the spacing of the level's values for more than 8 doublings.
@example(index=45, level=0.0, floor=0.0, slopes=(0.1, 0.1))
# A root where the mean loss is 0 up to rounding: the constraint as evaluated
# is negative both at the search's lower end and at brentq's root
# (0.10000000000000002), and the search returns 0.10000001000000003.
@example(index=34, level=0.0, floor=0.1, slopes=(0.71875, 0.71875))
def test_minimal_shift_feasible_and_near_root(tree50, index, level, floor, slopes):
    # Kinked linear loss a*min(u, 0) + c*max(u, 0) with u = x - floor: the
    # returned shift satisfies the constraint as evaluated, one tolerance
    # less does not, and it sits within tol of an independent root, whose
    # own xtol widens the bound.
    a, c = slopes
    loss = rf.LossFunction(
        fn=lambda t, x: a * np.minimum(np.asarray(x) - floor, 0.0)
        + c * np.maximum(np.asarray(x) - floor, 0.0),
        lower=min(a, c), upper=max(a, c), shape="general",
    )
    rv = sc.RandomVariable(index, tree50.tree_values[index] + level)
    w = tree50.tree_weights[index]

    def mean_loss(s):
        u = rv.values + s - floor
        return float(w @ (a * np.minimum(u, 0.0) + c * np.maximum(u, 0.0)))

    def phi(s):
        return rf.constraint_value(CLS, loss, tree50, index, rv.values + s)

    got = rf.minimal_shift(CLS, loss, tree50, rv)
    assert got >= 0.0
    assert phi(got) >= 0.0
    if got > rf.OPERATOR_TOL:
        assert phi(got - rf.OPERATOR_TOL) < 0.0
    root = 0.0 if mean_loss(0.0) >= 0.0 else brentq(mean_loss, 0.0, 50.0, xtol=1e-13)
    assert abs(got - root) <= rf.OPERATOR_TOL + 1e-13


def _bisect_root(phi, v0, reach, tol):
    """The bracket of ``rf._monotone_root``, then plain bisection: the oracle."""
    sign = 1.0 if v0 < 0.0 else -1.0
    far = sign * reach
    doublings = 0
    while sign * (at_far := phi(far)) < 0.0:
        if doublings >= rf._MAX_WIDEN and not 0.0 < abs(far) < tol:
            raise BracketFailureError(f"no sign change found within {abs(far):.3g} of 0")
        far *= 2.0
        doublings += 1
    lo, hi, at_hi = (0.0, far, at_far) if v0 < 0.0 else (far, 0.0, v0)
    steps = 0
    while hi - lo > tol and steps < rf._MAX_ROOT_STEPS:
        mid = 0.5 * (lo + hi)
        at_mid = phi(mid)
        if at_mid >= 0.0:
            hi, at_hi = mid, at_mid
        else:
            lo = mid
        steps += 1
    return lo, hi, steps, at_hi


# nondecreasing functions with their smallest root at r
ROOT_FAMILIES = {
    "linear": lambda x, r: x - r,
    "kinked": lambda x, r: min(x - r, 0.1 * (x - r)),
    "expm1": lambda x, r: math.expm1(x - r),
    "cubic": lambda x, r: (x - r) ** 3,
    "near_step": lambda x, r: math.tanh(1e7 * (x - r)),
    "flat_above": lambda x, r: min(x - r, 0.0) + max(x - r - 1e-3, 0.0),
}


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(sorted(ROOT_FAMILIES)),
    sign=st.sampled_from([1.0, -1.0]),
    exponent=st.floats(-6.0, 1.5),
    reach_factor=st.floats(0.01, 20.0),
    tol=st.sampled_from([1e-10, 1e-8, 1e-6]),
)
def test_itp_root_matches_bisection_oracle(family, sign, exponent, reach_factor, tol):
    # Both signs of phi(0): a positive one is the mean floor's root below 0.
    root = sign * 10.0**exponent
    phi = lambda x: ROOT_FAMILIES[family](x, root)
    v0 = phi(0.0)
    assume(v0 != 0.0)
    reach = abs(root) * reach_factor
    lo, hi, steps, at_hi = rf._monotone_root(phi, v0, reach, tol)
    b_lo, b_hi, b_steps, _ = _bisect_root(phi, v0, reach, tol)
    assert phi(lo) <= 0.0 <= phi(hi) and at_hi == phi(hi)
    assert hi - lo <= tol
    assert max(lo, b_lo) <= min(hi, b_hi) + tol
    # one step from n0 = 1, one from a final width rounding just above tol
    assert steps <= b_steps + 2


def test_itp_root_takes_fewer_steps_on_smooth_phi():
    # Where phi is linear or smooth the interpolation lands near the root,
    # so the search takes well under half of bisection's steps.
    for family in ("linear", "expm1"):
        itp = bisection = 0
        for root in (-3.1, -0.7, -0.02, 0.003, 0.4, 2.5, 11.0):
            phi = lambda x: ROOT_FAMILIES[family](x, root)
            reach = 1.3 * abs(root)
            itp += rf._monotone_root(phi, phi(0.0), reach, rf.OPERATOR_TOL)[2]
            bisection += _bisect_root(phi, phi(0.0), reach, rf.OPERATOR_TOL)[2]
        assert 2 * itp < bisection, (family, itp, bisection)


CASH_ADDITIVE = {
    "classical": lambda kappa: CLS,
    "alpha_maxmin": lambda kappa: ne.NonlinearExpectation.alpha_maxmin(alpha=0.3, kappa=kappa),
    "gexp": lambda kappa: ne.NonlinearExpectation.gexp(
        bs.Driver.kappa_abs(kappa, include_y=False)),
}


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(CASH_ADDITIVE)),
    kappa=st.floats(0.0, 2.0),
    slope=st.floats(0.2, 5.0),
    floor=st.floats(-1.0, 1.0),
    level=st.floats(-3.0, 1.0),
    index=st.integers(1, 50),
    noise=st.one_of(st.none(), st.integers(0, 2**16)),
)
def test_closed_form_shift_matches_bisection_and_brentq(
    tree50, kind, kappa, slope, floor, level, index, noise
):
    # Cash-additive operator, loss of one slope: the closed-form shift meets
    # the constraint as evaluated, takes no bisection step, and sits within
    # tol of the bisection root and of an independent root.  A monotone
    # level (noise None) takes the kernel's comonotone path, a random one
    # the recursion.
    exp = CASH_ADDITIVE[kind](kappa)
    loss = rf.LossFunction(fn=lambda t, x: slope * (np.asarray(x) - floor),
                           lower=slope, upper=slope, shape="linear")
    assert rf.closed_form_shift(exp, loss, tree50)
    if noise is None:
        values = tree50.tree_values[index] + level
    else:
        values = np.random.default_rng(noise).normal(level, 1.0, index + 1)
    rv = sc.RandomVariable(index, values)

    def phi(x):
        return rf.constraint_value(exp, loss, tree50, index, values + x)

    got, steps, value = _lift(exp, loss, tree50, index, rv)
    assert steps == 0
    assert value == phi(got)
    h0 = phi(0.0)
    if h0 >= 0.0:
        assert got == 0.0
        return
    assert phi(got) >= 0.0
    _, hi, _, _ = rf._monotone_root(phi, h0, -h0 / slope, rf.OPERATOR_TOL)
    assert abs(got - hi) <= rf.OPERATOR_TOL
    root = brentq(phi, 0.0, 1.0 - 2.0 * h0 / slope, xtol=1e-14)
    assert abs(got - root) <= rf.OPERATOR_TOL


def test_closed_form_solve_matches_forced_bisection(tree200):
    # The benchmark's binding alpha-maxmin instance: declaring the same
    # linear loss "general" forces the search on every binding level.
    claim = bs.TerminalClaim.from_function(tree200, lambda b: b + 0.5)
    driver = bs.Driver.constant(-1.0)
    maxmin = ne.NonlinearExpectation.alpha_maxmin(alpha=0.3, kappa=0.5)
    linear = rf.LossFunction.linear(0.0)
    fast = pc.solve_reflected(tree200, claim, driver, linear, maxmin)
    slow = pc.solve_reflected(tree200, claim, driver,
                              dataclasses.replace(linear, shape="general"), maxmin)
    fd, sd = fast.diagnostics, slow.diagnostics
    assert fd.shift_closed_form > 100 and fd.shift_search == 0
    assert not fd.shift_iterations.any()
    assert sd.shift_closed_form == 0 and sd.shift_search == fd.shift_closed_form
    # the forced solve searched on every binding level
    assert np.all(sd.shift_iterations[:-1][slow.K.increments > 0.0] > 0)
    assert float(np.min(fd.constraint_values)) >= 0.0
    assert np.max(np.abs(fast.K.values - slow.K.values)) <= 1e-8
    for yf, ys in zip(fast.Y, slow.Y):
        assert np.max(np.abs(yf.values - ys.values)) <= 1e-8


def test_monte_carlo_closed_form_only_for_the_classical_mean():
    # On paths the regression Z of a constant is sampling noise, so a
    # g-expectation is not cash additive as evaluated there: it searches,
    # and the classical mean keeps the closed form.
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 10), "montecarlo", n_paths=1000, seed=7)
    loss = rf.LossFunction.linear(0.3)
    rv = sc.RandomVariable(5, scen.paths[:, 5] - 0.5)
    maxmin = ne.NonlinearExpectation.alpha_maxmin(alpha=0.3, kappa=0.5)
    assert not rf.closed_form_shift(maxmin, loss, scen)
    assert rf.closed_form_shift(CLS, loss, scen)
    got, steps, _ = _lift(maxmin, loss, scen, 5, rv)
    assert steps > 0
    lifted = rf.constraint_value(maxmin, loss, scen, 5, rv.values + got)
    below = rf.constraint_value(maxmin, loss, scen, 5, rv.values + got - rf.OPERATOR_TOL)
    assert lifted >= 0.0 > below
    got, steps, _ = _lift(CLS, loss, scen, 5, rv)
    assert steps == 0 and abs(got - (0.8 - float(np.mean(scen.paths[:, 5])))) <= 1e-12


def test_cash_additive_bracket_survives_large_kappa():
    # The search bracket of a cash-additive operator is -h0/lower; it used
    # to carry a factor exp(kappa*T), which overflows at kappa*T = 710.  The
    # operator stays monotone on this tree: kappa*sqrt(dt) = 0.84.
    kappa, horizon = 0.05, 14200.0
    scen = sc.build_scenarios(sc.TimeGrid(horizon, 50), "tree")
    assert kappa * horizon > math.log(np.finfo(float).max)
    assert kappa * math.sqrt(scen.grid.dt) <= 1.0
    loss = rf.LossFunction(fn=lambda t, x: np.minimum(x, 0.6 * np.asarray(x)),
                           lower=0.6, upper=1.0, shape="concave")
    amm = ne.NonlinearExpectation.alpha_maxmin(alpha=0.3, kappa=kappa)
    for i, level in ((50, -2.0), (20, -50.0)):
        rv = sc.RandomVariable(i, scen.tree_values[i] + level)
        got, steps, _ = _lift(amm, loss, scen, i, rv)
        assert steps > 0 and 0.0 < got < np.inf
        phi = lambda x: rf.constraint_value(amm, loss, scen, i, rv.values + x)
        assert phi(got) >= 0.0 > phi(got - 2.0 * rf.OPERATOR_TOL)


@pytest.mark.parametrize("exp", [
    ne.NonlinearExpectation.alpha_maxmin(alpha=0.3, kappa=800.0),
    ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(-800.0, include_y=False)),
    ne.NonlinearExpectation.gexp(bs.Driver(fn=lambda t, y, z: 800.0 * np.sin(z),
                                           lipschitz=800.0, depends_on_z=True)),
], ids=["alpha_maxmin", "kappa_abs", "general_z"])
def test_shift_rejects_operator_not_monotone_on_tree(tree50, exp):
    # kappa*sqrt(dt) = 113: one tree step weights a child by (1 + 113)/2, so
    # the constraint is not monotone in the shift and no search can be
    # trusted; it is refused before any evaluation.
    rv = sc.RandomVariable(50, tree50.tree_values[50] - 2.0)
    with pytest.raises(ValueError, match="not monotone"):
        rf.minimal_shift(exp, rf.LossFunction.linear(0.0), tree50, rv)
    mc = sc.build_scenarios(sc.TimeGrid(1.0, 50), "montecarlo", n_paths=50, seed=1)
    ne.check_operator(exp, mc)  # paths are not checked for monotonicity
    y_only = ne.NonlinearExpectation.gexp(bs.Driver(fn=lambda t, y, z: -0.5 * y,
                                                    lipschitz=800.0, depends_on_y=True))
    ne.check_operator(y_only, tree50)  # no z-slope


def test_overflowing_bracket_raises_bracket_failure():
    # A y-dependent operator keeps the exp(kappa*T) bracket; one that does
    # not fit in a float is reported, not evaluated.  The generator -0.5*y
    # declares kappa = 800, which 810 steps keep contractive.
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 810), "tree")
    driver = bs.Driver(fn=lambda t, y, z: -0.5 * np.asarray(y), lipschitz=800.0,
                       depends_on_y=True)
    exp = ne.NonlinearExpectation.gexp(driver)
    rv = sc.RandomVariable(50, scen.tree_values[50] - 2.0)
    with pytest.raises(BracketFailureError, match="overflows"):
        rf.minimal_shift(exp, rf.LossFunction.linear(0.0), scen, rv)


def test_minimal_shift_zero_when_feasible(tree50):
    rv = sc.RandomVariable(10, tree50.tree_values[10] + 5.0)
    assert rf.minimal_shift(CLS, rf.LossFunction.linear(0.0), tree50, rv) == 0.0


def test_minimal_shift_under_lower_envelope(tree50):
    # Nonlinear expectation of a deterministic level: root sits exactly at
    # the floor, whatever the kappa continuation does around it.
    gneg = ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(-0.5))
    rv = sc.RandomVariable(40, np.zeros(41))
    got = rf.minimal_shift(gneg, rf.LossFunction.linear(1.0), tree50, rv)
    assert abs(got - 1.0) <= SHIFT_TOL


def test_minimal_shift_plateau_guard(tree50):
    rv = sc.RandomVariable(20, np.full(21, 1.0 - 1e-9))
    got = rf.minimal_shift(CLS, rf.LossFunction.linear(1.0), tree50, rv)
    assert 0.0 <= got <= 1e-8


def test_constraint_value_with_noise_dependent_loss(tree50):
    loss = rf.LossFunction(
        fn=lambda t, b, x: np.asarray(x) - 0.1 * np.abs(b),
        lower=1.0, upper=1.0, shape="linear", random=True,
    )
    vals = tree50.tree_values[30] + 0.5
    got = rf.constraint_value(CLS, loss, tree50, 30, vals)
    w = tree50.tree_weights[30]
    manual = float(w @ (vals - 0.1 * np.abs(tree50.tree_values[30])))
    assert abs(got - manual) <= EXACT


def _loss_levels(scen, rng):
    """Random levels with a plain and a Brownian-dependent loss at random indices."""
    plain = rf.LossFunction(fn=lambda t, x: np.minimum(x, 0.4 * np.asarray(x)) - t,
                            lower=0.4, upper=1.0, shape="concave")
    noisy = rf.LossFunction(fn=lambda t, b, x: np.asarray(x) - 0.1 * np.abs(b),
                            shape="linear", random=True)
    for i in rng.integers(0, scen.grid.steps + 1, size=12):
        values = rng.normal(0.0, 2.0, sc.support_size(scen, int(i)))
        for loss in (plain, noisy):
            yield loss, int(i), values


@pytest.mark.parametrize("scen_name", ["tree50", "mc50"])
def test_classical_constraint_value_is_the_random_variable_path(request, scen_name):
    # The classical constraint takes the level's mean without building a
    # random variable; it is the mean of ne.evaluate on that random variable,
    # bit for bit.
    scen = request.getfixturevalue(scen_name)
    for loss, i, values in _loss_levels(scen, np.random.default_rng(11)):
        t = float(scen.grid.nodes[i])
        level = sc.RandomVariable(i, loss(t, sc.brownian(scen, i), values))
        assert rf.constraint_value(CLS, loss, scen, i, values) == ne.evaluate(CLS, scen, level)


@pytest.mark.parametrize("scen_name", ["tree50", "mc50"])
def test_classical_constraint_value_raises_as_the_random_variable_path(request, scen_name):
    # A non-finite loss value and a level of the wrong size raise what
    # building the random variable and evaluating it raise: type and message.
    scen = request.getfixturevalue(scen_name)
    i = 20
    n = sc.support_size(scen, i)
    blows_up = rf.LossFunction(fn=lambda t, x: np.where(x > 0.0, np.inf, x))
    values = np.linspace(-1.0, 1.0, n)
    for loss, vals in ((blows_up, values), (rf.LossFunction.linear(0.0), np.zeros(n + 1)),
                       (rf.LossFunction.linear(0.0), np.zeros(0))):
        t = float(scen.grid.nodes[i])
        with pytest.raises(ValueError) as old:
            ne.evaluate(CLS, scen, sc.RandomVariable(i, loss(t, sc.brownian(scen, i), vals)))
        with pytest.raises(ValueError) as new:
            rf.constraint_value(CLS, loss, scen, i, vals)
        assert (type(new.value), str(new.value)) == (type(old.value), str(old.value))


def test_loss_lattice_check(tree50):
    ok = rf.LossFunction.linear(0.0)
    rf.check_loss_lattice(ok, [0.0, 0.5, 1.0], np.linspace(-2.0, 2.0, 9))
    lying = rf.LossFunction(
        fn=lambda t, x: 3.0 * np.asarray(x), lower=0.5, upper=1.0, shape="linear"
    )
    with pytest.raises(ValueError):
        rf.check_loss_lattice(lying, [0.0], np.linspace(-2.0, 2.0, 9))
    with pytest.raises(ValueError):
        rf.check_loss_lattice(ok, [0.0], np.array([1.0]))
    # a NaN quotient is outside every slope interval
    undefined = rf.LossFunction(fn=lambda t, x: np.where(np.asarray(x) < 0.0, np.nan, x))
    with pytest.raises(ValueError):
        rf.check_loss_lattice(undefined, [0.0], np.linspace(-2.0, 2.0, 9))


def test_loss_validation():
    with pytest.raises(ValueError):
        rf.LossFunction(fn=lambda t, x: x, lower=0.0, upper=1.0)
    with pytest.raises(ValueError):
        rf.LossFunction(fn=lambda t, x: x, lower=2.0, upper=1.0)
    with pytest.raises(ValueError):
        rf.LossFunction(fn=lambda t, x: x, lower=1.0, upper=1.0, shape="wiggly")


def test_ramp_flow_closed_form():
    # Claim B_T + 0.5, floor 0, generator -1: the flow climbs at unit rate
    # and stops at t* = 0.5.
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 40), "tree")
    claim = bs.TerminalClaim.from_function(scen, lambda b: b + 0.5)
    sol = _solve_constant(scen, claim, -1.0, rf.LossFunction.linear(0.0))
    target = np.minimum(scen.grid.nodes, 0.5)
    assert np.max(np.abs(sol.K.values - target)) <= 2.0 * scen.grid.dt
    assert abs(sol.diagnostics.skorokhod_residual) <= 1e-6
    # Terminal means match the claim; constraints never dip below tolerance.
    assert abs(sc.expect(scen, sol.Y[-1]) - 0.5) <= EXACT
    assert float(np.min(sol.diagnostics.constraint_values)) >= -1e-8


def test_unreflected_process_matches_discounted_means(tree50):
    claim = bs.TerminalClaim.from_function(tree50, lambda b: b + 0.5)
    xs = bs.solve_bsde(tree50, claim, bs.Driver.constant(-1.0)).Y
    assert len(xs) == 51
    for i, x in enumerate(xs):
        expected = 0.5 - (1.0 - tree50.grid.nodes[i])
        assert abs(sc.expect(tree50, x) - expected) <= EXACT


def test_infeasible_terminal_raises(tree50):
    claim = bs.TerminalClaim.from_function(tree50, lambda b: b - 10.0)
    with pytest.raises(InfeasibleProblemError):
        _solve_constant(tree50, claim, 0.0, rf.LossFunction.linear(0.0))


def test_claim_must_be_terminal(tree50):
    claim = brownian_rv(tree50, 30)
    with pytest.raises(ValueError):
        _solve_constant(tree50, claim, 0.0, rf.LossFunction.linear(0.0))


def test_residual_audit_flags_lazy_flow():
    # Moving all flow mass to the last step pays where the constraint is
    # slack; the audit must see a materially positive residual.
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 40), "tree")
    claim = bs.TerminalClaim.from_function(scen, lambda b: b + 0.5)
    loss = rf.LossFunction.linear(0.0)
    sol = _solve_constant(scen, claim, -1.0, loss)
    lazy = np.zeros(41)
    lazy[-1] = sol.K.total
    candidate = dataclasses.replace(sol, K=rf.ReflectorFlow(lazy))
    assert abs(rf.skorokhod_residual(scen, sol, loss, CLS)) <= 1e-6
    assert rf.skorokhod_residual(scen, candidate, loss, CLS) > 0.1


def test_solution_accessors():
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 20), "tree")
    claim = bs.TerminalClaim.from_function(scen, lambda b: b + 0.5)
    sol = _solve_constant(scen, claim, -1.0, rf.LossFunction.linear(0.0))
    assert sol.value == pytest.approx(float(sol.Y[0].values[0]), abs=0)
    means = sol.mean_values(scen)
    assert means.shape == (21,)
    assert abs(means[-1] - 0.5) <= EXACT
    assert math.isfinite(sol.diagnostics.skorokhod_residual)
    assert sol.diagnostics.shift_iterations.shape == (21,)
