"""Reflection machinery: minimal shifts, flow algebra, exact constant-driver solves."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from nebsde import bsde as bs
from nebsde import expectations as ne
from nebsde import picard as pc
from nebsde import reflection as rf
from nebsde import scenarios as sc
from nebsde.errors import InfeasibleProblemError

EXACT = 1e-12
SHIFT_TOL = 2e-8
CLS = ne.NonlinearExpectation.classical()


def _solve_constant(scen, claim, c, loss):
    return pc.solve_reflected(scen, claim, bs.Driver.constant(c), loss, CLS)


def test_build_flow_hand_cases():
    flow = rf.build_flow(rf.ConstraintProfile(np.array([0.3, 0.1, 0.4, 0.0])))
    assert np.allclose(flow.values, [0.0, 0.0, 0.0, 0.4], atol=EXACT)
    flow = rf.build_flow(rf.ConstraintProfile(np.array([0.5, 0.2, 0.1, 0.05])))
    assert np.allclose(flow.values, [0.0, 0.3, 0.4, 0.45], atol=EXACT)
    assert flow.total == pytest.approx(0.45, abs=EXACT)
    assert np.allclose(flow.increments, [0.3, 0.1, 0.05], atol=EXACT)


def test_flow_and_profile_validation():
    with pytest.raises(ValueError):
        rf.ReflectorFlow(np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        rf.ReflectorFlow(np.array([0.0, 0.5, 0.4]))
    with pytest.raises(ValueError):
        rf.ConstraintProfile(np.array([0.1, -0.2]))
    with pytest.raises(ValueError):
        rf.ConstraintProfile(np.array([np.inf]))
    # Sub-tolerance negatives are rounding debris and get clipped.
    prof = rf.ConstraintProfile(np.array([0.1, -1e-14]))
    assert prof.values[1] == 0.0


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
    got = rf.minimal_shift(CLS, loss, tree50, 25, rv)
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
def test_minimal_shift_feasible_and_near_root(tree50, index, level, floor, slopes):
    # Kinked linear loss a*min(u, 0) + c*max(u, 0) with u = x - floor: the
    # returned shift satisfies the constraint exactly and sits within tol of
    # an independent root.
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

    got = rf.minimal_shift(CLS, loss, tree50, index, rv)
    assert got >= 0.0
    assert rf.constraint_value(CLS, loss, tree50, index, rv.values + got) >= 0.0
    root = 0.0 if mean_loss(0.0) >= 0.0 else brentq(mean_loss, 0.0, 50.0, xtol=1e-13)
    assert abs(got - root) <= rf.OPERATOR_TOL


def test_minimal_shift_zero_when_feasible(tree50):
    rv = sc.RandomVariable(10, tree50.tree_values[10] + 5.0)
    assert rf.minimal_shift(CLS, rf.LossFunction.linear(0.0), tree50, 10, rv) == 0.0


def test_minimal_shift_under_lower_envelope(tree50):
    # Nonlinear expectation of a deterministic level: root sits exactly at
    # the floor, whatever the kappa continuation does around it.
    gneg = ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(-0.5))
    rv = sc.RandomVariable(40, np.zeros(41))
    got = rf.minimal_shift(gneg, rf.LossFunction.linear(1.0), tree50, 40, rv)
    assert abs(got - 1.0) <= SHIFT_TOL


def test_minimal_shift_plateau_guard(tree50):
    rv = sc.RandomVariable(20, np.full(21, 1.0 - 1e-9))
    got = rf.minimal_shift(CLS, rf.LossFunction.linear(1.0), tree50, 20, rv)
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
    xs = rf._backward_levels(tree50, claim.rv, [-1.0] * 50)
    assert len(xs) == 51
    for i, x in enumerate(xs):
        expected = 0.5 - (1.0 - tree50.grid.nodes[i])
        assert abs(sc.expect(tree50, x) - expected) <= EXACT


def test_infeasible_terminal_raises(tree50):
    claim = bs.TerminalClaim.from_function(tree50, lambda b: b - 10.0)
    with pytest.raises(InfeasibleProblemError):
        _solve_constant(tree50, claim, 0.0, rf.LossFunction.linear(0.0))


def test_claim_must_be_terminal(tree50):
    claim = bs.TerminalClaim(sc.brownian_rv(tree50, 30))
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
