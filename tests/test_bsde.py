"""Backward solver: independent node-recursion oracle, closed forms, guards."""

import dataclasses
import math
from functools import lru_cache

import numpy as np
import pytest

from nebsde import bsde as bs
from nebsde import scenarios as sc
from nebsde.errors import FixedPointError, NonContractiveStepError

EXACT = 1e-12


def _node_oracle(m, xi, f):
    """Independent backward recursion on the (i, up-count) lattice.

    Same discretisation, different machinery: plain Python recursion, scalar
    arithmetic, and an undamped fixed-point loop to 1e-16 per node.
    """
    dt = 1.0 / m
    sq = math.sqrt(dt)

    @lru_cache(maxsize=None)
    def y_at(i, k):
        if i == m:
            return xi((2 * k - m) * sq)
        up, dn = y_at(i + 1, k + 1), y_at(i + 1, k)
        e, z = 0.5 * (up + dn), (up - dn) / (2.0 * sq)
        t = i * dt
        y = e
        for _ in range(300):
            yn = e + f(t, y, z) * dt
            if abs(yn - y) <= 1e-16 * (1.0 + abs(yn)):
                return yn
            y = yn
        return y

    return y_at


def _assert_matches_oracle(scen, claim_fn, driver, scalar_f):
    claim = bs.TerminalClaim.from_function(scen, claim_fn)
    pair = bs.solve_bsde(scen, claim, driver)
    oracle = _node_oracle(scen.grid.steps, lambda b: float(claim_fn(np.array(b))), scalar_f)
    worst = max(
        abs(pair.Y[i].values[k] - oracle(i, k))
        for i in range(scen.grid.steps + 1)
        for k in range(i + 1)
    )
    assert worst <= EXACT


def test_constant_driver_matches_oracle(tree8):
    _assert_matches_oracle(
        tree8, lambda b: np.maximum(b, 0.0),
        bs.Driver.constant(0.7), lambda t, y, z: 0.7,
    )


def test_y_and_z_driver_matches_oracle(tree8):
    drv = bs.Driver(
        fn=lambda t, y, z: -0.2 * np.asarray(y) + 0.1 * np.abs(z),
        lipschitz=0.3, depends_on_y=True, depends_on_z=True,
    )
    _assert_matches_oracle(
        tree8, lambda b: np.maximum(b, 0.0), drv,
        lambda t, y, z: -0.2 * y + 0.1 * abs(z),
    )


def test_z_only_driver_matches_oracle(tree8):
    drv = bs.Driver(
        fn=lambda t, y, z: 0.3 * np.asarray(z),
        lipschitz=0.3, depends_on_z=True,
    )
    _assert_matches_oracle(tree8, lambda b: b * b, drv, lambda t, y, z: 0.3 * z)


def test_time_dependent_driver_matches_oracle(tree8):
    drv = bs.Driver(
        fn=lambda t, y, z: 0.1 * t - 0.2 * np.asarray(y),
        lipschitz=0.2, depends_on_y=True,
    )
    _assert_matches_oracle(
        tree8, lambda b: np.abs(b), drv, lambda t, y, z: 0.1 * t - 0.2 * y
    )


def test_kappa_abs_driver_matches_manual_form(tree8):
    kappa = 0.5
    manual = bs.Driver(
        fn=lambda t, y, z: kappa * (np.abs(y) + np.abs(z)),
        lipschitz=kappa, depends_on_y=True, depends_on_z=True,
    )
    claim = bs.TerminalClaim.from_function(tree8, lambda b: b + 0.3)
    a = bs.solve_bsde(tree8, claim, bs.Driver.kappa_abs(kappa))
    b = bs.solve_bsde(tree8, claim, manual)
    for ya, yb in zip(a.Y, b.Y):
        assert np.max(np.abs(ya.values - yb.values)) <= EXACT


def test_constant_driver_shifts_mean_exactly(tree50):
    claim = bs.TerminalClaim.from_function(tree50, lambda b: np.abs(b))
    pair = bs.solve_bsde(tree50, claim, bs.Driver.constant(0.4))
    expected = sc.expect(tree50, claim.rv) + 0.4
    assert abs(sc.expect(tree50, pair.Y[0]) - expected) <= EXACT


def test_linear_y_driver_closed_form(tree50):
    # f = -lam*y on a constant claim: one implicit division per step.
    lam, c = 0.8, 2.0
    drv = bs.Driver(
        fn=lambda t, y, z: -lam * np.asarray(y), lipschitz=lam, depends_on_y=True
    )
    pair = bs.solve_bsde(tree50, bs.TerminalClaim.constant(tree50, c), drv)
    exact = c * (1.0 + lam * tree50.grid.dt) ** (-50)
    assert abs(pair.value - exact) <= EXACT


def test_comparison_in_terminal_value(tree8):
    rng = np.random.default_rng(31)
    drv = bs.Driver(
        fn=lambda t, y, z: 0.2 * np.abs(z), lipschitz=0.2, depends_on_z=True
    )
    for _ in range(10):
        lo = rng.normal(0.0, 1.0, 9)
        hi = lo + rng.uniform(0.0, 1.0, 9)
        pa = bs.solve_bsde(tree8, bs.TerminalClaim(sc.RandomVariable(8, lo)), drv)
        pb = bs.solve_bsde(tree8, bs.TerminalClaim(sc.RandomVariable(8, hi)), drv)
        for ya, yb in zip(pa.Y, pb.Y):
            assert np.min(yb.values - ya.values) >= -EXACT


def test_lipschitz_lattice_probe():
    ts, lattice = np.linspace(0.0, 1.0, 5), np.linspace(-10.0, 10.0, 41)
    mixed = bs.Driver(fn=lambda t, y, z: -0.2 * y + 0.1 * np.abs(z), lipschitz=0.2,
                      depends_on_y=True, depends_on_z=True)
    bs.check_lipschitz_lattice(mixed, ts, lattice)
    bs.check_lipschitz_lattice(bs.Driver.kappa_abs(-0.3), ts, lattice)
    bs.check_lipschitz_lattice(bs.Driver.constant(2.0), ts, lattice)
    understated = bs.Driver(fn=lambda t, y, z: -10.0 * y, lipschitz=0.1, depends_on_y=True)
    late = bs.Driver(fn=lambda t, y, z: np.maximum(t - 0.5, 0.0) * z, lipschitz=0.25,
                     depends_on_z=True)
    blowup = bs.Driver(fn=lambda t, y, z: 1.0 / y, lipschitz=1.0, depends_on_y=True)
    for driver in (understated, late, blowup):
        with pytest.raises(ValueError, match="Lipschitz"):
            bs.check_lipschitz_lattice(driver, ts, lattice)


def test_interior_claim(tree8):
    claim = bs.TerminalClaim(sc.brownian_rv(tree8, 5))
    pair = bs.solve_bsde(tree8, claim, bs.Driver.constant(0.0))
    assert len(pair.Y) == 6
    assert abs(pair.value) <= EXACT


def test_z_vanishes_on_deterministic_claim(tree8):
    pair = bs.solve_bsde(
        tree8, bs.TerminalClaim.constant(tree8, 1.5), bs.Driver.constant(0.2)
    )
    for zi in pair.Z:
        assert np.max(np.abs(zi.values)) <= EXACT


def test_terminal_claim_constructors(tree8):
    c = bs.TerminalClaim.constant(tree8, 2.0)
    assert c.index == 8
    assert np.array_equal(c.values, np.full(9, 2.0))
    f = bs.TerminalClaim.from_function(tree8, lambda b: 2.0)
    assert np.array_equal(f.values, c.values)


def test_driver_validation():
    with pytest.raises(ValueError):
        bs.Driver(fn=lambda t, y, z: y, depends_on_y=True)  # missing lipschitz
    with pytest.raises(ValueError):
        bs.Driver(fn=lambda t, y, z: z, lipschitz=-1.0, depends_on_z=True)
    zero = bs.Driver.kappa_abs(0.0)
    assert zero.lipschitz == 0.0
    assert zero.kappa_structure == (0.0, True)
    neg = bs.Driver.kappa_abs(-0.5, include_y=False)
    assert neg.lipschitz == 0.5
    assert neg.kappa_structure == (-0.5, False)


AFFINE = dict(fn=lambda t, y, z: -0.2 * np.asarray(y) + 0.1 * np.abs(z), lipschitz=0.3,
              depends_on_y=True, depends_on_z=True)


@pytest.mark.parametrize("bad", [
    {"y_coefficient": float("nan")},
    {"y_coefficient": float("inf")},
    {"y_coefficient": -0.31},
    {"y_coefficient": -0.2, "depends_on_y": False},
    {"y_coefficient": -0.2, "kappa_structure": (0.3, True)},
], ids=["nan", "inf", "above-lipschitz", "ignores-y", "kappa-tagged"])
def test_y_coefficient_validation(bad):
    assert bs.Driver(**AFFINE, y_coefficient=-0.3).y_coefficient == -0.3
    with pytest.raises(ValueError):
        bs.Driver(**{**AFFINE, **bad})


@pytest.mark.parametrize("shape", [(201,), (4, 51)])
def test_affine_step_matches_the_sweep(shape):
    # The declared coefficient solves the step in one driver call, exactly;
    # the same fn untagged, the oracle, sweeps to within its tolerance
    # rtol*(1 + max|y|) of that fixed point (rtol = 1e-13 at q = 0.015).
    rng = np.random.default_rng(5)
    e, z = rng.normal(size=shape), rng.normal(size=shape)
    dt = 0.05
    tagged, calls = _counted(bs.Driver(**AFFINE, y_coefficient=-0.2))
    got = bs.implicit_step(tagged, 0.3, e, z, dt)
    assert calls[0] == 1
    exact = (e + 0.1 * np.abs(z) * dt) / (1.0 + 0.2 * dt)
    assert np.max(np.abs(got - exact)) <= EXACT
    swept = bs.implicit_step(bs.Driver(**AFFINE), 0.3, e, z, dt)
    assert np.max(np.abs(got - swept)) <= bs._SWEEP_TOL * (1.0 + np.max(np.abs(got)))


def test_non_contractive_step_refused():
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 100), "tree")
    drv = bs.Driver(
        fn=lambda t, y, z: -250.0 * np.asarray(y), lipschitz=250.0, depends_on_y=True
    )
    with pytest.raises(NonContractiveStepError):
        bs.solve_bsde(scen, bs.TerminalClaim.constant(scen, 1.0), drv)


@pytest.mark.parametrize("lam", [0.6, 0.75, 0.9])
def test_implicit_step_sweep_cap_follows_the_contraction(lam):
    # one step of y = 1 + lam*|y|: the sweep contracts at lam and needs more
    # than 50 sweeps at these rates; the fixed point is 1/(1 - lam)
    scen = sc.build_scenarios(sc.TimeGrid(1.0, 1), "tree")
    drv = bs.Driver(fn=lambda t, y, z: lam * np.abs(y), lipschitz=lam, depends_on_y=True)
    pair = bs.solve_bsde(scen, bs.TerminalClaim.constant(scen, 1.0), drv)
    assert abs(pair.value - 1.0 / (1.0 - lam)) <= 1e-10


def _counted(driver):
    """``driver`` with a count of its evaluations, one per sweep."""
    calls = [0]

    def fn(t, y, z):
        calls[0] += 1
        return driver.fn(t, y, z)

    return dataclasses.replace(driver, fn=fn), calls


def _per_sweep_count(driver, t, e, z, dt):
    """Sweeps to the first move within tolerance: the per-sweep test's count."""
    y, sweeps = e, 0
    while True:
        y_next = e + driver.fn(t, y, z) * dt
        sweeps += 1
        if np.max(np.abs(y_next - y)) <= bs._SWEEP_TOL * (1.0 + np.max(np.abs(y_next))):
            return sweeps
        y = y_next


@pytest.mark.parametrize("lam", [0.3, 0.9])
def test_tight_sweep_returns_the_fixed_point(lam):
    # A declared constant equal to the slope stops once q/(1 - q) times the
    # last move is within tol, which puts y within tol of the fixed point
    # (a bare per-sweep test would leave it up to q/(1 - q) tolerances away).
    drv = bs.Driver(fn=lambda t, y, z: lam * np.abs(y), lipschitz=lam, depends_on_y=True)
    e = np.array([1.0, -0.5, 2.0, 1e-3])
    fixed = np.where(e >= 0.0, e / (1.0 - lam), e / (1.0 + lam))
    y = bs.implicit_step(drv, 0.0, e, np.zeros_like(e), 1.0)
    assert np.max(np.abs(y - fixed)) <= bs._SWEEP_TOL * (1.0 + np.max(np.abs(fixed)))
    stacked = bs.implicit_step(drv, 0.0, np.vstack([e, e[::-1]]), np.zeros((2, 4)), 1.0)
    assert np.array_equal(stacked[0], y)
    assert np.array_equal(stacked[1], bs.implicit_step(drv, 0.0, e[::-1], np.zeros(4), 1.0))


@pytest.mark.parametrize("q", [0.9, 0.95, 0.99])
def test_loose_constant_returns_the_fixed_point(q):
    # Declared above its slope 0.8 with q > 1/2, the constant's a-posteriori
    # factor q/(1 - q) still bounds the distance to the fixed point by the
    # last move; a per-sweep test alone stopped up to 3.8 tolerances away.
    drv = bs.Driver(fn=lambda t, y, z: 0.8 * np.abs(y), lipschitz=q, depends_on_y=True)
    e = np.array([1.0, -0.5, 2.0, 1e-3])
    fixed = np.where(e >= 0.0, e / 0.2, e / 1.8)
    y = bs.implicit_step(drv, 0.0, e, np.zeros_like(e), 1.0)
    assert np.max(np.abs(y - fixed)) <= bs._SWEEP_TOL * (1.0 + np.max(np.abs(fixed)))


def test_tight_sweep_near_one_converges_through_rounding():
    # At q = 0.99 an oscillating sweep's rounding noise keeps its move above
    # tol/(q/(1 - q)); at the a-priori count the a-priori bound already puts
    # y within tol, and the move only has to confirm the declared constant.
    drv = bs.Driver(fn=lambda t, y, z: -0.99 * np.asarray(y), lipschitz=0.99, depends_on_y=True)
    e = np.linspace(-3.0, 2.0, 51)
    fixed = e / 1.99
    y = bs.implicit_step(drv, 0.0, e, np.zeros_like(e), 1.0)
    assert np.max(np.abs(y - fixed)) <= bs._SWEEP_TOL * (1.0 + np.max(np.abs(fixed)))


def test_sweep_near_one_returns_at_the_rounding_floor():
    # At q = 0.9995 the sweep's rounding noise, about eps/(1 - q) relative,
    # stalls its move at 4.3e-13 against 1e-13*(1 + max|y|) = 2.5e-13; the
    # tolerance floored at eps/(1 - q) returns y within it of the fixed point.
    q = 0.9995
    drv = bs.Driver(fn=lambda t, y, z: -q * np.asarray(y), lipschitz=q, depends_on_y=True)
    e = np.linspace(-3.0, 2.0, 51)
    fixed = e / (1.0 + q)
    y = bs.implicit_step(drv, 0.0, e, np.zeros_like(e), 1.0)
    floor = np.finfo(float).eps / (1.0 - q)
    assert floor > bs._SWEEP_TOL
    assert np.max(np.abs(y - fixed)) <= floor * (1.0 + np.max(np.abs(fixed)))


def test_superhedge_step_is_measured_at_its_observed_count():
    # The market driver -(r*y + theta*z) at r = 0.05, theta = 1, declared
    # 1.05 on 400 steps: y contracts at r*dt, far below the declared q, and
    # the count that ratio predicts (4) is one below the a-priori count.
    drv, calls = _counted(bs.Driver(fn=lambda t, y, z: -(0.05 * np.asarray(y) + z),
                                    lipschitz=1.05, depends_on_y=True, depends_on_z=True))
    e = np.linspace(-1.5, 2.5, 201)
    z = np.linspace(-0.8, 0.8, 201)
    dt = 1.0 / 400.0
    y = bs.implicit_step(drv, 0.0, e, z, dt)
    assert calls[0] == 4
    fixed = (e - z * dt) / (1.0 + 0.05 * dt)
    assert np.max(np.abs(y - fixed)) <= bs._SWEEP_TOL * (1.0 + np.max(np.abs(fixed)))


def test_loose_sweep_takes_no_more_sweeps_than_the_per_sweep_test():
    # Declared at 100x its slope, the constant's a-priori count is far above
    # what the sweep needs; the per-sweep test still stops it.
    slope = 0.5
    drv, calls = _counted(bs.Driver(fn=lambda t, y, z: -slope * np.asarray(y),
                                    lipschitz=100.0 * slope, depends_on_y=True))
    dt = 0.01
    for e in (np.linspace(-2.0, 3.0, 7), np.array([1e6, -1e-6])):
        z = np.zeros_like(e)
        calls[0] = 0
        y = bs.implicit_step(drv, 0.0, e, z, dt)
        assert calls[0] <= _per_sweep_count(drv, 0.0, e, z, dt)
        assert np.max(np.abs(y - e / (1.0 + slope * dt))) <= 1e-12 * np.max(np.abs(e))


def test_stacked_rows_share_one_schedule():
    # z holds each node's slope: at 50 the declared constant is tight and a
    # row alone sweeps to its a-priori count, at 0.5 it is loose and a row
    # alone is measured at the count its observed ratio predicts.  The stack
    # sweeps as one array: every node ends within tol of its exact fixed
    # point, and each row within 1e-12 relative of its 1-d step.
    drv, calls = _counted(bs.Driver(fn=lambda t, y, z: -z * np.asarray(y), lipschitz=50.0,
                                    depends_on_y=True))
    e = np.array([[1.0, -2.0, 0.5], [3.0, 1e-3, -1.0], [2.0, 2.0, 2.0], [0.0, 0.0, 0.0]])
    z = np.array([[50.0] * 3, [0.5] * 3, [50.0, 0.5, 50.0], [0.5] * 3])
    dt = 0.01
    got = bs.implicit_step(drv, 0.0, e, z, dt)
    fixed = e / (1.0 + z * dt)
    assert np.max(np.abs(got - fixed)) <= bs._SWEEP_TOL * (1.0 + np.max(np.abs(fixed)))
    alone = []
    for row in range(len(e)):
        calls[0] = 0
        one = bs.implicit_step(drv, 0.0, e[row], z[row], dt)
        assert np.all(np.abs(got[row] - one) <= 1e-12 * np.maximum(1.0, np.abs(one)))
        alone.append(calls[0])
    assert alone[1] < alone[0]


def test_constant_below_the_slope_raises():
    # Declared at a tenth of its slope, the sweep's a-priori count ends long
    # before it converges; it raises rather than return that level.
    drv = bs.Driver(fn=lambda t, y, z: -5.0 * np.asarray(y), lipschitz=0.5, depends_on_y=True)
    for e in (np.array([1.0, 2.0, -0.3]), np.array([[1.0, 2.0, -0.3], [0.0, 0.0, 0.0]])):
        with pytest.raises(FixedPointError):
            bs.implicit_step(drv, 0.0, e, np.zeros_like(e), 0.1)


def test_non_finite_driver_output_raises(tree8):
    drv = bs.Driver(
        fn=lambda t, y, z: np.sqrt(np.asarray(y) - 1e6),
        lipschitz=0.5, depends_on_y=True,
    )
    with np.errstate(invalid="ignore"):
        with pytest.raises(FixedPointError):
            bs.solve_bsde(tree8, bs.TerminalClaim.constant(tree8, 1.0), drv)


LIFT_DRIVERS = {
    "constant": bs.Driver.constant(-1.0),
    "abs-z": bs.Driver(fn=lambda t, y, z: 0.3 * np.abs(z), lipschitz=0.3, depends_on_z=True),
    "mixed": bs.Driver(fn=lambda t, y, z: -0.2 * np.asarray(y) + 0.1 * np.abs(z),
                       lipschitz=0.3, depends_on_y=True, depends_on_z=True),
    "linear-y": bs.Driver(fn=lambda t, y, z: -20.0 * np.asarray(y), lipschitz=20.0,
                          depends_on_y=True),
}


@pytest.mark.parametrize("mode", ["tree", "montecarlo"])
@pytest.mark.parametrize("name", list(LIFT_DRIVERS))
def test_prescribed_lift_matches_flow(mode, name):
    # A lift that returns prescribed increments (0 on the claim's level) is
    # the flow added after the step instead of before it.  A driver that
    # ignores y gives the same levels up to rounding.  One that reads y
    # re-rolls each step until two passes agree to PICARD_TOL, which leaves
    # that step within delta = PICARD_TOL*q/(1 - q) of its fixed point,
    # q = lipschitz*dt; on the tree the step is nonexpansive in the sup
    # norm, so over m steps the levels differ by at most m*delta.
    m = 50
    kwargs = {"n_paths": 2000, "seed": 3, "basis_degree": 3} if mode == "montecarlo" else {}
    scen = sc.build_scenarios(sc.TimeGrid(1.0, m), mode, **kwargs)
    claim = bs.TerminalClaim.from_function(scen, lambda b: np.maximum(b, 0.0) + 0.5)
    driver = LIFT_DRIVERS[name]
    flow = 0.02 + 0.01 * np.sin(np.arange(m))
    added = bs.solve_bsde(scen, claim, driver, flow=flow)
    lifted = bs.solve_bsde(scen, claim, driver, lift=lambda i, x: 0.0 if i == m else flow[i])
    gap = max(float(np.max(np.abs(a.values - b.values))) for a, b in zip(added.Y, lifted.Y))
    q = driver.lipschitz * scen.grid.dt
    bound = m * bs.PICARD_TOL * q / (1.0 - q) + 1e-12 if driver.depends_on_y else 1e-12
    assert gap <= bound
    assert np.array_equal(lifted.shifts, np.append(flow, 0.0))
    assert not any(added.diff_norms) and np.array_equal(added.shifts, np.zeros(m + 1))
    assert all(0 < len(norms) for norms in lifted.diff_norms)
