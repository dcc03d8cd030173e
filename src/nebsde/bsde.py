"""Backward SDE solver on a scenario set.

One backward sweep per grid step: the conditional mean and the martingale
integrand are read off the next level together (:func:`scenarios.step_fit`),
then the value is rolled back with an implicit-in-y Euler step,
:func:`implicit_step`.  Tree mode uses exact pairwise averages and one-step
difference quotients; Monte Carlo mode uses one regression fit for both.
:func:`solve_bsde` is the one backward loop: a reflected solve passes it a
lift, which moves each rolled-back level once: by a translation, or, when
the driver reads y and is not affine in it, through the step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import scenarios as sc
from .errors import FixedPointError, NonContractiveStepError

_SWEEP_TOL = 1e-13
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Driver:
    """Generator ``f(t, y, z)`` with its declared Lipschitz data.

    ``fn`` must accept scalar ``t`` and equal-shaped arrays ``y, z`` and
    broadcast.  ``lipschitz`` bounds the (y, z) slope and gates the implicit
    step; drivers that depend on neither y nor z may declare 0.
    ``kappa_structure = kappa`` tags the scaled-absolute-value family,
    ``kappa*(|y| + |z|)`` with ``depends_on_y`` and ``kappa*|z|`` without,
    whose implicit step and zero-noise continuation have closed forms and
    whose tree value may be the comonotone dot product in ``_kernels``; the
    tag needs ``lipschitz == |kappa|`` and ``depends_on_z == (kappa != 0)``.
    ``y_coefficient = a``
    declares a driver affine in y, ``f(t, y, z) = a*y + f(t, 0, z)`` with a
    constant ``a``, ``|a| <= lipschitz``: its implicit step is exact in one
    driver call, and a lifted solve lifts each level once
    (:func:`solve_bsde`).  It needs ``depends_on_y`` and no
    ``kappa_structure``.
    """

    fn: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    lipschitz: float = 0.0
    depends_on_y: bool = False
    depends_on_z: bool = False
    kappa_structure: float | None = None
    y_coefficient: float | None = None

    def __post_init__(self):
        if (self.depends_on_y or self.depends_on_z) and self.lipschitz <= 0.0:
            raise ValueError("a y- or z-dependent driver needs lipschitz > 0")
        if self.lipschitz < 0.0 or not np.isfinite(self.lipschitz):
            raise ValueError("lipschitz must be finite and >= 0")
        kappa = self.kappa_structure
        if kappa is not None:
            if self.lipschitz != abs(kappa):
                raise ValueError("a kappa-tagged driver needs lipschitz == |kappa|")
            if self.depends_on_z != (kappa != 0.0):
                raise ValueError("a kappa-tagged driver depends on z exactly when kappa != 0")
        a = self.y_coefficient
        if a is not None:
            if not (np.isfinite(a) and abs(a) <= self.lipschitz):
                raise ValueError("y_coefficient must be finite with |y_coefficient| <= lipschitz")
            if not self.depends_on_y:
                raise ValueError("a driver with a y_coefficient must declare depends_on_y")
            if self.kappa_structure is not None:
                raise ValueError("a driver declares kappa_structure or y_coefficient, not both")

    @staticmethod
    def constant(value: float) -> "Driver":
        c = float(value)
        return Driver(fn=lambda t, y, z: np.full_like(np.asarray(y, dtype=float), c))

    @staticmethod
    def kappa_abs(kappa: float, include_y: bool = True) -> "Driver":
        """The driver ``kappa*(|y| + |z|)``, or ``kappa*|z|`` without y.

        ``kappa`` may be negative; the Lipschitz constant is ``|kappa|``.
        """
        k = float(kappa)
        if k == 0.0:
            return Driver(fn=lambda t, y, z: np.zeros_like(np.asarray(y, dtype=float)),
                          kappa_structure=0.0)
        if include_y:
            fn = lambda t, y, z: k * (np.abs(y) + np.abs(z))
        else:
            fn = lambda t, y, z: k * np.abs(z)
        return Driver(fn=fn, lipschitz=abs(k), depends_on_y=include_y, depends_on_z=True,
                      kappa_structure=k)


def check_lipschitz_lattice(driver: Driver, t_values, values) -> None:
    """Sample ``driver`` on the ``(y, z)`` lattice ``values x values`` and verify its constant.

    Raises ``ValueError`` if any sampled difference quotient in ``y`` or in
    ``z`` exceeds ``driver.lipschitz`` (up to 1e-9 slack) or is not finite.
    """
    y, z = np.meshgrid(np.asarray(values, dtype=float), np.asarray(values, dtype=float),
                       indexing="ij")
    for t in t_values:
        with np.errstate(all="ignore"):
            f = np.broadcast_to(np.asarray(driver.fn(float(t), y, z), dtype=float), y.shape)
            quot = np.concatenate([(np.diff(f, axis=0) / np.diff(y, axis=0)).ravel(),
                                   (np.diff(f, axis=1) / np.diff(z, axis=1)).ravel()])
        if not np.all(np.abs(quot) <= driver.lipschitz + 1e-9):
            raise ValueError(
                f"driver slope above its Lipschitz constant {driver.lipschitz:g}, "
                f"or not finite, near t={t:g}"
            )


class TerminalClaim(sc.RandomVariable):
    """A square-integrable payoff: a random variable on the terminal level.

    Any terminal random variable serves as a claim; this adds two constructors."""

    @classmethod
    def from_function(cls, scen: sc.ScenarioSet, fn) -> "TerminalClaim":
        """``fn(B_T)`` on the terminal support; a scalar result is broadcast over it."""
        m = scen.grid.steps
        b = sc.brownian(scen, m)
        vals = np.asarray(fn(b), dtype=float)
        if vals.ndim == 0:
            vals = np.full(b.shape, float(vals))
        return cls(m, vals)

    @classmethod
    def constant(cls, scen: sc.ScenarioSet, value: float) -> "TerminalClaim":
        return cls.from_function(scen, lambda b: float(value))


@dataclass(frozen=True)
class BsdePair:
    """``Y`` on indices ``0..stop`` and ``Z`` on steps, with the flow increment
    ``shifts[i]`` of each level's lift (zeros without a lift)."""

    Y: tuple
    Z: tuple
    shifts: np.ndarray

    @property
    def value(self) -> float:
        """Root value ``Y_0`` (the mean over its nodes on Monte Carlo paths)."""
        v = self.Y[0].values
        return float(v[0]) if v.size == 1 else float(v.mean())


def _check_contractive(driver: Driver, dt: float) -> None:
    if driver.depends_on_y and driver.lipschitz * dt >= 1.0:
        raise NonContractiveStepError(
            f"lipschitz * dt = {driver.lipschitz * dt:.3g} >= 1; refine the grid"
        )


def _sweep_count(gap: float, tol: float, ratio: float) -> int:
    """Sweeps after which a first sweep's move ``gap``, contracting at ``ratio``, is within ``tol``.

    One more than the least ``n`` with ``ratio**n * gap/(1 - ratio) <= tol``.
    """
    return 1 + math.ceil(math.log(tol * (1.0 - ratio) / gap) / math.log(ratio))


def implicit_step(
    driver: Driver, t: float, e: np.ndarray, z: np.ndarray, dt: float
) -> np.ndarray:
    """Solve ``y = e + f(t, y, z) * dt`` for y, node by node, for ``e`` and ``z`` of one shape.

    Explicit when the driver ignores y.  The ``kappa*(|y| + |z|)`` family is
    solved exactly: ``a = e + |z|*kappa*dt``, then ``a / (1 - kappa*sign(a)*dt)``
    with a y-part (``y`` keeps the sign of ``a``).  So is a driver declaring
    ``y_coefficient = a``: ``y = (e + f(t, 0, z)*dt) / (1 - a*dt)``, one
    driver call, with ``1 - a*dt > 0`` since ``|a|*dt <= lipschitz*dt < 1``.
    Any other y-dependent driver takes a fixed-point sweep of the whole
    array from ``e``, contractive because ``q = lipschitz * dt < 1`` is enforced.  ``move`` is
    a sweep's largest change over the array and ``tol = rtol*(1 + max|y|)``,
    with ``rtol`` 1e-13, or the float64 rounding floor ``eps/(1 - q)`` where
    that is larger (``q`` above about 0.9978), since the sweep's rounding
    noise keeps its move near that floor.  The sweep has converged once
    ``max(1, q/(1 - q)) * move <= tol``: the contraction's a-posteriori
    bound ``|y - y*| <= q/(1 - q) * move`` then puts every node within
    ``tol`` of its fixed point.  The first move ``gap`` fixes the a-priori
    count, one more than the ``n`` of the bound ``q**n * gap/(1 - q) <=
    tol``, which puts every node within ``tol`` by then; at that count
    ``move <= tol`` suffices, as it only confirms the declared constant.
    Schedule: the move is measured after sweeps 1 and 2; the second move
    gives the observed ratio ``r``, and the first bound with ``r`` for ``q``
    (and ``tol`` divided by the factor above) the count at which it is
    measured next, capped at the a-priori count.  From there it is measured
    after every sweep.  ``FixedPointError`` when the sweep has not converged
    by its a-priori count or a move is not finite.

    A stack of levels is one array with one schedule: a level in it comes
    out as its one-level call bit for bit under a closed-form or explicit
    step, and within the sweep tolerance of it under a sweep.
    """
    return _implicit_step(driver, t, e, z, dt, e)


def _implicit_step(driver: Driver, t: float, e: np.ndarray, z: np.ndarray, dt: float,
                   start: np.ndarray) -> np.ndarray:
    """:func:`implicit_step` with its fixed-point sweep, if any, started from ``start``."""
    _check_contractive(driver, dt)
    if driver.kappa_structure is not None:
        kdt = driver.kappa_structure * dt
        a = e + np.abs(z) * kdt
        return a / np.where(a >= 0.0, 1.0 - kdt, 1.0 + kdt) if driver.depends_on_y else a
    if not driver.depends_on_y:
        return e + np.asarray(driver.fn(t, e, z), dtype=float) * dt
    if driver.y_coefficient is not None:
        h = np.asarray(driver.fn(t, np.zeros_like(e), z), dtype=float)
        return (e + h * dt) / (1.0 - driver.y_coefficient * dt)
    q = driver.lipschitz * dt
    fac = max(1.0, q / (1.0 - q))
    rtol = max(_SWEEP_TOL, _EPS / (1.0 - q))
    y = start
    sweeps, due_at = 0, 1
    while True:
        y_next = e + np.asarray(driver.fn(t, y, z), dtype=float) * dt
        sweeps += 1
        if sweeps < due_at:
            y = y_next
            continue
        move = float(np.abs(y_next - y).max())
        y = y_next
        tol = rtol * (1.0 + float(np.abs(y).max()))
        if not math.isfinite(move):
            raise FixedPointError(f"non-finite values in the implicit step after {sweeps} sweeps")
        if sweeps == 1:
            gap1, tol1 = move, tol
            cap = 1 if fac * move <= tol else _sweep_count(move, tol, q)
        # at the a-priori count y is within tol by the a-priori bound, and the
        # move, whose rounding noise may exceed tol/fac, confirms q
        if move * (1.0 if sweeps == cap else fac) <= tol:
            return y
        if sweeps >= cap:
            break
        due_at = sweeps + 1
        if sweeps == 2:
            due_at = (max(3, min(cap, _sweep_count(gap1, tol1 / fac, move / gap1)))
                      if 0.0 < move < gap1 else cap)
    raise FixedPointError(f"implicit step did not converge in {sweeps} sweeps")


def zero_noise_continuation(driver: Driver, levels, grid: sc.TimeGrid) -> list:
    """Each level rolled back from the horizon to its own date, z frozen at 0.

    ``levels`` are random variables on any indices of ``grid``, on tree
    levels or Monte Carlo paths; their values come out in their order.  A
    level on index ``i`` takes one implicit step per date ``t_{m-1}, ...,
    t_i``, each node following ``y' = -f(t, y, 0)`` on its own.  A driver
    that ignores y leaves every level as it is, since ``f(t, y, 0) =
    f(t, 0, 0)`` vanishes for a g-expectation's generator.  A step of the
    ``kappa`` family keeps each value's sign, so its steps collapse to
    ``(1 - kappa*dt)**(i - m)`` on values >= 0 and ``(1 + kappa*dt)**(i - m)``
    below.  Any other driver steps the levels, ordered by index and joined
    into one array, from date ``m - 1`` down: the levels still stepping at
    a date are a prefix of that array, and each date is one
    :func:`implicit_step` on that prefix, with nothing padded; for a
    driver declared affine in y that step is exact.  Each level equals its
    one-level call bit for bit under the ``kappa`` family, a driver that
    ignores y or one declared affine in y, and within the sweep tolerance
    under any other driver.
    """
    vals = [rv.values for rv in levels]
    if not driver.depends_on_y or not vals:
        return vals
    dt, m = grid.dt, grid.steps
    _check_contractive(driver, dt)
    if driver.kappa_structure is not None:
        kdt = driver.kappa_structure * dt
        return [np.where(v >= 0.0, v * (1.0 - kdt) ** (rv.index - m),
                         v * (1.0 + kdt) ** (rv.index - m)) for v, rv in zip(vals, levels)]
    order = sorted(range(len(vals)), key=lambda r: levels[r].index)
    ends = np.cumsum([vals[r].size for r in order]).tolist()
    flat = np.concatenate([vals[r] for r in order])
    zeros = np.zeros_like(flat)
    active = len(order)
    for date in range(m - 1, -1, -1):
        while active and levels[order[active - 1]].index > date:
            active -= 1
        if not active:
            break
        n = ends[active - 1]
        flat[:n] = implicit_step(driver, float(grid.nodes[date]), flat[:n], zeros[:n], dt)
    out = [None] * len(vals)
    for r, piece in zip(order, np.split(flat, ends[:-1])):
        out[r] = piece
    return out


def _lift_through_step(lift, i: int, driver: Driver, t: float, e: np.ndarray, z: np.ndarray,
                       dt: float, u: np.ndarray, slope: float) -> tuple:
    """``(k, level(k), slope)``, ``k = lift(i, u, level)``, ``level(d)`` solving ``y = e + d +
    f(t, y, z)*dt`` from the last solution moved by ``d - d'`` times each node's slope over the
    last two calls (``u`` at 0; the first call takes ``slope``), which returns as its mean."""
    probed = {0.0: u}
    last = [0.0, u, slope]

    def level(d: float) -> np.ndarray:
        d1, y1, s = last
        probed[d] = y = _implicit_step(driver, t, e + d, z, dt, y1 + (d - d1) * s)
        last[:] = d, y, (y - y1) / (d - d1) if d != d1 else s
        return y

    k = lift(i, u, level)
    # a copy: the sweep's own output amid its freed temporaries fragments the heap
    return k, (probed[k] if k in probed else level(k)).copy(), np.mean(last[2])


def solve_bsde(
    scen: sc.ScenarioSet,
    claim: sc.RandomVariable,
    driver: Driver,
    flow=None,
    lift=None,
) -> BsdePair:
    """Backward solve from the claim's level down to 0.

    ``claim`` is any random variable; returns Y on indices ``0..claim.index``
    and Z on ``0..claim.index - 1``.
    ``flow``, when given, holds one deterministic increment per step, added
    to the conditional mean before the implicit step, which makes it exact.
    ``lift(i, u, level) -> k``, when given, lifts each rolled-back level
    ``u`` once (the claim's level stays the claim).  If the driver ignores
    y or declares ``y_coefficient = a``, ``level`` is None, ``Y_i = u + k``
    and ``shifts[i] = k*(1 - a*dt)`` (``k`` without ``a``): the least
    feasible solution of ``Y = e + (a*Y + h)*dt + dK``.  Otherwise
    ``level(d)`` is the step with the flow increment ``d``, whose nodes
    rise in ``d`` at slopes within ``[1/(1 + q), 1/(1 - q)]``, ``q =
    lipschitz*dt``, and ``shifts[i] = k``, ``Y_i = level(k)``.
    A level of ``Z`` that is not finite raises ``FixedPointError`` before
    its implicit step, so no driver sees it, and so does a level of ``Y``.
    The whole level loop, lifts included, runs in one ``np.errstate``
    without numpy's overflow and invalid-value warnings: what those would
    flag fails these checks, or the lift's own.
    """
    sc.check_rv(scen, claim)
    stop = claim.index
    if flow is not None and len(flow) != stop:
        raise ValueError(f"flow needs {stop} increments, got {len(flow)}")
    nodes = scen.grid.nodes
    dt = scen.grid.dt
    a = driver.y_coefficient
    shifts = np.zeros(stop + 1)
    slope = 1.0
    vals = claim.values
    ys = [claim]
    zs = []
    # an overflow here ends in the finiteness checks below, not in a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(stop - 1, -1, -1):
            t = float(nodes[i])
            e, z = sc.step_fit(scen, vals, i)
            if flow is not None:
                e = e + flow[i]
            try:
                z_rv = sc.RandomVariable(i, z)
            except ValueError as exc:  # z is a non-empty 1-d level: only finiteness fails
                raise FixedPointError(f"non-finite integrand produced at index {i}") from exc
            vals = implicit_step(driver, t, e, z, dt)
            if not np.isfinite(vals).all():
                raise FixedPointError(f"non-finite values produced at index {i}")
            if lift is not None and (a is not None or not driver.depends_on_y):
                k = lift(i, vals, None)
                vals = vals + k
                shifts[i] = k if a is None else k * (1.0 - a * dt)
            elif lift is not None:
                shifts[i], vals, slope = _lift_through_step(lift, i, driver, t, e, z, dt, vals,
                                                            slope)
            ys.append(sc.RandomVariable(i, vals))
            zs.append(z_rv)
    return BsdePair(Y=tuple(ys[::-1]), Z=tuple(zs[::-1]), shifts=shifts)
