"""Backward SDE solver on a scenario set.

One backward sweep per grid step: the conditional mean and the martingale
integrand are read off the next level together (:func:`scenarios.step_fit`),
then the value is rolled back with an implicit-in-y Euler step,
:func:`implicit_step`.  Tree mode uses exact pairwise averages and one-step
difference quotients; Monte Carlo mode uses one regression fit for both.
:func:`solve_bsde` is the one backward loop: a reflected solve passes it a
lift, which it applies after each step until the lifted level settles, or
once per level for a driver declared affine in y.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import scenarios as sc
from .errors import FixedPointError, NonContractiveStepError, PicardDivergenceError

_SWEEP_TOL = 1e-13
_EPS = float(np.finfo(float).eps)
# per-step agreement of successive lifted levels, and the passes allowed
PICARD_TOL = 1e-8
_MAX_PASSES = 100


@dataclass(frozen=True)
class Driver:
    """Generator ``f(t, y, z)`` with its declared Lipschitz data.

    ``fn`` must accept scalar ``t`` and equal-shaped arrays ``y, z`` and
    broadcast.  ``lipschitz`` bounds the (y, z) slope and gates the implicit
    step; drivers that depend on neither y nor z may declare 0.
    ``kappa_structure = (kappa, include_y)`` tags the scaled-absolute-value
    family ``kappa*(|y| + |z|)`` / ``kappa*|z|``, whose implicit step and
    zero-noise continuation have closed forms and whose tree value may be
    the comonotone dot product in ``_kernels``.  ``y_coefficient = a``
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
    kappa_structure: tuple | None = None
    y_coefficient: float | None = None

    def __post_init__(self):
        if (self.depends_on_y or self.depends_on_z) and self.lipschitz <= 0.0:
            raise ValueError("a y- or z-dependent driver needs lipschitz > 0")
        if self.lipschitz < 0.0 or not np.isfinite(self.lipschitz):
            raise ValueError("lipschitz must be finite and >= 0")
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
    def time_dependent(fn: Callable[[float], float]) -> "Driver":
        return Driver(fn=lambda t, y, z: np.full_like(np.asarray(y, dtype=float), float(fn(t))))

    @staticmethod
    def kappa_abs(kappa: float, include_y: bool = True) -> "Driver":
        """The driver ``kappa*(|y| + |z|)``, or ``kappa*|z|`` without y.

        ``kappa`` may be negative; the Lipschitz constant is ``|kappa|``.
        """
        k = float(kappa)
        if k == 0.0:
            return Driver(fn=lambda t, y, z: np.zeros_like(np.asarray(y, dtype=float)),
                          kappa_structure=(0.0, include_y))
        if include_y:
            fn = lambda t, y, z: k * (np.abs(y) + np.abs(z))
        else:
            fn = lambda t, y, z: k * np.abs(z)
        return Driver(
            fn=fn,
            lipschitz=abs(k),
            depends_on_y=include_y,
            depends_on_z=True,
            kappa_structure=(k, include_y),
        )


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


@dataclass(frozen=True)
class TerminalClaim:
    """A square-integrable payoff on the terminal (or an interior) level."""

    rv: sc.RandomVariable

    @property
    def index(self) -> int:
        return self.rv.index

    @property
    def values(self) -> np.ndarray:
        return self.rv.values

    @staticmethod
    def from_function(scen: sc.ScenarioSet, fn) -> "TerminalClaim":
        return TerminalClaim(sc.from_terminal_function(scen, fn))

    @staticmethod
    def constant(scen: sc.ScenarioSet, value: float) -> "TerminalClaim":
        m = scen.grid.steps
        return TerminalClaim(
            sc.RandomVariable(m, np.full(sc.support_size(scen, m), float(value)))
        )


@dataclass(frozen=True)
class BsdePair:
    """``Y`` on indices ``0..stop`` and ``Z`` on steps, with the lift ``shifts[i]``
    of each level (zeros without a lift) and, per step, ``diff_norms[i]``:
    ``max|y - u|`` after each lifted pass (empty without a lift)."""

    Y: tuple
    Z: tuple
    shifts: np.ndarray
    diff_norms: tuple

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
    _check_contractive(driver, dt)
    if driver.kappa_structure is not None:
        kappa, include_y = driver.kappa_structure
        kdt = kappa * dt
        a = e + np.abs(z) * kdt
        return a / np.where(a >= 0.0, 1.0 - kdt, 1.0 + kdt) if include_y else a
    if not driver.depends_on_y:
        return e + np.asarray(driver.fn(t, e, z), dtype=float) * dt
    if driver.y_coefficient is not None:
        h = np.asarray(driver.fn(t, np.zeros_like(e), z), dtype=float)
        return (e + h * dt) / (1.0 - driver.y_coefficient * dt)
    q = driver.lipschitz * dt
    fac = max(1.0, q / (1.0 - q))
    rtol = max(_SWEEP_TOL, _EPS / (1.0 - q))
    y = e
    sweeps, due_at = 0, 1
    while True:
        y_next = e + np.asarray(driver.fn(t, y, z), dtype=float) * dt
        sweeps += 1
        if sweeps < due_at:
            y = y_next
            continue
        move = float(np.max(np.abs(y_next - y)))
        y = y_next
        tol = rtol * (1.0 + float(np.max(np.abs(y))))
        if not math.isfinite(move):
            break
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
        kdt = driver.kappa_structure[0] * dt
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


def solve_bsde(
    scen: sc.ScenarioSet,
    claim: TerminalClaim,
    driver: Driver,
    flow=None,
    lift=None,
) -> BsdePair:
    """Backward solve from the claim's level down to 0.

    Returns Y on indices ``0..claim.index`` and Z on ``0..claim.index - 1``.
    ``flow``, when given, holds one deterministic increment per step, added
    to the conditional mean before the implicit step, which makes it exact.
    ``lift(i, x) -> k``, when given, is found only after the step: it lifts
    each rolled-back level ``x`` to ``x + k`` (the claim's level stays the
    claim); for a driver that reads y, the step is rolled again from the
    lifted level until two passes agree to ``PICARD_TOL``
    (``PicardDivergenceError`` after ``_MAX_PASSES``).  A driver declaring
    ``y_coefficient = a`` is lifted once per level instead: with ``u`` the
    exact step, ``c = lift(i, u)`` gives ``Y_i = u + c`` and
    ``shifts[i] = c*(1 - a*dt)``.  That is the fixed point the re-roll
    approaches, the least feasible solution of ``Y = e + (a*Y + h)*dt + dK``,
    ``Y = u + dK/(1 - a*dt)``, and ``diff_norms[i]`` holds its one pass.
    """
    sc.check_rv(scen, claim.rv)
    stop = claim.index
    if flow is not None and len(flow) != stop:
        raise ValueError(f"flow needs {stop} increments, got {len(flow)}")
    nodes = scen.grid.nodes
    dt = scen.grid.dt
    a = driver.y_coefficient
    shifts = np.zeros(stop + 1)
    vals = claim.values
    ys = [claim.rv]
    zs, diff_norms = [], []
    for i in range(stop - 1, -1, -1):
        t = float(nodes[i])
        e, z = sc.step_fit(scen, vals, i)
        if flow is not None:
            e = e + flow[i]
        u = x = implicit_step(driver, t, e, z, dt)
        norms = []
        while True:
            if not np.all(np.isfinite(x)):
                raise FixedPointError(f"non-finite values produced at index {i}")
            if lift is None:
                vals = x
                break
            k = lift(i, x)
            vals = x + k
            norms.append(float(np.max(np.abs(vals - u))))
            if a is not None:
                shifts[i] = k * (1.0 - a * dt)
                break
            shifts[i] = k
            if not driver.depends_on_y or norms[-1] <= PICARD_TOL:
                break
            if len(norms) == _MAX_PASSES:
                raise PicardDivergenceError(
                    f"no self-consistency within {_MAX_PASSES} iterations "
                    f"at step {i} (last difference {norms[-1]:.3g})"
                )
            u = vals
            x = e + np.asarray(driver.fn(t, u, z), dtype=float) * dt
        ys.append(sc.RandomVariable(i, vals))
        zs.append(sc.RandomVariable(i, z))
        diff_norms.append(tuple(norms))
    return BsdePair(Y=tuple(ys[::-1]), Z=tuple(zs[::-1]), shifts=shifts,
                    diff_norms=tuple(diff_norms[::-1]))
