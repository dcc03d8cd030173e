"""Backward SDE solver on a scenario set.

One backward sweep per grid step: the conditional mean and the martingale
integrand are read off the next level together (:func:`scenarios.step_fit`),
then the value is rolled back with an implicit-in-y Euler step,
:func:`implicit_step`.  Tree mode uses exact pairwise averages and one-step
difference quotients; Monte Carlo mode uses one regression fit for both.
:func:`solve_bsde` is the one backward loop: a reflected solve passes it a
lift, which it applies after each step until the lifted level settles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Callable

import numpy as np

from . import scenarios as sc
from .errors import FixedPointError, NonContractiveStepError, PicardDivergenceError

_SWEEP_TOL = 1e-13
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
    the comonotone dot product in ``_kernels``.
    """

    fn: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    lipschitz: float = 0.0
    depends_on_y: bool = False
    depends_on_z: bool = False
    kappa_structure: tuple | None = None

    def __post_init__(self):
        if (self.depends_on_y or self.depends_on_z) and self.lipschitz <= 0.0:
            raise ValueError("a y- or z-dependent driver needs lipschitz > 0")
        if self.lipschitz < 0.0 or not np.isfinite(self.lipschitz):
            raise ValueError("lipschitz must be finite and >= 0")

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
    """Solve ``y = e + f(t, y, z) * dt`` for y.

    Explicit when the driver ignores y.  The ``kappa*(|y| + |z|)`` family is
    solved exactly: ``a = e + |z|*kappa*dt``, then ``a / (1 - kappa*sign(a)*dt)``
    with a y-part (``y`` keeps the sign of ``a``).  Any other y-dependent
    driver takes a fixed-point sweep from ``e``, contractive because
    ``q = lipschitz * dt < 1`` is enforced.  It has converged once a sweep
    moves ``y`` by at most 1e-13 relative (``tol``).  The first sweep's move
    ``gap`` fixes the a-priori count, one more than the ``n`` of the bound
    ``q**n * gap/(1 - q) <= tol``, and the second sweep's move gives the
    observed ratio ``r``.  Schedule: ``y`` is measured after the first two
    sweeps; then, when the a-priori count is at most one more than the count
    the same bound gives with ``r`` for ``q``, it sweeps to the a-priori
    count unmeasured and is measured once at the end.  A looser declared
    constant keeps the test after every sweep, capped at the a-priori count.
    ``FixedPointError`` when ``y`` has not converged by the a-priori count
    or a move is not finite.

    A 2-d ``e`` (with ``z`` of its shape) is a stack of levels, one per row:
    each row follows its own schedule and is frozen once it has converged,
    so every row comes out as it would alone.
    """
    _check_contractive(driver, dt)
    if driver.kappa_structure is not None:
        kappa, include_y = driver.kappa_structure
        kdt = kappa * dt
        a = e + np.abs(z) * kdt
        return a / np.where(a >= 0.0, 1.0 - kdt, 1.0 + kdt) if include_y else a
    if not driver.depends_on_y:
        return e + np.asarray(driver.fn(t, e, z), dtype=float) * dt
    q = driver.lipschitz * dt
    stacked = e.ndim == 2
    e_rows, z_rows = (e, z) if stacked else (e[np.newaxis], z[np.newaxis])
    y = e_rows.copy()
    out = rows = None
    # per live row: the first sweep's move and tolerance, the a-priori count,
    # the per-sweep test, and the sweep at which it is measured next
    gap1, tol1, caps, loose, at = [], [], [], [], []
    sweeps, due_at = 0, 1
    while True:
        f = driver.fn(t, y, z_rows) if stacked else driver.fn(t, y[0], z_rows[0])
        y_next = e_rows + np.asarray(f, dtype=float) * dt
        sweeps += 1
        if sweeps < due_at:
            y = y_next
            continue
        live = len(y)
        due = range(live) if sweeps <= 2 else [r for r, a in enumerate(at) if a == sweeps]
        whole = len(due) == live
        moved = y_next - y if whole else y_next[due] - y[due]
        y = y_next
        gaps = np.abs(moved).max(axis=1).tolist()
        tols = [_SWEEP_TOL * (1.0 + a)
                for a in np.abs(y if whole else y[due]).max(axis=1).tolist()]
        done = [r for r, g, tl in zip(due, gaps, tols) if g <= tl]
        if len(done) == live and out is None:
            return y if stacked else y[0]
        if not all(map(math.isfinite, gaps)):
            break
        if sweeps == 1:
            gap1, tol1 = gaps, tols
            caps = [1 if g <= tl else _sweep_count(g, tl, q) for g, tl in zip(gaps, tols)]
        elif sweeps == 2:
            loose = [0.0 < g < g0 and c > _sweep_count(g0, tl, g / g0) + 1
                     for g, g0, tl, c in zip(gaps, gap1, tol1, caps)]
        if done:
            # freeze the converged rows; the others sweep on alone
            if out is None:
                out, rows = np.empty_like(e_rows), np.arange(live)
            out[rows[done]] = y[done]
            if len(done) == live:
                return out
            keep = np.ones(live, dtype=bool)
            keep[done] = False
            rows, e_rows, z_rows, y = rows[keep], e_rows[keep], z_rows[keep], y[keep]
            kept = keep.tolist()
            gap1, tol1 = list(compress(gap1, kept)), list(compress(tol1, kept))
            caps, loose = list(compress(caps, kept)), list(compress(loose, kept))
        # a row still live at its a-priori count has not converged by it
        if sweeps >= min(caps):
            break
        if sweeps == 1:
            due_at = 2
        else:
            at = [sweeps + 1 if lo else c for c, lo in zip(caps, loose)]
            due_at = min(at)
    raise FixedPointError(f"implicit step did not converge in {sweeps} sweeps")


def zero_noise_continuation(
    driver: Driver, values: np.ndarray, times: np.ndarray, dt: float
) -> np.ndarray:
    """Roll ``values`` back through one implicit step per date in ``times``, z frozen at 0.

    Each node follows ``y' = -f(t, y, 0)`` on its own.  A driver that
    ignores y leaves ``values`` as they are, since ``f(t, y, 0) = f(t, 0, 0)``
    vanishes for a g-expectation's generator.  A step of the ``kappa``
    family keeps each value's sign, so the steps collapse to
    ``(1 - kappa*dt)**(-steps)`` on values >= 0 and ``(1 + kappa*dt)**(-steps)``
    below.
    """
    vals = np.asarray(values, dtype=float)
    if not driver.depends_on_y:
        return vals
    _check_contractive(driver, dt)
    if driver.kappa_structure is not None:
        kdt = driver.kappa_structure[0] * dt
        steps = len(times)
        return np.where(vals >= 0.0, vals * (1.0 - kdt) ** (-steps),
                        vals * (1.0 + kdt) ** (-steps))
    zeros = np.zeros_like(vals)
    for t in reversed(times):
        vals = implicit_step(driver, float(t), vals, zeros, dt)
    return vals


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
    (``PicardDivergenceError`` after ``_MAX_PASSES``).
    """
    sc.check_rv(scen, claim.rv)
    stop = claim.index
    if flow is not None and len(flow) != stop:
        raise ValueError(f"flow needs {stop} increments, got {len(flow)}")
    nodes = scen.grid.nodes
    dt = scen.grid.dt
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
            shifts[i] = lift(i, x)
            vals = x + shifts[i]
            norms.append(float(np.max(np.abs(vals - u))))
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
