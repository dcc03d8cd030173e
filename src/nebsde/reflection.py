"""Reflection through a mean constraint.

The constraint asks that ``E[l(t_i, Y_i)] >= 0`` at every grid index, where
``E`` is a (possibly nonlinear) expectation and ``l`` a loss profile that is
strictly increasing and bi-Lipschitz in its spatial argument.  Reflection is
performed by the deterministic minimal-shift operator: the smallest
``x >= 0`` making the constraint hold after adding ``x``.  For a constant
(state-independent) generator the reflected solution is explicit: shift
profile, running-suffix maximum, done; :func:`nebsde.picard.solve_reflected`
takes that single pass for state-free generators.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import expectations as ne
from . import scenarios as sc
from .errors import BracketFailureError

OPERATOR_TOL = 1e-8
FEASIBILITY_TOL = 1e-6
_MAX_BISECT = 200
_MAX_WIDEN = 8


@dataclass(frozen=True)
class LossFunction:
    """Spatial loss profile ``l(t, x)`` (optionally scenario-dependent).

    ``fn`` takes ``(t, x)`` arrays, or ``(t, b, x)`` when ``random`` is set
    (``b`` is the Brownian coordinate).  ``lower`` and ``upper`` are the
    bi-Lipschitz slope bounds ``0 < lower <= upper``.
    """

    fn: Callable
    lower: float = 1.0
    upper: float = 1.0
    shape: str = "general"
    random: bool = False

    def __post_init__(self):
        if not 0.0 < self.lower <= self.upper:
            raise ValueError("slope bounds must satisfy 0 < lower <= upper")
        if self.shape not in ("linear", "concave", "convex", "general"):
            raise ValueError(f"unknown loss shape {self.shape!r}")

    def __call__(self, t: float, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        if self.random:
            return np.asarray(self.fn(t, b, x), dtype=float)
        return np.asarray(self.fn(t, x), dtype=float)

    @staticmethod
    def linear(floor: float = 0.0) -> "LossFunction":
        """The benchmark profile ``l(t, x) = x - floor``."""
        f = float(floor)
        return LossFunction(fn=lambda t, x: np.asarray(x, dtype=float) - f, shape="linear")


def check_loss_lattice(
    loss: LossFunction,
    t_values,
    x_values,
    b_values=(0.0,),
) -> None:
    """Sample the loss on a lattice and verify slope bounds.

    Raises ``ValueError`` if any sampled difference quotient falls outside
    ``[lower, upper]`` (up to 1e-9 slack) or is not finite, which also
    catches non-monotonicity.
    """
    xs = np.asarray(x_values, dtype=float)
    if xs.size < 2:
        raise ValueError("need at least two lattice points")
    for t in t_values:
        for b in b_values:
            barr = np.full_like(xs, float(b))
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                quot = np.diff(loss(float(t), barr, xs)) / np.diff(xs)
            if not np.all((quot >= loss.lower - 1e-9) & (quot <= loss.upper + 1e-9)):
                raise ValueError(
                    f"loss slope outside [{loss.lower}, {loss.upper}] near t={t}"
                )


@dataclass(frozen=True)
class ConstraintProfile:
    """Deterministic per-index shift requirements, all >= 0."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if np.any(vals < -1e-12) or not np.all(np.isfinite(vals)):
            raise ValueError("profile entries must be finite and >= 0")
        object.__setattr__(self, "values", np.maximum(vals, 0.0))


@dataclass(frozen=True)
class ReflectorFlow:
    """Nondecreasing deterministic flow with ``K_0 = 0``."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if abs(vals[0]) > 1e-12:
            raise ValueError("flow must start at 0")
        if np.any(np.diff(vals) < -1e-12):
            raise ValueError("flow must be nondecreasing")

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.values)

    @property
    def total(self) -> float:
        return float(self.values[-1])


def build_flow(profile: ConstraintProfile) -> ReflectorFlow:
    """Flow generated by a shift profile via running suffix maxima.

    ``K_i = max(profile) - max(profile[i:])``: the flow pays, as early as
    needed, exactly the largest shift still ahead.
    """
    suffix = _suffix_max(profile.values)
    return ReflectorFlow(suffix[0] - suffix)


def _suffix_max(values: np.ndarray) -> np.ndarray:
    """``max(values[i:])`` for every ``i``: the lift ``K_T - K_i`` of a flow."""
    return np.maximum.accumulate(values[::-1])[::-1]


def constraint_value(
    exp: ne.NonlinearExpectation,
    loss: LossFunction,
    scen: sc.ScenarioSet,
    i: int,
    values: np.ndarray,
) -> float:
    """The constraint functional ``E[l(t_i, values)]`` at grid index ``i``."""
    t = float(scen.grid.nodes[i])
    b = sc.brownian(scen, i)
    lv = loss(t, b, np.asarray(values, dtype=float))
    return ne.evaluate(exp, scen, sc.RandomVariable(i, lv))


def _monotone_root(phi: Callable, v0: float, reach: float, tol: float):
    """Bracket and bisect the root of a nondecreasing ``phi`` with ``phi(0) = v0 != 0``.

    ``reach`` is the slope-bound distance from 0 to the root.  The far end of
    the bracket is doubled up to 8 times when that bound is optimistic, and
    beyond that for as long as it stays below ``tol``: a level that sits on
    the constraint up to rounding has a reach far below the spacing of its
    values, so ``phi`` cannot change sign until the step resolves.
    Returns ``(lo, hi, steps)`` with ``phi(hi) >= 0`` and ``hi - lo <= tol``
    (unless the bisection cap is hit).
    """
    sign = 1.0 if v0 < 0.0 else -1.0
    far = sign * reach
    doublings = 0
    while sign * phi(far) < 0.0:
        if doublings >= _MAX_WIDEN and not 0.0 < abs(far) < tol:
            raise BracketFailureError(f"no sign change found within {abs(far):.3g} of 0")
        far *= 2.0
        doublings += 1
    lo, hi = (0.0, far) if v0 < 0.0 else (far, 0.0)
    steps = 0
    while hi - lo > tol and steps < _MAX_BISECT:
        mid = 0.5 * (lo + hi)
        if phi(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
        steps += 1
    return lo, hi, steps


def _minimal_shift_with_iters(
    exp: ne.NonlinearExpectation,
    loss: LossFunction,
    scen: sc.ScenarioSet,
    i: int,
    rv: sc.RandomVariable,
    tol: float,
) -> tuple[float, int]:
    h0 = constraint_value(exp, loss, scen, i, rv.values)
    if h0 >= 0.0:
        return 0.0, 0
    reach = (-h0) * np.exp(exp.kappa * scen.grid.horizon) / (loss.lower * exp.scale)

    def phi(x):
        return constraint_value(exp, loss, scen, i, rv.values + x)

    _, hi, steps = _monotone_root(phi, h0, reach, tol)
    return hi, steps


def minimal_shift(
    exp: ne.NonlinearExpectation,
    loss: LossFunction,
    scen: sc.ScenarioSet,
    i: int,
    rv: sc.RandomVariable,
    tol: float = OPERATOR_TOL,
) -> float:
    """Smallest ``x >= 0`` with ``E[l(t_i, x + rv)] >= 0``.

    Zero when the constraint already holds; otherwise the feasible end of a
    bisection between 0 and the slope-based upper bracket, at most ``tol``
    above the root.
    """
    sc.check_rv(scen, rv)
    value, _ = _minimal_shift_with_iters(exp, loss, scen, i, rv, tol)
    return value


@dataclass(frozen=True)
class ReflectionDiagnostics:
    """Post-solve constraint evidence attached to a reflected solution."""

    constraint_values: np.ndarray
    skorokhod_residual: float
    shift_iterations: np.ndarray


@dataclass(frozen=True)
class ReflectedSolution:
    """Reflected solution: value/integrand pair plus the deterministic flow."""

    Y: tuple
    Z: tuple
    K: ReflectorFlow
    diagnostics: ReflectionDiagnostics
    start: int = 0
    picard: object | None = None

    @property
    def value(self) -> float:
        v = self.Y[0].values
        return float(v[0]) if v.size == 1 else float(v.mean())

    def mean_values(self, scen: sc.ScenarioSet) -> np.ndarray:
        return np.array([sc.expect(scen, y) for y in self.Y])


def _backward_levels(
    scen: sc.ScenarioSet,
    terminal: sc.RandomVariable,
    c_process,
    start: int = 0,
) -> list:
    """Unreflected levels ``X_i = E_i[X_{i+1}] + c_i dt`` for ``i = start..terminal.index``.

    ``c_process[j]`` is the generator value on step ``start + j`` (scalar or
    per-node array).
    """
    dt = scen.grid.dt
    xs = [terminal]
    vals = terminal.values
    for i in range(terminal.index - 1, start - 1, -1):
        vals = sc.step_expect(scen, vals, i) + np.asarray(c_process[i - start]) * dt
        xs.append(sc.RandomVariable(i, vals))
    xs.reverse()
    return xs


def _window_solve(
    scen: sc.ScenarioSet,
    terminal: sc.RandomVariable,
    c_process,
    shift_fn,
    start: int,
):
    """Shared engine: reflect a constant-generator backward solve.

    ``shift_fn(i, rv) -> (shift, iters)`` supplies the per-index minimal
    shift.  Returns the flow, the reflected pair and iteration counts.
    ``c_process`` is as in :func:`_backward_levels`.
    """
    xs = _backward_levels(scen, terminal, c_process, start)
    shifts = np.zeros(len(xs))
    iters = np.zeros(len(xs), dtype=int)
    for j, x in enumerate(xs):
        shifts[j], iters[j] = shift_fn(start + j, x)
    lifts = _suffix_max(ConstraintProfile(shifts).values)
    flow = ReflectorFlow(lifts[0] - lifts)

    # lift by the suffix max itself: K_T - K_i, computed as a difference,
    # can round below the binding shift and leave the constraint at -1e-17
    ys = []
    zs = []
    for j, x in enumerate(xs):
        ys.append(sc.RandomVariable(x.index, x.values + lifts[j]))
        if j < len(xs) - 1:
            zs.append(sc.RandomVariable(x.index, sc.step_z(scen, xs[j + 1].values, x.index)))
    return flow, ys, zs, iters


def skorokhod_residual(
    scen: sc.ScenarioSet,
    sol: ReflectedSolution,
    loss: LossFunction,
    exp: ne.NonlinearExpectation,
) -> float:
    """Discrete flat-off condition: ``sum E[l(t_i, Y_i)] * dK_i``.

    Recomputed from scratch so it can audit any candidate solution, not just
    ones produced by this module.
    """
    cons = np.array(
        [constraint_value(exp, loss, scen, y.index, y.values) for y in sol.Y]
    )
    return float(np.sum(cons[:-1] * sol.K.increments))
