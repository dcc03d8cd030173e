"""Reflection through a constraint on each level: one minimal lift.

The mean constraint asks that ``E[l(t_i, Y_i)] >= 0`` at every grid index,
where ``E`` is a (possibly nonlinear) expectation and ``l`` a loss profile
that is strictly increasing and bi-Lipschitz in its spatial argument.
Reflection is performed by the deterministic minimal-shift operator: the
smallest ``x >= 0`` making the constraint hold after adding ``x``.
:func:`lift` is that operator for any :class:`ReflectionProblem`; it serves
the mean constraint, the risk constraint of :mod:`nebsde.risk` and
:func:`nebsde.verify.mean_floor`, and returns the constraint value it
verified, which the reflected solve stores as the level's constraint value.
:func:`skorokhod_residual` is the from-scratch audit.

For a cash-additive operator and a linear loss of slope ``a`` the
constraint moves by exactly ``a*x`` under a shift ``x`` (on the tree, and
for the classical mean also on Monte Carlo paths), so the shift is
``-E[l(t_i, Y_i)]/a`` in closed form: the first probe of :func:`_bounded_root`,
which also lifts such a problem through a step.  Every other lift searches
for the root between 0 and a slope-bound bracket (:func:`_monotone_root`):
secant steps that close from both sides, under ITP's worst-case projection.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import expectations as ne
from . import scenarios as sc
from .errors import BracketFailureError

OPERATOR_TOL = 1e-8
FEASIBILITY_TOL = 1e-6
_MAX_ROOT_STEPS = 200
# ITP's n0: the search may take this many steps more than bisection
_ITP_N0 = 1
_MAX_WIDEN = 8


@dataclass(frozen=True)
class LossFunction:
    """Spatial loss profile ``l(t, x)`` (optionally scenario-dependent).

    ``fn`` takes ``(t, x)`` arrays, or ``(t, b, x)`` when ``random`` is set
    (``b`` is the Brownian coordinate); every loss the command line reads
    takes ``(t, b, x)``, whether or not it reads ``b``.  ``lower`` and
    ``upper`` are the bi-Lipschitz slope bounds ``0 < lower <= upper``.
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
                    f"loss slope outside [{loss.lower}, {loss.upper}], or not finite, "
                    f"near t={t}"
                )


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


def constraint_value(
    exp: ne.NonlinearExpectation,
    loss: LossFunction,
    scen: sc.ScenarioSet,
    i: int,
    values: np.ndarray,
) -> float:
    """The constraint functional ``E[l(t_i, values)]`` at grid index ``i``.

    Under the classical mean the loss level is checked here, once, as
    ``RandomVariable(i, .)`` and :func:`nebsde.scenarios.check_rv` would
    check it (:func:`nebsde.scenarios.checked_level`: the same exceptions),
    and its mean is :func:`nebsde.scenarios.level_mean`, one dot product on
    the tree; no random variable is built.  Any other operator evaluates the
    level as a random variable (:func:`nebsde.expectations.evaluate`).
    """
    if exp.kind == "classical":
        return sc.level_mean(scen, i, sc.checked_level(scen, i, _loss_values(loss, scen, i, values)))
    return ne.evaluate(exp, scen, _loss_level(loss, scen, i, values))


def _loss_values(loss: LossFunction, scen: sc.ScenarioSet, i: int, values) -> np.ndarray:
    """``l(t_i, values)`` over the support at level ``i``, unchecked."""
    t = float(scen.grid.nodes[i])
    return loss(t, sc.brownian(scen, i), np.asarray(values, dtype=float))


def _loss_level(loss: LossFunction, scen: sc.ScenarioSet, i: int, values) -> sc.RandomVariable:
    """``l(t_i, values)`` as a random variable on level ``i``."""
    return sc.RandomVariable(i, _loss_values(loss, scen, i, values))


def constraint_values(
    exp: ne.NonlinearExpectation,
    loss: LossFunction,
    scen: sc.ScenarioSet,
    levels,
) -> np.ndarray:
    """:func:`constraint_value` of every random variable in ``levels``.

    All of them are one call of :func:`nebsde.expectations.evaluate_levels`:
    under a g-expectation or alpha-maxmin they share one continuation, and on
    the tree one stacked roll-back, bit for bit under closed-form and
    explicit drivers and within the sweep tolerance under other drivers that
    read y.
    """
    return ne.evaluate_levels(exp, scen, [_loss_level(loss, scen, y.index, y.values)
                                          for y in levels])


def _monotone_root(phi: Callable, v0: float, reach: float, tol: float):
    """Bracket and search the root of a nondecreasing ``phi`` with ``phi(0) = v0 != 0``.

    ``reach`` is the slope-bound distance from 0 to the root.  The far end of
    the bracket is doubled up to 8 times when that bound is optimistic, and
    beyond that for as long as it stays below ``tol``: a level that sits on
    the constraint up to rounding has a reach far below the spacing of its
    values, so ``phi`` cannot change sign until the step resolves.

    Each step interpolates, steps past the estimate and projects.  The
    estimate is the secant root of the latest probe and the earlier probe of
    least ``|phi|`` (so a probe that the projection sent far from the root
    does not anchor the next secant), or the regula falsi point of the
    bracket when that leaves it; the first step also moves it
    towards the midpoint by a fifth of the bracket, since the reach may be
    far off.  The probe then lies ``tol/4`` past the estimate, away from the
    latest probe, and at least ``tol/2`` inside the bracket (Brent's minimum
    step, *Algorithms for Minimization without Derivatives*, 1973), so that
    the last two probes straddle the root.  ITP's projection (Oliveira and
    Takahashi, *ACM TOMS* 47(1), 2021) keeps it within a radius of the
    midpoint that holds the bracket to the bisection schedule plus ``n0 = 1``
    step.  So the search takes at most two steps more than bisection (one by
    ``n0``, one when the final width rounds just above ``tol``), and a few
    where ``phi`` is smooth or piecewise linear.  Returns ``(lo, hi, steps,
    phi(hi))`` with ``phi(lo) <= 0 <= phi(hi)`` as evaluated (``phi(lo) < 0``
    unless ``lo`` is a far end where ``phi`` is 0) and ``hi - lo <= tol``
    (unless the step cap is hit).
    """
    sign = 1.0 if v0 < 0.0 else -1.0
    far = sign * reach
    doublings = 0
    while sign * (at_far := phi(far)) < 0.0:
        if doublings >= _MAX_WIDEN and not 0.0 < abs(far) < tol:
            raise BracketFailureError(f"no sign change found within {abs(far):.3g} of 0")
        far *= 2.0
        doublings += 1
    if v0 < 0.0:
        lo, hi, at_lo, at_hi = 0.0, far, v0, at_far
    else:
        lo, hi, at_lo, at_hi = far, 0.0, at_far, v0
    # the latest probe, always an end of the bracket, and the earlier probe of least |phi|
    before, at_before, last, at_last = 0.0, v0, far, at_far
    width = hi - lo
    # ITP's eps is tol/2: the projection radius is eps * 2**(n_max - step) - w/2
    eps = 0.5 * tol
    n_max = max(0, math.ceil(math.log2(width) - math.log2(tol))) + _ITP_N0
    steps = 0
    while hi - lo > tol and steps < _MAX_ROOT_STEPS:
        w = hi - lo
        mid = 0.5 * (lo + hi)
        # interpolate: their secant root, else the regula falsi point, else the midpoint
        rise = at_last - at_before
        x = last - at_last * (last - before) / rise if rise != 0.0 else mid
        if not lo < x < hi:
            span = at_hi - at_lo
            x = lo - at_lo / span * w if span > 0.0 else mid
        if steps == 0:
            # truncate: towards the midpoint by a fifth of the bracket
            x = x + math.copysign(0.2 * w, mid - x) if 0.2 * w < abs(mid - x) else mid
        # step tol/4 past the estimate, away from the latest probe, and stay tol/2 inside
        x = min(max(x + math.copysign(0.25 * tol, x - last), lo + eps), hi - eps)
        # project: stay within the radius that keeps the minmax step count
        radius = max(0.0, math.ldexp(eps, n_max - steps) - 0.5 * w)
        if abs(x - mid) > radius:
            x = mid + math.copysign(radius, x - mid)
        at_x = phi(x)
        if at_x >= 0.0:
            hi, at_hi = x, at_x
        else:
            lo, at_lo = x, at_x
        if abs(at_last) <= abs(at_before):
            before, at_before = last, at_last
        last, at_last = x, at_x
        steps += 1
    return lo, hi, steps, at_hi


def closed_form_shift(
    exp: ne.NonlinearExpectation, loss: LossFunction, scen: sc.ScenarioSet
) -> bool:
    """Whether the minimal shift of ``loss`` under ``exp`` on ``scen`` has a closed form.

    It has one when ``exp`` is cash additive as evaluated on ``scen`` and
    ``loss`` is linear with a single slope, so
    ``E[l(t, X + x)] = E[l(t, X)] + slope*x``.  On Monte Carlo paths only
    the classical mean qualifies: there the regression estimate of ``Z``
    for a constant is sampling noise, not 0, so a g-expectation moves by
    more or less than the constant added.
    """
    exact = scen.mode == "tree" or exp.kind == "classical"
    return exact and exp.cash_additive and loss.shape == "linear" and loss.lower == loss.upper


@dataclass(frozen=True)
class ReflectionProblem:
    """A per-level constraint ``constraint(i, values) >= 0`` and how it grows under a lift.

    The constraint is nondecreasing in a constant ``x`` added to ``values``.
    With ``exact`` it grows by exactly ``slope*x``, so the lift has a closed
    form; otherwise it grows by at least ``slope*x*exp(-kappa_t)``, which
    bounds the bracket of a search.  ``constraint_stack(levels)``, when
    given, returns the constraint of every random variable in ``levels`` at
    once, those of ``constraint`` bit for bit under closed-form and explicit
    drivers and within the sweep tolerance under other drivers that read y;
    it is given where one evaluation is a tree roll-back, which the levels
    then share.
    """

    constraint: Callable
    slope: float
    exact: bool = False
    kappa_t: float = 0.0
    constraint_stack: Callable | None = None


def mean_constraint_problem(
    scen: sc.ScenarioSet, loss: LossFunction, exp: ne.NonlinearExpectation
) -> ReflectionProblem:
    """The mean constraint ``E[l(t_i, .)] >= 0`` with its lift data.

    Exact at the loss slope when :func:`closed_form_shift` holds; a
    cash-additive operator grows at least at the lower loss slope (up to
    sampling error on Monte Carlo paths, which the bracket doubling
    absorbs); any other operator at least at ``lower*exp(-kappa*T)``.
    A g-expectation or alpha-maxmin on the tree also evaluates a stack of
    levels at once (:func:`constraint_values`).
    """

    def constraint(i, values):
        return constraint_value(exp, loss, scen, i, values)

    def constraint_stack(levels):
        return constraint_values(exp, loss, scen, levels)

    stack = constraint_stack if scen.mode == "tree" and exp.kind != "classical" else None
    if exp.cash_additive:
        return ReflectionProblem(constraint, loss.lower, closed_form_shift(exp, loss, scen),
                                 constraint_stack=stack)
    return ReflectionProblem(constraint, loss.lower, kappa_t=exp.kappa * scen.grid.horizon,
                             constraint_stack=stack)


def _root(problem: ReflectionProblem, i: int, values: np.ndarray, v0: float, level=None, q=0.0):
    """Root of ``phi(x) = problem.constraint(i, values + x)``, given ``phi(0) = v0 != 0``.

    Returns ``(lo, hi, steps, phi(hi))`` with ``phi(hi) >= 0``.  An exact
    problem takes :func:`_bounded_root` (``lo = hi``) from the closed form
    ``-v0/slope``.  A translation moves ``phi`` at exactly the slope: both
    bounds are the slope, the tolerance two spacings of ``max|values| +
    |v0/slope|``, and no step is counted.  ``level(x)``, when given, replaces
    ``values + x`` (``v0 < 0``): a step with flow increment ``x``, rising at
    ``[1/(1 + q), 1/(1 - q)]``, so the bounds are the slope over ``1 + q``
    and ``1 - q``, the tolerance ``OPERATOR_TOL``, and each probe after the
    first a step.  Any other problem searches (:func:`_monotone_root`) from
    the reach ``|v0|*exp(kappa_t)*(1 + q)/slope`` to a final bracket
    ``OPERATOR_TOL`` wide, each step one evaluation of ``phi`` besides
    ``phi(0)`` and those of the far end.  ``BracketFailureError`` when the
    reach overflows or a search does not close.
    """

    def phi(x):
        return problem.constraint(i, values + x if level is None else level(x))

    if problem.exact and level is None:
        tol = 2.0 * math.ulp(float(np.max(np.abs(values))) + abs(v0 / problem.slope))
        x, _, gap = _bounded_root(phi, v0, problem.slope, problem.slope, tol)
        return x, x, 0, gap
    if problem.exact:
        x, probes, gap = _bounded_root(phi, v0, problem.slope / (1.0 + q),
                                       problem.slope / (1.0 - q), OPERATOR_TOL)
        return x, x, probes - 1, gap
    with np.errstate(over="ignore"):
        reach = abs(v0) * np.exp(problem.kappa_t) * (1.0 + q) / problem.slope
    if not np.isfinite(reach):
        raise BracketFailureError(
            f"shift bracket at index {i} overflows (kappa * T = {problem.kappa_t:.3g})"
        )
    return _monotone_root(phi, v0, reach, OPERATOR_TOL)


def _bounded_root(phi: Callable, v0: float, lower: float, upper: float, tol: float):
    """Root of ``phi``, ``phi(0) = v0``, rising ``lower`` to ``upper`` times the step.

    ``v0 < 0``, or either sign when ``lower == upper``.  A probe ``(x, v)`` puts the root
    between ``x - v/lower`` and ``x - v/upper``.  The first is the closed form
    ``-2*v0/(lower + upper)``, each next the secant root of the last two (slope held in
    ``[lower, upper]``; the bounds' middle if they did not halve; with ``lower == upper``
    the last probe's root estimate), kept in the bounds and moved ``tol*lower/(2*upper)``
    up.  Returns ``(x, probes, phi(x))`` at the first ``phi(x) >= 0`` whose bounds put the
    root within ``tol`` below ``x``.
    """
    floor, ceiling = -v0 / upper, -v0 / lower
    px, pv = 0.0, v0
    x = 0.5 * (floor + ceiling)
    for probes in range(1, _MAX_ROOT_STEPS + 1):
        width = ceiling - floor
        v = phi(x)
        below, above = sorted((x - v / lower, x - v / upper))
        floor, ceiling = max(floor, below), min(ceiling, above)
        if v >= 0.0 and x - floor <= tol:
            return x, probes, v
        slope = min(max((v - pv) / (x - px), lower), upper) if x != px else upper
        r = x - v / slope if ceiling - floor <= 0.5 * width else 0.5 * (floor + ceiling)
        px, pv = x, v
        # rounding may leave the bounds crossed; the lower one then rules
        x = min(max(r, floor), max(ceiling, floor)) + 0.5 * tol * lower / upper
    raise BracketFailureError(f"bounded root search did not close in {_MAX_ROOT_STEPS} probes")


def lift(problem: ReflectionProblem, i: int, values: np.ndarray, level=None, q: float = 0.0):
    """The minimal lift of level ``i`` onto ``problem.constraint(i, .) >= 0``.

    Returns ``(x, steps, value)``: the smallest ``x >= 0`` (to :func:`_root`'s tolerance) with
    ``value = problem.constraint(i, values + x) >= 0`` as evaluated, and the
    search steps it took, each one constraint evaluation (0 when the
    constraint holds at 0 or the lift is an exact translation, even where
    rounding takes a second probe); ``level``, ``q``: :func:`_root`.
    """
    h0 = problem.constraint(i, values)
    if h0 >= 0.0:
        return 0.0, 0, h0
    _, x, steps, value = _root(problem, i, values, h0, level, q)
    return x, steps, value


def minimal_shift(
    exp: ne.NonlinearExpectation,
    loss: LossFunction,
    scen: sc.ScenarioSet,
    rv: sc.RandomVariable,
) -> float:
    """Smallest ``x >= 0`` with ``E[l(t_i, x + rv)] >= 0`` at ``rv``'s own index ``i``.

    Zero when the constraint already holds.  Otherwise the closed form
    when :func:`closed_form_shift` holds, checked feasible as evaluated;
    else the feasible end of a root search between 0 and the slope-based
    upper bracket, at most ``OPERATOR_TOL`` above the root.  Raises ``ValueError``
    when ``exp`` is not a valid operator on ``scen``
    (:func:`nebsde.expectations.check_operator`).
    """
    sc.check_rv(scen, rv)
    ne.check_operator(exp, scen)
    return lift(mean_constraint_problem(scen, loss, exp), rv.index, rv.values)[0]


@dataclass(frozen=True)
class ReflectionDiagnostics:
    """Post-solve constraint evidence attached to a reflected solution.

    ``constraint_values[i]`` is the value the lift verified on the final
    level ``i`` (the claim's own value at the terminal index), and
    ``skorokhod_residual`` is built from it.
    ``shift_iterations[i]`` counts the root-search steps spent on level
    ``i``, each one constraint evaluation (0 where the shift is an exact
    translation, or a flow search's closed form certified); ``shift_closed_form``
    and ``shift_search`` count the binding levels (positive shift) that took
    no search step and those that took some.
    """

    constraint_values: np.ndarray
    skorokhod_residual: float
    shift_iterations: np.ndarray
    shift_closed_form: int
    shift_search: int


@dataclass(frozen=True)
class ReflectedSolution:
    """Reflected solution: value/integrand pair plus the deterministic flow."""

    Y: tuple
    Z: tuple
    K: ReflectorFlow
    diagnostics: ReflectionDiagnostics
    picard: object | None = None

    @property
    def value(self) -> float:
        v = self.Y[0].values
        return float(v[0]) if v.size == 1 else float(v.mean())

    def mean_values(self, scen: sc.ScenarioSet) -> np.ndarray:
        return np.array([sc.expect(scen, y) for y in self.Y])


def skorokhod_residual(
    scen: sc.ScenarioSet,
    sol: ReflectedSolution,
    loss: LossFunction,
    exp: ne.NonlinearExpectation,
) -> float:
    """Discrete flat-off condition: ``sum E[l(t_i, Y_i)] * dK_i``.

    Recomputed from scratch so it can audit any candidate solution, not just
    ones produced by this module; every level's constraint comes from
    :func:`constraint_values`, one stacked roll-back on the tree.
    """
    cons = constraint_values(exp, loss, scen, sol.Y)
    with np.errstate(over="ignore"):  # huge values and increments read inf
        return float(np.sum(cons[:-1] * sol.K.increments))
