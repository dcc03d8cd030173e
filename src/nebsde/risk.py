"""Risk-measure constraints and superhedging.

The risk side replaces the mean constraint with ``rho(t, Y_t) <= q_t`` for a
convex risk measure built from finitely many Girsanov tilt kernels with
penalties.  Translation invariance, ``rho(X + x) = rho(X) - scale*x``,
makes the minimal lift explicit: ``(rho(t, X) - q_t)^+ / scale``, no root
search needed.  Superhedging prices a claim by reflecting the discounted
wealth dynamics through that constraint.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bsde as bs
from . import picard as pc
from . import reflection as rf
from . import scenarios as sc
from .errors import BracketFailureError

_YTOL = 1e-12
_LIFT_STEPS = 8


@dataclass(frozen=True)
class RiskMeasure:
    """Max over tilted means minus penalties.

    ``kernels`` are the Girsanov tilt slopes; ``penalties`` their convex
    charges (all zero for a coherent measure).  ``kappa`` bounds the kernel
    magnitudes and doubles as the domination slope.
    """

    kernels: np.ndarray
    penalties: np.ndarray
    kappa: float
    scale: float = 1.0

    def __post_init__(self):
        ker = np.atleast_1d(np.asarray(self.kernels, dtype=float))
        pen = np.atleast_1d(np.asarray(self.penalties, dtype=float))
        object.__setattr__(self, "kernels", ker)
        object.__setattr__(self, "penalties", pen)
        if ker.size == 0:
            raise ValueError("kernel list must be nonempty")
        if pen.size != ker.size:
            raise ValueError("penalties must match kernels in length")
        if np.any(pen < 0.0):
            raise ValueError("penalties must be >= 0")
        if not np.isfinite(self.scale) or self.scale <= 0.0:
            raise ValueError("scale must be finite and > 0")
        if self.kappa < 0.0 or np.any(np.abs(ker) > self.kappa + 1e-12):
            raise ValueError("all kernels must satisfy |theta| <= kappa")

    @property
    def coherent(self) -> bool:
        return bool(np.all(self.penalties == 0.0))

    @staticmethod
    def coherent_family(kernels, kappa: float | None = None) -> "RiskMeasure":
        ker = np.atleast_1d(np.asarray(kernels, dtype=float))
        if kappa is None:
            # an empty list is refused with its own message by __post_init__
            kappa = float(np.max(np.abs(ker), initial=0.0))
        return RiskMeasure(kernels=ker, penalties=np.zeros(ker.size), kappa=float(kappa))

    @staticmethod
    def convex_family(kernels, penalties, kappa: float | None = None) -> "RiskMeasure":
        ker = np.atleast_1d(np.asarray(kernels, dtype=float))
        if kappa is None:
            # an empty list is refused with its own message by __post_init__
            kappa = float(np.max(np.abs(ker), initial=0.0))
        return RiskMeasure(kernels=ker, penalties=np.asarray(penalties, dtype=float),
                           kappa=float(kappa))


@dataclass(frozen=True)
class Benchmark:
    """Deterministic capital requirement ``q_t`` sampled on the grid."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if not np.all(np.isfinite(vals)):
            raise ValueError("benchmark values must be finite")

    @staticmethod
    def constant(grid: sc.TimeGrid, value: float) -> "Benchmark":
        return Benchmark(np.full(grid.steps + 1, float(value)))

    @staticmethod
    def from_knots(grid: sc.TimeGrid, knots) -> "Benchmark":
        """Piecewise-linear interpolation of ``(t, q)`` knots onto the grid."""
        pts = sorted((float(t), float(q)) for t, q in knots)
        if not pts:
            raise ValueError("need at least one knot")
        ts = np.array([p[0] for p in pts])
        qs = np.array([p[1] for p in pts])
        return Benchmark(np.interp(grid.nodes, ts, qs))


@dataclass(frozen=True)
class Market:
    """One-asset Black-Scholes-type market parameters."""

    rate: float
    drift: float
    volatility: float

    def __post_init__(self):
        if self.volatility <= 0.0:
            raise ValueError("volatility must be positive")
        for name in ("rate", "drift", "volatility"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def price_of_risk(self) -> float:
        return (self.drift - self.rate) / self.volatility


def evaluate_risk(rho: RiskMeasure, scen: sc.ScenarioSet, i: int, rv: sc.RandomVariable) -> float:
    """``rho(t_i, rv)``: the worst penalised tilted mean of the loss ``-rv``.

    Every kernel's mean comes from one call, and ``E_theta[-X] = -E_theta[X]``.
    """
    sc.check_rv(scen, rv)
    if rv.index != i:
        raise ValueError("rv must live on index i")
    means = sc.tilted_expect(scen, rho.kernels, rv)
    return float(np.max(-rho.scale * means - rho.penalties))


def risk_shift(
    rho: RiskMeasure, q: Benchmark, scen: sc.ScenarioSet, i: int, rv: sc.RandomVariable
) -> float:
    """Minimal lift onto the acceptance set: ``(rho(t_i, rv) - q_i)^+ / scale``.

    Translation invariance of ``rho`` collapses the root search that the
    mean constraint needs.  The closed form can land a rounding error short
    of the set, so the lift is stepped up until ``rho(t_i, rv + x) <= q_i``
    holds as evaluated, which makes the reflected level feasible by
    construction.
    """
    qi = float(q.values[i])
    excess = evaluate_risk(rho, scen, i, rv) - qi
    if excess <= 0.0:
        return 0.0
    x = excess / rho.scale
    step = np.spacing(float(np.max(np.abs(rv.values))) + x)
    for _ in range(_LIFT_STEPS):
        gap = evaluate_risk(rho, scen, i, sc.RandomVariable(i, rv.values + x)) - qi
        if gap <= 0.0:
            return x
        x += max(gap / rho.scale, step)
        step *= 2.0
    raise BracketFailureError(
        f"risk lift at index {i} still {gap:.3g} above q after {_LIFT_STEPS} steps"
    )


def _risk_problem(rho: RiskMeasure, q: Benchmark, scen: sc.ScenarioSet) -> pc.ReflectionProblem:
    def shift(i, rv):
        return risk_shift(rho, q, scen, i, rv), 0

    def constraint(i, values):
        rv = sc.RandomVariable(i, np.asarray(values, dtype=float))
        return float(q.values[i]) - evaluate_risk(rho, scen, i, rv)

    return pc.ReflectionProblem(shift=shift, constraint=constraint)


def solve_risk_reflected(
    scen: sc.ScenarioSet,
    claim: bs.TerminalClaim,
    driver: bs.Driver,
    rho: RiskMeasure,
    q: Benchmark,
    opts: pc.SolveOptions | None = None,
) -> rf.ReflectedSolution:
    """Reflected solve under the constraint ``rho(t, Y_t) <= q_t``.

    Diagnostics carry the slack ``q_i - rho(t_i, Y_i)`` per index and the
    Skorokhod residual against that slack.
    """
    if q.values.size != scen.grid.steps + 1:
        raise ValueError("benchmark must be sampled on the full grid")
    opts = opts or pc.SolveOptions()
    problem = _risk_problem(rho, q, scen)
    return pc._solve_with_problem(scen, claim, driver, problem, opts)


@dataclass(frozen=True)
class PriceReport:
    """Superhedging output: price, solution, and nodewise hedge ratios."""

    price: float
    solution: rf.ReflectedSolution
    hedge_ratios: tuple


def superhedge_price(
    market: Market,
    scen: sc.ScenarioSet,
    claim: bs.TerminalClaim,
    rho: RiskMeasure,
    q: Benchmark,
    opts: pc.SolveOptions | None = None,
) -> PriceReport:
    """Minimal initial wealth whose constrained dynamics deliver the claim.

    The wealth generator is ``f(t, y, z) = -(r y + theta z)`` with
    ``theta = (mu - r) / sigma``.  Hedge ratios ``pi_i = Z_i / (sigma Y_i)``
    are reported nodewise, NaN where ``|Y_i|`` is below 1e-12.
    """
    r = market.rate
    theta = market.price_of_risk
    lam = abs(r) + abs(theta)
    if lam == 0.0:
        driver = bs.Driver.constant(0.0)
    else:
        driver = bs.Driver(
            fn=lambda t, y, z: -(r * np.asarray(y, dtype=float) + theta * np.asarray(z, dtype=float)),
            lipschitz=lam,
            depends_on_y=r != 0.0,
            depends_on_z=theta != 0.0,
        )
    sol = solve_risk_reflected(scen, claim, driver, rho, q, opts)
    ratios = []
    for y, z in zip(sol.Y, sol.Z):
        with np.errstate(divide="ignore", invalid="ignore"):
            pi = z.values / (market.volatility * y.values)
        # NaN marks nodes where the wealth is too close to 0 to divide
        ratios.append(np.where(np.abs(y.values) <= _YTOL, np.nan, pi))
    return PriceReport(price=sol.value, solution=sol, hedge_ratios=tuple(ratios))
