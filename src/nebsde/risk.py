"""Risk-measure constraints and superhedging.

The risk side replaces the mean constraint with ``rho(t, Y_t) <= q_t`` for a
convex risk measure built from finitely many Girsanov tilt kernels with
penalties.  Translation invariance, ``rho(X + x) = rho(X) - x``, makes
the minimal lift explicit: ``(rho(t, X) - q_t)^+``, no root search
needed.  What a level costs is then evaluating ``rho``: the tilted weights
of every kernel at that level form one table
(:func:`nebsde.scenarios.tilt_table`), built once per level of a reflected
solve, and each evaluation is that table times the level's values.
Superhedging prices a claim by reflecting the discounted wealth dynamics
through that constraint.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import bsde as bs
from . import picard as pc
from . import reflection as rf
from . import scenarios as sc

_YTOL = 1e-12


@dataclass(frozen=True)
class RiskMeasure:
    """Max over tilted means minus penalties.

    ``kernels`` are the Girsanov tilt slopes; ``penalties`` their convex
    charges (all zero for a coherent measure).
    """

    kernels: np.ndarray
    penalties: np.ndarray

    def __post_init__(self):
        ker = np.atleast_1d(np.asarray(self.kernels, dtype=float))
        pen = np.atleast_1d(np.asarray(self.penalties, dtype=float))
        object.__setattr__(self, "kernels", ker)
        object.__setattr__(self, "penalties", pen)
        if ker.size == 0:
            raise ValueError("kernel list must be nonempty")
        if not np.all(np.isfinite(ker)):
            raise ValueError("kernels must be finite")
        if pen.size != ker.size:
            raise ValueError("penalties must match kernels in length")
        if not np.all(np.isfinite(pen)):
            raise ValueError("penalties must be finite")
        if np.any(pen < 0.0):
            raise ValueError("penalties must be >= 0")

    @property
    def coherent(self) -> bool:
        return bool(np.all(self.penalties == 0.0))

    @staticmethod
    def coherent_family(kernels) -> "RiskMeasure":
        return RiskMeasure(kernels=kernels, penalties=np.zeros(np.size(kernels)))

    @staticmethod
    def convex_family(kernels, penalties) -> "RiskMeasure":
        return RiskMeasure(kernels=kernels, penalties=penalties)


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
        """Piecewise-linear interpolation of ``(t, q)`` knots onto the grid.

        Two knots at one time are refused: the curve would jump there, and
        which of the two values it takes would be the interpolation's
        accident (``np.interp`` needs increasing times and does not check).
        """
        pts = sorted((float(t), float(q)) for t, q in knots)
        if not pts:
            raise ValueError("need at least one knot")
        ts = np.array([p[0] for p in pts])
        qs = np.array([p[1] for p in pts])
        repeated = ts[1:][ts[1:] == ts[:-1]]
        if repeated.size:
            raise ValueError(f"two knots at t = {repeated[0]:g}")
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
        # the wealth generator's Lipschitz constant
        with np.errstate(over="ignore"):
            lipschitz = abs(self.rate) + abs(self.price_of_risk)
        if not np.isfinite(lipschitz):
            raise ValueError("the price of risk (drift - rate) / volatility and "
                             "|rate| + |price of risk| must be finite")

    @property
    def price_of_risk(self) -> float:
        return (self.drift - self.rate) / self.volatility


def _risk(table: np.ndarray, penalties: np.ndarray, values: np.ndarray) -> float:
    """The worst penalised mean of the loss ``-values`` over the rows of a tilt table.

    ``E_theta[-X] = -E_theta[X]``, so it is ``max(-(table @ values) - penalties)``.
    """
    return float((-sc.tilted_means(table, values) - penalties).max())


def evaluate_risk(rho: RiskMeasure, scen: sc.ScenarioSet, rv: sc.RandomVariable) -> float:
    """``rho(t_i, rv)`` at ``rv``'s own index ``i``: the worst penalised tilted mean of ``-rv``.

    Every kernel's mean comes from one :func:`nebsde.scenarios.tilt_table`
    of index ``i``.
    """
    sc.check_rv(scen, rv)
    return _risk(sc.tilt_table(scen, rho.kernels, rv.index), rho.penalties, rv.values)


def _risk_problem(rho: RiskMeasure, q: Benchmark, scen: sc.ScenarioSet) -> rf.ReflectionProblem:
    """The slack ``q_i - rho(t_i, .) >= 0``, which grows at exactly rate 1.

    The constraint keeps one tilt table: on the tree that of the level it
    last evaluated, built again when the level changes, so a backward solve
    builds one per level and the lift's evaluations of a level share it; on
    Monte Carlo paths the one table serves every index.
    """

    @functools.lru_cache(maxsize=1)
    def table(key):
        return sc.tilt_table(scen, rho.kernels, key)

    def constraint(i, values):
        values = sc.checked_level(scen, i, values)
        # on paths every index has the table of index 0
        key = i if scen.mode == "tree" else 0
        return float(q.values[i]) - _risk(table(key), rho.penalties, values)

    return rf.ReflectionProblem(constraint, 1.0, exact=True)


def risk_shift(
    rho: RiskMeasure, q: Benchmark, scen: sc.ScenarioSet, rv: sc.RandomVariable
) -> float:
    """Minimal lift onto the acceptance set: ``(rho(t_i, rv) - q_i)^+`` at ``rv``'s index ``i``.

    Translation invariance of ``rho`` makes the closed form the first probe
    of the lift's bounded search (:func:`nebsde.reflection.lift`).  A closed
    form a rounding error short of the set takes one more probe, so
    ``rho(t_i, rv + x) <= q_i`` holds as evaluated, which makes the
    reflected level feasible by construction.
    """
    return rf.lift(_risk_problem(rho, q, scen), rv.index, rv.values)[0]


def solve_risk_reflected(
    scen: sc.ScenarioSet,
    claim: sc.RandomVariable,
    driver: bs.Driver,
    rho: RiskMeasure,
    q: Benchmark,
) -> rf.ReflectedSolution:
    """Reflected solve under the constraint ``rho(t, Y_t) <= q_t``.

    Diagnostics carry the slack ``q_i - rho(t_i, Y_i)`` per index and the
    Skorokhod residual against that slack.
    """
    if q.values.size != scen.grid.steps + 1:
        raise ValueError("benchmark must be sampled on the full grid")
    return pc._solve_with_problem(scen, claim, driver, _risk_problem(rho, q, scen))


@dataclass(frozen=True)
class PriceReport:
    """Superhedging output: price, solution, and nodewise hedge ratios."""

    price: float
    solution: rf.ReflectedSolution
    hedge_ratios: tuple


def superhedge_price(
    market: Market,
    scen: sc.ScenarioSet,
    claim: sc.RandomVariable,
    rho: RiskMeasure,
    q: Benchmark,
) -> PriceReport:
    """Minimal initial wealth whose constrained dynamics deliver the claim.

    The wealth generator is ``f(t, y, z) = -(r y + theta z)`` with
    ``theta = (mu - r) / sigma``, declared affine in y (``y_coefficient =
    -r``) when ``r != 0``, so each step is exact and each level takes one
    lift.  Hedge ratios ``pi_i = Z_i / (sigma Y_i)`` are reported nodewise,
    NaN where ``|Y_i|`` is below 1e-12 and infinite where the quotient
    overflows (a subnormal ``sigma``).
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
            y_coefficient=-r if r != 0.0 else None,
        )
    sol = solve_risk_reflected(scen, claim, driver, rho, q)
    ratios = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for y, z in zip(sol.Y, sol.Z):
            pi = z.values / (market.volatility * y.values)
            # NaN marks nodes where the wealth is too close to 0 to divide
            ratios.append(np.where(np.abs(y.values) <= _YTOL, np.nan, pi))
    return PriceReport(price=sol.value, solution=sol, hedge_ratios=tuple(ratios))
