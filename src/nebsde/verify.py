"""Structural checks on reflected solutions at desk scale.

This module audits the properties the solvers are supposed to deliver:

* the running-mean representation of the reflected value through per-index
  floor levels,
* comparison: ordered data produce nodewise-ordered solutions, and any
  feasible competitor flow dominates the minimal one,
* non-minimality of mean-matching competitors: tilting the flow by an
  exponential martingale preserves every mean but breaks the pathwise order.

Checks return structured records; :func:`emit_report` serialises them for
the CLI.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import bsde as bs
from . import expectations as ne
from . import picard as pc
from . import reflection as rf
from . import scenarios as sc

_BUMP_TOTAL = 0.1  # total of the ramp that inflates the comparison's competitor flow
_HYPOTHESIS_SEED = 0  # seed of the probes that sample the comparison's hypotheses
_EPS = float(np.finfo(float).eps)


def mean_floor(
    exp: ne.NonlinearExpectation,
    loss: rf.LossFunction,
    scen: sc.ScenarioSet,
    ybar: sc.RandomVariable,
) -> float:
    """Signed root x of ``E[l(t_i, ybar - mean(ybar) + x)] = 0`` at ``ybar``'s own index ``i``.

    This is the lowest admissible mean at index ``i`` for a process whose
    centered fluctuation matches ``ybar``.  Monotonicity of the constraint
    functional in x makes the root unique.  It is found as the minimal lift
    finds a shift (:func:`nebsde.reflection.lift`), by the same closed form
    or from the same slope-bound reach, and a search returns the midpoint of
    its final bracket, within ``reflection.OPERATOR_TOL`` of the root.  Raises
    ``BracketFailureError`` when the reach does not fit in a float.
    """
    return _floor(rf.mean_constraint_problem(scen, loss, exp), ybar.index, ybar.values,
                  sc.expect(scen, ybar))


def _floor(problem: rf.ReflectionProblem, i: int, values: np.ndarray, mean: float) -> float:
    """:func:`mean_floor` of the level ``values`` with scenario mean ``mean``, given its problem."""
    centered = values - mean
    v0 = problem.constraint(i, centered)
    if v0 == 0.0:
        return 0.0
    lo, hi, _, _ = rf._root(problem, i, centered, v0)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class RepresentationData:
    """Per-index pieces of the running-mean representation."""

    means: np.ndarray
    floors: np.ndarray
    brackets: np.ndarray
    gaps: np.ndarray
    argmax: np.ndarray

    @property
    def max_abs_gap(self) -> float:
        return float(np.max(np.abs(self.gaps)))


def representation_gap(
    scen: sc.ScenarioSet,
    sol: rf.ReflectedSolution,
    driver: bs.Driver,
    exp: ne.NonlinearExpectation,
    loss: rf.LossFunction,
) -> RepresentationData:
    """Gap between solution means and their running-max representation.

    The candidate representation at index i is the best, over stopping
    levels s >= i, of the accumulated generator mean plus either the
    floor level at s (s interior) or the claim mean (s terminal).  Scenario
    means are used for the accumulated brackets.  The floor at s is that of
    the fluctuation of ``Y_s``: the mean forecast of the claim plus the
    remaining generator differs from ``Y_s`` only by the deterministic
    ``K_T - K_s``, which :func:`mean_floor` centres away.

    Each ``Y_i`` is checked against the support once, when its mean is
    taken (:meth:`nebsde.reflection.ReflectedSolution.mean_values`); each
    generator level is checked finite and of the support size once, where
    it is built (:func:`nebsde.scenarios.checked_level`), and its mean is
    :func:`nebsde.scenarios.level_mean`.  One mean-constraint problem serves
    every floor, each the one :func:`mean_floor` finds bit for bit; each
    constraint evaluation checks its own loss level.
    """
    m = scen.grid.steps
    if len(sol.Y) != m + 1:
        raise ValueError("representation needs a full-grid solution")
    dt = scen.grid.dt
    nodes = scen.grid.nodes

    means = sol.mean_values(scen)
    f_mean = np.zeros(m)
    for i in range(m):
        fv = np.asarray(
            driver.fn(float(nodes[i]), sol.Y[i].values, sol.Z[i].values), dtype=float
        )
        fv = np.broadcast_to(fv, sol.Y[i].values.shape)
        f_mean[i] = sc.level_mean(scen, i, sc.checked_level(scen, i, fv.copy()))
    fsum = np.zeros(m + 1)
    np.cumsum(f_mean * dt, out=fsum[1:])

    problem = rf.mean_constraint_problem(scen, loss, exp)
    floors = np.array([_floor(problem, i, sol.Y[i].values, means[i]) for i in range(m)])
    c = np.empty(m + 1)
    c[:m] = fsum[:m] + floors
    c[m] = fsum[m] + means[m]

    best = np.empty(m + 1)
    arg = np.empty(m + 1, dtype=int)
    best[m], arg[m] = c[m], m
    for i in range(m - 1, -1, -1):
        if c[i] >= best[i + 1]:
            best[i], arg[i] = c[i], i
        else:
            best[i], arg[i] = best[i + 1], arg[i + 1]
    brackets = best - fsum
    return RepresentationData(
        means=means, floors=floors, brackets=brackets, gaps=means - brackets, argmax=arg
    )


@dataclass(frozen=True)
class ParameterBundle:
    """One side of a comparison: claim, generator, loss, expectation."""

    claim: sc.RandomVariable
    driver: bs.Driver
    loss: rf.LossFunction
    expectation: ne.NonlinearExpectation


@dataclass(frozen=True)
class ComparisonInstance:
    """Two parameter bundles on a shared scenario set, first meant bigger."""

    scen: sc.ScenarioSet
    first: ParameterBundle
    second: ParameterBundle


@dataclass(frozen=True)
class ComparisonReport:
    """Ordering evidence for a comparison instance."""

    hypotheses: dict
    vacuous: bool
    pointwise_min_gap: float
    mean_min_gap: float
    minimality_max_violation: float
    competitor_min_gain: float
    competitor_feasible: bool


def _sample_hypotheses(inst: ComparisonInstance, rng: np.random.Generator) -> dict:
    scen = inst.scen
    a, b = inst.first, inst.second
    out = {}
    out["claims_ordered"] = bool(np.min(a.claim.values - b.claim.values) >= -1e-12)

    t_probe = np.linspace(0.0, scen.grid.horizon, 5)
    yz = rng.normal(0.0, 1.5, size=(2, 32))
    ok = True
    for t in t_probe:
        fa = np.asarray(a.driver.fn(float(t), yz[0], yz[1]), dtype=float)
        fb = np.asarray(b.driver.fn(float(t), yz[0], yz[1]), dtype=float)
        if np.min(fa - fb) < -1e-12:
            ok = False
            break
    out["drivers_ordered"] = ok

    xs = np.linspace(-4.0, 4.0, 33)
    bs_probe = np.linspace(-2.0, 2.0, 5)
    ok = True
    for t in t_probe:
        for bb in bs_probe:
            barr = np.full_like(xs, bb)
            la = a.loss(float(t), barr, xs)
            lb = b.loss(float(t), barr, xs)
            if np.max(la - lb) > 1e-12:
                ok = False
                break
        if not ok:
            break
    out["losses_ordered"] = ok

    m = scen.grid.steps
    ok = True
    for _ in range(5):
        x = rng.normal(0.0, 1.0, sc.support_size(scen, m))
        rv = sc.RandomVariable(m, x)
        if ne.evaluate(b.expectation, scen, rv) < ne.evaluate(a.expectation, scen, rv) - 1e-10:
            ok = False
            break
    out["expectations_ordered"] = ok
    return out


def comparison_report(inst: ComparisonInstance) -> ComparisonReport:
    """Solve both bundles and measure every ordering the theory promises.

    The first bundle must dominate (bigger claim and generator, smaller
    loss, weaker expectation); the report also rebuilds the first solution
    under a flow inflated by a ramp up to ``_BUMP_TOTAL`` and measures how
    far the inflated value stays above the reflected one.
    """
    b = inst.second
    sol2 = pc.solve_reflected(inst.scen, b.claim, b.driver, b.loss, b.expectation)
    return _compare(inst, sol2, sol2.mean_values(inst.scen))


def _compare(inst: ComparisonInstance, sol2: rf.ReflectedSolution,
             means2: np.ndarray) -> ComparisonReport:
    """:func:`comparison_report` given the second bundle's reflected solution and its means."""
    rng = np.random.default_rng(_HYPOTHESIS_SEED)
    hyp = _sample_hypotheses(inst, rng)
    vacuous = not all(hyp.values())
    scen = inst.scen
    a = inst.first
    sol1 = pc.solve_reflected(scen, a.claim, a.driver, a.loss, a.expectation)

    pointwise = min(
        float(np.min(y1.values - y2.values)) for y1, y2 in zip(sol1.Y, sol2.Y)
    )
    means1 = sol1.mean_values(scen)
    mean_gap = float(np.min(means1 - means2))

    m = scen.grid.steps
    bumped = rf.ReflectorFlow(sol1.K.values + np.linspace(0.0, _BUMP_TOTAL, m + 1))
    competitor = bs.solve_bsde(scen, a.claim, a.driver, flow=bumped.increments)
    viol = max(
        float(np.max(y.values - c.values)) for y, c in zip(sol1.Y, competitor.Y)
    )
    gain = min(
        float(np.min(c.values - y.values)) for y, c in zip(sol1.Y, competitor.Y)
    )
    feas = all(
        rf.constraint_value(a.expectation, a.loss, scen, y.index, y.values) >= -1e-8
        for y in competitor.Y
    )
    return ComparisonReport(
        hypotheses=hyp,
        vacuous=vacuous,
        pointwise_min_gap=pointwise,
        mean_min_gap=mean_gap,
        minimality_max_violation=viol,
        competitor_min_gain=gain,
        competitor_feasible=feas,
    )


@dataclass(frozen=True)
class RampFlowInstance:
    """Claim ``B_T + shift``, constant generator ``-gamma``, floor loss ``x - floor``.

    The reflected flow is the explicit ramp ``gamma * min(t, t_star)`` with
    ``t_star = T - (mean(claim) - floor) / gamma``; the instance must bind,
    i.e. ``0 < mean(claim) - floor < gamma * T``.
    """

    gamma: float
    floor: float = 0.0
    tilt: float = 1.0
    shift: float = 0.5

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise ValueError("gamma must be positive")

    def claim(self, scen: sc.ScenarioSet) -> bs.TerminalClaim:
        return bs.TerminalClaim.from_function(scen, lambda b: b + self.shift)

    def t_star(self, scen: sc.ScenarioSet) -> float:
        margin = sc.expect(scen, self.claim(scen)) - self.floor
        horizon = scen.grid.horizon
        if not 0.0 < margin < self.gamma * horizon:
            raise ValueError(
                "instance does not bind: need 0 < mean - floor < gamma * horizon"
            )
        return horizon - margin / self.gamma

    def flow_values(self, scen: sc.ScenarioSet) -> np.ndarray:
        return self.gamma * np.minimum(scen.grid.nodes, self.t_star(scen))

    def loss(self) -> rf.LossFunction:
        return rf.LossFunction.linear(self.floor)

    def driver(self) -> bs.Driver:
        return bs.Driver.constant(-self.gamma)

    def solve(self, scen: sc.ScenarioSet) -> rf.ReflectedSolution:
        """The reflected solve under the classical mean."""
        return pc.solve_reflected(scen, self.claim(scen), self.driver(), self.loss(),
                                  ne.NonlinearExpectation.classical())


@dataclass(frozen=True)
class TiltedCompetitorReport:
    """Evidence that mean-matching competitors need not dominate pathwise."""

    mean_gap_max: float
    witness_index: int
    witness_node: int
    witness_gap: float
    martingale_min: float
    competitor_feasible: bool


def tilted_competitor_demo(
    inst: RampFlowInstance, scen: sc.ScenarioSet, sol: rf.ReflectedSolution
) -> TiltedCompetitorReport:
    """Tilt the ramp-flow solution ``sol`` (``inst.solve(scen)``) by an exponential martingale.

    The unreflected level is read off ``sol``: under the constant generator
    ``X_i = Y_i - (K_T - K_i)``.  The competitor
    ``Y^a_i = X_i + M_i * (K_T - K_i)`` built from the (per-level
    renormalised) martingale ``M_i = exp(a B_i - a^2 t_i / 2)`` keeps every mean equal to the reflected solution's but drops below it on
    the low nodes wherever flow remains, so the reflected solution is not
    pathwise minimal among mean-matching supersolutions.  The renormalisation
    cancels every constant factor, so ``M_i`` is formed from
    ``exp(a B_i - max(a B_i))``, which stays finite for any finite tilt.
    A flow so large that the competitor overflows gives an infinite mean
    gap, no witness and an infeasible competitor, so its checks fail.

    Levels stay arrays.  Each martingale level, reflected level ``X_i +
    K_T - K_i`` and feasibility level ``Y^a_i - floor`` is checked finite
    once, where it is built (:func:`nebsde.scenarios.checked_level`), and
    each competitor level by the overflow test; their means are
    :func:`nebsde.scenarios.level_mean`.  Overflow is ignored, in one
    ``np.errstate``, only while the levels are built.
    """
    m = scen.grid.steps
    k_vals = inst.flow_values(scen)
    total = k_vals[-1]

    yalphas, mart_min = [], np.inf
    witness = (0, 0, -np.inf)
    mean_gap_max = 0.0
    xs = [y.values - (sol.K.total - k) for y, k in zip(sol.Y, sol.K.values)]
    with np.errstate(over="ignore"):
        for i in range(m + 1):
            lift = total - k_vals[i]
            b = sc.brownian(scen, i)
            # a*(B_i - top) = a*B_i - max(a*B_i) <= 0; it may round to -inf,
            # and a huge flow may make the competitor overflow
            top = b.max() if inst.tilt >= 0.0 else b.min()
            raw = sc.checked_level(scen, i, np.exp(inst.tilt * (b - top)))
            mart = raw / sc.level_mean(scen, i, raw)
            ya = xs[i] + mart * lift
            mart_min = min(mart_min, float(np.min(mart)))
            if not np.isfinite(ya).all():
                # an overflowing competitor keeps no mean and witnesses nothing
                return TiltedCompetitorReport(mean_gap_max=np.inf, witness_index=i,
                                              witness_node=0, witness_gap=-np.inf,
                                              martingale_min=mart_min,
                                              competitor_feasible=False)
            y = sc.checked_level(scen, i, xs[i] + lift)
            yalphas.append(ya)
            gap = abs(sc.level_mean(scen, i, ya) - sc.level_mean(scen, i, y))
            mean_gap_max = max(mean_gap_max, gap)
            node_gaps = y - ya
            k = int(np.argmax(node_gaps))
            if node_gaps[k] > witness[2]:
                witness = (i, k, float(node_gaps[k]))
    feasible = all(
        sc.level_mean(scen, i, sc.checked_level(scen, i, ya - inst.floor)) >= -1e-9
        for i, ya in enumerate(yalphas)
    )
    return TiltedCompetitorReport(
        mean_gap_max=mean_gap_max,
        witness_index=witness[0],
        witness_node=witness[1],
        witness_gap=witness[2],
        martingale_min=mart_min,
        competitor_feasible=feasible,
    )


@dataclass(frozen=True)
class CheckRecord:
    """One verified property with its numeric evidence."""

    name: str
    description: str
    passed: bool
    evidence: dict

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"


def emit_report(records, csv_path=None, stream=None) -> list:
    """Serialise check records; returns the human-readable lines.

    ``csv_path`` gets one row per record with the evidence flattened to
    ``key=value`` pairs; ``stream`` (when given) receives aligned text.
    """
    lines = []
    width = max((len(r.name) for r in records), default=0)
    for r in records:
        ev = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                      for k, v in r.evidence.items())
        lines.append(f"[{r.status.upper():4s}] {r.name:<{width}s} {ev}")
    if stream is not None:
        for ln in lines:
            print(ln, file=stream)
    if csv_path is not None:
        with open(csv_path, "w", newline="\n") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["name", "property", "status", "evidence"])
            for r in records:
                ev = ";".join(
                    f"{k}={v:.12g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in r.evidence.items()
                )
                w.writerow([r.name, r.description, r.status, ev])
    return lines


def run_structural_checks(
    scen: sc.ScenarioSet,
    gamma: float = 1.0,
    floor: float = 0.0,
    shift: float = 0.5,
    tilt: float = 1.0,
) -> list:
    """Run the desk-scale structural suite on the ramp-flow instance with these parameters.

    Raises ``ValueError`` on a Monte Carlo scenario set, before any solve
    (:func:`check_scenario`).
    """
    check_scenario(scen)
    inst = RampFlowInstance(gamma=gamma, floor=floor, tilt=tilt, shift=shift)
    return structural_checks(scen, inst, inst.solve(scen))


def check_scenario(scen: sc.ScenarioSet) -> None:
    """Raise ``ValueError`` unless the structural suite can run on ``scen``: a tree.

    The suite's constant-claim checks (``shrinking-envelope-constant`` and
    ``maxmin-constant-preserving``) are tree identities: a constant has
    ``Z = 0`` on every tree level, while on Monte Carlo paths the
    regression estimate of ``Z`` for a constant is sampling noise, so both
    fail there for a reason that is not a fault of the solver.
    """
    if scen.mode != "tree":
        raise ValueError(f"the structural suite runs on the tree, not in {scen.mode} mode: "
                         "its constant-claim checks are tree identities")


def structural_checks(
    scen: sc.ScenarioSet, inst: RampFlowInstance, sol: rf.ReflectedSolution
) -> list:
    """The desk-scale structural suite, given the ramp-flow instance's solution ``sol``.

    The ramp-flow problem is the workhorse and the comparison's second
    bundle; the first bundle offsets its claim and loss by ``0.4`` and
    ``0.6`` times the margin ``shift - floor``, so its terminal constraint
    holds with ``0.8*(shift - floor) > 0``.  Thresholds scale with the grid
    so the suite stays meaningful at any desk-size resolution.

    ``shrinking-envelope-constant`` compares the lower envelope
    ``-kappa*(|y| + |z|)`` of a constant ``c0 > 0`` with its exact discrete
    value ``c0*(1 + kappa*dt)**(-m)`` on ``m`` tree steps.  Every level of
    the roll-back is constant, so ``z = 0`` and each step divides by the
    float ``d = 1 + kappa*dt``, the one the target raises to ``-m``.  Each
    of the ``m`` divisions rounds by at most ``eps/2`` relatively, and the
    power and the product with ``c0`` by at most ``eps`` and ``eps/2``, on
    values at most ``c0``; while ``m*eps`` is small the gap is therefore
    below ``(m + 2)*eps*c0``, the threshold.  The continuous limit
    ``c0*exp(-kappa*T)`` stays in the evidence as a measure of convergence.

    Raises ``ValueError`` on a Monte Carlo scenario set (:func:`check_scenario`).
    """
    check_scenario(scen)
    dt = scen.grid.dt
    records = []
    claim = inst.claim(scen)
    loss = inst.loss()
    classical = ne.NonlinearExpectation.classical()

    k_exact = inst.flow_values(scen)
    flow_err = float(np.max(np.abs(sol.K.values - k_exact)))
    records.append(
        CheckRecord(
            name="ramp-flow-closed-form",
            description="solver flow matches the explicit ramp gamma*min(t, t_star)",
            passed=flow_err <= 2.0 * dt,
            evidence={"max_error": flow_err, "threshold": 2.0 * dt},
        )
    )

    resid = sol.diagnostics.skorokhod_residual
    resid_cap = max(0.02, 2.0 * dt * sol.K.total)
    records.append(
        CheckRecord(
            name="flat-off-residual",
            description="flow only moves while the constraint is tight",
            passed=abs(resid) <= resid_cap,
            evidence={"residual": resid, "threshold": resid_cap},
        )
    )

    rep = representation_gap(scen, sol, inst.driver(), classical, loss)
    records.append(
        CheckRecord(
            name="running-mean-representation",
            description="solution means equal the best stopped mean bracket",
            passed=rep.max_abs_gap <= 5.0 * dt,
            evidence={"max_abs_gap": rep.max_abs_gap, "threshold": 5.0 * dt},
        )
    )

    demo = tilted_competitor_demo(inst, scen, sol)
    records.append(
        CheckRecord(
            name="tilted-competitor-means",
            description="tilted competitor preserves every solution mean",
            passed=demo.mean_gap_max <= 1e-6,
            evidence={"mean_gap_max": demo.mean_gap_max},
        )
    )
    records.append(
        CheckRecord(
            name="tilted-competitor-witness",
            description="competitor drops below the solution at some node",
            passed=demo.witness_gap >= 1e-6 and demo.competitor_feasible,
            evidence={
                "witness_gap": demo.witness_gap,
                "witness_index": demo.witness_index,
                "feasible": demo.competitor_feasible,
            },
        )
    )

    margin = inst.shift - inst.floor
    first = ParameterBundle(
        claim=sc.RandomVariable(claim.index, claim.values + 0.4 * margin),
        driver=bs.Driver.constant(-0.5 * inst.gamma),
        loss=rf.LossFunction.linear(inst.floor + 0.6 * margin),
        expectation=classical,
    )
    second = ParameterBundle(claim=claim, driver=inst.driver(), loss=loss, expectation=classical)
    comp = _compare(ComparisonInstance(scen=scen, first=first, second=second), sol, rep.means)
    records.append(
        CheckRecord(
            name="pointwise-comparison",
            description="ordered data give nodewise-ordered reflected solutions",
            passed=(not comp.vacuous) and comp.pointwise_min_gap >= -1e-8,
            evidence={"min_gap": comp.pointwise_min_gap, "vacuous": comp.vacuous},
        )
    )
    records.append(
        CheckRecord(
            name="mean-comparison",
            description="ordered data give ordered solution means",
            passed=(not comp.vacuous) and comp.mean_min_gap >= -1e-8,
            evidence={"min_gap": comp.mean_min_gap},
        )
    )
    records.append(
        CheckRecord(
            name="flow-minimality",
            description="inflating the flow can only raise the solution",
            passed=comp.minimality_max_violation <= 1e-8 and comp.competitor_feasible,
            evidence={
                "max_violation": comp.minimality_max_violation,
                "competitor_min_gain": comp.competitor_min_gain,
            },
        )
    )

    kappa = 0.5
    c0 = 2.0
    lo_val = ne.evaluate(
        ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(-kappa)),
        scen,
        bs.TerminalClaim.constant(scen, c0),
    )
    m = scen.grid.steps
    target = c0 * (1.0 + kappa * dt) ** -m
    # rounding of m divisions, one power and one product (docstring)
    env_cap = (m + 2) * _EPS * c0
    records.append(
        CheckRecord(
            name="shrinking-envelope-constant",
            description="lower envelope of a positive constant decays exponentially",
            passed=abs(lo_val - target) <= env_cap,
            evidence={"value": lo_val, "target": target, "threshold": env_cap,
                      "continuous_target": c0 * np.exp(-kappa * scen.grid.horizon)},
        )
    )

    amm = ne.NonlinearExpectation.alpha_maxmin(alpha=0.3, kappa=kappa)
    cval = ne.evaluate(amm, scen, bs.TerminalClaim.constant(scen, 1.7))
    records.append(
        CheckRecord(
            name="maxmin-constant-preserving",
            description="maxmin blend leaves constants untouched",
            passed=abs(cval - 1.7) <= 1e-10,
            evidence={"value": cval},
        )
    )
    return records
