"""Successive approximation for state-dependent generators.

A generator that reads y or z is handled by freezing it along the previous
iterate, solving the resulting constant-generator reflected problem exactly,
and repeating until the iterates agree.  The horizon is split into
subintervals sized so each pass is a contraction; windows are solved right to
left and stitched, which reproduces the single-window flow algebra exactly
for the converged iterate.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bsde as bs
from . import expectations as ne
from . import reflection as rf
from . import scenarios as sc
from .errors import InfeasibleProblemError, PicardDivergenceError

_DIVERGE_RUN = 5


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for the successive-approximation loop.

    ``n_sub = 0`` chooses the subinterval count automatically from the
    contraction heuristic.  ``divergence_action`` is ``"halve-intervals"``
    (double ``n_sub`` and retry) or ``"fail"``.
    """

    n_sub: int = 0
    picard_tol: float = 1e-8
    max_picard_iters: int = 100
    divergence_action: str = "halve-intervals"
    operator_tol: float = rf.OPERATOR_TOL
    feasibility_tol: float = rf.FEASIBILITY_TOL

    def __post_init__(self):
        if self.n_sub < 0:
            raise ValueError("n_sub must be >= 0 (0 = automatic)")
        if self.picard_tol <= 0.0:
            raise ValueError("picard_tol must be positive")
        if self.max_picard_iters < 1:
            raise ValueError("max_picard_iters must be >= 1")
        if self.divergence_action not in ("halve-intervals", "fail"):
            raise ValueError("divergence_action must be 'halve-intervals' or 'fail'")


@dataclass
class SolveDiagnostics:
    """Iteration evidence from the successive-approximation loop."""

    n_sub: int
    window_bounds: list = field(default_factory=list)
    iterations: list = field(default_factory=list)
    diff_norms: list = field(default_factory=list)
    attempts: int = 1


@dataclass(frozen=True)
class ReflectionProblem:
    """Strategy bundle a reflected solve needs from its constraint side.

    ``shift(i, rv) -> (value, iterations)`` is the minimal lift at index
    ``i``; ``constraint(i, values)`` the functional that must end up >= 0,
    also read at the claim to check feasibility.
    """

    shift: Callable
    constraint: Callable


def mean_constraint_problem(
    scen: sc.ScenarioSet,
    loss: rf.LossFunction,
    exp: ne.NonlinearExpectation,
    tol: float = rf.OPERATOR_TOL,
) -> ReflectionProblem:
    """The E[l(t, .)] >= 0 constraint as a reflection strategy."""

    def shift(i, rv):
        return rf._minimal_shift_with_iters(exp, loss, scen, i, rv, tol)

    def constraint(i, values):
        return rf.constraint_value(exp, loss, scen, i, values)

    return ReflectionProblem(shift=shift, constraint=constraint)


def contraction_heuristic(
    lipschitz: float, kappa: float, lower: float, upper: float, horizon: float
) -> float:
    """Crude one-pass contraction coefficient for a window of length h.

    The estimate multiplies the generator's Lipschitz feedback by the shift
    operator's slope bound; a window of length ``h`` is accepted when
    ``c_hat * h * max(1, h) < 1/2``.
    """
    ratio = upper / lower
    return (
        8.0
        * (1.0 + ratio * ratio * np.exp(2.0 * kappa * horizon))
        * (1.0 + lipschitz * lipschitz)
        * np.exp(lipschitz * horizon)
    )


def subinterval_plan(
    scen: sc.ScenarioSet,
    driver: bs.Driver,
    loss_lower: float,
    loss_upper: float,
    kappa: float,
    n_sub: int,
) -> list:
    """Split the grid into ``n_sub`` contiguous index windows.

    With ``n_sub = 0`` the smallest window count passing the contraction
    heuristic is chosen (capped at one step per window).  Returns
    ``[(start, stop), ...]`` ordered left to right.
    """
    m = scen.grid.steps
    horizon = scen.grid.horizon
    if n_sub > m:
        raise ValueError(f"n_sub = {n_sub} exceeds the {m} grid steps; cannot snap")
    if n_sub == 0:
        c_hat = contraction_heuristic(driver.lipschitz, kappa, loss_lower, loss_upper, horizon)
        n_sub = 1
        while n_sub < m:
            h = horizon / n_sub
            if c_hat * h * max(1.0, h) < 0.5:
                break
            n_sub += 1
    bounds = np.unique(np.round(np.linspace(0, m, n_sub + 1)).astype(int))
    return [(int(bounds[k]), int(bounds[k + 1])) for k in range(len(bounds) - 1)]


def _diff_norm(scen, ys, zs, us, vs, dt) -> float:
    dy = max(float(np.max(np.abs(y.values - u.values))) for y, u in zip(ys, us))
    dz2 = sum(
        sc.expect(scen, sc.RandomVariable(z.index, (z.values - v.values) ** 2)) * dt
        for z, v in zip(zs, vs)
    )
    return dy + float(np.sqrt(dz2))


def _window_picard(
    scen: sc.ScenarioSet,
    terminal: sc.RandomVariable,
    driver: bs.Driver,
    problem: ReflectionProblem,
    start: int,
    opts: SolveOptions,
):
    """Iterate frozen-generator solves on one window until self-consistent."""
    nodes = scen.grid.nodes
    dt = scen.grid.dt
    stop = terminal.index
    seed_pair = bs.solve_bsde(scen, bs.TerminalClaim(terminal), driver, start=start)
    us, vs = list(seed_pair.Y), list(seed_pair.Z)

    norms = []
    total_iters = 0
    for _ in range(opts.max_picard_iters):
        c_process = [
            np.asarray(driver.fn(float(nodes[start + j]), us[j].values, vs[j].values), dtype=float)
            for j in range(stop - start)
        ]
        flow, ys, zs, iters = rf._window_solve(
            scen, terminal, c_process, problem.shift, start
        )
        total_iters += 1
        d = _diff_norm(scen, ys, zs, us, vs, dt)
        norms.append(d)
        us, vs = ys, zs
        if d <= opts.picard_tol:
            return ys, zs, flow, iters, total_iters, norms
        if len(norms) > _DIVERGE_RUN and all(
            norms[-k] > norms[-k - 1] for k in range(1, _DIVERGE_RUN + 1)
        ):
            raise PicardDivergenceError(
                f"difference norms grew for {_DIVERGE_RUN} consecutive iterations "
                f"on window [{start}, {stop}]"
            )
    raise PicardDivergenceError(
        f"no self-consistency within {opts.max_picard_iters} iterations "
        f"on window [{start}, {stop}]"
    )


def _solve_with_problem(
    scen: sc.ScenarioSet,
    claim: bs.TerminalClaim,
    driver: bs.Driver,
    problem: ReflectionProblem,
    opts: SolveOptions,
    loss_lower: float,
    loss_upper: float,
    kappa: float,
) -> rf.ReflectedSolution:
    sc.check_rv(scen, claim.rv)
    if claim.index != scen.grid.steps:
        raise ValueError("claim must live on the terminal level")
    term = problem.constraint(claim.index, claim.values)
    if term < -opts.feasibility_tol:
        raise InfeasibleProblemError(
            f"terminal constraint value {term:.3g} < -{opts.feasibility_tol:g}"
        )

    state_free = not (driver.depends_on_y or driver.depends_on_z)
    if state_free:
        c = [
            float(np.asarray(driver.fn(float(t), np.zeros(1), np.zeros(1)), dtype=float).ravel()[0])
            for t in scen.grid.nodes[:-1]
        ]
        flow, ys, zs, iters = rf._window_solve(scen, claim.rv, c, problem.shift, 0)
        diag_picard = SolveDiagnostics(n_sub=1, window_bounds=[(0, claim.index)], iterations=[1])
        return _finalize(scen, ys, zs, flow.values, iters, problem, diag_picard)

    n_req = opts.n_sub
    attempts = 0
    while True:
        attempts += 1
        plan = subinterval_plan(scen, driver, loss_lower, loss_upper, kappa, n_req)
        try:
            return _run_plan(scen, claim, driver, problem, opts, plan, attempts)
        except PicardDivergenceError:
            n_now = len(plan)
            if opts.divergence_action == "fail" or n_now >= scen.grid.steps:
                raise
            n_req = min(scen.grid.steps, max(n_now * 2, 2))


def _run_plan(scen, claim, driver, problem, opts, plan, attempts):
    m = scen.grid.steps
    diag = SolveDiagnostics(n_sub=len(plan), window_bounds=list(plan), attempts=attempts)
    seg_Y, seg_Z, seg_flow, seg_iters = {}, {}, {}, {}
    terminal = claim.rv
    for (a, b) in reversed(plan):
        ys, zs, flow, iters, count, norms = _window_picard(
            scen, terminal, driver, problem, a, opts
        )
        seg_Y[(a, b)], seg_Z[(a, b)] = ys, zs
        seg_flow[(a, b)], seg_iters[(a, b)] = flow, iters
        diag.iterations.insert(0, count)
        diag.diff_norms.insert(0, norms)
        terminal = ys[0]

    Y, Z, K, it = [], [], [0.0], []
    offset = 0.0
    for (a, b) in plan:
        ys, zs = seg_Y[(a, b)], seg_Z[(a, b)]
        flow, iters = seg_flow[(a, b)], seg_iters[(a, b)]
        last = b == m
        Y.extend(ys if last else ys[:-1])
        Z.extend(zs)
        K.extend((offset + flow.values[1:]).tolist())
        it.extend(iters if last else iters[:-1])
        offset += flow.total
    return _finalize(scen, Y, Z, np.array(K), np.array(it), problem, diag)


def _finalize(scen, ys, zs, k_values, iters, problem, picard_diag):
    cons = np.array([problem.constraint(y.index, y.values) for y in ys])
    flow = rf.ReflectorFlow(np.asarray(k_values, dtype=float))
    resid = float(np.sum(cons[:-1] * flow.increments))
    diag = rf.ReflectionDiagnostics(
        constraint_values=cons,
        skorokhod_residual=resid,
        shift_iterations=np.asarray(iters, dtype=int),
    )
    return rf.ReflectedSolution(
        Y=tuple(ys), Z=tuple(zs), K=flow, diagnostics=diag, picard=picard_diag
    )


def solve_reflected(
    scen: sc.ScenarioSet,
    claim: bs.TerminalClaim,
    driver: bs.Driver,
    loss: rf.LossFunction,
    exp: ne.NonlinearExpectation,
    opts: SolveOptions | None = None,
) -> rf.ReflectedSolution:
    """Reflected solve under the mean constraint ``E[l(t, Y_t)] >= 0``.

    State-free generators collapse to a single exact pass: backward
    accumulation, per-index minimal shifts, suffix-max flow.  Otherwise the
    windowed successive-approximation loop runs.
    """
    opts = opts or SolveOptions()
    problem = mean_constraint_problem(scen, loss, exp, opts.operator_tol)
    return _solve_with_problem(
        scen, claim, driver, problem, opts, loss.lower, loss.upper, exp.kappa
    )
