"""The reflected backward recursion.

With a deterministic flow, the mean-reflected scheme is one backward
recursion ``Y_i = E_i[Y_{i+1}] + f(t_i, Y_i, Z_i) dt + dK_i``, where ``dK_i``
is the minimal shift that makes level ``i`` meet its constraint.  A
generator that reads ``y`` makes each step a fixed point in ``(Y_i, dK_i)``;
it is found by successive approximation within the step, and every pass's
difference is kept as evidence.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bsde as bs
from . import expectations as ne
from . import reflection as rf
from . import scenarios as sc
from .errors import FixedPointError, InfeasibleProblemError, PicardDivergenceError


@dataclass(frozen=True)
class SolveOptions:
    """Tolerances and the per-step iteration budget of a reflected solve."""

    picard_tol: float = 1e-8
    max_picard_iters: int = 100
    operator_tol: float = rf.OPERATOR_TOL
    feasibility_tol: float = rf.FEASIBILITY_TOL

    def __post_init__(self):
        if not (np.isfinite(self.picard_tol) and self.picard_tol > 0.0):
            raise ValueError("picard_tol must be finite and positive")
        if self.max_picard_iters < 1:
            raise ValueError("max_picard_iters must be >= 1")
        if not (np.isfinite(self.operator_tol) and self.operator_tol > 0.0):
            raise ValueError("operator_tol must be finite and positive")
        if not (np.isfinite(self.feasibility_tol) and self.feasibility_tol >= 0.0):
            raise ValueError("feasibility_tol must be finite and >= 0")


@dataclass
class SolveDiagnostics:
    """Per-step evidence from the reflected recursion, ordered by step.

    Step ``i`` spans ``window_bounds[i] = (i, i + 1)``; ``iterations[i]``
    counts its passes and ``diff_norms[i]`` holds ``max|y - u|`` after each
    pass.  ``attempts`` is always 1.
    """

    window_bounds: list
    iterations: list
    diff_norms: list
    attempts: int = 1

    @property
    def ratio_max(self) -> float:
        """Largest observed ``norms[k+1] / norms[k]``; NaN when no step iterated."""
        ratios = [b / a for norms in self.diff_norms for a, b in zip(norms, norms[1:])]
        return max(ratios, default=float("nan"))


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


def _solve_with_problem(
    scen: sc.ScenarioSet,
    claim: bs.TerminalClaim,
    driver: bs.Driver,
    problem: ReflectionProblem,
    opts: SolveOptions,
) -> rf.ReflectedSolution:
    sc.check_rv(scen, claim.rv)
    m = scen.grid.steps
    if claim.index != m:
        raise ValueError("claim must live on the terminal level")
    term = problem.constraint(m, claim.values)
    if term < -opts.feasibility_tol:
        raise InfeasibleProblemError(
            f"terminal constraint value {term:.3g} < -{opts.feasibility_tol:g}"
        )

    nodes, dt = scen.grid.nodes, scen.grid.dt
    shift_iters = np.zeros(m + 1, dtype=int)
    k, shift_iters[m] = problem.shift(m, claim.rv)
    y = claim.values + k
    ys, zs = [sc.RandomVariable(m, y)], []
    dk = np.zeros(m)
    iterations, diff_norms = [0] * m, [None] * m
    for i in range(m - 1, -1, -1):
        t = float(nodes[i])
        z = sc.step_z(scen, y, i)
        e = sc.step_expect(scen, y, i)
        u = x = bs.implicit_step(driver, t, e, z, dt)
        norms = []
        while True:
            if not np.all(np.isfinite(x)):
                raise FixedPointError(f"non-finite values produced at index {i}")
            k, steps = problem.shift(i, sc.RandomVariable(i, x))
            shift_iters[i] += steps
            y = x + k
            norms.append(float(np.max(np.abs(y - u))))
            if not driver.depends_on_y or norms[-1] <= opts.picard_tol:
                break
            if len(norms) == opts.max_picard_iters:
                raise PicardDivergenceError(
                    f"no self-consistency within {opts.max_picard_iters} iterations "
                    f"at step {i} (last difference {norms[-1]:.3g})"
                )
            u = y
            x = e + np.asarray(driver.fn(t, u, z), dtype=float) * dt
        dk[i] = k
        iterations[i], diff_norms[i] = len(norms), norms
        ys.append(sc.RandomVariable(i, y))
        zs.append(sc.RandomVariable(i, z))
    ys.reverse()
    zs.reverse()
    diag = SolveDiagnostics(
        window_bounds=[(i, i + 1) for i in range(m)],
        iterations=iterations,
        diff_norms=diff_norms,
    )
    k_values = np.concatenate(([0.0], np.cumsum(dk)))
    return _finalize(scen, ys, zs, k_values, shift_iters, problem, diag)


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

    One backward pass: at each step the level is rolled back, lifted by its
    minimal shift, and, for a generator that reads ``y``, re-rolled with the
    lifted level until the two agree to ``picard_tol``.
    """
    opts = opts or SolveOptions()
    problem = mean_constraint_problem(scen, loss, exp, opts.operator_tol)
    return _solve_with_problem(scen, claim, driver, problem, opts)
