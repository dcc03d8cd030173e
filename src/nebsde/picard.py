"""The reflected backward recursion.

With a deterministic flow, the mean-reflected scheme is one backward
recursion ``Y_i = E_i[Y_{i+1}] + f(t_i, Y_i, Z_i) dt + dK_i``, where ``dK_i``
is the minimal lift (:func:`nebsde.reflection.lift`) that makes level ``i``
meet its constraint.  A generator that reads ``y`` makes each step a fixed
point in ``(Y_i, dK_i)``; it is found by successive approximation within
the step, and every pass's difference is kept as evidence.  The constraint
value the final lift verified is kept as ``constraint_values[i]``;
:func:`nebsde.reflection.skorokhod_residual` audits it from scratch.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def _solve_with_problem(
    scen: sc.ScenarioSet,
    claim: bs.TerminalClaim,
    driver: bs.Driver,
    problem: rf.ReflectionProblem,
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
    shifts = np.zeros(m + 1)
    cons = np.zeros(m + 1)
    shifts[m], shift_iters[m], cons[m] = rf.lift(problem, m, claim.values, opts.operator_tol)
    y = claim.values + shifts[m]
    ys, zs = [sc.RandomVariable(m, y)], []
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
            k, steps, cons[i] = rf.lift(problem, i, x, opts.operator_tol)
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
        shifts[i] = k
        iterations[i], diff_norms[i] = len(norms), norms
        ys.append(sc.RandomVariable(i, y))
        zs.append(sc.RandomVariable(i, z))
    ys.reverse()
    zs.reverse()
    flow = rf.ReflectorFlow(np.concatenate(([0.0], np.cumsum(shifts[:-1]))))
    binding = shifts > 0.0
    diag = rf.ReflectionDiagnostics(
        constraint_values=cons,
        skorokhod_residual=float(np.sum(cons[:-1] * flow.increments)),
        shift_iterations=shift_iters,
        shift_closed_form=int(np.count_nonzero(binding & (shift_iters == 0))),
        shift_search=int(np.count_nonzero(binding & (shift_iters > 0))),
    )
    picard_diag = SolveDiagnostics(
        window_bounds=[(i, i + 1) for i in range(m)],
        iterations=iterations,
        diff_norms=diff_norms,
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
    ne.check_operator(exp, scen)
    problem = rf.mean_constraint_problem(scen, loss, exp)
    return _solve_with_problem(scen, claim, driver, problem, opts or SolveOptions())
