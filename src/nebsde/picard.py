"""The reflected backward recursion.

With a deterministic flow, the mean-reflected scheme is one backward
recursion ``Y_i = E_i[Y_{i+1}] + f(t_i, Y_i, Z_i) dt + dK_i`` from
``Y_m = claim``, where ``dK_i`` is the minimal lift
(:func:`nebsde.reflection.lift`) that makes level ``i < m`` meet its
constraint.  :func:`nebsde.bsde.solve_bsde` runs it, the plain backward
loop with the lift applied after each step; a generator that reads ``y``
makes each step a fixed point in ``(Y_i, dK_i)``, found by successive
approximation within the step, and every pass's difference is kept as
evidence.  The constraint value the final lift verified is kept as
``constraint_values[i]``; :func:`nebsde.reflection.skorokhod_residual`
audits it from scratch.  ``Y_m`` is the claim as it is; its constraint
value ``constraint_values[m]`` need only be ``>= -FEASIBILITY_TOL``.

Flat-off rule: ``K`` moves only where the constraint binds, so above the
last level ``j*`` at which the unreflected solution ``X`` (the plain
recursion from the claim) violates its constraint, ``K`` is flat and
``Y = X`` (Briand, Elie and Hu, "BSDEs with mean reflection", 2018).  Where
the problem can evaluate a stack of levels at once
(``ReflectionProblem.constraint_stack``: a mean constraint under a
g-expectation or alpha-maxmin on the tree, where one evaluation is a tree
roll-back), the solve runs the plain recursion, evaluates every level's
constraint on ``X`` in one stacked roll-back, finds ``j*`` and runs the
lifted recursion only from ``X_{j*+1}`` down.  The levels above ``j*``
keep ``X``, their stacked constraint values, shift 0 and one pass of
difference 0.0, which is what the level-by-level recursion records there.
Every other problem (the classical mean, the risk constraint, Monte Carlo
paths), where one evaluation is a dot product or a regression, lifts level
by level from the claim.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bsde as bs
from . import expectations as ne
from . import reflection as rf
from . import scenarios as sc
from .errors import InfeasibleProblemError


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
) -> rf.ReflectedSolution:
    sc.check_rv(scen, claim.rv)
    m = scen.grid.steps
    if claim.index != m:
        raise ValueError("claim must live on the terminal level")
    term = problem.constraint(m, claim.values)
    if term < -rf.FEASIBILITY_TOL:
        raise InfeasibleProblemError(
            f"terminal constraint value {term:.3g} < -{rf.FEASIBILITY_TOL:g}"
        )

    shift_iters = np.zeros(m + 1, dtype=int)
    cons = np.zeros(m + 1)
    cons[m] = term

    def lift(i, x):
        k, steps, cons[i] = rf.lift(problem, i, x)
        shift_iters[i] += steps
        return k

    if problem.constraint_stack is None:
        pair = bs.solve_bsde(scen, claim, driver, lift=lift)
    else:
        pair = _flat_off_pair(scen, claim, driver, problem, cons, lift)
    flow = rf.ReflectorFlow(np.concatenate(([0.0], np.cumsum(pair.shifts[:-1]))))
    binding = pair.shifts > 0.0
    diag = rf.ReflectionDiagnostics(
        constraint_values=cons,
        skorokhod_residual=float(np.sum(cons[:-1] * flow.increments)),
        shift_iterations=shift_iters,
        shift_closed_form=int(np.count_nonzero(binding & (shift_iters == 0))),
        shift_search=int(np.count_nonzero(binding & (shift_iters > 0))),
    )
    picard_diag = SolveDiagnostics(
        window_bounds=[(i, i + 1) for i in range(m)],
        iterations=[len(norms) for norms in pair.diff_norms],
        diff_norms=list(pair.diff_norms),
    )
    return rf.ReflectedSolution(
        Y=pair.Y, Z=pair.Z, K=flow, diagnostics=diag, picard=picard_diag
    )


def _flat_off_pair(
    scen: sc.ScenarioSet,
    claim: bs.TerminalClaim,
    driver: bs.Driver,
    problem: rf.ReflectionProblem,
    cons: np.ndarray,
    lift,
) -> bs.BsdePair:
    """The lifted recursion run from the last level the plain one violates.

    Fills ``cons[:m]`` with the constraint of every plain level; the lifted
    solve overwrites it from the restart level down.  When level ``m - 1``
    already violates, the lifted solve starts from the claim and no level
    is stacked.
    """
    m = claim.index
    plain = bs.solve_bsde(scen, claim, driver)
    top = m
    if problem.constraint(m - 1, plain.Y[m - 1].values) >= 0.0:
        cons[:m] = problem.constraint_stack(plain.Y[:m])
        violated = np.flatnonzero(cons[:m] < 0.0)
        top = int(violated[-1]) + 1 if violated.size else 0
    # a level that holds is x + 0.0, as a lift of 0 leaves it
    held = [sc.RandomVariable(y.index, y.values + 0.0) for y in plain.Y[top:m]] + [claim.rv]
    low = bs.solve_bsde(scen, bs.TerminalClaim(held[0]), driver, lift=lift)
    shifts = np.zeros(m + 1)
    shifts[:top] = low.shifts[:top]
    return bs.BsdePair(Y=low.Y + tuple(held[1:]), Z=low.Z + plain.Z[top:], shifts=shifts,
                       diff_norms=low.diff_norms + ((0.0,),) * (m - top))


def solve_reflected(
    scen: sc.ScenarioSet,
    claim: bs.TerminalClaim,
    driver: bs.Driver,
    loss: rf.LossFunction,
    exp: ne.NonlinearExpectation,
) -> rf.ReflectedSolution:
    """Reflected solve under the mean constraint ``E[l(t, Y_t)] >= 0``.

    One backward pass: at each step the level is rolled back, lifted by its
    minimal shift, and, for a generator that reads ``y``, re-rolled with the
    lifted level until the two agree to ``bsde.PICARD_TOL``.  Under a
    g-expectation or alpha-maxmin on the tree the pass starts at the last
    level the unreflected solution violates (the flat-off rule above).
    """
    ne.check_operator(exp, scen)
    problem = rf.mean_constraint_problem(scen, loss, exp)
    return _solve_with_problem(scen, claim, driver, problem)
