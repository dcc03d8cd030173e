"""The reflected backward recursion.

With a deterministic flow, the mean-reflected scheme is one backward
recursion ``Y_i = E_i[Y_{i+1}] + f(t_i, Y_i, Z_i) dt + dK_i`` from
``Y_m = claim``, where ``dK_i`` is the minimal lift
(:func:`nebsde.reflection.lift`) that makes level ``i < m`` meet its
constraint.  :func:`nebsde.bsde.solve_bsde` runs it, the plain backward
loop with the lift applied after each step; a generator that reads ``y``
makes each step a fixed point in ``(Y_i, dK_i)``, found by successive
approximation within the step, and every pass's difference is kept as
evidence.  A generator declared affine in ``y`` (``Driver.y_coefficient =
a``) has that fixed point in closed form, ``Y_i = u + c`` and ``dK_i =
c*(1 - a*dt)`` with ``u`` the exact step and ``c`` its one lift, so each
of its steps records one pass.  The constraint value the final lift
verified is kept as ``constraint_values[i]``; :func:`nebsde.reflection.skorokhod_residual`
audits it from scratch.  ``Y_m`` is the claim as it is; its constraint
value ``constraint_values[m]`` need only be ``>= -FEASIBILITY_TOL``.

Flat-off rule: ``K`` moves only where the constraint binds, so above the
last level ``j*`` at which the unreflected solution ``X`` (the plain
recursion from the claim) violates its constraint, ``K`` is flat and
``Y = X`` (Briand, Elie and Hu, "BSDEs with mean reflection", 2018).  Where
the problem can evaluate a stack of levels at once
(``ReflectionProblem.constraint_stack``: a mean constraint under a
g-expectation or alpha-maxmin on the tree, where one evaluation is a tree
roll-back), the solve first runs the plain recursion and evaluates every
level's constraint on ``X`` in one stacked roll-back to find ``j*``.  The
one lifted recursion then lifts nothing above ``j*``: those levels come
out as ``X``, with their stacked constraint values, shift 0 and one pass
of difference 0.0, as the level-by-level recursion records them (its
constraint values bit for bit under closed-form and explicit drivers,
within the sweep tolerance under other drivers that read ``y``), and no
constraint is evaluated there.  Every other problem (the classical
mean, the risk constraint, Monte Carlo paths), where one evaluation is a
dot product or a regression, lifts every level from the claim.
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
    top = m
    if problem.constraint_stack is not None:
        top = _flat_off_top(scen, claim, driver, problem, cons)

    def lift(i, x):
        # above the last violated plain level the lift is 0 (flat off)
        if i >= top:
            return 0.0
        k, steps, cons[i] = rf.lift(problem, i, x)
        shift_iters[i] += steps
        return k

    pair = bs.solve_bsde(scen, claim, driver, lift=lift)
    flow = rf.ReflectorFlow(np.concatenate(([0.0], np.cumsum(pair.shifts[:-1]))))
    binding = pair.shifts > 0.0
    with np.errstate(over="ignore"):  # huge values and increments read inf
        residual = float(np.sum(cons[:-1] * flow.increments))
    diag = rf.ReflectionDiagnostics(
        constraint_values=cons,
        skorokhod_residual=residual,
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


def _flat_off_top(
    scen: sc.ScenarioSet,
    claim: bs.TerminalClaim,
    driver: bs.Driver,
    problem: rf.ReflectionProblem,
    cons: np.ndarray,
) -> int:
    """One past the last level the plain recursion violates.

    Fills ``cons[:m]`` with the constraint of every plain level, from one
    stacked evaluation; the lifted solve overwrites it below the returned
    level.  When level ``m - 1`` already violates, returns ``m`` and stacks
    no level.
    """
    m = claim.index
    plain = bs.solve_bsde(scen, claim, driver)
    if problem.constraint(m - 1, plain.Y[m - 1].values) < 0.0:
        return m
    cons[:m] = problem.constraint_stack(plain.Y[:m])
    violated = np.flatnonzero(cons[:m] < 0.0)
    return int(violated[-1]) + 1 if violated.size else 0


def solve_reflected(
    scen: sc.ScenarioSet,
    claim: bs.TerminalClaim,
    driver: bs.Driver,
    loss: rf.LossFunction,
    exp: ne.NonlinearExpectation,
) -> rf.ReflectedSolution:
    """Reflected solve under the mean constraint ``E[l(t, Y_t)] >= 0``.

    One backward pass: at each step the level is rolled back, lifted by its
    minimal shift, and, for a generator that reads ``y`` and is not declared
    affine in it, re-rolled with the lifted level until the two agree to
    ``bsde.PICARD_TOL``.  Under a g-expectation or alpha-maxmin on the tree
    the pass lifts nothing above the last level the unreflected solution
    violates (the flat-off rule above).
    """
    ne.check_operator(exp, scen)
    problem = rf.mean_constraint_problem(scen, loss, exp)
    return _solve_with_problem(scen, claim, driver, problem)
