"""The reflected backward recursion.

With a deterministic flow, the mean-reflected scheme is one backward
recursion ``Y_i = E_i[Y_{i+1}] + f(t_i, Y_i, Z_i) dt + dK_i`` from
``Y_m = claim``, where ``dK_i`` is the least increment that makes level
``i < m`` meet its constraint: one root per date, the minimal-flow
construction of Briand, Elie and Hu ("BSDEs with mean reflection", 2018).
:func:`nebsde.bsde.solve_bsde` runs it with :func:`nebsde.reflection.lift`
as its lift: a translation of the step, or, for a generator that reads
``y`` and is not declared affine in it, the step taken with ``dK_i``.  The
constraint value the final lift verified is kept as ``constraint_values[i]``;
:func:`nebsde.reflection.skorokhod_residual` audits it from scratch.  ``Y_m`` is the claim as it is; its constraint
value ``constraint_values[m]`` need only be ``>= -FEASIBILITY_TOL``.

Flat-off rule: ``K`` moves only where the constraint binds, so above the
last level ``j*`` at which the unreflected solution ``X`` (the plain
recursion from the claim) violates its constraint, ``K`` is flat and ``Y =
X`` (the same paper).  Where the problem can evaluate a stack of levels at
once (``ReflectionProblem.constraint_stack``: a mean constraint under a
g-expectation or alpha-maxmin on the tree, where one evaluation is a tree
roll-back), the solve first takes the plain step to level ``m - 1``; when
that level violates, ``j* = m - 1`` and the lifted recursion starts from
the claim.  Otherwise it runs the rest of the plain recursion and
evaluates every level's constraint on ``X`` in one stacked roll-back to
find ``j*``.  The one lifted recursion then starts from the plain level
``j* + 1``, and ``X``'s own levels above it join the solution with their
stacked constraint values and shift 0, as the level-by-level recursion
records them (its constraint values bit for bit under closed-form and
explicit drivers, within the sweep tolerance under other drivers that read
``y``).
Every other problem (the classical mean, the risk constraint, Monte Carlo
paths), where one evaluation is a dot product or a regression, lifts every
level from the claim.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bsde as bs
from . import expectations as ne
from . import reflection as rf
from . import scenarios as sc
from .errors import FixedPointError, InfeasibleProblemError, SupportMismatchError


@dataclass
class SolveDiagnostics:
    """Per-step constants, kept while perfbench/tracing.py reads them: step ``i`` spans
    ``window_bounds[i] = (i, i + 1)`` in ``iterations[i] = 1`` pass; ``attempts`` is 1."""

    window_bounds: list
    iterations: list
    attempts: int = 1


def _solve_with_problem(
    scen: sc.ScenarioSet,
    claim: sc.RandomVariable,
    driver: bs.Driver,
    problem: rf.ReflectionProblem,
) -> rf.ReflectedSolution:
    """Reflected solve of the terminal ``claim``, in one ``np.errstate`` without overflow and
    invalid-value warnings, where a ``ValueError`` (a level that is not finite) is a
    ``FixedPointError``; a ``SupportMismatchError`` passes through."""
    sc.check_rv(scen, claim)
    m = scen.grid.steps
    if claim.index != m:
        raise ValueError("claim must live on the terminal level")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            term = problem.constraint(m, claim.values)
            if term < -rf.FEASIBILITY_TOL:
                raise InfeasibleProblemError(
                    f"terminal constraint value {term:.3g} < -{rf.FEASIBILITY_TOL:g}"
                )
            shift_iters = np.zeros(m + 1, dtype=int)
            cons = np.zeros(m + 1)
            cons[m] = term
            ys, zs = (claim,), ()
            if problem.constraint_stack is not None:
                ys, zs = _flat_off_top(scen, claim, driver, problem, cons)

            q = driver.lipschitz * scen.grid.dt

            def lift(i, u, level):
                k, shift_iters[i], cons[i] = rf.lift(problem, i, u, level, q)
                return k

            # the lifted pass starts from the plain level above the last violated one
            pair = bs.solve_bsde(scen, ys[0], driver, lift=lift)
            shifts = np.concatenate((pair.shifts, np.zeros(len(zs))))
            flow = rf.ReflectorFlow(np.concatenate(([0.0], np.cumsum(shifts[:-1]))))
            # huge values and increments read inf
            residual = float(np.sum(cons[:-1] * flow.increments))
    except SupportMismatchError:
        raise
    except ValueError as exc:
        raise FixedPointError(f"non-finite level in the reflected solve: {exc}") from exc
    binding = shifts > 0.0
    diag = rf.ReflectionDiagnostics(
        constraint_values=cons,
        skorokhod_residual=residual,
        shift_iterations=shift_iters,
        shift_closed_form=int(np.count_nonzero(binding & (shift_iters == 0))),
        shift_search=int(np.count_nonzero(binding & (shift_iters > 0))),
    )
    picard_diag = SolveDiagnostics(window_bounds=[(i, i + 1) for i in range(m)],
                                   iterations=[1] * m)
    return rf.ReflectedSolution(
        Y=pair.Y + ys[1:], Z=pair.Z + zs, K=flow, diagnostics=diag, picard=picard_diag
    )


def _flat_off_top(
    scen: sc.ScenarioSet,
    claim: sc.RandomVariable,
    driver: bs.Driver,
    problem: rf.ReflectionProblem,
    cons: np.ndarray,
) -> tuple:
    """``(Y, Z)`` of the plain recursion from one past the last level it violates up.

    Fills ``cons[:m]`` with the constraint of every plain level, from one
    stacked evaluation; the lifted solve overwrites it below that level.
    Takes the plain step to level ``m - 1`` first: when that level already
    violates, returns the claim alone, and steps and stacks no other level.
    """
    m = claim.index
    e, z = sc.step_fit(scen, claim.values, m - 1)
    try:
        z_first = sc.RandomVariable(m - 1, z)
        y_first = sc.RandomVariable(m - 1, bs.implicit_step(
            driver, float(scen.grid.nodes[m - 1]), e, z, scen.grid.dt))
    except ValueError:
        # a step that is not finite: the plain solve raises its own error
        bs.solve_bsde(scen, claim, driver)
        raise
    if problem.constraint(m - 1, y_first.values) < 0.0:
        return (claim,), ()
    rest = bs.solve_bsde(scen, y_first, driver)
    ys, zs = rest.Y + (claim,), rest.Z + (z_first,)
    cons[:m] = problem.constraint_stack(ys[:m])
    violated = np.flatnonzero(cons[:m] < 0.0)
    top = int(violated[-1]) + 1 if violated.size else 0
    return ys[top:], zs[top:]


def solve_reflected(
    scen: sc.ScenarioSet,
    claim: sc.RandomVariable,
    driver: bs.Driver,
    loss: rf.LossFunction,
    exp: ne.NonlinearExpectation,
) -> rf.ReflectedSolution:
    """Reflected solve under the mean constraint ``E[l(t, Y_t)] >= 0``.

    One backward pass: at each step the level is rolled back and lifted
    once (see above).  Under a g-expectation or alpha-maxmin on the tree
    the lifted pass starts above the last level the unreflected solution
    violates (the flat-off rule above).
    """
    ne.check_operator(exp, scen)
    problem = rf.mean_constraint_problem(scen, loss, exp)
    return _solve_with_problem(scen, claim, driver, problem)
