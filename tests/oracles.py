"""Scenario helpers that only the tests use.

:func:`girsanov_weights` is the per-kernel terminal Girsanov density that
the Monte Carlo rows of :func:`nebsde.scenarios.tilt_table` replaced; it
stays here as their oracle.  :func:`gexp_value` and :func:`evaluate_alone`
are the one-claim-at-a-time evaluation that
:func:`nebsde.expectations.evaluate_levels` replaced, kept as its oracle.
"""

import numpy as np

from nebsde import _kernels as kern
from nebsde import bsde as bs
from nebsde import scenarios as sc


def brownian_rv(scen: sc.ScenarioSet, i: int) -> sc.RandomVariable:
    """The Brownian coordinates at index ``i`` as a random variable."""
    return sc.RandomVariable(i, sc.brownian(scen, i).copy())


def girsanov_weights(scen: sc.ScenarioSet, theta: float) -> sc.RandomVariable:
    """Exponential-tilt density ``exp(theta*B_T - theta^2*T/2)``, renormalised.

    The raw exponential has mean 1 only in the Gaussian limit; the weights
    are divided by their scenario mean so the tilt is an exact probability
    reweighting on the discrete support.  The renormalisation cancels any
    constant factor, so the exponent is taken relative to the extreme
    coordinate ``B*`` (the largest for ``theta > 0``, the smallest below) as
    ``theta*(B_T - B*) <= 0``, which overflows only to ``-inf``: a huge
    kernel puts all its mass on the extreme paths, its limit.
    """
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    m = scen.grid.steps
    b = sc.brownian(scen, m)
    with np.errstate(over="ignore"):
        raw = np.exp(theta * (b - (np.max(b) if theta > 0.0 else np.min(b))))
    return sc.RandomVariable(m, raw / sc.expect(scen, sc.RandomVariable(m, raw)))


def gexp_value(scen: sc.ScenarioSet, rv: sc.RandomVariable, driver: bs.Driver) -> float:
    """The g-expectation of ``driver`` of the one claim ``rv``.

    The claim is continued to the horizon on its own, then rolled back by the
    one-row tree kernel or, on Monte Carlo paths, by one backward solve.
    """
    sc.check_rv(scen, rv)
    grid = scen.grid
    (vals,) = bs.zero_noise_continuation(driver, [rv], grid)
    if scen.mode == "tree":
        return kern.tree_backward_value(vals, grid.dt, driver, grid.nodes)
    return bs.solve_bsde(scen, bs.TerminalClaim(sc.RandomVariable(rv.index, vals)), driver).value


def evaluate_alone(exp, scen: sc.ScenarioSet, rv: sc.RandomVariable) -> float:
    """The value of the one claim ``rv`` under ``exp``: its scenario mean, or
    :func:`gexp_value` of each envelope, blended."""
    sc.check_rv(scen, rv)
    if exp.kind == "classical":
        return sc.level_mean(scen, rv.index, rv.values)
    return exp.blend(lambda driver: gexp_value(scen, rv, driver))
