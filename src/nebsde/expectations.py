"""Nonlinear expectation operators over a scenario set.

Three families share one evaluation entry point:

* ``classical``: the scenario mean, with domination slope ``kappa = 0``.
* ``gexp``: the value at time 0 of the BSDE driven by a generator that
  vanishes at ``(y, z) = (0, 0)``; ``kappa`` is its Lipschitz constant.
* ``alpha_maxmin``: the convex mix ``alpha * sup + (1 - alpha) * inf`` of the
  ``+-kappa*|z|`` g-expectations, which is constant-preserving.

A claim living on an interior level is first taken through the dates after
its own with z frozen at 0 (the conditional system degenerates to scalar ODEs
there) by the one continuation, :func:`nebsde.bsde.zero_noise_continuation`,
then rolled back by the one tree kernel for every driver or, on Monte Carlo
paths, by :func:`nebsde.bsde.solve_bsde`.  On the tree, claims on many
levels share one stacked continuation and roll-back (:func:`evaluate_levels`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels as kern
from . import bsde as bs
from . import scenarios as sc


@dataclass(frozen=True)
class NonlinearExpectation:
    """A nonlinear expectation operator.

    Every generator vanishes at the origin, which gives ``E[0] = 0``.  The
    classical mean and ``alpha_maxmin`` preserve every constant, and so does
    a g-expectation whose driver ignores ``y``; one whose driver reads ``y``
    need not (``kappa_abs(0.3)`` gives ``E[2] = 2.702`` on a 50-step tree).
    ``driver`` is the ``gexp`` generator, or the upper ``kappa*|z|``
    generator of ``alpha_maxmin``, whose value ``alpha`` weighs against the
    lower one; its Lipschitz constant is the domination slope :attr:`kappa`.
    """

    kind: str
    driver: bs.Driver | None = None
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in ("classical", "gexp", "alpha_maxmin"):
            raise ValueError(f"unknown expectation kind {self.kind!r}")
        if self.kind != "classical" and self.driver is None:
            raise ValueError(f"{self.kind} expectation needs a driver")
        if self.kind == "alpha_maxmin" and not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.kind == "alpha_maxmin" and self.driver.kappa_structure != (self.kappa, False):
            raise ValueError("alpha_maxmin needs the upper driver kappa*|z| with kappa >= 0")

    @property
    def kappa(self) -> float:
        """Domination constant: the driver's Lipschitz constant, 0 for the mean."""
        return 0.0 if self.kind == "classical" else self.driver.lipschitz

    @cached_property
    def envelopes(self) -> tuple:
        """``(weight, driver)`` of each g-expectation the operator blends.

        ``gexp`` is its own driver at weight 1; ``alpha_maxmin`` is
        ``alpha`` on the upper ``kappa*|z|`` and ``1 - alpha`` on the lower
        ``-kappa*|z|``.  The classical mean blends none.  Built on first
        access and kept, so every evaluation reads the same lower driver.
        """
        if self.kind == "classical":
            return ()
        if self.kind == "gexp":
            return ((1.0, self.driver),)
        return ((self.alpha, self.driver),
                (1.0 - self.alpha, bs.Driver.kappa_abs(-self.kappa, include_y=False)))

    def blend(self, value):
        """``sum(weight * value(driver))`` over :attr:`envelopes`, in their order.

        ``value`` maps a driver to a float or an array; a weight of 1 leaves
        it as it is, the sign of a zero included.
        """
        terms = [weight * value(driver) for weight, driver in self.envelopes]
        return sum(terms[1:], terms[0])

    @property
    def cash_additive(self) -> bool:
        """Whether ``E[X + c] = E[X] + c`` for every constant ``c``.

        True for the classical mean, for ``alpha_maxmin`` (a mix of two
        ``kappa*|z|`` g-expectations) and for a g-expectation whose driver
        ignores ``y``: a constant added to the claim then moves ``Y`` and
        leaves ``Z`` and the driver unchanged.  On Monte Carlo paths a
        g-expectation keeps this only up to the sampling error of its
        regression estimate of ``Z``.
        """
        return self.kind == "classical" or not self.driver.depends_on_y

    @staticmethod
    def classical() -> "NonlinearExpectation":
        return NonlinearExpectation(kind="classical")

    @staticmethod
    def gexp(driver: bs.Driver) -> "NonlinearExpectation":
        return NonlinearExpectation(kind="gexp", driver=driver)

    @staticmethod
    def alpha_maxmin(alpha: float, kappa: float) -> "NonlinearExpectation":
        return NonlinearExpectation(kind="alpha_maxmin", alpha=float(alpha),
                                    driver=bs.Driver.kappa_abs(kappa, include_y=False))


@dataclass(frozen=True)
class DominationReport:
    """Slack of the two-sided envelope around an operator difference."""

    difference: float
    lower_bound: float
    upper_bound: float

    @property
    def lower_slack(self) -> float:
        return self.difference - self.lower_bound

    @property
    def upper_slack(self) -> float:
        return self.upper_bound - self.difference


def check_vanishing(driver: bs.Driver, t_values) -> None:
    """Raise ``ValueError`` unless ``driver`` vanishes at ``(y, z) = (0, 0)`` at every ``t``.

    Vanishing at the origin gives ``E[0] = 0``.  A driver that also ignores
    ``y`` preserves every constant; one that reads ``y`` need not.
    """
    zero = np.zeros(1)
    for t in t_values:
        value = np.max(np.abs(np.asarray(driver.fn(float(t), zero, zero), dtype=float)))
        if not value <= 1e-12:
            raise ValueError(f"gexp driver must vanish at (y, z) = (0, 0); it is {value:.3g} "
                             f"at t={float(t):g}")


def check_operator(exp: NonlinearExpectation, scen: sc.ScenarioSet) -> None:
    """Raise ``ValueError`` when ``exp`` is not a valid operator on ``scen``.

    A generator must vanish at ``(y, z) = (0, 0)`` on every grid date
    (:func:`check_vanishing`).  On the tree the operator must be monotone:
    one step of a generator with z-slope ``k`` weights the two children by
    ``(1 +- k*sqrt(dt))/2``, so a larger claim keeps a larger value only
    while ``k*sqrt(dt) <= 1``; the minimal-shift search relies on that.
    ``k`` is the driver's Lipschitz constant when it depends on ``z``
    (``|kappa|`` for ``kappa*|z|``, as in ``alpha_maxmin``) and 0
    otherwise.  Monte Carlo paths are not checked for monotonicity.
    """
    if exp.kind == "classical":
        return
    check_vanishing(exp.driver, scen.grid.nodes)
    if scen.mode != "tree":
        return
    slope = exp.driver.lipschitz if exp.driver.depends_on_z else 0.0
    step = slope * np.sqrt(scen.grid.dt)
    if step > 1.0:
        raise ValueError(
            f"kappa * sqrt(dt) = {step:.3g} > 1: the operator is not monotone "
            "on this tree; use more steps or a smaller kappa"
        )


def _gexp_value(scen: sc.ScenarioSet, rv: sc.RandomVariable, driver: bs.Driver) -> float:
    sc.check_rv(scen, rv)
    grid = scen.grid
    (vals,) = bs.zero_noise_continuation(driver, [rv], grid)
    if scen.mode == "tree":
        return kern.tree_backward_value(vals, grid.dt, driver, grid.nodes)
    return bs.solve_bsde(scen, bs.TerminalClaim(sc.RandomVariable(rv.index, vals)), driver).value


def evaluate(exp: NonlinearExpectation, scen: sc.ScenarioSet, rv: sc.RandomVariable) -> float:
    """Value assigned to the claim ``rv`` by the operator ``exp``."""
    sc.check_rv(scen, rv)
    if exp.kind == "classical":
        return sc.expect(scen, rv)
    return exp.blend(lambda driver: _gexp_value(scen, rv, driver))


def rolls_back_on_tree(exp: NonlinearExpectation, scen: sc.ScenarioSet) -> bool:
    """Whether one evaluation of ``exp`` on ``scen`` is a tree roll-back.

    True for a g-expectation or ``alpha_maxmin`` on the tree; claims on many
    levels then share one stacked roll-back (:func:`evaluate_levels`).  The
    classical mean is one dot product and a Monte Carlo g-expectation one
    regression solve per claim, which a stack cannot share.
    """
    return scen.mode == "tree" and exp.kind != "classical"


def evaluate_levels(exp: NonlinearExpectation, scen: sc.ScenarioSet, rvs) -> np.ndarray:
    """``evaluate(exp, scen, rv)`` for every claim in ``rvs``.

    Where :func:`rolls_back_on_tree` holds, all claims take one stacked
    zero-noise continuation (:func:`nebsde.bsde.zero_noise_continuation`) and
    one stacked roll-back (:func:`nebsde._kernels.tree_backward_values`) per
    envelope; otherwise each claim is evaluated on its own.  The values are
    ``evaluate``'s bit for bit under closed-form and explicit drivers, and
    within the sweep tolerance under other drivers that read y.
    """
    if not rolls_back_on_tree(exp, scen):
        return np.array([evaluate(exp, scen, rv) for rv in rvs], dtype=float)
    for rv in rvs:
        sc.check_rv(scen, rv)
    grid = scen.grid

    def values(driver):
        levels = bs.zero_noise_continuation(driver, rvs, grid)
        return kern.tree_backward_values(levels, grid.dt, driver, grid.nodes)

    return exp.blend(values)


def domination_gap(
    exp: NonlinearExpectation,
    scen: sc.ScenarioSet,
    rv1: sc.RandomVariable,
    rv2: sc.RandomVariable,
) -> DominationReport:
    """Check ``E[X1] - E[X2]`` against its two-sided ``kappa``-envelope.

    The envelope is the pair of signed ``kappa*(|y| + |z|)`` values of the
    difference claim.
    """
    if rv1.index != rv2.index:
        raise ValueError("claims must live on the same grid index")
    diff = sc.RandomVariable(rv1.index, rv1.values - rv2.values)
    d = evaluate(exp, scen, rv1) - evaluate(exp, scen, rv2)
    lo = _gexp_value(scen, diff, bs.Driver.kappa_abs(-exp.kappa))
    hi = _gexp_value(scen, diff, bs.Driver.kappa_abs(exp.kappa))
    return DominationReport(difference=d, lower_bound=lo, upper_bound=hi)

