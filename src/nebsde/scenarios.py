"""Discrete Brownian scenario engines.

Two interchangeable backends over a uniform time grid:

* ``tree``: the recombining random walk with increments ``+-sqrt(dt)``,
  probability one half each.  Level ``i`` has ``i + 1`` nodes and carries
  exact binomial weights, so expectations and conditional expectations are
  exact (up to rounding) rather than sampled.
* ``montecarlo``: seeded Gaussian paths with per-step regression
  conditional expectations.  The basis at index ``i`` is the powers
  ``1, x, ..., x**basis_degree`` of the standardised coordinate
  ``x = B_i / sqrt(t_i)``, and the fit is plain least squares with no ridge,
  so ``n_paths`` must exceed ``basis_degree``.  At ``i = 0`` every path sits
  at 0 and the projection is the sample mean.  A backward step needs
  ``E_i[Y_{i+1}]`` and ``Z_i``, two projections onto the same basis
  (Gobet, Lemor and Warin, 2005), so :func:`step_fit` makes them one fit:
  one basis, one Gram matrix, solved once for both targets.

Exponential tilts, the Girsanov kernels of :mod:`nebsde.risk`, come as one
table per index (:func:`tilt_table`): a row per kernel holding its tilted
weights over the support, normalised, so the tilted means of a level are
the table times its values (:func:`tilted_means`).  On the tree a tilt of
the symmetric walk is again a binomial walk, and its row is closed-form.

Random variables are stored as value arrays over the support of a single
grid index.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import SupportMismatchError


def binomial_weights(n, p):
    """Binomial(``n``, ``p``) probabilities of ``0..n`` up-moves.

    Formed in log space (``log C(n, k)`` is a cumulative sum of
    ``log((n - k + 1) / k)``) and normalised by their sum, so no factor
    overflows and the weights sum to 1 up to rounding.  Above about 1,000
    steps the tail weights underflow to 0.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p == 0.0 or p == 1.0:
        w = np.zeros(n + 1)
        w[n if p == 1.0 else 0] = 1.0
        return w
    k = np.arange(n + 1)
    log_choose = np.zeros(n + 1)
    np.cumsum(np.log((n - k[1:] + 1) / k[1:]), out=log_choose[1:])
    logw = log_choose + k * np.log(p) + (n - k) * np.log1p(-p)
    w = np.exp(logw - np.max(logw))
    return w / np.sum(w)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition ``0 = t_0 < ... < t_m = T``."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not np.isfinite(self.horizon) or self.horizon <= 0.0:
            raise ValueError("horizon must be a positive finite number")
        if int(self.steps) != self.steps or self.steps < 1:
            raise ValueError("steps must be an integer >= 1")

    @cached_property
    def dt(self) -> float:
        return self.horizon / self.steps

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


@dataclass(frozen=True)
class RandomVariable:
    """Values of a grid-index-measurable quantity over its support.

    ``index`` is the grid index; ``values`` has one entry per tree node at
    that level (tree mode) or one entry per path (Monte Carlo mode).
    """

    index: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if self.index < 0:
            raise ValueError("index must be >= 0")
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("values must be a non-empty 1-d array")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")


@dataclass(frozen=True, repr=False)
class ScenarioSet:
    """A realised scenario backend bound to a time grid.

    Built through :func:`build_scenarios`.  Tree mode precomputes node
    coordinates and binomial weights per level; Monte Carlo mode stores the
    simulated Brownian paths and the regression basis degree.
    """

    grid: TimeGrid
    mode: str
    n_paths: int = 0
    seed: int = 0
    basis_degree: int = 3
    tree_values: tuple = field(default=(), compare=False)
    tree_weights: tuple = field(default=(), compare=False)
    paths: np.ndarray | None = field(default=None, compare=False)

    def __repr__(self):
        extra = f", n_paths={self.n_paths}, seed={self.seed}" if self.mode == "montecarlo" else ""
        return f"ScenarioSet(mode={self.mode!r}, T={self.grid.horizon}, m={self.grid.steps}{extra})"


def build_scenarios(
    grid: TimeGrid,
    mode: str = "tree",
    n_paths: int = 0,
    seed: int = 0,
    basis_degree: int = 3,
) -> ScenarioSet:
    """Construct a scenario set on ``grid``.

    Parameters
    ----------
    grid : TimeGrid
    mode : str
        ``"tree"`` or ``"montecarlo"``.
    n_paths : int
        Number of simulated paths (Monte Carlo only, must exceed
        ``basis_degree`` so the least-squares fit is determined).
    seed : int
        Seed for the path generator (Monte Carlo only).
    basis_degree : int
        Highest power of the regression basis (Monte Carlo only, must be
        >= 1).
    """
    if mode == "tree":
        m = grid.steps
        sq = np.sqrt(grid.dt)
        values = tuple(
            (2.0 * np.arange(i + 1) - i) * sq for i in range(m + 1)
        )
        weights = tuple(binomial_weights(i, 0.5) for i in range(m + 1))
        return ScenarioSet(grid, "tree", tree_values=values, tree_weights=weights)
    if mode == "montecarlo":
        if basis_degree < 1:
            raise ValueError("basis_degree must be >= 1")
        if n_paths <= basis_degree:
            raise ValueError(
                f"montecarlo mode needs n_paths > basis_degree = {basis_degree}"
            )
        rng = np.random.default_rng(seed)
        steps = rng.standard_normal((n_paths, grid.steps)) * np.sqrt(grid.dt)
        paths = np.zeros((n_paths, grid.steps + 1))
        np.cumsum(steps, axis=1, out=paths[:, 1:])
        return ScenarioSet(
            grid,
            "montecarlo",
            n_paths=n_paths,
            seed=seed,
            basis_degree=basis_degree,
            paths=paths,
        )
    raise ValueError(f"unknown scenario mode {mode!r}")


def support_size(scen: ScenarioSet, i: int) -> int:
    if i < 0 or i > scen.grid.steps:
        raise ValueError(f"index {i} outside grid 0..{scen.grid.steps}")
    return (i + 1) if scen.mode == "tree" else scen.n_paths


def check_rv(scen: ScenarioSet, rv: RandomVariable) -> None:
    """Raise unless ``rv`` matches the scenario support at its index."""
    expected = support_size(scen, rv.index)
    if rv.values.size != expected:
        raise SupportMismatchError(
            f"support size {rv.values.size} at index {rv.index}, expected {expected}"
        )


def brownian(scen: ScenarioSet, i: int) -> np.ndarray:
    """Brownian coordinates over the support at index ``i``."""
    if scen.mode == "tree":
        support_size(scen, i)
        return scen.tree_values[i]
    support_size(scen, i)
    return scen.paths[:, i]


def brownian_rv(scen: ScenarioSet, i: int) -> RandomVariable:
    return RandomVariable(i, brownian(scen, i).copy())


def expect(scen: ScenarioSet, rv: RandomVariable) -> float:
    """Expectation of ``rv`` under the scenario measure."""
    check_rv(scen, rv)
    if scen.mode == "tree":
        return float(scen.tree_weights[rv.index] @ rv.values)
    return float(rv.values.mean())


def _basis(scen: ScenarioSet, i: int) -> np.ndarray:
    """Powers ``1, x, ..., x**basis_degree`` of ``x = B_i / sqrt(t_i)``, one per column.

    ``B_i`` has variance ``t_i``, so the columns keep the scale of the
    standard normal moments at every index; they are built by repeated
    multiplication (a float raised to an integer array goes through ``pow``
    element by element).  The array is column-major, so each power is one
    contiguous run of memory.
    """
    x = scen.paths[:, i] / np.sqrt(scen.grid.nodes[i])
    a = np.empty((scen.basis_degree + 1, x.size))
    a[0] = 1.0
    for k in range(1, scen.basis_degree + 1):
        np.multiply(a[k - 1], x, out=a[k])
    return a.T


def _project(scen: ScenarioSet, i: int, targets: np.ndarray) -> np.ndarray:
    """Least-squares projection of ``targets`` onto the basis at index ``i``.

    ``targets`` is one target of shape ``(n_paths,)`` or a stack of shape
    ``(n_paths, k)``, one target per column, all fitted with one Gram
    matrix.  Every path starts at 0, so at ``i = 0`` the projection is the
    mean.
    """
    if i == 0:
        return np.full(targets.shape, targets.mean(axis=0))
    a = _basis(scen, i)
    coef = np.linalg.solve(a.T @ a, a.T @ targets)
    # fitted values column-major, one contiguous column per target
    return (coef.T @ a.T).T


def step_expect(scen: ScenarioSet, next_values: np.ndarray, i: int) -> np.ndarray:
    """One-step conditional expectation of level ``i + 1`` values onto ``i``."""
    if scen.mode == "tree":
        return 0.5 * (next_values[:-1] + next_values[1:])
    return _project(scen, i, next_values)


def step_z(scen: ScenarioSet, next_values: np.ndarray, i: int) -> np.ndarray:
    """One-step estimate of the martingale integrand over ``[t_i, t_{i+1})``."""
    dt = scen.grid.dt
    if scen.mode == "tree":
        return (next_values[1:] - next_values[:-1]) * (0.5 / np.sqrt(dt))
    db = scen.paths[:, i + 1] - scen.paths[:, i]
    return _project(scen, i, next_values * db / dt)


def step_fit(scen: ScenarioSet, next_values: np.ndarray, i: int) -> tuple:
    """``(step_expect, step_z)`` of level ``i + 1`` values onto ``i``, as one fit.

    On the tree these are the two calls.  On Monte Carlo paths both are
    projections onto the basis at ``i``, so one projection takes the two
    targets ``Y_{i+1}`` and ``Y_{i+1}*dB_i/dt`` as a stack.
    """
    if scen.mode == "tree":
        return step_expect(scen, next_values, i), step_z(scen, next_values, i)
    targets = np.empty((2, next_values.size))
    targets[0] = next_values
    np.multiply(next_values, scen.paths[:, i + 1] - scen.paths[:, i], out=targets[1])
    targets[1] /= scen.grid.dt
    fit = _project(scen, i, targets.T)
    # two arrays of their own: a column view would keep the pair alive as
    # long as the solution keeps Z
    return fit[:, 0].copy(), fit[:, 1].copy()


def cond_expect(scen: ScenarioSet, rv: RandomVariable, i: int) -> RandomVariable:
    """Conditional expectation of ``rv`` at the earlier index ``i``.

    Tree mode iterates exact pairwise averages; Monte Carlo mode chains
    per-step regression projections.
    """
    check_rv(scen, rv)
    if i < 0 or i > rv.index:
        raise ValueError(f"target index {i} must lie in 0..{rv.index}")
    vals = rv.values
    for j in range(rv.index - 1, i - 1, -1):
        vals = step_expect(scen, vals, j)
    return RandomVariable(i, vals)


def girsanov_weights(scen: ScenarioSet, theta: float) -> RandomVariable:
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
    b = brownian(scen, m)
    with np.errstate(over="ignore"):
        raw = np.exp(theta * (b - (np.max(b) if theta > 0.0 else np.min(b))))
    w = RandomVariable(m, raw)
    return RandomVariable(m, raw / expect(scen, w))


def tilt_table(scen: ScenarioSet, kernels, i: int) -> np.ndarray:
    """The ``(kernels, support)`` table of tilted weights at index ``i``, each row summing to 1.

    ``kernels`` is a scalar or a 1-d array of finite tilt slopes ``theta``;
    a kernel's tilted mean of values ``x`` at index ``i`` is its row times
    ``x`` (:func:`tilted_means`).  Each exponent is taken relative to the
    kernel's extreme coordinate ``B*`` (the largest for ``theta > 0``, the
    smallest otherwise) as ``theta*(B - B*) <= 0``, which overflows only to
    ``-inf``, so a huge kernel puts all its mass on the extreme node or
    path, its limit.

    On the tree the tilt is closed-form: ``E[exp(theta*(B_T - B_i)) | F_i]``
    is the constant ``cosh(theta*sqrt(dt))**(m - i)``, so the tilt seen at
    level ``i`` is the level's own binomial weights times
    ``exp(theta*(B_i - B*))``, normalised.  That product is formed directly.
    A row whose sum falls below ``n * 2**-970`` (``n`` nodes) may hold
    subnormal weights that matter, and a huge kernel's can underflow to 0
    everywhere (kernel 800 at 1,100 levels); such rows are formed in log
    space instead, ``exp(log w + theta*(B_i - B*) - max)``, where only the
    nodes whose binomial weight underflows to 0 (above about 1,075 levels)
    carry no mass, the same limit :func:`expect` has.  On Monte Carlo paths
    each row is the kernel's terminal Girsanov density over the paths,
    normalised to sum 1, whatever ``i``.
    """
    thetas = np.atleast_1d(np.asarray(kernels, dtype=float))
    if thetas.ndim != 1:
        raise ValueError("theta must be a scalar or a 1-d array")
    if not np.isfinite(thetas).all():
        raise ValueError("theta must be finite")
    support_size(scen, i)
    if scen.mode == "montecarlo":
        # every path weighs the same, and the density is the terminal one
        b, w = scen.paths[:, -1], 1.0
        extreme = np.where(thetas > 0.0, b.max(), b.min())
    else:
        b, w = scen.tree_values[i], scen.tree_weights[i]
        # the level is symmetric, so the extreme node is sign(theta)*max(B_i)
        extreme = np.copysign(b[-1], thetas)
    tilt = b - extreme[:, None]
    with np.errstate(over="ignore"):
        tilt *= thetas[:, None]
    table = np.exp(tilt)
    table *= w
    sums = table.sum(axis=1)
    # below this sum a row's largest weight is below 2**-970, and weights
    # within rounding of it (2**-52 below) can be subnormal
    floor = b.size * 2.0**-970
    if sums.min() < floor:
        low = sums < floor
        with np.errstate(divide="ignore"):
            logw = np.log(w) + tilt[low]
        table[low] = np.exp(logw - logw.max(axis=1, keepdims=True))
        sums[low] = table[low].sum(axis=1)
    table /= sums[:, None]
    return table


def tilted_means(table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``table @ values``: one tilted mean per row of a :func:`tilt_table`.

    Taken as one dot product per row: a BLAS matrix-vector product blocks
    rows, so a row's sum would change in its last bits with the number of
    rows, while row by row a kernel's mean does not depend on which other
    kernels share the table.
    """
    return np.matmul(table[:, None, :], values)[:, 0]


def tilted_expect(
    scen: ScenarioSet, theta: float | np.ndarray, rv: RandomVariable
) -> float | np.ndarray:
    """Expectation of ``rv`` under the tilted measure with kernel ``theta``.

    ``theta`` is a scalar, giving a float, or a 1-d array of kernels, giving
    one mean per kernel; each kernel's mean is the one a scalar call gives.
    The means are the :func:`tilt_table` of ``rv``'s index times its values.
    """
    check_rv(scen, rv)
    means = tilted_means(tilt_table(scen, theta, rv.index), rv.values)
    return float(means[0]) if np.ndim(theta) == 0 else means


def from_terminal_function(scen: ScenarioSet, fn: Callable[[np.ndarray], np.ndarray]) -> RandomVariable:
    """Random variable ``fn(B_T)`` on the terminal support.

    Scalar results (constant payoffs) are broadcast over the support.
    """
    m = scen.grid.steps
    b = brownian(scen, m)
    vals = np.asarray(fn(b), dtype=float)
    if vals.ndim == 0:
        vals = np.full(b.shape, float(vals))
    return RandomVariable(m, vals)
