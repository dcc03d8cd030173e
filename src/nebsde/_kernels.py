"""The backward tree roll-back of a g-expectation, for every driver.

Each level is one :func:`nebsde.bsde.implicit_step` on the pairwise mean and
the one-step difference quotient, the step :func:`nebsde.bsde.solve_bsde`
takes, without a random variable per level.  The one shortcut is
``kappa*|z|``: a step of it is the mean under the up-probability
``(1 + kappa*sqrt(dt))/2`` where the level rises and ``(1 - kappa*sqrt(dt))/2``
where it falls, which keeps a monotone level monotone, so a monotone claim
sees one constant up-probability at every node (the constant-drift
worst-case prior of kappa-ignorance; Chen and Epstein, 2002) and its value
is one binomial dot product.

:func:`tree_backward_values` rolls a stack of claims back together, one row
per claim, so claims on every level of the tree cost one pass of numpy calls
per level instead of one pass each; :func:`tree_backward_value` is its
one-row call.  A stacked root equals its one-row call bit for bit under a
closed-form or explicit step, and within the sweep tolerance of
:func:`nebsde.bsde.implicit_step` under other drivers that read y.  A
claim on an interior level first takes the dates after its own with z
frozen at 0 (:func:`nebsde.bsde.zero_noise_continuation`); this module is
only the roll-back.
"""
from functools import lru_cache

import numpy as np

from . import bsde as bs
from . import scenarios as sc
from .errors import FixedPointError


@lru_cache(maxsize=1024)
def _binomial_weights(n, p):
    """``sc.binomial_weights(n, p)``, computed once per ``(n, p)`` and read-only.

    A comonotone value takes one of two up-probabilities per driver and
    step, so the same few pairs recur in every solve; the shared array
    cannot be written to.
    """
    w = sc.binomial_weights(n, p)
    w.flags.writeable = False
    return w


def _comonotone_value(w, dt, driver):
    """The binomial dot product of a monotone claim under ``kappa*|z|``; None otherwise."""
    structure = driver.kappa_structure
    if structure is not None and (not structure[1] or structure[0] == 0.0):
        step = structure[0] * np.sqrt(dt)
        if abs(step) <= 1.0:
            d = np.diff(w)
            sign = 1.0 if np.all(d >= 0.0) else -1.0 if np.all(d <= 0.0) else 0.0
            if sign != 0.0:
                return float(_binomial_weights(w.size - 1, 0.5 * (1.0 + sign * step)) @ w)
    return None


def tree_backward_values(terminals, dt, driver, nodes) -> np.ndarray:
    """Root values of the BSDE with generator ``driver`` for a stack of tree claims.

    Each entry of ``terminals`` holds a claim on some level with ``n + 1``
    nodes (its depth ``n``), in any order; the recursion runs ``n`` steps
    down to the root, the step from level ``j + 1`` to level ``j`` dated
    ``nodes[j]``.  A claim that takes the comonotone closed form (see
    :func:`tree_backward_value`) gets it on its own.  The others are rows of
    one pass from the deepest level down: a row joins the pass when the pass
    reaches its depth, and each level is one ``bs.implicit_step`` on all
    rows present.  Every value equals :func:`tree_backward_value` of its
    claim alone, bit for bit under a closed-form or explicit step and within
    the sweep tolerance under other drivers that read y.  Raises
    ``FixedPointError`` when a rolled-back root value is not finite.
    """
    rows = [np.asarray(w, dtype=float) for w in terminals]
    if any(w.ndim != 1 or w.size == 0 for w in rows):
        raise ValueError("terminal must be a non-empty 1-d array")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    values = np.empty(len(rows))
    joins = {}
    for r, w in enumerate(rows):
        value = _comonotone_value(w, dt, driver)
        if value is None:
            joins.setdefault(w.size - 1, []).append(r)
        else:
            values[r] = value
    if not joins:
        return values
    half_inv_sq = 0.5 / np.sqrt(dt)
    order, w = [], None
    for level in range(max(joins), -1, -1):
        # rows of this depth join below the rows already in the pass
        new = joins.get(level)
        if new is not None:
            order += new
            w = np.vstack(([] if w is None else [w]) + [rows[r] for r in new])
        if level == 0:
            break
        lo, hi = w[:, :-1], w[:, 1:]
        w = bs.implicit_step(driver, float(nodes[level - 1]), 0.5 * (lo + hi),
                             (hi - lo) * half_inv_sq, dt)
    roots = w.reshape(-1)
    if not np.isfinite(roots).all():
        bad = roots[~np.isfinite(roots)][0]
        raise FixedPointError(f"non-finite root value {bad} from the tree roll-back")
    values[order] = roots
    return values


def tree_backward_value(terminal, dt, driver, nodes):
    """Value at the root of the BSDE with generator ``driver`` on a binomial tree.

    ``terminal`` holds the claim on some level with ``n + 1`` nodes; the
    recursion runs ``n`` steps down to the root, the step from level
    ``j + 1`` to level ``j`` dated ``nodes[j]``.

    A driver tagged ``kappa_structure = (kappa, include_y)`` without a
    y-part (or with ``kappa = 0``), a claim that is monotone in the node
    index and a step ``|kappa|*sqrt(dt) <= 1`` give the closed form
    ``binomial_weights(n, p) @ terminal`` with
    ``p = (1 + s*kappa*sqrt(dt))/2``, ``s = +1`` for a nondecreasing claim
    and ``-1`` for a nonincreasing one.  Raises ``FixedPointError`` when the
    root value is not finite.  The one-row call of :func:`tree_backward_values`.
    """
    return float(tree_backward_values([terminal], dt, driver, nodes)[0])
