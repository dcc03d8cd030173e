"""The backward tree roll-back of a g-expectation, for every driver.

Each level is one :func:`nebsde.bsde.implicit_step` on the pairwise mean and
the one-step difference quotient, the step :func:`nebsde.bsde.solve_bsde`
takes, without a random variable per level.  The one shortcut, the
comonotone closed form under ``kappa*|z|``, is stated in
:func:`tree_backward_values`.

:func:`tree_backward_values` rolls a stack of claims back together, one row
per claim, so claims on every level of the tree cost one pass of numpy calls
per level instead of one pass each; :func:`tree_backward_value` is its
one-row call.  A claim on an interior level first takes the dates after its
own with z frozen at 0 (:func:`nebsde.bsde.zero_noise_continuation`); this
module is only the roll-back.
"""
import numpy as np

from . import bsde as bs
from . import scenarios as sc
from .errors import FixedPointError


def _comonotone_value(w, dt, driver):
    """The binomial dot product of a monotone claim under ``kappa*|z|``; None otherwise."""
    kappa = driver.kappa_structure
    if kappa is not None and not driver.depends_on_y:
        step = kappa * np.sqrt(dt)
        if abs(step) <= 1.0:
            d = np.diff(w)
            sign = 1.0 if (d >= 0.0).all() else -1.0 if (d <= 0.0).all() else 0.0
            if sign != 0.0:
                return float(sc.binomial_weights(w.size - 1, 0.5 * (1.0 + sign * step)) @ w)
    return None


def tree_backward_values(terminals, dt, driver, nodes) -> np.ndarray:
    """Root values of the BSDE with generator ``driver`` for a stack of tree claims.

    Each entry of ``terminals`` holds a claim on some level with ``n + 1``
    nodes (its depth ``n``), in any order; the recursion runs ``n`` steps
    down to the root, the step from level ``j + 1`` to level ``j`` dated
    ``nodes[j]``.

    A driver tagged ``kappa_structure = kappa`` that ignores y
    (``kappa*|z|``, or ``kappa = 0``), a claim that is monotone in the node
    index and a step ``|kappa|*sqrt(dt) <= 1`` give the closed form
    ``binomial_weights(n, p) @ terminal`` with
    ``p = (1 + s*kappa*sqrt(dt))/2``, ``s = +1`` for a nondecreasing claim
    and ``-1`` for a nonincreasing one.  A step of ``kappa*|z|`` is the mean
    under the up-probability ``(1 + kappa*sqrt(dt))/2`` where the level
    rises and ``(1 - kappa*sqrt(dt))/2`` where it falls, which keeps a
    monotone level monotone, so a monotone claim sees one constant
    up-probability at every node (the constant-drift worst-case prior of
    kappa-ignorance; Chen and Epstein, 2002).  Such a claim gets the closed
    form on its own.  The others are rows of one pass from the deepest
    level down: a row joins the pass when the pass reaches its depth, and
    each level is one ``bs.implicit_step`` on all rows present; while the
    pass holds one row, that row is stepped as a 1-d level.  Every value
    equals that of its claim alone, bit for bit under a closed-form or
    explicit step and within the sweep tolerance under other drivers that
    read y.  Raises ``FixedPointError`` when a rolled-back root value is not
    finite.
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
            # a lone row is stepped 1-d, which slices faster than a (1, n)
            # stack; no list may keep the previous pass alive during a step
            if w is None and len(new) == 1:
                w = rows[new[0]]
            else:
                w = np.vstack(([] if w is None else [w]) + [rows[r] for r in new])
        if level == 0:
            break
        lo, hi = w[..., :-1], w[..., 1:]
        w = bs.implicit_step(driver, float(nodes[level - 1]), 0.5 * (lo + hi),
                             (hi - lo) * half_inv_sq, dt)
    roots = w.reshape(-1)
    if not np.isfinite(roots).all():
        bad = roots[~np.isfinite(roots)][0]
        raise FixedPointError(f"non-finite root value {bad} from the tree roll-back")
    values[order] = roots
    return values


def tree_backward_value(terminal, dt, driver, nodes):
    """:func:`tree_backward_values` of the one claim ``terminal``, as a float.

    Its one-row call, kept as a function of its own while perfbench/tracing.py
    wraps it and counts its calls: a lone claim on the tree takes it.
    """
    return float(tree_backward_values([terminal], dt, driver, nodes)[0])
