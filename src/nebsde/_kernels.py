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
"""
import numpy as np

from . import bsde as bs
from . import scenarios as sc
from .errors import FixedPointError


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
    root value is not finite.
    """
    w = np.asarray(terminal, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("terminal must be a non-empty 1-d array")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    structure = driver.kappa_structure
    if structure is not None and (not structure[1] or structure[0] == 0.0):
        step = structure[0] * np.sqrt(dt)
        if abs(step) <= 1.0:
            d = np.diff(w)
            sign = 1.0 if np.all(d >= 0.0) else -1.0 if np.all(d <= 0.0) else 0.0
            if sign != 0.0:
                return float(sc.binomial_weights(w.size - 1, 0.5 * (1.0 + sign * step)) @ w)
    half_inv_sq = 0.5 / np.sqrt(dt)
    for level in range(w.size - 2, -1, -1):
        w = bs.implicit_step(driver, float(nodes[level]), 0.5 * (w[:-1] + w[1:]),
                             (w[1:] - w[:-1]) * half_inv_sq, dt)
    value = float(w[0])
    if not np.isfinite(value):
        raise FixedPointError(f"non-finite root value {value} from the tree roll-back")
    return value
