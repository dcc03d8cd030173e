"""Backward tree kernels for the kappa-scaled absolute-value driver family.

Without a y-part, one step of the ``kappa*|z|`` recursion is the mean under
the up-probability ``(1 + kappa*sqrt(dt))/2`` where the level rises and
``(1 - kappa*sqrt(dt))/2`` where it falls.  Those means keep a monotone
level monotone in the same direction, so a monotone claim sees one constant
up-probability at every node: the constant-drift tilt that is the
worst-case prior of kappa-ignorance for a monotone claim (Chen and Epstein,
2002).  :func:`tree_backward_value` then takes the whole recursion as one
binomial dot product, and runs the node-by-node recursion otherwise.
"""
import numpy as np


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


def tree_backward_value(terminal, dt, kappa, include_y):
    """Backward value at the root of a recombining binomial tree.

    ``terminal`` holds the claim on some level with ``n + 1`` nodes; the
    recursion runs ``n`` steps down to the root.  The driver is
    ``kappa*(|y| + |z|)`` when ``include_y`` else ``kappa*|z|`` (``kappa``
    may be negative).  The y-part is handled implicitly:
    ``y = a / (1 - kappa*sign(a)*dt)`` for ``a = E[next] + kappa*|z|*dt``.

    Without a y-part (or with ``kappa = 0``), a claim that is monotone in
    the node index and a step ``|kappa|*sqrt(dt) <= 1`` give the closed
    form ``binomial_weights(n, p) @ terminal`` with
    ``p = (1 + s*kappa*sqrt(dt))/2``, ``s = +1`` for a nondecreasing claim
    and ``-1`` for a nonincreasing one.
    """
    w = np.asarray(terminal, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("terminal must be a non-empty 1-d array")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if include_y and abs(kappa) * dt >= 1.0:
        raise ValueError("kappa * dt must be < 1 for the implicit step")
    step = kappa * np.sqrt(dt)
    if (not include_y or kappa == 0.0) and abs(step) <= 1.0:
        d = np.diff(w)
        sign = 1.0 if np.all(d >= 0.0) else -1.0 if np.all(d <= 0.0) else 0.0
        if sign != 0.0:
            return float(binomial_weights(w.size - 1, 0.5 * (1.0 + sign * step)) @ w)
    return _backward_recursion(w, dt, kappa, include_y)


def _backward_recursion(terminal, dt, kappa, include_y):
    """The node-by-node recursion behind :func:`tree_backward_value`."""
    w = np.array(terminal, dtype=float)
    half_inv_sq = 0.5 / np.sqrt(dt)
    kdt = kappa * dt
    for level in range(w.size - 2, -1, -1):
        lo = w[: level + 1]
        hi = w[1 : level + 2]
        a = 0.5 * (lo + hi) + np.abs((hi - lo) * half_inv_sq) * kdt
        if include_y:
            a = a / np.where(a >= 0.0, 1.0 - kdt, 1.0 + kdt)
        w[: level + 1] = a
    return float(w[0])


def kappa_continuation(values, dt, steps, kappa, include_y):
    """Propagate node values through ``steps`` zero-noise implicit steps.

    With z frozen at 0 the driver ``kappa*(|y| + |z|)`` reduces to a scalar
    ODE per node whose implicit step is ``y -> y / (1 - kappa*sign(y)*dt)``.
    The sign of each value is preserved step by step, so the whole
    continuation collapses to one scale factor per sign.
    """
    values = np.asarray(values, dtype=float)
    if steps == 0 or not include_y or kappa == 0.0:
        return values.copy()
    if abs(kappa) * dt >= 1.0:
        raise ValueError("kappa * dt must be < 1 for the implicit step")
    pos = (1.0 - kappa * dt) ** (-steps)
    neg = (1.0 + kappa * dt) ** (-steps)
    return np.where(values >= 0.0, values * pos, values * neg)
