"""Backward tree kernels for the kappa-scaled absolute-value driver family."""
import numpy as np


def tree_backward_value(terminal, dt, kappa, include_y):
    """Backward value at the root of a recombining binomial tree.

    ``terminal`` holds the claim on some level with ``n + 1`` nodes; the
    recursion runs ``n`` steps down to the root.  The driver is
    ``kappa*(|y| + |z|)`` when ``include_y`` else ``kappa*|z|`` (``kappa``
    may be negative).  The y-part is handled implicitly:
    ``y = a / (1 - kappa*sign(a)*dt)`` for ``a = E[next] + kappa*|z|*dt``.
    """
    w = np.array(terminal, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("terminal must be a non-empty 1-d array")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if include_y and abs(kappa) * dt >= 1.0:
        raise ValueError("kappa * dt must be < 1 for the implicit step")
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
