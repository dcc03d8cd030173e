"""Scenario helpers that only the tests use.

:func:`girsanov_weights` is the per-kernel terminal Girsanov density that
the Monte Carlo rows of :func:`nebsde.scenarios.tilt_table` replaced; it
stays here as their oracle.  :func:`gexp_value` and :func:`evaluate_alone`
are the one-claim-at-a-time evaluation that
:func:`nebsde.expectations.evaluate_levels` replaced, kept as its oracle.
:func:`closure_expression` is the evaluator of one closure per syntax node
that :func:`nebsde.cli.parse_expression`'s compiled function replaced.
:func:`reroll_solve` is the reflected recursion by successive approximation
within each step, which the search of each date's flow increment replaced;
it stays as that search's oracle.  :func:`slack_superhedge_price` and
:func:`binding_superhedge` are the superhedging solve in closed form on the
tree.
"""

import ast
import math
import operator
import re

import numpy as np

from nebsde import _kernels as kern
from nebsde import bsde as bs
from nebsde import reflection as rf
from nebsde import scenarios as sc

# the re-roll's agreement of two successive lifted levels, and its passes
REROLL_TOL = 1e-8
REROLL_PASSES = 100


def time_dependent_driver(fn) -> bs.Driver:
    """The driver ``f(t, y, z) = fn(t)``, which reads neither y nor z."""
    return bs.Driver(fn=lambda t, y, z: np.full_like(np.asarray(y, dtype=float), float(fn(t))))


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
    return bs.solve_bsde(scen, sc.RandomVariable(rv.index, vals), driver).value


def evaluate_alone(exp, scen: sc.ScenarioSet, rv: sc.RandomVariable) -> float:
    """The value of the one claim ``rv`` under ``exp``: its scenario mean, or
    :func:`gexp_value` of each envelope, blended."""
    sc.check_rv(scen, rv)
    if exp.kind == "classical":
        return sc.level_mean(scen, rv.index, rv.values)
    return exp.blend(lambda driver: gexp_value(scen, rv, driver))


_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")
_FUNCTIONS = {
    "min": (2, np.minimum),
    "max": (2, np.maximum),
    "abs": (1, np.abs),
    "exp": (1, np.exp),
}
_BINARY = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: np.true_divide,
}


class Expression:
    """A parsed expression: ``expr(**env)`` evaluates it; ``names`` are the variables it reads."""

    def __init__(self, source: str, fn, names: frozenset):
        self.source = source
        self._fn = fn
        self.names = names

    def __call__(self, **env):
        return self._fn(env)


def _compile(node, text: str, allowed: frozenset, names: set):
    """Check one syntax node against the grammar and return its evaluator."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        op = _BINARY[type(node.op)]
        left = _compile(node.left, text, allowed, names)
        right = _compile(node.right, text, allowed, names)
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _compile(node.operand, text, allowed, names)
        return lambda env: -inner(env)
    segment = text[node.col_offset:node.end_col_offset]
    if isinstance(node, ast.Constant) and _NUMBER.fullmatch(segment):
        value = float(segment)
        return lambda env: value
    if isinstance(node, ast.Name):
        if node.id not in allowed:
            raise ValueError(
                f"variable {node.id!r} not allowed here (allowed: {sorted(allowed)})"
            )
        names.add(node.id)
        key = node.id
        return lambda env: env[key]
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.col_offset == node.col_offset
        and not node.keywords
    ):
        name = node.func.id
        if name not in _FUNCTIONS:
            raise ValueError(f"unknown function {name!r}")
        arity, fn = _FUNCTIONS[name]
        tail = text[node.args[-1].end_col_offset:node.end_col_offset] if node.args else ""
        if len(node.args) != arity or "," in tail:
            raise ValueError(f"{name} takes {arity} argument(s)")
        args = [_compile(a, text, allowed, names) for a in node.args]
        return lambda env: fn(*(a(env) for a in args))
    raise ValueError(f"cannot read {segment!r}")


def closure_expression(source: str, allowed) -> Expression:
    """``source`` read as :func:`nebsde.cli.parse_expression` reads it, evaluated node by node."""
    text = " ".join(source.split())
    text = re.sub(r"\d", lambda d: str(int(d.group())), text)
    text = _LEADING_ZEROS.sub("", text)
    if not text.isascii() or "#" in text:
        raise ValueError(f"cannot read {source!r}")
    names = set()
    try:
        tree = ast.parse(text, mode="eval")
        fn = _compile(tree.body, text, frozenset(allowed), names)
    except (SyntaxError, RecursionError) as exc:
        raise ValueError(f"cannot read {source!r}: {exc}") from None
    return Expression(source, fn, frozenset(names))


def reroll_solve(scen: sc.ScenarioSet, claim: sc.RandomVariable, driver: bs.Driver,
                 problem: rf.ReflectionProblem):
    """The reflected recursion of a driver that reads y, by successive approximation in each step.

    Each level takes the step ``u``, lifts it by its minimal shift ``k``
    (:func:`nebsde.reflection.lift`), rolls ``x = e + f(t, u + k, z)*dt``
    again from the lifted level and lifts ``x``, until two lifted levels
    agree to ``REROLL_TOL``; ``dK_i`` is the last ``k``.  The map from one
    lifted level to the next contracts at ``q = lipschitz*dt``, so each
    step ends within ``REROLL_TOL*q/(1 - q)`` of its fixed point (up to the
    lift's own tolerance).  Returns ``(Y, Z, dK, constraint values)``:
    value arrays on ``0..m``, integrand arrays on ``0..m - 1``, the ``m``
    increments and the ``m + 1`` constraint values the lifts verified.
    """
    m, dt = claim.index, scen.grid.dt
    ys, zs = [claim.values], []
    dk = np.zeros(m)
    cons = np.zeros(m + 1)
    cons[m] = problem.constraint(m, claim.values)
    for i in range(m - 1, -1, -1):
        t = float(scen.grid.nodes[i])
        e, z = sc.step_fit(scen, ys[-1], i)
        u = x = bs.implicit_step(driver, t, e, z, dt)
        for _ in range(REROLL_PASSES):
            k, _, cons[i] = rf.lift(problem, i, x)
            vals = x + k
            if np.max(np.abs(vals - u)) <= REROLL_TOL:
                break
            u = vals
            x = e + np.asarray(driver.fn(t, u, z), dtype=float) * dt
        else:
            raise AssertionError(f"the re-roll did not settle in {REROLL_PASSES} passes at {i}")
        dk[i] = k
        ys.append(vals)
        zs.append(z)
    return ys[::-1], zs[::-1], dk, cons


def _up_probability(rate: float, theta: float, dt: float) -> float:
    """The up-move weight ``p = (1 - theta*sqrt(dt))/2`` of the wealth step; needs
    ``|theta|*sqrt(dt) <= 1``."""
    p = 0.5 * (1.0 - theta * math.sqrt(dt))
    if not 0.0 <= p <= 1.0:
        raise ValueError("the wealth step needs |theta|*sqrt(dt) <= 1")
    return p


def slack_superhedge_price(rate: float, theta: float, scen: sc.ScenarioSet, xi) -> float:
    """The tree's superhedge price of the terminal values ``xi`` when no constraint binds.

    The wealth generator ``-(r*y + theta*z)`` makes each implicit step the
    discounted binomial mean ``(p*Y_up + (1 - p)*Y_down)/(1 + r*dt)``, so the
    price is ``binomial(m, p) @ xi / (1 + r*dt)**m`` (Cox, Ross and
    Rubinstein 1979).
    """
    m, dt = scen.grid.steps, scen.grid.dt
    p = _up_probability(rate, theta, dt)
    weights = np.array([math.comb(m, k) * p**k * (1.0 - p) ** (m - k) for k in range(m + 1)])
    return float(weights @ np.asarray(xi, dtype=float)) / (1.0 + rate * dt) ** m


def tree_risk(kernels, penalties, scen: sc.ScenarioSet, i: int, values) -> float:
    """``max_k(-E_k[values] - penalties[k])`` on tree level ``i``, each ``E_k`` the binomial
    mean tilted by ``exp(kernels[k]*B_i)``, from exact binomial coefficients."""
    b = scen.tree_values[i]
    base = np.array([math.comb(i, k) for k in range(i + 1)], dtype=float)
    worst = -math.inf
    for theta, pen in zip(np.atleast_1d(kernels), np.atleast_1d(penalties)):
        w = base * np.exp(theta * b - np.max(theta * b))
        worst = max(worst, -float(w @ values) / float(w.sum()) - pen)
    return worst


def binding_superhedge(rate: float, theta: float, scen: sc.ScenarioSet, xi, kernels,
                       penalties, q) -> tuple:
    """The tree's superhedging solve under ``rho(t_i, Y_i) <= q_i`` in closed form.

    ``X`` is the discounted binomial roll-back of ``xi`` (see
    :func:`slack_superhedge_price`), and ``c_i = rho(t_i, X_i) - q_i`` the
    lift of ``X_i`` alone, by translation invariance.  A constant added to
    ``Y_{i+1}`` moves the step by itself over ``1 + r*dt``, so ``Y_i = X_i +
    s_i`` with the discounted running max ``s_i = max(s_{i+1}/(1 + r*dt),
    c_i, 0)``, ``s_m = 0``, and ``dK_i = (s_i - s_{i+1}/(1 + r*dt))*(1 +
    r*dt)``.  Returns ``(Y, dK)``: value arrays on ``0..m`` and the ``m``
    increments.
    """
    m, dt = scen.grid.steps, scen.grid.dt
    p = _up_probability(rate, theta, dt)
    disc = 1.0 + rate * dt
    x = np.asarray(xi, dtype=float)
    ys, dk = [x], np.zeros(m)
    s = 0.0
    for i in range(m - 1, -1, -1):
        x = (p * x[1:] + (1.0 - p) * x[:-1]) / disc
        c = tree_risk(kernels, penalties, scen, i, x) - q[i]
        carried = s / disc
        s = max(carried, c, 0.0)
        dk[i] = (s - carried) * disc
        ys.append(x + s)
    return ys[::-1], dk
