"""Scenario helpers that only the tests use.

:func:`girsanov_weights` is the per-kernel terminal Girsanov density that
the Monte Carlo rows of :func:`nebsde.scenarios.tilt_table` replaced; it
stays here as their oracle.  :func:`gexp_value` and :func:`evaluate_alone`
are the one-claim-at-a-time evaluation that
:func:`nebsde.expectations.evaluate_levels` replaced, kept as its oracle.
:func:`closure_expression` is the evaluator of one closure per syntax node
that :func:`nebsde.cli.parse_expression`'s compiled function replaced.
"""

import ast
import operator
import re

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
