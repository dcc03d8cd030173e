"""Command line front end.

Four subcommands share one INI config format::

    nebsde solve  --config run.ini [--out DIR] [--seed N]
    nebsde gexp   --config run.ini [--out DIR] [--seed N]
    nebsde price  --config run.ini [--out DIR] [--seed N]
    nebsde verify --config run.ini [--out DIR] [--seed N]

Outputs land in ``--out`` (default: current directory): ``solution.csv``
and ``run.log`` always, ``report.csv`` for ``verify``.  CSV numbers carry
12 significant digits, rows end with LF, and the first line records the
config digest and effective seed, so identical inputs produce
byte-identical files.

Exit codes: 0 success, 1 config problem (including a loss slope bound or
driver Lipschitz constant that its probe lattice refutes, and a gexp driver
that does not vanish at the origin on a grid date), 2 infeasible constraint,
3 divergence or non-contractive step, 4 no root bracket for a shift search
(the declared loss slope bounds do not hold, a bracket, also that of a
mean floor, does not fit in a float, or a risk lift misses the acceptance
set).
"""
from __future__ import annotations

import argparse
import ast
import configparser
import hashlib
import operator
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import KERNEL_BACKEND, __version__
from . import bsde as bs
from . import expectations as ne
from . import picard as pc
from . import reflection as rf
from . import risk as rk
from . import scenarios as sc
from . import verify as vf
from .errors import (
    BracketFailureError,
    ConfigError,
    FixedPointError,
    InfeasibleProblemError,
    NonContractiveStepError,
    PicardDivergenceError,
)

# ---------------------------------------------------------------- expressions

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
# leading zeros of an integer literal ("007"), which Python's grammar refuses
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
    ast.Div: operator.truediv,
}


class Expression:
    """A parsed arithmetic expression over named variables.

    Supports ``+ - * /``, unary minus, parentheses, and the calls
    ``min(a, b)``, ``max(a, b)``, ``abs(a)``, ``exp(a)``.  Evaluation
    broadcasts over numpy arrays.
    """

    def __init__(self, source: str, fn, names: frozenset):
        self.source = source
        self._fn = fn
        self.names = names

    def __call__(self, **env):
        return self._fn(env)

    def __repr__(self):
        return f"Expression({self.source!r})"


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
        # a trailing comma is Python syntax, not part of this grammar
        tail = text[node.args[-1].end_col_offset:node.end_col_offset] if node.args else ""
        if len(node.args) != arity or "," in tail:
            raise ValueError(f"{name} takes {arity} argument(s)")
        args = [_compile(a, text, allowed, names) for a in node.args]
        return lambda env: fn(*(a(env) for a in args))
    raise ValueError(f"cannot read {segment!r}")


def parse_expression(source: str, allowed) -> Expression:
    """Parse ``source`` restricted to the variable names in ``allowed``.

    The text is read with Python's expression grammar, and every node is
    checked against the small grammar above.  Any Unicode digit reads as its
    ASCII value, and integer literals may carry leading zeros.
    """
    text = " ".join(source.split())
    text = re.sub(r"\d", lambda d: str(int(d.group())), text)
    text = _LEADING_ZEROS.sub("", text)
    # Python would skip a comment and fold a non-ASCII name to ASCII (NFKC)
    if not text.isascii() or "#" in text:
        raise ValueError(f"cannot read {source!r}")
    names = set()
    try:
        tree = ast.parse(text, mode="eval")
        fn = _compile(tree.body, text, frozenset(allowed), names)
    except (SyntaxError, RecursionError) as exc:
        raise ValueError(f"cannot read {source!r}: {exc}") from None
    return Expression(source, fn, frozenset(names))


# ------------------------------------------------------------------- schema

_SCHEMA = {
    "scenario": {
        "horizon", "steps", "mode", "n_paths", "seed", "basis_degree",
    },
    "problem": {
        "payoff", "driver", "driver_lipschitz", "loss", "loss_lower",
        "loss_upper", "loss_shape", "expectation", "kappa", "alpha",
        "gexp_driver",
    },
    "solver": {"picard_tol", "max_picard_iters", "operator_tol", "feasibility_tol"},
    "risk": {"kernels", "penalties", "q_constant", "q_knots"},
    "market": {"rate", "drift", "volatility"},
    "verify": {"gamma", "floor", "shift", "tilt"},
    "output": {"mean_floor_column"},
}


class _Section:
    """Typed access to one config section with error context."""

    def __init__(self, cfg: configparser.ConfigParser, name: str):
        self.name = name
        self.cfg = cfg

    def _raw(self, key, default=None, required=False):
        if self.cfg.has_option(self.name, key):
            return self.cfg.get(self.name, key)
        if required:
            raise ConfigError("required option missing", key=f"{self.name}.{key}")
        return default

    def text(self, key, default=None, required=False):
        return self._raw(key, default, required)

    def number(self, key, default=None, required=False):
        raw = self._raw(key, None, required)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"not a number: {raw!r}", key=f"{self.name}.{key}") from None

    def integer(self, key, default=None, required=False):
        raw = self._raw(key, None, required)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"not an integer: {raw!r}", key=f"{self.name}.{key}") from None

    def flag(self, key, default=False):
        raw = self._raw(key, None, False)
        if raw is None:
            return default
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"not a boolean: {raw!r}", key=f"{self.name}.{key}")

    def expression(self, key, allowed, default=None, required=False):
        raw = self._raw(key, None, required)
        if raw is None:
            return default
        try:
            return parse_expression(raw, allowed)
        except ValueError as exc:
            raise ConfigError(str(exc), key=f"{self.name}.{key}") from None

    def numbers(self, key, default=None, required=False):
        raw = self._raw(key, None, required)
        if raw is None:
            return default
        try:
            return [float(part) for part in raw.split(",") if part.strip()]
        except ValueError:
            raise ConfigError(f"not a number list: {raw!r}", key=f"{self.name}.{key}") from None


@dataclass
class RunConfig:
    """Everything one run needs, parsed and validated."""

    command: str
    scen: sc.ScenarioSet
    seed: int
    digest: str
    payoff: sc.RandomVariable | None = None  # the payoff on the terminal support
    driver: bs.Driver | None = None
    loss: rf.LossFunction | None = None
    expectation: ne.NonlinearExpectation | None = None
    options: pc.SolveOptions = field(default_factory=pc.SolveOptions)
    rho: rk.RiskMeasure | None = None
    benchmark: rk.Benchmark | None = None
    market: rk.Market | None = None
    verify_params: dict = field(default_factory=dict)
    mean_floor_column: bool = False


def _check_unknown(cfg: configparser.ConfigParser):
    for section in cfg.sections():
        if section not in _SCHEMA:
            raise ConfigError("unknown section", key=section)
        for key in cfg.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError("unknown option", key=f"{section}.{key}")


def _build_scenario(cfg, seed_override):
    scen_sec = _Section(cfg, "scenario")
    if not cfg.has_section("scenario"):
        raise ConfigError("required section missing", key="scenario")
    horizon = scen_sec.number("horizon", required=True)
    steps = scen_sec.integer("steps", required=True)
    mode = scen_sec.text("mode", "tree")
    seed = scen_sec.integer("seed", 0)
    if seed_override is not None:
        seed = seed_override
    try:
        grid = sc.TimeGrid(horizon, steps)
        if mode == "tree":
            scen = sc.build_scenarios(grid, "tree")
        elif mode == "montecarlo":
            n_paths = scen_sec.integer("n_paths", required=True)
            degree = scen_sec.integer("basis_degree", 3)
            scen = sc.build_scenarios(grid, "montecarlo", n_paths=n_paths,
                                      seed=seed, basis_degree=degree)
        else:
            raise ConfigError(f"unknown mode {mode!r}", key="scenario.mode")
    except ValueError as exc:
        raise ConfigError(str(exc), key="scenario") from None
    return scen, seed


# (y, z) lattice on which a configured driver's Lipschitz constant is checked
_DRIVER_PROBE = np.linspace(-10.0, 10.0, 41)


def _build_driver(sec: _Section, key: str, lipschitz_key: str, grid: sc.TimeGrid,
                  required: bool = False) -> bs.Driver:
    """The generator in ``key``, an expression in ``t, y, z``.

    One that reads ``y`` or ``z`` needs a positive ``lipschitz_key``, probed
    on a ``(y, z)`` lattice at every grid date (not beyond it).
    """
    expr = sec.expression(key, {"t", "y", "z"}, required=required)
    if expr is None:
        return bs.Driver.constant(0.0)
    dep_y = "y" in expr.names
    dep_z = "z" in expr.names
    lam = 0.0
    if dep_y or dep_z:
        lam = sec.number(lipschitz_key, required=True)
        if lam <= 0:
            raise ConfigError("must be > 0 for a y/z-dependent driver",
                              key=f"problem.{lipschitz_key}")

    def fn(t, y, z):
        return expr(t=t, y=np.asarray(y, dtype=float), z=np.asarray(z, dtype=float))

    try:
        driver = bs.Driver(fn=fn, lipschitz=lam, depends_on_y=dep_y, depends_on_z=dep_z)
        if dep_y or dep_z:
            bs.check_lipschitz_lattice(driver, grid.nodes, _DRIVER_PROBE)
    except ValueError as exc:
        raise ConfigError(str(exc), key=f"problem.{lipschitz_key}") from None
    return driver


# lattice on which a configured loss's slope bounds are checked: x, and the
# Brownian coordinate b in standard deviations of B_T for b-dependent losses
_LOSS_PROBE_X = np.linspace(-10.0, 10.0, 81)
_LOSS_PROBE_B = np.array([-3.0, 0.0, 3.0])


def _build_loss(sec: _Section, grid: sc.TimeGrid) -> rf.LossFunction:
    """The loss, its declared slope bounds probed on a lattice at every grid date.

    A loss that breaks the bounds only outside the lattice still reaches the
    shift search, which then finds no root bracket (exit 4).
    """
    expr = sec.expression("loss", {"t", "x", "b"}, required=True)
    if "x" not in expr.names:
        raise ConfigError("loss must depend on x", key="problem.loss")
    lower = sec.number("loss_lower", 1.0)
    upper = sec.number("loss_upper", 1.0)
    shape = sec.text("loss_shape", "general")
    random = "b" in expr.names
    if random:
        fn = lambda t, b, x: expr(t=t, b=b, x=np.asarray(x, dtype=float))
    else:
        fn = lambda t, x: expr(t=t, x=np.asarray(x, dtype=float))
    b_values = _LOSS_PROBE_B * np.sqrt(grid.horizon) if random else (0.0,)
    try:
        loss = rf.LossFunction(fn=fn, lower=lower, upper=upper, shape=shape, random=random)
        rf.check_loss_lattice(loss, grid.nodes, _LOSS_PROBE_X, b_values)
    except ValueError as exc:
        raise ConfigError(str(exc), key="problem.loss") from None
    return loss


def _build_payoff(sec: _Section, scen: sc.ScenarioSet) -> sc.RandomVariable:
    """The payoff evaluated on the terminal support, which must come out finite."""
    expr = sec.expression("payoff", {"b"}, required=True)
    try:
        with np.errstate(all="ignore"):
            return sc.from_terminal_function(scen, lambda b: expr(b=b))
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{exc} on the terminal support",
                          key="problem.payoff") from None


def _build_expectation(sec: _Section, grid: sc.TimeGrid) -> ne.NonlinearExpectation:
    """The expectation; ``kappa`` is the gexp driver's constant or the alpha-maxmin radius."""
    kind = sec.text("expectation", "classical")
    if kind == "classical":
        return ne.NonlinearExpectation.classical()
    if kind == "gexp":
        driver = _build_driver(sec, "gexp_driver", "kappa", grid, required=True)
        try:
            ne.check_vanishing(driver, grid.nodes)
        except ValueError as exc:
            raise ConfigError(str(exc), key="problem.gexp_driver") from None
        return ne.NonlinearExpectation.gexp(driver)
    if kind == "alpha-maxmin":
        try:
            return ne.NonlinearExpectation.alpha_maxmin(
                alpha=sec.number("alpha", 1.0), kappa=sec.number("kappa", 0.0)
            )
        except ValueError as exc:
            raise ConfigError(str(exc), key="problem.expectation") from None
    raise ConfigError(f"unknown expectation kind {kind!r}", key="problem.expectation")


def _build_options(cfg) -> pc.SolveOptions:
    sec = _Section(cfg, "solver")
    try:
        return pc.SolveOptions(
            picard_tol=sec.number("picard_tol", 1e-8),
            max_picard_iters=sec.integer("max_picard_iters", 100),
            operator_tol=sec.number("operator_tol", rf.OPERATOR_TOL),
            feasibility_tol=sec.number("feasibility_tol", rf.FEASIBILITY_TOL),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), key="solver") from None


def _build_risk(cfg, grid) -> tuple:
    if not cfg.has_section("risk"):
        raise ConfigError("required section missing", key="risk")
    sec = _Section(cfg, "risk")
    kernels = sec.numbers("kernels", required=True)
    penalties = sec.numbers("penalties", [0.0] * len(kernels))
    try:
        rho = rk.RiskMeasure.convex_family(kernels, penalties)
    except ValueError as exc:
        raise ConfigError(str(exc), key="risk.kernels") from None
    qc = sec.number("q_constant", None)
    qk = sec.text("q_knots", None)
    if (qc is None) == (qk is None):
        raise ConfigError("set exactly one of q_constant / q_knots", key="risk")
    if qc is not None:
        try:
            return rho, rk.Benchmark.constant(grid, qc)
        except ValueError as exc:
            raise ConfigError(str(exc), key="risk.q_constant") from None
    knots = []
    try:
        for part in qk.split(","):
            t_str, v_str = part.split(":")
            knots.append((float(t_str), float(v_str)))
    except ValueError:
        raise ConfigError(f"bad knot list {qk!r}", key="risk.q_knots") from None
    try:
        return rho, rk.Benchmark.from_knots(grid, knots)
    except ValueError as exc:
        raise ConfigError(str(exc), key="risk.q_knots") from None


def _build_market(cfg) -> rk.Market:
    if not cfg.has_section("market"):
        raise ConfigError("required section missing", key="market")
    sec = _Section(cfg, "market")
    try:
        return rk.Market(
            rate=sec.number("rate", required=True),
            drift=sec.number("drift", required=True),
            volatility=sec.number("volatility", required=True),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), key="market") from None


def _build_verify(cfg, scen: sc.ScenarioSet) -> dict:
    """The ramp-flow instance's options: finite, ``gamma > 0``, and binding."""
    sec = _Section(cfg, "verify")
    params = {
        "gamma": sec.number("gamma", 1.0),
        "floor": sec.number("floor", 0.0),
        "shift": sec.number("shift", 0.5),
        "tilt": sec.number("tilt", 1.0),
    }
    for key, value in params.items():
        if not np.isfinite(value):
            raise ConfigError("must be finite", key=f"verify.{key}")
    try:
        inst = vf.RampFlowInstance(gamma=params["gamma"], floor=params["floor"],
                                   tilt=params["tilt"])
    except ValueError as exc:
        raise ConfigError(str(exc), key="verify.gamma") from None
    try:
        inst.t_star(scen, bs.TerminalClaim.from_function(scen, lambda b: b + params["shift"]))
    except ValueError as exc:
        raise ConfigError(str(exc), key="verify.shift") from None
    return params


def load_run_config(path: str, command: str, seed_override=None) -> RunConfig:
    """Read, validate and materialise a run configuration."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw = p.read_bytes()
    cfg = configparser.ConfigParser(interpolation=None)
    try:
        cfg.read_string(raw.decode("utf-8"))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None
    _check_unknown(cfg)

    scen, seed = _build_scenario(cfg, seed_override)
    digest = hashlib.sha256(raw + f"|seed={seed}|cmd={command}".encode()).hexdigest()[:16]
    run = RunConfig(command=command, scen=scen, seed=seed, digest=digest)
    run.options = _build_options(cfg)

    prob = _Section(cfg, "problem")
    if command in ("solve", "gexp", "price"):
        if not cfg.has_section("problem"):
            raise ConfigError("required section missing", key="problem")
        run.payoff = _build_payoff(prob, scen)
    if command == "solve":
        run.driver = _build_driver(prob, "driver", "driver_lipschitz", scen.grid)
        run.loss = _build_loss(prob, scen.grid)
        run.expectation = _build_expectation(prob, scen.grid)
        try:
            ne.check_operator(run.expectation, scen)
        except ValueError as exc:
            raise ConfigError(str(exc), key="problem.kappa") from None
    if command == "gexp":
        run.expectation = _build_expectation(prob, scen.grid)
    if command == "price":
        run.market = _build_market(cfg)
        run.rho, run.benchmark = _build_risk(cfg, scen.grid)
    if command == "verify":
        run.verify_params = _build_verify(cfg, scen)
    run.mean_floor_column = _Section(cfg, "output").flag("mean_floor_column", False)
    return run


# ------------------------------------------------------------------- output

def _fmt(x) -> str:
    if x is None:
        return ""
    x = float(x)
    if np.isnan(x):
        return ""
    return format(x, ".12g")


def _write_solution(path: Path, run: RunConfig, columns: dict):
    """Write the per-index table; all columns are full-grid arrays or None."""
    names = [k for k, v in columns.items() if v is not None]
    nodes = run.scen.grid.nodes
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# digest={run.digest} seed={run.seed}\n")
        fh.write(",".join(["t"] + names) + "\n")
        for i in range(nodes.size):
            row = [_fmt(nodes[i])]
            for name in names:
                col = columns[name]
                row.append(_fmt(col[i]) if i < len(col) else "")
            fh.write(",".join(row) + "\n")


class _RunLog:
    def __init__(self):
        self.lines = []
        self.t0 = time.perf_counter()

    def add(self, text: str):
        self.lines.append(text)

    def write(self, path: Path):
        elapsed = time.perf_counter() - self.t0
        with open(path, "w", newline="\n") as fh:
            for line in self.lines:
                fh.write(line + "\n")
            fh.write(f"elapsed_seconds={elapsed:.3f}\n")


def _log_solution(log: _RunLog, sol: rf.ReflectedSolution):
    log.add(f"flow_total={_fmt(sol.K.total)}")
    log.add(f"skorokhod_residual={_fmt(sol.diagnostics.skorokhod_residual)}")
    log.add(f"min_constraint={_fmt(float(np.min(sol.diagnostics.constraint_values)))}")
    its = sol.picard.iterations
    log.add(
        f"picard_steps={len(its)} picard_iterations={sum(its)} "
        f"picard_iterations_max={max(its, default=0)} "
        f"picard_ratio_max={_fmt(sol.picard.ratio_max)}"
    )
    diag = sol.diagnostics
    log.add(f"shift_closed_form={diag.shift_closed_form} shift_search={diag.shift_search} "
            f"shift_steps={int(diag.shift_iterations.sum())}")


def _run_solve(run: RunConfig, out: Path, log: _RunLog) -> int:
    scen = run.scen
    claim = bs.TerminalClaim(run.payoff)
    sol = pc.solve_reflected(scen, claim, run.driver, run.loss, run.expectation, run.options)
    floors = None
    if run.mean_floor_column:
        rep = vf.representation_gap(scen, sol, run.driver, run.expectation, run.loss)
        floors = np.append(rep.floors, np.nan)
    columns = {
        "mean_y": sol.mean_values(scen),
        "flow": sol.K.values,
        "constraint": sol.diagnostics.constraint_values,
        "mean_floor": floors,
    }
    _write_solution(out / "solution.csv", run, columns)
    _log_solution(log, sol)
    value = sol.value
    print(_fmt(value))
    log.add(f"value={_fmt(value)}")
    return 0


def _run_gexp(run: RunConfig, out: Path, log: _RunLog) -> int:
    scen = run.scen
    rv = run.payoff
    exp = run.expectation
    if exp.kind == "classical":
        value = ne.evaluate(exp, scen, rv)
        means = np.full(scen.grid.steps + 1, sc.expect(scen, rv))
    else:
        claim = bs.TerminalClaim(rv)
        upper = bs.solve_bsde(scen, claim, exp.driver)
        means = np.array([sc.expect(scen, y) for y in upper.Y])
        # for a gexp, ne.evaluate would take these same steps (the tree kernel
        # runs solve_bsde's step per level); alpha-maxmin's value needs both envelopes
        value = upper.value if exp.kind == "gexp" else ne.evaluate(exp, scen, rv)
        if exp.kind == "alpha_maxmin":
            lower = bs.solve_bsde(scen, claim, bs.Driver.kappa_abs(-exp.kappa, include_y=False))
            means = exp.alpha * means + (1.0 - exp.alpha) * np.array(
                [sc.expect(scen, y) for y in lower.Y]
            )
    columns = {"mean_y": means, "flow": np.zeros(scen.grid.steps + 1), "constraint": None,
               "mean_floor": None}
    _write_solution(out / "solution.csv", run, columns)
    print(_fmt(value))
    log.add(f"value={_fmt(value)}")
    return 0


def _run_price(run: RunConfig, out: Path, log: _RunLog) -> int:
    scen = run.scen
    claim = bs.TerminalClaim(run.payoff)
    report = rk.superhedge_price(run.market, scen, claim, run.rho, run.benchmark, run.options)
    sol = report.solution
    columns = {
        "mean_y": sol.mean_values(scen),
        "flow": sol.K.values,
        "constraint": sol.diagnostics.constraint_values,
        "mean_floor": None,
    }
    _write_solution(out / "solution.csv", run, columns)
    _log_solution(log, sol)
    for i, ratio in enumerate(report.hedge_ratios):
        finite = ratio[np.isfinite(ratio)]
        if finite.size:
            log.add(
                f"hedge[{i}] mean={_fmt(finite.mean())} "
                f"min={_fmt(finite.min())} max={_fmt(finite.max())}"
            )
    print(_fmt(report.price))
    log.add(f"price={_fmt(report.price)}")
    return 0


def _run_verify(run: RunConfig, out: Path, log: _RunLog) -> int:
    scen = run.scen
    params = run.verify_params
    records = vf.run_structural_checks(scen, **params)
    lines = vf.emit_report(records, csv_path=out / "report.csv", stream=sys.stdout)
    for line in lines:
        log.add(line)

    inst = vf.RampFlowInstance(gamma=params["gamma"], floor=params["floor"], tilt=params["tilt"])
    claim = bs.TerminalClaim.from_function(scen, lambda b: b + params["shift"])
    sol = pc.solve_reflected(
        scen, claim, inst.driver(), inst.loss(), ne.NonlinearExpectation.classical()
    )
    columns = {
        "mean_y": sol.mean_values(scen),
        "flow": sol.K.values,
        "constraint": sol.diagnostics.constraint_values,
        "mean_floor": None,
    }
    _write_solution(out / "solution.csv", run, columns)
    n_fail = sum(1 for r in records if not r.passed)
    log.add(f"checks={len(records)} failed={n_fail}")
    print(f"checks={len(records)} failed={n_fail}")
    return 0


# library failures that end a run after the config was read: exit code, label
_SOLVER_FAILURES = {
    InfeasibleProblemError: (2, "infeasible"),
    PicardDivergenceError: (3, "divergence"),
    NonContractiveStepError: (3, "divergence"),
    FixedPointError: (3, "divergence"),
    BracketFailureError: (4, "bracket failure"),
}


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nebsde",
        description="Reflected BSDE solvers with nonlinear-expectation and risk constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("solve", "reflect a claim through the mean constraint"),
        ("gexp", "evaluate a nonlinear expectation of the payoff"),
        ("price", "superhedge a claim under the risk constraint"),
        ("verify", "run the structural check suite"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="INI run configuration")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    args = parser.parse_args(argv)

    log = _RunLog()
    out = Path(args.out)
    try:
        run_cfg = load_run_config(args.config, args.command, args.seed)
        out.mkdir(parents=True, exist_ok=True)
        log.add(f"command={args.command}")
        log.add(f"config={args.config}")
        log.add(f"digest={run_cfg.digest}")
        log.add(f"seed={run_cfg.seed}")
        log.add(f"backend={KERNEL_BACKEND}")
        log.add(f"version={__version__}")
        handler = {
            "solve": _run_solve,
            "gexp": _run_gexp,
            "price": _run_price,
            "verify": _run_verify,
        }[args.command]
        code = handler(run_cfg, out, log)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except tuple(_SOLVER_FAILURES) as exc:
        code, label = next(v for k, v in _SOLVER_FAILURES.items() if isinstance(exc, k))
        print(f"{label}: {exc}", file=sys.stderr)
        log.add(f"{label}: {exc}")
        if out.is_dir():
            log.write(out / "run.log")
        return code
    log.write(out / "run.log")
    return code


def main():
    sys.exit(run())
