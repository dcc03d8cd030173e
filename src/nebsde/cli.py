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

``_SCHEMA`` lists every option, ``section.option``, with the parser of its text.

Exit codes: 0 success, 1 config problem (including a loss slope bound or
driver Lipschitz constant that its probe lattice refutes, a driver that reads
neither y nor z and is not finite on a grid date, a gexp driver that does
not vanish at the origin on a grid date, a non-finite risk kernel or
penalty, and market parameters whose price of risk ``(drift - rate) /
volatility`` or ``|rate| + |price of risk|`` is not finite), 2 infeasible constraint,
3 divergence (a non-contractive step, a step that does not settle within
its sweep cap, or a value, integrand or, in a reflected solve, loss
level that is not finite), 4 no root
bracket for a shift search (the declared loss slope bounds do not hold, a
bracket, also that of a mean floor, does not fit in a float, or a bounded
search, such as a risk lift that misses the acceptance set, does not close).
"""
from __future__ import annotations

import argparse
import ast
import configparser
import hashlib
import re
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
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
)

# ---------------------------------------------------------------- expressions

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
# leading zeros of an integer literal ("007"), which Python's grammar refuses
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")
_FUNCTIONS = {"min": 2, "max": 2, "abs": 1, "exp": 1}
_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div)
# all that a compiled expression sees besides its variables; "/" is "_div",
# numpy's division also of two plain floats, so a zero divisor gives inf or
# nan (with numpy's warning), not an exception
_GLOBALS = {"__builtins__": {}, "min": np.minimum, "max": np.maximum, "abs": np.abs,
            "exp": np.exp, "_div": np.true_divide}


def _checked(node, text: str, allowed: frozenset, names: set):
    """Check one syntax node against the grammar; return it with ``/`` and numbers rewritten."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, _OPERATORS):
        node.left = _checked(node.left, text, allowed, names)
        node.right = _checked(node.right, text, allowed, names)
        if isinstance(node.op, ast.Div):
            return ast.Call(ast.Name("_div", ast.Load()), [node.left, node.right], [])
        return node
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node.operand = _checked(node.operand, text, allowed, names)
        return node
    segment = text[node.col_offset:node.end_col_offset]
    if isinstance(node, ast.Constant) and _NUMBER.fullmatch(segment):
        return ast.Constant(float(segment))
    if isinstance(node, ast.Name):
        if node.id not in allowed:
            raise ValueError(
                f"variable {node.id!r} not allowed here (allowed: {sorted(allowed)})"
            )
        names.add(node.id)
        return node
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.col_offset == node.col_offset
        and not node.keywords
    ):
        name = node.func.id
        if name not in _FUNCTIONS:
            raise ValueError(f"unknown function {name!r}")
        arity = _FUNCTIONS[name]
        # a trailing comma is Python syntax, not part of this grammar
        tail = text[node.args[-1].end_col_offset:node.end_col_offset] if node.args else ""
        if len(node.args) != arity or "," in tail:
            raise ValueError(f"{name} takes {arity} argument(s)")
        node.args = [_checked(a, text, allowed, names) for a in node.args]
        return node
    raise ValueError(f"cannot read {segment!r}")


def parse_expression(source: str, names):
    """``source`` compiled once into a plain function of the variables ``names``.

    The text is read with Python's expression grammar, and every node is
    checked against this small one: decimal numbers, the variables in
    ``names``, ``+ - * /``, unary minus, parentheses, and the calls
    ``min(a, b)``, ``max(a, b)``, ``abs(a)``, ``exp(a)``.  Any Unicode digit
    reads as its ASCII value, and integer literals may carry leading zeros.
    The checked tree is compiled into one function, which takes ``names`` in
    the order given and broadcasts over numpy arrays.  Each number is the
    float of its text, and the calls and ``/`` are numpy's, for every
    operand, so a division by zero gives inf or nan (with numpy's warning)
    rather than an exception.  The function's ``names`` attribute is the
    set of variables the text reads.
    """
    text = " ".join(source.split())
    text = re.sub(r"\d", lambda d: str(int(d.group())), text)
    text = _LEADING_ZEROS.sub("", text)
    # Python would skip a comment and fold a non-ASCII name to ASCII (NFKC)
    if not text.isascii() or "#" in text:
        raise ValueError(f"cannot read {source!r}")
    used = set()
    try:
        tree = ast.parse(text, mode="eval")
        body = _checked(tree.body, text, frozenset(names), used)
        params = ast.arguments(posonlyargs=[], args=[ast.arg(n) for n in names],
                               kwonlyargs=[], kw_defaults=[], defaults=[])
        tree = ast.fix_missing_locations(ast.Expression(ast.Lambda(params, body)))
        fn = eval(compile(tree, "<expression>", "eval"), _GLOBALS)
    except (SyntaxError, RecursionError) as exc:
        raise ValueError(f"cannot read {source!r}: {exc}") from None
    fn.names = frozenset(used)
    return fn


# ------------------------------------------------------------------- schema

def _expression(*names):
    """The parser of an expression compiled into a function of ``names``, in that order."""
    return lambda raw: parse_expression(raw, names)


def _numbers(raw: str) -> list:
    """A comma-separated list of finite numbers; empty entries are skipped."""
    values = [float(part) for part in raw.split(",") if part.strip()]
    if not np.all(np.isfinite(values)):
        raise ValueError(f"values must be finite: {raw!r}")
    return values


def _knots(raw: str) -> list:
    """A comma-separated list of ``t:q`` knots."""
    pairs = [part.split(":") for part in raw.split(",")]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError(f"bad knot list {raw!r}")
    return [(float(t), float(q)) for t, q in pairs]


def _boolean(raw: str) -> bool:
    low = raw.strip().lower()
    if low not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"not a boolean: {raw!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[low]


# every option, ``section.option``, and the parser of its text
_SCHEMA = {
    "scenario.horizon": float, "scenario.steps": int, "scenario.mode": str,
    "scenario.n_paths": int, "scenario.seed": int, "scenario.basis_degree": int,
    "problem.payoff": _expression("b"),
    "problem.driver": _expression("t", "y", "z"), "problem.driver_lipschitz": float,
    "problem.loss": _expression("t", "b", "x"),
    "problem.loss_lower": float, "problem.loss_upper": float, "problem.loss_shape": str,
    "problem.expectation": str, "problem.kappa": float, "problem.alpha": float,
    "problem.gexp_driver": _expression("t", "y", "z"),
    "risk.kernels": _numbers, "risk.penalties": _numbers,
    "risk.q_constant": float, "risk.q_knots": _knots,
    "market.rate": float, "market.drift": float, "market.volatility": float,
    "verify.gamma": float, "verify.floor": float, "verify.shift": float, "verify.tilt": float,
    "output.mean_floor_column": _boolean,
}


@contextmanager
def _keyed(name: str):
    """Key a ``ValueError`` raised in the block ``name``; a ``ConfigError`` keeps its key."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc), key=name) from None


def _option(cfg: configparser.ConfigParser, name: str, default=None, required=False):
    """Option ``section.key`` read by its ``_SCHEMA`` parser, or ``default`` if it is unset."""
    section, _, key = name.partition(".")
    if not cfg.has_option(section, key):
        if required:
            raise ConfigError("required option missing", key=name)
        return default
    with _keyed(name):
        return _SCHEMA[name](cfg.get(section, key))


@dataclass
class RunConfig:
    """Everything one run needs, parsed and validated."""

    command: str
    scen: sc.ScenarioSet
    seed: int
    digest: str
    payoff: bs.TerminalClaim | None = None  # the payoff on the terminal support
    driver: bs.Driver | None = None
    loss: rf.LossFunction | None = None
    expectation: ne.NonlinearExpectation | None = None
    rho: rk.RiskMeasure | None = None
    benchmark: rk.Benchmark | None = None
    market: rk.Market | None = None
    ramp: vf.RampFlowInstance | None = None
    mean_floor_column: bool = False


def _check_unknown(cfg: configparser.ConfigParser):
    sections = {name.partition(".")[0] for name in _SCHEMA}
    for section in cfg.sections():
        if section not in sections:
            raise ConfigError("unknown section", key=section)
        for key in cfg.options(section):
            if f"{section}.{key}" not in _SCHEMA:
                raise ConfigError("unknown option", key=f"{section}.{key}")


def _require_section(cfg: configparser.ConfigParser, section: str):
    if not cfg.has_section(section):
        raise ConfigError("required section missing", key=section)


def _build_scenario(cfg, seed_override):
    _require_section(cfg, "scenario")
    horizon = _option(cfg, "scenario.horizon", required=True)
    steps = _option(cfg, "scenario.steps", required=True)
    mode = _option(cfg, "scenario.mode", "tree")
    seed = _option(cfg, "scenario.seed", 0)
    if seed_override is not None:
        seed = seed_override
    with _keyed("scenario"):
        grid = sc.TimeGrid(horizon, steps)
        if mode == "tree":
            scen = sc.build_scenarios(grid, "tree")
        elif mode == "montecarlo":
            n_paths = _option(cfg, "scenario.n_paths", required=True)
            degree = _option(cfg, "scenario.basis_degree", 3)
            scen = sc.build_scenarios(grid, "montecarlo", n_paths=n_paths,
                                      seed=seed, basis_degree=degree)
        else:
            raise ConfigError(f"unknown mode {mode!r}", key="scenario.mode")
    return scen, seed


# (y, z) lattice on which a configured driver's Lipschitz constant is checked
_DRIVER_PROBE = np.linspace(-10.0, 10.0, 41)


def _build_driver(cfg, key: str, lipschitz_key: str, grid: sc.TimeGrid,
                  required: bool = False) -> bs.Driver:
    """The generator in option ``key``, an expression in ``t, y, z``.

    One that reads ``y`` or ``z`` needs a positive ``lipschitz_key``, probed
    on a ``(y, z)`` lattice at every grid date (not beyond it), where a value
    that is not finite fails the probe.  One that reads neither must be
    finite at every grid date.
    """
    expr = _option(cfg, key, required=required)
    if expr is None:
        return bs.Driver.constant(0.0)
    dep_y = "y" in expr.names
    dep_z = "z" in expr.names
    lam = 0.0
    if dep_y or dep_z:
        lam = _option(cfg, lipschitz_key, required=True)
        if lam <= 0:
            raise ConfigError("must be > 0 for a y/z-dependent driver", key=lipschitz_key)
    with _keyed(lipschitz_key):
        driver = bs.Driver(fn=expr, lipschitz=lam, depends_on_y=dep_y, depends_on_z=dep_z)
        if dep_y or dep_z:
            bs.check_lipschitz_lattice(driver, grid.nodes, _DRIVER_PROBE)
            return driver
    zero = np.zeros(1)
    with np.errstate(all="ignore"):
        bad = [t for t in grid.nodes if not np.all(np.isfinite(expr(float(t), zero, zero)))]
    if bad:
        raise ConfigError(f"driver value not finite at t={bad[0]:g}", key=key)
    return driver


# lattice on which a configured loss's slope bounds are checked: x, and the
# Brownian coordinate b in standard deviations of B_T for b-dependent losses
_LOSS_PROBE_X = np.linspace(-10.0, 10.0, 81)
_LOSS_PROBE_B = np.array([-3.0, 0.0, 3.0])


def _build_loss(cfg, grid: sc.TimeGrid) -> rf.LossFunction:
    """The loss, a function of ``(t, b, x)``, its slope bounds probed at every grid date.

    A loss that breaks the bounds only outside the lattice still reaches the
    shift search, which then finds no root bracket (exit 4).
    """
    expr = _option(cfg, "problem.loss", required=True)
    if "x" not in expr.names:
        raise ConfigError("loss must depend on x", key="problem.loss")
    lower = _option(cfg, "problem.loss_lower", 1.0)
    upper = _option(cfg, "problem.loss_upper", 1.0)
    shape = _option(cfg, "problem.loss_shape", "general")
    b_values = _LOSS_PROBE_B * np.sqrt(grid.horizon) if "b" in expr.names else (0.0,)
    with _keyed("problem.loss"):
        loss = rf.LossFunction(fn=expr, lower=lower, upper=upper, shape=shape, random=True)
        rf.check_loss_lattice(loss, grid.nodes, _LOSS_PROBE_X, b_values)
    return loss


def _build_payoff(cfg, scen: sc.ScenarioSet) -> bs.TerminalClaim:
    """The payoff evaluated on the terminal support, which must come out finite."""
    expr = _option(cfg, "problem.payoff", required=True)
    try:
        with np.errstate(all="ignore"):
            return bs.TerminalClaim.from_function(scen, expr)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{exc} on the terminal support",
                          key="problem.payoff") from None


def _build_expectation(cfg, grid: sc.TimeGrid) -> ne.NonlinearExpectation:
    """The expectation; ``kappa`` is the gexp driver's constant or the alpha-maxmin radius."""
    kind = _option(cfg, "problem.expectation", "classical")
    if kind == "classical":
        return ne.NonlinearExpectation.classical()
    if kind == "gexp":
        driver = _build_driver(cfg, "problem.gexp_driver", "problem.kappa", grid, required=True)
        with _keyed("problem.gexp_driver"):
            ne.check_vanishing(driver, grid.nodes)
        return ne.NonlinearExpectation.gexp(driver)
    if kind == "alpha-maxmin":
        alpha = _option(cfg, "problem.alpha", 1.0)
        kappa = _option(cfg, "problem.kappa", 0.0)
        with _keyed("problem.expectation"):
            return ne.NonlinearExpectation.alpha_maxmin(alpha=alpha, kappa=kappa)
    raise ConfigError(f"unknown expectation kind {kind!r}", key="problem.expectation")


def _build_risk(cfg, grid) -> tuple:
    _require_section(cfg, "risk")
    kernels = _option(cfg, "risk.kernels", required=True)
    with _keyed("risk.kernels"):
        rk.RiskMeasure.coherent_family(kernels)
    penalties = _option(cfg, "risk.penalties", [0.0] * len(kernels))
    with _keyed("risk.penalties"):
        rho = rk.RiskMeasure.convex_family(kernels, penalties)
    qc = _option(cfg, "risk.q_constant")
    if (qc is None) != cfg.has_option("risk", "q_knots"):
        raise ConfigError("set exactly one of q_constant / q_knots", key="risk")
    if qc is not None:
        with _keyed("risk.q_constant"):
            return rho, rk.Benchmark.constant(grid, qc)
    knots = _option(cfg, "risk.q_knots")
    with _keyed("risk.q_knots"):
        return rho, rk.Benchmark.from_knots(grid, knots)


def _build_market(cfg) -> rk.Market:
    _require_section(cfg, "market")
    params = {key: _option(cfg, f"market.{key}", required=True)
              for key in ("rate", "drift", "volatility")}
    with _keyed("market"):
        return rk.Market(**params)


def _build_verify(cfg, scen: sc.ScenarioSet) -> vf.RampFlowInstance:
    """The ramp-flow instance on a tree: finite options, ``gamma > 0``, and binding."""
    with _keyed("scenario.mode"):
        vf.check_scenario(scen)
    params = {key: _option(cfg, f"verify.{key}", default)
              for key, default in (("gamma", 1.0), ("floor", 0.0), ("shift", 0.5), ("tilt", 1.0))}
    for key, value in params.items():
        if not np.isfinite(value):
            raise ConfigError("must be finite", key=f"verify.{key}")
    with _keyed("verify.gamma"):
        inst = vf.RampFlowInstance(**params)
    with _keyed("verify.shift"):
        inst.t_star(scen)
    return inst


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

    if command in ("solve", "gexp", "price"):
        _require_section(cfg, "problem")
        run.payoff = _build_payoff(cfg, scen)
    if command == "solve":
        run.driver = _build_driver(cfg, "problem.driver", "problem.driver_lipschitz", scen.grid)
        run.loss = _build_loss(cfg, scen.grid)
        run.expectation = _build_expectation(cfg, scen.grid)
        with _keyed("problem.kappa"):
            ne.check_operator(run.expectation, scen)
    if command == "gexp":
        run.expectation = _build_expectation(cfg, scen.grid)
    if command == "price":
        run.market = _build_market(cfg)
        run.rho, run.benchmark = _build_risk(cfg, scen.grid)
    if command == "verify":
        run.ramp = _build_verify(cfg, scen)
    run.mean_floor_column = _option(cfg, "output.mean_floor_column", False)
    return run


# ------------------------------------------------------------------- output

def _fmt(x) -> str:
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
    diag = sol.diagnostics
    log.add(f"shift_closed_form={diag.shift_closed_form} shift_search={diag.shift_search} "
            f"shift_steps={int(diag.shift_iterations.sum())}")


def _write_reflected(out: Path, run: RunConfig, sol: rf.ReflectedSolution, floors=None):
    """Write ``solution.csv`` for a reflected solution, with an optional mean-floor column."""
    columns = {
        "mean_y": sol.mean_values(run.scen),
        "flow": sol.K.values,
        "constraint": sol.diagnostics.constraint_values,
        "mean_floor": floors,
    }
    _write_solution(out / "solution.csv", run, columns)


def _run_solve(run: RunConfig, out: Path, log: _RunLog) -> int:
    scen = run.scen
    sol = pc.solve_reflected(scen, run.payoff, run.driver, run.loss, run.expectation)
    floors = None
    if run.mean_floor_column:
        rep = vf.representation_gap(scen, sol, run.driver, run.expectation, run.loss)
        floors = np.append(rep.floors, np.nan)
    _write_reflected(out, run, sol, floors)
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
        means = np.full(scen.grid.steps + 1, sc.expect(scen, rv))
    else:
        # every level's mean takes the whole solve, blended over the same
        # envelopes; ne.evaluate rolls back the root alone, by these steps or,
        # for a monotone claim under kappa*|z|, by one binomial dot product
        means = exp.blend(lambda driver: np.array(
            [sc.expect(scen, y) for y in bs.solve_bsde(scen, rv, driver).Y]))
    value = means[0]
    columns = {"mean_y": means, "flow": np.zeros(scen.grid.steps + 1), "constraint": None,
               "mean_floor": None}
    _write_solution(out / "solution.csv", run, columns)
    print(_fmt(value))
    log.add(f"value={_fmt(value)}")
    return 0


def _run_price(run: RunConfig, out: Path, log: _RunLog) -> int:
    scen = run.scen
    report = rk.superhedge_price(run.market, scen, run.payoff, run.rho, run.benchmark)
    _write_reflected(out, run, report.solution)
    _log_solution(log, report.solution)
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
    sol = run.ramp.solve(run.scen)
    records = vf.structural_checks(run.scen, run.ramp, sol)
    lines = vf.emit_report(records, csv_path=out / "report.csv", stream=sys.stdout)
    for line in lines:
        log.add(line)
    _write_reflected(out, run, sol)
    n_fail = sum(1 for r in records if not r.passed)
    log.add(f"checks={len(records)} failed={n_fail}")
    print(f"checks={len(records)} failed={n_fail}")
    return 0


# library failures that end a run after the config was read: exit code, label
_SOLVER_FAILURES = {
    InfeasibleProblemError: (2, "infeasible"),
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
