"""The benchmark's four workloads: seeded instances, one operation each, and
the checks every operation's outputs must pass.

A seed picks one row of a 16-row parameter table per workload.  The rows
span a narrow range around the nominal instance, so every row keeps the
nominal instance's binding or slack character and nearly the same amount of
work (README.md in this directory gives the reasons and the numbers).
Workloads call the library through module attributes (``pc.solve_reflected``
rather than ``nebsde.solve_reflected``) so that the traced run's wrappers
see those calls.
"""
from __future__ import annotations

import environment

environment.require_source()

import json  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

from nebsde import bsde as bs  # noqa: E402
from nebsde import expectations as ne  # noqa: E402
from nebsde import picard as pc  # noqa: E402
from nebsde import reflection as rf  # noqa: E402
from nebsde import risk as rk  # noqa: E402
from nebsde import scenarios as sc  # noqa: E402
from nebsde import verify as vf  # noqa: E402

N_INSTANCES = 16
# Tolerances are those the test suite pins for the same quantities: two
# equivalent solves agree to 1e-8 in value and K, the reflected constraint
# is >= -1e-8, and K never decreases by more than 1e-12.
REFERENCE_TOL = 1e-8
CONSTRAINT_TOL = 1e-8
FLOW_TOL = 1e-12
SUPERHEDGE_Q = 0.45
VERIFY_CHECKS = 10

SCALES = {
    "full": {"tree_m": 200, "superhedge_m": 400, "mc_steps": 50, "mc_paths": 20000,
             "verify_m": 1000},
    # for the benchmark's self-tests only
    "tiny": {"tree_m": 8, "superhedge_m": 8, "mc_steps": 8, "mc_paths": 300,
             "verify_m": 8},
}
REFERENCES = Path(__file__).with_name("references.json")


@dataclass
class Instance:
    """One seeded workload instance, built and ready to run."""

    workload: str
    row: int
    params: dict
    dims: dict
    run: Callable[[], object]
    solutions: Callable[[object], list]
    check: Callable[[object], list]
    build_s: float
    checks_passed: Callable[[object], int] = lambda result: 0


def _row(centre: float, half_width: float, row: int) -> float:
    return float(np.linspace(centre - half_width, centre + half_width, N_INSTANCES)[row])


def _timed_build(grid: sc.TimeGrid, mode: str, **kwargs):
    t0 = time.perf_counter()
    scen = sc.build_scenarios(grid, mode, **kwargs)
    return scen, time.perf_counter() - t0


def solution_failures(sol: rf.ReflectedSolution, label: str) -> list:
    """Feasibility of the reflected ``Y`` and monotonicity of ``K``."""
    out = []
    cmin = float(np.min(sol.diagnostics.constraint_values))
    if not cmin >= -CONSTRAINT_TOL:
        out.append(f"{label}: min constraint {cmin:.3e} < -{CONSTRAINT_TOL:g}")
    k = sol.K.values
    if k[0] != 0.0:
        out.append(f"{label}: K_0 = {k[0]:.3e}, expected 0")
    if k.size > 1 and not float(np.min(np.diff(k))) >= -FLOW_TOL:
        out.append(f"{label}: K decreases by {-float(np.min(np.diff(k))):.3e}")
    return out


def reference_failures(sols: list, expected, label: str) -> list:
    """Value and ``K.total`` of each solution against the recorded pair."""
    if expected is None:
        return [f"{label}: no reference recorded for this instance"]
    out = []
    for j, (sol, (value, k_total)) in enumerate(zip(sols, expected)):
        if not abs(sol.value - value) <= REFERENCE_TOL:
            out.append(f"{label}[{j}]: value {sol.value!r} != reference {value!r}")
        if not abs(sol.K.total - k_total) <= REFERENCE_TOL:
            out.append(f"{label}[{j}]: K.total {sol.K.total!r} != reference {k_total!r}")
    if len(sols) != len(expected):
        out.append(f"{label}: {len(sols)} solutions, reference has {len(expected)}")
    return out


def _tree_binding(size: dict, row: int, expected) -> Instance:
    offset = _row(0.5, 0.005, row)
    m = size["tree_m"]
    scen, build_s = _timed_build(sc.TimeGrid(1.0, m), "tree")
    claim = bs.TerminalClaim.from_function(scen, lambda b: b + offset)
    driver = bs.Driver.constant(-1.0)
    linear = rf.LossFunction.linear(0.0)
    concave = rf.LossFunction(
        fn=lambda t, x: np.minimum(x, 0.6 * np.asarray(x)), lower=0.6, upper=1.0,
        shape="concave",
    )
    maxmin = ne.NonlinearExpectation.alpha_maxmin(alpha=0.3, kappa=0.5)
    gexp = ne.NonlinearExpectation.gexp(bs.Driver.kappa_abs(0.3, include_y=True))

    def run():
        return (
            pc.solve_reflected(scen, claim, driver, linear, maxmin),
            pc.solve_reflected(scen, claim, driver, concave, gexp),
        )

    def check(result):
        out = []
        for label, sol in zip(("alpha-maxmin", "gexp"), result):
            out += solution_failures(sol, label)
        return out + reference_failures(list(result), expected, "tree-binding")

    return Instance("tree-binding", row, {"claim_offset": offset}, {"m": m, "n_paths": 0},
                    run, list, check, build_s)


def _superhedge(size: dict, row: int, expected) -> Instance:
    offset = _row(0.45, 0.005, row)
    m = size["superhedge_m"]
    scen, build_s = _timed_build(sc.TimeGrid(1.0, m), "tree")
    claim = bs.TerminalClaim.from_function(scen, lambda b: b + offset)
    market = rk.Market(rate=0.05, drift=0.25, volatility=0.2)
    rho = rk.RiskMeasure.coherent_family([-0.5, 0.0, 0.5])
    q = rk.Benchmark.constant(scen.grid, SUPERHEDGE_Q)

    def run():
        return rk.superhedge_price(market, scen, claim, rho, q)

    def check(report):
        out = solution_failures(report.solution, "superhedge")
        if not abs(report.price + SUPERHEDGE_Q) <= REFERENCE_TOL:
            out.append(f"superhedge: price {report.price!r} != -q = {-SUPERHEDGE_Q}")
        return out

    return Instance("superhedge", row, {"claim_offset": offset, "q": SUPERHEDGE_Q},
                    {"m": m, "n_paths": 0}, run, lambda r: [r.solution], check, build_s)


def _mc_solve(size: dict, row: int, expected) -> Instance:
    path_seed = row
    steps, n_paths = size["mc_steps"], size["mc_paths"]
    scen, build_s = _timed_build(
        sc.TimeGrid(1.0, steps), "montecarlo", n_paths=n_paths, seed=path_seed, basis_degree=3
    )
    claim = bs.TerminalClaim.from_function(scen, lambda b: b + 0.5)
    driver = bs.Driver(
        fn=lambda t, y, z: -0.2 * np.asarray(y) + 0.1 * np.abs(z),
        lipschitz=0.3, depends_on_y=True, depends_on_z=True,
    )
    loss = rf.LossFunction.linear(0.0)
    classical = ne.NonlinearExpectation.classical()

    def run():
        return pc.solve_reflected(scen, claim, driver, loss, classical)

    def check(sol):
        return solution_failures(sol, "mc-solve") + reference_failures([sol], expected, "mc-solve")

    return Instance("mc-solve", row, {"path_seed": path_seed, "basis_degree": 3},
                    {"m": steps, "n_paths": n_paths}, run, lambda s: [s], check, build_s)


def _verify_suite(size: dict, row: int, expected) -> Instance:
    shift = _row(0.5, 0.005, row)
    m = size["verify_m"]
    scen, build_s = _timed_build(sc.TimeGrid(1.0, m), "tree")

    def run():
        return vf.run_structural_checks(scen, shift=shift)

    def check(records):
        failed = [r.name for r in records if not r.passed]
        if len(records) != VERIFY_CHECKS or failed:
            return [f"verify-suite: {len(records) - len(failed)}/{len(records)} checks "
                    f"passed, expected {VERIFY_CHECKS}/{VERIFY_CHECKS}; failed {failed}"]
        return []

    # the suite's solves stay inside verify; nothing is returned to inspect
    return Instance("verify-suite", row, {"shift": shift}, {"m": m, "n_paths": 0},
                    run, lambda r: [], check, build_s,
                    checks_passed=lambda records: sum(bool(r.passed) for r in records))


BUILDERS = {
    "tree-binding": _tree_binding,
    "superhedge": _superhedge,
    "mc-solve": _mc_solve,
    "verify-suite": _verify_suite,
}
# workloads whose values and K.total are checked against references.json
REFERENCED = ("tree-binding", "mc-solve")


def seed_row(seed: int) -> int:
    return int(np.random.default_rng(seed).integers(N_INSTANCES))


def _load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def build(workload: str, seed: int, scale: str = "full", references: dict | None = None) -> Instance:
    """The instance ``seed`` selects for ``workload`` at ``scale``."""
    row = seed_row(seed)
    if references is None:
        references = _load_references()
    expected = references.get(scale, {}).get(workload, {}).get(str(row))
    return BUILDERS[workload](SCALES[scale], row, expected)


def record_references() -> dict:
    """Solve every table row of the referenced workloads at every scale and
    keep ``[value, K.total]`` per solution; written to ``references.json``."""
    out = {"git_commit": environment.git_commit(), "tolerance": REFERENCE_TOL}
    for scale in SCALES:
        out[scale] = {}
        for name in REFERENCED:
            rows = {}
            for row in range(N_INSTANCES):
                inst = BUILDERS[name](SCALES[scale], row, None)
                sols = inst.solutions(inst.run())
                rows[str(row)] = [[sol.value, sol.K.total] for sol in sols]
            out[scale][name] = rows
    with open(REFERENCES, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return out
