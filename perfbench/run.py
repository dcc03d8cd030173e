"""nebsde benchmark: four workloads, end-to-end metrics, per-layer trace.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tree-binding --seed 1 --seconds 12 --trace 0

Workloads: ``tree-binding``, ``superhedge``, ``mc-solve``, ``verify-suite``
(see README.md in this directory for what each one exercises and why).
Each run is a closed loop on one process with one thread: the next
operation starts when the previous one has returned.  Every operation's
outputs are checked; a raise or a failed check counts as a failed
operation.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones (``wall_s``, ``cold_s``, ``setup_s``,
``peak_rss_mb``); ``fail_frac`` is printed on the line above it and is
``failed / attempted`` of the JSON object.  With ``--trace 1`` the metrics
are the per-layer ones from a separate traced phase.  A JSON record with
the environment, the raw samples and the metrics is written to
``perfbench/out/``; a traced run also writes its spans there.

The benchmark imports the package from ``src/`` next to this directory and
exits with status 2, printing no result, when there is none.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import environment

WORKLOADS = ("tree-binding", "superhedge", "mc-solve", "verify-suite")
# Fresh processes per run that each time one set-up and one cold operation;
# with this process's own set-up and first operation that gives three
# samples of setup_s and cold_s per run, reported as medians.
CHILD_RUNS = 2
MIN_WARM_OPS = 3
MIN_TRACE_OPS = 2
CHILD_TIMEOUT_S = 150
OUT_DIR = Path(__file__).resolve().with_name("out")


class OpLog:
    """Attempted and failed operations with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(problems)
            for line in problems:
                print(f"perfbench: operation {self.attempted} failed: {line}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return len(self.failures)


def timed_op(inst, log: OpLog, around=nullcontext):
    """Run one operation, check its outputs; return (seconds, result or None)."""
    gc.collect()
    result, problems = None, None
    with around():
        t0 = time.perf_counter()
        try:
            result = inst.run()
        except Exception as exc:  # a raising operation is a failed operation
            problems = [f"raised {exc!r}"]
        elapsed = time.perf_counter() - t0
    log.add(problems if problems is not None else inst.check(result))
    return elapsed, result


def timed_loop(inst, log: OpLog, seconds: float, min_ops: int, around=nullcontext,
               each=None) -> list:
    """Closed loop: operations back to back for ``seconds`` (at least ``min_ops``)."""
    times = []
    start = time.perf_counter()
    while len(times) < min_ops or time.perf_counter() - start < seconds:
        elapsed, result = timed_op(inst, log, around)
        times.append(elapsed)
        if each is not None and result is not None:
            each(result)
    return times


def child_main(workload: str, seed: int, scale: str) -> int:
    """Set up in a fresh process, run one cold operation, print the timings."""
    t0 = time.perf_counter()
    import workloads  # first import of numpy, scipy and nebsde: part of setup_s

    inst = workloads.build(workload, seed, scale)
    setup_s = time.perf_counter() - t0
    log = OpLog()
    cold_s, _ = timed_op(inst, log)
    print(json.dumps({"setup_s": setup_s, "build_s": inst.build_s, "cold_s": cold_s,
                      "failures": log.failures}))
    return 0


def run_child(workload: str, seed: int, scale: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(seed), "--scale", scale]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return {"error": f"set-up process timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"set-up process exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(lines[-1])


def per_layer_metrics(tracer, counters: list, untraced: list, traced: list,
                      builds: list) -> dict:
    """Per-operation medians of the traced counters and self times."""
    from tracing import BYTES_PER_NODE_UPDATE, KERNEL, OPERATION, metric_prefix

    per_op = tracer.per_operation()

    def med(values) -> float:
        return float(statistics.median(values))

    out = {"scenarios.build_scenarios.s": (med(builds), "s")}
    for j, name in enumerate(tracer.names):
        if name != OPERATION:
            out[f"{metric_prefix(name)}.calls"] = (med(per_op["calls"][:, j]), "count")
            out[f"{metric_prefix(name)}.self_s"] = (med(per_op["self_s"][:, j]), "s")
    nodes = med(per_op["work"][:, tracer.names.index(KERNEL)])
    out["kernels.node_updates"] = (nodes, "count")
    out["kernels.bytes_computed"] = (nodes * BYTES_PER_NODE_UPDATE, "B")

    c = {key: med([op[key] for op in counters]) for key in counters[0]}
    levels = c["levels"]
    cv_calls = out["reflection.constraint_value.calls"][0]
    out["reflection.bisect_steps"] = (c["reflection.bisect_steps"], "count")
    out["reflection.binding_share"] = (c["binding_levels"] / levels if levels else 0.0, "ratio")
    out["reflection.evals_per_level"] = (cv_calls / levels if levels else 0.0, "count/level")
    for key in ("picard.windows", "picard.iterations", "picard.attempts"):
        out[key] = (c[key], "count")
    windows = c["picard.windows"]
    out["picard.iterations_per_window"] = (
        c["picard.iterations"] / windows if windows else 0.0, "ratio")
    out["verify.checks_passed"] = (c["verify.checks_passed"], "count")
    out["trace.overhead_s"] = (med(traced) - med(untraced), "s")
    return out


def warm_phase(inst, log: OpLog, seconds: float, min_ops: int, spawn_child,
               children: int) -> list:
    """Warm operations for ``seconds`` with the set-up processes spread evenly
    between them, so warm and cold samples come from the same stretch of a
    machine whose speed drifts over tens of seconds."""
    times = []
    segments = max(children, 1)
    for k in range(segments):
        if k < children:
            spawn_child()
        least = min_ops - len(times) if k == segments - 1 else 1
        times += timed_loop(inst, log, seconds / segments, least)
    return times


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  scale: str = "full", child_runs: int = CHILD_RUNS,
                  out_dir: Path = OUT_DIR) -> dict:
    """One benchmark run; returns the record (metrics as ``(value, unit)``)."""
    log = OpLog()
    t0 = time.perf_counter()
    import workloads  # first import of numpy, scipy and nebsde: part of setup_s

    inst = workloads.build(workload, seed, scale)
    setups, builds = [time.perf_counter() - t0], [inst.build_s]
    colds = [timed_op(inst, log)[0]]

    def spawn_child():
        child = run_child(workload, seed, scale)
        if "error" in child:
            log.add([child["error"]])
            return
        setups.append(child["setup_s"])
        builds.append(child["build_s"])
        colds.append(child["cold_s"])
        for problems in child["failures"] or [[]]:
            log.add(problems)

    record = {
        "workload": workload, "seed": seed, "row": inst.row, "params": inst.params,
        "scale": scale, "m": inst.dims["m"], "n_paths": inst.dims["n_paths"],
        "seconds": seconds, "trace": int(trace), "environment": environment.describe(),
    }
    if not trace:
        warm = warm_phase(inst, log, seconds, MIN_WARM_OPS, spawn_child, child_runs)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": (statistics.median(warm), "s"),
            "cold_s": (statistics.median(colds), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss_kib / 1024.0, "MB"),
        }
        samples = {"wall_s": warm}
    else:
        from tracing import Tracer, result_counters

        untraced = warm_phase(inst, log, seconds / 2.0, MIN_TRACE_OPS, spawn_child, child_runs)
        tracer = Tracer()
        counters = []
        with tracer.installed():
            traced = timed_loop(inst, log, seconds / 2.0, MIN_TRACE_OPS, tracer.operation,
                                lambda result: counters.append(result_counters(inst, result)))
        if not counters:
            raise RuntimeError("every traced operation failed; no per-layer metrics")
        metrics = per_layer_metrics(tracer, counters, untraced, traced, builds)
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.save(out_dir / f"spans-{workload}.npz")
        samples = {"untraced_wall_s": untraced, "traced_wall_s": traced}

    samples.update(setup_s=setups, build_s=builds, cold_s=colds)
    record.update(samples=samples, attempted=log.attempted, failed=log.failed,
                  failures=log.failures,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def _report(record: dict) -> None:
    env = record["environment"]
    print(f"perfbench {record['workload']} seed={record['seed']} row={record['row']} "
          f"params={record['params']} m={record['m']} n_paths={record['n_paths']} "
          f"backend={env['kernel_backend']} pure_python={env['nebsde_pure_python']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"nproc={env['nproc']} commit={env['git_commit']}")
    samples = record["samples"]
    for name, entry in record["metrics"].items():
        line = f"  {name:<40s} {entry['value']:.6g} {entry['unit']}"
        if name in samples:
            vals = samples[name]
            line += f"  (median of {len(vals)}: min {min(vals):.6g}, max {max(vals):.6g})"
        print(line)
    attempted, failed = record["attempted"], record["failed"]
    print(f"  {'fail_frac':<40s} {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} operations failed)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="problem sizes; tiny is for the benchmark's self-tests")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        environment.require_source()
    except environment.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args.workload, args.seed, args.scale)
    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    _report(record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
