"""Self-tests of the benchmark, at tiny problem sizes.

Run from the root of the repository::

    python3 -m pytest -q perfbench
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from nebsde import reflection as rf

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tiny(workload, trace, tmp_path, seed=5):
    return run.run_benchmark(workload, seed, 0.0, trace, scale="tiny", child_runs=1,
                             out_dir=tmp_path)


def _spec_units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, tmp_path):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        record = _tiny(workload, trace, tmp_path)
        got = {name: entry["unit"] for name, entry in record["metrics"].items()}
        assert got == _spec_units(section)
        assert record["failed"] == 0 and record["attempted"] >= 3
        assert all(np.isfinite(e["value"]) for e in record["metrics"].values())
        saved = json.loads((tmp_path / f"{workload}-seed5-trace{int(trace)}.json").read_text())
        for key in ("kernel_backend", "nebsde_pure_python", "python", "numpy", "scipy",
                    "nproc", "git_commit"):
            assert key in saved["environment"]
        assert saved["seed"] == 5 and "m" in saved and "n_paths" in saved
    assert (tmp_path / f"spans-{workload}.npz").is_file()


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.BUILDERS) == list(run.WORKLOADS)


def test_setup_metric_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_same_seed_same_instance_and_outputs():
    a = workloads.build("mc-solve", 9, "tiny")
    b = workloads.build("mc-solve", 9, "tiny")
    assert a.row == b.row and a.params == b.params
    assert a.run().value == b.run().value


def test_checks_pass_on_unperturbed_results():
    for name in run.WORKLOADS:
        inst = workloads.build(name, 2, "tiny")
        assert inst.check(inst.run()) == []


def _with_value_shift(sol, delta):
    y0 = sol.Y[0]
    ys = (type(y0)(y0.index, y0.values + delta),) + sol.Y[1:]
    return dataclasses.replace(sol, Y=ys)


def _with_constraint_shift(sol, delta):
    diag = dataclasses.replace(sol.diagnostics,
                               constraint_values=sol.diagnostics.constraint_values + delta)
    return dataclasses.replace(sol, diagnostics=diag)


def _with_decreasing_flow(sol):
    # ReflectorFlow rejects a decreasing flow, so build one past its check
    flow = object.__new__(rf.ReflectorFlow)
    vals = sol.K.values.copy()
    vals[-1] = vals[-2] - 1e-9
    object.__setattr__(flow, "values", vals)
    return dataclasses.replace(sol, K=flow)


def test_check_fails_on_perturbed_results():
    tree = workloads.build("tree-binding", 2, "tiny")
    amm, gexp = tree.run()
    assert tree.check((_with_value_shift(amm, 2e-8), gexp))
    assert tree.check((amm, _with_constraint_shift(gexp, -2e-8 - gexp.diagnostics.constraint_values.min())))
    assert tree.check((_with_decreasing_flow(amm), gexp))

    mc = workloads.build("mc-solve", 2, "tiny")
    assert mc.check(_with_value_shift(mc.run(), -2e-8))

    sh = workloads.build("superhedge", 2, "tiny")
    report = sh.run()
    assert sh.check(dataclasses.replace(report, price=report.price + 2e-8))

    vs = workloads.build("verify-suite", 2, "tiny")
    records = vs.run()
    assert vs.check([dataclasses.replace(records[0], passed=False)] + records[1:])
    assert vs.check(records[:-1])


def test_unrecorded_instance_fails_its_check():
    inst = workloads.build("tree-binding", 2, "tiny", references={})
    assert inst.check(inst.run())


@pytest.mark.parametrize("workload", ["tree-binding", "superhedge", "mc-solve"])
def test_traced_counters_cross_check_results(workload, tmp_path):
    metrics = {k: e["value"] for k, e in _tiny(workload, True, tmp_path)["metrics"].items()}
    inst = workloads.build(workload, 5, "tiny")
    sols = inst.solutions(inst.run())
    assert metrics["reflection.constraint_value.calls"] >= metrics["reflection.bisect_steps"]
    assert metrics["reflection.bisect_steps"] == sum(
        int(s.diagnostics.shift_iterations.sum()) for s in sols)
    assert metrics["picard.windows"] == sum(len(s.picard.window_bounds) for s in sols)
    assert metrics["picard.iterations"] == sum(sum(s.picard.iterations) for s in sols)
    if workload == "tree-binding":
        # two kernel roll-backs per alpha-maxmin evaluation, one per gexp one
        assert metrics["kernels.tree_backward_value.calls"] >= metrics["expectations.evaluate.calls"]
        assert metrics["kernels.node_updates"] > 0


def test_counters_repeat_exactly_for_one_seed(tmp_path):
    counted = {m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"}
    first, second = (
        {k: e["value"] for k, e in _tiny("tree-binding", True, tmp_path)["metrics"].items()
         if k in counted}
        for _ in range(2)
    )
    assert first == second
    assert first["expectations.evaluate.calls"] > 0


def test_tracer_restores_the_original_functions():
    import nebsde.scenarios as sc

    before = sc.step_expect
    inst = workloads.build("tree-binding", 1, "tiny")
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            assert sc.step_expect is not before
            with tracer.operation():
                inst.run()
            1 / 0
    assert sc.step_expect is before
    assert tracer.per_operation()["calls"][0, tracer.names.index("scenarios.step_expect")] > 0


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    with tracer.operation():
        outer = tracer._enter(1, 0.0)
        inner = tracer._enter(2, 0.0)
        tracer._exit(inner)
        tracer._exit(outer)
    for idx, (start, end) in enumerate(((0.0, 10.0), (1.0, 6.0), (2.0, 5.0))):
        tracer._start[idx], tracer._end[idx] = start, end
    per_op = tracer.per_operation()
    assert per_op["self_s"][0, :3].tolist() == [5.0, 2.0, 3.0]
    assert per_op["calls"][0, :3].tolist() == [1, 1, 1]


def test_exits_nonzero_without_result_when_the_source_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
