"""Spans around calls into the library's layers, recorded from outside it.

:class:`Tracer` replaces the public module attributes listed in
:data:`TRACED` with wrappers while it is installed, and puts the originals
back afterwards, so untraced timings never pay for the wrappers.  The
library's internal calls go through module attributes or module globals
(``sc.step_expect``, ``kern.tree_backward_value``, ``ne.evaluate``, ...),
so the wrappers see them as well as the benchmark's own calls.

Each span is (name, start, end, parent, operation).  Spans live in flat
arrays while the run lasts and are written out once, at the end.  A span's
self time is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import environment

environment.require_source()

import functools  # noqa: E402
import importlib  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from contextlib import contextmanager  # noqa: E402

import numpy as np  # noqa: E402

# layer (package module) -> public functions whose calls are spans
TRACED = {
    "scenarios": ("step_expect", "step_z", "cond_expect", "tilted_expect"),
    "_kernels": ("tree_backward_value",),
    "expectations": ("evaluate",),
    "reflection": ("constraint_value",),
    "picard": ("solve_reflected",),
    "bsde": ("solve_bsde", "implicit_step"),
    "risk": ("evaluate_risk", "superhedge_price"),
    "verify": ("run_structural_checks", "mean_floor", "comparison_report", "representation_gap"),
}
KERNEL = "_kernels.tree_backward_value"
# one node update of the backward tree recursion reads two float64 values
# and writes one
BYTES_PER_NODE_UPDATE = 24


def _node_updates(args) -> float:
    """Work of one tree kernel call, computed from its input size.

    A terminal level of ``n + 1`` nodes is rolled back through ``n``
    levels, updating ``n (n + 1) / 2`` nodes in all.
    """
    n = np.size(args[0]) - 1
    return n * (n + 1) / 2.0


WORK = {KERNEL: _node_updates}
OPERATION = "operation"


def metric_prefix(span_name: str) -> str:
    """Metric names start with a letter, so ``_kernels.x`` reads ``kernels.x``."""
    return span_name.lstrip("_")


class Tracer:
    """Span recorder for the functions in :data:`TRACED`."""

    def __init__(self):
        self.names = [OPERATION] + [
            f"{layer}.{attr}" for layer, attrs in TRACED.items() for attr in attrs
        ]
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._name = array("H")
        self._op = array("q")
        self._work = array("d")
        self._stack = [-1]
        self._op_id = [-1]
        self.n_ops = 0

    def _enter(self, name_id: int, work: float) -> int:
        idx = len(self._start)
        self._parent.append(self._stack[-1])
        self._name.append(name_id)
        self._op.append(self._op_id[0])
        self._work.append(work)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name_id: int, fn, work):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(name_id, work(args) if work is not None else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(idx)

        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        originals = []
        try:
            for layer, attrs in TRACED.items():
                module = importlib.import_module(f"nebsde.{layer}")
                for attr in attrs:
                    name = f"{layer}.{attr}"
                    fn = getattr(module, attr)
                    originals.append((module, attr, fn))
                    setattr(module, attr,
                            self._wrap(self.names.index(name), fn, WORK.get(name)))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    @contextmanager
    def operation(self):
        """Group the spans of one benchmark operation under one root span."""
        self._op_id[0] = self.n_ops
        idx = self._enter(0, 0.0)
        try:
            yield self.n_ops
        finally:
            self._exit(idx)
            self.n_ops += 1
            self._op_id[0] = -1

    def _arrays(self) -> dict:
        return {
            "start": np.array(self._start, dtype=np.float64),
            "end": np.array(self._end, dtype=np.float64),
            "parent": np.array(self._parent, dtype=np.int64),
            "name": np.array(self._name, dtype=np.uint16),
            "op": np.array(self._op, dtype=np.int64),
            "work": np.array(self._work, dtype=np.float64),
        }

    def per_operation(self) -> dict:
        """``calls``, ``self_s`` and ``work`` as (operations x names) arrays."""
        a = self._arrays()
        inside = a["op"] >= 0
        a = {key: col[inside] for key, col in a.items()}
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_t = dur - child
        n_names = len(self.names)
        shape = (self.n_ops, n_names)
        key = a["op"] * n_names + a["name"]
        size = self.n_ops * n_names
        return {
            "calls": np.bincount(key, minlength=size).reshape(shape),
            "self_s": np.bincount(key, weights=self_t, minlength=size).reshape(shape),
            "work": np.bincount(key, weights=a["work"], minlength=size).reshape(shape),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self._arrays())


def result_counters(instance, result) -> dict:
    """Counters the operation's own results carry (no tracing needed)."""
    sols = instance.solutions(result)
    windows = sum(len(s.picard.window_bounds) for s in sols)
    iterations = sum(sum(s.picard.iterations) for s in sols)
    return {
        "levels": sum(len(s.Y) for s in sols),
        "reflection.bisect_steps": sum(int(s.diagnostics.shift_iterations.sum()) for s in sols),
        "binding_levels": sum(int(np.count_nonzero(s.K.increments > 0.0)) for s in sols),
        "picard.windows": windows,
        "picard.iterations": iterations,
        "picard.attempts": sum(s.picard.attempts for s in sols),
        "verify.checks_passed": instance.checks_passed(result),
    }
