"""Record the reference outputs the benchmark checks its operations against.

Solves every parameter-table row of the workloads whose values are checked
against recorded ones (``tree-binding`` and ``mc-solve``), at both scales,
and writes ``[value, K.total]`` per solution to ``references.json``::

    python3 perfbench/record_references.py

Re-record only when a change is meant to move these values, and say so.
"""
import environment

environment.require_source()

import workloads  # noqa: E402

if __name__ == "__main__":
    refs = workloads.record_references()
    print(f"wrote {workloads.REFERENCES} at commit {refs['git_commit']}")
