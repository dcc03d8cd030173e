"""Process set-up shared by every benchmark module.

Importing this module pins the BLAS and OpenMP pools to one thread, which
only takes effect when it happens before numpy is first imported, so every
benchmark module imports it first.  :func:`require_source` puts the
checkout's own ``src`` directory at the front of ``sys.path``: the benchmark
always measures the source tree it ships beside, never an installed copy.
"""
from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/nebsde`` package to benchmark."""


def require_source() -> None:
    """Make ``import nebsde`` resolve to ``<checkout>/src/nebsde``."""
    if not (SRC / "nebsde" / "__init__.py").is_file():
        raise SourceMissing(f"no nebsde package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def git_commit() -> str:
    """Commit of the checkout, or ``unknown`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def describe() -> dict:
    """Everything that decides whether two records may be compared."""
    import numpy
    import scipy

    import nebsde

    return {
        "kernel_backend": nebsde.KERNEL_BACKEND,
        "nebsde_pure_python": bool(os.environ.get("NEBSDE_PURE_PYTHON")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
    }
