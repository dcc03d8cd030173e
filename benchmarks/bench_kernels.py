"""Time the backward tree kernel: compiled backend vs numpy fallback.

Usage:
    python benchmarks/bench_kernels.py --sizes 200,500,1000,2000 --repeats 5
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

# time the checkout's own package, installed or not
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from nebsde._kernels import _tree_np  # noqa: E402

try:
    from nebsde._kernels import _tree_cy  # noqa: E402
except ImportError:
    _tree_cy = None


def _best_of(fn, repeats):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="200,500,1000,2000",
                    help="comma-separated step counts")
    ap.add_argument("--repeats", type=int, default=5, help="best-of repeats")
    ap.add_argument("--kappa", type=float, default=0.5)
    args = ap.parse_args(argv)

    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    if _tree_cy is None:
        print("compiled backend not built; timing numpy fallback only")

    header = f"{'steps':>8} {'numpy_ms':>12} {'cython_ms':>12} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for m in sizes:
        dt = 1.0 / m
        terminal = (2.0 * np.arange(m + 1) - m) * np.sqrt(dt) + 0.5
        t_np = _best_of(
            lambda: _tree_np.tree_backward_value(terminal, dt, args.kappa, True),
            args.repeats,
        )
        if _tree_cy is None:
            print(f"{m:>8} {t_np * 1e3:>12.3f} {'-':>12} {'-':>9}")
            continue
        t_cy = _best_of(
            lambda: _tree_cy.tree_backward_value(terminal, dt, args.kappa, True),
            args.repeats,
        )
        a = _tree_np.tree_backward_value(terminal, dt, args.kappa, True)
        b = _tree_cy.tree_backward_value(terminal, dt, args.kappa, True)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a)), "backend mismatch"
        print(f"{m:>8} {t_np * 1e3:>12.3f} {t_cy * 1e3:>12.3f} {t_np / t_cy:>9.2f}")


if __name__ == "__main__":
    main()
