"""Benchmark entry point: run one qmil workload and print its metrics.

    python3 perfbench/run.py --workload train_crop16_quantile --seed 0 --seconds 10 --trace 0

Run it from the root of a qmil checkout; the package is imported from the
checkout's src/ directory, nothing is installed. Each invocation runs one
workload in its own process, so peak memory and warm-up belong to it. The
last line of standard output is one JSON object: with --trace 0 it holds
the end-to-end metrics, with --trace 1 the per-layer ones. The lines before
it report every metric that applies, the environment and output digests.
The exit code is 1 if any output check failed and 2 if the checkout has no
qmil sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# One BLAS/OpenMP thread: the matrices are small, and a second thread made
# throughput swing by a third between runs on a 2-core machine.
BLAS_THREADS = 1
_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def prepare_imports() -> bool:
    """Pin BLAS threads and put the checkout's src/ first on sys.path.

    Must run before numpy is imported. Returns False when the checkout has
    no qmil sources.
    """
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "qmil" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    return True


def environment(seed: int) -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        blas_name = "unknown"
    return (
        f"env nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} blas={blas_name!r} blas_threads={BLAS_THREADS} seed={seed}"
    )


def main(argv=None) -> int:
    if not prepare_imports():
        print(f"perfbench: no qmil sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import qmil
    import workloads

    if not Path(qmil.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported qmil from {qmil.__file__}, not the checkout",
              file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget of the timed cycles")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    w = workloads.WORKLOADS[args.workload]
    print(f"workload {w.name}")
    print(environment(args.seed), flush=True)
    metrics, checks, lines = workloads.run(
        w, args.seed, args.seconds, bool(args.trace), str(OUT_DIR)
    )
    for line in lines:
        print(line)
    for message in checks.messages:
        print(f"check failed: {message}")
    correct = checks.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
