"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 simbench/run.py --workload paper-grid --seed 1 --seconds 12 --trace 0
    python3 simbench/run.py --workload scale-fair --seed 1 --seconds 12 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of the traced run.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
0 when the workload ran to its end, whatever its operations' verdicts.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Pin numpy's (BLAS / OpenMP) thread pools to one thread.
THREAD_ENVIRONMENT = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    )
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-grid", "scale-fair", "scale-tcp", "clients-attack"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="host seconds to keep starting rounds for (at least one round runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs of the same make-up, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # Before the first import of the program, which may import numpy.
    os.environ.update(THREAD_ENVIRONMENT)
    from simbench.report import run_benchmark

    return run_benchmark(args, ROOT)


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
