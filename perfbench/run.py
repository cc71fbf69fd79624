"""Benchmark entry point.

    python3 perfbench/run.py --workload eigen_p --seed 1 --seconds 30 --trace 0

Runs one workload in this process and prints, as its last line, one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The full
record (environment, every pass, every answer and check) goes to
perfbench/out/.  Run from the root of a source checkout; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Two BLAS threads for the benchmark's own process; README.md gives the
# measurements behind the choice.  Set before numpy is first imported.
BLAS_THREADS = "2"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("eigen_p", "fp_descent", "sweep_p2", "p2_cliff"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "steklov_cusp" / "__init__.py").is_file():
        print(f"error: no steklov_cusp sources under {ROOT / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness  # imports no numpy at module level
    from perfbench.workloads import WORKLOADS

    for var in harness.THREAD_VARS:
        os.environ[var] = BLAS_THREADS

    record = harness.run(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    for i, p in enumerate(record["passes"]):
        for name, rec in p["cases"].items():
            answer = rec["answer"] or {}
            status = "FAILED" if rec["failed"] else "ok"
            print(f"pass {i} {name}: {status} "
                  f"{rec['seconds']:.3f}s values={answer.get('values', [])[:3]} "
                  f"converged={answer.get('converged')} residual={answer.get('residual')} "
                  f"iterations={answer.get('iterations')}"
                  + (f" error={rec['error']}" if rec["error"] else "")
                  + "".join(f"\n    miss: {m}" for m in rec["misses"]))
    print(f"record: {record['path']}")
    print(json.dumps(record["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
