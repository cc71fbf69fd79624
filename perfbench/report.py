"""Run every workload, untraced and then traced, each run in its own
process, with the command and run length of BENCHMARK.json, and print every
metric with its unit: the end-to-end metrics from the untraced run, the
per-layer metrics from the traced one.  The answer checks run inside each
workload.  This includes p2_cliff, which BENCHMARK.json leaves out
(README.md, "Run-to-run spread").

    python3 perfbench/report.py

Exits 1 if any run fails or any answer disagrees with its seed reference.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)

    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS

    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = bench["command"] + ["--workload", workload, "--seed", "0",
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            summary = json.loads(lines[-1])
            ok = ok and summary["correct"]
            print(f"{workload} trace={trace}: correct={summary['correct']} "
                  f"attempted={summary['attempted']} failed={summary['failed']}")
            for name, metric in summary["metrics"].items():
                print(f"  {name:44s} {metric['value']:>14.6g} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
