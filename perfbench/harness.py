"""Run one workload: set it up several times, time passes over its cases,
check every answer against the seed reference, and turn the timings (and,
in a traced run, the spans) into the benchmark's metrics.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from .tracer import LAYER_NAMES, MATVEC, PACKAGE, Tracer
from .workloads import CASE_NAMES

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = Path(__file__).resolve().parent / "references.json"
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 10
WEAKFORM_RTOL = 1e-6          # the package's convergence standard
CONVERGED_RTOL_FACTOR = 10.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def fresh_import():
    """Import steklov_cusp from scratch; numpy stays loaded."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return importlib.import_module(PACKAGE)


def set_up(workload, tracer: Tracer | None):
    """Import the package and build the workload's meshes; returns
    (package, meshes, seconds)."""
    start = time.perf_counter()
    pkg = fresh_import()
    if tracer is None:
        meshes = {key: spec.build(pkg) for key, spec in workload.meshes.items()}
    else:
        with tracer.installed(), tracer.case_span("setup"):
            meshes = {key: spec.build(pkg) for key, spec in workload.meshes.items()}
    return pkg, meshes, time.perf_counter() - start


def check_answer(answer, ref) -> list[str]:
    """Reasons the answer disagrees with its reference; empty if it agrees.

    rtol is one relative tolerance for every value, or a list with one per value.
    A reference that did not converge at the seed pins the answer to where the
    solver stopped.  An answer that now meets the weak-form standard is held
    instead to CONVERGED_RTOL_FACTOR times the recorded residual: the quotient
    is stationary at an eigenfunction, so the eigenvalue's error is of higher
    order than the residual and the converged eigenvalue lies within it.
    """
    misses = []
    rtols = ref["rtol"] if isinstance(ref["rtol"], list) else [ref["rtol"]] * len(ref["values"])
    if (not ref["converged"] and answer.converged and answer.residual is not None
            and answer.residual <= WEAKFORM_RTOL):
        rtols = [max(r, CONVERGED_RTOL_FACTOR * ref["residual"]) for r in rtols]
    if len(answer.values) != len(ref["values"]):
        misses.append(f"{len(answer.values)} values, reference has {len(ref['values'])}")
    else:
        for i, (value, expected, rtol) in enumerate(zip(answer.values, ref["values"], rtols)):
            if not abs(value - expected) <= rtol * abs(expected):
                misses.append(f"value {i} is {value!r}, reference {expected!r} (rtol {rtol:g})")
    if ref.get("labels") is not None and answer.labels != ref["labels"]:
        misses.append(f"labels {answer.labels} differ from reference {ref['labels']}")
    if ref["converged"] and not answer.converged:
        misses.append("converged at the seed commit, not converged now")
    return misses


def run_pass(pkg, meshes, cases, references, tracer: Tracer | None) -> dict:
    """Run every case once; returns {case: record} with the answer and checks."""
    records = {}
    for case in cases:
        with tracer.case_span(case.name) if tracer is not None else nullcontext():
            start = time.perf_counter()
            try:
                answer = case.run(pkg, meshes.get(case.mesh))
            except Exception as exc:  # a failing case is a result, not a crash
                answer, error = None, f"{type(exc).__name__}: {exc}"
            else:
                error = None
            seconds = time.perf_counter() - start
        misses = [] if answer is None else check_answer(answer, references[case.name])
        records[case.name] = {
            "seconds": seconds,
            "answer": None if answer is None else dataclasses.asdict(answer),
            "error": error,
            "misses": misses,
            "failed": error is not None or misses != [] or not answer.converged,
        }
    return records


def layer_metrics(setup_tracer: Tracer, pass_tracer: Tracer, n_setups: int,
                  n_passes: int) -> dict:
    """Per-layer metrics per set-up plus pass: set-up spans averaged over the
    set-ups, pass spans over the traced passes."""
    metrics = {}

    def add(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in LAYER_NAMES:
        a, b = setup_tracer.layers[name], pass_tracer.layers[name]
        add(f"{name}.calls", a.calls / n_setups + b.calls / n_passes, "count")
        add(f"{name}.s", a.s / n_setups + b.s / n_passes, "s")
        add(f"{name}.self_s", a.self_s / n_setups + b.self_s / n_passes, "s")
    spd = pass_tracer.layers["linalg.solve_spd"]
    add("linalg.solve_spd.matvecs", spd.matvecs / n_passes, "count")
    add("linalg.solve_spd.rhs", spd.rhs / n_passes, "count")
    add("linalg.solve_spd.capped", spd.capped / n_passes, "count")
    add("linalg.solve_spd.capped_frac", spd.capped / spd.calls if spd.calls else 0.0, "frac")
    add("linalg.generalized_eig_sym.n_max",
        pass_tracer.layers["linalg.generalized_eig_sym"].n_max, "count")
    solve_p = pass_tracer.layers["eigensolver.solve_p"]
    add("eigensolver.solve_p.iterations", solve_p.iterations / n_passes, "count")
    energy_calls = pass_tracer.layers["fem.energy"].calls
    add("fem.energy.calls_per_iteration",
        energy_calls / solve_p.iterations if solve_p.iterations else 0.0, "calls/iteration")
    for case in CASE_NAMES:
        add(f"case.{case}.s", pass_tracer.case_seconds.get(case, 0.0) / n_passes, "s")
    # the tracer's own cost: traced minus untraced wall time of single ~40 s
    # passes has more noise than the overhead it would measure
    call_cost, matvec_cost = Tracer.call_costs()
    add("trace.overhead_s", matvec_cost * metrics[f"{MATVEC}.calls"]["value"]
        + call_cost * sum(metrics[f"{name}.calls"]["value"]
                          for name in LAYER_NAMES if name != MATVEC), "s")
    return metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        # the ceiling keeps git from searching the directories above ROOT
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, KeyError):
        blas_name = blas_version = "unknown"
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / PACKAGE).glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


def run(workload, seed: int, seconds: float, trace: bool, references: dict | None = None,
        out_dir: Path | None = OUT_DIR) -> dict:
    """One benchmark run; returns the full record, whose "summary" is the
    result line.

    The cases are fixed problem instances with solver seed 0, because their
    answers are checked against references recorded at that seed, and they
    run in a fixed order, because the order moves peak memory by about 5%;
    `seed` is recorded and changes no input.  Passes repeat until the next
    one is expected to end past `seconds`, at least one.

    The workload is set up SETUP_REPEATS times before the passes and as many
    times after them, and `setup_s` is the median of these.  A shared
    machine's speed drifts in phases of seconds to minutes, and two windows
    a pass apart average over more of that drift than one (README.md,
    "Run-to-run spread").  A traced run
    traces every pass and reports the per-layer metrics instead of the
    end-to-end ones.
    """
    references = load_references() if references is None else references
    cases = workload.cases

    setup_tracer = Tracer() if trace else None
    setup_times = []

    def set_up_repeatedly():
        for _ in range(SETUP_REPEATS):
            pkg, meshes, elapsed = set_up(workload, setup_tracer)
            setup_times.append(elapsed)
        return pkg, meshes

    pkg, meshes = set_up_repeatedly()

    pass_tracer = Tracer() if trace else None
    pass_times, pass_records = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        with pass_tracer.installed() if trace else nullcontext():
            pass_records.append(run_pass(pkg, meshes, cases, references, pass_tracer))
        pass_times.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.fmean(pass_times) > seconds:
            break
    set_up_repeatedly()

    executions = [rec for records in pass_records for rec in records.values()]
    attempted = len(executions)
    failed = sum(rec["failed"] for rec in executions)
    correct = all(rec["error"] is None and not rec["misses"] for rec in executions)

    if trace:
        metrics = layer_metrics(setup_tracer, pass_tracer, len(setup_times), len(pass_times))
        metrics["trace.wall_s"] = {"value": statistics.median(pass_times), "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(pass_times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            * 1024 / 1e6, "unit": "MB"},
            "passed_frac": {"value": 1.0 - failed / attempted, "unit": "frac"},
        }

    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "setup_seconds": setup_times,
        "passes": [{"seconds": s, "cases": r} for s, r in zip(pass_times, pass_records)],
        "summary": summary,
    }
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"BENCH_{workload.name}_seed{seed}_trace{int(trace)}"
        with open(out_dir / f"{stem}.json", "w") as fh:
            json.dump(record, fh, indent=1)
        if trace:
            setup_tracer.write_spans(out_dir / f"{stem}_setup_spans.jsonl")
            pass_tracer.write_spans(out_dir / f"{stem}_spans.jsonl")
        record["path"] = str(out_dir / f"{stem}.json")
    return record
