"""Self-tests of the benchmark harness on tiny meshes (a few seconds)."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness  # noqa: E402
from perfbench.tracer import LAYER_NAMES, LAYERS, Tracer  # noqa: E402
from perfbench.workloads import Answer, Case, MeshSpec, Workload  # noqa: E402

TINY_MESHES = {"coarse": MeshSpec(2.0, 8, 16, 0.6, 0), "fine": MeshSpec(2.0, 8, 16, 0.6, 1)}


def _solve_p3(pkg, msh, **kw):
    res = pkg.solve_p(msh, pkg.ProblemConfig(p=3.0), restarts=1, seed=0, **kw)
    return Answer([res.eigenvalue], res.converged, res.weakform_residual, res.iterations)


def _wrapped_bindings(pkg):
    """Traced names in the loaded package that are currently wrappers."""
    mods = [pkg, pkg.analysis, pkg.eigensolver, pkg.fem, pkg.linalg, pkg.mesh]
    names = {fn for _, fn in LAYERS} | {"matvec", "__matmul__"}
    found = [f"{m.__name__}.{a}" for m in mods for a, v in vars(m).items()
             if a in names and hasattr(v, "__wrapped__")]
    found += [f"SparseSym.{a}" for a in ("matvec", "__matmul__")
              if hasattr(vars(pkg.linalg.SparseSym)[a], "__wrapped__")]
    return found


CASES = {
    "p3": Case("p3", "coarse", _solve_p3),
    "capped": Case("capped", "coarse", lambda pkg, msh: _solve_p3(pkg, msh, iteration_cap=1)),
    "fp": Case("fp", "coarse", lambda pkg, msh: Answer(
        [pkg.fp_constant(msh, pkg.ProblemConfig(p=2.0))], True)),
    "trace": Case("trace", "fine", lambda pkg, msh: Answer(
        list(pkg.trace_spectrum(msh, weighted=True, k=3)), True)),
    "probe": Case("probe", None, lambda pkg, _msh: Answer(
        [float(len(_wrapped_bindings(pkg)))], True)),
}


@pytest.fixture(autouse=True)
def restore_package_modules():
    """The harness re-imports steklov_cusp; give other tests the old modules back."""
    saved = {k: v for k, v in sys.modules.items() if k.startswith("steklov_cusp")}
    yield
    for k in [k for k in sys.modules if k.startswith("steklov_cusp")]:
        del sys.modules[k]
    sys.modules.update(saved)


def _run(names, trace, refs=None):
    workload = Workload("tiny", TINY_MESHES, tuple(CASES[n] for n in names))
    if refs is None:
        pkg, meshes, _ = harness.set_up(workload, None)
        refs = {}
        for case in workload.cases:
            a = case.run(pkg, meshes.get(case.mesh))
            refs[case.name] = {"rtol": 1e-12, "values": a.values, "labels": a.labels,
                               "converged": a.converged}
    return harness.run(workload, seed=0, seconds=1e-3, trace=trace, references=refs,
                       out_dir=None)


def test_traced_run_reports_every_layer():
    record = _run(["p3", "fp", "trace"], trace=True)
    summary = record["summary"]
    assert summary["correct"] and summary["failed"] == 0
    metrics = summary["metrics"]
    for name in LAYER_NAMES:
        assert metrics[f"{name}.calls"]["value"] > 0, name
        assert metrics[f"{name}.self_s"]["value"] <= metrics[f"{name}.s"]["value"] + 1e-12, name
    assert metrics["linalg.solve_spd.matvecs"]["value"] >= metrics["linalg.solve_spd.calls"]["value"]
    assert 0.0 <= metrics["linalg.solve_spd.capped_frac"]["value"] <= 1.0
    assert metrics["eigensolver.solve_p.iterations"]["value"] > 0
    assert metrics["trace.overhead_s"]["value"] > 0
    assert metrics["trace.wall_s"]["value"] > 0
    assert "wall_s" not in metrics


def test_untraced_mode_installs_no_wrapper():
    refs = {"probe": {"rtol": 0.0, "values": [0.0], "labels": None, "converged": True}}
    record = _run(["probe"], trace=False, refs=refs)
    assert record["summary"]["correct"]
    assert set(record["summary"]["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb",
                                                 "passed_frac"}
    # a traced pass does see the wrappers, and they are gone afterwards
    record = _run(["probe"], trace=True, refs=refs)
    assert record["passes"][0]["cases"]["probe"]["answer"]["values"][0] > 0
    import steklov_cusp
    assert _wrapped_bindings(steklov_cusp) == []


def test_forced_non_convergence_lowers_passed_frac():
    record = _run(["p3", "capped"], trace=False)
    summary = record["summary"]
    assert record["passes"][0]["cases"]["capped"]["answer"]["converged"] is False
    assert summary["correct"]  # the capped answer matches its own reference
    assert summary["failed"] == 1 and summary["attempted"] == 2
    assert summary["metrics"]["passed_frac"]["value"] == pytest.approx(0.5)


def test_changed_answer_fails_the_check():
    workload = Workload("tiny", TINY_MESHES, (CASES["fp"],))
    pkg, meshes, _ = harness.set_up(workload, None)
    value = CASES["fp"].run(pkg, meshes["coarse"]).values[0]
    refs = {"fp": {"rtol": 1e-8, "values": [value * (1 + 1e-6)], "labels": None,
                   "converged": True}}
    summary = _run(["fp"], trace=False, refs=refs)["summary"]
    assert not summary["correct"] and summary["failed"] == 1
    assert summary["metrics"]["passed_frac"]["value"] == 0.0


def test_unconverged_reference_accepts_a_converged_answer_near_it():
    ref = {"rtol": 1e-8, "values": [1.0], "labels": None, "converged": False,
           "residual": 6e-6}
    stopped = Answer([1.0 + 5e-9], False, 6e-6)
    converged = Answer([1.0 + 5e-5], True, 1e-7)
    assert harness.check_answer(stopped, ref) == []
    assert harness.check_answer(converged, ref) == []
    assert harness.check_answer(Answer([1.0 + 5e-5], False, 6e-6), ref) != []
    assert harness.check_answer(Answer([1.0 + 1e-3], True, 1e-7), ref) != []


def test_tracer_patches_bindings_imported_by_name_and_restores_them():
    pkg = harness.fresh_import()
    originals = {(m.__name__, a): v for m in (pkg, pkg.analysis, pkg.eigensolver, pkg.linalg)
                 for a, v in vars(m).items() if callable(v)}
    tracer = Tracer()
    with tracer.installed():
        wrapped = set(_wrapped_bindings(pkg))
        for name in ("steklov_cusp.eigensolver.solve_spd", "steklov_cusp.analysis.solve_p",
                     "steklov_cusp.analysis._descent", "steklov_cusp.analysis.triangulate",
                     "steklov_cusp.analysis.refine_uniform",
                     "steklov_cusp.analysis.generalized_eig_sym",
                     "steklov_cusp.solve_spd", "SparseSym.matvec", "SparseSym.__matmul__"):
            assert name in wrapped, name
    assert _wrapped_bindings(pkg) == []
    assert all(vars(pkg if m == "steklov_cusp" else getattr(pkg, m.split(".")[1]))[a] is v
               for (m, a), v in originals.items())


def test_run_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eigen_p",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
