import hashlib
import math
from pathlib import Path

import pytest

from steklov_cusp import (DomainSpec, ProblemConfig, boundary_polygon, cusp_cap_intersection,
                          refine_uniform, triangulate)
from steklov_cusp.cli import main


DISK_CONFIG = """\
[domain]
domain = disk
n_arc = 64
target_h = 0.3

[solver]
p = 2.0
weighted = false
refinements = 1
restarts = 1
seed = 0

[output]
output_dir = {out}
"""

CUSP_CONFIG = """\
[domain]
domain = cusp
alpha = 2.0
n_lateral = 12
n_arc = 24
grading_q = 2.0
target_h = 0.4

[solver]
p = 2.0
weighted = true
refinements = 1
restarts = 1
seed = 0

[output]
output_dir = {out}
"""

SWEEP_CONFIG = """\
[domain]
domain = cusp
alpha = 2.0
n_lateral = 10
n_arc = 20
grading_q = 2.0
target_h = 0.5

[solver]
p = 2.0
refinements = 3
restarts = 1
seed = 0

[sweep]
alphas = 1.5
with_fp = false

[output]
output_dir = {out}
"""


def _write(tmp_path, name, text, out):
    path = tmp_path / name
    path.write_text(text.format(out=out))
    return str(path)


def test_cmd_mesh_disk(tmp_path):
    out = tmp_path / "mesh_out"
    cfgp = _write(tmp_path, "disk.ini", DISK_CONFIG, out)
    assert main(["mesh", "--config", cfgp]) == 0
    for name in ("mesh.vtk", "vertices.csv", "triangles.csv",
                 "boundary_edges.csv", "manifest.txt"):
        assert (out / name).exists()
    manifest = (out / "manifest.txt").read_text()
    assert "status = ok" in manifest
    for name in ("mesh.vtk", "vertices.csv"):
        assert f"artifact.{name}" in manifest


def test_cmd_mesh_vtk_and_csv_export(tmp_path):
    out = tmp_path / "mesh_out"
    assert main(["mesh", "--config", _write(tmp_path, "disk.ini", DISK_CONFIG, out)]) == 0
    manifest = _manifest(out)
    n, t = int(manifest["mesh.vertices"]), int(manifest["mesh.triangles"])
    text = (out / "mesh.vtk").read_text().splitlines()
    assert text[0] == "# vtk DataFile Version 3.0"
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert f"POINTS {n} double" in text
    idx = text.index(f"CELL_TYPES {t}")
    assert all(line == "5" for line in text[idx + 1:idx + 1 + t])
    assert (out / "vertices.csv").read_text().startswith("index,x,y")
    assert (out / "boundary_edges.csv").read_text().splitlines()[0].startswith(
        "v0,v1,tag,length,nx,ny,w_gauss0")


def test_cmd_mesh_cusp_records_junction(tmp_path):
    out = tmp_path / "mesh_out"
    cfgp = _write(tmp_path, "cusp.ini", CUSP_CONFIG, out)
    assert main(["mesh", "--config", cfgp]) == 0
    manifest = _manifest(out)
    assert "geometry.t_star" not in manifest
    t_star = float(manifest["mesh.t_star"])
    assert abs(t_star - cusp_cap_intersection(DomainSpec.cusp(2.0))) <= 1e-12


def _manifest_lines(out):
    return (out / "manifest.txt").read_text().splitlines()


def _manifest(out):
    return dict(line.split(" = ", 1) for line in _manifest_lines(out))


def test_missing_alpha_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[domain]\ndomain = cusp\n")
    assert main(["mesh", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "alpha" in err
    manifest = _manifest_lines(tmp_path / "o")
    assert "status = failed" in manifest
    assert "error = missing config key [domain] alpha" in manifest


def _assert_config_error(tmp_path, capsys, command, config, old, new, key):
    """command on config with old replaced by new exits 1, and both stderr
    and the failed run's manifest name key."""
    assert old in config
    out = tmp_path / "out"
    cfgp = _write(tmp_path, "bad.ini", config.replace(old, new), out)
    assert main([command, "--config", cfgp]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err and "Traceback" not in err
    manifest = _manifest_lines(out)
    assert manifest[-2] == "status = failed"
    assert manifest[-1].startswith("error = ") and key in manifest[-1]
    assert f"command = {command}" in manifest


OUT_OF_RANGE = [
    ("mesh", CUSP_CONFIG, "n_lateral = 12", "n_lateral = 4", "[domain] n_lateral"),
    ("mesh", CUSP_CONFIG, "n_arc = 24", "n_arc = 8", "[domain] n_arc"),
    ("solve", CUSP_CONFIG, "target_h = 0.4", "target_h = 0", "[domain] target_h"),
    ("solve", DISK_CONFIG, "n_arc = 64", "n_arc = 15", "[domain] n_arc"),
    ("sweep", SWEEP_CONFIG, "n_lateral = 10", "n_lateral = 4", "[domain] n_lateral"),
    ("sweep", SWEEP_CONFIG, "target_h = 0.5", "target_h = -1", "[domain] target_h"),
    ("sweep", SWEEP_CONFIG, "grading_q = 2.0", "grading_q = 0.5", "[domain] grading_q"),
    ("sweep", SWEEP_CONFIG, "alphas = 1.5", "alphas = 1.5,1.0", "[sweep] alphas"),
    # counts below 1 used to run silently as 1
    ("solve", DISK_CONFIG, "refinements = 1", "refinements = 0", "[solver] refinements"),
    ("solve", DISK_CONFIG, "refinements = 1", "refinements = -3", "[solver] refinements"),
    ("solve", DISK_CONFIG, "restarts = 1", "restarts = 0", "[solver] restarts"),
    ("solve", DISK_CONFIG, "restarts = 1", "restarts = -3", "[solver] restarts"),
    ("sweep", SWEEP_CONFIG, "refinements = 3", "refinements = 0", "[solver] refinements"),
    ("sweep", SWEEP_CONFIG, "refinements = 3", "refinements = -3", "[solver] refinements"),
    ("sweep", SWEEP_CONFIG, "restarts = 1", "restarts = 0", "[solver] restarts"),
    ("sweep", SWEEP_CONFIG, "restarts = 1", "restarts = -3", "[solver] restarts"),
    # a negative seed used to end in numpy's traceback, with no manifest status
    ("solve", DISK_CONFIG, "seed = 0", "seed = -2", "[solver] seed"),
    ("sweep", SWEEP_CONFIG, "seed = 0", "seed = -2", "[solver] seed"),
]


@pytest.mark.parametrize("command, config, old, new, key", OUT_OF_RANGE,
                         ids=[f"{case[0]}-{case[3].replace(' ', '')}" for case in OUT_OF_RANGE])
def test_out_of_range_value_exits_1(tmp_path, capsys, command, config, old, new, key):
    _assert_config_error(tmp_path, capsys, command, config, old, new, key)


INVALID = [
    # unknown keys and sections used to be ignored, a default taking their place
    ("mesh", CUSP_CONFIG, "n_lateral = 12", "n_laterl = 12", "[domain] n_laterl"),
    ("solve", DISK_CONFIG, "seed = 0", "seed = 0\nquadrature_order = 2",
     "[solver] quadrature_order"),
    ("mesh", CUSP_CONFIG, "[output]", "[mesh]\nn_arc = 24\n\n[output]", "[mesh]"),
    # an empty list used to run a sweep of no rows
    ("sweep", SWEEP_CONFIG, "alphas = 1.5", "alphas = ,", "[sweep] alphas"),
    ("solve", CUSP_CONFIG, "weighted = true", "weighted = maybe", "[solver] weighted"),
    ("mesh", CUSP_CONFIG, "domain = cusp", "domain = square", "[domain] domain"),
    # sweep reads its meshes from [domain] and its solves from [solver], and
    # the disk is the unit disk
    ("sweep", SWEEP_CONFIG, "with_fp = false", "with_fp = false\nn_lateral = 10",
     "[sweep] n_lateral"),
    ("sweep", SWEEP_CONFIG, "with_fp = false", "with_fp = false\nrestarts = 1",
     "[sweep] restarts"),
    ("mesh", DISK_CONFIG, "domain = disk", "domain = disk\ndisk_radius = 1.0",
     "[domain] disk_radius"),
]


@pytest.mark.parametrize("command, config, old, new, key", INVALID,
                         ids=[f"{case[0]}-{case[4].split()[-1]}" for case in INVALID])
def test_invalid_config_exits_1_naming_the_key(tmp_path, capsys, command, config, old, new,
                                               key):
    _assert_config_error(tmp_path, capsys, command, config, old, new, key)


def test_shipped_configs_name_only_known_keys():
    from steklov_cusp import cli

    paths = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.ini"))
    assert paths
    for path in paths:
        cli.check_keys(cli.load_config(path))


def test_every_default_key_is_read_by_a_command(tmp_path, monkeypatch):
    from steklov_cusp import cli

    read = set()
    real_get = cli._get

    def get(cp, section, key, conv):
        read.add((section, key))
        return real_get(cp, section, key, conv)

    monkeypatch.setattr(cli, "_get", get)
    for command, config in (("mesh", CUSP_CONFIG), ("solve", DISK_CONFIG),
                            ("sweep", TWO_LEVEL_SWEEP)):
        out = tmp_path / command
        assert main([command, "--config", _write(tmp_path, f"{command}.ini", config, out)]) == 0
    defaults = {(section, key) for section, keys in cli.DEFAULTS.items() for key in keys}
    assert read == defaults | {("domain", "alpha")}


def test_unreadable_config_exits_1_without_a_manifest(tmp_path, capsys):
    headerless = tmp_path / "headerless.ini"
    headerless.write_text("domain = cusp\n")
    out = tmp_path / "out"
    for argv, message in ((["solve"], "--config is required for this command"),
                          (["mesh", "--config", str(tmp_path / "missing.ini")],
                           "cannot read config"),
                          (["mesh", "--config", str(headerless)], "config parse error")):
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err, argv
    # the output directory is only created once the config has been read
    assert not out.exists()


def test_cli_module_config_error_has_no_traceback(tmp_path):
    import os
    import subprocess
    import sys

    import steklov_cusp

    out = tmp_path / "out"
    cfgp = _write(tmp_path, "bad.ini", CUSP_CONFIG.replace("n_lateral = 12", "n_lateral = 4"),
                  out)
    src = str(Path(steklov_cusp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "steklov_cusp.cli", "mesh", "--config", cfgp],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert "config error: " in proc.stderr and "[domain] n_lateral" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "status = failed" in _manifest_lines(out)


def test_negative_seed_option_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    cfgp = _write(tmp_path, "disk.ini", DISK_CONFIG, out)
    assert main(["solve", "--config", cfgp, "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "--seed" in err and "Traceback" not in err
    manifest = _manifest_lines(out)
    assert manifest[-2] == "status = failed"
    assert manifest[-1].startswith("error = ") and "--seed" in manifest[-1]


def test_invalid_value_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[domain]\ndomain = cusp\nalpha = not_a_number\n")
    assert main(["mesh", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mesh", "solve"])
def test_geometry_error_exits_2(tmp_path, capsys, command):
    # 128 tip-graded lateral samples at q = 3 put the two samples next to
    # the tip, distinct points, closer than 1e-13 of the polygon's span
    out = tmp_path / "out"
    text = (CUSP_CONFIG.replace("n_lateral = 12", "n_lateral = 128")
            .replace("n_arc = 24", "n_arc = 16").replace("grading_q = 2.0", "grading_q = 3.0"))
    cfgp = _write(tmp_path, "tip.ini", text, out)
    assert main([command, "--config", cfgp]) == 2
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "status = failed" in manifest
    error = next(line for line in manifest if line.startswith("error = "))
    assert error.startswith("error = polygon vertices 1 (")
    assert error.endswith("within 1e-13 of the polygon's span 3.41421: sample the tip more "
                          "coarsely (lower n_lateral or grading_q)")
    assert "geometry error" in capsys.readouterr().err


def test_cmd_solve_disk_lambda_near_one(tmp_path):
    out = tmp_path / "solve_out"
    cfgp = _write(tmp_path, "disk.ini", DISK_CONFIG, out)
    assert main(["solve", "--config", cfgp]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0].startswith("alpha,p,weighted,h_max,lambda")
    # one row from the descent path, one from the direct p = 2 path
    assert len(lines) == 3
    lam_descent = float(lines[1].split(",")[4])
    lam_direct = float(lines[2].split(",")[4])
    assert abs(lam_descent - 1.0) < 0.05
    assert abs(lam_descent - lam_direct) / lam_direct <= 1e-3
    assert (out / "eigenfunction.vtk").exists()


def test_cmd_solve_on_a_refined_mesh(tmp_path):
    # refinements = 2 solves on one refine_uniform of the base mesh
    coarse = CUSP_CONFIG
    for old, new in (("n_lateral = 12", "n_lateral = 8"), ("n_arc = 24", "n_arc = 16"),
                     ("target_h = 0.4", "target_h = 0.6"), ("refinements = 1", "refinements = 2")):
        assert old in coarse
        coarse = coarse.replace(old, new)
    out = tmp_path / "out"
    assert main(["solve", "--config", _write(tmp_path, "refined.ini", coarse, out)]) == 0
    base = triangulate(boundary_polygon(DomainSpec.cusp(2.0), n_lateral=8, n_arc=16,
                                        grading_q=2.0), 0.6, tip_grading=2.0)
    manifest = _manifest(out)
    assert int(manifest["mesh.vertices"]) == refine_uniform(base).num_vertices
    # the descent row and the direct p = 2 row, each with how its run ended
    assert len((out / "results.csv").read_text().splitlines()) == 3
    assert manifest["results.row1.descent_stop"] in (
        "residual stall", "value stall", "zero slope", "line search", "iteration cap")
    assert int(manifest["results.row1.newton_steps"]) >= 0
    assert manifest["results.row2.descent_stop"] == "direct"
    assert manifest["results.row2.newton_steps"] == "0"


def test_cmd_solve_p2_solves_the_direct_pair_once(tmp_path, monkeypatch):
    # the direct pair is both a results row and solve_p's first start
    from steklov_cusp import cli, eigensolver

    real_solve_p2 = eigensolver.solve_p2
    calls = []

    def solve_p2(*args, **kwargs):
        calls.append(args)
        return real_solve_p2(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_p2", solve_p2)
    monkeypatch.setattr(eigensolver, "solve_p2", solve_p2)
    out = tmp_path / "out"
    assert main(["solve", "--config", _write(tmp_path, "disk.ini", DISK_CONFIG, out)]) == 0
    assert len(calls) == 1
    assert len((out / "results.csv").read_text().splitlines()) == 3


def test_cmd_solve_p3_writes_the_descent_row_only(tmp_path):
    # away from p = 2 there is no direct pair: results.csv holds solve_p's row
    coarse = CUSP_CONFIG
    for old, new in (("n_lateral = 12", "n_lateral = 8"), ("n_arc = 24", "n_arc = 16"),
                     ("target_h = 0.4", "target_h = 0.6"), ("p = 2.0", "p = 3.0")):
        assert old in coarse
        coarse = coarse.replace(old, new)
    out = tmp_path / "out"
    assert main(["solve", "--config", _write(tmp_path, "p3.ini", coarse, out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 2
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["p"]) == 3.0
    assert row["converged"] == "true"


def test_cmd_solve_deterministic_bytes(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    cfg1 = _write(tmp_path, "c1.ini", CUSP_CONFIG, out1)
    cfg2 = _write(tmp_path, "c2.ini", CUSP_CONFIG, out2)
    assert main(["solve", "--config", cfg1]) == 0
    assert main(["solve", "--config", cfg2]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "eigenfunction.vtk").read_bytes() == \
        (out2 / "eigenfunction.vtk").read_bytes()


def test_cmd_sweep(tmp_path):
    out = tmp_path / "sweep_out"
    cfgp = _write(tmp_path, "sweep.ini", SWEEP_CONFIG, out)
    assert main(["sweep", "--config", cfgp]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == ("alpha,p,weighted,level,h_max,lambda,fp_constant,"
                        "iterations,converged,trend")
    # single alpha, three levels, weighted and unweighted rows
    assert len(lines) == 7
    trends = {row.split(",")[-1] for row in lines[1:]}
    assert trends <= {"stable", "decaying-to-zero", "undetermined"}
    # trend column is populated from >= 3 levels
    assert all(row.split(",")[-1] != "" for row in lines[1:])


def _sweep_csv_line(r):
    # the sweep.csv row format, pinned field by field
    return ",".join([f"{r.alpha:.17g}", f"{r.p:.17g}", "true" if r.weighted else "false",
                     str(r.level), f"{r.h_max:.17g}", f"{r.eigenvalue:.17g}",
                     f"{r.fp_constant:.17g}", str(r.iterations),
                     "true" if r.converged else "false", r.trend])


def test_cmd_sweep_failed_cell_reason_in_manifest(tmp_path, monkeypatch):
    from steklov_cusp import analysis
    from steklov_cusp.linalg import SolveError

    real_solve_p = analysis.solve_p
    failing_seed = analysis._cell_seed(0, 0, 1, False)  # alpha 1.5, level 1, unweighted

    def solve_p(msh, cfg, restarts, seed):
        if seed == failing_seed:
            raise SolveError("injected failure")
        return real_solve_p(msh, cfg, restarts=restarts, seed=seed)

    monkeypatch.setattr(analysis, "solve_p", solve_p)
    out = tmp_path / "sweep_out"
    cfgp = _write(tmp_path, "sweep.ini", SWEEP_CONFIG, out)
    assert main(["sweep", "--config", cfgp]) == 0
    manifest = (out / "manifest.txt").read_text().splitlines()
    failed = [line for line in manifest if line.startswith("sweep.failed.")]
    assert len(failed) == 1
    assert failed[0].startswith("sweep.failed.0 = a1.5_L1_V")
    assert failed[0].endswith(": solve_p (unweighted): SolveError: injected failure")

    report = analysis.alpha_sweep(ProblemConfig(p=2.0), alphas=[1.5], refinements=3,
                                  n_lateral=10, n_arc=20, grading_q=2.0, target_h=0.5,
                                  restarts=1, seed=0, with_fp=False)
    bad = [r for r in report.rows if r.error]
    assert len(bad) == 1 and not bad[0].converged and math.isnan(bad[0].eigenvalue)
    expected = "\n".join(["alpha,p,weighted,level,h_max,lambda,fp_constant,"
                          "iterations,converged,trend"]
                         + [_sweep_csv_line(r) for r in report.rows]) + "\n"
    assert (out / "sweep.csv").read_bytes() == expected.encode()
    assert ",nan," in _sweep_csv_line(bad[0]) and "injected" not in expected


def test_cmd_sweep_reports_an_alpha_that_cannot_be_meshed(tmp_path):
    # alpha = 4 at 12 lateral samples graded at q = 3 is refused by the
    # resolvability rule; the sweep still writes alpha = 1.5 and exits 0
    out = tmp_path / "sweep_out"
    text = (SWEEP_CONFIG.replace("n_lateral = 10", "n_lateral = 12")
            .replace("n_arc = 20", "n_arc = 24").replace("grading_q = 2.0", "grading_q = 3")
            .replace("refinements = 3", "refinements = 1")
            .replace("alphas = 1.5", "alphas = 1.5,4.0"))
    cfgp = _write(tmp_path, "sweep.ini", text, out)
    assert main(["sweep", "--config", cfgp]) == 0
    rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [row[:4] for row in rows] == [["1.5", "2", "true", "0"], ["1.5", "2", "false", "0"],
                                         ["4", "2", "true", "0"], ["4", "2", "false", "0"]]
    assert all(row[8] == "true" for row in rows[:2])
    assert all(row[4:] == ["nan", "nan", "nan", "0", "false", "undetermined"]
               for row in rows[2:])
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "status = ok" in manifest and "sweep.rows = 4" in manifest
    failed = [line for line in manifest if line.startswith("sweep.failed.")]
    assert len(failed) == 2
    for i, line in enumerate(failed):
        assert line.startswith(f"sweep.failed.{i} = a4_L0: boundary_polygon: GeometryError: "
                               "polygon vertices 1 (")
        assert line.endswith("sample the tip more coarsely (lower n_lateral or grading_q)")


def test_cmd_sweep_fp_failure_reported_once_per_mesh(tmp_path, monkeypatch):
    from steklov_cusp import analysis
    from steklov_cusp.linalg import SolveError

    def fp_constant(msh, cfg):
        raise SolveError(f"injected fp failure on {msh.num_vertices} vertices")

    monkeypatch.setattr(analysis, "fp_constant", fp_constant)
    out = tmp_path / "sweep_out"
    cfgp = _write(tmp_path, "sweep.ini",
                  SWEEP_CONFIG.replace("with_fp = false", "with_fp = true"), out)
    assert main(["sweep", "--config", cfgp]) == 0
    manifest = (out / "manifest.txt").read_text().splitlines()
    failed = [line for line in manifest if line.startswith("sweep.failed.")]
    # one line per mesh of the three refinement levels, none repeated
    assert len(failed) == len(set(failed)) == 3
    for i, line in enumerate(failed):
        key, reason = line.split(" = ", 1)
        mesh_id, text = reason.split(": ", 1)
        assert key == f"sweep.failed.{i}" and mesh_id.startswith(f"a1.5_L{i}_V")
        assert text == ("fp_constant: SolveError: injected fp failure on "
                        f"{mesh_id.split('_V')[1]} vertices")
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 6 and all(row.split(",")[6] == "nan" for row in rows)


def test_csv_numbers_use_17_digits(tmp_path):
    out = tmp_path / "solve_out"
    cfgp = _write(tmp_path, "disk.ini", DISK_CONFIG, out)
    assert main(["solve", "--config", cfgp]) == 0
    row = (out / "results.csv").read_text().splitlines()[1].split(",")
    lam = row[4]
    assert "." in lam and len(lam.split(".")[1].rstrip("0")) >= 10
    assert float(lam) == float(f"{float(lam):.17g}")


def test_validate_injected_failure_exits_4(tmp_path, monkeypatch):
    # keep the run fast: stub the expensive checks through the public hook
    from steklov_cusp import cli

    passing = {"name": "stub", "expected": 1.0, "actual": 1.0,
               "tolerance": 1e-12, "passed": True}
    failing = {"name": "injected_failure", "expected": 0.0, "actual": 1.0,
               "tolerance": 1e-12, "passed": False}
    monkeypatch.setattr(cli, "run_validation", lambda: [passing])
    assert main(["validate", "--out", str(tmp_path / "v1")]) == 0
    manifest = _manifest_lines(tmp_path / "v1")
    assert manifest[-1] == "status = ok"
    # validate echoes the configuration it ran with, the defaults here
    assert "config.solver.seed = 0" in manifest and "seed = 0" in manifest

    monkeypatch.setattr(cli, "run_validation", lambda: [passing, failing])
    assert main(["validate", "--out", str(tmp_path / "v2")]) == 4
    lines = (tmp_path / "v2" / "validation.csv").read_text().splitlines()
    assert lines[0] == "check,expected,actual,tolerance,passed"
    assert len(lines) == 3  # one row per check
    assert _manifest_lines(tmp_path / "v2")[-2:] == ["status = failed",
                                                     "error = 1 checks failed"]


def test_validate_has_no_hidden_options(capsys):
    with pytest.raises(SystemExit):
        main(["validate", "--inject-failure"])
    assert "unrecognized arguments: --inject-failure" in capsys.readouterr().err


def test_solver_error_exits_3(tmp_path, capsys, monkeypatch):
    from steklov_cusp import cli
    from steklov_cusp.linalg import SolveError

    def solve_p(*args, **kwargs):
        raise SolveError("injected solve failure")

    monkeypatch.setattr(cli, "solve_p", solve_p)
    out = tmp_path / "out"
    assert main(["solve", "--config", _write(tmp_path, "disk.ini", DISK_CONFIG, out)]) == 3
    assert capsys.readouterr().err == "solver error: injected solve failure\n"
    manifest = _manifest_lines(out)
    assert manifest[-2:] == ["status = failed", "error = injected solve failure"]
    assert any(line.startswith("stage.mesh.seconds") for line in manifest)


def test_unconverged_solve_exits_3_and_keeps_results(tmp_path, capsys, monkeypatch):
    from dataclasses import replace

    from steklov_cusp import cli

    real_solve_p = cli.solve_p
    monkeypatch.setattr(cli, "solve_p", lambda *args, **kwargs: replace(
        real_solve_p(*args, **kwargs), converged=False))
    out = tmp_path / "out"
    assert main(["solve", "--config", _write(tmp_path, "disk.ini", DISK_CONFIG, out)]) == 3
    assert capsys.readouterr().err == "solver did not converge\n"
    manifest = _manifest_lines(out)
    assert manifest[-2:] == ["status = failed", "error = solver did not converge"]
    rows = (out / "results.csv").read_text().splitlines()
    assert len(rows) == 3 and rows[1].endswith(",false") and rows[2].endswith(",true")
    assert any(line.startswith("artifact.results.csv = ") for line in manifest)


def test_value_error_inside_a_solve_surfaces(tmp_path, monkeypatch):
    # a ValueError from inside a solve is a bug, not a config error
    from steklov_cusp import cli

    def solve_p(*args, **kwargs):
        raise ValueError("injected bug")

    monkeypatch.setattr(cli, "solve_p", solve_p)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="injected bug"):
        main(["solve", "--config", _write(tmp_path, "disk.ini", DISK_CONFIG, out)])


TWO_LEVEL_SWEEP = SWEEP_CONFIG.replace("refinements = 3", "refinements = 2")


@pytest.mark.parametrize("command, config", [("mesh", DISK_CONFIG), ("solve", DISK_CONFIG),
                                             ("sweep", TWO_LEVEL_SWEEP), ("validate", None)],
                         ids=["mesh", "solve", "sweep", "validate"])
def test_manifest_lists_exactly_the_artifacts(tmp_path, command, config):
    out = tmp_path / "out"
    argv = [command, "--out", str(out)]
    if config is not None:
        argv += ["--config", _write(tmp_path, "run.ini", config, out)]
    assert main(argv) == 0
    digests = {key[len("artifact."):]: value for key, value in _manifest(out).items()
               if key.startswith("artifact.")}
    written = {path.name for path in out.iterdir()} - {"manifest.txt"}
    assert digests and set(digests) == written
    for name, digest in digests.items():
        assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest(), name


def test_validate_full_suite_passes(tmp_path):
    assert main(["validate", "--out", str(tmp_path / "val")]) == 0
    lines = (tmp_path / "val" / "validation.csv").read_text().splitlines()
    assert len(lines) >= 6
    assert all(row.endswith(",true") for row in lines[1:])
