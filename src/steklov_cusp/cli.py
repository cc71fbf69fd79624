"""Batch front-end: mesh / solve / sweep / validate subcommands.

Configuration is flat key = value text with sections (INI).  Outputs are
deterministic for a fixed config and seed: CSV tables, legacy VTK files and
a flat key = value run manifest listing every artifact with its SHA-256.
Manifest is the one artifact writer: it builds every CSV and VTK file, writes
it and records its digest, and prints every value, in artifacts and manifest
alike, by one rule (_cell).
main is the one runner: once the config is read and the output directory is
known, it writes the manifest, which echoes the resolved config (validate's
defaults included), for every run, ending in status = ok or in status =
failed and error = <reason>.

Every setting has one home: mesh, solve and sweep mesh from [domain] and
solve from [solver]; [sweep] adds only alphas and with_fp.  domain = disk is
the unit validation disk.

Exit codes: 0 ok; 1 config error, including an unknown section or key and a
value out of range (n_lateral >= 8, n_arc >= 16, grading_q >= 1, target_h > 0
and alpha > 1 in [domain], p > 1, refinements >= 1, restarts >= 1 and seed >= 0
in [solver] or --seed, every alpha > 1 and none repeated in [sweep]) and an
output directory that cannot be created; 2 geometry error; 3 solver error or
non-convergence; 4 validation failure.  Any other exception is a bug and is
raised.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis, fem, geometry, mesh as meshmod
from .eigensolver import scalar_shift_root, solve_p, solve_p2
from .linalg import SolveError
from .triangulation import check_target_h

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_GEOMETRY = 2
EXIT_SOLVER = 3
EXIT_VALIDATION = 4


class ConfigError(Exception):
    pass


def _cell(x) -> str:
    """The one print rule of artifact and manifest values: a float with 17
    significant digits, a bool as true / false, anything else by str."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


DEFAULTS = {
    "domain": {
        "domain": "cusp",
        "n_lateral": "24",
        "n_arc": "48",
        "grading_q": "2.0",
        "target_h": "0.3",
    },
    "solver": {
        "p": "2.0",
        "weighted": "true",
        "refinements": "2",
        "restarts": "3",
        "seed": "0",
    },
    "sweep": {
        "alphas": "1.25,1.5,1.75,2.5",
        "with_fp": "true",
    },
    "output": {
        "output_dir": "steklov_out",
    },
}


def load_config(path=None) -> configparser.ConfigParser:
    """DEFAULTS overlaid with the INI file at path (DEFAULTS alone for None)."""
    cp = configparser.ConfigParser()
    cp.read_dict(DEFAULTS)
    if path is None:
        return cp
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from None
    return cp


def check_keys(cp):
    """ConfigError naming the first section or key that DEFAULTS does not
    list ([domain] alpha, which has no default, is known too)."""
    for section in cp.sections():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp.options(section):
            if key not in DEFAULTS[section] and (section, key) != ("domain", "alpha"):
                raise ConfigError(f"unknown config key [{section}] {key}")


def _get(cp, section, key, conv):
    try:
        raw = cp.get(section, key)
    except (configparser.NoSectionError, configparser.NoOptionError):
        raise ConfigError(f"missing config key [{section}] {key}") from None
    try:
        if conv is not bool:
            return conv(raw)
        if raw.lower() in cp.BOOLEAN_STATES:
            return cp.BOOLEAN_STATES[raw.lower()]
        raise ValueError("not a boolean")
    except ValueError as exc:
        raise ConfigError(
            f"invalid value {raw!r} for config key [{section}] {key}: {exc}") from None


def _checked(section: str, check, *args, **kwargs):
    """check(...) with its range ValueError, whose message starts with the
    argument's name (= its config key), as a ConfigError naming [section] key."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        key = str(exc).split()[0]
        raise ConfigError(
            f"invalid value for config key [{section}] {key}: {exc}") from None


def build_domain(cp) -> geometry.DomainSpec:
    kind = _get(cp, "domain", "domain", str).strip().lower()
    if kind == "cusp":
        return _get(cp, "domain", "alpha",  # no default: must be explicit
                    lambda raw: geometry.DomainSpec.cusp(float(raw)))
    if kind == "disk":
        return geometry.DomainSpec.disk()
    raise ConfigError(f"invalid value {kind!r} for config key [domain] domain")


def _mesh_values(cp):
    """[domain] (n_lateral, n_arc, grading_q, target_h), in the ranges of
    geometry.check_sampling and triangulation.check_target_h."""
    n_lateral = _get(cp, "domain", "n_lateral", int)
    n_arc = _get(cp, "domain", "n_arc", int)
    grading_q = _get(cp, "domain", "grading_q", float)
    target_h = _get(cp, "domain", "target_h", float)
    _checked("domain", geometry.check_sampling, n_lateral, n_arc, grading_q)
    _checked("domain", check_target_h, target_h)
    return n_lateral, n_arc, grading_q, target_h


def _count(raw):
    count = int(raw)
    if count < 1:
        raise ValueError("must be at least 1")
    return count


def _counts(cp):
    """[solver] (refinements, restarts), each at least 1."""
    return _get(cp, "solver", "refinements", _count), _get(cp, "solver", "restarts", _count)


def build_base_mesh(cp, spec: geometry.DomainSpec) -> meshmod.Mesh:
    n_lateral, n_arc, grading_q, target_h = _mesh_values(cp)
    poly = geometry.boundary_polygon(spec, n_lateral, n_arc, grading_q)
    return meshmod.triangulate(poly, target_h, tip_grading=grading_q)


def solver_config(cp) -> fem.ProblemConfig:
    return _checked("solver", fem.ProblemConfig, p=_get(cp, "solver", "p", float),
                    weighted=_get(cp, "solver", "weighted", bool))


class Manifest:
    """Flat key = value run record, written even on partial failure, and the
    writer of every artifact it records."""

    def __init__(self, out_dir: Path, command: str):
        self.out = out_dir
        self.entries: list[tuple[str, str]] = [("command", command)]
        self.t0 = time.perf_counter()

    def add(self, key: str, value):
        self.entries.append((key, _cell(value)))

    def add_config(self, cp):
        for section in cp.sections():
            for key, value in sorted(cp.items(section)):
                self.entries.append((f"config.{section}.{key}", value))

    def add_mesh(self, msh: meshmod.Mesh):
        self.add("mesh.vertices", msh.num_vertices)
        self.add("mesh.triangles", msh.num_triangles)
        self.add("mesh.h_max", msh.h_max)
        self.add("mesh.h_min", msh.h_min)
        if msh.spec.kind == "cusp":
            self.add("mesh.t_star", geometry.cusp_cap_intersection(msh.spec))

    def write_artifact(self, name: str, lines):
        """Write lines to out/name and record the file's SHA-256."""
        data = ("\n".join(lines) + "\n").encode()
        (self.out / name).write_bytes(data)
        self.entries.append((f"artifact.{name}", hashlib.sha256(data).hexdigest()))

    def write_csv(self, name: str, header: str, rows):
        """out/name: the header line, then each row's cells joined by commas."""
        self.write_artifact(name, [header] + [",".join(map(_cell, row)) for row in rows])

    def write_vtk(self, name: str, msh: meshmod.Mesh, title: str, u=None):
        """Legacy ASCII VTK (DataFile 3.0, unstructured grid of type-5
        triangles), with u as the point scalar "u" when given."""
        n, t = msh.num_vertices, msh.num_triangles
        lines = ["# vtk DataFile Version 3.0", title, "ASCII", "DATASET UNSTRUCTURED_GRID",
                 f"POINTS {n} double"]
        lines.extend(f"{_cell(x)} {_cell(y)} 0" for x, y in msh.vertices)
        lines.append(f"CELLS {t} {4 * t}")
        lines.extend(f"3 {a} {b} {c}" for a, b, c in msh.triangles)
        lines.append(f"CELL_TYPES {t}")
        lines.extend(["5"] * t)
        if u is not None:
            lines.extend([f"POINT_DATA {n}", "SCALARS u double 1", "LOOKUP_TABLE default"])
            lines.extend(map(_cell, np.asarray(u, dtype=float)))
        self.write_artifact(name, lines)

    def stage(self, name: str):
        self.entries.append((f"stage.{name}.seconds", f"{time.perf_counter() - self.t0:.3f}"))
        self.t0 = time.perf_counter()

    def write(self, status: str = "ok", error: str = ""):
        self.entries.append(("status", status))
        if error:
            self.entries.append(("error", error))
        lines = [f"{k} = {v}" for k, v in self.entries]
        (self.out / "manifest.txt").write_text("\n".join(lines) + "\n")


def cmd_mesh(cp, manifest: Manifest, seed: int):
    spec = build_domain(cp)
    msh = build_base_mesh(cp, spec)
    manifest.add_mesh(msh)
    manifest.stage("mesh")
    manifest.write_vtk("mesh.vtk", msh, "steklov-cusp mesh")
    manifest.write_csv("vertices.csv", "index,x,y",
                       ((i, x, y) for i, (x, y) in enumerate(msh.vertices)))
    manifest.write_csv("triangles.csv", "v0,v1,v2", msh.triangles)
    _, _, w = msh.boundary_quadrature()
    b = msh.boundary
    manifest.write_csv("boundary_edges.csv", "v0,v1,tag,length,nx,ny,w_gauss0,w_gauss1",
                       ((b.v0[e], b.v1[e], b.tag[e].value, b.length[e], *b.normal[e], *w[e])
                        for e in range(len(b))))
    manifest.stage("write")
    return EXIT_OK, ""


def cmd_solve(cp, manifest: Manifest, seed: int):
    spec = build_domain(cp)
    cfg = solver_config(cp)
    refinements, restarts = _counts(cp)
    msh = build_base_mesh(cp, spec)
    for _ in range(refinements - 1):
        msh = meshmod.refine_uniform(msh)
    manifest.add_mesh(msh)
    manifest.stage("mesh")

    alpha = spec.alpha if spec.kind == "cusp" else float("nan")
    if cfg.p == 2.0:
        # the direct pair is solve_p's own first start, so it is solved once
        direct = solve_p2(msh, weighted=cfg.weighted)
        results = [solve_p(msh, cfg, restarts=restarts, seed=seed, u0=direct.u), direct]
    else:
        results = [solve_p(msh, cfg, restarts=restarts, seed=seed)]
    manifest.stage("solve")

    manifest.write_csv(
        "results.csv", "alpha,p,weighted,h_max,lambda,iterations,"
        "constraint_residual,weakform_residual,converged",
        ((alpha, cfg.p, cfg.weighted, msh.h_max, r.eigenvalue, r.iterations,
          r.constraint_residual, r.weakform_residual, r.converged) for r in results))
    manifest.write_vtk("eigenfunction.vtk", msh, "steklov-cusp eigenfunction", u=results[0].u)
    manifest.add("lambda", results[0].eigenvalue)
    for row, r in enumerate(results, 1):
        manifest.add(f"results.row{row}.newton_steps", r.newton_steps)
        manifest.add(f"results.row{row}.descent_stop", r.descent_stop)
    manifest.stage("write")
    if not all(r.converged for r in results):
        return EXIT_SOLVER, "solver did not converge"
    return EXIT_OK, ""


def cmd_sweep(cp, manifest: Manifest, seed: int):
    # float rejects an empty entry (so an empty list), DomainSpec.cusp an alpha <= 1
    alphas = _get(cp, "sweep", "alphas", lambda raw: [
        geometry.DomainSpec.cusp(float(tok)).alpha for tok in raw.split(",")])
    for i, alpha in enumerate(alphas):
        if alpha in alphas[:i]:
            raise ConfigError(f"invalid value for config key [sweep] alphas: alpha {alpha} "
                              "is repeated")
    n_lateral, n_arc, grading_q, target_h = _mesh_values(cp)
    refinements, restarts = _counts(cp)
    report = analysis.alpha_sweep(
        solver_config(cp), alphas, refinements=refinements,
        n_lateral=n_lateral, n_arc=n_arc, grading_q=grading_q, target_h=target_h,
        restarts=restarts, seed=seed,
        with_fp=_get(cp, "sweep", "with_fp", bool))
    manifest.stage("sweep")
    manifest.write_csv(
        "sweep.csv", "alpha,p,weighted,level,h_max,lambda,fp_constant,iterations,converged,trend",
        ((r.alpha, r.p, r.weighted, r.level, r.h_max, r.eigenvalue, r.fp_constant,
          r.iterations, r.converged, r.trend) for r in report.rows))
    manifest.add("sweep.rows", len(report.rows))
    for i, row in enumerate(r for r in report.rows if r.error):
        manifest.add(f"sweep.failed.{i}", f"{row.mesh_id}: {row.error}")
    manifest.stage("write")
    return EXIT_OK, ""


# -- built-in oracle suite -------------------------------------------------


def run_validation() -> list[dict]:
    """Fast self-checks against independent oracles; see cmd_validate."""
    checks = []

    def record(name, expected, actual, tol):
        checks.append({"name": name, "expected": expected, "actual": actual,
                       "tolerance": tol, "passed": abs(actual - expected) <= tol})

    # disk p=2: first non-trivial eigenvalue of the unit disk is 1
    dpoly = geometry.boundary_polygon(geometry.DomainSpec.disk(1.0), n_arc=64)
    dm = meshmod.triangulate(dpoly, 0.25)
    lams = []
    msh = dm
    for _ in range(3):
        lams.append(solve_p2(msh, weighted=False).eigenvalue)
        msh = meshmod.refine_uniform(msh)
    rate = np.log2((lams[0] - lams[1]) / (lams[1] - lams[2]))
    extrap = lams[2] + (lams[2] - lams[1]) / (2.0 ** rate - 1.0)
    record("disk_p2_first_eigenvalue", 1.0, float(extrap), 0.02)

    # gradient vs central finite differences on a coarse cusp mesh
    cpoly = geometry.boundary_polygon(geometry.DomainSpec.cusp(2.0),
                                      n_lateral=8, n_arc=16)
    cm = meshmod.triangulate(cpoly, 0.6)
    rng = np.random.default_rng(42)
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        cfg = fem.ProblemConfig(p=p, weighted=True)
        u = rng.standard_normal(cm.num_vertices)
        ga = fem.energy_gradient(cm, cfg, u, eps=1e-8)
        gf = np.zeros_like(ga)
        delta = 1e-6
        for i in range(cm.num_vertices):
            e = np.zeros(cm.num_vertices)
            e[i] = delta
            gf[i] = (fem.energy(cm, cfg, u + e, eps=1e-8)
                     - fem.energy(cm, cfg, u - e, eps=1e-8)) / (2 * delta)
        worst = max(worst, float(np.abs(ga - gf).max() / np.abs(ga).max()))
    record("energy_gradient_fd", 0.0, worst, 1e-5)

    # p-homogeneity of the two norms
    cfg = fem.ProblemConfig(p=2.7, weighted=True)
    u = rng.standard_normal(cm.num_vertices)
    c = -1.7
    e_ratio = fem.energy(cm, cfg, c * u) / (abs(c) ** 2.7 * fem.energy(cm, cfg, u))
    b_ratio = fem.boundary_pnorm(cm, cfg, c * u) / (
        abs(c) ** 2.7 * fem.boundary_pnorm(cm, cfg, u))
    record("energy_homogeneity", 1.0, float(e_ratio), 1e-12)
    record("boundary_norm_homogeneity", 1.0, float(b_ratio), 1e-12)

    # two-point shift root: (3-c)|3-c| = c|c| at p=3 gives c = 1.5, one
    # Newton step from the midpoint of [0, 4]
    def toy(cshift):
        return (3.0 - cshift) * abs(3.0 - cshift) - cshift * abs(cshift)

    def toy_slope(cshift):
        return -2.0 * (abs(3.0 - cshift) + abs(cshift))

    root = scalar_shift_root(toy, toy_slope, 0.0, 4.0, ftol=1e-14)
    record("shift_root_two_point", 1.5, float(root), 1e-10)

    # unit square FP constant: 1/pi (cos(pi x) has zero boundary integral)
    sq = geometry.polygon_from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
    ms = meshmod.refine_uniform(meshmod.triangulate(sq, 0.15))
    C = analysis.fp_constant(ms, fem.ProblemConfig(p=2.0, weighted=False))
    record("square_fp_constant", 1.0 / np.pi, float(C), 0.01 / np.pi)

    return checks


def cmd_validate(cp, manifest: Manifest, seed: int):
    checks = run_validation()
    columns = ("name", "expected", "actual", "tolerance", "passed")
    manifest.write_csv("validation.csv", "check,expected,actual,tolerance,passed",
                       ([c[key] for key in columns] for c in checks))
    n_failed = sum(0 if c["passed"] else 1 for c in checks)
    manifest.add("checks.total", len(checks))
    manifest.add("checks.failed", n_failed)
    for c in checks:
        status = "ok" if c["passed"] else "FAIL"
        print(f"{status:4s} {c['name']}: actual {c['actual']:.6g} vs "
              f"expected {c['expected']:.6g} (tol {c['tolerance']:.2g})")
    if n_failed:
        return EXIT_VALIDATION, f"{n_failed} checks failed"
    return EXIT_OK, ""


# each command works into manifest.out and returns (EXIT_OK, "") or the exit
# code and reason of a soft failure: non-convergence, failed checks
COMMANDS = {"mesh": cmd_mesh, "solve": cmd_solve, "sweep": cmd_sweep, "validate": cmd_validate}


def main(argv=None) -> int:
    """Run one command; the one place where failures become exit codes."""
    parser = argparse.ArgumentParser(
        prog="steklov-cusp",
        description="Weighted Steklov p-eigenvalues on outward cuspidal domains")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="path to the INI config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the seed from the config")
    parser.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)

    manifest = None
    kind = ""
    try:
        if args.config is None and args.command != "validate":
            raise ConfigError("--config is required for this command")
        cp = load_config(args.config)
        out = Path(args.out) if args.out else Path(_get(cp, "output", "output_dir", str))
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from None
        manifest = Manifest(out, args.command)
        seed = args.seed if args.seed is not None else _get(cp, "solver", "seed", int)
        if seed < 0:
            source = "--seed" if args.seed is not None else "config key [solver] seed"
            raise ConfigError(f"invalid value {seed} for {source}: seed must be at least 0")
        manifest.add("seed", seed)
        manifest.add_config(cp)
        check_keys(cp)
        code, reason = COMMANDS[args.command](cp, manifest, seed)
    except ConfigError as exc:
        code, kind, reason = EXIT_CONFIG, "config", str(exc)
    except geometry.GeometryError as exc:
        code, kind, reason = EXIT_GEOMETRY, "geometry", str(exc)
    except (SolveError, np.linalg.LinAlgError) as exc:
        code, kind, reason = EXIT_SOLVER, "solver", str(exc)
    if code != EXIT_OK:
        print(f"{kind} error: {reason}" if kind else reason, file=sys.stderr)
    if manifest is not None:
        manifest.write("ok" if code == EXIT_OK else "failed", reason)
    return code


if __name__ == "__main__":
    sys.exit(main())
