"""Acceptance criteria, one test per criterion, each printing a PASS line
with the measured numbers.  Tolerances are fixed here and nowhere else.
"""

import time

import numpy as np
import pytest

from steklov_cusp import (DomainSpec, ProblemConfig, boundary_polygon,
                          constraint_functional, energy, energy_gradient,
                          fp_constant, orthogonalize_shift, polygon_from_points,
                          rayleigh, refine_uniform, solve_p, solve_p2,
                          triangulate)
from steklov_cusp import fem
from steklov_cusp.analysis import alpha_sweep
from steklov_cusp.cli import main as cli_main
from steklov_cusp.eigensolver import _descent
from steklov_cusp.linalg import Factor
from helpers import bisect_root


def _report(num, name, detail):
    print(f"\nACCEPTANCE {num} {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def cusp15_dualpath_mesh():
    poly = boundary_polygon(DomainSpec.cusp(1.5), n_lateral=24, n_arc=48,
                            grading_q=2.0)
    return refine_uniform(triangulate(poly, 0.25))


@pytest.fixture(scope="module")
def p2_dual_path(cusp15_dualpath_mesh):
    """The p = 2 direct and descent eigenpairs on the dual-path mesh.

    Criterion 2 asserts on this pair; criteria 4 and 7 check it again, so it
    is computed once per module and does not depend on which test runs first.
    """
    t0 = time.time()
    msh = cusp15_dualpath_mesh
    direct = solve_p2(msh, weighted=True)
    descent = solve_p(msh, ProblemConfig(p=2.0, weighted=True), restarts=3, seed=0)
    return direct, descent, time.time() - t0


def test_criterion_1_disk_oracle():
    t0 = time.time()
    poly = boundary_polygon(DomainSpec.disk(1.0), n_arc=64)
    msh = triangulate(poly, 0.25)
    spectra = []
    for _ in range(3):
        spectra.append(solve_p2(msh, weighted=False, k=5).p2_spectrum)
        msh = refine_uniform(msh)
    seq = [s[0] for s in spectra]
    rate = np.log2((seq[0] - seq[1]) / (seq[1] - seq[2]))
    extrap = seq[2] + (seq[2] - seq[1]) / (2.0 ** rate - 1.0)
    assert abs(extrap - 1.0) < 0.01
    finest = spectra[-1]
    assert abs(finest[1] - finest[0]) / finest[0] < 0.01   # pair at 1
    assert abs(finest[3] - finest[2]) / finest[2] < 0.01   # pair at 2
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(1, "disk p=2 oracle",
            f"extrapolated lambda {extrap:.6f}, pairs "
            f"{finest[0]:.5f}/{finest[1]:.5f} and {finest[2]:.5f}/{finest[3]:.5f}, "
            f"{elapsed:.1f}s")


def test_criterion_2_dual_path_p2(p2_dual_path):
    direct, descent, elapsed = p2_dual_path
    assert descent.converged
    rel = abs(descent.eigenvalue - direct.eigenvalue) / direct.eigenvalue
    assert rel <= 1e-3
    assert elapsed < 120.0
    _report(2, "dual-path agreement at p=2",
            f"lambda {direct.eigenvalue:.8f} vs {descent.eigenvalue:.8f}, "
            f"rel {rel:.2e}, {elapsed:.1f}s")


def test_criterion_3_gradient_correctness():
    t0 = time.time()
    poly = boundary_polygon(DomainSpec.cusp(2.0), n_lateral=8, n_arc=16)
    msh = triangulate(poly, 0.6)
    rng = np.random.default_rng(0)
    worst = 0.0
    delta = 1e-6
    for p in (1.5, 2.0, 3.0):
        cfg = ProblemConfig(p=p, weighted=True)
        for _ in range(20):
            u = rng.standard_normal(msh.num_vertices)
            ga = energy_gradient(msh, cfg, u, eps=1e-8)
            gf = np.zeros_like(ga)
            for i in range(msh.num_vertices):
                e = np.zeros(msh.num_vertices)
                e[i] = delta
                gf[i] = (energy(msh, cfg, u + e, eps=1e-8)
                         - energy(msh, cfg, u - e, eps=1e-8)) / (2 * delta)
            worst = max(worst, float(np.abs(ga - gf).max() / np.abs(ga).max()))
    assert worst <= 1e-5
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(3, "gradient vs finite differences",
            f"worst relative error {worst:.2e} over 60 fields, {elapsed:.1f}s")


def test_criterion_4_invariant_suite(cusp15_dualpath_mesh, p2_dual_path):
    msh = cusp15_dualpath_mesh
    rng = np.random.default_rng(1)

    # Rayleigh scale invariance, exact to 1e-12
    cfg = ProblemConfig(p=2.5, weighted=True)
    u = rng.standard_normal(msh.num_vertices)
    r0 = rayleigh(msh, cfg, u)
    worst_scale = max(abs(rayleigh(msh, cfg, c * u) - r0) / r0
                      for c in (2.0, -3.7, 1e3, 1e-4))
    assert worst_scale <= 1e-12

    # monotone descent and per-iterate constraint preservation
    measure = fem.boundary_weighted_measure(msh, ProblemConfig())
    cres_list = []
    K, M, _ = fem.assemble_p2(msh, weighted=False)
    out = _descent(msh, cfg, solve_p2(msh, weighted=True).u, fem.boundary_pnorm,
                   fem.boundary_pnorm_gradient, Factor(K + M),
                   on_accept=lambda v: cres_list.append(
                       abs(constraint_functional(msh, cfg, v))))
    hist = out.history
    assert all(b <= a * (1.0 + 1e-12) for a, b in zip(hist, hist[1:]))
    assert cres_list and max(cres_list) <= 1e-8 * measure

    # shift root uniqueness: plain bisection on the full-field functional
    # against the safeguarded Newton path
    v = rng.standard_normal(msh.num_vertices)
    bvals = v[msh.boundary_vertex_ids()]
    c_ref = bisect_root(lambda c: constraint_functional(msh, cfg, v - c),
                        float(bvals.min()), float(bvals.max()))
    shift_gap = float(np.abs(orthogonalize_shift(msh, cfg, v) - (v - c_ref)).max())
    assert shift_gap <= 1e-10

    # positivity of every converged eigenvalue of the dual-path pair
    direct, descent, _ = p2_dual_path
    converged_runs = [direct, descent]
    assert converged_runs
    assert all(r.eigenvalue > 0.0 for r in converged_runs if r.converged)

    _report(4, "invariant suite",
            f"scale inv {worst_scale:.1e}, {len(hist)} monotone steps, "
            f"max constraint {max(cres_list):.2e} <= 1e-8*{measure:.3f}, "
            f"shift gap {shift_gap:.1e}")


def test_criterion_5_fp_constant():
    t0 = time.time()
    # unit square validation: the boundary-constrained constant is 1/pi
    sq = polygon_from_points([(0, 0), (1, 0), (1, 1), (0, 1)])
    sq_mesh = refine_uniform(triangulate(sq, 0.15))
    C_sq = fp_constant(sq_mesh, ProblemConfig(p=2.0, weighted=False))
    rel_sq = abs(C_sq * np.pi - 1.0)
    assert rel_sq < 0.01

    # cusp: stability between the two finest refinements, all (alpha, p) pairs
    details = []
    for alpha in (1.5, 2.5):
        poly = boundary_polygon(DomainSpec.cusp(alpha), n_lateral=10, n_arc=20,
                                grading_q=2.0)
        meshes = [triangulate(poly, 0.5)]
        for _ in range(2):
            meshes.append(refine_uniform(meshes[-1]))
        for p in (1.5, 2.0, 3.0):
            cfg = ProblemConfig(p=p, weighted=True)
            c1 = fp_constant(meshes[1], cfg)
            c2 = fp_constant(meshes[2], cfg)
            var = abs(c2 - c1) / c1
            details.append(f"a{alpha}/p{p}: {var:.3f}")
            assert var <= 0.10, f"alpha={alpha} p={p}: {c1} vs {c2}"
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(5, "Friedrichs-Poincare constants",
            f"square rel err {rel_sq:.4f}; variations " + ", ".join(details)
            + f"; {elapsed:.0f}s")


def test_criterion_6_threshold_experiment():
    t0 = time.time()
    report = alpha_sweep(ProblemConfig(p=2.0), alphas=[1.25, 1.5, 1.75, 2.5],
                         refinements=3, n_lateral=12, n_arc=24, grading_q=2.0,
                         target_h=0.4, restarts=1, seed=0, with_fp=True)
    by = {}
    for row in report.rows:
        by.setdefault((row.alpha, row.weighted), []).append(row)
    details = []
    # unweighted at alpha = 2.5 decreases monotonically across the levels
    unw = sorted(by[(2.5, False)], key=lambda r: r.level)
    vals = [r.eigenvalue for r in unw]
    assert all(r.converged for r in unw)
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert unw[0].trend == "decaying-to-zero"
    details.append("a2.5 unweighted " + "->".join(f"{v:.4f}" for v in vals))
    # weighted eigenvalues stable to 5% between the two finest levels
    for alpha in (1.25, 1.5, 1.75, 2.5):
        rows = sorted(by[(alpha, True)], key=lambda r: r.level)
        assert all(r.converged for r in rows)
        drift = abs(rows[-1].eigenvalue - rows[-2].eigenvalue) / rows[-2].eigenvalue
        assert drift <= 0.05, f"alpha={alpha}: drift {drift}"
        assert rows[0].trend == "stable"
        details.append(f"a{alpha} weighted drift {drift:.4f}")
    elapsed = time.time() - t0
    assert elapsed < 900.0
    _report(6, "alpha threshold experiment",
            "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_7_weakform_residual(cusp15_dualpath_mesh, p2_dual_path):
    msh = cusp15_dualpath_mesh
    direct, descent, _ = p2_dual_path
    runs = [direct, descent]
    for p in (1.5, 3.0):
        runs.append(solve_p(msh, ProblemConfig(p=p, weighted=True),
                            restarts=1, seed=0))
    poly = boundary_polygon(DomainSpec.disk(1.0), n_arc=64)
    disk = triangulate(poly, 0.25)
    runs.append(solve_p(disk, ProblemConfig(p=2.5, weighted=False),
                        restarts=1, seed=0))
    converged = [r for r in runs if r.converged]
    assert len(converged) >= 5
    worst = max(r.weakform_residual for r in converged)
    assert worst <= 1e-6
    _report(7, "weak-form residual",
            f"{len(converged)} converged eigenpairs, worst relative residual "
            f"{worst:.2e}")


CUSP_CONFIG = """\
[domain]
domain = cusp
alpha = 1.5
n_lateral = 12
n_arc = 24
grading_q = 2.0
target_h = 0.4

[solver]
p = 2.0
weighted = true
refinements = 1
restarts = 2
seed = 7

[output]
output_dir = {out}
"""


def test_criterion_8_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfgp = tmp_path / f"{name}.ini"
        cfgp.write_text(CUSP_CONFIG.format(out=out))
        assert cli_main(["solve", "--config", str(cfgp)]) == 0
        outs.append(out)
    b1 = (outs[0] / "results.csv").read_bytes()
    b2 = (outs[1] / "results.csv").read_bytes()
    assert b1 == b2
    _report(8, "determinism", f"byte-identical results.csv ({len(b1)} bytes)")
