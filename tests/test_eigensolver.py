import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from steklov_cusp import (DomainSpec, ProblemConfig, SolveError, boundary_pnorm,
                          boundary_polygon, constraint_functional,
                          orthogonalize_shift, polygon_from_points, rayleigh,
                          refine_uniform, solve_p, solve_p2, triangulate, weakform_residual)
from steklov_cusp import eigensolver, fem, linalg
from steklov_cusp.linalg import Factor, solve_spd
from steklov_cusp.eigensolver import (CONSTRAINT_TOL_FACTOR, SHIFT_FTOL_FACTOR, WEAKFORM_RTOL,
                                      scalar_shift_root, _bordered_newton, _descent)
from helpers import bisect_root


def test_rayleigh_scale_invariance(cusp15_mesh):
    cfg = ProblemConfig(p=2.5, weighted=True)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(cusp15_mesh.num_vertices)
    r0 = rayleigh(cusp15_mesh, cfg, u)
    for c in (2.0, -3.7, 1e3, 1e-4):
        assert rayleigh(cusp15_mesh, cfg, c * u) == pytest.approx(r0, rel=1e-12)


def test_rayleigh_constant_is_zero(disk_mesh):
    # zero up to fp cancellation in the per-triangle gradient sums
    cfg = ProblemConfig(p=2.0, weighted=False)
    assert abs(rayleigh(disk_mesh, cfg, np.ones(disk_mesh.num_vertices))) < 1e-20


def test_rayleigh_zero_boundary_error(square_mesh):
    cfg = ProblemConfig(p=2.0, weighted=False)
    u = np.zeros(square_mesh.num_vertices)
    with pytest.raises(SolveError, match="infinite"):
        rayleigh(square_mesh, cfg, u)


def _toy(c):
    # trace 3 on unit measure against 0 on unit measure at p = 3
    return (3.0 - c) * abs(3.0 - c) - c * abs(c)


def _toy_slope(c):
    return -2.0 * (abs(3.0 - c) + abs(c))


def _count_shift_evals(monkeypatch):
    # wraps scalar_shift_root so that every F it receives counts its calls
    counts = {"shifts": 0, "evals": 0}
    inner = eigensolver.scalar_shift_root

    def counting(F, dF, lo, hi, ftol):
        def counted(c):
            counts["evals"] += 1
            return F(c)
        counts["shifts"] += 1
        return inner(counted, dF, lo, hi, ftol)

    monkeypatch.setattr(eigensolver, "scalar_shift_root", counting)
    return counts


def test_shift_root_two_point_toy(monkeypatch):
    # from the midpoint 2 one Newton step lands on the root 1.5: F(2) and
    # F(1.5) are the only evaluations (the bracket ends are never needed)
    counts = _count_shift_evals(monkeypatch)
    root = eigensolver.scalar_shift_root(_toy, _toy_slope, 0.0, 4.0, ftol=1e-14)
    assert root == pytest.approx(1.5, abs=1e-10)
    assert counts["evals"] == 2


def test_shift_root_bisection_fallback():
    # from the midpoint 1 the Newton step of the flat arctangent lands near
    # c = -23.6, outside [-3, 5], so the search must fall back to bisection
    def F(c):
        return -math.atan(20.0 * (c - 0.1))

    def dF(c):
        return -20.0 / (1.0 + (20.0 * (c - 0.1)) ** 2)

    assert not -3.0 < 1.0 - F(1.0) / dF(1.0) < 5.0
    root = scalar_shift_root(F, dF, -3.0, 5.0, ftol=1e-14)
    assert root == pytest.approx(bisect_root(F, -3.0, 5.0), abs=1e-12)


def test_shift_root_unbracketed_interval_error():
    # the root 1.5 lies outside [2, 3] and [0, 1]: no bracket is searched for
    for lo, hi in ((2.0, 3.0), (0.0, 1.0)):
        with pytest.raises(SolveError, match="not bracketed"):
            scalar_shift_root(_toy, _toy_slope, lo, hi, ftol=1e-14)


def _reference_shift(mesh, cfg, u):
    # the full-field formulation on a copy of the mesh with an empty cache,
    # so that no cached boundary array or measure is shared with the search
    fresh = replace(mesh, _cache={})
    bvals = u[fresh.boundary_vertex_ids()]
    measure = fem.boundary_pnorm(fresh, cfg, np.ones(fresh.num_vertices))

    def F(c):
        return fem.constraint_functional(fresh, cfg, u - c)

    def dF(c):
        d = fem.constraint_gradient_direction(fresh, cfg, u - c)
        return -(cfg.p - 1.0) * float(d.sum())

    c = scalar_shift_root(F, dF, float(bvals.min()), float(bvals.max()),
                          SHIFT_FTOL_FACTOR * measure)
    return u - c


def _oracle_shift(mesh, cfg, u):
    """The shift by plain bisection on the full-field functional."""
    bvals = u[mesh.boundary_vertex_ids()]
    return bisect_root(lambda c: constraint_functional(mesh, cfg, u - c),
                       float(bvals.min()), float(bvals.max()))


@pytest.mark.parametrize("mesh_name", ["cusp15_mesh", "disk_mesh"])
def test_shift_bit_identical_to_full_field_formulation(mesh_name, request):
    msh = request.getfixturevalue(mesh_name)
    rng = np.random.default_rng(11)
    fields = [rng.standard_normal(msh.num_vertices), msh.vertices[:, 1] ** 2]
    combos = [(p, weighted) for p in (1.5, 2.0, 2.5, 3.0) for weighted in (True, False)]
    # one mesh object for every combination, visited forwards and backwards,
    # so that a cache key missing the weighting hands the search the other
    # weighting's boundary arrays (the measure, keyed by p as well, comes
    # out the same for every p here: the samples of 1 interpolate to 1)
    for p, weighted in combos + combos[::-1]:
        cfg = ProblemConfig(p=p, weighted=weighted)
        for u in fields:
            got = orthogonalize_shift(msh, cfg, u)
            assert np.array_equal(got, _reference_shift(msh, cfg, u)), (p, weighted)


def test_shift_bisection_newton_agree(cusp15_mesh):
    cfg = ProblemConfig(p=2.7, weighted=True)
    rng = np.random.default_rng(6)
    u = rng.standard_normal(cusp15_mesh.num_vertices)
    shifted = orthogonalize_shift(cusp15_mesh, cfg, u)
    assert np.abs(shifted - (u - _oracle_shift(cusp15_mesh, cfg, u))).max() <= 1e-10


def test_shift_stops_when_the_bracket_is_exhausted(cusp15_mesh, monkeypatch):
    # shifts near 1e7: 1e-12 * measure lies below the rounding error of F, so
    # only the exhausted bracket can stop the search (the width test
    # hi - lo < 1e-17 * (|lo| + |hi|) it replaces ran 114 evaluations here)
    u = np.exp(5.0 * cusp15_mesh.vertices[:, 1])
    counts = _count_shift_evals(monkeypatch)
    for p in (2.0, 3.0, 4.0):
        for weighted in (True, False):
            cfg = ProblemConfig(p=p, weighted=weighted)
            counts["evals"] = 0
            c = float((u - orthogonalize_shift(cusp15_mesh, cfg, u))[0])
            assert counts["evals"] <= 64, (p, weighted, counts["evals"])
            ref = _oracle_shift(cusp15_mesh, cfg, u)
            assert abs(c - ref) <= 4.0 * np.spacing(ref), (p, weighted, c, ref)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_descent_shift_evaluations(cusp15_mesh, monkeypatch, p):
    # bisecting before Newton cost about 16 evaluations per shift here, and
    # an up-front bracket check 2 more (about 3 remain)
    counts = _count_shift_evals(monkeypatch)
    solve_p(cusp15_mesh, ProblemConfig(p=p), restarts=1)
    assert counts["shifts"] > 0
    assert counts["evals"] / counts["shifts"] <= 4.0


def test_shift_p2_weighted_mean(cusp15_mesh):
    msh = cusp15_mesh
    cfg = ProblemConfig(p=2.0, weighted=True)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(msh.num_vertices)
    shifted = orthogonalize_shift(msh, cfg, u)
    ones = np.ones(msh.num_vertices)
    mean = constraint_functional(msh, cfg, u) / fem.boundary_weighted_measure(msh, ProblemConfig())
    assert np.allclose(u - shifted, mean * ones, atol=1e-11)


def test_shift_odd_disk_is_zero(disk_mesh):
    for p in (1.5, 2.0, 3.0):
        cfg = ProblemConfig(p=p, weighted=False)
        u = disk_mesh.vertices[:, 0].copy()
        shifted = orthogonalize_shift(disk_mesh, cfg, u)
        assert np.abs(u - shifted).max() <= 1e-11


def test_shift_constant_trace_error(disk_mesh):
    cfg = ProblemConfig(p=2.0, weighted=False)
    with pytest.raises(SolveError, match="admissible"):
        orthogonalize_shift(disk_mesh, cfg, np.ones(disk_mesh.num_vertices))


def test_shift_enforces_constraint(cusp15_mesh):
    cfg = ProblemConfig(p=1.5, weighted=True)
    rng = np.random.default_rng(10)
    u = rng.standard_normal(cusp15_mesh.num_vertices)
    shifted = orthogonalize_shift(cusp15_mesh, cfg, u)
    measure = fem.boundary_weighted_measure(cusp15_mesh, ProblemConfig())
    assert abs(constraint_functional(cusp15_mesh, cfg, shifted)) <= 1e-12 * measure


def test_p2_disk_spectrum(disk_mesh_chain):
    lams = []
    for msh in disk_mesh_chain:
        lams.append(solve_p2(msh, weighted=False, k=5).p2_spectrum)
    finest = lams[-1]
    assert finest[0] == pytest.approx(1.0, abs=0.01)
    assert finest[1] == pytest.approx(finest[0], rel=0.01)  # multiplicity two
    assert finest[2] == pytest.approx(2.0, abs=0.05)
    # Richardson extrapolation of the first eigenvalue
    seq = [l[0] for l in lams]
    rate = np.log2((seq[0] - seq[1]) / (seq[1] - seq[2]))
    extrap = seq[2] + (seq[2] - seq[1]) / (2.0 ** rate - 1.0)
    assert abs(extrap - 1.0) < 0.01


def test_solve_p2_result_contract(cusp15_mesh):
    res = solve_p2(cusp15_mesh, weighted=True)
    assert res.eigenvalue > 0.0
    assert res.converged
    cfg = ProblemConfig(p=2.0, weighted=True)
    assert boundary_pnorm(cusp15_mesh, cfg, res.u) == pytest.approx(1.0, abs=1e-10)
    measure = fem.boundary_weighted_measure(cusp15_mesh, ProblemConfig())
    assert res.constraint_residual <= 1e-8 * measure
    assert res.weakform_residual <= 1e-8


def test_solve_p2_reports_residual_of_returned_pair(cusp15_mesh):
    # the reported residual is the projected pencil residual of the pair
    # that is returned, recomputed here from K, B, lambda and u
    res = solve_p2(cusp15_mesh, weighted=True)
    K, _, B = fem.assemble_p2(cusp15_mesh, weighted=True)
    ku, bu = K.matvec(res.u), B.matvec(res.u)
    d = B.matvec(np.ones(cusp15_mesh.num_vertices))
    r = ku - res.eigenvalue * bu
    r = r - (float(r @ d) / float(d @ d)) * d
    expected = np.linalg.norm(r) / (np.linalg.norm(ku) + res.eigenvalue * np.linalg.norm(bu))
    assert res.weakform_residual == float(expected)


def test_solve_p2_weighted_stable_under_refinement(cusp15_mesh):
    r0 = solve_p2(cusp15_mesh, weighted=True)
    r1 = solve_p2(refine_uniform(cusp15_mesh), weighted=True)
    assert abs(r1.eigenvalue - r0.eigenvalue) / r0.eigenvalue <= 0.05


def test_solve_p2_reports_a_lost_pair_as_not_converged():
    # weighted alpha = 3 on the sweep mesh (12/24 samples, h = 0.4, two
    # refinements): the dense reduction returns lambda = 16.54 with pencil
    # residual 7.3e-5, a pair that is not an eigenpair to the standard
    poly = boundary_polygon(DomainSpec.cusp(3.0), n_lateral=12, n_arc=24, grading_q=2.0)
    msh = triangulate(poly, 0.4, tip_grading=2.0)
    for _ in range(2):
        msh = refine_uniform(msh)
    assert msh.num_vertices == 1955
    res = solve_p2(msh, weighted=True)
    assert res.weakform_residual > WEAKFORM_RTOL
    assert not res.converged


def test_solve_p2_above_4000_interior_nodes():
    # the perfbench p2_cliff mesh: 4,523 vertices, more than 4,000 of them
    # interior; the reference eigenvalue is the one perfbench/references.json
    # records for it
    poly = boundary_polygon(DomainSpec.cusp(2.0), n_lateral=8, n_arc=16, grading_q=2.0)
    msh = triangulate(poly, 0.25, tip_grading=2.0)
    for _ in range(2):
        msh = refine_uniform(msh)
    assert msh.num_vertices - len(msh.boundary_vertex_ids()) > 4000
    res = solve_p2(msh, weighted=True)
    assert res.converged
    assert abs(res.eigenvalue - 0.7043326454154812) <= 1e-9 * 0.7043326454154812


def test_a_mesh_with_no_interior_vertex_solves():
    # the unit square as two triangles: all 4 vertices on the boundary, so
    # the interior block is empty; the dense pencil K x = lambda B x has
    # eigenvalues 0, 1.5, 1.5, 6
    msh = triangulate(polygon_from_points([(0, 0), (1, 0), (1, 1), (0, 1)]), 5.0)
    assert msh.num_vertices == len(msh.boundary_vertex_ids()) == 4
    K, _, B = fem.assemble_p2(msh, weighted=False)
    vals, _ = linalg.generalized_eig_sym(K.to_dense(), B.to_dense(), 0)
    first = vals[vals > 1e-12 * vals[-1]][0]
    res = solve_p2(msh, weighted=False)
    assert res.converged
    assert res.eigenvalue == pytest.approx(first, rel=1e-12)
    assert solve_p(msh, ProblemConfig(p=3.0, weighted=False), restarts=1).converged


def test_solve_p_matches_p2_on_cusp(cusp15_mesh):
    direct = solve_p2(cusp15_mesh, weighted=True)
    cfg = ProblemConfig(p=2.0, weighted=True)
    res = solve_p(cusp15_mesh, cfg, restarts=1, seed=0)
    assert res.converged
    assert abs(res.eigenvalue - direct.eigenvalue) / direct.eigenvalue <= 1e-3


def test_solve_p2_matches_solve_p_on_graded_cusp():
    # the direct pencil and the p = 2 descent share the boundary rule, so on
    # this graded weighted alpha = 2.5 mesh they agree far below 1e-10
    poly = boundary_polygon(DomainSpec.cusp(2.5), n_lateral=10, n_arc=20)
    msh = refine_uniform(triangulate(poly, 0.5))
    assert msh.num_vertices == 372
    cfg = ProblemConfig(p=2.0, weighted=True)
    direct = solve_p2(msh, weighted=True)
    res = solve_p(msh, cfg, restarts=1, seed=0)
    assert res.converged and direct.constraint_residual <= 1e-12
    assert abs(res.eigenvalue - direct.eigenvalue) <= 1e-10 * direct.eigenvalue


def test_solve_p_invariant_under_initial_scaling(cusp15_mesh):
    cfg = ProblemConfig(p=2.5, weighted=True)
    u0 = solve_p2(cusp15_mesh, weighted=True).u
    r1 = solve_p(cusp15_mesh, cfg, restarts=1, seed=0, u0=u0)
    r2 = solve_p(cusp15_mesh, cfg, restarts=1, seed=0, u0=-123.0 * u0)
    assert r1.eigenvalue == pytest.approx(r2.eigenvalue, abs=1e-12)


def test_solve_p_smoothness_in_p(disk_mesh):
    msh = refine_uniform(disk_mesh)
    lams = {}
    for p in (1.9, 2.0, 2.1):
        res = solve_p(msh, ProblemConfig(p=p, weighted=False), restarts=1, seed=0)
        assert res.converged
        lams[p] = res.eigenvalue
    assert lams[1.9] < lams[2.0] < lams[2.1]
    for p in (1.9, 2.1):
        assert abs(lams[p] - lams[2.0]) / lams[2.0] < 0.15


def test_solve_p_result_contract(disk_mesh):
    cfg = ProblemConfig(p=2.5, weighted=False)
    res = solve_p(disk_mesh, cfg, restarts=2, seed=0)
    assert res.converged and res.eigenvalue > 0.0
    assert boundary_pnorm(disk_mesh, cfg, res.u) == pytest.approx(1.0, abs=1e-10)
    assert res.weakform_residual <= 1e-6
    # lambda equals the energy at unit boundary norm, i.e. the Rayleigh value
    assert res.eigenvalue == pytest.approx(rayleigh(disk_mesh, cfg, res.u), rel=1e-12)
    hist = res.energy_history
    assert all(b <= a * (1.0 + 1e-12) for a, b in zip(hist, hist[1:]))


def test_solve_p_prefers_a_converged_restart(disk_mesh, monkeypatch):
    # the first start is cut after one iteration and ends unconverged; the
    # restart converges, and a converged result replaces an unconverged best
    calls = []

    def first_capped(*args, **kw):
        if not calls:
            kw["iteration_cap"] = 1
        calls.append(_descent(*args, **kw))
        return calls[-1]

    monkeypatch.setattr(eigensolver, "_descent", first_capped)
    cfg = ProblemConfig(p=1.5, weighted=False)
    res = solve_p(disk_mesh, cfg, restarts=2, seed=0)
    assert len(calls) == 2 and calls[0].iterations == 1
    assert not eigensolver._finalize_run(disk_mesh, cfg, calls[0].u, calls[0]).converged
    assert res.converged and res.weakform_residual <= WEAKFORM_RTOL


def test_descent_constraint_at_every_accepted_step(disk_mesh):
    cfg = ProblemConfig(p=2.5, weighted=False)
    K, M, _ = fem.assemble_p2(disk_mesh, weighted=False)
    measure = fem.boundary_weighted_measure(disk_mesh, ProblemConfig())
    seen = []

    def on_accept(u):
        seen.append(abs(constraint_functional(disk_mesh, cfg, u)))

    u0 = disk_mesh.vertices[:, 0]
    _descent(disk_mesh, cfg, u0, fem.boundary_pnorm, fem.boundary_pnorm_gradient,
             Factor(K + M), on_accept=on_accept)
    assert len(seen) > 0
    assert max(seen) <= 1e-8 * measure


def test_weighted_quotient_dominates_unweighted(cusp15_mesh):
    # for w <= 1 the weighted denominator is smaller, so for any fixed field
    # the weighted quotient dominates the unweighted one
    rng = np.random.default_rng(33)
    for p in (1.5, 2.0, 3.0):
        cfg_w = ProblemConfig(p=p, weighted=True)
        cfg_u = ProblemConfig(p=p, weighted=False)
        for _ in range(5):
            v = rng.standard_normal(cusp15_mesh.num_vertices)
            assert rayleigh(cusp15_mesh, cfg_w, v) >= rayleigh(cusp15_mesh, cfg_u, v)


def test_weakform_residual_random_field_is_large(cusp15_mesh):
    cfg = ProblemConfig(p=2.0, weighted=True)
    rng = np.random.default_rng(40)
    u = rng.standard_normal(cusp15_mesh.num_vertices)
    lam = rayleigh(cusp15_mesh, cfg, u)
    assert weakform_residual(cusp15_mesh, cfg, u, lam) > 1e-3


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0])
def test_bordered_newton_finishes_stalled_descent(cusp15_mesh, p):
    # the terminal phase takes the stalled descent's field to the residual
    # standard without leaving the admissible set or raising the quotient
    cfg = ProblemConfig(p=p, weighted=True)
    K, M, _ = fem.assemble_p2(cusp15_mesh, weighted=False)
    out = _descent(cusp15_mesh, cfg, solve_p2(cusp15_mesh, weighted=True).u,
                   fem.boundary_pnorm, fem.boundary_pnorm_gradient, Factor(K + M))
    assert out.stalled
    lam_in = rayleigh(cusp15_mesh, cfg, out.u)
    assert weakform_residual(cusp15_mesh, cfg, out.u, lam_in) > 0.1 * WEAKFORM_RTOL
    u, value, steps, res = _bordered_newton(cusp15_mesh, cfg, out.u)
    assert res <= 0.1 * WEAKFORM_RTOL
    assert res == weakform_residual(cusp15_mesh, cfg, u, value)
    assert value == pytest.approx(rayleigh(cusp15_mesh, cfg, u), rel=1e-12)
    assert boundary_pnorm(cusp15_mesh, cfg, u) == pytest.approx(1.0, abs=1e-10)
    measure = fem.boundary_weighted_measure(cusp15_mesh, cfg)
    assert abs(constraint_functional(cusp15_mesh, cfg, u)) <= CONSTRAINT_TOL_FACTOR * measure
    assert value <= lam_in * (1.0 + 1e-6)


def _disk(n_arc, target_h):
    poly = boundary_polygon(DomainSpec.disk(1.0), n_lateral=n_arc // 2, n_arc=n_arc,
                            grading_q=2.0)
    return triangulate(poly, target_h, tip_grading=2.0)


@pytest.fixture(scope="module")
def disk64_mesh():
    # the benchmark's eigen_p disk: 32/64 samples, h = 0.25, no refinement
    return _disk(64, 0.25)


def test_offer_at_the_residual_stall_finishes_the_disk(disk64_mesh):
    # the descent's residual stalls near 3e-5 within a few dozen steps, and
    # its value only after about 900 more; the offer ends the descent there
    res = solve_p(disk64_mesh, ProblemConfig(p=2.5, weighted=False), restarts=1)
    assert res.converged and res.descent_stop == "residual stall"
    assert res.eigenvalue == pytest.approx(1.086678460540222, rel=1e-12)
    assert 0 < res.newton_steps < res.iterations
    assert res.iterations - res.newton_steps <= 50


def test_descent_residual_is_the_weakform_residual(disk64_mesh, monkeypatch):
    # the stall rule reads the residual weakform_residual reports, from the
    # gradients the step already holds
    cfg = ProblemConfig(p=2.5, weighted=False)
    seen, offered = [], []
    relative_residual = eigensolver._relative_residual

    def recording(*args):
        seen.append(relative_residual(*args))
        return seen[-1]

    def finish(outcome, value):
        offered.append((outcome.u, seen[-1]))
        return outcome

    monkeypatch.setattr(eigensolver, "_relative_residual", recording)
    K, M, _ = fem.assemble_p2(disk64_mesh, weighted=False)
    out = _descent(disk64_mesh, cfg, solve_p2(disk64_mesh, weighted=False).u,
                   fem.boundary_pnorm, fem.boundary_pnorm_gradient, Factor(K + M),
                   finish=finish)
    monkeypatch.undo()
    assert len(offered) == 1 and out.stop == "residual stall" and out.finished is out
    u, residual = offered[0]
    expected = weakform_residual(disk64_mesh, cfg, u, rayleigh(disk64_mesh, cfg, u))
    assert residual == pytest.approx(expected, rel=1e-12)


def test_declined_offer_returns_the_bits_of_the_plain_descent(monkeypatch):
    # on the 48-gon at p = 2.5 Newton from the residual stall does not reach
    # the standard, so the offer is declined and the run must equal the
    # descent without finish, finished by the terminal phase at its stall
    mesh = _disk(48, 0.3)
    cfg = ProblemConfig(p=2.5, weighted=False)
    K, M, _ = fem.assemble_p2(mesh, weighted=False)
    out = _descent(mesh, cfg, solve_p2(mesh, weighted=False).u, fem.boundary_pnorm,
                   fem.boundary_pnorm_gradient, Factor(K + M))
    assert out.stalled
    u, _, steps, _ = _bordered_newton(mesh, cfg, out.u)
    old = eigensolver._finalize_run(mesh, cfg, u, out, steps)

    calls = []

    def counting(*args):
        calls.append(args)
        return _bordered_newton(*args)

    monkeypatch.setattr(eigensolver, "_bordered_newton", counting)
    new = solve_p(mesh, cfg, restarts=1)
    assert len(calls) == 2  # the declined offer and the terminal phase
    assert new.descent_stop == out.stop != "residual stall"
    assert new.eigenvalue == old.eigenvalue
    assert np.array_equal(new.u, old.u)
    assert new.iterations == old.iterations and new.newton_steps == steps
    assert new.converged


def _stalled_field(mesh, cfg):
    K, M, _ = fem.assemble_p2(mesh, weighted=False)
    out = _descent(mesh, cfg, solve_p2(mesh, weighted=cfg.weighted).u, fem.boundary_pnorm,
                   fem.boundary_pnorm_gradient, Factor(K + M))
    assert out.stalled
    return out.u


def test_solve_p_factors_the_preconditioner_once(cusp15_mesh, monkeypatch):
    # one factor of K + M serves every start (Newton's interior factors,
    # if any, are smaller)
    sizes = []

    class CountingFactor(Factor):
        def __init__(self, A):
            sizes.append(A.n)
            super().__init__(A)

    monkeypatch.setattr(eigensolver, "Factor", CountingFactor)
    solve_p(cusp15_mesh, ProblemConfig(p=2.5, weighted=True), restarts=3, iteration_cap=5)
    assert sizes.count(cusp15_mesh.num_vertices) == 1


def test_bordered_newton_factors_once_per_step(cusp15_mesh, monkeypatch):
    # each step factors the interior block once and solves no column of A_ig
    u0 = _stalled_field(cusp15_mesh, ProblemConfig(p=1.5, weighted=True))
    counts = {"spd": 0, "factors": 0}

    def counting_spd(*args, **kwargs):
        counts["spd"] += 1
        return solve_spd(*args, **kwargs)

    class CountingFactor(Factor):
        def __init__(self, A):
            counts["factors"] += 1
            super().__init__(A)

    monkeypatch.setattr(eigensolver, "solve_spd", counting_spd)
    monkeypatch.setattr(eigensolver, "Factor", CountingFactor)
    _, _, steps, res = _bordered_newton(cusp15_mesh, ProblemConfig(p=1.5, weighted=True), u0)
    assert res <= 0.1 * WEAKFORM_RTOL
    assert steps > 0
    assert counts == {"spd": 0, "factors": steps}


def test_solve_p_orders_each_pattern_once(cusp15_polygon, monkeypatch):
    # on a fresh mesh, the RCM ordering is computed once for K + M and once
    # for the interior block (solve_p2's elimination and every Newton step),
    # however many Newton steps the run takes
    mesh = triangulate(cusp15_polygon, 0.35)
    calls = []
    steps = []
    rcm, newton = linalg._rcm_order, eigensolver._bordered_newton

    def counting_rcm(pattern):
        calls.append(pattern.n)
        return rcm(pattern)

    def recording_newton(*args):
        out = newton(*args)
        steps.append(out[2])
        return out

    monkeypatch.setattr(linalg, "_rcm_order", counting_rcm)
    monkeypatch.setattr(eigensolver, "_bordered_newton", recording_newton)
    res = solve_p(mesh, ProblemConfig(p=1.5, weighted=True), restarts=1)
    assert res.converged
    assert len(steps) == 1 and steps[0] >= 2
    n_interior = mesh.num_vertices - len(mesh.boundary_vertex_ids())
    assert sorted(calls) == [n_interior, mesh.num_vertices]


def test_bordered_newton_gate_rejects_an_inexact_step(cusp15_mesh, monkeypatch):
    # interior solves 1e-6 off leave a bordered residual far above the
    # gate, so the first step raises and the phase returns its input
    cfg = ProblemConfig(p=1.5, weighted=True)
    u0 = _stalled_field(cusp15_mesh, cfg)

    class SloppyFactor(Factor):
        def solve(self, b):
            return super().solve(b) * (1.0 + 1e-6)

    monkeypatch.setattr(eigensolver, "Factor", SloppyFactor)
    u, value, steps, res = _bordered_newton(cusp15_mesh, cfg, u0)
    assert steps == 0
    assert np.array_equal(u, u0)
    assert res == weakform_residual(cusp15_mesh, cfg, u0, value)
    assert res > 0.1 * WEAKFORM_RTOL


_THREAD_RUN = """
from steklov_cusp import (DomainSpec, ProblemConfig, boundary_polygon, fp_constant, solve_p,
                          triangulate)
msh = triangulate(boundary_polygon(DomainSpec.cusp(1.5), n_lateral=16, n_arc=32), 0.35)
for p in (1.5, 3.0):
    print(repr(solve_p(msh, ProblemConfig(p=p), restarts=1).eigenvalue))
print(repr(fp_constant(msh, ProblemConfig(p=3.0))))
"""


def test_eigenvalues_agree_across_blas_threads():
    # the conftest cusp at p = 1.5 (descent plus Newton phase) and p = 3, and
    # its FP constant at p = 3 (the volume-norm descent alone), with 1 and 2
    # OpenBLAS threads: all three bit-identical when measured (numpy 2.4,
    # OpenBLAS 0.3.31), as are the bench's fp_descent constants, and the
    # bench's eigen_p meshes within 2e-16; the relative tolerance 1e-13
    # leaves room for other reduction orders, not for another stationary
    # point.  Iteration counts may differ and are not compared.
    src = str(Path(eigensolver.__file__).resolve().parents[1])
    lams = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", _THREAD_RUN], env=env, check=True,
                             capture_output=True, text=True).stdout
        lams.append([float(line) for line in out.split()])
    assert len(lams[0]) == len(lams[1]) == 3
    for one, two in zip(*lams):
        assert abs(one - two) <= 1e-13 * abs(one), (one, two)
