import numpy as np
import pytest

from steklov_cusp import (ProblemConfig, assemble_p2, boundary_pnorm, constraint_functional,
                          energy, energy_gradient, volume_pnorm)
from steklov_cusp import eigensolver, fem


def test_energy_constant_field(square_mesh):
    cfg = ProblemConfig(p=3.0, weighted=False)
    assert energy(square_mesh, cfg, np.ones(square_mesh.num_vertices)) == 0.0


def test_energy_linear_fields(square_mesh):
    X = square_mesh.vertices
    cfg3 = ProblemConfig(p=3.0, weighted=False)
    assert energy(square_mesh, cfg3, X[:, 0]) == pytest.approx(1.0, abs=1e-13)
    cfg2 = ProblemConfig(p=2.0, weighted=False)
    assert energy(square_mesh, cfg2, X[:, 0] + 2.0 * X[:, 1]) == pytest.approx(5.0, abs=1e-12)


def test_gradient_constant_zero(square_mesh):
    cfg = ProblemConfig(p=3.0, weighted=False)
    g = energy_gradient(square_mesh, cfg, np.ones(square_mesh.num_vertices))
    assert np.abs(g).max() == 0.0


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_gradient_matches_finite_differences(cusp2_coarse_mesh, p):
    msh = cusp2_coarse_mesh
    cfg = ProblemConfig(p=p, weighted=True)
    rng = np.random.default_rng(int(10 * p))
    u = rng.standard_normal(msh.num_vertices)
    ga = energy_gradient(msh, cfg, u, eps=1e-8)
    delta = 1e-6
    gf = np.zeros_like(ga)
    for i in range(msh.num_vertices):
        e = np.zeros(msh.num_vertices)
        e[i] = delta
        gf[i] = (energy(msh, cfg, u + e, eps=1e-8)
                 - energy(msh, cfg, u - e, eps=1e-8)) / (2 * delta)
    assert np.abs(ga - gf).max() / np.abs(ga).max() <= 1e-5


def test_gradient_p2_equals_stiffness_action(square_mesh):
    # independent stiffness assembly straight from the cotangent formula
    msh = square_mesh
    n = msh.num_vertices
    K_ref = np.zeros((n, n))
    for tri in msh.triangles:
        pts = msh.vertices[tri]
        d1, d2 = pts[1] - pts[0], pts[2] - pts[0]
        area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
        grads = []
        for k in range(3):
            pj, pk = pts[(k + 1) % 3], pts[(k + 2) % 3]
            grads.append(np.array([pj[1] - pk[1], pk[0] - pj[0]]) / (2.0 * area))
        for a in range(3):
            for b in range(3):
                K_ref[tri[a], tri[b]] += area * float(grads[a] @ grads[b])
    rng = np.random.default_rng(5)
    u = rng.standard_normal(n)
    cfg = ProblemConfig(p=2.0, weighted=False)
    assert np.allclose(energy_gradient(msh, cfg, u), 2.0 * K_ref @ u, atol=1e-12)


def test_boundary_pnorm_unit_disk_perimeter(disk_polygon, disk_mesh):
    cfg = ProblemConfig(p=2.0, weighted=False)
    per = np.sum(np.linalg.norm(np.diff(np.vstack(
        [disk_polygon.points, disk_polygon.points[:1]]), axis=0), axis=1))
    val = boundary_pnorm(disk_mesh, cfg, np.ones(disk_mesh.num_vertices))
    assert val == pytest.approx(per, abs=1e-12)


def test_boundary_pnorm_zero_field(disk_mesh):
    cfg = ProblemConfig(p=2.5, weighted=False)
    assert boundary_pnorm(disk_mesh, cfg, np.zeros(disk_mesh.num_vertices)) == 0.0


def test_boundary_pnorm_weighted_cusp_matches_length(cusp15_mesh):
    cfg = ProblemConfig(p=2.0, weighted=True)
    ones = np.ones(cusp15_mesh.num_vertices)
    assert boundary_pnorm(cusp15_mesh, cfg, ones) == pytest.approx(
        fem.boundary_weighted_measure(cusp15_mesh, ProblemConfig()), abs=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 2.7])
def test_constraint_odd_symmetry_on_disk(disk_mesh, p):
    cfg = ProblemConfig(p=p, weighted=False)
    val = constraint_functional(disk_mesh, cfg, disk_mesh.vertices[:, 0])
    assert abs(val) <= 1e-12


def test_constraint_positive_constant(cusp15_mesh):
    cfg = ProblemConfig(p=2.5, weighted=True)
    c = 1.7
    val = constraint_functional(cusp15_mesh, cfg, c * np.ones(cusp15_mesh.num_vertices))
    expect = c ** 1.5 * fem.boundary_weighted_measure(cusp15_mesh, ProblemConfig())
    assert val == pytest.approx(expect, rel=1e-12)


def test_constraint_shift_derivative(cusp15_mesh):
    # F(c) = constraint(u - c) has slope -(p-1) int |u-c|^(p-2) w ds
    msh = cusp15_mesh
    cfg = ProblemConfig(p=2.5, weighted=True)
    rng = np.random.default_rng(8)
    u = rng.standard_normal(msh.num_vertices)
    c0 = 0.3
    h = 1e-6
    fd = (constraint_functional(msh, cfg, u - (c0 + h))
          - constraint_functional(msh, cfg, u - (c0 - h))) / (2 * h)
    exact = -(cfg.p - 1.0) * float(
        fem.constraint_gradient_direction(msh, cfg, u - c0).sum())
    assert fd == pytest.approx(exact, rel=1e-5)
    assert exact < 0.0


@pytest.mark.parametrize("p", [1.5, 2.0, 2.7])
def test_homogeneity(square_mesh, p):
    cfg = ProblemConfig(p=p, weighted=False)
    rng = np.random.default_rng(int(100 * p))
    u = rng.standard_normal(square_mesh.num_vertices)
    for c in (2.0, -3.7, 1e3):
        assert energy(square_mesh, cfg, c * u) == pytest.approx(
            abs(c) ** p * energy(square_mesh, cfg, u), rel=1e-12)
        assert boundary_pnorm(square_mesh, cfg, c * u) == pytest.approx(
            abs(c) ** p * boundary_pnorm(square_mesh, cfg, u), rel=1e-12)
        assert constraint_functional(square_mesh, cfg, c * u) == pytest.approx(
            abs(c) ** (p - 2) * c * constraint_functional(square_mesh, cfg, u),
            rel=1e-11)


def test_gauss_abscissae_interpolate_one_exactly(cusp15_mesh):
    # the linear trace of the constant 1 is exactly 1.0 at both Gauss points
    xi, _, _ = cusp15_mesh.boundary_quadrature()
    assert len(xi) == 2
    assert np.all((1.0 - xi) + xi == 1.0)


@pytest.mark.parametrize("mesh_name", ["cusp15_mesh", "disk_mesh"])
def test_boundary_measure_is_the_pnorm_of_one(request, mesh_name):
    # the measure needs no p: it is boundary_pnorm of the constant 1, bit for bit
    msh = request.getfixturevalue(mesh_name)
    ones = np.ones(msh.num_vertices)
    for p in (1.5, 2.0, 2.5, 3.0):
        for weighted in (True, False):
            cfg = ProblemConfig(p=p, weighted=weighted)
            assert _same_bits(fem.boundary_weighted_measure(msh, cfg),
                              boundary_pnorm(msh, cfg, ones)), (p, weighted)


def test_p2_matrix_equivalence(cusp15_mesh):
    msh = cusp15_mesh
    K, M, B = assemble_p2(msh, weighted=True)
    rng = np.random.default_rng(12)
    u = rng.standard_normal(msh.num_vertices)
    cfg = ProblemConfig(p=2.0, weighted=True)
    assert u @ K.matvec(u) == pytest.approx(energy(msh, cfg, u), rel=1e-12)
    assert u @ B.matvec(u) == pytest.approx(boundary_pnorm(msh, cfg, u), rel=1e-12)
    assert u @ M.matvec(u) == pytest.approx(volume_pnorm(msh, cfg, u), rel=1e-12)


def test_p2_matrix_invariants(cusp15_mesh):
    from steklov_cusp import mesh_area
    msh = cusp15_mesh
    K, M, B = assemble_p2(msh, weighted=True)
    ones = np.ones(msh.num_vertices)
    assert np.abs(K.matvec(ones)).max() <= 1e-12
    assert ones @ M.matvec(ones) == pytest.approx(mesh_area(msh), abs=1e-12)
    assert ones @ B.matvec(ones) == pytest.approx(
        fem.boundary_weighted_measure(msh, ProblemConfig()), abs=1e-12)
    # row sums of B are the weighted hat-function boundary integrals
    cfg = ProblemConfig(p=2.0, weighted=True)
    hat = fem.boundary_pnorm_gradient(msh, cfg, ones) / 2.0
    assert np.allclose(B.matvec(ones), hat, atol=1e-13)


def test_volume_pnorm_constant(square_mesh):
    cfg = ProblemConfig(p=2.5, weighted=False)
    val = volume_pnorm(square_mesh, cfg, 2.0 * np.ones(square_mesh.num_vertices))
    assert val == pytest.approx(2.0 ** 2.5, rel=1e-12)


def test_volume_pnorm_gradient_fd(square_mesh):
    cfg = ProblemConfig(p=2.5, weighted=False)
    rng = np.random.default_rng(14)
    u = rng.standard_normal(square_mesh.num_vertices) + 2.0
    g = fem.volume_pnorm_gradient(square_mesh, cfg, u)
    delta = 1e-6
    for i in (0, 3, 7):
        e = np.zeros(square_mesh.num_vertices)
        e[i] = delta
        fd = (volume_pnorm(square_mesh, cfg, u + e)
              - volume_pnorm(square_mesh, cfg, u - e)) / (2 * delta)
        assert g[i] == pytest.approx(fd, rel=1e-6)


def test_linearized_energy_matrix_euler_identity(cusp15_mesh):
    # applying the linearized operator to u reproduces (p-1)/p times the
    # energy gradient at eps = 0
    msh = cusp15_mesh
    rng = np.random.default_rng(21)
    u = rng.standard_normal(msh.num_vertices)
    for p in (1.5, 2.0, 3.0):
        cfg = ProblemConfig(p=p, weighted=True)
        A = fem.linearized_energy_matrix(msh, cfg, u)
        lhs = A.matvec(u)
        rhs = (p - 1.0) / p * energy_gradient(msh, cfg, u)
        assert np.allclose(lhs, rhs, atol=1e-10 * np.abs(rhs).max())


def test_linearized_boundary_mass_reproduces_constraint(cusp15_mesh):
    msh = cusp15_mesh
    rng = np.random.default_rng(22)
    u = rng.standard_normal(msh.num_vertices)
    for p in (1.5, 2.5):
        cfg = ProblemConfig(p=p, weighted=True)
        Bw = fem.linearized_boundary_mass(msh, cfg, u)
        lhs = float(np.ones(msh.num_vertices) @ Bw.matvec(u))
        assert lhs == pytest.approx(constraint_functional(msh, cfg, u), rel=1e-10)


def test_problem_config_rejects_p_at_most_one():
    with pytest.raises(ValueError):
        ProblemConfig(p=1.0)


def _einsum_element_terms(mesh, cfg, u, eps):
    # energy, energy gradient and linearized-matrix data from einsums over
    # the (T, 3, 2) hat-function gradients, computed here from the vertices:
    # the gradient of local vertex k is its opposite edge (from vertex k + 1
    # to k + 2) rotated by 90 degrees, over twice the area
    v = mesh.vertices[mesh.triangles]  # (T, 3, 2)
    d1, d2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    areas = 0.5 * det
    pj, pk = v[:, [1, 2, 0]], v[:, [2, 0, 1]]
    grads = np.stack([pj[..., 1] - pk[..., 1], pk[..., 0] - pj[..., 0]], axis=2) \
        / det[:, None, None]
    g = np.einsum("tk,tkd->td", u[mesh.triangles], grads)
    s = np.einsum("td,td->t", g, g) + eps ** 2
    p = cfg.p
    nz = s > 0.0
    f0, f1, f2 = np.zeros_like(s), np.zeros_like(s), np.zeros_like(s)
    f0[nz] = s[nz] ** ((p - 2.0) / 2.0)
    f1[nz] = s[nz] ** ((p - 4.0) / 2.0) * (p - 2.0)
    f2[nz] = s[nz] ** ((p - 2.0) / 2.0)
    gdot = np.einsum("td,tkd->tk", g, grads)
    contrib = (p * areas * f0)[:, None] * gdot
    grad = np.bincount(mesh.triangles.ravel(), weights=contrib.ravel(),
                       minlength=mesh.num_vertices)
    loc = (f1 * areas)[:, None, None] * gdot[:, :, None] * gdot[:, None, :] \
        + (f2 * areas)[:, None, None] * np.einsum("tid,tjd->tij", grads, grads)
    return (float(np.sum(areas * s ** (p / 2.0))), grad,
            fem._element_blocks(mesh, "triangles", loc).data)


def _same_bits(a, b):
    # equal values and equal signs of zero
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("eps", [0.0, 1e-2])
def test_element_layout_matches_the_einsum_formulation(cusp15_mesh, p, eps):
    # the cached per-mesh layout sums over the local vertices in sequence:
    # every value carries the einsums' bits.  The second field is constant
    # where x > 0.2, so g2 == 0 there (the zero branch at eps = 0).
    msh = cusp15_mesh
    x = msh.vertices[:, 0]
    fields = [np.random.default_rng(71).standard_normal(msh.num_vertices),
              np.where(x > 0.2, 0.2, x)]
    assert np.any(fem._tri_gradients(msh, fields[1])[3] == 0.0)
    cfg = ProblemConfig(p=p, weighted=True)
    for u in fields:
        e_ref, g_ref, h_ref = _einsum_element_terms(msh, cfg, u, eps)
        assert _same_bits(energy(msh, cfg, u, eps), e_ref)
        assert _same_bits(energy_gradient(msh, cfg, u, eps), g_ref)
        assert _same_bits(fem.linearized_energy_matrix(msh, cfg, u, eps).data, h_ref)


def test_shift_constraint_matches_the_full_field_functionals(cusp15_mesh):
    # F and dF of the trace-only evaluation are the full-field functional at
    # u - c and -(p - 1) times the sum of its multiplier direction, bit for
    # bit, also where dF is asked for at a c that F has not just seen
    msh = cusp15_mesh
    u = np.random.default_rng(73).standard_normal(msh.num_vertices)
    u[msh.boundary.v0[:4]] = 0.25  # exact zeros of u - c at c = 0.25
    for p in (1.5, 2.0, 3.0):
        for weighted in (True, False):
            cfg = ProblemConfig(p=p, weighted=weighted)
            F, dF = fem.shift_constraint(msh, cfg, u)
            for c in (0.25, -0.7, 0.0, 0.25, 1.3):
                ref = constraint_functional(msh, cfg, u - c)
                slope = -(p - 1.0) * float(fem.constraint_gradient_direction(msh, cfg, u - c).sum())
                assert _same_bits(dF(c), slope), (p, weighted, c)
                assert _same_bits(F(c), ref), (p, weighted, c)
                assert _same_bits(dF(c), slope), (p, weighted, c)


FIELD_FUNCTIONALS = {f.__name__: f for f in (
    fem.energy, fem.energy_gradient, fem.boundary_pnorm, fem.boundary_pnorm_gradient,
    fem.constraint_functional, fem.constraint_gradient_direction, fem.volume_pnorm,
    fem.volume_pnorm_gradient, fem.linearized_energy_matrix, fem.linearized_boundary_mass,
    eigensolver.orthogonalize_shift, eigensolver.rayleigh)}
FIELD_FUNCTIONALS["weakform_residual"] = (
    lambda mesh, cfg, u: eigensolver.weakform_residual(mesh, cfg, u, 1.0))


@pytest.mark.parametrize("functional", FIELD_FUNCTIONALS.values(), ids=FIELD_FUNCTIONALS.keys())
def test_a_field_is_refused_for_its_length_or_a_non_finite_entry(square_mesh, functional):
    # every public functional of a nodal field checks it through fem.as_field
    cfg = ProblemConfig(p=3.0, weighted=False)
    n = square_mesh.num_vertices
    u = square_mesh.vertices[:, 0].copy()
    with pytest.raises(ValueError, match=rf"^field length \({n - 1},\) does not match mesh "
                                         rf"\({n} vertices\)$"):
        functional(square_mesh, cfg, u[:-1])
    for bad in (np.nan, np.inf):
        u[n // 2] = bad
        with pytest.raises(ValueError, match="^field contains non-finite entries$"):
            functional(square_mesh, cfg, u)
