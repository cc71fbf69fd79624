import gc
import weakref

import numpy as np
import pytest

from steklov_cusp import (DomainSpec, ProblemConfig, SolveError, SparseSym, assemble_p2,
                          boundary_polygon, generalized_eig_sym, solve_p2, solve_spd, triangulate)
from steklov_cusp import fem
from steklov_cusp.linalg import Complement, Factor, inverse_block

from helpers import charpoly_eigenvalues, sparse_sym


def _random_spd(rng, n, density=0.2):
    A = rng.standard_normal((n, n))
    A[rng.random((n, n)) > density] = 0.0
    return A.T @ A + n * np.eye(n)


def _random_sparse_spd(rng, n, density=0.2):
    dense = _random_spd(rng, n, density)
    rows, cols = np.nonzero(dense)
    return sparse_sym(n, rows, cols, dense[rows, cols]), dense


def test_sparse_roundtrip_and_matvec():
    rng = np.random.default_rng(3)
    A, dense = _random_sparse_spd(rng, 30)
    assert np.allclose(A.to_dense(), dense, atol=1e-13)
    x = rng.standard_normal(30)
    assert np.allclose(A.matvec(x), dense @ x, atol=1e-12)
    X = rng.standard_normal((30, 4))
    assert np.allclose(A.matvec(X), dense @ X, atol=1e-12)


def test_matvec_matches_slot_formula_exactly(cusp15_mesh):
    # each row is summed from +0 in CSR order, on the triangle pattern, an
    # interior block of it and the boundary-edge pattern of B
    K, M, B = assemble_p2(cusp15_mesh, weighted=True)
    A = K + M
    interior = A.pattern.split(cusp15_mesh.boundary_vertex_ids()).interior_block(A)
    rng = np.random.default_rng(13)
    for S in (A, interior, B):
        dense = S.to_dense()
        for x in (rng.standard_normal(S.n), rng.standard_normal((S.n, 7))):
            X = x[:, None] if x.ndim == 1 else x
            ref = np.zeros((S.n, X.shape[1]))
            for i, j, v in zip(*S.coo()):
                ref[i] = ref[i] + v * X[j]
            got = S.matvec(x)
            assert got.shape == x.shape
            assert np.array_equal(got, ref[:, 0] if x.ndim == 1 else ref)
            scale = np.abs(dense) @ np.abs(x)
            assert np.all(np.abs(got - dense @ x) <= 1e-13 * scale)
    # an operand of the wrong length is refused, never truncated
    for x in (np.ones(A.n - 1), np.ones((A.n + 1, 2))):
        with pytest.raises(ValueError, match="rows"):
            A.matvec(x)


def test_sparse_add_and_scale():
    # two sparsity structures, both assembled on their union's pattern
    rng = np.random.default_rng(4)
    da, db = _random_spd(rng, 20), _random_spd(rng, 20)
    rows, cols = np.nonzero((da != 0.0) | (db != 0.0))
    A, B = sparse_sym(20, rows, cols, da[rows, cols], db[rows, cols])
    S = A + B
    assert S.pattern is A.pattern
    assert np.allclose(S.to_dense(), da + db, atol=1e-12)


def test_sum_across_patterns_is_refused():
    # a sum never analyses a pattern: terms on two patterns, even of the
    # same structure or of different sizes, are refused
    rng = np.random.default_rng(5)
    A, _ = _random_sparse_spd(rng, 20)
    for other in (sparse_sym(A.n, *A.coo()), _random_sparse_spd(rng, 12)[0]):
        with pytest.raises(ValueError, match="different patterns"):
            A + other


def test_solve_spd_identity():
    n = 12
    eye = sparse_sym(n, np.arange(n), np.arange(n), np.ones(n))
    b = np.linspace(-3, 5, n)
    assert np.allclose(solve_spd(eye, b, tol=1e-14), b, atol=1e-14)


def test_solve_spd_random_spd_residual():
    rng = np.random.default_rng(7)
    A, dense = _random_sparse_spd(rng, 50)
    b = rng.standard_normal(50)
    x = solve_spd(A, b, tol=1e-12)
    assert np.linalg.norm(dense @ x - b) <= 1e-11 * np.linalg.norm(b)


def test_solve_spd_matches_dense_cholesky():
    rng = np.random.default_rng(11)
    A, dense = _random_sparse_spd(rng, 200)
    b = rng.standard_normal(200)
    x = solve_spd(A, b, tol=1e-12)
    L = np.linalg.cholesky(dense)
    x_ref = np.linalg.solve(L.T, np.linalg.solve(L, b))
    assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)


def test_solve_spd_singular_shifted_consistent():
    # graph Laplacian of a path: kernel = constants; shift by identity and
    # solve against a kernel-orthogonal right-hand side
    n = 25
    rows, cols, vals = [], [], []
    for i in range(n - 1):
        for (r, c, v) in ((i, i, 1.0), (i + 1, i + 1, 1.0), (i, i + 1, -1.0),
                          (i + 1, i, -1.0)):
            rows.append(r)
            cols.append(c)
            vals.append(v)
    # the shift's diagonal triplets join K's, so both share one pattern
    rows, cols = rows + list(range(n)), cols + list(range(n))
    rng = np.random.default_rng(13)
    b = rng.standard_normal(n)
    b -= b.mean()  # orthogonal to the kernel
    for shift in (1e-4, 1e-6):
        K, eye = sparse_sym(n, rows, cols, vals + [0.0] * n,
                            [0.0] * len(vals) + [shift] * n)
        x = solve_spd(K + eye, b, tol=1e-12)
        r = K.matvec(x) - b
        # residual is consistent up to the shift times the solution
        assert np.linalg.norm(r + shift * x) <= 1e-9 * np.linalg.norm(b)
        assert abs((K.matvec(x) - b) @ np.ones(n)) <= 1e-8 * np.linalg.norm(b)


def test_indefinite_matrix_error_names_pivot():
    rng = np.random.default_rng(17)
    A, dense = _random_sparse_spd(rng, 40)
    # one negative diagonal entry far beyond its row's off-diagonal mass
    shift = np.zeros(40)
    shift[9] = -2.0 * np.abs(dense[9]).sum()
    diagonal = A.pattern.rows == A.pattern.indices
    indefinite = A + SparseSym(A.pattern, np.where(diagonal, shift[A.pattern.rows], 0.0))
    b = rng.standard_normal(40)
    with pytest.raises(SolveError, match="pivot 9 "):
        solve_spd(indefinite, b, tol=1e-12)


def test_unmet_tolerance_error_carries_residual():
    rng = np.random.default_rng(17)
    A, _ = _random_sparse_spd(rng, 40)
    b = rng.standard_normal(40)
    with pytest.raises(SolveError, match="residual"):
        solve_spd(A, b, tol=1e-30)


def test_factor_vector_and_matrix_rhs_agree():
    rng = np.random.default_rng(19)
    A, _ = _random_sparse_spd(rng, 60)
    factor = Factor(A)
    B = rng.standard_normal((60, 5))
    X = factor.solve(B)
    # BLAS takes different kernels for one column and for five, so the
    # columns agree to rounding, not bit for bit
    for j in range(5):
        x = factor.solve(B[:, j])
        assert np.linalg.norm(x - X[:, j]) <= 1e-14 * np.linalg.norm(X[:, j])


def test_factor_cusp_bandwidth_and_accuracy(cusp15_mesh):
    K, M, _ = assemble_p2(cusp15_mesh, weighted=False)
    A = K + M
    factor = Factor(A)
    assert factor.bandwidth <= A.n // 5
    dense = A.to_dense()
    B = np.random.default_rng(37).standard_normal((A.n, 3))
    ref = np.linalg.solve(dense, B)
    assert np.linalg.norm(factor.solve(B) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_factor_lower_gives_the_schur_term(cusp15_mesh):
    # Z = L^-1 P A_ig of the interior block: Z^T Z is A_ig^T A_ii^-1 A_ig,
    # exactly symmetric, with no back sweep
    K, M, _ = assemble_p2(cusp15_mesh, weighted=False)
    A = K + M
    split = A.pattern.split(cusp15_mesh.boundary_vertex_ids())
    A_ii = split.interior_block(A)
    B = split.coupling(A)
    factor = Factor(A_ii)
    Z = factor.lower(B)
    assert Z.shape == B.shape
    G = Z.T @ Z
    ref = B.T @ np.linalg.solve(A_ii.to_dense(), B)
    assert np.linalg.norm(G - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.array_equal(G, G.T)
    z = factor.lower(B[:, 0])
    assert np.linalg.norm(z - Z[:, 0]) <= 1e-14 * np.linalg.norm(Z[:, 0])


def test_mesh_patterns_assemble_like_the_coo_constructor(cusp15_mesh, monkeypatch):
    # matrices summed on the mesh's cached patterns are, bit for bit, the
    # SparseSym a fresh Pattern of the same element triplets assembles
    seen = []
    assemble = fem._element_blocks

    def capture(mesh, cells, loc):
        A = assemble(mesh, cells, loc)
        seen.append((cells, loc, A))
        return A

    monkeypatch.setattr(fem, "_element_blocks", capture)
    cfg = ProblemConfig(p=1.5, weighted=True)
    u = np.random.default_rng(53).standard_normal(cusp15_mesh.num_vertices)
    assemble_p2(cusp15_mesh, weighted=True)
    fem.linearized_energy_matrix(cusp15_mesh, cfg, u)
    fem.linearized_boundary_mass(cusp15_mesh, cfg, u)
    assert [cells for cells, _, _ in seen] == ["triangles", "triangles", "edges",
                                              "triangles", "edges"]
    b = cusp15_mesh.boundary
    for cells, loc, A in seen:
        idx = cusp15_mesh.triangles if cells == "triangles" else np.stack([b.v0, b.v1], axis=1)
        k = idx.shape[1]
        ref = sparse_sym(A.n, np.repeat(idx, k, axis=1).ravel(), np.tile(idx, (1, k)).ravel(),
                         loc.ravel())
        for name, got, want in zip(("rows", "indices", "data"), A.coo(), ref.coo()):
            assert np.array_equal(got, want), (cells, name)
    # one pattern per kind of cell, shared by every matrix on it
    assert seen[0][2].pattern is seen[1][2].pattern is seen[3][2].pattern
    assert seen[2][2].pattern is seen[4][2].pattern


def test_factor_on_a_shared_pattern_matches_a_coo_copy(cusp15_mesh):
    K, M, _ = assemble_p2(cusp15_mesh, weighted=False)
    A = K + M
    assert A.pattern is K.pattern
    split = A.pattern.split(cusp15_mesh.boundary_vertex_ids())
    interior, gamma = split.interior, split.gamma
    A_ii = split.interior_block(A)
    assert A_ii.pattern is split.interior_pattern
    dense = A.to_dense()
    assert np.array_equal(A_ii.to_dense(), dense[np.ix_(interior, interior)])
    assert np.array_equal(split.coupling(A), dense[np.ix_(interior, gamma)])
    assert np.array_equal(split.boundary_block(A), dense[np.ix_(gamma, gamma)])
    B = np.random.default_rng(59).standard_normal((A.n, 3))
    for shared in (A, A_ii):
        copy = sparse_sym(shared.n, *shared.coo())
        assert copy.pattern is not shared.pattern
        f, g = Factor(shared), Factor(copy)
        rhs = B[:shared.n]
        assert np.array_equal(f.perm, g.perm)
        assert np.array_equal(f.solve(rhs), g.solve(rhs))
        assert np.array_equal(f.lower(rhs), g.lower(rhs))


def _blockwise_solve(factor, b):
    # (L^-1 P b, A^-1 b) by one block row at a time, indexing the factor's
    # blocks and a padded block array at every step
    linv, lsub = factor._linv, factor._lsub
    nb, bs = len(linv), linv[0].shape[0]
    y = np.zeros((nb * bs,) + b.shape[1:])
    y[:factor.n] = b[factor.perm]
    y = y.reshape((nb, bs) + b.shape[1:])
    for k in range(nb):
        y[k] = linv[k] @ (y[k] - lsub[k - 1] @ y[k - 1] if k else y[k])
    z = y.reshape((-1,) + b.shape[1:])[:factor.n].copy()
    for k in range(nb - 1, -1, -1):
        y[k] = linv[k].T @ (y[k] - lsub[k].T @ y[k + 1] if k + 1 < nb else y[k])
    x = np.empty_like(b)
    x[factor.perm] = y.reshape((-1,) + b.shape[1:])[:factor.n]
    return z, x


def test_factor_solves_match_a_blockwise_loop(cusp15_mesh):
    # solve and lower carry the previous block from step to step; the bits
    # are those of the loop over block indices
    K, M, _ = assemble_p2(cusp15_mesh, weighted=False)
    A = K + M
    A_ii = A.pattern.split(cusp15_mesh.boundary_vertex_ids()).interior_block(A)
    rng = np.random.default_rng(61)
    for matrix in (A, A_ii):
        factor = Factor(matrix)
        assert len(factor._linv) > 2
        for b in (rng.standard_normal(matrix.n), rng.standard_normal((matrix.n, 5))):
            z, x = _blockwise_solve(factor, b)
            lower, solved = factor.lower(b), factor.solve(b)
            assert lower.shape == z.shape and solved.shape == x.shape
            assert lower.tobytes() == z.tobytes()
            assert solved.tobytes() == x.tobytes()


def test_mesh_patterns_are_freed_with_the_mesh():
    # the analysed patterns live in the mesh's cache and nowhere else
    mesh = triangulate(boundary_polygon(DomainSpec.cusp(1.5), n_lateral=8, n_arc=16), 0.5)
    solve_p2(mesh, weighted=True)
    K, M, B = assemble_p2(mesh, weighted=True)
    Factor(K + M)
    interior = K.pattern.split(mesh.boundary_vertex_ids()).interior_pattern
    assert "_band" in vars(interior)
    refs = [weakref.ref(K.pattern), weakref.ref(B.pattern), weakref.ref(interior)]
    del mesh, K, M, B, interior
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


def test_eig_diagonal():
    vals, vecs = generalized_eig_sym(np.diag([1.0, 2.0, 3.0]), np.eye(3), 3)
    assert np.allclose(vals, [1.0, 2.0, 3.0], atol=1e-13)


def test_eig_b_scaling_inverts():
    vals, _ = generalized_eig_sym(np.eye(2), np.diag([1.0, 4.0]), 2)
    assert np.allclose(vals, [0.25, 1.0], atol=1e-13)


def test_eig_matches_charpoly_oracle():
    rng = np.random.default_rng(23)
    for n in (2, 3, 4):
        A = rng.standard_normal((n, n))
        A = 0.5 * (A + A.T)
        Braw = rng.standard_normal((n, n))
        B = Braw @ Braw.T + n * np.eye(n)
        vals, vecs = generalized_eig_sym(A, B, n)
        ref = charpoly_eigenvalues(A, B)
        assert np.allclose(np.sort(vals), ref, atol=1e-10)


def test_eig_residual_and_b_orthonormality():
    rng = np.random.default_rng(29)
    n = 40
    A = rng.standard_normal((n, n))
    A = 0.5 * (A + A.T)
    Braw = rng.standard_normal((n, n))
    B = Braw @ Braw.T + n * np.eye(n)
    vals, V = generalized_eig_sym(A, B, n)
    for j in range(n):
        lhs = A @ V[:, j] - vals[j] * (B @ V[:, j])
        bound = 1e-8 * (np.linalg.norm(A) + abs(vals[j]) * np.linalg.norm(B))
        assert np.linalg.norm(lhs) <= bound * np.linalg.norm(V[:, j])
    gram = V.T @ B @ V
    assert np.allclose(gram, np.eye(n), atol=1e-10)
    assert np.all(np.diff(vals) >= -1e-12)


def test_eig_shift_invariance():
    rng = np.random.default_rng(31)
    n = 15
    A = rng.standard_normal((n, n))
    A = 0.5 * (A + A.T)
    Braw = rng.standard_normal((n, n))
    B = Braw @ Braw.T + n * np.eye(n)
    c = 0.7
    v1, _ = generalized_eig_sym(A, B, n)
    v2, _ = generalized_eig_sym(A + c * B, B, n)
    assert np.allclose(v2, v1 + c, atol=1e-10)


def test_eig_cholesky_failure_names_pivot():
    A = np.eye(3)
    B = np.diag([1.0, -2.0, 1.0])
    with pytest.raises(SolveError, match="pivot"):
        generalized_eig_sym(A, B, 1)



def _random_pencil(rng, n):
    A = rng.standard_normal((n, n))
    Braw = rng.standard_normal((n, n))
    return A + A.T, Braw @ Braw.T + n * np.eye(n)


def test_eig_first_k_pairs_match_the_full_solve():
    rng = np.random.default_rng(41)
    n = 24
    A, B = _random_pencil(rng, n)
    w_all, V_all = generalized_eig_sym(A, B)
    assert V_all.shape == (n, n)
    for k in range(n + 1):
        w, V = generalized_eig_sym(A, B, k)
        assert V.shape == (n, k)
        assert w.tobytes() == w_all.tobytes()
        assert np.max(np.abs(V - V_all[:, :k]), initial=0.0) <= 1e-12 * np.max(np.abs(V_all))
        assert np.allclose(V.T @ B @ V, np.eye(k), atol=1e-12)


def test_eigvals_match_the_full_solve_bit_for_bit():
    rng = np.random.default_rng(37)
    n = 50
    A, B = _random_pencil(rng, n)
    vals, V = generalized_eig_sym(A.copy(), B.copy(), 0)
    assert V.shape == (n, 0)
    assert vals.tobytes() == generalized_eig_sym(A, B)[0].tobytes()
    with pytest.raises(ValueError, match="not square"):
        generalized_eig_sym(A, B[:, :1], 0)
    with pytest.raises(ValueError, match="not square"):
        generalized_eig_sym(A[:, :1], B, 0)
    with pytest.raises(ValueError, match="of equal size"):
        generalized_eig_sym(A[:-1, :-1], B)


def test_eig_working_set_is_bounded():
    # beside the two inputs, at most three n x n numpy arrays are alive at
    # once (Linv, C and eigh's eigenvectors); six n x n doubles leaves one
    # to spare.  tracemalloc sees numpy's arrays only: eigh's copy of C and
    # LAPACK's 2 n^2 workspace bring the process peak to 8 n^2, the inputs
    # included (6.0 n^2 measured beside them at n = 1976).
    import tracemalloc

    n = 400
    rng = np.random.default_rng(43)
    tracemalloc.start()
    try:
        A, B = _random_pencil(rng, n)
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        generalized_eig_sym(A, B, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert base >= 2 * 8 * n * n
    assert peak <= 6 * 8 * n * n


def test_eig_values_only_frees_temporary_inputs():
    # at k = 0 the inputs, passed as temporaries, are freed after their last
    # use and Linv before eigh, so numpy's peak over the call is three n x n
    # arrays, the two inputs counted (B's symmetric part, its factor and A;
    # later C and eigh's eigenvectors).  Inputs kept alive through the call
    # would put two more on top (5.05 n^2 measured at n = 400).  eigh's own
    # copy and LAPACK's workspace, invisible here, complete its 5 n^2 floor.
    import tracemalloc

    n = 400
    A, B = _random_pencil(np.random.default_rng(47), n)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        vals, V = generalized_eig_sym(A.copy(), B.copy(), 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base <= 3.5 * 8 * n * n, (peak - base) / (8 * n * n)
    assert V.shape == (n, 0) and vals.shape == (n,)


def test_inverse_block_matches_dense_inverse():
    rng = np.random.default_rng(47)
    n = 300  # more than one substitution block
    _, dense = _random_sparse_spd(rng, n, density=0.05)
    # graded diagonal, as the boundary masses are
    D = np.geomspace(1e-4, 1e2, n)
    dense = D[:, None] * dense * D[None, :]
    rows, cols = np.nonzero(dense)
    P = sparse_sym(n, rows, cols, dense[rows, cols])
    idx = np.sort(rng.choice(n, 40, replace=False))
    G = inverse_block(P, idx)
    ref = np.linalg.inv(dense)[np.ix_(idx, idx)]
    assert np.allclose(G, G.T, rtol=0.0, atol=1e-12 * np.abs(ref).max())
    assert np.max(np.abs(G - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_inverse_block_names_a_failed_pivot():
    P = sparse_sym(3, [0, 1, 2], [0, 1, 2], [1.0, -2.0, 1.0])
    with pytest.raises(SolveError, match="pivot 1"):
        inverse_block(P, np.array([0, 2]))


@pytest.mark.parametrize("lead", [0.7, -0.7, 0.0])
def test_complement_restrict_and_lift(lead):
    # the lifted unit vectors are an orthonormal basis of d-perp, and
    # restrict is A in that basis; lead covers both reflector signs and the
    # zero first entry
    rng = np.random.default_rng(17)
    n = 9
    d = rng.standard_normal(n)
    d[0] = lead
    comp = Complement(d)
    Q = np.column_stack([comp.lift(e) for e in np.eye(n - 1)])
    assert np.allclose(Q.T @ Q, np.eye(n - 1), atol=1e-14)
    assert np.all(np.abs(d @ Q) <= 1e-14 * np.linalg.norm(d))
    y = rng.standard_normal(n - 1)
    assert abs(d @ comp.lift(y)) <= 1e-14 * np.linalg.norm(d) * np.linalg.norm(y)
    A = rng.standard_normal((n, n))
    A = A + A.T
    assert np.allclose(comp.restrict(A), Q.T @ A @ Q, atol=1e-13)


def test_complement_restrict_keeps_the_bits_of_the_two_temporary_reflection(cusp15_mesh):
    # restrict reflects with one n x n temporary, (-beta o) + X; the
    # formula it replaced, X - beta o, rounds the same in IEEE arithmetic
    def old_restrict(comp, A):
        def reflect(X):
            return X - comp._beta * np.outer(comp._v, comp._v @ X)
        return reflect(reflect(A).T)[1:, 1:]

    rng = np.random.default_rng(19)
    A = rng.standard_normal((60, 60))
    K, M, B = assemble_p2(cusp15_mesh, weighted=True)
    for d, X in ((rng.standard_normal(60), A),
                 (B.matvec(np.ones(cusp15_mesh.num_vertices)), K.to_dense())):
        comp = Complement(d)
        assert comp.restrict(X).tobytes() == old_restrict(comp, X).tobytes()
