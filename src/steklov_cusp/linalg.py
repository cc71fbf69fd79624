"""Sparse symmetric storage, a sparse direct solver, the complement of one
constraint direction and a dense generalized eigensolver, in numpy alone.

Every sparse matrix is CSR values on an analysed Pattern (SparseSym has no
other constructor, and a sum needs both terms on one pattern), and what
depends on the pattern alone is analysed once: the assembly's sort and
grouping, and, derived on first use, the RCM ordering and block layout a
Factor scatters into and the interior/boundary block split.
A mesh keeps the patterns of its matrices, so assembling, splitting and
factoring on it again is numeric work only.

Every sparse linear solve goes through one factorization: reverse
Cuthill-McKee ordering (one breadth-first queue) and a block-tridiagonal
Cholesky factor (Factor, which lists its blocks once so that a solve is
one loop of block products per sweep), used as the descent preconditioner,
for the Newton step's interior elimination (whose Schur complement Z^T Z
needs only the forward half, Factor.lower) and, refined and
residual-checked through solve_spd, for solve_p2's.  The spectral paths
restrict a pencil to the complement of their constraint direction
(Complement, a Householder reflector) and reduce it to a dense eigensolve
(equilibrated Cholesky factor of B, then a standard symmetric eigensolve,
generalized_eig_sym: every eigenvalue, and only the eigenvectors asked for
back-transformed, none for k = 0).

The trace spectrum's pencil B x = sigma P x has B supported on the boundary
vertices Gamma, so its non-zero spectrum is that of the |Gamma| x |Gamma|
pencil (G B_gg G, G) with G = (P^-1)_gg (inverse_block).  G comes from the
same equilibrated dense Cholesky of P as the full pencil did: the sparse
RCM factor and the boundary Schur complement are cheaper but move the
unweighted values by 6.5e-9 and 2.5e-8, outside the 1e-9 tolerance the
recorded spectra are checked to.
"""

from __future__ import annotations

import functools
import math

import numpy as np


class SolveError(Exception):
    """Factorization or solve failure; carries the failing pivot or residual."""


class Pattern:
    """Sparsity pattern of a symmetric matrix summed from COO entries,
    analysed once for every matrix assembled on it.

    The constructor sorts the entries by row, then column, and groups the
    duplicates: that gives the CSR structure (rows and indices, the row and
    column of each stored entry) and the sort order and group starts with
    which assemble sums any values listed like the entries into CSR values.
    What depends on the pattern alone is derived on first use and kept: the
    reverse Cuthill-McKee ordering and block layout every Factor of it
    scatters into, and the interior/boundary split (split).  A mesh keeps
    the patterns of its matrices in its cache, so each is analysed once per
    mesh and freed with the mesh (George & Liu 1981: analyse once, factor
    many times).
    """

    def __init__(self, n, rows, cols):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        self.n = int(n)
        self._order = np.lexsort((cols, rows))
        r, c = rows[self._order], cols[self._order]
        key = r * self.n + c
        self._starts = np.flatnonzero(np.concatenate([[len(key) > 0], key[1:] != key[:-1]]))
        self.rows, self.indices = r[self._starts], c[self._starts]
        self._split = None

    def assemble(self, vals) -> np.ndarray:
        """CSR values of the entries' values vals, duplicates summed."""
        vals = np.asarray(vals, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite entries in sparse assembly")
        if len(self._starts) == 0:
            return np.zeros(0)
        return np.add.reduceat(vals[self._order], self._starts)

    def block(self, rows_idx, cols_idx):
        """(at, i, j) of the block [rows_idx, cols_idx]: the positions of
        its entries in the CSR values and their local row and column."""
        lookup_r = -np.ones(self.n, dtype=np.int64)
        lookup_r[rows_idx] = np.arange(len(rows_idx))
        lookup_c = -np.ones(self.n, dtype=np.int64)
        lookup_c[cols_idx] = np.arange(len(cols_idx))
        i, j = lookup_r[self.rows], lookup_c[self.indices]
        at = np.flatnonzero((i >= 0) & (j >= 0))
        return at, i[at], j[at]

    def split(self, gamma) -> "BoundarySplit":
        """The BoundarySplit of this pattern at the boundary unknowns gamma,
        kept for the last gamma array passed: a mesh passes the same cached
        boundary vertex ids every time, so it is built once per pattern."""
        if self._split is None or self._split.gamma is not gamma:
            self._split = BoundarySplit(self, gamma)
        return self._split

    @functools.cached_property
    def _band(self):
        # Factor's layout: the RCM permutation, the bandwidth bw, block size
        # b = max(bw, 1) and block count nb; for the stored entries of the
        # diagonal blocks, then of the first subdiagonal blocks, their CSR
        # positions and their flat positions in the (nb, b, b) and
        # (nb - 1, b, b) block arrays; last the padding rows' diagonal.
        n = self.n
        perm = _rcm_order(self)
        inv = np.empty(n, dtype=np.int64)
        inv[perm] = np.arange(n)
        pi, pj = inv[self.rows], inv[self.indices]
        bandwidth = int(np.max(np.abs(pi - pj))) if len(pi) else 0
        b = max(bandwidth, 1)
        nb = max(-(-n // b), 1)
        bi, bj = pi // b, pj // b
        on = np.flatnonzero(bi == bj)
        below = np.flatnonzero(bi == bj + 1)
        pad = np.arange(n, nb * b)
        return (perm, bandwidth, b, nb,
                on, (bi[on] * b + pi[on] % b) * b + pj[on] % b,
                below, (bj[below] * b + pi[below] % b) * b + pj[below] % b,
                ((nb - 1) * b + pad % b) * b + pad % b)


class SparseSym:
    """Symmetric sparse matrix: CSR values data on an analysed Pattern, full
    pattern stored.

    This is the one way to make a sparse matrix: assemble values on a
    pattern (Pattern.assemble) and put them on it, so matrices assembled on
    the same mesh share its patterns and do no sorting of their own.  A sum
    needs both terms on one pattern.  A matrix-vector product sums each
    row's entries in CSR order, one column of a matrix operand at a time.
    Instances are immutable after construction.
    """

    def __init__(self, pattern: Pattern, data: np.ndarray):
        self.pattern, self.n, self.data = pattern, pattern.n, data

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        X = x[:, None] if x.ndim == 1 else x
        if X.shape[0] != self.n:
            raise ValueError(f"matvec: operand has {X.shape[0]} rows, matrix is {self.n} x {self.n}")
        rows, cols, _ = self.coo()
        out = np.empty(X.shape)
        # bincount adds each row's products in CSR order, from +0.  Columns
        # are looped here, not through self.matvec, so that a product is one
        # call whatever its number of columns.
        for j, col in enumerate(np.ascontiguousarray(X.T)):
            out[:, j] = np.bincount(rows, weights=self.data * col[cols], minlength=self.n)
        return out[:, 0] if x.ndim == 1 else out

    __matmul__ = matvec

    def coo(self):
        """(rows, cols, vals) of every stored entry, sorted by row, then column."""
        return self.pattern.rows, self.pattern.indices, self.data

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        rows, cols, vals = self.coo()
        a[rows, cols] = vals
        return a

    def __add__(self, other: "SparseSym") -> "SparseSym":
        if other.pattern is not self.pattern:
            raise ValueError("sum of matrices on different patterns: "
                             "assemble both on one Pattern")
        return SparseSym(self.pattern, self.data + other.data)


class BoundarySplit:
    """A pattern's interior/interior, interior/boundary and boundary/boundary
    blocks at the boundary unknowns gamma, as index arrays.

    interior lists the other unknowns, ascending; interior_pattern is the
    pattern of the interior block, whose entries keep the order they have
    in the full pattern, so the block's values are a gather of the full
    values (interior_block) and its Factor layout is analysed once.
    """

    def __init__(self, pattern: Pattern, gamma):
        self.gamma = gamma
        self.interior = np.setdiff1d(np.arange(pattern.n), gamma)
        self._ii, i, j = pattern.block(self.interior, self.interior)
        self.interior_pattern = Pattern(len(self.interior), i, j)
        self._ig, self._gg = pattern.block(self.interior, gamma), pattern.block(gamma, gamma)

    def interior_block(self, A: SparseSym) -> SparseSym:
        """A[interior, interior] on interior_pattern."""
        return SparseSym(self.interior_pattern, A.data[self._ii])

    def coupling(self, A: SparseSym) -> np.ndarray:
        """A[interior, gamma] as a dense array."""
        return self._dense(self._ig, (len(self.interior), len(self.gamma)), A)

    def boundary_block(self, A: SparseSym) -> np.ndarray:
        """A[gamma, gamma] as a dense array."""
        return self._dense(self._gg, (len(self.gamma), len(self.gamma)), A)

    @staticmethod
    def _dense(block, shape, A):
        at, i, j = block
        out = np.zeros(shape)
        out[i, j] = A.data[at]
        return out


def _rcm_order(pattern: Pattern) -> np.ndarray:
    """Reverse Cuthill-McKee ordering of the graph of a pattern (Cuthill &
    McKee 1969): a breadth-first queue over each node's neighbours, listed
    once and sorted by (degree, index).

    Each connected component starts from its first unplaced node of least
    degree and moves to a pseudo-peripheral node by the George-Liu search:
    restart from the first least-degree node of the last level while that
    lengthens the level structure.  No nodes order to the empty permutation.
    """
    off = pattern.rows != pattern.indices
    rows, cols = pattern.rows[off], pattern.indices[off]
    degree = np.bincount(rows, minlength=pattern.n)
    nbrs = cols[np.lexsort((cols, degree[cols], rows))].tolist()
    ptr, deg = np.concatenate([[0], np.cumsum(degree)]).tolist(), degree.tolist()
    mark = [0] * pattern.n  # the number of the last sweep to reach a node, 0 if none
    sweeps = 0

    def levels_from(start):
        nonlocal sweeps
        sweeps += 1
        mark[start], levels = sweeps, [[start]]
        while True:
            nxt = []
            for u in levels[-1]:
                for v in nbrs[ptr[u]:ptr[u + 1]]:
                    if mark[v] != sweeps:
                        mark[v] = sweeps
                        nxt.append(v)
            if not nxt:
                return levels
            levels.append(nxt)

    order = []
    for start in np.argsort(degree, kind="stable").tolist():
        if not mark[start]:
            levels = levels_from(start)
            while len(levels) > 1:
                trial = levels_from(min(levels[-1], key=deg.__getitem__))
                if len(trial) <= len(levels):
                    break
                levels = trial
            order.extend(v for level in levels for v in level)
    return np.array(order[::-1], dtype=np.int64)


class Factor:
    """Cholesky factor of an SPD SparseSym in reverse Cuthill-McKee order.

    After the RCM permutation every entry lies within the bandwidth bw of the
    diagonal, so the matrix is block tridiagonal in blocks of size bw
    (George & Liu 1981).  The factor keeps, per block row, the inverse of its
    diagonal Cholesky block and its subdiagonal block: O(n bw) storage and
    O(n bw^2) work to factor, O(n bw) per right-hand side to solve.  The
    ordering and the scatter of A's values into the blocks are analysed
    once per pattern (Pattern), so a factor does only the numeric block
    Cholesky.  The blocks are listed once per factor, with views of their
    transposes for the back sweep, so each sweep of solve and lower is one
    loop for a vector or a matrix right-hand side that carries the previous
    block from step to step.  Raises SolveError naming the pivot if A is
    not positive definite.
    """

    def __init__(self, A: SparseSym):
        perm, self.bandwidth, b, nb, on, on_at, below, below_at, pad_at = A.pattern._band
        self.n, self.perm = A.n, perm
        diag = np.zeros(nb * b * b)
        diag[on_at] = A.data[on]
        diag[pad_at] = 1.0
        diag = diag.reshape(nb, b, b)
        sub = np.zeros((nb - 1) * b * b)
        sub[below_at] = A.data[below]
        sub = sub.reshape(nb - 1, b, b)
        # diag becomes the inverse diagonal blocks, sub the factor's L_{k+1,k}
        for k in range(nb):
            block = diag[k] - sub[k - 1] @ sub[k - 1].T if k else diag[k]
            try:
                L = np.linalg.cholesky(block)
            except np.linalg.LinAlgError:
                where = _smallest_cholesky_pivot(block)
                j, pivot = where if where is not None else (0, float("nan"))
                raise SolveError(f"Cholesky failed at pivot {int(self.perm[k * b + j])} "
                                 f"(value {pivot:.6e}); matrix is not positive "
                                 "definite") from None
            diag[k] = np.linalg.inv(L)
            if k + 1 < nb:
                sub[k] = sub[k] @ diag[k].T
        # views of the blocks, listed once, so a sweep makes none per step;
        # .dot on them makes the BLAS calls @ would, with less overhead
        self._linv, self._lsub = list(diag), list(sub)
        self._linv_t, self._lsub_t = [a.T for a in diag], [a.T for a in sub]

    def _forward(self, b: np.ndarray) -> np.ndarray:
        # L^{-1} P b in the factor's (nb, bs, ...) blocks, each block from
        # the one before; the padding rows come out zero
        bs = self._linv[0].shape[0]
        y = np.zeros((len(self._linv) * bs,) + b.shape[1:])
        y[:self.n] = b[self.perm]
        y = y.reshape((-1, bs) + b.shape[1:])
        prev = y[0]
        prev[...] = self._linv[0].dot(prev)
        for yk, linv, lsub in zip(y[1:], self._linv[1:], self._lsub):
            yk[...] = linv.dot(yk - lsub.dot(prev))
            prev = yk
        return y

    def lower(self, b: np.ndarray) -> np.ndarray:
        """Z = L^{-1} P b, the forward half of solve, for a vector or matrix b.

        With P A P^T = L L^T, b^T A^{-1} b = Z^T Z: a Schur complement
        A_gg - A_ig^T A_ii^{-1} A_ig needs only this half, and comes out
        symmetric.
        """
        b = np.asarray(b, dtype=float)
        return self._forward(b).reshape((-1,) + b.shape[1:])[:self.n]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^{-1} b for a vector or for each column of a matrix."""
        b = np.asarray(b, dtype=float)
        y = self._forward(b)
        prev = y[-1]
        prev[...] = self._linv_t[-1].dot(prev)
        for yk, linv_t, lsub_t in zip(y[-2::-1], self._linv_t[-2::-1], self._lsub_t[::-1]):
            yk[...] = linv_t.dot(yk - lsub_t.dot(prev))
            prev = yk
        x = np.empty_like(b)
        x[self.perm] = y.reshape((-1,) + b.shape[1:])[:self.n]
        return x


def solve_spd(A: SparseSym, b: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Direct solve of A x = b for SPD A: factor, solve, one refinement step.

    b may be a vector or a matrix of right-hand sides.  The residual of the
    refined solution is checked with A.matvec; if any column's residual
    relative to its right-hand side exceeds tol, SolveError carries it.
    """
    b = np.asarray(b, dtype=float)
    factor = Factor(A)
    x = factor.solve(b)
    x += factor.solve(b - A.matvec(x))
    bnorm = np.linalg.norm(b, axis=0)
    rel = np.linalg.norm(b - A.matvec(x), axis=0) / np.where(bnorm > 0.0, bnorm, 1.0)
    worst = float(np.max(rel, initial=0.0))
    if not worst <= tol:
        raise SolveError(f"direct solve relative residual {worst:.3e} exceeds {tol:.1e}")
    return x


class Complement:
    """Orthonormal basis of the complement of one direction d.

    The basis is the trailing n - 1 columns of the Householder reflector
    H = I - beta v v^T that maps d to a multiple of e_0.  restrict(A) is the
    trailing block of H A H, the matrix A on d-perp in that basis; lift(y)
    maps reduced coordinates to the vector H [0, y] of d-perp.
    """

    def __init__(self, d):
        v = d / np.linalg.norm(d)
        v[0] += math.copysign(1.0, v[0] if v[0] != 0.0 else 1.0)
        self._v, self._beta = v, 2.0 / float(v @ v)

    def _reflect(self, X):
        if X.ndim == 1:
            return X - (self._beta * float(self._v @ X)) * self._v
        # one n x n temporary; (-b o) + X rounds as X - b o does
        out = np.outer(self._v, self._v @ X)
        out *= -self._beta
        out += X
        return out

    def restrict(self, A: np.ndarray) -> np.ndarray:
        return self._reflect(self._reflect(A).T)[1:, 1:]

    def lift(self, y: np.ndarray) -> np.ndarray:
        z = np.zeros(len(y) + 1)
        z[1:] = y
        return self._reflect(z)


def _smallest_cholesky_pivot(B: np.ndarray):
    # Unblocked factorization, used only to diagnose a failed Cholesky.
    n = len(B)
    L = np.zeros_like(B)
    for j in range(n):
        pivot = B[j, j] - L[j, :j] @ L[j, :j]
        if pivot <= 0.0:
            return j, float(pivot)
        L[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            L[j + 1:, j] = (B[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return None


def _equilibrated_cholesky(B: np.ndarray, name: str):
    """(scale, L) with scale = 1 / sqrt|diag B| (1 on a zero diagonal) and L
    the Cholesky factor of diag(scale) B diag(scale); B is scaled in place.

    Graded boundary masses have a huge dynamic range and Cholesky loses
    digits without the equilibration.  Raises SolveError naming the first
    non-positive pivot if B is not positive definite.
    """
    d = np.sqrt(np.abs(np.diag(B)))
    scale = np.where(d > 0.0, 1.0 / d, 1.0)
    B *= scale[:, None]
    B *= scale[None, :]
    try:
        return scale, np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        where = _smallest_cholesky_pivot(B)
        j, pivot = where if where is not None else (len(B) - 1, float("nan"))
        raise SolveError(f"Cholesky of {name} failed at pivot {j} (value {pivot:.6e}); "
                         f"{name} is not positive definite") from None


def _symmetric_part(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix of shape {A.shape} is not square")
    S = A + A.T
    S *= 0.5
    return S


def generalized_eig_sym(A: np.ndarray, B: np.ndarray, k: int | None = None):
    """Every eigenvalue of A x = lambda B x for symmetric A, SPD B, and the
    eigenvectors of the k smallest (all for None, an (n, 0) array for 0).

    Reduces with the equilibrated Cholesky factor of B to a standard
    symmetric problem C y = lambda y, C = sym(Linv diag(s) sym(A) diag(s)
    Linv^T), solves it densely, and back-transforms the first k
    eigenvectors only.  Eigenvalues come out ascending, and bit-identical
    for every k; eigenvectors B-orthonormal with a deterministic sign
    convention.  Each input and temporary is freed after its last use, B
    kept only for the eigenvectors' normalization, and at k = 0 Linv goes
    before eigh: with the inputs passed as temporaries, whose references
    the callee then holds alone, the peak is eigh's 5 n^2 doubles (C, its
    copy, its eigenvectors and 2 n^2 of LAPACK workspace).  For k > 0 eigh
    also runs beside Linv and B: 8 n^2 doubles with the inputs held (6.0
    n^2 beside them, measured).
    """
    Bs = _symmetric_part(B)
    if k == 0:
        del B
    scale, L = _equilibrated_cholesky(Bs, "B")
    del Bs
    As = _symmetric_part(A)
    del A
    if As.shape != L.shape:
        raise ValueError("A and B must be of equal size")
    As *= scale[:, None]
    As *= scale[None, :]
    Linv = np.linalg.inv(L)
    del L
    C = Linv @ As
    del As
    C = C @ Linv.T
    C = _symmetric_part(C)
    if k == 0:
        del Linv
        return np.linalg.eigh(C)[0], np.zeros((len(C), 0))
    w, Y = np.linalg.eigh(C)
    del C
    V = scale[:, None] * (Linv.T @ Y[:, :k])
    del Linv, Y
    # tighten B-orthonormality and fix signs for reproducible output; B's
    # symmetric part is formed again rather than held through the eigensolve
    norms = np.sqrt(np.einsum("ij,ij->j", V, _symmetric_part(B) @ V))
    V /= norms
    lead = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[lead, np.arange(V.shape[1])])
    signs[signs == 0.0] = 1.0
    V *= signs
    return w, V


def inverse_block(P: SparseSym, idx) -> np.ndarray:
    """The principal block (P^-1)[idx][:, idx] of the inverse of an SPD P.

    P is factored as in generalized_eig_sym: the equilibrated dense Cholesky
    diag(s) P diag(s) = L L^T.  With E the identity columns idx and
    Z = L^-1 diag(s) E, the block is Z^T Z.  Z comes from one blocked
    forward substitution, O(n^2 len(idx)) work beside the factorization.
    """
    Pd = _symmetric_part(P.to_dense())
    scale, L = _equilibrated_cholesky(Pd, "P")
    del Pd
    Z = np.zeros((P.n, len(idx)))
    Z[idx, np.arange(len(idx))] = scale[idx]
    step = 128
    for s in range(0, P.n, step):
        e = min(s + step, P.n)
        if s:
            Z[s:e] -= L[s:e, :s] @ Z[:s]
        Z[s:e] = np.linalg.solve(L[s:e, s:e], Z[s:e])
    return Z.T @ Z
