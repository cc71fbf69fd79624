"""Independent oracles used by the tests: adaptive quadrature, bisection,
characteristic-polynomial eigenvalues, exact areas of the cusp domain,
rational geometric predicates; and sparse_sym, which builds the package's
sparse matrices from triplets.

The oracles are deliberately disjoint from the package's own numerics.
"""

import math
from fractions import Fraction
from itertools import permutations

import numpy as np

from steklov_cusp.linalg import Pattern, SparseSym


def sparse_sym(n, rows, cols, *vals):
    """The n x n SparseSym summed from the triplets (rows, cols, v) for each
    values array v, all on one Pattern(n, rows, cols): one matrix for one
    array, else a list of matrices that can be summed."""
    pattern = Pattern(n, rows, cols)
    mats = [SparseSym(pattern, pattern.assemble(v)) for v in vals]
    return mats[0] if len(mats) == 1 else mats


def adaptive_simpson(f, a, b, tol=1e-12, depth=60):
    """Classic recursive Simpson with interval halving."""

    def simpson(x0, x2):
        x1 = 0.5 * (x0 + x2)
        return (x2 - x0) / 6.0 * (f(x0) + 4.0 * f(x1) + f(x2)), x1

    def recurse(x0, x2, whole, d):
        x1 = 0.5 * (x0 + x2)
        left, _ = simpson(x0, x1)
        right, _ = simpson(x1, x2)
        if d <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(x0, x1, left, d - 1) + recurse(x1, x2, right, d - 1)

    whole, _ = simpson(a, b)
    return recurse(a, b, whole, depth)


def bisect_root(f, lo, hi, iters=200):
    flo = f(lo)
    assert flo * f(hi) <= 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) > 0.0:
            lo = mid
            flo = f(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def junction_height(alpha):
    """Smallest root of t^(2a) + (2-t)^2 - 2 located without the package."""

    def gap(t):
        return t ** (2 * alpha) + (2.0 - t) ** 2 - 2.0

    # the gap is convex: bracket the first crossing against the minimizer
    ts = np.linspace(1e-9, 1.0, 20001)
    vals = gap(ts)
    idx = int(np.argmax(vals < 0.0))
    assert idx > 0
    return bisect_root(gap, ts[idx - 1], ts[idx])


def exact_cusp_area(alpha, tol=1e-12):
    """Channel below the junction plus the ball minus its part below the chord."""
    t_star = junction_height(alpha)

    def channel(t):
        return 2.0 * t ** alpha

    def ball_slice(y):
        s2 = 2.0 - (2.0 - y) ** 2
        return 2.0 * math.sqrt(max(s2, 0.0))

    area = adaptive_simpson(channel, 0.0, t_star, tol)
    area += 2.0 * math.pi - adaptive_simpson(ball_slice, 2.0 - math.sqrt(2.0), t_star, tol)
    return area


def exact_weighted_boundary_length(alpha, tol=1e-12):
    """Integral of w over the resolved boundary: two lateral curves with
    w = t^alpha plus the cap arc with w = 1."""
    t_star = junction_height(alpha)

    def lateral(t):
        return t ** alpha * math.sqrt(1.0 + (alpha * t ** (alpha - 1.0)) ** 2)

    x_star = t_star ** alpha
    cap_sweep = 2.0 * math.pi - 2.0 * math.asin(x_star / math.sqrt(2.0))
    return 2.0 * adaptive_simpson(lateral, 0.0, t_star, tol) + math.sqrt(2.0) * cap_sweep


def charpoly_eigenvalues(A, B):
    """Real generalized eigenvalues of det(A - x B) = 0 for n <= 4, found by
    expanding the determinant over permutations and calling np.roots."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = len(A)
    assert n <= 4
    poly = np.zeros(n + 1)
    for perm in permutations(range(n)):
        sign = _parity(perm)
        term = np.array([1.0])
        for i, j in enumerate(perm):
            term = np.polymul(term, np.array([-B[i, j], A[i, j]]))
        full = np.zeros(n + 1)
        full[n + 1 - len(term):] = term
        poly += sign * full
    roots = np.roots(poly)
    real = np.sort(roots[np.abs(roots.imag) < 1e-9].real)
    return real


def _parity(perm):
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


def shoelace(points):
    x, y = points[:, 0], points[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def tri_min_angle(pa, pb, pc):
    angles = []
    for p0, p1, p2 in ((pa, pb, pc), (pb, pc, pa), (pc, pa, pb)):
        v1 = np.asarray(p1) - np.asarray(p0)
        v2 = np.asarray(p2) - np.asarray(p0)
        cosang = float(v1 @ v2) / (np.linalg.norm(v1) * np.linalg.norm(v2))
        angles.append(math.degrees(math.acos(max(-1.0, min(1.0, cosang)))))
    return min(angles)


def orient2d_sign(ax, ay, bx, by, cx, cy):
    """Exact sign (-1, 0, 1) of the orientation of (a, b, c), in rationals."""
    ax, ay, bx, by, cx, cy = map(Fraction, (ax, ay, bx, by, cx, cy))
    exact = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    return (exact > 0) - (exact < 0)


def incircle_sign(ax, ay, bx, by, cx, cy, dx, dy):
    """Exact sign (-1, 0, 1) of the incircle determinant of d against
    (a, b, c), in rationals."""
    fa = (Fraction(ax) - Fraction(dx), Fraction(ay) - Fraction(dy))
    fb = (Fraction(bx) - Fraction(dx), Fraction(by) - Fraction(dy))
    fc = (Fraction(cx) - Fraction(dx), Fraction(cy) - Fraction(dy))
    f2 = [v[0] * v[0] + v[1] * v[1] for v in (fa, fb, fc)]
    exact = (f2[0] * (fb[0] * fc[1] - fb[1] * fc[0])
             - f2[1] * (fa[0] * fc[1] - fa[1] * fc[0])
             + f2[2] * (fa[0] * fb[1] - fa[1] * fb[0]))
    return (exact > 0) - (exact < 0)
