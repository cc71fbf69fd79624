"""Outward cuspidal domain in 2-D: boundary curves, cusp/cap junction, weight.

The domain is the union of a power cusp channel {|x| < y**alpha, 0 < y <= 1}
and the open disk of radius sqrt(2) centered at (0, 2).  For alpha > 1 the
lateral curves enter the disk before y = 1, so the actual boundary consists of
the two lateral curves up to the junction height t_star and the part of the
circle outside the channel (the "cap arc").  A validation disk centered at the
origin is supported as a second domain kind.  The exact orientation and
incircle predicates here serve both the polygon check and the triangulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

CAP_CENTER = (0.0, 2.0)
CAP_RADIUS = math.sqrt(2.0)


class GeometryError(Exception):
    """Boundary construction failed (non-simple polygon, bracketing, ...)."""


class BoundaryTag(Enum):
    CUSP_LATERAL_RIGHT = "cusp_lateral_right"
    CUSP_LATERAL_LEFT = "cusp_lateral_left"
    CAP_ARC = "cap_arc"
    DISK_CIRCLE = "disk_circle"
    SEGMENT = "segment"


@dataclass(frozen=True)
class DomainSpec:
    """Parameters of the cusp+cap geometry (or of the validation disk).

    alpha is the cusp exponent in the half-width law y**alpha; the cap is
    fixed at center (0, 2), radius sqrt(2).  kind is "cusp" or "disk".
    """

    alpha: float = 2.0
    kind: str = "cusp"
    disk_radius: float = 1.0

    def __post_init__(self):
        if self.kind not in ("cusp", "disk"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "cusp" and not self.alpha > 1.0:
            raise ValueError(f"cusp exponent alpha must exceed 1, got {self.alpha}")
        if self.kind == "disk" and not self.disk_radius > 0.0:
            raise ValueError(f"disk radius must be positive, got {self.disk_radius}")

    @staticmethod
    def cusp(alpha: float) -> "DomainSpec":
        return DomainSpec(alpha=alpha, kind="cusp")

    @staticmethod
    def disk(radius: float = 1.0) -> "DomainSpec":
        return DomainSpec(kind="disk", disk_radius=radius)


def cusp_cap_intersection(spec: DomainSpec) -> float:
    """Smallest height t_star in (0, 1) where the lateral curve meets the cap circle.

    The gap g(t) = t**(2 alpha) + (2 - t)**2 - 2 is strictly convex with
    g(0) = 2 and g(1) = 0, so for alpha > 1 it has exactly one interior sign
    change.  Located by bisection and polished by Newton to 1e-12.
    """
    if spec.kind != "cusp":
        raise ValueError("cusp_cap_intersection requires a cusp domain")
    a = spec.alpha

    def gap(t):  # positive iff the lateral point (t**a, t) lies outside the cap disk
        return t ** (2.0 * a) + (2.0 - t) ** 2 - 2.0

    def dgap(t):
        return 2.0 * a * t ** (2.0 * a - 1.0) - 2.0 * (2.0 - t)

    # Interior minimizer of the convex gap: dgap is increasing, negative at 0+.
    lo, hi = 1e-300, 1.0
    if not dgap(hi) > 0.0:
        raise GeometryError("cusp/cap bracketing failed: gap not increasing at t=1")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if dgap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    t_min = 0.5 * (lo + hi)
    if not gap(t_min) < 0.0:
        raise GeometryError("cusp/cap bracketing failed: no interior crossing")

    # Unique root in (0, t_min): gap(0) = 2 > 0 > gap(t_min).
    lo, hi = 0.0, t_min
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    for _ in range(3):
        d = dgap(t)
        if d == 0.0:
            break
        step = gap(t) / d
        t_new = t - step
        if not lo - 1e-9 <= t_new <= hi + 1e-9:
            break
        t = t_new
    if abs(gap(t)) > 1e-11:
        raise GeometryError(f"cusp/cap root polish failed, residual {gap(t):.3e}")
    return t


def cap_angle_range(spec: DomainSpec) -> tuple[float, float]:
    """Angle interval of the cap arc, counterclockwise from the right junction."""
    t_star = cusp_cap_intersection(spec)
    x_star = t_star ** spec.alpha
    theta_r = math.atan2(t_star - CAP_CENTER[1], x_star)
    return theta_r, math.pi - theta_r


def curve_point(spec: DomainSpec | None, tag: BoundaryTag, param: float) -> tuple[float, float]:
    """Exact boundary point for an arc tag and its parameter.

    Lateral arcs are parameterized by height t, circular arcs by angle.
    SEGMENT has no exact curve and must not be projected through here.
    """
    if tag is BoundaryTag.CUSP_LATERAL_RIGHT:
        return param ** spec.alpha, param
    if tag is BoundaryTag.CUSP_LATERAL_LEFT:
        return -(param ** spec.alpha), param
    if tag is BoundaryTag.CAP_ARC:
        return (CAP_CENTER[0] + CAP_RADIUS * math.cos(param),
                CAP_CENTER[1] + CAP_RADIUS * math.sin(param))
    if tag is BoundaryTag.DISK_CIRCLE:
        r = spec.disk_radius
        return r * math.cos(param), r * math.sin(param)
    raise ValueError(f"tag {tag} has no exact curve")


def weight_on_arc(spec: DomainSpec | None, tag: BoundaryTag, param) -> float | np.ndarray:
    """Boundary weight evaluated on the exact curve via (tag, parameter).

    Lateral arcs carry w = t**alpha (< 1 there); the cap arc, the validation
    circle and untagged segments carry w = 1.  Accepts scalar or array params.
    """
    if tag in (BoundaryTag.CUSP_LATERAL_RIGHT, BoundaryTag.CUSP_LATERAL_LEFT):
        return np.asarray(param, dtype=float) ** spec.alpha
    return np.ones_like(np.asarray(param, dtype=float))


@dataclass(frozen=True)
class PolygonEdge:
    """Directed polygon edge i -> j with its arc tag and curve parameters."""

    i: int
    j: int
    tag: BoundaryTag
    p0: float
    p1: float


@dataclass(eq=False)
class BoundaryPolygon:
    """Counterclockwise simple polygon approximating the domain boundary."""

    points: np.ndarray
    edges: list[PolygonEdge]
    spec: DomainSpec | None = None


def polygon_area(points: np.ndarray) -> float:
    x, y = points[:, 0], points[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


# Shewchuk's ccwerrboundA and iccerrboundA (Discrete Comput. Geom. 18, 1997).
# They assume no product underflows or overflows, so a float determinant is
# trusted only while its permanent lies in [_TINY, inf).
_EPS = 2.0 ** -53
_CCW_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_ICC_BOUND = (10.0 + 96.0 * _EPS) * _EPS
_TINY = 2.0 ** -960


def _as_integers(*xs):
    """The doubles xs as integers over one shared power-of-two denominator."""
    ratios = [x.as_integer_ratio() for x in xs]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios]


def _sign(exact):
    return 1e-30 if exact > 0 else -1e-30 if exact < 0 else 0.0


def orient2d(ax, ay, bx, by, cx, cy):
    """Sign of twice the signed area of (a, b, c); exact fallback on doubt."""
    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    det = detleft - detright
    detsum = abs(detleft) + abs(detright)
    if _TINY <= detsum < math.inf and abs(det) >= _CCW_BOUND * detsum:
        return det
    ax, ay, bx, by, cx, cy = _as_integers(ax, ay, bx, by, cx, cy)
    return _sign((ax - cx) * (by - cy) - (ay - cy) * (bx - cx))


def incircle(ax, ay, bx, by, cx, cy, dx, dy):
    """Positive iff d lies strictly inside the circumcircle of CCW (a, b, c).
    Not certified when coordinate differences span hundreds of binary orders
    of magnitude: a product may then underflow while the permanent does not."""
    adx, ady = ax - dx, ay - dy
    bdx, bdy = bx - dx, by - dy
    cdx, cdy = cx - dx, cy - dy
    ad2 = adx * adx + ady * ady
    bd2 = bdx * bdx + bdy * bdy
    cd2 = cdx * cdx + cdy * cdy
    det = (ad2 * (bdx * cdy - bdy * cdx)
           - bd2 * (adx * cdy - ady * cdx)
           + cd2 * (adx * bdy - ady * bdx))
    perm = (ad2 * (abs(bdx * cdy) + abs(bdy * cdx))
            + bd2 * (abs(adx * cdy) + abs(ady * cdx))
            + cd2 * (abs(adx * bdy) + abs(ady * bdx)))
    if _TINY <= perm < math.inf and abs(det) >= _ICC_BOUND * perm:
        return det
    ax, ay, bx, by, cx, cy, dx, dy = _as_integers(ax, ay, bx, by, cx, cy, dx, dy)
    adx, ady, bdx, bdy, cdx, cdy = ax - dx, ay - dy, bx - dx, by - dy, cx - dx, cy - dy
    return _sign((adx * adx + ady * ady) * (bdx * cdy - bdy * cdx)
                 - (bdx * bdx + bdy * bdy) * (adx * cdy - ady * cdx)
                 + (cdx * cdx + cdy * cdy) * (adx * bdy - ady * bdx))


def _segments_intersect(p, q, r, s) -> bool:
    # Proper or improper intersection of segments pq and rs.
    d1, d2 = orient2d(*r, *s, *p), orient2d(*r, *s, *q)
    d3, d4 = orient2d(*p, *q, *r), orient2d(*p, *q, *s)
    if (d1 > 0 > d2 or d1 < 0 < d2) and (d3 > 0 > d4 or d3 < 0 < d4):
        return True
    # or an end of one lies on the other: collinear and inside its box
    return any(d == 0 and min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
               and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
               for d, a, b, c in ((d1, r, s, p), (d2, r, s, q), (d3, p, q, r), (d4, p, q, s)))


def _check_resolvable(points: np.ndarray) -> None:
    """Raise GeometryError naming two vertices within 1e-13 of the polygon's
    span, max(x range, y range, 1), of each other in both coordinates: sorted
    by x, vertices are compared at growing shifts until none is that close in x."""
    span = max(*np.ptp(points, axis=0), 1.0)
    tol = 1e-13 * span
    order = np.argsort(points[:, 0], kind="stable")
    x, y = points[order].T
    for k in range(1, len(points)):
        near = x[k:] - x[:-k] <= tol
        if not near.any():
            return
        hits = np.flatnonzero(near & (np.abs(y[k:] - y[:-k]) <= tol))
        if len(hits):
            i, j = sorted(order[[hits[0], hits[0] + k]])
            (xi, yi), (xj, yj) = points[i], points[j]
            raise GeometryError(
                f"polygon vertices {i} ({xi:.6g}, {yi:.6g}) and {j} ({xj:.6g}, {yj:.6g}) "
                f"are {math.hypot(xi - xj, yi - yj):.3g} apart, within 1e-13 of the "
                f"polygon's span {span:.6g}: sample the tip more coarsely "
                "(lower n_lateral or grading_q)")


def check_simple(points: np.ndarray) -> None:
    """Raise GeometryError naming the offending pair if two vertices are too
    close to resolve (_check_resolvable) or the polygon self-intersects.

    Bounding boxes are screened vectorized in chunks; only overlapping
    non-adjacent pairs get the exact segment test (orient2d).
    """
    _check_resolvable(points)
    m = len(points)
    seg = np.stack([points, np.roll(points, -1, axis=0)], axis=1)
    lo = seg.min(axis=1)
    hi = seg.max(axis=1)
    chunk = max(1, min(m, 4_000_000 // max(m, 1)))
    for start in range(0, m, chunk):
        stop = min(start + chunk, m)
        rows = np.arange(start, stop)
        overlap = ~((lo[rows, None, 0] > hi[None, :, 0])
                    | (lo[None, :, 0] > hi[rows, None, 0])
                    | (lo[rows, None, 1] > hi[None, :, 1])
                    | (lo[None, :, 1] > hi[rows, None, 1]))
        a_idx, b_idx = np.nonzero(overlap)
        a_idx = a_idx + start
        keep = b_idx > a_idx + 1
        keep &= ~((a_idx == 0) & (b_idx == m - 1))
        for a, b in zip(a_idx[keep], b_idx[keep]):
            if _segments_intersect(*seg[a].tolist(), *seg[b].tolist()):
                raise GeometryError(
                    f"polygon self-intersection between segments {a} and {b}")


def check_sampling(n_lateral: int, n_arc: int, grading_q: float):
    """Raise ValueError if boundary_polygon's sampling is out of range; the
    message starts with the name of the offending argument."""
    if n_lateral < 8:
        raise ValueError("n_lateral must be at least 8")
    if n_arc < 16:
        raise ValueError("n_arc must be at least 16")
    if grading_q < 1.0:
        raise ValueError("grading_q must be at least 1")


def boundary_polygon(spec: DomainSpec, n_lateral: int = 32, n_arc: int = 64,
                     grading_q: float = 2.0) -> BoundaryPolygon:
    """Sample the resolved boundary into a counterclockwise simple polygon.

    The right lateral curve is sampled at t_i = t_star * (i / n_lateral)**grading_q,
    which clusters vertices at the tip where the weight degenerates; the cap arc
    is sampled uniformly in angle; the left lateral curve is the mirror image.
    The tip (0, 0) is always a polygon vertex.  For the validation disk the
    result is the regular n_arc-gon inscribed in the circle.

    Each arc lists the curve parameters of its vertices and of its edges'
    ends; consecutive edge parameters give the edges.  The junction vertices
    belong to the lateral curves and the junction edges to the cap arc.
    """
    check_sampling(n_lateral, n_arc, grading_q)
    if spec.kind == "disk":
        ang = 2.0 * math.pi * np.arange(n_arc) / n_arc
        arcs = [(BoundaryTag.DISK_CIRCLE, ang, [*ang, 2.0 * math.pi])]
    else:
        theta_r, theta_l = cap_angle_range(spec)
        ts = cusp_cap_intersection(spec) * (np.arange(n_lateral + 1) / n_lateral) ** grading_q
        thetas = theta_r + (theta_l - theta_r) * np.arange(1, n_arc) / n_arc
        arcs = [(BoundaryTag.CUSP_LATERAL_RIGHT, ts, ts),
                (BoundaryTag.CAP_ARC, thetas, [theta_r, *thetas, theta_l]),
                (BoundaryTag.CUSP_LATERAL_LEFT, ts[:0:-1], ts[::-1])]

    pts, ends = [], []
    for tag, vertex_params, edge_params in arcs:
        pts += [curve_point(spec, tag, float(s)) for s in vertex_params]
        ends += [(tag, float(a), float(b)) for a, b in zip(edge_params[:-1], edge_params[1:])]
    return _validated(np.array(pts, dtype=float), ends, spec)


def polygon_from_points(points) -> BoundaryPolygon:
    """Wrap a raw counterclockwise point list (weight 1, straight segments)."""
    pts = np.asarray(points, dtype=float)
    return _validated(pts, [(BoundaryTag.SEGMENT, 0.0, 1.0)] * len(pts), None)


def _validated(points: np.ndarray, ends, spec) -> BoundaryPolygon:
    """The polygon whose edge k runs from vertex k to k + 1 (mod m) with
    ends[k] = (tag, p0, p1), once it is counterclockwise and check_simple passes."""
    if polygon_area(points) <= 0.0:
        raise GeometryError("polygon is not counterclockwise")
    check_simple(points)
    m = len(points)
    edges = [PolygonEdge(k, (k + 1) % m, *end) for k, end in enumerate(ends)]
    return BoundaryPolygon(points=points, edges=edges, spec=spec)
