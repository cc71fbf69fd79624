"""Constrained Delaunay triangulation with Ruppert-style refinement.

Incremental Bowyer-Watson insertion into a super-triangle, exterior
removal, then refinement driven by a local size law and a minimum-angle
bound.  The predicates are geometry's exact orient2d and incircle, so
near-degenerate slivers inside the cusp channel are handled consistently,
and a point is the same vertex as another only if their coordinates are.

The constrained segments are the polygon's own directed edge records
(geometry.PolygonEdge, domain on the left), keyed by their sorted vertex
pair.  A split's two halves keep the record's tag and direction, and the new
vertex takes the mean of the end parameters.

Adjacency is one map of directed half-edges, half[(u, v)] = tid for each
edge of each CCW triangle, so the neighbour across (u, v) is half[(v, u)].
Triangle ids only grow, and the triangles on a segment are taken in
ascending id, so segment splits see them in a fixed order.

There is no edge recovery: each polygon edge must already be an edge of
the Delaunay triangulation of the polygon vertices, and one that is not
raises GeometryError.  The cusp and disk polygons of boundary_polygon meet
this (tests/test_mesh.py meshes those of the shipped configs), and so do
the convex validation and test polygons.

Nor is there recovery from a blocked walk: a circumcenter that encroaches
a constrained segment splits that segment instead of being inserted, and
point location that would still cross a constrained edge or the hull
raises GeometryError naming the edge.

Inside a neighborhood of the cusp tip no quality or encroachment splitting
is attempted: a 20 degree bound is unattainable inside a power cusp and
diametral-circle enforcement between the two lateral curves provably cascades
without bound.  The boundary polygon's own grading owns the tip resolution.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .geometry import (BoundaryPolygon, GeometryError, PolygonEdge, cusp_cap_intersection,
                       incircle, orient2d)

_MIN_ANGLE_DEG = 20.0
_MIN_COS = math.cos(math.radians(_MIN_ANGLE_DEG))
ELEMENT_BUDGET = 200_000  # vertices; inserting one past it raises GeometryError


def _circumcenter(a, b, c):
    d = 2.0 * ((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
    if d == 0.0:
        return None
    b2 = (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
    c2 = (c[0] - a[0]) ** 2 + (c[1] - a[1]) ** 2
    ux = a[0] + ((c[1] - a[1]) * b2 - (b[1] - a[1]) * c2) / d
    uy = a[1] + ((b[0] - a[0]) * c2 - (c[0] - a[0]) * b2) / d
    return ux, uy


def _key(u, v):
    return (u, v) if u < v else (v, u)


class _CDT:
    """tris: id -> CCW vertex triple; half: directed edge -> id of its
    triangle; constrained: segment (min, max) -> its PolygonEdge.  Vertices
    0-2 are the super-triangle's, which remove_exterior drops with the exterior."""

    def __init__(self, points):
        lo, hi = np.min(points, axis=0).tolist(), np.max(points, axis=0).tolist()
        cx, cy = (lo[0] + hi[0]) / 2.0, (lo[1] + hi[1]) / 2.0
        big = 16.0 * max(hi[0] - lo[0], hi[1] - lo[1], 1.0)
        self.pts: list[tuple[float, float]] = [
            (cx - big, cy - big), (cx + big, cy - big), (cx, cy + big)]
        self.tris: dict[int, tuple[int, int, int]] = {}
        self.half: dict[tuple[int, int], int] = {}
        self.constrained: dict[tuple[int, int], PolygonEdge] = {}
        self._next_tid = 0
        self._last_tid = None
        self._add_tri(0, 1, 2)

    # -- elementary structure updates ------------------------------------

    def _add_tri(self, a, b, c):
        if orient2d(*self.pts[a], *self.pts[b], *self.pts[c]) <= 0:
            raise GeometryError("degenerate triangle during triangulation")
        tid = self._next_tid
        self._next_tid += 1
        self.tris[tid] = (a, b, c)
        self.half[a, b] = self.half[b, c] = self.half[c, a] = tid
        self._last_tid = tid
        return tid

    def _remove_tri(self, tid):
        a, b, c = self.tris.pop(tid)
        del self.half[a, b], self.half[b, c], self.half[c, a]

    def _seg_tris(self, k):
        """The triangles on edge k (either direction), in ascending tid."""
        u, v = k
        return sorted(t for t in (self.half.get((u, v)), self.half.get((v, u))) if t is not None)

    # -- point location ---------------------------------------------------

    def _locate(self, p, hint=None):
        """Walk to the triangle containing p.

        A walk never crosses a constrained edge or the hull: either would
        leave the domain, so GeometryError names the edge instead."""
        tid = hint if hint in self.tris else self._last_tid
        if tid not in self.tris:
            tid = next(iter(self.tris))
        seen = 0
        limit = 4 * len(self.tris) + 64
        while True:
            a, b, c = self.tris[tid]
            pa, pb, pc = self.pts[a], self.pts[b], self.pts[c]
            moved = False
            for (u, v, pu, pv) in ((a, b, pa, pb), (b, c, pb, pc), (c, a, pc, pa)):
                if orient2d(*pu, *pv, *p) < 0:
                    k = _key(u, v)
                    if k in self.constrained:
                        raise GeometryError(f"point {p} lies beyond the constrained edge {k}")
                    nxt = self.half.get((v, u))
                    if nxt is None:
                        raise GeometryError(f"point {p} lies beyond the hull edge {k}")
                    tid = nxt
                    moved = True
                    break
            if not moved:
                self._last_tid = tid
                return tid
            seen += 1
            if seen > limit:
                raise GeometryError(f"walk to point {p} did not end after {limit} steps")

    # -- Bowyer-Watson insertion -------------------------------------------

    def insert_point(self, p, hint=None, split_key=None):
        """Insert p; returns its vertex id, or that of the vertex already
        at p.  split_key names a constrained segment being split at p (p
        must lie on it)."""
        p = (float(p[0]), float(p[1]))
        if split_key is not None:
            seeds = self._seg_tris(split_key)
        else:
            seeds = [self._locate(p, hint)]
        # a vertex at p is a corner of the closed triangle that holds p
        for tid in seeds:
            for v in self.tris[tid]:
                if self.pts[v] == p:
                    return v

        dead = set(seeds)
        queue = deque(seeds)
        while queue:
            tid = queue.popleft()
            a, b, c = self.tris[tid]
            for u, v in ((a, b), (b, c), (c, a)):
                k = _key(u, v)
                if k == split_key or k in self.constrained:
                    continue
                nb = self.half.get((v, u))
                if nb is None or nb in dead:
                    continue
                na, nbv, nc = self.tris[nb]
                if incircle(*self.pts[na], *self.pts[nbv], *self.pts[nc], *p) > 0:
                    dead.add(nb)
                    queue.append(nb)

        dead = sorted(dead)
        boundary = []
        for tid in dead:
            a, b, c = self.tris[tid]
            for u, v in ((a, b), (b, c), (c, a)):
                if _key(u, v) == split_key:
                    continue
                nb = self.half.get((v, u))
                if nb is None or nb not in dead:
                    boundary.append((u, v))
        pid = len(self.pts)
        if pid >= ELEMENT_BUDGET:
            raise GeometryError(f"refinement exceeded the element "
                                f"budget ({ELEMENT_BUDGET} vertices)")
        self.pts.append(p)
        for tid in dead:
            self._remove_tri(tid)
        for u, v in boundary:
            self._add_tri(u, v, pid)

        if split_key is not None:
            # both halves keep the segment's direction; pid is the newest
            # vertex, so it is the larger end of both keys
            e = self.constrained.pop(split_key)
            pm = 0.5 * (e.p0 + e.p1)
            self.constrained[e.i, pid] = PolygonEdge(e.i, pid, e.tag, e.p0, pm)
            self.constrained[e.j, pid] = PolygonEdge(pid, e.j, e.tag, pm, e.p1)
        return pid

    # -- exterior removal ---------------------------------------------------

    def remove_exterior(self):
        exterior = {tid for tid, tri in self.tris.items() if min(tri) < 3}
        queue = deque(exterior)
        while queue:
            tid = queue.popleft()
            a, b, c = self.tris[tid]
            for u, v in ((a, b), (b, c), (c, a)):
                if _key(u, v) in self.constrained:
                    continue
                nb = self.half.get((v, u))
                if nb is not None and nb not in exterior:
                    exterior.add(nb)
                    queue.append(nb)
        for tid in sorted(exterior):
            self._remove_tri(tid)
        if not self.tris:
            raise GeometryError("no interior triangles remain after exterior removal")
        for k in self.constrained:
            if len(self._seg_tris(k)) != 1:
                raise GeometryError("constrained edge lost during exterior removal")

    # -- refinement ----------------------------------------------------------

    def _diametral(self, k):
        """(mx, my, r2): the midpoint of segment k and its squared half-length."""
        (ux, uy), (vx, vy) = self.pts[k[0]], self.pts[k[1]]
        return 0.5 * (ux + vx), 0.5 * (uy + vy), 0.25 * ((ux - vx) ** 2 + (uy - vy) ** 2)

    def _seg_encroached(self, k):
        mx, my, r2 = self._diametral(k)
        for tid in self._seg_tris(k):
            w = next(x for x in self.tris[tid] if x not in k)
            pw = self.pts[w]
            if (pw[0] - mx) ** 2 + (pw[1] - my) ** 2 < r2 * (1.0 - 1e-12):
                return True
        return False

    def _split_segment(self, k):
        before = len(self.pts)
        pid = self.insert_point(self._diametral(k)[:2], split_key=k)
        if pid < before:
            raise GeometryError(f"segment ({k[0]},{k[1]}) too short to split")
        return pid

    def _segment_circles(self):
        """Sorted segment keys and arrays (mx, my, r2) of their _diametral."""
        keys = sorted(self.constrained)
        return keys, np.array([self._diametral(k) for k in keys]).T

    def _first_encroached(self, p, circles):
        """The first segment in sorted order whose diametral circle holds p
        strictly, or None.  Python's float ** need not round as numpy's does,
        so numpy shortlists with a margin and ** confirms in order."""
        keys, (mx, my, r2) = circles
        near = np.flatnonzero((p[0] - mx) ** 2 + (p[1] - my) ** 2 < r2 * (1.0 + 2.0 ** -40))
        for k in (keys[i] for i in near):
            cx, cy, cr2 = self._diametral(k)
            if (p[0] - cx) ** 2 + (p[1] - cy) ** 2 < cr2:
                return k
        return None

    def _judge(self, tid, size_fn, exempt_fn):
        """The verdict on triangle tid: "size", "quality" or None (good or exempt)."""
        a, b, c = self.tris[tid]
        pa, pb, pc = self.pts[a], self.pts[b], self.pts[c]
        if exempt_fn(pa) and exempt_fn(pb) and exempt_fn(pc):
            return None
        l2 = [(p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 for p, q in ((pa, pb), (pb, pc), (pc, pa))]
        lmax = math.sqrt(max(l2))
        cen = ((pa[0] + pb[0] + pc[0]) / 3.0, (pa[1] + pb[1] + pc[1]) / 3.0)
        if lmax > size_fn(cen):
            return "size"
        # min angle via max cosine; angle i sits between edges i->j, i->k
        sides = [math.sqrt(x) for x in l2]  # |ab|, |bc|, |ca|
        verts = (pa, pb, pc)
        for i in range(3):
            p0, p1, p2 = verts[i], verts[(i + 1) % 3], verts[(i + 2) % 3]
            n1, n2 = sides[i], sides[(i + 2) % 3]
            if n1 == 0.0 or n2 == 0.0:
                return "quality"
            dot = (p1[0] - p0[0]) * (p2[0] - p0[0]) + (p1[1] - p0[1]) * (p2[1] - p0[1])
            if dot / (n1 * n2) > _MIN_COS:
                return "quality"
        return None

    def refine(self, size_fn, exempt_fn):
        """Ruppert loop: split encroached segments, then fix undersized or
        skinny triangles by circumcenter insertion (or by splitting the
        segment that blocks the circumcenter); a bad triangle without a
        circumcenter, or blocked by an exempt segment, is skipped.

        A verdict depends only on the triangle's vertices, which never move,
        and ids are never reused, so each id is judged once.  The segment
        circles change only when a segment is split, so only a split drops
        their table."""
        verdicts = {}  # tid -> _judge(tid)
        circles = None  # _segment_circles(), or None after a split

        while True:
            changed = False
            # segments first: size and encroachment
            for k in sorted(self.constrained):
                mid = self._diametral(k)[:2]
                if exempt_fn(mid):
                    continue
                pu, pv = self.pts[k[0]], self.pts[k[1]]
                length = math.hypot(pu[0] - pv[0], pu[1] - pv[1])
                if length > size_fn(mid) or self._seg_encroached(k):
                    self._split_segment(k)
                    circles = None
                    changed = True
            # then triangles
            for tid in sorted(self.tris):
                if tid not in self.tris:
                    continue
                if tid not in verdicts:
                    verdicts[tid] = self._judge(tid, size_fn, exempt_fn)
                if verdicts[tid] is None:
                    continue
                a, b, c = self.tris[tid]
                cc = _circumcenter(self.pts[a], self.pts[b], self.pts[c])
                if cc is None:
                    continue
                # a circumcenter that encroaches a constrained segment splits
                # that segment instead (the first one in sorted order)
                if circles is None:
                    circles = self._segment_circles()
                target = self._first_encroached(cc, circles)
                if target is not None:
                    if exempt_fn(self._diametral(target)[:2]):
                        continue
                    self._split_segment(target)
                    circles = None
                else:
                    self.insert_point(cc, hint=tid)
                changed = True
            if not changed:
                break

    # -- extraction ----------------------------------------------------------

    def extract(self):
        used = sorted({v for tri in self.tris.values() for v in tri})
        remap = {old: new for new, old in enumerate(used)}
        pts = np.array([self.pts[v] for v in used], dtype=float)
        tris = np.array([[remap[v] for v in self.tris[t]] for t in sorted(self.tris)],
                        dtype=np.int64)
        segs = [(remap[e.i], remap[e.j], e.tag, e.p0, e.p1)
                for _, e in sorted(self.constrained.items())]
        return pts, tris, segs


def check_target_h(target_h: float):
    """Raise ValueError("target_h must be positive") unless target_h > 0."""
    if not target_h > 0.0:
        raise ValueError("target_h must be positive")


def triangulate_polygon(polygon: BoundaryPolygon, target_h: float,
                        tip_grading: float = 2.0):
    """CDT plus graded Ruppert refinement of a boundary polygon.

    Returns (points, triangles, segments), each segment (i, j, tag, p0, p1)
    directed as its polygon edge, so the domain lies on its left.  Every
    polygon edge must already be an edge of the Delaunay triangulation of the
    polygon vertices; a polygon edge that is not raises GeometryError.
    """
    check_target_h(target_h)
    if tip_grading < 1.0:
        raise ValueError("tip_grading must be at least 1")

    cdt = _CDT(polygon.points)
    ids = [cdt.insert_point(p) for p in polygon.points]
    for e in polygon.edges:
        a, b = ids[e.i], ids[e.j]
        if not cdt._seg_tris((a, b)):
            raise GeometryError(
                f"polygon edge ({e.i}, {e.j}) is not an edge of the Delaunay "
                "triangulation of the polygon vertices")
        cdt.constrained[_key(a, b)] = PolygonEdge(a, b, e.tag, e.p0, e.p1)
    cdt.remove_exterior()

    # one tip law: without a cusp, grade 1 sizes by target_h and r_ex 0 exempts nothing
    if polygon.spec is not None and polygon.spec.kind == "cusp":
        grade, r_ex = tip_grading, 0.5 * cusp_cap_intersection(polygon.spec)
    else:
        grade, r_ex = 1.0, 0.0

    def size_fn(p):
        return target_h * min(1.0, math.hypot(p[0], p[1])) ** (grade - 1.0)

    def exempt_fn(p):
        return math.hypot(p[0], p[1]) < r_ex

    cdt.refine(size_fn, exempt_fn)
    return cdt.extract()
