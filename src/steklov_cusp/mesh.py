"""Triangle meshes of the cuspidal domain: construction and refinement.

A Mesh is immutable after construction, and every Mesh is checked once,
when _build_mesh builds it.  Boundary edges are directed so the domain lies
on the left and carry the arc tag and exact-curve parameters of their
endpoints.  The weight is always evaluated on the exact curve through
the (tag, parameter) pair, never interpolated from polygon vertices.

A Mesh holds the one copy of each per-mesh array that the discretization
reads, built on first use: the element layout (elements(): areas and
hat-function gradients) and the 2-point Gauss rule on the boundary edges
(boundary_quadrature(): abscissae, length times Gauss weight, and weight).
Export lives in cli, whose Manifest writes every VTK and CSV file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .geometry import BoundaryPolygon, BoundaryTag, GeometryError
from .triangulation import triangulate_polygon

# 2-point Gauss-Legendre abscissae and weights on [0, 1], the rule of every
# boundary integral
_GAUSS_XI = np.array([0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)])
_GAUSS_W = np.array([0.5, 0.5])


@dataclass(eq=False)
class BoundaryEdges:
    """Per-edge boundary data, all arrays of length E (tags as a list)."""

    v0: np.ndarray
    v1: np.ndarray
    tag: list
    p0: np.ndarray
    p1: np.ndarray
    owner: np.ndarray
    length: np.ndarray
    normal: np.ndarray

    def __len__(self):
        return len(self.v0)


@dataclass(frozen=True, eq=False)
class Elements:
    """Per-mesh element layout: everything the element loops read that
    depends on the mesh alone, as contiguous arrays.

    areas (T,) holds the triangle areas, tri (3, T) the vertex columns of
    mesh.triangles, gx and gy (3, T) the x and y components of the constant
    hat-function gradient of local vertex k in row k, and gram (T, 3, 3)
    the products grad(phi_i) . grad(phi_j).
    """

    areas: np.ndarray
    tri: np.ndarray
    gx: np.ndarray
    gy: np.ndarray
    gram: np.ndarray


@dataclass(eq=False)
class Mesh:
    vertices: np.ndarray
    triangles: np.ndarray
    boundary: BoundaryEdges
    spec: geometry.DomainSpec | None
    h_max: float
    h_min: float
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def elements(self) -> Elements:
        """The mesh's Elements, built on first use and cached."""
        if "elements" not in self._cache:
            v = self.vertices[self.triangles]  # (T, 3, 2)
            det = _doubled_areas(v)
            grads = np.empty((len(det), 3, 2))
            # rotate opposite edge by 90 degrees, divide by twice the area
            for k in range(3):
                pj = v[:, (k + 1) % 3]
                pk = v[:, (k + 2) % 3]
                grads[:, k, 0] = (pj[:, 1] - pk[:, 1]) / det
                grads[:, k, 1] = (pk[:, 0] - pj[:, 0]) / det
            self._cache["elements"] = Elements(
                0.5 * det, np.ascontiguousarray(self.triangles.T),
                np.ascontiguousarray(grads[:, :, 0].T), np.ascontiguousarray(grads[:, :, 1].T),
                np.einsum("tid,tjd->tij", grads, grads))
        return self._cache["elements"]

    def boundary_quadrature(self):
        """Gauss data on boundary edges: (xi (2,), jac (E, 2), w (E, 2)), cached.

        jac is length * Gauss weight and w the exact-curve boundary weight
        at every Gauss point; the integral of f over the boundary is
        sum(jac * w * f) with f sampled at the points (1 - xi) * v0 + xi * v1.
        """
        if "bq" not in self._cache:
            b = self.boundary
            params = b.p0[:, None] * (1.0 - _GAUSS_XI) + b.p1[:, None] * _GAUSS_XI
            w = np.ones_like(params)
            for tag in set(b.tag):
                idx = [i for i, t in enumerate(b.tag) if t is tag]
                w[idx, :] = geometry.weight_on_arc(self.spec, tag, params[idx, :])
            self._cache["bq"] = (_GAUSS_XI, b.length[:, None] * _GAUSS_W, w)
        return self._cache["bq"]

    def boundary_vertex_ids(self) -> np.ndarray:
        if "bverts" not in self._cache:
            self._cache["bverts"] = np.unique(
                np.concatenate([self.boundary.v0, self.boundary.v1]))
        return self._cache["bverts"]


def _doubled_areas(corners):
    """Twice the signed area of each triangle from its (T, 3, 2) corners."""
    d1 = corners[:, 1] - corners[:, 0]
    d2 = corners[:, 2] - corners[:, 0]
    return d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]


def _pair_keys(u, v, n):
    """One int64 key per undirected vertex pair of an n-vertex mesh; np.divmod
    by n + 1 gives the pair back with the smaller index first."""
    return np.minimum(u, v) * np.int64(n + 1) + np.maximum(u, v)


def _edge_keys(triangles, n):
    """Keys of the 3T triangle edges: edge (0, 1) of every triangle, then
    (1, 2), then (2, 0), so entry i is an edge of triangle i % T."""
    return _pair_keys(triangles.T.ravel(), triangles[:, [1, 2, 0]].T.ravel(), n)


def _build_mesh(vertices, triangles, segs, spec) -> Mesh:
    """Mesh from vertices, CCW triangles and directed boundary segments
    (v0, v1, tag, p0, p1); raises GeometryError unless every triangle has
    positive area, no edge is shared by more than 2 triangles, the segments
    are exactly the edges used by one triangle, the mesh is a topological
    disk (n - E + T = 1), and each segment has the domain on its left."""
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    n = len(vertices)

    v = vertices[triangles]
    det = _doubled_areas(v)
    if np.any(det <= 0.0):
        bad = int(np.argmin(det))
        raise GeometryError(f"triangle {bad} has non-positive area {0.5 * det[bad]:.3e}")

    v0 = np.array([s[0] for s in segs], dtype=np.int64)
    v1 = np.array([s[1] for s in segs], dtype=np.int64)
    tags = [s[2] for s in segs]
    p0 = np.array([s[3] for s in segs], dtype=float)
    p1 = np.array([s[4] for s in segs], dtype=float)

    keys, first, counts = np.unique(_edge_keys(triangles, n), return_index=True,
                                    return_counts=True)
    if np.any(counts > 2):
        u, w = np.divmod(keys[np.argmax(counts)], n + 1)
        raise GeometryError(f"non-conforming mesh: edge ({u}, {w}) shared by "
                            f"{counts.max()} triangles")
    bkey = _pair_keys(v0, v1, n)
    if not np.array_equal(np.sort(bkey), keys[counts == 1]):
        raise GeometryError("boundary segments are not the edges used by one triangle")
    if n - len(keys) + len(triangles) != 1:
        raise GeometryError(f"Euler relation violated: {n} vertices - {len(keys)} edges "
                            f"+ {len(triangles)} triangles != 1")
    owners = first[np.searchsorted(keys, bkey)] % len(triangles)

    d = vertices[v1] - vertices[v0]
    length = np.hypot(d[:, 0], d[:, 1])
    normal = np.stack([d[:, 1], -d[:, 0]], axis=1) / length[:, None]

    # outward check against the owning triangle
    cen = v[owners].mean(axis=1)
    mid = 0.5 * (vertices[v0] + vertices[v1])
    inward = np.einsum("ij,ij->i", normal, cen - mid)
    if np.any(inward >= 0.0):
        raise GeometryError("boundary normal points into the domain")

    eu, ev = np.divmod(keys, n + 1)
    elen = np.hypot(*(vertices[ev] - vertices[eu]).T)

    boundary = BoundaryEdges(v0=v0, v1=v1, tag=tags, p0=p0, p1=p1,
                             owner=owners, length=length, normal=normal)
    return Mesh(vertices=vertices, triangles=triangles, boundary=boundary, spec=spec,
                h_max=float(elen.max()), h_min=float(elen.min()))


def triangulate(polygon: BoundaryPolygon, target_h: float,
                tip_grading: float = 2.0) -> Mesh:
    """Constrained Delaunay mesh of the polygon interior with graded refinement.

    All polygon edges appear as mesh edges.  Away from the cusp tip the
    minimum angle is at least 20 degrees and edge lengths stay below target_h;
    near the tip the polygon grading takes over (see triangulation module).
    Raises GeometryError if a polygon edge is not an edge of the Delaunay
    triangulation of the polygon vertices ("polygon edge (i, j) is not an
    edge ...", i and j indexing polygon.points); there is no edge recovery.
    """
    return _build_mesh(*triangulate_polygon(polygon, target_h, tip_grading), polygon.spec)


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every triangle into four through edge midpoints.

    Midpoints of boundary edges are projected back onto the exact curve of
    their arc tag (lateral curve, cap circle or validation circle); interior
    midpoints stay at chord midpoints.  Old vertices keep their coordinates.
    """
    verts = mesh.vertices
    tris = mesh.triangles
    n = len(verts)

    uniq, inverse = np.unique(_edge_keys(tris, n), return_inverse=True)
    eu, ev = np.divmod(uniq, n + 1)
    mid_ids = n + np.arange(len(uniq))
    mid_pts = 0.5 * (verts[eu] + verts[ev])

    # project boundary midpoints onto their exact curve
    b = mesh.boundary
    bpos = np.searchsorted(uniq, _pair_keys(b.v0, b.v1, n))
    chord_mid = mid_pts[bpos].copy()
    new_segs = []
    for e in range(len(b)):
        pos = bpos[e]
        pm = 0.5 * (b.p0[e] + b.p1[e])
        tag = b.tag[e]
        if tag is not BoundaryTag.SEGMENT:
            mid_pts[pos] = geometry.curve_point(mesh.spec, tag, pm)
        m = int(mid_ids[pos])
        new_segs.append((int(b.v0[e]), m, tag, float(b.p0[e]), pm))
        new_segs.append((m, int(b.v1[e]), tag, pm, float(b.p1[e])))

    m01 = mid_ids[inverse[:len(tris)]]
    m12 = mid_ids[inverse[len(tris):2 * len(tris)]]
    m20 = mid_ids[inverse[2 * len(tris):]]
    a, bb, c = tris[:, 0], tris[:, 1], tris[:, 2]
    new_tris = np.concatenate([
        np.stack([a, m01, m20], axis=1),
        np.stack([m01, bb, m12], axis=1),
        np.stack([m20, m12, c], axis=1),
        np.stack([m01, m12, m20], axis=1),
    ])

    # deep inside the cusp channel the chord sagitta can exceed the local
    # channel width, so projecting a midpoint may invert a sliver child;
    # revert exactly those midpoints to the chord (their weight samples stay
    # exact through the stored curve parameters)
    new_verts = np.vstack([verts, mid_pts])
    for _ in range(20):
        bad = _doubled_areas(new_verts[new_tris]) <= 0.0
        if not bad.any():
            break
        bad_verts = np.unique(new_tris[bad])
        boundary_mids = mid_ids[bpos]
        bad_mids = np.intersect1d(bad_verts, boundary_mids)
        if len(bad_mids) == 0:
            raise GeometryError("refinement inverted a triangle away from the boundary")
        sorter = np.argsort(boundary_mids)
        sel = sorter[np.searchsorted(boundary_mids, bad_mids, sorter=sorter)]
        new_verts[bad_mids] = chord_mid[sel]
    else:
        raise GeometryError("refinement could not restore positive orientation")

    return _build_mesh(new_verts, new_tris, new_segs, mesh.spec)


def mesh_area(mesh: Mesh) -> float:
    return float(mesh.elements().areas.sum())
