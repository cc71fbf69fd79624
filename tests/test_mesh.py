import math
import re
from pathlib import Path

import numpy as np
import pytest

from steklov_cusp import (BoundaryTag, DomainSpec, GeometryError, ProblemConfig,
                          boundary_polygon, cusp_cap_intersection, mesh_area,
                          polygon_from_points, refine_uniform, solve_p2, triangulate)
from steklov_cusp import cli, triangulation
from steklov_cusp import mesh as meshmod
from steklov_cusp.fem import boundary_weighted_measure
from steklov_cusp.geometry import PolygonEdge, curve_point, incircle, orient2d
from steklov_cusp.triangulation import _CDT

from helpers import (exact_weighted_boundary_length, incircle_sign, orient2d_sign, shoelace,
                     tri_min_angle)


def test_square_area_exact(square_mesh):
    assert mesh_area(square_mesh) == pytest.approx(1.0, abs=1e-12)


def test_disk_mesh_angles_and_area(disk_polygon, disk_mesh):
    assert mesh_area(disk_mesh) == pytest.approx(shoelace(disk_polygon.points), abs=1e-12)
    V = disk_mesh.vertices
    for tri in disk_mesh.triangles:
        assert tri_min_angle(V[tri[0]], V[tri[1]], V[tri[2]]) >= 20.0 - 1e-9


def test_cusp_mesh_area_and_hmin_near_tip(cusp15_polygon, cusp15_mesh):
    assert mesh_area(cusp15_mesh) == pytest.approx(shoelace(cusp15_polygon.points),
                                                   abs=1e-12)
    # the smallest edge comes from the graded region near the tip
    V = cusp15_mesh.vertices
    edges = np.concatenate([cusp15_mesh.triangles[:, [0, 1]],
                            cusp15_mesh.triangles[:, [1, 2]],
                            cusp15_mesh.triangles[:, [2, 0]]])
    lengths = np.linalg.norm(V[edges[:, 0]] - V[edges[:, 1]], axis=1)
    shortest = edges[int(np.argmin(lengths))]
    assert min(np.hypot(*V[shortest[0]]), np.hypot(*V[shortest[1]])) < 0.1


def test_quality_outside_tip_zone(cusp15_mesh):
    t_star = cusp_cap_intersection(cusp15_mesh.spec)
    V = cusp15_mesh.vertices
    for tri in cusp15_mesh.triangles:
        pts = V[tri]
        if np.min(np.hypot(pts[:, 0], pts[:, 1])) >= 0.5 * t_star:
            assert tri_min_angle(pts[0], pts[1], pts[2]) >= 20.0 - 1e-9


def test_euler_relation(disk_mesh, cusp15_mesh, square_mesh):
    for msh in (disk_mesh, cusp15_mesh, square_mesh):
        n = msh.num_vertices
        edges = np.concatenate([msh.triangles[:, [0, 1]], msh.triangles[:, [1, 2]],
                                msh.triangles[:, [2, 0]]])
        keys = np.unique(np.sort(edges, axis=1), axis=0)
        assert n - len(keys) + msh.num_triangles == 1


def test_boundary_edges_cover_and_ownership(cusp15_mesh):
    b = cusp15_mesh.boundary
    # outward normals against owner centroids
    cen = cusp15_mesh.vertices[cusp15_mesh.triangles[b.owner]].mean(axis=1)
    mid = 0.5 * (cusp15_mesh.vertices[b.v0] + cusp15_mesh.vertices[b.v1])
    dots = np.einsum("ij,ij->i", b.normal, cen - mid)
    assert np.all(dots < 0.0)


def _mesh_arrays(msh):
    b = msh.boundary
    segs = [(int(b.v0[e]), int(b.v1[e]), b.tag[e], float(b.p0[e]), float(b.p1[e]))
            for e in range(len(b))]
    # a triangle that owns no boundary edge, so all of its edges are interior
    inner = int(np.setdiff1d(np.arange(msh.num_triangles), b.owner)[0])
    return msh.vertices.copy(), msh.triangles.copy(), segs, inner


def _flip_first(v, t, segs, inner):
    t[0] = t[0, ::-1]
    return v, t, segs


def _list_twice(v, t, segs, inner):
    return v, np.vstack([t, t[inner]]), segs


def _drop_segment(v, t, segs, inner):
    return v, t, segs[1:]


def _reverse_segment(v, t, segs, inner):
    v0, v1, tag, p0, p1 = segs[0]
    return v, t, [(v1, v0, tag, p1, p0)] + segs[1:]


def _drop_inner_triangle(v, t, segs, inner):
    return v, np.delete(t, inner, axis=0), segs


def _add_unused_vertex(v, t, segs, inner):
    return np.vstack([v, [[0.25, 0.25]]]), t, segs


@pytest.mark.parametrize("defect, message", [
    (_flip_first, "triangle 0 has non-positive area"),
    (_list_twice, r"non-conforming mesh: edge \(\d+, \d+\) shared by 3 triangles"),
    (_drop_segment, "boundary segments are not the edges used by one triangle"),
    (_drop_inner_triangle, "boundary segments are not the edges used by one triangle"),
    (_add_unused_vertex, "Euler relation violated"),
    (_reverse_segment, "boundary normal points into the domain"),
], ids=["flipped-triangle", "triangle-listed-twice", "dropped-segment",
        "non-boundary-edge-used-once", "unused-vertex", "reversed-segment"])
def test_build_mesh_rejects_each_defect(square_mesh, defect, message):
    v, t, segs, inner = _mesh_arrays(square_mesh)
    meshmod._build_mesh(v, t, segs, None)  # the arrays as they are build a mesh
    with pytest.raises(GeometryError, match=message):
        meshmod._build_mesh(*defect(v, t, segs, inner), None)


def test_refine_single_triangle_area():
    poly = polygon_from_points([(0, 0), (1, 0), (0, 1)])
    msh = triangulate(poly, 10.0)  # no refinement triggered
    assert msh.num_triangles == 1
    ref = refine_uniform(msh)
    assert ref.num_triangles == 4
    assert mesh_area(ref) == pytest.approx(mesh_area(msh), abs=1e-14)


def test_boundary_parameters_chain_along_each_arc(disk_mesh):
    # walking the boundary, an edge that ends where the next edge of the
    # same tag starts ends at that edge's start parameter (the disk circle
    # modulo 2 pi): split halves keep their segment's direction
    bases = [disk_mesh] + [
        triangulate(boundary_polygon(DomainSpec.cusp(alpha), 12, 24, 2.0), 0.4, tip_grading=2.0)
        for alpha in (1.25, 2.5, 3.0)]
    joints = 0
    for msh in bases + [refine_uniform(m) for m in bases]:
        b = msh.boundary
        nxt = {int(v): f for f, v in enumerate(b.v0)}
        assert len(nxt) == len(b)
        for e in range(len(b)):
            f = nxt[int(b.v1[e])]
            if b.tag[e] is not b.tag[f]:
                continue
            gap = b.p1[e] - b.p0[f]
            if b.tag[e] is BoundaryTag.DISK_CIRCLE:
                gap %= 2.0 * math.pi
            assert gap == 0.0, (msh.num_vertices, e, f, b.p1[e], b.p0[f])
            joints += 1
    assert joints > 600


def test_refine_disk_projects_to_circle(disk_mesh):
    ref = refine_uniform(disk_mesh)
    bv = ref.boundary_vertex_ids()
    radii = np.hypot(ref.vertices[bv, 0], ref.vertices[bv, 1])
    assert np.abs(radii - 1.0).max() < 1e-12


def test_refine_keeps_old_vertices(cusp15_mesh):
    ref = refine_uniform(cusp15_mesh)
    n = cusp15_mesh.num_vertices
    assert np.array_equal(ref.vertices[:n], cusp15_mesh.vertices)
    assert ref.num_vertices > n


def test_weighted_length_monotone_to_exact(cusp15_mesh):
    exact = exact_weighted_boundary_length(1.5)
    vals = [boundary_weighted_measure(cusp15_mesh, ProblemConfig())]
    msh = cusp15_mesh
    for _ in range(3):
        msh = refine_uniform(msh)
        vals.append(boundary_weighted_measure(msh, ProblemConfig()))
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v <= exact + 1e-9 for v in vals)
    assert abs(vals[-1] - exact) < abs(vals[0] - exact)


def test_weighted_length_rate_on_disk(disk_mesh_chain):
    # smooth boundary data: quadrature error decays at second order or better
    exact = 2.0 * math.pi
    errs = [abs(boundary_weighted_measure(m, ProblemConfig()) - exact) for m in disk_mesh_chain]
    rate = math.log2(errs[0] / errs[1])
    rate2 = math.log2(errs[1] / errs[2])
    assert rate >= 1.9 and rate2 >= 1.9


def test_fine_weighted_length_matches_quadrature_oracle():
    exact = exact_weighted_boundary_length(2.0)
    poly = boundary_polygon(DomainSpec.cusp(2.0), n_lateral=800, n_arc=4000)
    total = 0.0
    from steklov_cusp.geometry import weight_on_arc
    # 4-point Gauss-Legendre on [0, 1]
    nodes, weights = np.polynomial.legendre.leggauss(4)
    xi, gw = 0.5 * (nodes + 1.0), 0.5 * weights
    pts = poly.points
    spec = DomainSpec.cusp(2.0)
    for e in poly.edges:
        a, b = pts[e.i], pts[e.j]
        length = float(np.hypot(*(b - a)))
        params = e.p0 * (1.0 - xi) + e.p1 * xi
        w = weight_on_arc(spec, e.tag, params)
        total += length * float(np.sum(gw * w))
    assert total == pytest.approx(exact, abs=1e-6)


def test_polygon_edge_missing_from_delaunay_rejected():
    # the slit's edge (6, 7) is crossed by the Delaunay edges of its vertices
    slit = [(0, 0), (2, 0), (2, 3), (1.05, 3), (1.05, 1.75), (1.05, 0.5),
            (1, 0.5), (1, 3), (0, 3)]
    with pytest.raises(GeometryError, match=r"polygon edge \(6, 7\)"):
        triangulate(polygon_from_points(slit), 0.3)


def test_encroached_segment_is_split_at_its_midpoint():
    # the reflex vertex (1, 0.2) lies inside the diametral circle of the
    # bottom edge, so Ruppert's rule splits that edge at (1, 0) although
    # target_h is far above the polygon's size
    poly = polygon_from_points([(0, 0), (2, 0), (2, 1), (1, 0.2), (0, 1)])
    msh = triangulate(poly, 10.0)
    assert np.any(np.all(msh.vertices == [1.0, 0.0], axis=1))
    assert mesh_area(msh) == pytest.approx(shoelace(poly.points), rel=1e-12)
    # no boundary edge is left encroached by its triangle's third vertex
    for u, v in zip(msh.boundary.v0, msh.boundary.v1):
        tri = next(t for t in msh.triangles if u in t and v in t)
        w = next(x for x in tri if x not in (u, v))
        a, b, c = msh.vertices[u], msh.vertices[v], msh.vertices[w]
        assert np.sum((c - 0.5 * (a + b)) ** 2) >= 0.25 * np.sum((a - b) ** 2) * (1.0 - 1e-12)


def test_walk_beyond_a_boundary_segment_names_it():
    # point location stops at a constrained edge instead of leaving the domain
    from steklov_cusp.triangulation import _key
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    cdt = _CDT(square)
    ids = [cdt.insert_point(p) for p in square]
    for i in range(4):
        a, b = ids[i], ids[(i + 1) % 4]
        cdt.constrained[_key(a, b)] = PolygonEdge(a, b, BoundaryTag.SEGMENT, 0.0, 1.0)
    cdt.remove_exterior()
    right = _key(ids[1], ids[2])
    with pytest.raises(GeometryError, match=re.escape(f"constrained edge {right}")):
        cdt._locate((2.0, 0.5))


def test_insert_point_dedupes_exact_repeats_only():
    # the first lateral samples of the alpha = 4, q = 3 cusp at 12/24 samples
    # are 2.7e-14 apart, under 1e-13 of the span: boundary_polygon refuses
    # that sampling, while the triangulator keeps the two as vertices
    spec = DomainSpec.cusp(4.0)
    with pytest.raises(GeometryError, match="lower n_lateral or grading_q"):
        boundary_polygon(spec, n_lateral=12, n_arc=24, grading_q=3.0)
    t1 = cusp_cap_intersection(spec) / 12.0 ** 3
    right = curve_point(spec, BoundaryTag.CUSP_LATERAL_RIGHT, t1)
    left = curve_point(spec, BoundaryTag.CUSP_LATERAL_LEFT, t1)
    assert 0.0 < right[0] - left[0] < 1e-13
    square = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
    cdt = _CDT(square)
    ids = [cdt.insert_point(p) for p in square + [right, left]]
    assert len(set(ids)) == 6
    assert cdt.insert_point(left) == ids[-1]
    assert cdt.insert_point(np.array(right)) == ids[-2]
    assert len(cdt.pts) == 3 + 6


def test_array_records_compare_by_identity():
    # records that hold arrays compare by identity, as the per-mesh caches
    # assume: an array-wise == has no truth value, and arrays do not hash
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    polygons = [polygon_from_points(square) for _ in range(2)]
    meshes = [triangulate(poly, 0.5) for poly in polygons]
    results = [solve_p2(msh, weighted=False) for msh in meshes]
    for a, b in (polygons, meshes, [m.boundary for m in meshes],
                 [m.elements() for m in meshes], results):
        assert type(a) is type(b)
        assert not a == b and a != b
        assert a in [a] and a not in [b]
        assert hash(a) != hash(b)


def test_shipped_config_base_meshes_validate():
    # every base polygon the shipped configs mesh has each of its edges in
    # the Delaunay triangulation of its vertices, which triangulate needs
    configs = Path(__file__).resolve().parent.parent / "configs"
    paths = sorted(configs.glob("*.ini"))
    assert paths
    for path in paths:
        cp = cli.load_config(path)
        cli.build_base_mesh(cp, cli.build_domain(cp))
    cp = cli.load_config(configs / "sweep.ini")
    for alpha in cp.get("sweep", "alphas").split(","):
        cli.build_base_mesh(cp, DomainSpec.cusp(float(alpha)))


def test_refinement_past_the_element_budget_raises(monkeypatch, disk_polygon):
    # the 64 polygon vertices fit the budget; refinement does not
    monkeypatch.setattr(triangulation, "ELEMENT_BUDGET", 100)
    with pytest.raises(GeometryError, match="element budget \\(100 vertices\\)"):
        triangulate(disk_polygon, 0.25)


def test_nonpositive_target_h_rejected(disk_polygon):
    with pytest.raises(ValueError):
        triangulate(disk_polygon, 0.0)


# -- predicates against the rational oracle ------------------------------------

# exact power-of-two rescalings into the subnormals, then decimal ones to
# 1e-300 and 1e300 (the oracle judges the rescaled doubles themselves)
_SCALES = (2.0 ** -1074, 2.0 ** -1060, 1e-300, 1e-150, 1e150, 1e300)


def _variants(groups):
    """Each group of points as a flat list of floats, its one-ulp
    perturbations of every coordinate in both directions, and the rescalings
    of all of those."""
    flats = []
    for group in groups:
        flat = [float(v) for v in np.ravel(group)]
        flats.append(flat)
        for i in range(len(flat)):
            for towards in (-np.inf, np.inf):
                flats.append(flat[:i] + [float(np.nextafter(flat[i], towards))] + flat[i + 1:])
    return flats + [[v * s for v in flat] for flat in flats for s in _SCALES]


def _degenerate_groups(size):
    """Groups of `size` points: cocircular regular 64-gon vertices, collinear
    lateral samples next to the alpha = 3 cusp tip, and integer configurations
    (one degenerate, one not) that the 2**-1074 scale makes subnormal.  The
    lateral samples are boundary_polygon's at 48 samples and grading 4, taken
    from the curve: the polygon itself is refused, its two samples next to
    the tip being too close to resolve."""
    disk = boundary_polygon(DomainSpec.disk(1.0), n_arc=64).points
    spec = DomainSpec.cusp(3.0)
    tip = np.array([curve_point(spec, BoundaryTag.CUSP_LATERAL_RIGHT, float(t))
                    for t in cusp_cap_intersection(spec) * (np.arange(49) / 48) ** 4.0])
    groups = [disk[[(i + j * step) % 64 for j in range(size)]]
              for i in range(0, 64, 8) for step in (1, 13)]
    groups += [tip[i:i + size] for i in range(1, 9)]
    if size == 3:
        groups += [[(0, 0), (3, 1), (6, 2)], [(0, 0), (3, 1), (7, 2)]]
    else:
        groups += [[(0, 0), (4, 0), (4, 4), (0, 4)], [(0, 0), (4, 0), (4, 5), (0, 4)]]
    return groups


def test_orient2d_matches_rational_oracle():
    cases = _variants(_degenerate_groups(3))
    zero = 0
    for c in cases:
        exact = orient2d_sign(*c)
        assert np.sign(orient2d(*c)) == exact, c
        zero += exact == 0
    assert zero > 0 and len(cases) - zero > 0


def test_incircle_matches_rational_oracle():
    cases = _variants(_degenerate_groups(4))
    zero = 0
    for c in cases:
        exact = incircle_sign(*c)
        assert np.sign(incircle(*c)) == exact, c
        zero += exact == 0
    assert zero > 0 and len(cases) - zero > 0


# 3.33e-16 and 1.1e-15 are Shewchuk's bounds rounded down: a float
# determinant between them and the bound is within error of the wrong sign
_CCW_GAP = (3.33e-16, (3.0 + 16.0 * 2.0 ** -53) * 2.0 ** -53)
_ICC_GAP = (1.1e-15, (10.0 + 96.0 * 2.0 ** -53) * 2.0 ** -53)


def test_orient2d_in_the_filter_gap_matches_oracle():
    # points c rounded from the segment ab: a seeded search for |det|/detsum
    # in the gap, evaluated as orient2d evaluates it
    rng = np.random.default_rng(11)
    a, b = rng.random((2, 400_000, 2))
    c = a + rng.random((400_000, 1)) * (b - a)
    detleft = (a[:, 0] - c[:, 0]) * (b[:, 1] - c[:, 1])
    detright = (a[:, 1] - c[:, 1]) * (b[:, 0] - c[:, 0])
    ratio = np.abs(detleft - detright) / (np.abs(detleft) + np.abs(detright))
    found = np.flatnonzero((ratio >= _CCW_GAP[0]) & (ratio < _CCW_GAP[1]))
    assert len(found) >= 10
    for i in found:
        args = [float(v) for v in (*a[i], *b[i], *c[i])]
        ax, ay, bx, by, cx, cy = args
        left, right = (ax - cx) * (by - cy), (ay - cy) * (bx - cx)
        assert _CCW_GAP[0] <= abs(left - right) / (abs(left) + abs(right)) < _CCW_GAP[1]
        assert np.sign(orient2d(*args)) == orient2d_sign(*args), args


def test_incircle_in_the_filter_gap_matches_oracle():
    # four points rounded from one circle: a seeded search for |det|/perm
    # in the gap, evaluated as incircle evaluates it
    rng = np.random.default_rng(12)
    n = 100_000
    angle = 2.0 * np.pi * rng.random((n, 4))
    center, radius = rng.random((n, 1, 2)), 0.1 + rng.random((n, 1, 1))
    pts = center + radius * np.stack([np.cos(angle), np.sin(angle)], axis=-1)
    d = pts[:, 3]
    (adx, ady), (bdx, bdy), (cdx, cdy) = [(pts[:, j, 0] - d[:, 0], pts[:, j, 1] - d[:, 1])
                                          for j in range(3)]
    ad2, bd2, cd2 = adx * adx + ady * ady, bdx * bdx + bdy * bdy, cdx * cdx + cdy * cdy
    det = (ad2 * (bdx * cdy - bdy * cdx) - bd2 * (adx * cdy - ady * cdx)
           + cd2 * (adx * bdy - ady * bdx))
    perm = (ad2 * (np.abs(bdx * cdy) + np.abs(bdy * cdx))
            + bd2 * (np.abs(adx * cdy) + np.abs(ady * cdx))
            + cd2 * (np.abs(adx * bdy) + np.abs(ady * bdx)))
    found = np.flatnonzero((np.abs(det) >= _ICC_GAP[0] * perm) & (np.abs(det) < _ICC_GAP[1] * perm))
    assert len(found) >= 10
    for i in found:
        args = [float(v) for v in pts[i].ravel()]
        assert np.sign(incircle(*args)) == incircle_sign(*args), args


# -- refinement work ------------------------------------------------------------


@pytest.mark.parametrize("name, target_h", [("disk_polygon", 0.25), ("cusp15_polygon", 0.35)])
def test_refine_judges_each_triangle_once(request, monkeypatch, name, target_h):
    # a verdict depends only on a triangle's vertices, so refine judges each
    # id once; the segment circles change only on a split
    judged, counts = [], {"tables": 0, "splits": 0}
    judge, circles, split = _CDT._judge, _CDT._segment_circles, _CDT._split_segment

    def counting_judge(self, tid, *args):
        judged.append(tid)
        return judge(self, tid, *args)

    def counting_circles(self):
        counts["tables"] += 1
        return circles(self)

    def counting_split(self, k):
        counts["splits"] += 1
        return split(self, k)

    monkeypatch.setattr(_CDT, "_judge", counting_judge)
    monkeypatch.setattr(_CDT, "_segment_circles", counting_circles)
    monkeypatch.setattr(_CDT, "_split_segment", counting_split)
    triangulate(request.getfixturevalue(name), target_h)
    assert judged and len(set(judged)) == len(judged)
    assert 0 < counts["tables"] <= counts["splits"] + 1
