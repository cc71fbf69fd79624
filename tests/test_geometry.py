import math
import re

import numpy as np
import pytest

from steklov_cusp import (BoundaryTag, DomainSpec, GeometryError, boundary_polygon,
                          cusp_cap_intersection, polygon_from_points)
from steklov_cusp.geometry import (_check_resolvable, cap_angle_range, check_simple, curve_point,
                                   orient2d, polygon_area, weight_on_arc)

from helpers import exact_cusp_area, junction_height, orient2d_sign, shoelace


def test_cusp_exponent_must_exceed_one():
    with pytest.raises(ValueError):
        DomainSpec.cusp(1.0)


def test_junction_large_alpha_closed_form():
    # as alpha grows the lateral term dies and the junction solves (2-t)^2 = 2
    t = cusp_cap_intersection(DomainSpec.cusp(200.0))
    assert t == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)


def test_junction_sign_change_oracle():
    spec = DomainSpec.cusp(1.5)
    t = cusp_cap_intersection(spec)

    def gap(s):
        return s ** 3.0 + (2.0 - s) ** 2 - 2.0

    assert gap(0.5) > 0.0 > gap(0.9)
    assert 0.5 < t < 0.9
    assert abs(gap(t)) < 1e-11
    assert t == pytest.approx(junction_height(1.5), abs=1e-10)


@pytest.mark.parametrize("alpha", [1.25, 1.5, 2.0, 2.5, 3.0])
def test_junction_is_first_crossing(alpha):
    spec = DomainSpec.cusp(alpha)
    t = cusp_cap_intersection(spec)
    for s in np.linspace(1e-6, t * 0.999, 37):
        assert s ** (2 * alpha) + (2.0 - s) ** 2 - 2.0 > 0.0


def test_boundary_weight_on_lateral():
    spec = DomainSpec.cusp(2.0)
    for tag in (BoundaryTag.CUSP_LATERAL_RIGHT, BoundaryTag.CUSP_LATERAL_LEFT):
        assert weight_on_arc(spec, tag, 0.5) == pytest.approx(0.25, abs=1e-12)


def test_boundary_weight_on_cap_is_one():
    for alpha in (1.5, 2.0, 3.0):
        spec = DomainSpec.cusp(alpha)
        assert weight_on_arc(spec, BoundaryTag.CAP_ARC, 0.5 * math.pi) == 1.0


def test_boundary_weight_at_junction():
    spec = DomainSpec.cusp(1.5)
    t = cusp_cap_intersection(spec)
    w = weight_on_arc(spec, BoundaryTag.CUSP_LATERAL_RIGHT, t)
    assert w == pytest.approx(t ** 1.5, abs=1e-12)
    assert w < 1.0


def test_weight_jump_at_junction_convention():
    # the lateral side approaches t_star^alpha while the cap side carries 1;
    # the implemented convention is the jump, asserted here explicitly
    spec = DomainSpec.cusp(2.5)
    t = cusp_cap_intersection(spec)
    lateral = weight_on_arc(spec, BoundaryTag.CUSP_LATERAL_RIGHT, t)
    cap = weight_on_arc(spec, BoundaryTag.CAP_ARC, cap_angle_range(spec)[0] + 1e-3)
    assert lateral < 1.0 and cap == 1.0


def test_disk_polygon_is_regular_gon():
    poly = boundary_polygon(DomainSpec.disk(1.0), n_arc=64)
    assert len(poly.points) == 64
    ang = 2.0 * np.pi * np.arange(64) / 64
    assert np.allclose(poly.points, np.stack([np.cos(ang), np.sin(ang)], axis=1),
                       atol=1e-15)


def test_cusp_polygon_grading_samples():
    spec = DomainSpec.cusp(2.0)
    poly = boundary_polygon(spec, n_lateral=16, n_arc=32, grading_q=2.0)
    t_star = cusp_cap_intersection(spec)
    ts = poly.points[:17, 1]  # tip plus right lateral samples
    expect = t_star * (np.arange(17) / 16.0) ** 2
    assert np.allclose(ts, expect, atol=1e-15)
    assert np.all(np.diff(ts) > 0.0)
    assert poly.points[0, 0] == 0.0 and poly.points[0, 1] == 0.0


@pytest.mark.parametrize("spec, grading_q", [
    # alpha = 5 at q = 3 is refused (test_unresolvable_tip_sampling_is_refused)
    *[pytest.param(DomainSpec.cusp(alpha), q, id=f"cusp{alpha:g}-q{q:g}")
      for alpha in (1.1, 1.5, 2.5, 5.0) for q in (1.0, 2.0, 3.0) if (alpha, q) != (5.0, 3.0)],
    *[pytest.param(DomainSpec.disk(r), 2.0, id=f"disk{r:g}") for r in (1.0, 1.5)]])
def test_polygon_edge_record_reproduces_its_vertices(spec, grading_q):
    # every edge's (tag, p0, p1) lands on both of its vertices, tip and
    # junctions included, and the edges chain once around the polygon
    poly = boundary_polygon(spec, n_lateral=10, n_arc=20, grading_q=grading_q)
    m = len(poly.points)
    assert [(e.i, e.j) for e in poly.edges] == [(k, (k + 1) % m) for k in range(m)]
    for e in poly.edges:
        for vertex, param in ((e.i, e.p0), (e.j, e.p1)):
            assert np.abs(np.subtract(curve_point(spec, e.tag, param),
                                      poly.points[vertex])).max() <= 1e-15, (e, vertex)


def test_polygon_vertex_count_and_orientation():
    poly = boundary_polygon(DomainSpec.cusp(1.5), n_lateral=12, n_arc=24)
    assert len(poly.points) == 2 * 12 + 24
    assert polygon_area(poly.points) > 0.0


@pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5])
def test_polygon_area_converges_to_exact(alpha):
    spec = DomainSpec.cusp(alpha)
    exact = exact_cusp_area(alpha)
    errs = []
    for n in (24, 48, 96):
        poly = boundary_polygon(spec, n_lateral=n, n_arc=2 * n, grading_q=2.0)
        errs.append(abs(shoelace(poly.points) - exact))
    # the cap-arc chord deficit dominates: about r^2 sweep theta^2 / 12
    assert errs[-1] < 2e-3
    # O(n^-2): quadrupling the resolution cuts the error by about 16
    assert errs[0] / errs[-1] > 12.0


def test_polygon_preconditions():
    spec = DomainSpec.cusp(2.0)
    with pytest.raises(ValueError):
        boundary_polygon(spec, n_lateral=4)
    with pytest.raises(ValueError):
        boundary_polygon(spec, n_arc=8)
    with pytest.raises(ValueError):
        boundary_polygon(spec, grading_q=0.5)


def test_self_intersection_detection():
    with pytest.raises(GeometryError):
        polygon_from_points([(0, 0), (1, 1), (1, 0), (0, 1)])
    # the bow tie above has zero area and fails the orientation check; this
    # one is counter-clockwise (signed area 15.5), so the exact segment test
    # is what finds segment 2, (4, 3)-(1, 3), crossing segment 4, (3, 1)-(2, 4)
    pts = [(0, 0), (4, 0), (4, 3), (1, 3), (3, 1), (2, 4), (0, 4)]
    assert polygon_area(np.array(pts, dtype=float)) == pytest.approx(15.5)
    with pytest.raises(GeometryError, match="between segments 2 and 4"):
        polygon_from_points(pts)


def test_touching_vertex_detection():
    # counter-clockwise (signed area 6), with no proper crossing: vertex
    # (2, 0) ends segment 3 on the interior of segment 0, (0, 0)-(4, 0)
    pts = [(0, 0), (4, 0), (4, 3), (2, 3), (2, 0)]
    assert polygon_area(np.array(pts, dtype=float)) == pytest.approx(6.0)
    with pytest.raises(GeometryError, match="between segments 0 and 3"):
        polygon_from_points(pts)


def test_overlapping_boxes_without_contact_are_simple():
    # segments 1, (4, 0)-(4, 1), and 3, (1, 1)-(4, 3), have overlapping
    # bounding boxes but do not meet
    pts = [(0, 0), (4, 0), (4, 1), (1, 1), (4, 3), (0, 3)]
    assert len(polygon_from_points(pts).points) == 6


@pytest.mark.parametrize("pts, pair", [
    # vertex (3, 1) starts segment 0 on the interior of segment 2, (3, 0)-(3, 3)
    ([(3, 1), (3, 2), (3, 0), (3, 3), (0, 1)], "0 and 2"),
    # vertex (2, 2) ends segment 0 on the interior of segment 3, (3, 1)-(1, 3)
    ([(1, 1), (2, 2), (2, 1), (3, 1), (1, 3)], "0 and 3"),
    # vertex (3, 1) starts segment 2 on the interior of segment 0, (3, 0)-(3, 3)
    ([(3, 0), (3, 3), (3, 1), (0, 2)], "0 and 2"),
], ids=["first-end-of-a", "second-end-of-a", "first-end-of-b"])
def test_endpoint_touching_detection(pts, pair):
    assert polygon_area(np.array(pts, dtype=float)) > 0.0
    with pytest.raises(GeometryError, match=f"between segments {pair}$"):
        polygon_from_points(pts)


@pytest.mark.parametrize("alpha, grading_q, n_lateral, n_arc", [
    pytest.param(4.0, 3.0, 12, 24, id="cusp4-q3-n12"),
    pytest.param(5.0, 3.0, 10, 20, id="cusp5-q3-n10")])
def test_unresolvable_tip_sampling_is_refused(alpha, grading_q, n_lateral, n_arc):
    # the first samples of the two lateral curves, (+-t1**alpha, t1), are
    # distinct but closer than 1e-13 of the span in both coordinates
    spec = DomainSpec.cusp(alpha)
    t1 = cusp_cap_intersection(spec) * (1.0 / n_lateral) ** grading_q
    x1, last = t1 ** alpha, 2 * n_lateral + n_arc - 1
    assert 0.0 < 2.0 * x1 < 1e-13
    with pytest.raises(GeometryError) as err:
        boundary_polygon(spec, n_lateral, n_arc, grading_q)
    assert str(err.value) == (
        f"polygon vertices 1 ({x1:.6g}, {t1:.6g}) and {last} ({-x1:.6g}, {t1:.6g}) are "
        f"{2.0 * x1:.3g} apart, within 1e-13 of the polygon's span "
        f"{2.0 + math.sqrt(2.0):.6g}: sample the tip more coarsely "
        "(lower n_lateral or grading_q)")


@pytest.mark.parametrize("pts, pair", [
    ([(0, 0), (1, 0), (1, 0), (1, 1), (0, 1)], "1 (1, 0) and 2 (1, 0) are 0 apart"),
    ([(0, 0), (2, 0), (1, 1), (2, 2), (0, 2), (1, 1)], "2 (1, 1) and 5 (1, 1) are 0 apart"),
], ids=["consecutive", "apart"])
def test_repeated_vertex_is_refused(pts, pair):
    with pytest.raises(GeometryError, match=re.escape(f"polygon vertices {pair}, within 1e-13")):
        polygon_from_points(pts)


def test_resolvability_window_matches_all_pairs():
    # the sort-and-window test refuses iff some pair of all m^2 lies within
    # the tolerance (1e-13 at span 1) in both coordinates; one planted pair
    # per trial is offset by about the tolerance in x, in y or in both, and
    # four more vertices share its x to within the tolerance
    rng = np.random.default_rng(5)
    offsets = np.array([0.0, 0.5e-13, 0.99e-13, 1.01e-13, 3e-13])
    refused = 0
    for _ in range(300):
        pts = rng.random((40, 2))
        i, j, *crowd = rng.choice(40, size=6, replace=False)
        pts[j] = pts[i] + rng.choice(offsets, size=2) * rng.choice([-1.0, 1.0], size=2)
        pts[crowd, 0] = pts[i, 0] + rng.uniform(-1e-13, 1e-13, size=4)
        d = np.abs(pts[:, None, :] - pts[None, :, :])
        close = np.any(np.triu(np.all(d <= 1e-13, axis=2), k=1))
        try:
            _check_resolvable(pts)
        except GeometryError:
            assert close
            refused += 1
        else:
            assert not close
    assert 0 < refused < 300


@pytest.mark.parametrize("y", [0.3, 0.4, 0.5, 0.6, 0.7])
def test_subnormal_touch_is_judged_by_orient2d(y):
    # x in units of the smallest subnormal, so every product in the float
    # orientation of a = (0, 0), b = (2s, 1), c = (s, y) rounds to a multiple
    # of s: it reads 0 at y = 0.3, 0.4, 0.6 and 0.7, though c lies on the
    # segment ab only at y = 0.5.  Segment 2, e-c, ends at c, and e lies
    # right of ab, so the polygon is simple iff c lies strictly right of ab.
    s = 2.0 ** -1074
    a, b, e, c = (0.0, 0.0), (2 * s, 1.0), (4 * s, 0.45), (s, y)
    exact = orient2d_sign(*a, *b, *c)
    assert np.sign(orient2d(*a, *b, *c)) == exact
    pts = np.array([a, b, e, c])
    if exact < 0:
        check_simple(pts)
    else:
        with pytest.raises(GeometryError, match="between segments 0 and 2$"):
            check_simple(pts)


def test_weight_range_on_polygon_edges():
    spec = DomainSpec.cusp(1.5)
    poly = boundary_polygon(spec, n_lateral=16, n_arc=32)
    for e in poly.edges:
        if e.tag in (BoundaryTag.CUSP_LATERAL_LEFT, BoundaryTag.CUSP_LATERAL_RIGHT):
            hi = max(e.p0, e.p1)
            assert 0.0 < hi ** spec.alpha < 1.0
