import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from annulus_spectra import geometry
from annulus_spectra import (
    AnnularDomain,
    Circle,
    ContainmentError,
    ConvexPolygon,
    Ellipse,
    GeometryError,
    InfeasibleError,
    NumericalError,
    PolygonCurve,
    ShellSpec,
    StarShapeError,
    aleksandrov_fenchel_check,
    class_s_data,
    inradius,
    isoperimetric_deficit,
    random_convex_polygon,
    scale_hole_to_class_s,
    unit_ball_volume,
)
from annulus_spectra.geometry import BoundaryCurve, convex_intersection_area

UNIT_SQUARE = ConvexPolygon.rectangle(1.0, 1.0, center=(0.5, 0.5))


def ellipse_perimeter_mp(a, b):
    """40-digit oracle: 4 a E(1 - b^2 / a^2) with a the major semi-axis."""
    with mpmath.workdps(40):
        major, minor = mpmath.mpf(max(a, b)), mpmath.mpf(min(a, b))
        return float(4 * major * mpmath.ellipe(1 - (minor / major) ** 2))


def fan_triangulation_area(poly):
    """Independent area oracle: sum of signed triangle areas from vertex 0."""
    v = poly.vertices
    total = 0.0
    for i in range(1, len(v) - 1):
        a, b = v[i] - v[0], v[i + 1] - v[0]
        total += 0.5 * (a[0] * b[1] - a[1] * b[0])
    return total


class TestPolygonArea:
    def test_unit_square(self):
        assert UNIT_SQUARE.area == pytest.approx(1.0, abs=1e-15)

    def test_regular_hexagon(self):
        hexa = ConvexPolygon.regular(6, circumradius=1.0)
        assert hexa.area == pytest.approx(3.0 * math.sqrt(3.0) / 2.0, rel=1e-14)

    def test_random_heptagon_vs_fan_triangulation(self, rng):
        poly = random_convex_polygon(rng, 7)
        assert poly.area == pytest.approx(fan_triangulation_area(poly), rel=1e-13)

    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            ConvexPolygon(np.array([[0, 0], [1, 0], [2, 0]]))
        with pytest.raises(GeometryError):
            ConvexPolygon(np.array([[0, 0], [1, 1], [1, 0]]))  # clockwise


class TestQuermassintegrals:
    # planar W0 and W1 are the area and half the perimeter
    def test_unit_square(self):
        assert (UNIT_SQUARE.area, UNIT_SQUARE.perimeter / 2.0) == pytest.approx((1.0, 2.0))

    def test_disk_4096gon(self):
        disk = ConvexPolygon.regular(4096, circumradius=1.0)
        assert disk.area == pytest.approx(math.pi, abs=1e-5)
        assert disk.perimeter / 2.0 == pytest.approx(math.pi, abs=1e-5)

    def test_rectangle(self):
        rect = ConvexPolygon.rectangle(2.0, 1.0)
        assert (rect.area, rect.perimeter / 2.0) == pytest.approx((2.0, 3.0))


class TestShellQuermass:
    def test_volume_3d(self):
        # W_0 of a shell: omega_3 (1.5^3 - 0.5^3)
        assert ShellSpec(3, 0.5, 1.5).volume == pytest.approx(13.0 * math.pi / 3.0, rel=1e-14)

    def test_omega_n_values(self):
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
        assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2.0)


class TestInradius:
    def test_unit_square(self):
        assert inradius(UNIT_SQUARE) == pytest.approx(0.5, abs=1e-9)

    def test_equilateral_triangle(self):
        tri = ConvexPolygon(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, math.sqrt(3.0)]]))
        assert inradius(tri) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-9)

    def test_rectangle_and_pmi(self):
        rect = ConvexPolygon.rectangle(3.0, 1.0)
        rho = inradius(rect)
        assert rho == pytest.approx(0.5, abs=1e-9)
        ratio = rect.area / rect.perimeter
        assert rho / 2.0 <= ratio <= rho
        assert ratio == pytest.approx(3.0 / 8.0)


class TestDistanceToBoundary:
    def setup_method(self):
        self.domain = AnnularDomain(Circle((0, 0), 2.0), Circle((0, 0), 1.0))

    def test_concentric_annulus(self):
        x = (1.4, 0.0)
        assert self.domain.outer.distance(x)[0] == pytest.approx(0.6, abs=1e-12)
        assert self.domain.inner.distance(x)[0] == pytest.approx(0.4, abs=1e-12)

    def test_on_outer_boundary(self):
        assert self.domain.outer.distance((2.0, 0.0))[0] == pytest.approx(0.0, abs=1e-12)

    def test_ellipse_minor_axis(self):
        assert Ellipse((0, 0), 2.0, 1.0).distance((0.0, 0.7))[0] == pytest.approx(0.3, abs=1e-10)


class TestPolygonContainmentGap:
    SQUARE = PolygonCurve(ConvexPolygon.rectangle(2.0, 2.0))

    def test_no_distance_pass(self, monkeypatch):
        calls = []
        distance = PolygonCurve.distance

        def counting(self, points):
            calls.append(len(points))
            return distance(self, points)

        monkeypatch.setattr(PolygonCurve, "distance", counting)
        AnnularDomain(self.SQUARE, Circle((0.1, 0.0), 0.5))
        assert calls == []

    def test_near_touching_rejected(self):
        # the hole's rightmost sample sits 1 - x_c - 0.5 from the edge x = 1;
        # the rejection threshold is CONTAINMENT_REL_GAP * 2 = 2e-9
        near = AnnularDomain(self.SQUARE, Circle((0.5 - 4e-9, 0.0), 0.5))
        assert near.gap == pytest.approx(4e-9, rel=1e-6)
        with pytest.raises(ContainmentError, match="touches"):
            AnnularDomain(self.SQUARE, Circle((0.5 - 1e-9, 0.0), 0.5))
        with pytest.raises(ContainmentError, match="not contained"):
            AnnularDomain(self.SQUARE, Circle((0.6, 0.0), 0.5))

    def test_smallest_margin_is_the_distance_inside(self, rng):
        poly = random_convex_polygon(rng, 256)
        inside = poly.centroid + 0.999 * (poly.sample_boundary(2000) - poly.centroid) * rng.random((2000, 1))
        margins = np.min(poly.margins(inside), axis=1)
        assert margins == pytest.approx(poly.nearest_edge(inside)[0], abs=1e-15 * poly.scale)


class TestAleksandrovFenchel:
    def test_unit_square_margin(self):
        # direct evaluation of 2/pi - sqrt(1/pi)
        expected = 2.0 / math.pi - math.sqrt(1.0 / math.pi)
        assert aleksandrov_fenchel_check(UNIT_SQUARE) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.07243018887792365)

    def test_disk_margin_vanishes(self):
        disk = ConvexPolygon.regular(4096, circumradius=1.0)
        assert 0.0 <= aleksandrov_fenchel_check(disk) < 1e-6

    def test_regular_ngon_margin_asymptotics(self):
        # margin of the regular n-gon is pi^2 / (6 n^2) + O(n^-4); at
        # n = 1024 that is 1.57e-6, so sub-1e-6 margins need n >= 2048
        for n in (1024, 2048, 4096):
            margin = aleksandrov_fenchel_check(ConvexPolygon.regular(n, 1.0))
            assert margin == pytest.approx(math.pi**2 / (6.0 * n * n), rel=1e-3)
        assert aleksandrov_fenchel_check(ConvexPolygon.regular(2048, 1.0)) < 1e-6

    def test_thin_rectangle_margin(self):
        rect = ConvexPolygon.rectangle(4.0, 0.25)
        expected = 4.25 / math.pi - math.sqrt(1.0 / math.pi)
        assert aleksandrov_fenchel_check(rect) == pytest.approx(expected, rel=1e-14)

    def test_margin_never_negative(self, rng):
        for _ in range(50):
            poly = random_convex_polygon(rng, int(rng.integers(3, 16)))
            assert aleksandrov_fenchel_check(poly) >= -1e-9


class TestClassS:
    def test_concentric_annulus(self):
        r1, r2, res = class_s_data(AnnularDomain(Circle((0, 0), 2.0), Circle((0, 0), 1.0)))
        assert (r1, r2) == pytest.approx((1.0, 2.0), rel=1e-14)
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_eccentric_annulus(self):
        dom = AnnularDomain(Circle((0, 0), 2.0), Circle((0.5, 0), 1.0))
        r1, r2, res = class_s_data(dom)
        assert (r1, r2) == pytest.approx((1.0, 2.0), rel=1e-14)
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_ellipse_outer_residual_vs_elliptic_integral(self):
        a, b = 2.0, 1.0
        dom = AnnularDomain(Ellipse((0, 0), a, b), Circle((0, 0), 0.5))
        _, _, res = class_s_data(dom)
        p_oracle = ellipse_perimeter_mp(a, b)
        expected = (4.0 * math.pi * (math.pi * a * b) - p_oracle**2) / (4.0 * math.pi)
        assert res == pytest.approx(expected, rel=1e-10)
        assert res < 0.0

    def test_rigid_motion_invariance(self, rng):
        poly = random_convex_polygon(rng, 12, scale=0.4)
        hole = PolygonCurve(ConvexPolygon(poly.vertices - poly.centroid))
        outer = Circle((0, 0), 2.0)
        base = class_s_data(AnnularDomain(outer, hole))[2]
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        shift = np.array([0.3, -0.2])
        hole2 = PolygonCurve(ConvexPolygon(hole.polygon.vertices @ rot.T + shift))
        outer2 = Circle(tuple(np.asarray([0.0, 0.0]) @ rot.T + shift), 2.0)
        moved = class_s_data(AnnularDomain(outer2, hole2))[2]
        assert moved == pytest.approx(base, abs=1e-10)

    def test_circular_pairs_residual_zero(self, rng):
        for _ in range(10):
            r_in = float(rng.uniform(0.3, 0.9))
            r_out = float(rng.uniform(r_in + 0.5, r_in + 2.0))
            off = float(rng.uniform(0.0, 0.8 * (r_out - r_in)))
            dom = AnnularDomain(Circle((0, 0), r_out), Circle((off, 0), r_in))
            assert class_s_data(dom)[2] == pytest.approx(0.0, abs=1e-12)

    def test_matched_radii_ordered(self, rng):
        # perimeter is monotone under convex inclusion, so R1 < R2 for every
        # valid domain; the infeasible branch stays defensive only
        for _ in range(5):
            poly = random_convex_polygon(rng, 10, scale=0.5)
            hole = PolygonCurve(ConvexPolygon(poly.vertices - poly.centroid))
            r1, r2, _ = class_s_data(AnnularDomain(Circle((0, 0), 2.0), hole))
            assert r1 < r2


class TestScaleHole:
    def test_circle_in_circle_returns_range(self):
        rng_pair = scale_hole_to_class_s(Circle((0, 0), 2.0), Circle((0, 0), 1.0))
        assert isinstance(rng_pair, tuple)
        lo, hi = rng_pair
        assert lo == 0.0
        assert hi == pytest.approx(2.0, rel=1e-6)

    @pytest.mark.parametrize(
        "outer, hole, center",
        [
            (Circle((0, 0), 2.0), Circle((0, 0), 1.0), None),
            (Circle((0.3, -0.2), 3.0), Circle((5, 5), 0.7), (0.8, 0.4)),
            (Ellipse((0, 0), 1.5, 1.5), Circle((1, 0), 0.25), None),
        ],
    )
    def test_disk_in_disk_bound_is_closed_form(self, outer, hole, center, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(1)
            return AnnularDomain(*args, **kwargs)

        monkeypatch.setattr(geometry, "AnnularDomain", counting)
        lo, hi = scale_hole_to_class_s(outer, hole, center)
        r_out, r_hole = outer.scale / 2.0, hole.scale / 2.0
        c = outer.reference_point() if center is None else np.asarray(center)
        offset = math.hypot(*(c - outer.reference_point()))
        expected = (r_out * (1.0 - 2.0 * geometry.CONTAINMENT_REL_GAP) - offset) / r_hole
        assert lo == 0.0 and hi == pytest.approx(expected, rel=1e-15)
        assert len(built) <= 2

    def test_disk_center_outside_outer_disk_rejected(self):
        with pytest.raises(ContainmentError):
            scale_hole_to_class_s(Circle((0, 0), 1.0), Circle((0, 0), 0.2), center=(1.5, 0.0))

    def test_ellipse_outer_rectangle_hole(self):
        outer = Ellipse((0, 0), 2.0, 1.0)
        hole = PolygonCurve(ConvexPolygon.rectangle(1.5, 0.1))
        s = scale_hole_to_class_s(outer, hole)
        d_hole = isoperimetric_deficit(hole)
        assert d_hole == pytest.approx(8.35504, abs=2e-5)
        p_oracle = ellipse_perimeter_mp(2.0, 1.0)
        d_out_oracle = p_oracle**2 - 4.0 * math.pi * (math.pi * 2.0)
        assert s == pytest.approx(math.sqrt(d_out_oracle / d_hole), rel=1e-9)

    def test_square_in_square_infeasible(self):
        outer = PolygonCurve(ConvexPolygon.rectangle(2.0, 2.0))
        hole = PolygonCurve(ConvexPolygon.rectangle(1.0, 1.0))
        with pytest.raises(ContainmentError):
            scale_hole_to_class_s(outer, hole)

    def test_zero_deficit_mismatch_infeasible(self):
        with pytest.raises(InfeasibleError):
            scale_hole_to_class_s(PolygonCurve(ConvexPolygon.rectangle(2.0, 1.0)), Circle((0, 0), 0.5))


class TestRandomPolygonSuite:
    def test_pmi_holds_exactly(self, rng):
        for _ in range(100):
            poly = random_convex_polygon(rng, int(rng.integers(3, 24)), scale=float(rng.uniform(0.5, 3.0)))
            rho = inradius(poly)
            ratio = poly.area / poly.perimeter
            assert rho / 2.0 - 1e-12 <= ratio <= rho + 1e-12


class TestCurveParsing:
    def test_parse_roundtrip(self):
        for text in ["circle 0 0 2", "ellipse 0.5 0 2 1", "polygon 0 0 1 0 1 1 0 1"]:
            curve = BoundaryCurve.parse(text)
            again = BoundaryCurve.parse(curve.spec_string())
            assert type(again) is type(curve)
            assert again.perimeter() == pytest.approx(curve.perimeter(), rel=1e-15)

    def test_parse_errors(self):
        for bad in ["", "circle 1 2", "ellipse 0 0 1", "polygon 0 0 1 1", "blob 1 2 3"]:
            with pytest.raises(GeometryError):
                BoundaryCurve.parse(bad)

    @pytest.mark.parametrize(
        "bad",
        ["circle 0 0 abc", "circle 0 0 inf", "circle nan 0 1", "ellipse 0 0 1 inf",
         "ellipse 0 -inf 2 1", "polygon 0 0 1 0 nan 1", "polygon 0 0 1 0 1 inf"],
    )
    def test_bad_numbers_rejected(self, bad):
        with pytest.raises(GeometryError):
            BoundaryCurve.parse(bad)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Circle((0.0, 0.0), math.inf),
            lambda: Circle((math.nan, 0.0), 1.0),
            lambda: Ellipse((0.0, 0.0), math.nan, 1.0),
            lambda: Ellipse((0.0, math.inf), 2.0, 1.0),
            lambda: ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [math.nan, 1.0]])),
        ],
    )
    def test_non_finite_curves_rejected(self, make):
        with pytest.raises(GeometryError, match="finite"):
            make()

    def test_ellipse_perimeter_matches_elliptic_integral(self):
        # aspect ratios from the circle down to 1e-3, either axis the major
        for ratio in (1.0, 0.999999, 0.98, 0.5, 0.1, 1e-2, 1e-3):
            for a, b in ((2.0, 2.0 * ratio), (0.3 * ratio, 0.3)):
                assert Ellipse((0, 0), a, b).perimeter() == pytest.approx(
                    ellipse_perimeter_mp(a, b), rel=1e-15
                )
        assert Ellipse((0, 0), 1.5, 1.5).perimeter() == 3.0 * math.pi


class TestConvexIntersection:
    def test_disk_overlap_area(self):
        # lens area of two unit disks at center distance 1 (closed form)
        d = 1.0
        lens = 2.0 * math.acos(d / 2.0) - 0.5 * d * math.sqrt(4.0 - d * d)
        a = ConvexPolygon.regular(2048, 1.0, center=(0.0, 0.0))
        b = ConvexPolygon.regular(2048, 1.0, center=(d, 0.0))
        assert convex_intersection_area(a, b, (0.5 * d, 0.1)) == pytest.approx(lens, rel=1e-5)

    def test_overlapping_rectangles(self):
        a = ConvexPolygon.rectangle(2.0, 1.0, center=(1.0, 0.5))
        b = ConvexPolygon.rectangle(2.0, 1.5, center=(2.0, -0.25))
        # [1, 2] x [0, 0.5]
        assert convex_intersection_area(a, b, (1.5, 0.25)) == pytest.approx(0.5, rel=1e-15)

    def test_square_and_rotated_square(self):
        # the boundaries cross inside every wedge: a regular octagon of inradius 1
        square = ConvexPolygon.regular(4, math.sqrt(2.0)).vertices
        rot = np.array([[math.cos(math.pi / 4), -math.sin(math.pi / 4)],
                        [math.sin(math.pi / 4), math.cos(math.pi / 4)]])
        a, b = ConvexPolygon(square), ConvexPolygon(square @ rot.T)
        octagon = 8.0 * math.tan(math.pi / 8.0)
        for center in [(0.0, 0.0), (0.3, -0.2)]:
            assert convex_intersection_area(a, b, center) == pytest.approx(octagon, rel=1e-14)

    def test_contained_polygon_keeps_its_area(self, rng):
        outer = ConvexPolygon.regular(64, 2.0)
        for _ in range(5):
            inner = random_convex_polygon(rng, 12, scale=1.0)
            center = inner.centroid
            assert convex_intersection_area(inner, outer, center) == pytest.approx(inner.area, rel=1e-13)
            assert convex_intersection_area(outer, inner, center) == pytest.approx(inner.area, rel=1e-13)

    def test_disjoint_rejected(self):
        a = ConvexPolygon.regular(4, 1.0, center=(0.0, 0.0))
        b = ConvexPolygon.regular(4, 1.0, center=(5.0, 0.0))
        for center in [(0.0, 0.0), (5.0, 0.0), (2.5, 0.0)]:
            with pytest.raises(GeometryError, match="center is not strictly inside"):
                convex_intersection_area(a, b, center)

    def test_center_on_the_boundary_rejected(self):
        a = ConvexPolygon.regular(4, 1.0, center=(0.0, 0.0))
        for center in [(1.0, 0.0), (-0.5, 0.5)]:  # a vertex and an edge midpoint
            with pytest.raises(GeometryError, match="center is not strictly inside"):
                convex_intersection_area(a, a, center)

    def test_identical_polygons_keep_their_area(self, rng):
        # every halfspace appears twice
        for a in (ConvexPolygon.regular(7, 1.3), random_convex_polygon(rng, 12, scale=2.0)):
            assert convex_intersection_area(a, a, a.centroid) == pytest.approx(a.area)

    def test_center_next_to_an_edge_raises_geometry_error(self):
        # the margin test passes, but Qhull finds the center coplanar with
        # an edge; its QhullError must not escape
        square = ConvexPolygon.rectangle(2.0, 2.0)
        with pytest.raises(GeometryError, match="Qhull"):
            convex_intersection_area(square, square, (1.0 - 1e-15, 0.0))


RAY_CURVES = {
    "circle": Circle((0.2, -0.1), 1.5),
    "ellipse": Ellipse((0.1, 0.2), 2.0, 1.2),
    "polygon": PolygonCurve(ConvexPolygon.regular(256, 1.7, center=(-0.1, 0.05))),
}
RAY_ORIGIN = np.array([0.35, 0.3])  # inside every curve, off every center


class TestRayLength:
    @pytest.mark.parametrize("kind", sorted(RAY_CURVES))
    def test_batch_matches_single_directions(self, kind, rng):
        curve = RAY_CURVES[kind]
        dirs = rng.normal(size=(300, 2))
        dirs /= np.hypot(dirs[:, 0], dirs[:, 1])[:, None]
        batch = curve.ray_length(RAY_ORIGIN, dirs)
        single = np.array([curve.ray_length(RAY_ORIGIN, u) for u in dirs])
        assert batch.shape == (300,)
        assert np.all(np.abs(batch - single) <= np.spacing(single))
        hits = RAY_ORIGIN + batch[:, None] * dirs
        assert np.max(curve.distance(hits)) < 1e-12 * curve.scale

    @pytest.mark.parametrize("kind", sorted(RAY_CURVES))
    def test_single_direction_returns_float(self, kind):
        curve = RAY_CURVES[kind]
        t = curve.ray_length(RAY_ORIGIN, (0.0, -1.0))
        assert isinstance(t, float)
        assert curve.ray_length(RAY_ORIGIN, [[0.0, -1.0]]).shape == (1,)

    def test_polygon_rays_through_vertices(self):
        # both edges at a vertex are hit at the same t: one crossing
        poly = RAY_CURVES["polygon"]
        rel = poly.polygon.vertices - RAY_ORIGIN
        dist = np.hypot(rel[:, 0], rel[:, 1])
        t = poly.ray_length(RAY_ORIGIN, rel / dist[:, None])
        assert np.max(np.abs(t - dist)) < 1e-12 * poly.scale

    @pytest.mark.parametrize("kind", sorted(RAY_CURVES))
    def test_origin_outside_raises(self, kind):
        theta = 2.0 * np.pi * np.arange(64) / 64
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
        with pytest.raises(StarShapeError):
            RAY_CURVES[kind].ray_length((5.0, 0.0), dirs)

    @pytest.mark.parametrize("kind", ["circle", "ellipse", "polygon"])
    def test_origin_outside_raises_toward_curve(self, kind):
        # the ray would meet the curve; the origin itself is the fault
        with pytest.raises(StarShapeError, match="origin is outside"):
            RAY_CURVES[kind].ray_length((5.0, 0.0), (-1.0, 0.0))

    def test_polygon_ray_crossing_two_edges_raises(self):
        # from beyond the short side of a thin rectangle, the ray along the
        # long axis enters and leaves through two separated edges
        thin = PolygonCurve(ConvexPolygon.rectangle(4.0, 0.2))
        with pytest.raises(StarShapeError, match="origin is outside"):
            thin.ray_length((-3.0, 0.0), (1.0, 0.0))
        with pytest.raises(StarShapeError, match="origin is outside"):
            thin.ray_length((-3.0, 0.0), (-1.0, 0.0))


def scan_bisection_distance(ell, points):
    """The foot-point routine the Newton solve replaced: a 128-point
    parameter scan, then 60 bisection steps on (p - gamma(t)) . gamma'(t)."""
    q = np.atleast_2d(np.asarray(points, dtype=float)) - np.asarray(ell.center)
    a, b = ell.a, ell.b
    out = np.empty(len(q))
    tgrid = 2.0 * np.pi * np.arange(128) / 128
    step = 2.0 * np.pi / 128
    for start in range(0, len(q), 8192):
        qx, qy = q[start : start + 8192, 0], q[start : start + 8192, 1]
        d2 = (qx[:, None] - a * np.cos(tgrid)) ** 2 + (qy[:, None] - b * np.sin(tgrid)) ** 2
        t0 = tgrid[np.argmin(d2, axis=1)]

        def g(t):
            return (qx - a * np.cos(t)) * (-a * np.sin(t)) + (qy - b * np.sin(t)) * (b * np.cos(t))

        lo, hi = t0 - step, t0 + step
        glo = g(lo)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            gm = g(mid)
            left = glo * gm <= 0.0
            hi = np.where(left, mid, hi)
            lo = np.where(left, lo, mid)
            glo = np.where(left, glo, gm)
        t = 0.5 * (lo + hi)
        out[start : start + 8192] = np.hypot(qx - a * np.cos(t), qy - b * np.sin(t))
    return out


def minimized_distance(ell, point):
    """Independent oracle: a dense parameter scan refined by a bounded
    scalar minimization of the distance itself."""
    q = np.asarray(point, dtype=float) - np.asarray(ell.center)
    dist = lambda t: math.hypot(q[0] - ell.a * math.cos(t), q[1] - ell.b * math.sin(t))
    grid = 2.0 * np.pi * np.arange(4096) / 4096
    t0 = grid[np.argmin(np.hypot(q[0] - ell.a * np.cos(grid), q[1] - ell.b * np.sin(grid)))]
    h = 2.0 * np.pi / 4096
    res = minimize_scalar(dist, bounds=(t0 - h, t0 + h), method="bounded", options={"xatol": 1e-13})
    return min(res.fun, dist(t0))


ELLIPSES = {
    "wide": Ellipse((0.3, -0.2), 2.0, 1.2),
    "tall": Ellipse((-0.4, 0.1), 0.7, 1.9),
    "circle": Ellipse((1.0, 1.0), 1.5, 1.5),
}


class TestEllipseDistance:
    @pytest.mark.parametrize("kind", sorted(ELLIPSES))
    def test_points_on_known_normals(self, kind, rng):
        ell = ELLIPSES[kind]
        a, b = ell.a, ell.b
        t = rng.uniform(0.0, 2.0 * np.pi, 4000)
        foot = np.asarray(ell.center) + np.column_stack([a * np.cos(t), b * np.sin(t)])
        normal = np.column_stack([b * np.cos(t), a * np.sin(t)])
        normal /= np.hypot(normal[:, 0], normal[:, 1])[:, None]
        # inside, the foot point is unique while s stays below the smallest
        # radius of curvature min^2 / max
        s_in = rng.uniform(0.0, 1.0, 4000) * min(a, b) ** 2 / max(a, b)
        s_out = rng.uniform(0.0, 3.0 * max(a, b), 4000)
        for pts, s in ((foot - s_in[:, None] * normal, s_in), (foot + s_out[:, None] * normal, s_out)):
            assert np.max(np.abs(ell.distance(pts) - s)) <= 1e-13 * ell.scale

    def test_centre_and_axes(self):
        ell = Ellipse((0.0, 0.0), 2.0, 1.2)
        c = ell.a**2 - ell.b**2  # the evolute meets the major axis at +-c / a = 1.28
        assert ell.distance((0.0, 0.0))[0] == pytest.approx(1.2, abs=1e-15)
        pts = [(0.0, y) for y in (0.5, -1.0, 1.2, 2.5)]
        pts += [(x, 0.0) for x in (0.3, -1.0, 1.279, 1.281, -1.9, 2.0, 2.6)]
        pts += [(c / ell.a, 0.0), (-c / ell.a, 0.0)]
        expected = [minimized_distance(ell, p) for p in pts]
        assert np.max(np.abs(ell.distance(pts) - expected)) <= 1e-13 * ell.scale

    def test_points_near_major_axis(self):
        # the points where Newton on the unshifted unknown loses its digits
        ell = Ellipse((0.0, 0.0), 2.0, 1.2)
        pts = [
            (x * sx, y * sy)
            for x in (0.2, 1.0, 1.27, 1.29, 1.9, 2.4)
            for y in (1e-14, 3e-15, 1e-300, 1e-310, 5e-324)
            for sx in (1, -1)
            for sy in (1, -1)
        ]
        expected = [minimized_distance(ell, p) for p in pts]
        assert np.max(np.abs(ell.distance(pts) - expected)) <= 1e-13 * ell.scale

    def test_near_evolute_cusps_settle(self, rng):
        ell = ELLIPSES["wide"]
        c = ell.a**2 - ell.b**2
        cusps = [(c / ell.a, 0.0), (0.0, c / ell.b)]
        for cusp in cusps:
            for eps in (1e-2, 1e-6, 1e-10, 1e-15):
                pts = np.asarray(ell.center) + cusp + rng.uniform(-eps, eps, (2000, 2))
                d = ell.distance(pts)
                expected = [minimized_distance(ell, p) for p in pts[:5]]
                assert np.all(np.isfinite(d))
                assert np.max(np.abs(d[:5] - expected)) <= 1e-13 * ell.scale

    def test_orientation_and_circle(self, rng):
        pts = rng.uniform(-3.0, 3.0, (2000, 2))
        wide, tall = Ellipse((0.0, 0.0), 1.9, 0.7), Ellipse((0.0, 0.0), 0.7, 1.9)
        assert np.array_equal(tall.distance(pts), wide.distance(pts[:, ::-1]))
        disk = ELLIPSES["circle"]
        expected = Circle(disk.center, disk.a).distance(pts)
        assert np.max(np.abs(disk.distance(pts) - expected)) <= 1e-15 * disk.scale

    def test_matches_scan_bisection(self, rng):
        ell = ELLIPSES["wide"]
        pts = np.asarray(ell.center) + rng.uniform(-3.0, 3.0, (100_000, 2))
        assert np.max(np.abs(ell.distance(pts) - scan_bisection_distance(ell, pts))) <= (
            1e-12 * ell.scale
        )

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(geometry, "FOOT_POINT_ITERATIONS", 1)
        with pytest.raises(NumericalError, match="did not settle"):
            ELLIPSES["wide"].distance((1.0, 0.5))


class TestEllipseCurve:
    def test_curvature_at_the_vertices(self):
        ell = ELLIPSES["wide"]
        a, b = ell.a, ell.b
        c = np.asarray(ell.center)
        vertices = c + [(a, 0.0), (-a, 0.0), (0.0, b), (0.0, -b)]
        expected = [a / b**2, a / b**2, b / a**2, b / a**2]
        assert ell.curvature_at(vertices) == pytest.approx(expected, rel=1e-14)
        disk = ELLIPSES["circle"]
        kappa = disk.curvature_at(disk.sample(64))
        assert kappa == pytest.approx(np.full(64, 1.0 / disk.a), rel=1e-14)

    def test_translated_and_scaled(self):
        ell = ELLIPSES["tall"]
        moved = ell.translated((0.5, -1.0))
        assert moved.center == pytest.approx((0.1, -0.9), abs=1e-15)
        assert (moved.a, moved.b) == (ell.a, ell.b)
        grown = ell.scaled(1.5)
        assert grown.center == pytest.approx(ell.center, abs=0.0)
        assert (grown.a, grown.b) == (1.5 * ell.a, 1.5 * ell.b)
        assert grown.area() == pytest.approx(2.25 * ell.area(), rel=1e-15)

    @pytest.mark.parametrize("delta", [0.05, 0.7])
    def test_outer_parallel_points(self, delta):
        ell = Ellipse((0.3, -0.2), 1.1, 0.6)
        pts = geometry.outer_parallel_points(ell, delta, 512)
        assert np.max(np.abs(ell.distance(pts) - delta)) <= 1e-15
        assert not np.any(ell.contains(pts))


class TestCircleIsEllipse:
    CIRCLE = Circle((0.3, -0.7), 1.37)
    TWIN = Ellipse((0.3, -0.7), 1.37, 1.37)
    EPS = np.finfo(float).eps

    def test_inherits_measures_and_samples(self):
        assert isinstance(self.CIRCLE, Ellipse) and self.CIRCLE.radius == 1.37
        assert self.CIRCLE.area() == self.TWIN.area()
        assert self.CIRCLE.perimeter() == self.TWIN.perimeter() == 2.0 * math.pi * 1.37
        assert np.array_equal(self.CIRCLE.sample(97), self.TWIN.sample(97))

    def test_matches_the_ellipse(self, rng):
        tol = 4.0 * self.EPS * self.CIRCLE.scale
        c = np.asarray(self.CIRCLE.center)
        pts = c + rng.uniform(-3.0, 3.0, (4000, 2))
        assert np.max(np.abs(self.CIRCLE.distance(pts) - self.TWIN.distance(pts))) <= tol
        clear = self.CIRCLE.distance(pts) > tol
        assert np.array_equal(self.CIRCLE.contains(pts)[clear], self.TWIN.contains(pts)[clear])
        on = self.CIRCLE.sample(257)
        assert np.max(np.abs(self.CIRCLE.outward_normal(on) - (on - c) / 1.37)) <= 4.0 * self.EPS
        kappa = self.CIRCLE.curvature_at(on)
        assert kappa == pytest.approx(np.full(257, 1.0 / 1.37), rel=4.0 * self.EPS)
        u = (on - c) / 1.37
        grown = geometry.outer_parallel_points(self.CIRCLE, 0.4, 257)
        assert np.max(np.abs(grown - (c + 1.77 * u))) <= tol
        origin = c + (0.2, 0.5)
        assert np.max(
            np.abs(self.CIRCLE.ray_length(origin, u) - self.TWIN.ray_length(origin, u))
        ) <= tol

    def test_stays_a_circle(self):
        moved, grown = self.CIRCLE.translated((0.5, 1.0)), self.CIRCLE.scaled(2.0)
        assert type(moved) is Circle and moved.radius == 1.37
        assert type(grown) is Circle and grown.radius == 2.74 and grown.center == self.CIRCLE.center
        assert BoundaryCurve.parse(self.CIRCLE.spec_string()) == self.CIRCLE

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_bad_radius_keeps_the_circle_message(self, radius):
        with pytest.raises(GeometryError, match="circle radius must be positive and finite"):
            Circle((0.0, 0.0), radius)


def broadcast_nearest_edge(poly, points):
    """The (points x edges x 2) broadcast the edge loop replaced."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    v = poly.vertices
    d = np.roll(v, -1, axis=0) - v
    ll = np.sum(d * d, axis=1)
    t = ((p[:, None, :] - v[None, :, :]) * d[None, :, :]).sum(-1) / ll[None, :]
    t = np.clip(t, 0.0, 1.0)
    foot = v[None, :, :] + t[:, :, None] * d[None, :, :]
    dist = np.hypot(*(p[:, None, :] - foot).transpose(2, 0, 1))
    return np.min(dist, axis=1), np.argmin(dist, axis=1)


POLYGONS = {
    "rectangle": ConvexPolygon.rectangle(1.5, 0.8, center=(0.1, -0.2)),
    "2048-gon": ConvexPolygon.regular(2048, 1.3, center=(-0.2, 0.1)),
}


class TestPolygonDistance:
    @pytest.mark.parametrize("kind", sorted(POLYGONS))
    def test_bit_identical_to_broadcast(self, kind, rng):
        poly = POLYGONS[kind]
        v = poly.vertices
        midpoints = 0.5 * (v + np.roll(v, -1, axis=0))
        # vertices and edge midpoints put ties between edges into the set
        pts = np.concatenate([rng.uniform(-2.0, 2.0, (1000, 2)), v[:4], midpoints[:4]])
        dist, nearest = broadcast_nearest_edge(poly, pts)
        assert np.array_equal(poly.nearest_edge(pts)[0], dist)
        assert np.array_equal(PolygonCurve(poly).distance(pts), dist)
        normals, _ = poly.edge_normals_offsets()
        assert np.array_equal(PolygonCurve(poly).outward_normal(pts), normals[nearest])

    def test_exact_ties_go_to_the_first_edge(self):
        square = ConvexPolygon.rectangle(2.0, 1.0)
        # on the diagonals of the 2 x 1 rectangle two edges are exactly
        # equally far: (1 - s, 0.5 - s) is s from the right and top edges
        # (and from the bottom one too at s = 1/2)
        s = np.arange(1, 9) / 16.0
        ties = np.concatenate(
            [np.column_stack([sx * (1.0 - s), sy * (0.5 - s)]) for sx in (1, -1) for sy in (1, -1)]
        )
        dist, nearest = square.nearest_edge(ties)
        assert np.array_equal(dist, np.tile(s, 4))
        v = square.vertices
        d = np.roll(v, -1, axis=0) - v
        for point, k in zip(ties, nearest):
            t = np.clip(np.sum((point - v) * d, axis=1) / np.sum(d * d, axis=1), 0.0, 1.0)
            per_edge = np.hypot(*(point - (v + t[:, None] * d)).T)
            tied = np.flatnonzero(per_edge == per_edge.min())
            assert len(tied) >= 2 and k == tied[0]
