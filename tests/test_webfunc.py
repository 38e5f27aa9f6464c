import dataclasses
import json
import math
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from annulus_spectra import geometry, webfunc
from annulus_spectra.analysis import eccentric_family, standard_family
from annulus_spectra.errors import InfeasibleError, InvalidWebError, RangeError, SolverError
from annulus_spectra.fem import solve_domain
from annulus_spectra.geometry import (
    AnnularDomain,
    Circle,
    ConvexPolygon,
    Ellipse,
    PolygonCurve,
    class_s_data,
    scale_hole_to_class_s,
)
from annulus_spectra.radial import solve_shell
from annulus_spectra.webfunc import (
    CLIP_SAMPLES,
    _grid_quotient,
    _quad_grid,
    _sublevel_area,
    build_web,
    chain_certificate,
    chain_checks,
    rayleigh_error,
    rayleigh_quotient,
)

SHELL_DOMAIN = AnnularDomain(Circle((0, 0), 2.0), Circle((0, 0), 1.0))


def ellipse_rectangle_member(a=2.0, b=1.6, width=1.5, height=1.0):
    """Class-S domain with an ellipse outside and a scaled rectangle hole."""
    outer = Ellipse((0, 0), a, b)
    hole_shape = PolygonCurve(ConvexPolygon.rectangle(width, height))
    s = scale_hole_to_class_s(outer, hole_shape)
    return AnnularDomain(outer, hole_shape.scaled(s))


def sampled_sublevel_area(domain, s_star, grid=1400):
    """Indicator-quadrature oracle for |{x in Omega : d_i(x) < s*}|."""
    lo = np.array([-domain.outer.scale, -domain.outer.scale]) / 2.0
    hi = -lo
    xs = np.linspace(lo[0], hi[0], grid)
    ys = np.linspace(lo[1], hi[1], grid)
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    xx, yy = np.meshgrid(xs, ys)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    mask = domain.outer.contains(pts) & ~domain.inner.contains(pts)
    inside = pts[mask]
    count = np.count_nonzero(domain.inner.distance(inside) < s_star)
    return count * cell


class TestFindSplit:
    def test_shell_split_is_critical_width(self):
        rad = solve_shell(2, 1.0, 2.0, 1.0)
        web = build_web(SHELL_DOMAIN, rad)
        assert web.split_s == rad.r_bar - 1.0
        assert web.split_area_rel_err <= 1e-14

    def test_eccentric_area_match_oracle(self):
        rad = solve_shell(2, 1.0, 2.0, 1.0)
        dom = AnnularDomain(Circle((0, 0), 2.0), Circle((0.5, 0), 1.0))
        s = build_web(dom, rad).split_s
        target = math.pi * (rad.r_bar**2 - 1.0)
        assert sampled_sublevel_area(dom, s) == pytest.approx(target, rel=2e-2)
        # truncation by the outer boundary pushes the split outward
        assert s > rad.r_bar - 1.0

    def test_ellipse_rectangle_member(self):
        dom = ellipse_rectangle_member()
        r1, r2, res = class_s_data(dom)
        assert abs(res) <= 1e-10 * dom.area
        rad = solve_shell(2, r1, r2, 1.0)
        web = build_web(dom, rad)
        assert web.contained
        assert web.split_s > 0.0
        assert web.split_area_rel_err <= 1e-9

    @pytest.mark.parametrize("member, clipped", [("eccentric", True), ("ellipse_rectangle", False)])
    def test_build_web_reuses_the_split(self, member, clipped, monkeypatch):
        if member == "eccentric":
            dom = AnnularDomain(Circle((0, 0), 2.0), Circle((0.5, 0), 1.0))
        else:
            dom = ellipse_rectangle_member()
        r1, r2, _ = class_s_data(dom)
        rad = solve_shell(2, r1, r2, 1.0)
        polygons = []
        to_polygon = type(dom.outer).to_polygon
        monkeypatch.setattr(
            type(dom.outer), "to_polygon", lambda c, n: polygons.append(n) or to_polygon(c, n)
        )
        web = build_web(dom, rad)
        # one clip polygon past the free distance, none inside it
        assert polygons == ([CLIP_SAMPLES] if clipped else [])
        assert web.split_s == webfunc._split(dom, rad)[0]
        target = math.pi * (rad.r_bar**2 - r1 * r1)
        area = _sublevel_area(dom, web.split_s, to_polygon(dom.outer, CLIP_SAMPLES))
        assert web.split_area_rel_err == abs(area - target) / target

    @pytest.mark.parametrize("member, s_star", [(6, 1.211489127597901), (7, 1.1273553731995172)])
    def test_clipping_regime_split(self, member, s_star):
        # ellipse/rectangle members whose beta = 0.1 split lies past the
        # free distance, so the area law runs through the polygon kernel;
        # s_star comes from bisection over half-plane clipping, an
        # independent route to the same area law
        dom = standard_family()[member]
        r1, r2, _ = class_s_data(dom)
        web = build_web(dom, solve_shell(2, r1, r2, 0.1))
        assert web.split_s > dom.gap
        assert not web.contained
        assert web.split_s == pytest.approx(s_star, rel=1e-10)
        assert web.split_area_rel_err <= 1e-9

    @pytest.mark.parametrize(
        "offset, r1, beta",
        [
            (0.9432461700255518, 0.8058145121455254, 1.0),
            (0.5391109929402541, 1.157879117474458, 0.5233884721210197),
            (0.22855038966856703, 0.9455474673363274, 0.33585602074908205),
        ],
    )
    def test_split_where_the_grown_hole_touches_the_outer_circle(self, offset, r1, beta):
        # the farthest outer sample, (-2, 0), puts the lens at the area law's
        # upper end one ulp past tangency, where a cosine rounded past 1
        dom = AnnularDomain(Circle((0, 0), 2.0), Circle((offset, 0), r1))
        web = build_web(dom, solve_shell(2, *class_s_data(dom)[:2], beta))
        assert dom.gap < web.split_s
        assert web.split_area_rel_err <= 1e-12

    def test_unreached_target_rejected(self, monkeypatch):
        # an area law that stays short of the target up to the farthest
        # outer distance has no split
        dom = AnnularDomain(Circle((0, 0), 2.0), Circle((0.5, 0), 1.0))
        rad = solve_shell(2, 1.0, 2.0, 1.0)
        monkeypatch.setattr(webfunc, "_sublevel_area", lambda *args: 0.0)
        with pytest.raises(InfeasibleError, match="not reached"):
            build_web(dom, rad)

    def test_wrong_shell_rejected(self):
        rad = solve_shell(2, 1.0, 1.9, 1.0)
        with pytest.raises(InfeasibleError):
            build_web(SHELL_DOMAIN, rad)

    def test_non_class_s_rejected(self):
        rad = solve_shell(2, 0.5, 2.0, 1.0)
        dom = AnnularDomain(Ellipse((0, 0), 2.0, 1.0), Circle((0, 0), 0.5))
        with pytest.raises(InfeasibleError):
            build_web(dom, rad)


class TestEvaluate:
    def setup_method(self):
        self.rad = solve_shell(2, 1.0, 2.0, 1.0)
        self.web = build_web(SHELL_DOMAIN, self.rad)

    def test_boundary_values(self):
        outer, hole = self.web.evaluate([(2.0, 0.0), (0.0, 1.0)])
        assert outer == pytest.approx(self.rad.v_m, rel=1e-12)
        assert hole == pytest.approx(0.0, abs=1e-12)

    def test_shell_reproduces_profile(self):
        radii = np.array([1.1, 1.4, self.rad.r_bar, 1.9])
        values = self.web.evaluate(np.column_stack([radii, np.zeros(4)]))
        assert values == pytest.approx(self.rad.value(radii), rel=1e-12)

    def test_range_bounds(self, rng):
        radii = rng.uniform(1.0, 2.0, 500)
        angles = rng.uniform(0.0, 2.0 * math.pi, 500)
        pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        vals = self.web.evaluate(pts)
        assert np.all(vals >= -1e-14)
        assert np.all(vals <= self.rad.v_M * (1.0 + 1e-12))

    def test_certificate_on_shell(self):
        assert self.web.certified
        assert self.web.interface_jump == 0.0

    def test_containment_is_strict(self):
        at_gap = dataclasses.replace(self.web, split_s=self.web.domain.gap)
        assert not at_gap.contained and not at_gap.certified
        assert not at_gap.report()["inner_region_contained"]
        assert [check.passed for check in at_gap.checks] == [False, True]


def sampled_jump(web, n):
    """Largest jump across the split curve over n of its points inside
    the outer curve, each at its own outer distance."""
    dom, rad = web.domain, web.radial
    pts = geometry.outer_parallel_points(dom.inner, web.split_s, n)
    pts = pts[dom.outer.contains(pts, tol=-1e-12 * dom.outer.scale)]
    inside = rad.value(min(rad.shell.r_inner + web.split_s, rad.r_bar))
    outer = rad.value(np.maximum(rad.shell.r_outer - dom.outer.distance(pts), rad.r_bar))
    return float(np.max(np.abs(inside - outer)))


FAMILY = standard_family()


class TestInterfaceJump:
    @staticmethod
    def web(member, beta):
        dom = FAMILY[member]
        return build_web(dom, solve_shell(2, *class_s_data(dom)[:2], beta))

    @pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
    def test_shell_has_none(self, beta):
        assert self.web(0, beta).interface_jump == 0.0

    @pytest.mark.parametrize(
        "member, beta",
        [(1, 0.1), (3, 1.0), (4, 10.0), (5, 10.0), (6, 0.1), (7, 0.1)],
    )
    def test_clipped_split_jumps_the_whole_profile(self, member, beta):
        # past the gap the split curve reaches the outer curve, where the
        # outer piece is v_m and the inner piece v_M
        web = self.web(member, beta)
        assert web.split_s > web.domain.gap
        spread = web.radial.v_M - web.radial.v_m
        assert web.interface_jump == pytest.approx(spread, rel=1e-12)
        # the samples approach the supremum from below
        assert sampled_jump(web, 2048) <= sampled_jump(web, 65536) <= web.interface_jump

    @pytest.mark.parametrize("member, beta", [(1, 1.0), (3, 10.0), (6, 1.0), (7, 10.0)])
    def test_contained_split_matches_dense_samples(self, member, beta):
        web = self.web(member, beta)
        assert web.split_s < web.domain.gap
        sampled = sampled_jump(web, 65536)
        assert sampled <= web.interface_jump <= sampled * (1.0 + 1e-8)

    def test_report_carries_the_gap(self):
        web = self.web(6, 1.0)
        assert web.report()["gap"] == web.domain.gap == FAMILY[6].gap


class TestRayleighQuotient:
    def test_shell_identity(self):
        # on the shell the web is the eigenprofile, so R(w) is lambda_shell
        # up to the coarea quadrature's round-off
        for beta in (0.1, 1.0, 10.0):
            rad = solve_shell(2, 1.0, 2.0, beta)
            web = build_web(SHELL_DOMAIN, rad)
            _, value = rayleigh_quotient(web, beta, quad_level=(2048, 128))
            assert value == pytest.approx(rad.lam, rel=1e-13)

    def test_uncertified_rejected(self):
        rad = solve_shell(2, 1.0, 2.0, 1.0)
        dom = AnnularDomain(Circle((0, 0), 2.0), Circle((0.3, 0), 1.0))
        web = build_web(dom, rad)
        assert not web.certified  # the jump is a real feature of the construction
        with pytest.raises(InvalidWebError):
            rayleigh_quotient(web, 1.0)

    def test_eccentric_chain_sandwich(self):
        rad = solve_shell(2, 1.0, 2.0, 1.0)
        dom = AnnularDomain(Circle((0, 0), 2.0), Circle((0.3, 0), 1.0))
        web = build_web(dom, rad)
        _, value = rayleigh_quotient(web, 1.0, allow_uncertified=True)
        fem = solve_domain(dom, 1.0, 48, 192)
        assert fem.lam <= value + 2e-3 * fem.lam
        assert value <= 1.02 * rad.lam

    def test_infinite_beta_rejected(self):
        rad = solve_shell(2, 1.0, 2.0, 1.0)
        web = build_web(SHELL_DOMAIN, rad)
        with pytest.raises(RangeError):
            rayleigh_quotient(web, float("inf"))


def gauss_panels(cuts, n):
    """n-point Gauss-Legendre nodes and weights on each panel between
    consecutive cuts (rows of cuts are independent intervals)."""
    x, w = np.polynomial.legendre.leggauss(n)
    p, q = cuts[..., :-1, None], cuts[..., 1:, None]
    return p + 0.5 * (q - p) * (x + 1.0), 0.5 * (q - p) * w


def polar_oracle(web, beta, n=48):
    """R(w) on a circle pair by nested Gauss-Legendre panels in polar
    coordinates about the hole centre, with w and |grad w| read through
    web._profile at the points.

    theta is measured from the direction c_h - c_o, so a ray meets the
    circle |x - c_o| = rho at a = -e cos(theta) + sqrt(rho^2 - e^2
    sin(theta)^2).  Rays break at the plateau radius, the split radius b,
    the radius where |x - c_o| reaches the outer plateau and the outer
    exit; theta breaks where the exit or that radius crosses b or the
    plateau radius.  The boundary term runs over the outer circle, broken
    where |x - c_h| is b or the plateau radius.
    """
    hole, outer, rad = web.domain.inner, web.domain.outer, web.radial
    c_h, c_o = np.asarray(hole.center, float), np.asarray(outer.center, float)
    h1, h2, e = hole.radius, outer.radius, math.dist(c_h, c_o)
    phase = math.atan2(*(c_h - c_o)[::-1]) if e > 0.0 else 0.0
    a_bar = h1 + rad.r_bar - rad.shell.r_inner  # inner piece reaches its plateau
    rho_bar = h2 - rad.shell.r_outer + rad.r_bar  # outer piece reaches its plateau
    b = h1 + web.split_s
    assert e < rho_bar  # each ray meets the circle |x - c_o| = rho_bar once

    def meet(rho, theta):
        return -e * np.cos(theta) + np.sqrt(rho * rho - (e * np.sin(theta)) ** 2)

    def angle(num, den):
        return math.acos(min(1.0, max(-1.0, num / den))) if den > 0.0 else 0.0

    theta_cuts = [0.0, math.pi] + [
        angle(rho * rho - e * e - a * a, 2.0 * e * a)
        for rho, a in ((h2, b), (h2, a_bar), (rho_bar, b))
    ]
    theta, w_theta = gauss_panels(np.unique(theta_cuts), n)
    theta, w_theta = theta.ravel(), w_theta.ravel()
    exit_a = meet(h2, theta)
    cuts = np.column_stack(
        [np.full_like(theta, h1), np.full_like(theta, a_bar), np.full_like(theta, b),
         meet(rho_bar, theta), exit_a]
    )
    cuts = np.clip(np.sort(cuts, axis=1), h1, exit_a[:, None])
    a, w_a = gauss_panels(cuts, n)
    u = np.column_stack([np.cos(theta + phase), np.sin(theta + phase)])
    pts = c_h + a[..., None] * u[:, None, None, :]
    pts = pts.reshape(-1, 2)
    w, g = web._profile(hole.distance(pts), outer.distance(pts))
    area = (2.0 * w_theta[:, None, None] * w_a * a).ravel()
    mass = float(np.sum(area * w * w))
    gradient = float(np.sum(area * g * g))

    psi_cuts = [0.0, math.pi] + [angle(h2 * h2 + e * e - a * a, 2.0 * h2 * e) for a in (b, a_bar)]
    psi, w_psi = gauss_panels(np.unique(psi_cuts), n)
    bnd = c_o + h2 * np.column_stack([np.cos(psi.ravel() + phase), np.sin(psi.ravel() + phase)])
    boundary = 2.0 * h2 * float(np.sum(w_psi.ravel() * web.evaluate(bnd) ** 2))
    return (gradient + beta * boundary) / mass


# R(w) at 32 nodes per panel on eccentric_family() members, to 1e-12
REFERENCE_RAYLEIGH = [
    (0, 1.0, 3.6683060233177422),
    (1, 10.0, 8.037677631090542),
    (2, 1.0, 3.6406085141647959),
    (3, 0.1, 1.9718137929381783),
    (4, 10.0, 10.115181357752306),
    (5, 0.1, 1.5517498435655699),
]


def family_web(member, beta):
    dom = eccentric_family()[member]
    r1, r2, _ = class_s_data(dom)
    return build_web(dom, solve_shell(2, r1, r2, beta))


class TestCoareaQuotient:
    @pytest.mark.parametrize("member, beta", [(1, 1.0), (3, 1.0), (5, 1.0), (4, 10.0)])
    def test_matches_polar_oracle(self, member, beta):
        web = family_web(member, beta)
        # both boundary branches: only member 1 keeps the inner piece off
        # the outer circle
        b = web.domain.inner.radius + web.split_s
        e = math.dist(web.domain.inner.center, web.domain.outer.center)
        assert (b > web.domain.outer.radius - e) == (member != 1)
        _, value = rayleigh_quotient(web, beta, allow_uncertified=True)
        assert value == pytest.approx(polar_oracle(web, beta), rel=1e-9)

    @pytest.mark.parametrize("member, beta, expected", REFERENCE_RAYLEIGH)
    def test_reference_values(self, member, beta, expected):
        _, value = rayleigh_quotient(family_web(member, beta), beta, allow_uncertified=True)
        assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("member", range(6))
    def test_computed_error_is_small(self, member):
        for beta in (0.1, 1.0, 10.0):
            web = family_web(member, beta)
            _, value = rayleigh_quotient(web, beta, allow_uncertified=True)
            assert 0.0 <= rayleigh_error(web, beta, value) <= 1e-10 * value

    def test_quad_level_is_not_read(self):
        web = family_web(3, 1.0)
        assert rayleigh_quotient(web, 1.0, (8, 8), True) == rayleigh_quotient(web, 1.0, None, True)

    def test_grid_members_report_no_error(self):
        dom = ellipse_rectangle_member()
        report = chain_certificate(dom, 1.0, n_r=16, n_a=64, quad_level=(64, 32))
        assert report["rayleigh_error"] is None
        # both routes report the same three parts
        circle_report = chain_certificate(SHELL_DOMAIN, 1.0, n_r=16, n_a=64)
        assert report["rayleigh_parts"].keys() == circle_report["rayleigh_parts"].keys() == {
            "gradient", "boundary", "mass"
        }
        assert [check.context["rayleigh_error"] for check in chain_checks(report)] == [
            "not computed"
        ] * 2


def separate_pass_parts(web, beta, quad_level):
    """Rayleigh parts from the public evaluate and the separate slope
    formula, each computing its own distances."""
    pts, weights, outer_pts, arc = _quad_grid(web, quad_level)
    d_i = web.domain.inner.distance(pts)
    d_o = web.domain.outer.distance(pts)
    shell, r_bar = web.radial.shell, web.radial.r_bar
    in_mi = d_i < web.split_s
    rising = in_mi & (d_i < r_bar - shell.r_inner)
    falling = ~in_mi & (d_o < shell.r_outer - r_bar)
    slope = np.zeros(len(pts))
    slope[rising] = np.abs(web.radial.slope(shell.r_inner + d_i[rising]))
    slope[falling] = np.abs(web.radial.slope(shell.r_outer - d_o[falling]))
    w_vals = web.evaluate(pts)
    w_bnd = web.evaluate(outer_pts)
    return {
        "gradient": float(np.sum(weights * slope * slope)),
        "boundary": beta * float(np.sum(arc * w_bnd * w_bnd)),
        "mass": float(np.sum(weights * w_vals * w_vals)),
    }


def ellipse_web():
    dom = ellipse_rectangle_member()
    r1, r2, _ = class_s_data(dom)
    return build_web(dom, solve_shell(2, r1, r2, 1.0))


def eccentric_web():
    dom = AnnularDomain(Circle((0, 0), 2.0), Circle((0.3, 0.1), 1.0))
    return build_web(dom, solve_shell(2, 1.0, 2.0, 1.0))


class TestQuadrature:
    @pytest.mark.parametrize(
        "outer, hole, area",
        [
            (Ellipse((0.2, -0.1), 2.0, 1.4), Circle((0.2, -0.1), 0.6), math.pi * (2.0 * 1.4 - 0.36)),
            (Circle((0, 0), 2.0), Circle((0, 0), 1.0), math.pi * (4.0 - 1.0)),
        ],
    )
    def test_grid_weights_sum_to_area(self, outer, hole, area):
        # only the domain enters the grid, so a stand-in web carries it
        _, weights, _, arc = _quad_grid(SimpleNamespace(domain=AnnularDomain(outer, hole)), (64, 128))
        assert np.sum(weights) == pytest.approx(area, rel=1e-12)
        assert np.sum(arc) == pytest.approx(outer.perimeter(), rel=1e-12)

    @pytest.mark.parametrize("make_web", [ellipse_web, eccentric_web])
    def test_single_pass_matches_evaluate(self, make_web):
        # the grid route directly: rayleigh_quotient takes the coarea rule
        # on the eccentric circle pair
        web = make_web()
        parts, value = _grid_quotient(web, 0.7, (96, 160))
        assert parts == separate_pass_parts(web, 0.7, (96, 160))
        assert value == (parts["gradient"] + parts["boundary"]) / parts["mass"]

    def test_one_distance_call_per_curve_per_grid(self, monkeypatch):
        web = ellipse_web()
        calls = []
        for cls in (Ellipse, PolygonCurve):

            def counted(self, points, _distance=cls.distance):
                calls.append((type(self).__name__, len(points)))
                return _distance(self, points)

            monkeypatch.setattr(cls, "distance", counted)
        rayleigh_quotient(web, 1.0, quad_level=(32, 64), allow_uncertified=True)
        assert sorted(calls) == [
            ("Ellipse", 64), ("Ellipse", 32 * 64), ("PolygonCurve", 64), ("PolygonCurve", 32 * 64),
        ]


class TestChainCertificate:
    def test_flags_read_the_checks(self):
        dom = AnnularDomain(Circle((0, 0), 2.0), Circle((0.2, 0), 1.0))
        report = chain_certificate(dom, 1.0, n_r=16, n_a=64, quad_level=(64, 32))
        lower, upper = chain_checks(report, "chain[0]")
        assert (lower.name, upper.name) == ("chain[0].lower", "chain[0].upper")
        assert (report["lower_ok"], report["upper_ok"]) == (lower.passed, upper.passed)
        assert (lower.lhs, lower.rhs, lower.tolerance) == (
            report["lambda_fem"], report["rayleigh"], report["fem_tolerance"]
        )
        assert (upper.lhs, upper.rhs) == (report["rayleigh"], report["lambda_shell"])
        # past the FEM allowance only the lower clause fails
        past = report | {"lambda_fem": report["rayleigh"] + 1.001 * report["fem_tolerance"]}
        assert [check.passed for check in chain_checks(past)] == [False, True]

    def test_report_fields_and_chain(self):
        dom = AnnularDomain(Circle((0, 0), 2.0), Circle((0.2, 0), 1.0))
        report = chain_certificate(dom, 1.0, n_r=32, n_a=128, quad_level=(256, 64))
        for key in (
            "s_star",
            "interface_jump",
            "rayleigh",
            "lambda_fem",
            "lambda_shell",
            "chain_ok",
        ):
            assert key in report
        assert report["chain_ok"]
        assert report["lambda_fem"] <= report["lambda_shell"] * (1.0 + 2e-3)
        assert json.loads(json.dumps(report)) == report

    @pytest.mark.parametrize(
        "make_domain",
        [
            lambda: AnnularDomain(Circle((0, 0), 2.0), Circle((0, 0), 1.0)),
            lambda: AnnularDomain(Circle((0, 0), 2.0), Circle((0.4, 0), 1.0)),
            ellipse_rectangle_member,
        ],
        ids=["shell", "eccentric", "ellipse"],
    )
    def test_report_equals_serial_composition(self, make_domain):
        beta, quad = 1.0, (256, 64)
        report = chain_certificate(make_domain(), beta, n_r=16, n_a=64, quad_level=quad)
        # the legs one after the other, on a fresh domain (no memoised mesh)
        dom = make_domain()
        r1, r2, _ = class_s_data(dom)
        radial = solve_shell(2, r1, r2, beta)
        fem = solve_domain(dom, beta, 16, 64)
        web = build_web(dom, radial)
        parts, value = rayleigh_quotient(web, beta, quad, allow_uncertified=True)
        serial = web.report() | {
            "rayleigh": value,
            "rayleigh_parts": parts,
            "lambda_fem": fem.lam,
            "lambda_shell": radial.lam,
            "fem_tolerance": 2e-3 * fem.lam,
        }
        assert {key: report[key] for key in serial} == serial

    def test_fem_solve_runs_on_the_calling_thread(self, monkeypatch):
        solve_threads = []

        def recording_solve(*args):
            solve_threads.append(threading.get_ident())
            return solve_domain(*args)

        monkeypatch.setattr(webfunc, "solve_domain", recording_solve)
        chain_certificate(SHELL_DOMAIN, 1.0, n_r=16, n_a=64, quad_level=(64, 32))
        assert solve_threads == [threading.get_ident()]

    def test_fem_error_wins_over_web_error(self, monkeypatch):
        def failing_solve(*args):
            raise SolverError("fem leg")

        def failing_web(*args):
            raise InvalidWebError("web leg")

        monkeypatch.setattr(webfunc, "solve_domain", failing_solve)
        monkeypatch.setattr(webfunc, "build_web", failing_web)
        with pytest.raises(SolverError, match="fem leg"):
            chain_certificate(SHELL_DOMAIN, 1.0, n_r=16, n_a=64)

    def test_web_error_waits_for_the_fem_solve(self, monkeypatch):
        finished = []

        def slow_solve(*args):
            time.sleep(0.2)
            finished.append(True)
            return solve_domain(*args)

        def failing_web(*args):
            raise InvalidWebError("web leg")

        monkeypatch.setattr(webfunc, "solve_domain", slow_solve)
        monkeypatch.setattr(webfunc, "build_web", failing_web)
        threads = threading.active_count()
        with pytest.raises(InvalidWebError, match="web leg"):
            chain_certificate(SHELL_DOMAIN, 1.0, n_r=16, n_a=64)
        assert finished == [True]
        assert threading.active_count() == threads
