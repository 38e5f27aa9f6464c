import dataclasses
import json
import math
import threading
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from annulus_spectra import webfunc
from annulus_spectra.analysis import eccentric_family, standard_family
from annulus_spectra.errors import (
    AnnulusError,
    InfeasibleError,
    InvalidWebError,
    NumericalError,
    RangeError,
    SolverError,
)
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
    _level_lengths,
    build_web,
    chain_certificate,
    chain_checks,
    rayleigh_quotient,
)

EPS = np.finfo(float).eps
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
        web = build_web(SHELL_DOMAIN, 1.0)
        assert web.split_s == web.radial.r_bar - 1.0
        assert web.split_area_rel_err <= 1e-14

    def test_eccentric_area_match_oracle(self):
        dom = AnnularDomain(Circle((0, 0), 2.0), Circle((0.5, 0), 1.0))
        web = build_web(dom, 1.0)
        s, rad = web.split_s, web.radial
        target = math.pi * (rad.r_bar**2 - 1.0)
        assert sampled_sublevel_area(dom, s) == pytest.approx(target, rel=2e-2)
        # truncation by the outer boundary pushes the split outward
        assert s > rad.r_bar - 1.0

    def test_ellipse_rectangle_member(self):
        dom = ellipse_rectangle_member()
        assert abs(class_s_data(dom)[2]) <= 1e-10 * dom.area
        web = build_web(dom, 1.0)
        assert web.contained
        assert web.split_s > 0.0
        assert web.split_area_rel_err <= 1e-9

    @pytest.mark.parametrize("member, clipped", [("eccentric", True), ("ellipse_rectangle", False)])
    def test_build_web_reuses_the_split(self, member, clipped, monkeypatch):
        if member == "eccentric":
            dom = AnnularDomain(Circle((0, 0), 2.0), Circle((0.5, 0), 1.0))
        else:
            dom = ellipse_rectangle_member()
        frames, frame = [], webfunc._frame
        monkeypatch.setattr(webfunc, "_frame", lambda d: frames.append(d) or frame(d))
        web = build_web(dom, 1.0)
        assert (web.split_s > dom.gap) == clipped
        # the build makes one frame, inside the free distance as past it
        assert len(frames) == 1
        # and it serves the quotient, which makes none
        rayleigh_quotient(web, allow_uncertified=True)
        assert len(frames) == 1
        assert (web.split_s, web.split_area_rel_err) == webfunc._split(dom, web.radial)[:2]

    @pytest.mark.parametrize(
        "dom, beta, contained",
        [
            (standard_family()[1], 1.0, True),
            (standard_family()[2], 1.0, False),
            # perfbench's web_chain pair of seed 0, batch 2
            (
                AnnularDomain(
                    Circle((0, 0), 2.0),
                    Circle((-0.5976090944387527, 0.13439505242148764), 0.8693846590126947),
                ),
                3.897328650861094,
                False,
            ),
        ],
        ids=["contained", "member-2-past-the-gap", "web-chain-past-the-gap"],
    )
    def test_build_web_makes_one_coarea_pass(self, dom, beta, contained, monkeypatch):
        # the area law's Newton steps read only the hole-distance lengths, so
        # the full pass runs once, at s*, also where a split past the free
        # distance takes several steps
        passes, coarea_pass = [], webfunc._coarea_pass
        monkeypatch.setattr(
            webfunc, "_coarea_pass", lambda *args: passes.append(args[3]) or coarea_pass(*args)
        )
        web = build_web(dom, beta)
        assert web.contained == contained
        assert passes == [web.split_s]

    @pytest.mark.parametrize(
        "member, beta, s_star",
        [(6, 0.1, 1.2114871977799375), (7, 0.1, 1.1273494157548134), (7, 0.3, 0.9176639765068989)],
    )
    def test_clipping_regime_split(self, member, beta, s_star):
        # ellipse/rectangle members whose split lies past the free distance;
        # s_star solves a polar quadrature of the sublevel area about the
        # hole's reference point (bisected ray lengths, Gauss panels cut at
        # the corners, the split curve's joints and its crossings with the
        # outer curve), which shares no code with the coarea area law
        dom = standard_family()[member]
        web = build_web(dom, beta)
        assert web.split_s > dom.gap
        assert not web.contained
        assert web.split_s == pytest.approx(s_star, rel=1e-13)
        assert web.split_area_rel_err <= 1e-13

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
        web = build_web(dom, beta)
        assert dom.gap < web.split_s
        assert web.split_area_rel_err <= 1e-12

    @pytest.mark.parametrize("beta", [0.1, 0.3, 1.0, 10.0])
    @pytest.mark.parametrize("member", range(len(standard_family())))
    def test_contained_split_is_the_steiner_root(self, member, beta):
        # inside the free distance the area law is Steiner's, whose class-S
        # root r_bar - R1 starts the Newton solve, and one pass ends it there
        web = build_web(standard_family()[member], beta)
        if web.contained:
            assert web.split_s == web.radial.r_bar - web.radial.shell.r_inner
            assert web.split_area_rel_err <= 1e-14

    def test_non_class_s_rejected(self):
        dom = AnnularDomain(Ellipse((0, 0), 2.0, 1.0), Circle((0, 0), 0.5))
        with pytest.raises(InfeasibleError, match="not in class S"):
            build_web(dom, 1.0)


class TestEvaluate:
    def setup_method(self):
        self.web = build_web(SHELL_DOMAIN, 1.0)
        self.rad = self.web.radial

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
    theta = 2.0 * math.pi * np.arange(n) / n
    u = np.column_stack([np.cos(theta), np.sin(theta)])
    pts = dom.inner.support_point(u) + web.split_s * u
    pts = pts[dom.outer.contains(pts, tol=-1e-12 * dom.outer.scale)]
    inside = rad.value(min(rad.shell.r_inner + web.split_s, rad.r_bar))
    outer = rad.value(np.maximum(rad.shell.r_outer - dom.outer.distance(pts), rad.r_bar))
    return float(np.max(np.abs(inside - outer)))


FAMILY = standard_family()


class TestInterfaceJump:
    @staticmethod
    def web(member, beta):
        return build_web(FAMILY[member], beta)

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
            web = build_web(SHELL_DOMAIN, beta)
            _, value, _ = rayleigh_quotient(web)
            assert value == pytest.approx(web.radial.lam, rel=1e-13)

    def test_uncertified_rejected(self):
        dom = AnnularDomain(Circle((0, 0), 2.0), Circle((0.3, 0), 1.0))
        web = build_web(dom, 1.0)
        assert not web.certified  # the jump is a real feature of the construction
        with pytest.raises(InvalidWebError):
            rayleigh_quotient(web)

    def test_eccentric_chain_sandwich(self):
        dom = AnnularDomain(Circle((0, 0), 2.0), Circle((0.3, 0), 1.0))
        web = build_web(dom, 1.0)
        _, value, _ = rayleigh_quotient(web, allow_uncertified=True)
        fem = solve_domain(dom, 1.0, 48, 192)
        assert fem.lam <= value + 2e-3 * fem.lam
        assert value <= 1.02 * web.radial.lam


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
    return build_web(eccentric_family()[member], beta)


class TestCoareaQuotient:
    @pytest.mark.parametrize("member, beta", [(1, 1.0), (3, 1.0), (5, 1.0), (4, 10.0)])
    def test_matches_polar_oracle(self, member, beta):
        web = family_web(member, beta)
        # both boundary branches: only member 1 keeps the inner piece off
        # the outer circle
        b = web.domain.inner.radius + web.split_s
        e = math.dist(web.domain.inner.center, web.domain.outer.center)
        assert (b > web.domain.outer.radius - e) == (member != 1)
        _, value, _ = rayleigh_quotient(web, allow_uncertified=True)
        assert value == pytest.approx(polar_oracle(web, beta), rel=1e-9)

    @pytest.mark.parametrize("member, beta, expected", REFERENCE_RAYLEIGH)
    def test_reference_values(self, member, beta, expected):
        _, value, _ = rayleigh_quotient(family_web(member, beta), allow_uncertified=True)
        assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("member", range(6))
    def test_computed_error_is_small(self, member):
        for beta in (0.1, 1.0, 10.0):
            web = family_web(member, beta)
            _, value, error = rayleigh_quotient(web, allow_uncertified=True)
            assert 0.0 <= error <= 1e-10 * value

    def test_quad_level_is_not_read(self):
        # chain_certificate still accepts the deleted grid's cell counts
        dom = eccentric_family()[3]
        assert chain_certificate(dom, 1.0, 16, 64, (8, 8)) == chain_certificate(dom, 1.0, 16, 64)

    def test_every_member_reports_its_error(self):
        dom = ellipse_rectangle_member()
        report = chain_certificate(dom, 1.0, n_r=16, n_a=64)
        assert 0.0 <= report["rayleigh_error"] <= 1e-10 * report["rayleigh"]
        # both rules report the same three parts
        circle_report = chain_certificate(SHELL_DOMAIN, 1.0, n_r=16, n_a=64)
        assert report["rayleigh_parts"].keys() == circle_report["rayleigh_parts"].keys() == {
            "gradient", "boundary", "mass"
        }
        assert [check.context["rayleigh_error"] for check in chain_checks(report)] == [
            report["rayleigh_error"]
        ] * 2


def bisect(f, lo, hi, steps=60):
    """Roots of the vectorized f from brackets [lo, hi] with a sign change."""
    low = f(lo) < 0.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        right = (f(mid) < 0.0) == low
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    return 0.5 * (lo + hi)


# geometric steps toward a polygon hole's corners, in angle and along rays
CORNER_GRADING = 8


def crossings(f, lo, hi, scan=129, steps=12):
    """Roots of the vectorized f on [lo, hi], bracketed on a scan and
    polished by the Illinois variant of regula falsi."""
    x = np.linspace(lo, hi, scan)
    y = f(x)
    k = np.flatnonzero((y[:-1] < 0.0) != (y[1:] < 0.0))
    a, b, fa, fb = x[k], x[k + 1], y[k], y[k + 1]
    for _ in range(steps):
        with np.errstate(invalid="ignore", divide="ignore"):
            m = np.where(fb != fa, b - fb * (b - a) / (fb - fa), b)
        fm = f(m)
        same = (fm < 0.0) == (fb < 0.0)
        a, fa = np.where(same, a, b), np.where(same, 0.5 * fa, fb)
        b, fb = m, fm
    return b


def level_set_oracle(web, beta, panels=8, n=16):
    """R(w) of a web in an ellipse by nested Gauss-Legendre panels in polar
    coordinates about the hole's reference point c, with w and |grad w|
    read through web._profile at the points.

    Each ray breaks where d_i reaches s* and d_o reaches R2 - r_bar, both
    bisected along the ray, and ends at the outer curve, past the split
    curve where that leaves the ellipse.  On a polygon hole it also breaks
    where it crosses the edge-normal lines from the vertices (there the
    nearest hole point switches between an edge and a vertex), and theta
    breaks at the hole's corners and the split curve's joints seen from c.
    A corner is a cone point of d_i: a ray passing at distance delta from
    it sees sqrt((r - r_c)^2 + delta^2), so rays are graded geometrically
    away from their closest approach r_c, and theta toward each corner's
    direction.  theta also breaks where the split curve crosses {d_o = R2 -
    r_bar} and the outer curve.  The boundary term runs over the ellipse's
    parameter, broken where d_i there reaches s* and r_bar - R1 and where
    the normal lines from a polygon's vertices leave the ellipse.
    """
    dom, rad = web.domain, web.radial
    hole, outer, c = dom.inner, dom.outer, dom.center
    s_star, top = web.split_s, rad.shell.r_outer - rad.r_bar
    polygon = isinstance(hole, PolygonCurve)

    def rays(theta):
        u = np.column_stack([np.cos(theta), np.sin(theta)])
        return u, hole.ray_length(c, u), outer.ray_length(c, u)

    plateau = rad.r_bar - rad.shell.r_inner  # the inner piece's plateau depth, <= s*

    def radius(u, r_in, r_out, level):
        return bisect(lambda r: hole.distance(c + r[:, None] * u) - level, r_in, r_out)

    def over_top(theta):
        u, r_in, r_out = rays(theta)
        return outer.distance(c + radius(u, r_in, r_out, s_star)[:, None] * u) - top

    def past_outer(level):
        def depth_at_exit(theta):
            u, _, r_out = rays(theta)
            return hole.distance(c + r_out[:, None] * u) - level
        return crossings(depth_at_exit, 0.0, 2.0 * math.pi)

    cuts = [np.linspace(0.0, 2.0 * math.pi, panels + 1), crossings(over_top, 0.0, 2.0 * math.pi)]
    cuts += [past_outer(s_star), past_outer(plateau)]
    if polygon:
        v = hole.polygon.vertices
        normal, _ = hole.polygon.edge_normals_offsets()
        normals = np.vstack([normal, np.roll(normal, 1, axis=0)])
        feet = np.vstack([v, v])
        # where the normal lines leave the ellipse
        exits = feet + np.array([outer.ray_length(p, q) for p, q in zip(feet, normals)])[:, None] * normals
        ends = np.vstack([v, exits, feet + s_star * normals, feet + plateau * normals])
        cuts.append(np.arctan2(ends[:, 1] - c[1], ends[:, 0] - c[0]))
        corner = np.arctan2(v[:, 1] - c[1], v[:, 0] - c[0])[:, None]
        step = 2.0 * math.pi / panels * 0.5 ** np.arange(1, CORNER_GRADING + 1)
        cuts.append(np.ravel(corner + np.concatenate([step, -step])))
    theta, w_theta = gauss_panels(np.unique(np.append(np.concatenate(cuts) % (2.0 * math.pi), 2.0 * math.pi)), n)
    theta, w_theta = theta.ravel(), w_theta.ravel()

    u, r_in, r_out = rays(theta)
    assert np.all(outer.distance(c + r_in[:, None] * u) > top)  # one d_o break per ray
    breaks = [r_in, r_out, radius(u, r_in, r_out, s_star), radius(u, r_in, r_out, plateau)]
    breaks.append(bisect(lambda r: outer.distance(c + r[:, None] * u) - top, r_in, r_out))
    if polygon:
        dv = feet - c
        with np.errstate(divide="ignore"):
            # c + r u = v + lambda nrm, solved for r
            r = _cross_rows(dv, normals) / (u[:, :1] * normals[:, 1] - u[:, 1:] * normals[:, 0])
        breaks.extend(np.clip(r, r_in[:, None], r_out[:, None]).T)
        # graded away from the closest approach to the nearest corner
        closest, miss = u @ (v - c).T, np.abs(u[:, :1] * (v - c)[:, 1] - u[:, 1:] * (v - c)[:, 0])
        k = np.argmin(np.where(closest > 0.0, miss, np.inf), axis=1)
        near, miss = closest[np.arange(len(u)), k], miss[np.arange(len(u)), k]
        for scale in 2.0 ** np.arange(CORNER_GRADING):
            breaks.append(np.clip(near + scale * miss, r_in, r_out))
    r, w_r = gauss_panels(np.sort(np.column_stack(breaks), axis=1), n)
    pts = (c + r[..., None] * u[:, None, None, :]).reshape(-1, 2)
    w, g = web._profile(hole.distance(pts), outer.distance(pts))
    area = (w_theta[:, None, None] * w_r * r).ravel()

    def rim(t):
        return outer._c() + np.column_stack([outer.a * np.cos(t), outer.b * np.sin(t)])

    t_cuts = [np.linspace(0.0, 2.0 * math.pi, panels + 1)]
    for level in (s_star, rad.r_bar - rad.shell.r_inner):
        t_cuts.append(crossings(lambda t: hole.distance(rim(t)) - level, 0.0, 2.0 * math.pi, 1025))
    if polygon:
        t_cuts.append(np.arctan2((exits[:, 1] - outer.center[1]) / outer.b,
                                 (exits[:, 0] - outer.center[0]) / outer.a))
    t, w_t = gauss_panels(np.unique(np.append(np.concatenate(t_cuts) % (2.0 * math.pi), 2.0 * math.pi)), n)
    t, w_t = t.ravel(), w_t.ravel()
    speed = np.hypot(outer.a * np.sin(t), outer.b * np.cos(t))
    boundary = float(np.sum(w_t * web.evaluate(rim(t)) ** 2 * speed))
    return (float(np.sum(area * g * g)) + beta * boundary) / float(np.sum(area * w * w))


def _cross_rows(p, q):
    return p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]


def ellipse_hole_member(offset=(0.0, 0.0)):
    outer, shape = Ellipse((0, 0), 2.0, 1.6), Ellipse((0, 0), 1.0, 0.6)
    hole = shape.scaled(scale_hole_to_class_s(outer, shape)).translated(offset)
    return AnnularDomain(outer, hole)


LEVEL_SET_CASES = {
    "member6-1": (lambda: FAMILY[6], 1.0),
    "member6-10": (lambda: FAMILY[6], 10.0),
    "member7-1": (lambda: FAMILY[7], 1.0),
    "member7-10": (lambda: FAMILY[7], 10.0),
    # a disk written as an ellipse, so that the foot-point Newton solve runs
    "circle-hole": (
        lambda: AnnularDomain(Ellipse((0, 0), 2.0, 2.0), Circle((0.1, 0.05), 1.0)), 1.0
    ),
    "ellipse-hole": (ellipse_hole_member, 1.0),
    "ellipse-hole-off-centre": (lambda: ellipse_hole_member((0.1, 0.05)), 10.0),
    # splits past the free distance, where the split curve leaves the ellipse
    "member6-0.1": (lambda: FAMILY[6], 0.1),
    "member7-0.1": (lambda: FAMILY[7], 0.1),
    "member7-0.3": (lambda: FAMILY[7], 0.3),
}


def level_set_web(case):
    make_domain, beta = LEVEL_SET_CASES[case]
    return build_web(make_domain(), beta), beta


def sampled_level_length(web, t, n=1 << 16):
    """Length of {d_o = t} outside K + s*B on n chords of the parallel
    curve gamma - t nu, each crossing placed by linear interpolation of
    d_i - s* between the chord's ends."""
    outer, hole = web.domain.outer, web.domain.inner
    theta = 2.0 * math.pi * np.arange(n + 1) / n
    cos, sin = np.cos(theta), np.sin(theta)
    nu = np.column_stack([outer.b * cos, outer.a * sin])
    nu /= np.hypot(*nu.T)[:, None]
    pts = outer._c() + np.column_stack([outer.a * cos, outer.b * sin]) - t * nu
    g = np.where(hole.contains(pts), -web.split_s, hole.distance(pts) - web.split_s)
    chord = np.hypot(*np.diff(pts, axis=0).T)
    out = np.where(
        (g[:-1] > 0.0) == (g[1:] > 0.0),
        (g[:-1] > 0.0).astype(float),
        np.maximum(g[:-1], g[1:]) / np.abs(g[1:] - g[:-1]),
    )
    return float(np.sum(chord * out))


class TestLevelSetQuotient:
    @pytest.mark.parametrize("case", sorted(LEVEL_SET_CASES))
    def test_matches_polar_oracle(self, case):
        web, beta = level_set_web(case)
        assert web.contained == ("-0." not in case)
        _, value, _ = rayleigh_quotient(web, allow_uncertified=True)
        assert value == pytest.approx(level_set_oracle(web, beta), rel=1e-11)

    @pytest.mark.parametrize("case", sorted(LEVEL_SET_CASES))
    def test_computed_error_is_small(self, case):
        web, beta = level_set_web(case)
        _, value, error = rayleigh_quotient(web, allow_uncertified=True)
        assert 0.0 <= error <= 1e-10 * value

    @pytest.mark.parametrize(
        "member, beta, expected",
        [
            (6, 1.0, 2.193652743096937),
            (6, 10.0, 4.735672299115435),
            (7, 1.0, 4.066625989327172),
            (7, 10.0, 8.970275531353909),
        ],
    )
    def test_scalar_root_values(self, member, beta, expected):
        # values of a separate implementation of the same rule that found
        # every crossing by scalar brentq
        web = build_web(FAMILY[member], beta)
        _, value, _ = rayleigh_quotient(web, allow_uncertified=True)
        assert value == pytest.approx(expected, abs=1e-8)

    def test_disk_as_ellipse_matches_the_circle_pair_rule(self):
        # the same rule on the Circle, whose distance and foot parameter
        # are closed-form; each web is built on its own domain, as the
        # build makes the quotient's integrals
        web, beta = level_set_web("circle-hole")
        circle = build_web(AnnularDomain(Circle((0, 0), 2.0), web.domain.inner), beta)
        assert circle.split_s == pytest.approx(web.split_s, rel=1e-13)
        _, value, _ = rayleigh_quotient(web, allow_uncertified=True)
        assert value == pytest.approx(
            rayleigh_quotient(circle, allow_uncertified=True)[1], rel=1e-13
        )

    def test_a_run_past_the_plateau_depth_is_cut_at_its_peak(self, monkeypatch):
        tangencies, peaks = webfunc._tangencies, []

        def counted(*args, **kwargs):
            peaks.append(args)
            return minimize_scalar(*args, **kwargs)

        def keeping(keep):
            return lambda *args: (lambda sigma: sigma[keep(sigma)])(tangencies(*args))

        monkeypatch.setattr(webfunc, "minimize_scalar", counted)
        # the off-centre ellipse hole's split curve has its three tangencies
        # past sigma = 0.3 all deeper than R2 - r_bar; without them one run
        # rises past that depth and falls back, and bounded Brent finds its
        # peak
        web, beta = level_set_web("ellipse-hole-off-centre")
        _, value, _ = rayleigh_quotient(web, allow_uncertified=True)
        monkeypatch.setattr(webfunc, "_tangencies", keeping(lambda sigma: sigma < 0.3))
        web, beta = level_set_web("ellipse-hole-off-centre")
        _, cut, _ = rayleigh_quotient(web, allow_uncertified=True)
        assert len(peaks) == 1
        assert cut == pytest.approx(value, rel=1e-13)
        # member 6's moved long edges (pieces 1 and 5) peak at depth 0.429,
        # short of R2 - r_bar = 0.451 at beta = 1: a missed extremum there
        # cannot be cut away
        monkeypatch.setattr(
            webfunc, "_tangencies",
            keeping(lambda sigma: (np.floor(sigma) % 4 != 1) | (sigma % 1.0 == 0.0)),
        )
        with pytest.raises(NumericalError, match="unresolved extremum"):
            rayleigh_quotient(level_set_web("member6-1")[0], allow_uncertified=True)

    def test_shell_written_as_an_ellipse_keeps_the_shell_identity(self):
        # the split curve sits at one depth, where no tangency is isolated
        dom = AnnularDomain(Ellipse((0, 0), 2.0, 2.0), Circle((0, 0), 1.0))
        web = build_web(dom, 1.0)
        _, value, _ = rayleigh_quotient(web)
        assert value == pytest.approx(web.radial.lam, rel=1e-13)

    @pytest.mark.parametrize("case", ["member7-10", "ellipse-hole-off-centre", "member7-0.1"])
    def test_level_lengths_match_sampled_chords(self, case):
        web, _ = level_set_web(case)
        frame, s_star = webfunc._frame(web.domain), web.split_s
        top = web.radial.shell.r_outer - web.radial.r_bar
        depths = web.domain.outer.foot(frame.walk(frame.nodes, s_star)[0])[1]
        breaks = depths[(depths > 0.0) & (depths < top)]
        # just past each break, where arcs are born at a tangency or pass a joint
        t = np.sort(np.concatenate([np.linspace(0.02, 0.98, 9) * top, breaks + 1e-3 * top]))
        t = t[t < top]
        sampled = [sampled_level_length(web, level) for level in t]
        lengths = _level_lengths(frame, web.domain, np.full(len(t), s_star), t)[1]
        assert lengths == pytest.approx(sampled, rel=1e-7)

    @pytest.mark.parametrize("case", ["member6-0.1", "member7-0.1", "ellipse-hole-off-centre"])
    def test_inner_lengths_match_sampled_chords(self, case):
        # P_i(s), the length of the boundary of K + sB inside the ellipse,
        # on chords of that boundary's support points plus s u
        web, _ = level_set_web(case)
        dom, frame = web.domain, webfunc._frame(web.domain)
        s = np.linspace(0.05, 1.0, 6) * web.split_s
        theta = 2.0 * math.pi * np.arange((1 << 16) + 1) / (1 << 16)
        u = np.column_stack([np.cos(theta), np.sin(theta)])
        axes = np.array([dom.outer.a, dom.outer.b])
        sampled = []
        for depth in s:
            pts = (dom.inner.support_point(u) + depth * u - dom.outer.center) / axes
            # each chord p + lam (q - p) is inside the ellipse, the unit disk
            # here, between the roots of a quadratic in lam
            p, d = pts[:-1], np.diff(pts, axis=0)
            a, b, c = np.sum(d * d, axis=1), np.sum(p * d, axis=1), np.sum(p * p, axis=1) - 1.0
            root = np.sqrt(np.maximum(b * b - a * c, 0.0))
            share = np.clip((root - b) / a, 0.0, 1.0) - np.clip((-root - b) / a, 0.0, 1.0)
            sampled.append(float(np.sum(share * np.hypot(*(d * axes).T))))
        lengths = _level_lengths(frame, dom, s, np.zeros(len(s)))[0]
        assert lengths == pytest.approx(sampled, rel=1e-7)
        full = dom.inner.perimeter() + 2.0 * math.pi * s
        assert np.all(lengths <= full * (1.0 + 1e-15))
        assert (lengths < full * (1.0 - 1e-9)).tolist() == (s > dom.gap).tolist()

    def test_polygon_outer_is_out_of_range(self):
        outer = PolygonCurve(ConvexPolygon.regular(6, 2.0))
        shape = PolygonCurve(ConvexPolygon.rectangle(1.0, 0.1))
        dom = AnnularDomain(outer, shape.scaled(scale_hole_to_class_s(outer, shape)))
        with pytest.raises(RangeError, match="elliptic outer"):
            build_web(dom, 1.0)

    def test_band_past_the_reach_is_out_of_range(self):
        # the falling band R2 - r_bar = 0.2028 passes the reach 0.6^2 / 2
        outer, shape = Ellipse((0, 0), 2.0, 0.6), Ellipse((0, 0), 1.0, 0.05)
        dom = AnnularDomain(outer, shape.scaled(scale_hole_to_class_s(outer, shape)))
        radial = solve_shell(2, *class_s_data(dom)[:2], 10.0)
        assert radial.r_bar - radial.shell.r_inner < dom.gap
        with pytest.raises(RangeError, match=r"falling band R2 - r_bar 0\.2028\d* >= the outer reach 0\.18"):
            build_web(dom, 10.0)



# R(w) at 32 nodes per panel on standard_family() members 0-5, the circle
# pairs, as the circle-pair rule gave them before every web in an ellipse
# took one coarea rule
CIRCLE_PAIR_RAYLEIGH = {
    (0, 0.1): 2.0681294793185527, (0, 0.3): 2.475413621391993,
    (0, 1.0): 3.668306023317742, (0, 10.0): 8.050234711949228,
    (1, 0.1): 2.0680234696145705, (1, 0.3): 2.4741465864829904,
    (1, 1.0): 3.6658799508785265, (1, 10.0): 8.037677631090538,
    (2, 0.1): 2.0499527742373935, (2, 0.3): 2.467433318410739,
    (2, 1.0): 3.640608514164796, (2, 10.0): 7.7518445273785,
    (3, 0.1): 1.9718137929381787, (3, 0.3): 2.3933198637709707,
    (3, 1.0): 3.654630630189888, (3, 10.0): 6.967646625214105,
    (4, 0.1): 1.805859969616917, (4, 0.3): 2.21258403235675,
    (4, 1.0): 3.4512853272347632, (4, 10.0): 10.115181357752302,
    (5, 0.1): 1.5517498435655692, (5, 0.3): 1.9224562264851552,
    (5, 1.0): 3.0502485785395246, (5, 10.0): 9.360519031468135,
}


@pytest.mark.parametrize("beta", [0.1, 0.3, 1.0, 10.0])
@pytest.mark.parametrize("member", range(len(FAMILY)))
def test_every_family_member_answers(member, beta):
    # members 6 and 7 at beta 0.1, and 7 at 0.3, split past the free
    # distance; every row now answers with a computed error
    report = chain_certificate(FAMILY[member], beta, n_r=16, n_a=64)
    assert 0.0 <= report["rayleigh_error"] <= 1e-10 * report["rayleigh"]
    assert report["split_area_rel_err"] <= 1e-13
    if (member, beta) in CIRCLE_PAIR_RAYLEIGH:
        assert report["rayleigh"] == pytest.approx(CIRCLE_PAIR_RAYLEIGH[member, beta], rel=1e-12)


def _quarter_turn(domain):
    """The member turned by 90 degrees about the origin: a tall outer
    ellipse (a < b) and the rectangle's vertices and the centre turned."""
    turn = lambda p: np.asarray(p) @ np.array([[0.0, 1.0], [-1.0, 0.0]])  # (x, y) -> (-y, x)
    outer = domain.outer
    return AnnularDomain(
        Ellipse(turn(outer.center), outer.b, outer.a),
        PolygonCurve(ConvexPolygon(turn(domain.inner.polygon.vertices))),
        center=turn(domain.center),
    )


@pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("member", [6, 7])
def test_tall_ellipse_member_matches_the_wide_one(member, beta):
    # the a < b branch of the arc length and normal angle
    wide, tall = FAMILY[member], _quarter_turn(FAMILY[member])
    assert tall.outer.a < tall.outer.b
    webs = [build_web(dom, beta) for dom in (wide, tall)]
    assert webs[1].split_s == pytest.approx(webs[0].split_s, rel=1e-13)
    assert tall.gap == pytest.approx(wide.gap, rel=1e-13)
    values = [rayleigh_quotient(web, allow_uncertified=True)[1] for web in webs]
    assert values[1] == pytest.approx(values[0], rel=1e-13)


def test_seeded_class_s_draws_answer_or_raise_typed(rng):
    # rotated, off-centre rectangle holes scaled into class S in ellipses
    # (2, b) at log-uniform beta: each draw gives a finite quotient and
    # error or a typed error, and both split regimes answer.  No bound on
    # the error: near-grazing panels converge only algebraically.
    answered = []
    for _ in range(40):
        b, beta = rng.uniform(1.0, 1.9), math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        (width, height), angle = rng.uniform(0.2, 1.5, 2), rng.uniform(0.0, math.pi)
        offset = rng.uniform(-0.3, 0.3, 2)
        turn = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        shape = PolygonCurve(ConvexPolygon(ConvexPolygon.rectangle(width, height).vertices @ turn.T))
        outer = Ellipse((0.0, 0.0), 2.0, b)
        try:
            hole = shape.scaled(scale_hole_to_class_s(outer, shape)).translated(offset)
            web = build_web(AnnularDomain(outer, hole), beta)
            _, value, error = rayleigh_quotient(web, allow_uncertified=True)
        except AnnulusError:
            continue
        assert math.isfinite(value) and math.isfinite(error)
        answered.append(web.contained)
    assert set(answered) == {True, False}


def _scaled_curve(curve, factor):
    """The curve with its points (centre included) scaled about the origin."""
    if isinstance(curve, PolygonCurve):
        return PolygonCurve(ConvexPolygon(curve.polygon.vertices * factor))
    center = tuple(np.asarray(curve.center) * factor)
    if isinstance(curve, Circle):
        return Circle(center, curve.radius * factor)
    return Ellipse(center, curve.a * factor, curve.b * factor)


def test_web_quotient_is_covariant_under_power_of_two_scaling():
    # scaling the domain by 2^k and beta by 2^-k scales R(w) by 2^-2k; the
    # frame's exits once read the normal off a unit step, lost to rounding
    # from 2^60 up
    for member, dom in enumerate(FAMILY):
        for beta in (1.0, 10.0):
            expected = rayleigh_quotient(build_web(dom, beta), allow_uncertified=True)[1]
            for k in (-200, -60, 40, 60, 100, 200):
                s = math.ldexp(1.0, k)
                outer, inner = _scaled_curve(dom.outer, s), _scaled_curve(dom.inner, s)
                web = build_web(AnnularDomain(outer, inner, dom.center * s), beta / s)
                value = rayleigh_quotient(web, allow_uncertified=True)[1] * s * s
                assert abs(value - expected) <= 16.0 * EPS * expected, (member, beta, k)


class TestBuildWebRange:
    def test_polygon_outer_past_the_gap(self):
        # the square's split r_bar - R1 = 0.524 passes its gap 0.382
        outer = PolygonCurve(ConvexPolygon.regular(6, 2.0))
        shape = PolygonCurve(ConvexPolygon.rectangle(1.0, 1.0))
        dom = AnnularDomain(outer, shape.scaled(scale_hole_to_class_s(outer, shape)))
        radial = solve_shell(2, *class_s_data(dom)[:2], 1.0)
        assert radial.r_bar - radial.shell.r_inner > dom.gap
        with pytest.raises(RangeError, match="the web's coarea rule needs an elliptic outer curve"):
            build_web(dom, 1.0)

    def test_contained_polygon_outer_is_refused_before_the_split(self, monkeypatch):
        # the rectangle's split r_bar - R1 stays inside its free distance in
        # the hexagon, and the build refuses it before the shell solve
        outer = PolygonCurve(ConvexPolygon.regular(6, 2.0))
        shape = PolygonCurve(ConvexPolygon.rectangle(1.0, 0.1))
        dom = AnnularDomain(outer, shape.scaled(scale_hole_to_class_s(outer, shape)))
        radial = solve_shell(2, *class_s_data(dom)[:2], 1.0)
        assert radial.r_bar - radial.shell.r_inner < dom.gap
        calls = []
        monkeypatch.setattr(webfunc, "solve_shell", lambda *args: calls.append(args))
        monkeypatch.setattr(webfunc, "_frame", lambda d: calls.append(d))
        with pytest.raises(RangeError, match="the web's coarea rule needs an elliptic outer curve"):
            build_web(dom, 1.0)
        assert calls == []

    def test_neumann_closure(self):
        with pytest.raises(RangeError, match="needs beta > 0"):
            build_web(SHELL_DOMAIN, 0.0)

    def test_infinite_beta_rejected(self):
        # the quotient is taken at the web's own beta, so the gate is here
        with pytest.raises(RangeError, match="needs beta > 0 and finite"):
            build_web(SHELL_DOMAIN, float("inf"))

    @pytest.mark.parametrize("beta", [float("nan"), -1.0])
    def test_beta_outside_the_gate_rejected(self, beta):
        with pytest.raises(RangeError, match="needs beta > 0 and finite"):
            build_web(SHELL_DOMAIN, beta)

    def test_quotient_takes_no_beta(self):
        # a leftover positional beta cannot bind to allow_uncertified
        with pytest.raises(TypeError):
            rayleigh_quotient(build_web(SHELL_DOMAIN, 1.0), 10.0)


class TestChainCertificate:
    def test_flags_read_the_checks(self):
        dom = AnnularDomain(Circle((0, 0), 2.0), Circle((0.2, 0), 1.0))
        report = chain_certificate(dom, 1.0, n_r=16, n_a=64)
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
        report = chain_certificate(dom, 1.0, n_r=32, n_a=128)
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
        beta = 1.0
        report = chain_certificate(make_domain(), beta, n_r=16, n_a=64)
        # the legs one after the other, on a fresh domain (no memoised mesh)
        dom = make_domain()
        fem = solve_domain(dom, beta, 16, 64)
        web = build_web(dom, beta)
        parts, value, _ = rayleigh_quotient(web, allow_uncertified=True)
        serial = web.report() | {
            "rayleigh": value,
            "rayleigh_parts": parts,
            "lambda_fem": fem.lam,
            "lambda_shell": web.radial.lam,
            "fem_tolerance": 2e-3 * fem.lam,
        }
        assert {key: report[key] for key in serial} == serial

    def test_fem_solve_runs_on_the_calling_thread(self, monkeypatch):
        solve_threads = []

        def recording_solve(*args):
            solve_threads.append(threading.get_ident())
            return solve_domain(*args)

        monkeypatch.setattr(webfunc, "solve_domain", recording_solve)
        chain_certificate(SHELL_DOMAIN, 1.0, n_r=16, n_a=64)
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
