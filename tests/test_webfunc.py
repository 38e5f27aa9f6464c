import dataclasses
import json
import math
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from annulus_spectra import webfunc
from annulus_spectra.analysis import standard_family
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
    _quad_grid,
    _sublevel_area,
    build_web,
    chain_certificate,
    chain_checks,
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


class TestRayleighQuotient:
    def test_shell_identity(self):
        rad = solve_shell(2, 1.0, 2.0, 1.0)
        web = build_web(SHELL_DOMAIN, rad)
        _, value = rayleigh_quotient(web, 1.0, quad_level=(2048, 128))
        assert value == pytest.approx(rad.lam, rel=1e-6)

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
        web = make_web()
        parts, value = rayleigh_quotient(web, 0.7, quad_level=(96, 160), allow_uncertified=True)
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

    def test_fem_solve_runs_off_the_calling_thread(self, monkeypatch):
        solve_threads = []

        def recording_solve(*args):
            solve_threads.append(threading.get_ident())
            return solve_domain(*args)

        monkeypatch.setattr(webfunc, "solve_domain", recording_solve)
        chain_certificate(SHELL_DOMAIN, 1.0, n_r=16, n_a=64, quad_level=(64, 32))
        assert len(solve_threads) == 1 and solve_threads[0] != threading.get_ident()

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
