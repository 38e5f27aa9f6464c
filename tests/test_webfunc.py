import math
from types import SimpleNamespace

import numpy as np
import pytest

from annulus_spectra.errors import DomainError, InfeasibleError, InvalidWebError, RangeError
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
    _quad_grid,
    build_web,
    chain_certificate,
    comparison_curves,
    evaluate_w,
    find_split,
    rayleigh_quotient,
    write_comparison_csv,
    write_web_report,
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
    mask = np.atleast_1d(domain.contains(pts))
    inside = pts[mask]
    count = np.count_nonzero(domain.inner.distance(inside) < s_star)
    return count * cell


class TestFindSplit:
    def test_shell_split_is_critical_width(self):
        rad = solve_shell(2, 1.0, 2.0, 1.0)
        s = find_split(SHELL_DOMAIN, rad)
        assert s == rad.r_bar - 1.0

    def test_eccentric_area_match_oracle(self):
        rad = solve_shell(2, 1.0, 2.0, 1.0)
        dom = AnnularDomain(Circle((0, 0), 2.0), Circle((0.5, 0), 1.0))
        s = find_split(dom, rad)
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

    def test_wrong_shell_rejected(self):
        rad = solve_shell(2, 1.0, 1.9, 1.0)
        with pytest.raises(InfeasibleError):
            find_split(SHELL_DOMAIN, rad)

    def test_non_class_s_rejected(self):
        rad = solve_shell(2, 0.5, 2.0, 1.0)
        dom = AnnularDomain(Ellipse((0, 0), 2.0, 1.0), Circle((0, 0), 0.5))
        with pytest.raises(InfeasibleError):
            find_split(dom, rad)


class TestEvaluate:
    def setup_method(self):
        self.rad = solve_shell(2, 1.0, 2.0, 1.0)
        self.web = build_web(SHELL_DOMAIN, self.rad)

    def test_boundary_values(self):
        assert evaluate_w(self.web, (2.0, 0.0)) == pytest.approx(self.rad.v_m, rel=1e-12)
        assert evaluate_w(self.web, (0.0, 1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_shell_reproduces_profile(self):
        for r in (1.1, 1.4, self.rad.r_bar, 1.9):
            assert evaluate_w(self.web, (r, 0.0)) == pytest.approx(
                float(self.rad.value(r)), rel=1e-12
            )

    def test_range_bounds(self, rng):
        radii = rng.uniform(1.0, 2.0, 500)
        angles = rng.uniform(0.0, 2.0 * math.pi, 500)
        pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        vals = self.web.evaluate(pts)
        assert np.all(vals >= -1e-14)
        assert np.all(vals <= self.rad.v_M * (1.0 + 1e-12))

    def test_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            evaluate_w(self.web, (3.0, 0.0))
        with pytest.raises(DomainError):
            evaluate_w(self.web, (0.2, 0.0))

    def test_certificate_on_shell(self):
        assert self.web.certified
        assert self.web.interface_jump == 0.0


class TestRayleighQuotient:
    def test_shell_identity(self):
        rad = solve_shell(2, 1.0, 2.0, 1.0)
        web = build_web(SHELL_DOMAIN, rad)
        _, value = rayleigh_quotient(web, 1.0, quad_level=512 * 512)
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


class TestComparisonCurves:
    def test_shell_equalities(self):
        rad = solve_shell(2, 1.0, 2.0, 1.0)
        web = build_web(SHELL_DOMAIN, rad)
        table = comparison_curves(web, 12)
        v = table.max_violations()
        assert v["inner_measure"] <= 1e-5
        assert v["outer_measure"] <= 1e-5
        assert v["perimeter"] <= 1e-5
        # all four measures agree on the shell
        assert np.allclose(table.mu_i, table.eta_i, atol=1e-5)
        mask = ~np.isnan(table.perim_e)
        assert np.allclose(table.mu_o, table.eta_o, atol=2e-5)
        assert np.allclose(table.perim_e[mask], table.perim_f[mask], atol=1e-4)

    def test_zero_level_measures_outer_piece(self):
        rad = solve_shell(2, 1.0, 2.0, 1.0)
        web = build_web(SHELL_DOMAIN, rad)
        table = comparison_curves(web, 12)
        m_o = SHELL_DOMAIN.area - math.pi * (rad.r_bar**2 - 1.0)
        assert table.mu_o[0] == pytest.approx(m_o, rel=1e-5)
        assert table.eta_o[0] == pytest.approx(math.pi * (4.0 - rad.r_bar**2), rel=1e-12)

    def test_eccentric_measure_comparisons(self):
        rad = solve_shell(2, 1.0, 2.0, 1.0)
        dom = AnnularDomain(Circle((0, 0), 2.0), Circle((0.3, 0), 1.0))
        web = build_web(dom, rad)
        table = comparison_curves(web, 12)
        v = table.max_violations()
        assert v["inner_measure"] <= 1e-5
        assert v["outer_measure"] <= 1e-5
        # the perimeter comparison relies on convexity of the glued
        # superlevel sets, which genuinely fails off the shell; the
        # violation is reported rather than asserted
        assert np.isfinite(v["perimeter"])


class TestChainCertificate:
    def test_report_fields_and_chain(self, tmp_path):
        dom = AnnularDomain(Circle((0, 0), 2.0), Circle((0.2, 0), 1.0))
        report = chain_certificate(dom, 1.0, n_r=32, n_a=128, quad_level=128 * 128)
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
        path = tmp_path / "web.json"
        write_web_report(report, path)
        assert path.read_text().startswith("{")

    def test_comparison_csv(self, tmp_path):
        rad = solve_shell(2, 1.0, 2.0, 1.0)
        web = build_web(SHELL_DOMAIN, rad)
        table = comparison_curves(web, 8)
        path = tmp_path / "levels.csv"
        write_comparison_csv(table, path)
        rows = path.read_text().splitlines()
        assert rows[0].startswith("t,mu_i,eta_i")
        assert len(rows) == len(table.levels) + 1
