import dataclasses
import json
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.optimize import brentq
from scipy.special import jv, yv

from annulus_spectra import analysis, fem
from annulus_spectra.analysis import (
    InequalityReport,
    PerturbationField,
    beta_limits_check,
    eccentric_family,
    ellipse_members,
    kuttler_bounds,
    main_theorem_sweep,
    shape_derivative_fd,
    shape_derivative_fd_with_noise,
    shape_derivative_formula,
    standard_family,
)
from annulus_spectra.errors import CurvatureUnavailableError, InfeasibleError, RangeError
from annulus_spectra.fem import beta_form_value, mesh_annular, solve_domain
from annulus_spectra.geometry import (
    AnnularDomain,
    Circle,
    ConvexPolygon,
    Ellipse,
    PolygonCurve,
    ShellSpec,
    class_s_data,
)
from annulus_spectra.radial import PROFILE_RTOL, solve_shell

CONCENTRIC = AnnularDomain(Circle((0, 0), 2.0), Circle((0, 0), 1.0))
ECCENTRIC = AnnularDomain(Circle((0, 0), 2.0), Circle((0.5, 0), 1.0))


def eccentric():
    """A new domain equal to ECCENTRIC, with no memoised meshes."""
    return AnnularDomain(Circle((0, 0), 2.0), Circle((0.5, 0), 1.0))


class TestPerturbationField:
    def test_validation(self):
        with pytest.raises(RangeError):
            PerturbationField(kind="twist", target="outer")
        with pytest.raises(RangeError):
            PerturbationField(kind="translation", target="outer")
        with pytest.raises(RangeError):
            PerturbationField(kind="normal_fourier", target="both", mode=2, amplitude=0.1)
        with pytest.raises(RangeError):
            PerturbationField(kind="normal_fourier", target="outer", mode=0, amplitude=0.1)

    @pytest.mark.parametrize("mode", [2.5, 2.0, True, 0])
    def test_fourier_mode_must_be_a_whole_number(self, mode):
        # cos(2.5 theta) is not 2 pi-periodic: the polygon would jump at theta = 0
        with pytest.raises(RangeError):
            PerturbationField(kind="normal_fourier", target="outer", mode=mode, amplitude=1.0)
        assert PerturbationField(
            kind="normal_fourier", target="outer", mode=np.int64(3), amplitude=1.0
        ).mode == 3

    def test_translation_normal_component(self):
        field = PerturbationField(kind="translation", target="inner", vector=(1.0, 0.0))
        # on the hole's right pole the annulus normal points into the hole
        vn = field.velocity_normal_component(ECCENTRIC, [(1.5, 0.0)], "inner")
        assert vn[0] == pytest.approx(-1.0, abs=1e-12)
        assert field.velocity_normal_component(ECCENTRIC, [(2.0, 0.0)], "outer")[0] == 0.0

    def test_fourier_field_volume_preserving(self):
        field = PerturbationField(kind="normal_fourier", target="outer", mode=2, amplitude=0.3)
        pts = CONCENTRIC.outer.sample(4096)
        vn = field.velocity_normal_component(CONCENTRIC, pts, "outer")
        assert float(np.mean(vn)) == pytest.approx(0.0, abs=1e-12)

    def test_perturbed_domains(self):
        field = PerturbationField(kind="translation", target="inner", vector=(1.0, 0.0))
        moved = field.perturbed(ECCENTRIC, 0.05, 128)
        assert moved.inner.reference_point()[0] == pytest.approx(0.55)
        wavy = PerturbationField(kind="normal_fourier", target="outer", mode=3, amplitude=1.0)
        bumpy = wavy.perturbed(CONCENTRIC, 0.01, 64)
        assert isinstance(bumpy.outer, PolygonCurve)
        assert bumpy.inner is CONCENTRIC.inner

    def test_inner_normal_perturbation(self):
        wavy = PerturbationField(kind="normal_fourier", target="inner", mode=2, amplitude=1.0)
        bumpy = wavy.perturbed(CONCENTRIC, 0.01, 256)
        assert isinstance(bumpy.inner, PolygonCurve)
        assert bumpy.inner.area() == pytest.approx(math.pi, rel=1e-3)
        assert bumpy.outer is CONCENTRIC.outer

    @pytest.mark.parametrize("n_a", [64, 256])
    @pytest.mark.parametrize("target", ["outer", "inner"])
    def test_concentric_ring_nodes_are_the_vertices(self, target, n_a):
        # on the shell the normal is radial, so the perturbed polygon keeps
        # its vertices on the mesh rays: criterion 7's stationarity check
        # differences eigenvalues of meshes whose rings are those vertices
        wavy = PerturbationField(kind="normal_fourier", target=target, mode=2, amplitude=1.0)
        bumpy = wavy.perturbed(CONCENTRIC, 5e-3, n_a)
        poly = (bumpy.outer if target == "outer" else bumpy.inner).polygon
        nodes = mesh_annular(bumpy, 4, n_a).nodes
        ring = nodes[-n_a:] if target == "outer" else nodes[:n_a]
        assert np.max(np.abs(ring - poly.vertices)) <= 4.0 * np.finfo(float).eps * poly.scale

    def test_excessive_amplitude_rejected(self):
        wavy = PerturbationField(kind="normal_fourier", target="outer", mode=5, amplitude=1.0)
        with pytest.raises(Exception):
            wavy.perturbed(CONCENTRIC, 0.8, 64)


class TestShapeDerivative:
    def test_hole_translation_matches_fd(self):
        fem = solve_domain(ECCENTRIC, 1.0, 48, 192)
        field = PerturbationField(kind="translation", target="inner", vector=(1.0, 0.0))
        formula = shape_derivative_formula(ECCENTRIC, 1.0, field, fem)
        fd, noise = shape_derivative_fd_with_noise(ECCENTRIC, 1.0, field, 1e-3, (48, 192))
        assert abs(fd) > 10.0 * noise
        assert formula == pytest.approx(fd, rel=5e-2)
        # moving the hole outward lowers the eigenvalue (shell maximality)
        assert formula < 0.0

    def test_hole_translation_at_dirichlet_outer_matches_fd(self):
        # the hole rows of the residual hold no B, so beta = inf reads them
        # as any beta does (K + inf B once gave inf * 0 = nan there)
        fem = solve_domain(ECCENTRIC, math.inf, 48, 192)
        field = PerturbationField(kind="translation", target="inner", vector=(1.0, 0.0))
        formula = shape_derivative_formula(ECCENTRIC, math.inf, field, fem)
        fd, noise = shape_derivative_fd_with_noise(ECCENTRIC, math.inf, field, 1e-3, (48, 192))
        assert abs(fd) > 10.0 * noise
        assert formula == pytest.approx(fd, rel=5e-2)

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_inner_fourier_mode_matches_fd(self, mode):
        # the hole moves along its own outward normal, -nu of the annulus,
        # so a hole that grows where cos(mode theta) > 0 has <V, nu> < 0
        domain = standard_family()[3]
        fem = solve_domain(domain, 1.0, 48, 192)
        field = PerturbationField(kind="normal_fourier", target="inner", mode=mode, amplitude=1.0)
        formula = shape_derivative_formula(domain, 1.0, field, fem)
        fd, noise = shape_derivative_fd_with_noise(domain, 1.0, field, 1e-3, (48, 192))
        assert abs(fd) > 10.0 * noise
        assert formula == pytest.approx(fd, rel=5e-2)

    def test_outer_ring_at_dirichlet_outer_reads_its_flux(self):
        # at beta = inf the outer ring is Dirichlet too, so its term is the
        # squared flux as on the hole (the Robin integrand gave inf * 0 = nan)
        domain = standard_family()[3]
        fem = solve_domain(domain, math.inf, 48, 192)
        mode2 = PerturbationField(kind="normal_fourier", target="outer", mode=2, amplitude=1.0)
        formula = shape_derivative_formula(domain, math.inf, mode2, fem)
        fd, noise = shape_derivative_fd_with_noise(domain, math.inf, mode2, 1e-3, (48, 192))
        assert abs(fd) > 10.0 * noise
        assert formula == pytest.approx(fd, rel=5e-2)
        # a rigid motion of both curves leaves lambda where it is
        hole = PerturbationField(kind="translation", target="inner", vector=(1.0, 0.0))
        both = PerturbationField(kind="translation", target="both", vector=(1.0, 0.0))
        moved = shape_derivative_formula(domain, math.inf, hole, fem)
        assert abs(shape_derivative_formula(domain, math.inf, both, fem)) < 1e-3 * abs(moved)

    def test_rigid_translation_is_stationary(self):
        fem = solve_domain(ECCENTRIC, 1.0, 32, 128)
        field = PerturbationField(kind="translation", target="both", vector=(0.4, -0.1))
        formula = shape_derivative_formula(ECCENTRIC, 1.0, field, fem)
        fd, _ = shape_derivative_fd(ECCENTRIC, 1.0, field, 1e-3, (32, 128))
        assert fd == pytest.approx(0.0, abs=1e-9)
        assert abs(formula) < 1e-4

    def test_shell_mode2_stationarity(self):
        fem = solve_domain(CONCENTRIC, 1.0, 48, 192)
        field = PerturbationField(kind="normal_fourier", target="outer", mode=2, amplitude=1.0)
        formula = shape_derivative_formula(CONCENTRIC, 1.0, field, fem)
        fd, noise = shape_derivative_fd_with_noise(CONCENTRIC, 1.0, field, 5e-3, (48, 192))
        assert abs(formula) <= 10.0 * noise

    @pytest.mark.parametrize("t_step", [0.0, -1e-3, math.nan, math.inf])
    @pytest.mark.parametrize("fd", [shape_derivative_fd, shape_derivative_fd_with_noise])
    def test_step_checked_before_any_solve(self, fd, t_step, monkeypatch):
        monkeypatch.setattr(analysis, "solve_domain", lambda *args: pytest.fail("solved"))
        field = PerturbationField(kind="translation", target="inner", vector=(1.0, 0.0))
        with pytest.raises(RangeError):
            fd(ECCENTRIC, 1.0, field, t_step, (16, 64))

    def test_fd_with_noise_solves_four_times(self, monkeypatch):
        calls = []

        def counting_solve(*args, **kwargs):
            res = solve_domain(*args, **kwargs)
            calls.append((args[0], kwargs.get("seed"), res))
            return res

        monkeypatch.setattr(analysis, "solve_domain", counting_solve)
        field = PerturbationField(kind="normal_fourier", target="outer", mode=2, amplitude=1.0)
        value, noise = shape_derivative_fd_with_noise(CONCENTRIC, 1.0, field, 5e-3, (16, 64))
        # four perturbed domains, each seeded with the base eigenpair on the
        # same grid; each step asks for the base once, and the second time
        # its mesh's memo answers
        base = [res for dom, _, res in calls if dom is CONCENTRIC]
        perturbed = [(seed, res) for dom, seed, res in calls if dom is not CONCENTRIC]
        assert len(perturbed) == 4 and len(base) == 2
        assert base[1].u is base[0].u
        assert all(seed.u is base[0].u for seed, _ in perturbed)
        lams = [res.lam for _, res in perturbed]
        coarse, coarse_lams = shape_derivative_fd(CONCENTRIC, 1.0, field, 5e-3, (16, 64))
        fine, fine_lams = shape_derivative_fd(CONCENTRIC, 1.0, field, 2.5e-3, (16, 64))
        assert value == (4.0 * fine - coarse) / 3.0
        assert coarse_lams + fine_lams == tuple(lams)
        # on the stationary shell the round-off floor decides, and it scales
        # with the smallest of the four eigenvalues differenced
        floor = 1e-11 * min(lams) / 5e-3
        assert abs(fine - coarse) / 3.0 < floor
        assert noise == floor

    def test_fd_step_consistency(self):
        field = PerturbationField(kind="translation", target="inner", vector=(1.0, 0.0))
        coarse, _ = shape_derivative_fd(ECCENTRIC, 1.0, field, 2e-3, (24, 96))
        fine, _ = shape_derivative_fd(ECCENTRIC, 1.0, field, 1e-3, (24, 96))
        finest, _ = shape_derivative_fd(ECCENTRIC, 1.0, field, 5e-4, (24, 96))
        # second order in the step: differences shrink about fourfold
        assert abs(fine - finest) <= 0.5 * abs(coarse - fine) + 1e-10

    def test_polygon_boundary_rejected(self):
        hole = PolygonCurve(ConvexPolygon.rectangle(1.0, 0.8))
        dom = AnnularDomain(Circle((0, 0), 2.0), hole)
        fem = solve_domain(dom, 1.0, 16, 64)
        field = PerturbationField(kind="translation", target="inner", vector=(1.0, 0.0))
        with pytest.raises(CurvatureUnavailableError):
            shape_derivative_formula(dom, 1.0, field, fem)


class TestKuttlerBounds:
    def test_shell_all_pass(self):
        reports = kuttler_bounds(ShellSpec(2, 1.0, 2.0), 1.0)
        assert len(reports) == 3
        for rep in reports:
            assert rep.passed
            assert rep.margin > 0.0

    def test_large_beta_tiny_gap(self):
        reports = kuttler_bounds(ShellSpec(2, 1.0, 2.0), 1e3)
        gap_report = next(r for r in reports if r.name == "reciprocal_gap_volume_bound")
        assert gap_report.passed
        assert gap_report.rhs == pytest.approx(3.0 * math.pi / (1e3 * 4.0 * math.pi), rel=1e-12)
        assert gap_report.lhs <= gap_report.rhs

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan])
    def test_beta_must_be_positive(self, beta):
        with pytest.raises(RangeError):
            kuttler_bounds(ShellSpec(2, 1.0, 2.0), beta)

    def test_context_names_beta_and_shell(self):
        for rep in kuttler_bounds(ShellSpec(3, 1.0, 2.0), 0.5):
            assert rep.context == {"method": "radial", "dim": 3, "r1": 1.0, "r2": 2.0, "beta": 0.5}

    def test_fem_domain_passes(self):
        for rep in kuttler_bounds(ECCENTRIC, 1.0, resolution=(24, 96)):
            assert rep.passed

    def test_ellipse_and_polygon_outer_pass(self):
        # the inradius bound reads min(a, b) on an ellipse, the polygon's
        # inradius on a 64-gon
        theta = 2.0 * np.pi * np.arange(64) / 64
        gon = PolygonCurve(ConvexPolygon(2.0 * np.column_stack([np.cos(theta), np.sin(theta)])))
        for target in (standard_family()[6], AnnularDomain(gon, Circle((0.2, 0.0), 0.8))):
            reports = kuttler_bounds(target, 1.0, resolution=(24, 96))
            assert [rep.passed for rep in reports] == [True, True, True]

    def test_fem_pair_meshes_once(self, monkeypatch):
        calls, built = [], []
        validate = fem._validate_mesh

        def counting_solve(*args, **kwargs):
            calls.append(args[1:4])
            return solve_domain(*args, **kwargs)

        def counting_validate(mesh, domain):
            built.append(mesh.resolution)
            validate(mesh, domain)

        monkeypatch.setattr(analysis, "solve_domain", counting_solve)
        monkeypatch.setattr(fem, "_validate_mesh", counting_validate)
        reports = kuttler_bounds(eccentric(), 1.0, resolution=(24, 96))
        # one mesh for lambda(beta) and lambda_DD; the coarse estimate is
        # their seed level, whose own seed is one level coarser still, and
        # each resolution is meshed once
        assert calls == [(1.0, 24, 96), (math.inf, 24, 96), (1.0, 12, 48)]
        assert built == [(24, 96), (12, 48), (6, 24)]
        lam = solve_domain(ECCENTRIC, 1.0, 24, 96).lam
        lam_dd = solve_domain(ECCENTRIC, math.inf, 24, 96).lam
        assert (reports[0].lhs, reports[0].rhs) == (lam, lam_dd)

    def test_small_beta_near_neumann_limit(self):
        # the true relative gap at beta = 1e-3 sits near 1.19e-3 on this
        # shell: the asymptotic constant dlambda/dbeta / lambda is 1.1927
        rep = beta_limits_check(ShellSpec(2, 1.0, 2.0), betas=np.logspace(-3, 4, 8))
        assert 1.0e-3 < rep.nd_gap_rel < 1.4e-3


class TestMainTheoremSweep:
    def test_family_passes_all_betas(self):
        family = standard_family(gap=0.08)
        for beta in (0.1, 1.0):
            reports = main_theorem_sweep(family, beta, resolution=(24, 96))
            assert all(r.passed for r in reports)

    def test_margins_positive_off_shell(self):
        family = eccentric_family(gap=0.08)
        reports = main_theorem_sweep(family, 1.0, resolution=(24, 96))
        assert abs(reports[0].margin) <= reports[0].tolerance  # concentric: equality
        for rep in reports[1:]:
            assert rep.margin > 0.0
        margins = [r.margin for r in reports[1:]]
        assert margins == sorted(margins)  # growth reported, monotone here

    def test_ellipse_members_are_class_s(self):
        for dom in ellipse_members():
            _, _, residual = class_s_data(dom)
            assert abs(residual) <= 1e-10 * dom.area

    def test_non_class_s_rejected(self):
        bad = AnnularDomain(Ellipse((0, 0), 2.0, 1.0), Circle((0, 0), 0.5))
        with pytest.raises(InfeasibleError):
            main_theorem_sweep([bad], 1.0, resolution=(16, 64))

    def test_beta_sweep_meshes_and_assembles_once(self, monkeypatch):
        built = []
        pattern = fem._pattern

        def counting(n_r, n_a, dirichlet_outer):  # read once per fill
            built.append(((n_r, n_a), dirichlet_outer))
            return pattern(n_r, n_a, dirichlet_outer)

        monkeypatch.setattr(fem, "_pattern", counting)
        betas = (0.1, 1.0, 10.0)
        member = eccentric()
        reports = [main_theorem_sweep([member], b, resolution=(16, 64))[0] for b in betas]
        # K, M and B filled once on the fine mesh and once on the coarse
        # one, for the Robin outer ring that every beta shares
        assert built == [((16, 64), False), ((8, 32), False)]
        fresh = [main_theorem_sweep([eccentric()], b, resolution=(16, 64))[0] for b in betas]
        assert [r.as_dict() for r in reports] == [r.as_dict() for r in fresh]


class TestBetaLimits:
    def test_shell_table(self):
        rep = beta_limits_check(ShellSpec(2, 1.0, 2.0))
        assert rep.monotone
        assert rep.strictly_monotone
        assert rep.dd_gap_ok
        assert rep.method == "radial"
        assert rep.lam_nd < rep.lams[0] < rep.lams[-1] < rep.lam_dd

    def test_fem_table(self):
        rep = beta_limits_check(ECCENTRIC, resolution=(16, 64), betas=np.logspace(-2, 2, 4))
        assert rep.monotone
        assert rep.method == "fem"
        assert rep.dd_gap_ok

    def test_fem_assembles_once(self, monkeypatch):
        built = []
        pattern = fem._pattern

        def counting(n_r, n_a, dirichlet_outer):  # read once per fill
            built.append(((n_r, n_a), dirichlet_outer))
            return pattern(n_r, n_a, dirichlet_outer)

        monkeypatch.setattr(fem, "_pattern", counting)
        betas = np.logspace(-2, 2, 4)
        # a fresh domain: ECCENTRIC's 16x64 mesh, blocks included, is
        # memoised by the tests above
        rep = beta_limits_check(eccentric(), resolution=(16, 64), betas=betas)
        # K, M and B once per mesh and outer condition: the 16x64 mesh
        # serves every finite beta and the slope s, and beta = inf, and its
        # 8x32 seed level, solved densely, every beta's seed
        fine, coarse = (16, 64), (8, 32)
        expected = [(fine, False), (fine, True), (coarse, False), (coarse, True)]
        assert sorted(built, key=repr) == sorted(expected, key=repr)
        fresh = [solve_domain(eccentric(), b, 16, 64).lam for b in betas]
        assert list(rep.lams) == fresh

    def test_determinism(self):
        a = beta_limits_check(ShellSpec(2, 1.0, 2.0), betas=[1.0])
        b = beta_limits_check(ShellSpec(2, 1.0, 2.0), betas=[1.0])
        assert a.lams[0] == b.lams[0]

    def test_shell_bracket_tight(self):
        rep = beta_limits_check(ShellSpec(2, 1.0, 2.0), betas=np.logspace(-3, 4, 8))
        assert rep.nd_bracket_ok
        assert rep.nd_bracket_hi - rep.nd_bracket_lo <= 3e-6 * rep.lam_nd
        lo_margin = float(rep.lams[0] - rep.nd_bracket_lo)
        hi_margin = float(rep.nd_bracket_hi - rep.lams[0])
        assert min(lo_margin, hi_margin) >= 100.0 * rep.nd_bracket_allowance
        assert rep.nd_bracket_allowance > 0.0

    @pytest.mark.parametrize("shift", [1e-5, -1e-5])
    def test_shell_bracket_can_fail(self, monkeypatch, shift):
        real = analysis.solve_shell

        def shifted(n, r1, r2, beta, *args, **kwargs):
            res = real(n, r1, r2, beta, *args, **kwargs)
            if beta == 1e-3:
                return dataclasses.replace(res, lam=res.lam * (1.0 + shift))
            return res

        monkeypatch.setattr(analysis, "solve_shell", shifted)
        rep = beta_limits_check(ShellSpec(2, 1.0, 2.0), betas=np.logspace(-3, 4, 8))
        assert not rep.nd_bracket_ok

    def test_fem_bracket(self):
        rep = beta_limits_check(ECCENTRIC, resolution=(16, 64), betas=np.logspace(-3, 1, 5))
        assert rep.nd_bracket_ok
        nd = solve_domain(ECCENTRIC, 0.0, 16, 64)
        assert rep.lam_nd == nd.lam
        assert rep.nd_bracket_hi == pytest.approx(nd.lam + 1e-3 * beta_form_value(nd), rel=1e-15)
        assert rep.nd_bracket_lo < rep.lams[0] < rep.nd_bracket_hi

    def test_bracket_restatement_backed_by_bessel(self):
        # exact n = 2 solution on (1, 2): phi = Z_0(k r) with
        # Z_mu(x) = J_mu(x) Y_0(k R1) - Y_mu(x) J_0(k R1); the Robin condition
        # reads -k Z_1(k R2) + beta Z_0(k R2) = 0
        r1, r2 = 1.0, 2.0

        def z(mu, x, k):
            return jv(mu, x) * yv(0, k * r1) - yv(mu, x) * jv(0, k * r1)

        roots = {}
        for beta in (0.0, 1e-3):
            lam = solve_shell(2, r1, r2, beta).lam
            k0 = math.sqrt(lam)
            k = brentq(
                lambda k: -k * z(1, k * r2, k) + beta * z(0, k * r2, k),
                0.99 * k0, 1.01 * k0, xtol=1e-15, rtol=8.9e-16,
            )
            assert abs(lam - k * k) <= 1e-10 * k * k
            roots[beta] = k
        # the exact gap at beta = 1e-3 exceeds the former fixed 1e-3 band
        exact_gap = roots[1e-3] ** 2 / roots[0.0] ** 2 - 1.0
        assert exact_gap == pytest.approx(1.19246e-3, rel=1e-5)
        # s = R2 Z_0(k R2)^2 / int_R1^R2 Z_0(k r)^2 r dr at the Neumann root,
        # with int x Z_0(x)^2 dx = x^2 (Z_0^2 + Z_1^2) / 2, Z_0(k R1) = 0 and
        # Z_1(k R2) = 0
        k = roots[0.0]
        mass = 0.5 * (r2**2 * z(0, k * r2, k) ** 2 - r1**2 * z(1, k * r1, k) ** 2)
        slope_rel = r2 * z(0, k * r2, k) ** 2 / mass / k**2
        assert slope_rel == pytest.approx(1.1927025803, abs=1e-10)
        rep = beta_limits_check(ShellSpec(2, r1, r2), betas=np.logspace(-3, 4, 8))
        assert rep.nd_slope / rep.lam_nd == pytest.approx(slope_rel, rel=1e-9)

    def test_grid_validation(self):
        for betas in ([], [0.0, 1.0], [1.0, 0.5], [1.0, float("inf")]):
            with pytest.raises(RangeError):
                beta_limits_check(ShellSpec(2, 1.0, 2.0), betas=betas)


def _boundary_ratio_mp(n, r1, r2, beta, k0):
    """s = R2^(n-1) phi(R2)^2 / int phi^2 r^(n-1) dr at the 30-digit root
    of beta Z_nu(k R2) - k Z_(nu+1)(k R2) next to k0, the mass by quadrature."""
    with mpmath.workdps(30):
        nu = mpmath.mpf(n) / 2 - 1

        def z(k, mu, r):
            j_in, y_in = mpmath.besselj(nu, k * r1), mpmath.bessely(nu, k * r1)
            return mpmath.besselj(mu, k * r) * y_in - mpmath.bessely(mu, k * r) * j_in

        def f(k):
            scale = mpmath.hypot(mpmath.besselj(nu, k * r1), mpmath.bessely(nu, k * r1))
            return (beta * z(k, nu, r2) - k * z(k, nu + 1, r2)) / (scale * (beta + k))

        k0 = mpmath.mpf(k0)
        k = mpmath.findroot(f, (k0 * (1 - 1e-10), k0 * (1 + 1e-10)), solver="anderson")
        phi = lambda r: r**-nu * z(k, nu, r)
        mass = mpmath.quad(lambda r: phi(r) ** 2 * r ** (n - 1), [r1, r2])
        return float(r2 ** (n - 1) * phi(r2) ** 2 / mass)


def _simpson_ratio_error(res):
    """The error the boundary ratio once carried: Simpson's rule on the
    profile's knots in log r against the rule on every second knot, plus
    the profile accuracy of phi^2 in numerator and denominator."""
    density, t = res.phi**2 * res.r**res.shell.dim, np.log(res.r)
    mass, coarse = simpson(density, x=t), simpson(density[::2], x=t[::2])
    s = res.shell.r_outer ** (res.shell.dim - 1) * res.phi[-1] ** 2 / mass
    return s * (abs(mass - coarse) / mass + 4.0 * PROFILE_RTOL)


class TestBoundaryRatio:
    @pytest.mark.parametrize(
        "shell",
        [
            (2, 1.0, 2.0, 0.0),
            (3, 1.0, 2.0, 0.0),
            (5, 0.01, 2.0, 0.0),
            (8, 1.0, 1.001, 0.0),
            (2, 0.4, 3.5, 0.3),
            (4, 1.0, 2.0, 5.0),
        ],
    )
    def test_lommel_matches_quadrature(self, shell):
        res = solve_shell(*shell)
        s, err = analysis._radial_boundary_ratio(res)
        assert abs(s - _boundary_ratio_mp(*shell, math.sqrt(res.lam))) <= err
        # criterion 9's allowance cannot widen
        assert err <= _simpson_ratio_error(res)


class TestInequalityReport:
    def test_pass_iff_margin_above_negative_tolerance(self):
        assert InequalityReport("x", 1.0, 2.0, 1e-9).passed
        assert InequalityReport("x", 2.0, 1.0, 1.5).passed
        assert not InequalityReport("x", 2.0, 1.0, 0.5).passed

    def test_numpy_inputs_give_plain_json(self):
        violations = np.sum(np.diff([1.0, 2.0, 3.0]) <= 0.0)  # np.int64
        for report in (
            InequalityReport("x", np.float64(1.0), np.float64(2.0), np.float32(0.0)),
            InequalityReport("count", violations, 0, 0),
        ):
            assert type(report.passed) is bool and type(report.margin) is float
            data = report.as_dict()
            assert json.loads(json.dumps(data)) == data

    def test_strict_bound_and_bracket(self):
        strict = np.nextafter(1e-6, 0.0)
        assert InequalityReport("x", np.nextafter(1e-6, 0.0), 0.0, strict).passed
        assert not InequalityReport("x", 1e-6, 0.0, strict).passed
        inside = InequalityReport.between("b", 1.0, 1.2, 2.0, 0.0)
        assert (inside.lhs, inside.rhs, inside.passed) == (1.0, 1.2, True)
        above = InequalityReport.between("b", 1.0, 2.5, 2.0, 0.4)
        assert (above.lhs, above.rhs, above.passed) == (2.5, 2.0, False)
        assert InequalityReport.between("b", 1.0, 2.5, 2.0, 0.5).passed

    def test_json_export(self):
        for report in kuttler_bounds(ShellSpec(2, 1.0, 2.0), 1.0):
            data = report.as_dict()
            assert set(data) >= {"name", "lhs", "rhs", "margin", "tolerance", "pass"}
            assert data["margin"] == report.rhs - report.lhs
            assert data["pass"] is report.passed
            assert json.loads(json.dumps(data)) == data
