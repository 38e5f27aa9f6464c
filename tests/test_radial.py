import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import jv, spherical_jn, spherical_yn, yv
from scipy.special._ufuncs import _spherical_jn, _spherical_yn

from annulus_spectra import radial
from annulus_spectra.errors import (
    AnnulusError,
    BracketError,
    GeometryError,
    NumericalError,
    RangeError,
)
from annulus_spectra.radial import (
    EPS,
    LAMBDA_RTOL,
    PROFILE_SAMPLES,
    closed_form_3d,
    radii_monotonicity,
    solve_shell,
    solve_shell_fd,
)


class TestClosedForm3d:
    def test_dirichlet_limit(self):
        assert closed_form_3d(1.0, 2.0, float("inf")) == pytest.approx(math.pi**2, rel=1e-15)

    def test_coefficient_cancellation(self):
        # beta = 1/R2 kills the sine coefficient, so cos(k d) = 0
        lam = closed_form_3d(1.0, 2.0, 0.5)
        assert math.sqrt(lam) == pytest.approx(math.pi / 2.0, rel=1e-13)

    def test_transcendental_root_location(self):
        k = math.sqrt(closed_form_3d(1.0, 2.0, 1.0))
        assert math.pi / 2.0 < k < math.pi
        assert math.tan(k) + 2.0 * k == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("beta", [-1.0, float("nan")])
    def test_invalid_beta_rejected(self, beta):
        with pytest.raises(RangeError):
            closed_form_3d(1.0, 2.0, beta)

    @pytest.mark.parametrize("shell", [(1e-20, 1.0, 0.0), (1.0, 4.0, 1e17)])
    def test_rounded_bracket_raises(self, shell):
        # a root (about 1.7e-10) below the bracket start 2^-30 pi / d, or
        # beta sin(pi) outweighing pi R2 / d
        with pytest.raises(BracketError):
            closed_form_3d(*shell)


class TestSolveShell:
    def test_dirichlet_anchor_n3(self):
        res = solve_shell(3, 1.0, 2.0, float("inf"))
        assert res.lam == pytest.approx(math.pi**2, rel=1e-9)

    def test_matches_closed_form(self):
        res = solve_shell(3, 1.0, 2.0, 1.0)
        assert res.lam == pytest.approx(closed_form_3d(1.0, 2.0, 1.0), rel=1e-9)

    def test_matches_fd_oracle_n2(self):
        res = solve_shell(2, 1.0, 2.0, 0.5)
        assert res.lam == pytest.approx(solve_shell_fd(2, 1.0, 2.0, 0.5, 20000), rel=1e-7)

    def test_profile_structure(self):
        res = solve_shell(2, 1.0, 2.0, 1.0)
        assert res.phi[0] == 0.0
        assert np.all(res.phi[1:] > 0.0)
        assert 1.0 < res.r_bar < 2.0
        assert 0.0 < res.v_m < res.v_M
        # exactly one sign change of the slope on the grid
        signs = np.sign(res.dphi)
        changes = np.sum(signs[:-1] != signs[1:])
        assert changes == 1
        assert res.slope(res.r_bar) == pytest.approx(0.0, abs=1e-10)
        assert abs(res.residual) <= 1e-8 * max(abs(res.dphi[-1]), res.beta * res.v_m)

    def test_neumann_closure(self):
        res = solve_shell(2, 1.0, 2.0, 0.0)
        assert res.r_bar == 2.0
        assert res.v_m == res.v_M
        assert np.all(res.dphi[:-1] > 0.0)

    def test_beta_monotone_and_sandwich(self):
        lam_nd = solve_shell(2, 1.0, 2.0, 0.0).lam
        lam_dd = solve_shell(2, 1.0, 2.0, float("inf")).lam
        betas = [0.01, 0.1, 1.0, 10.0, 100.0]
        lams = [solve_shell(2, 1.0, 2.0, b).lam for b in betas]
        assert np.all(np.diff(lams) > 0.0)
        assert all(lam_nd < L < lam_dd for L in lams)

    def test_scaling_law(self):
        # dilating the shell by s divides the eigenvalue by s^2 and the
        # Robin parameter by s: lambda(beta, A) = s^2 lambda(beta/s, s A)
        base = solve_shell(3, 1.0, 2.0, 2.0).lam
        for s in (0.5, 2.0, 3.7):
            scaled = solve_shell(3, 1.0 * s, 2.0 * s, 2.0 / s).lam
            assert base == pytest.approx(s * s * scaled, rel=1e-9)

    @pytest.mark.parametrize("beta", [-1.0, float("nan")])
    def test_invalid_beta_rejected(self, beta):
        with pytest.raises(RangeError):
            solve_shell(2, 1.0, 2.0, beta)

    @pytest.mark.parametrize("n", [2.5, 3.0, np.float64(2.0), True, "3", 1])
    def test_non_integral_dimension_rejected(self, n):
        with pytest.raises(GeometryError):
            solve_shell(n, 1.0, 2.0, 1.0)

    def test_numpy_integer_dimension_accepted(self):
        assert solve_shell(np.int64(3), 1.0, 2.0, 1.0).lam == solve_shell(3, 1.0, 2.0, 1.0).lam

    @pytest.mark.parametrize("shell", [(2, 1.0, 2.0, 1.0), (5, 0.01, 3.0, math.inf)])
    def test_profile_is_on_the_knots(self, shell):
        _, r1, r2, _ = shell
        res = solve_shell(*shell)
        assert len(res.r) == len(res.phi) == len(res.dphi) == PROFILE_SAMPLES
        assert res.r[0] == r1 and res.r[-1] == r2
        step = np.diff(np.log(res.r))
        assert np.allclose(step, math.log(r2 / r1) / (PROFILE_SAMPLES - 1), rtol=1e-9, atol=0.0)
        assert res.phi[0] == 0.0 and res.phi[-1] == res.v_m
        assert np.max(np.abs(res.value(res.r) - res.phi)) <= 1e-14 * np.max(res.phi)

    def test_cross_method_random_grid(self, rng):
        for _ in range(6):
            n = int(rng.integers(2, 5))
            r1 = float(rng.uniform(0.4, 1.5))
            r2 = r1 + float(rng.uniform(0.4, 2.0))
            beta = float(10.0 ** rng.uniform(-1.5, 1.5))
            lam = solve_shell(n, r1, r2, beta).lam
            lam_fd = solve_shell_fd(n, r1, r2, beta, 20000)
            assert abs(lam - lam_fd) / lam <= 1e-6
            if n == 3:
                assert abs(lam - closed_form_3d(r1, r2, beta)) / lam <= 1e-9


def _bessel_profile(res, r):
    """phi and phi' from DLMF 10: c r^-nu Z_nu(k r) and -c k r^-nu Z_(nu+1)(k r)."""
    n, r1 = res.shell.dim, res.shell.r_inner
    nu, k = 0.5 * n - 1.0, math.sqrt(res.lam)
    ja, ya = jv(nu, k * r1), yv(nu, k * r1)
    c = -0.5 * math.pi * r1 ** (nu + 1.0) * r**-nu
    phi = c * (jv(nu, k * r) * ya - yv(nu, k * r) * ja)
    dphi = -k * c * (jv(nu + 1.0, k * r) * ya - yv(nu + 1.0, k * r) * ja)
    return phi, dphi


class TestBesselSolver:
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_large_beta_below_dirichlet(self, n):
        lam_d = solve_shell(n, 1.0, 2.0, float("inf")).lam
        lams = [solve_shell(n, 1.0, 2.0, beta).lam for beta in (1e9, 1e12)]
        assert lams[0] < lams[1] < lam_d

    @pytest.mark.parametrize("beta", [1e-8, 1e-10, 1e-12, 1e-14])
    def test_small_beta_between_neumann_and_larger_beta(self, beta):
        # r_bar is within 1e-8 of R2, so v_M - v_m is below their rounding
        lam_n = solve_shell(2, 1.0, 2.0, 0.0).lam
        res = solve_shell(2, 1.0, 2.0, beta)
        assert lam_n < res.lam < solve_shell(2, 1.0, 2.0, 1e-7).lam
        assert np.all(res.phi[1:] > 0.0)

    @pytest.mark.parametrize(
        "n, r1, r2",
        [(2, 1e-3, 2.0), (8, 1e-3, 2.0), (3, 1.0, 1.001), (12, 1.0, 2.0)],
        ids=["hole-n2", "hole-n8", "thin", "n12"],
    )
    def test_extreme_shells_match_fd(self, n, r1, r2):
        lam = solve_shell(n, r1, r2, 1.0).lam
        fine = solve_shell_fd(n, r1, r2, 1.0, 20000)
        coarse = solve_shell_fd(n, r1, r2, 1.0, 10000)
        assert abs(lam - fine) <= 1e-6 * lam + abs(fine - coarse)

    @pytest.mark.parametrize(
        "shell, rtol", [((2, 1.0, 2.0, 1.0), 1e-12), ((8, 1e-3, 2.0, 1.0), 1e-10)]
    )
    def test_value_and_slope_match_bessel(self, shell, rtol):
        res = solve_shell(*shell)
        # most of these log-spaced radii fall between the spline knots
        r = np.geomspace(shell[1], shell[2], 10007)
        phi, dphi = _bessel_profile(res, r)
        assert np.max(np.abs(res.value(r) - phi)) <= rtol * np.max(np.abs(phi))
        assert np.max(np.abs(res.slope(r) - dphi)) <= rtol * np.max(np.abs(dphi))
        phi_grid, dphi_grid = _bessel_profile(res, res.r)
        assert np.max(np.abs(res.phi - phi_grid)) <= rtol * np.max(np.abs(phi))
        assert np.max(np.abs(res.dphi - dphi_grid)) <= rtol * np.max(np.abs(dphi))

    @pytest.mark.parametrize("n", [18, 20])
    def test_tiny_hole_large_n_allowance_stays_finite(self, n):
        # the moduli at k R1 and k R2 pass 1e160 and their product the
        # float range; the residual is compared in rounding units, with no
        # overflow (RuntimeWarning fails the run).  A tiny hole's Neumann
        # eigenvalue is its capacity over the volume, n (n-2) R1^(n-2) / R2^n
        r1, r2 = 3.93e-3, 1.58
        res = solve_shell(n, r1, r2, 0.0)
        assert res.lam == pytest.approx(n * (n - 2) * r1 ** (n - 2) / r2**n, rel=1e-9)
        assert math.isfinite(res.residual)

    def test_dirichlet_boundary_value_exact(self):
        res = solve_shell(2, 1.0, 2.0, float("inf"))
        assert res.v_m == 0.0
        assert res.phi[-1] == 0.0
        assert res.dphi[0] == pytest.approx(1.0, rel=1e-13)


def _exact_r_bar(res):
    """30-digit zero of Z_(nu+1)(k r) at the solver's own k, from its r_bar."""
    n, r1 = res.shell.dim, res.shell.r_inner
    with mpmath.workdps(30):
        nu, k = mpmath.mpf(n) / 2 - 1, mpmath.mpf(res._k)
        j_nu, y_nu = mpmath.besselj(nu, k * r1), mpmath.bessely(nu, k * r1)
        return float(
            mpmath.findroot(
                lambda r: mpmath.besselj(nu + 1, k * r) * y_nu
                - mpmath.bessely(nu + 1, k * r) * j_nu,
                mpmath.mpf(res.r_bar),
            )
        )


def _exact_lambda(n, r1, r2, beta, lam):
    """(lambda, signs): the square of a 30-digit root of beta Z_nu(k R2) -
    k Z_(nu+1)(k R2), scaled by the modulus at k R1 and by beta + k,
    bracketed within 1e-12 of sqrt(lam), and the signs of the scaled
    function on a grid below the root, at most 1/8 of the root spacing
    pi / d apart: one sign there makes the root the first."""
    with mpmath.workdps(30):
        nu = mpmath.mpf(n) / 2 - 1

        def f(k):
            j_in, y_in = mpmath.besselj(nu, k * r1), mpmath.bessely(nu, k * r1)
            scale = mpmath.hypot(j_in, y_in)
            z = lambda mu: (
                mpmath.besselj(mu, k * r2) * y_in - mpmath.bessely(mu, k * r2) * j_in
            ) / scale
            return z(nu) if math.isinf(beta) else (beta * z(nu) - k * z(nu + 1)) / (beta + k)

        k = mpmath.sqrt(lam)
        root = mpmath.findroot(f, (k * (1 - 1e-12), k * (1 + 1e-12)), solver="anderson")
        step = min(root, mpmath.pi / (mpmath.mpf(r2) - r1)) / 8
        signs = {mpmath.sign(f(x)) for x in mpmath.arange(step, root, step)}
        return float(root**2), signs


class TestRootOracles:
    @pytest.mark.parametrize(
        "shell",
        [
            (2, 1.0, 2.0, 1.0),
            (3, 1.0, 2.0, 1.0),
            (5, 1e-3, 2.0, 1e9),
            (8, 1.0, 1.001, 1.0),
            (4, 0.5, 3.5, 1e-3),
            (12, 2.0, 5.0, 10.0),
            (7, 1e-3, 2e-3, 1e12),
        ],
    )
    def test_critical_radius_matches_mpmath(self, shell):
        res = solve_shell(*shell)
        exact = _exact_r_bar(res)
        assert abs(res.r_bar - exact) <= 4.0 * EPS * exact

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 12])
    def test_first_root_matches_mpmath(self, n):
        for r1, r2 in [(1.0, 2.0), (1.0, 1.001), (1e-3, 2.0)]:
            for beta in [0.0, 1e-3, 1.0, 1e6, math.inf]:
                lam = solve_shell(n, r1, r2, beta).lam
                exact, signs = _exact_lambda(n, r1, r2, beta, lam)
                assert abs(lam - exact) <= LAMBDA_RTOL * exact
                assert len(signs) == 1 and 0 not in signs

    @pytest.mark.parametrize(
        "shell", [(2, 1.0, 2.0, 1.0), (5, 1e-3, 2.0, 1e9), (8, 1.0, 1.001, math.inf)]
    )
    def test_root_and_maximum_match_mpmath(self, shell):
        # lambda and r_bar against 30-digit roots; beta = 1e9 is off the grid above
        res = solve_shell(*shell)
        exact, signs = _exact_lambda(*shell, res.lam)
        assert abs(res.lam - exact) <= LAMBDA_RTOL * exact
        assert len(signs) == 1 and 0 not in signs
        assert abs(res.r_bar - _exact_r_bar(res)) <= 4.0 * EPS * res.r_bar

    @pytest.mark.parametrize("beta", [0.0, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e6, 1e12])
    def test_closed_form_3d_matches_mpmath(self, beta):
        # small holes (R1 / R2 down to 3e-4) and thin shells (width 1e-3),
        # then tiny holes (R1 / R2 down to 3e-8), where k R2 cos(k d) and
        # sin(k d) cancel to k R1 near the root; the 40-digit root must
        # also be the first: f > 0 below it
        grid = [(r1, r1 + w) for r1 in (1e-3, 0.01, 0.1, 1.0, 2.0) for w in (1e-3, 0.01, 0.1, 1.0, 3.0)]
        tiny = [(ratio * r2, r2) for ratio in (3e-8, 1e-6, 1e-4) for r2 in (0.5, 1.0, 7.0)]
        for r1, r2 in grid + tiny:
            k = math.sqrt(closed_form_3d(r1, r2, beta))
            with mpmath.workdps(40):
                b, d = mpmath.mpf(beta), mpmath.mpf(r2) - r1
                f = lambda x: x * r2 * mpmath.cos(x * d) + (b * r2 - 1) * mpmath.sin(x * d)
                exact = mpmath.findroot(f, mpmath.mpf(k))
                assert all(f(exact * j / 16) > 0 for j in range(1, 16))
            assert abs(k * k - float(exact**2)) <= 1e-14 * float(exact**2)


class TestBesselKernels:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_fast_kernels_match_mpmath(self, n):
        # a one-ulp change of x moves the phase of J and Y by about x eps,
        # so the bound grows with x; mpmath is the reference because jv is
        # off by up to 113 eps of the modulus at half-integer orders near x = 15
        x = np.geomspace(1e-6, 1e3, 61)
        nu = 0.5 * n - 1.0
        with mpmath.workdps(40):
            for mu in (nu, nu + 1.0):
                j, y = radial._jy(mu, x)
                exact_j = np.array([float(mpmath.besselj(mu, mpmath.mpf(v))) for v in x])
                exact_y = np.array([float(mpmath.bessely(mu, mpmath.mpf(v))) for v in x])
                tol = 8.0 * EPS * (1.0 + x) * np.hypot(exact_j, exact_y)
                assert np.all(np.abs(j - exact_j) <= tol)
                assert np.all(np.abs(y - exact_y) <= tol)

    def test_scalars_read_the_array_kernels(self):
        # one kernel per order: the root and r_bar polishes re-read the
        # values the scan and the stride subset saw, bit for bit
        x = np.concatenate([[5e-324, 1e-300, 1e308], np.geomspace(1e-6, 1e3, 61)])
        for mu in np.arange(0.0, 6.5, 0.5):  # nu and nu + 1 of n = 2..12
            j, y = radial._jy(mu, x)
            for i, v in enumerate(x):
                assert np.array_equal(radial._jy(mu, float(v)), (j[i], y[i]), equal_nan=True)

    @pytest.mark.parametrize("n", [2, 3])
    def test_no_array_reaches_jv_or_yv(self, n, monkeypatch):
        # jv serves integer orders >= 2 only, and yv is gone from radial
        calls = []

        def counting(mu, x):
            calls.append(mu)
            return jv(mu, x)

        monkeypatch.setattr(radial, "jv", counting)
        assert not hasattr(radial, "yv")
        for beta in (0.0, 1.0, 1e6, math.inf):
            solve_shell(n, 1.0, 2.0, beta)
        assert calls == []


def _scan_grid(n, r1, r2):
    d = r2 - r1
    step = math.pi / (64.0 * d)
    k_max = math.sqrt(4.0 * (math.pi / d) ** 2 + max(0.0, (n - 1.0) * (n - 3.0)) / r2**2)
    return step * (np.arange(math.ceil(k_max / step) + 2) + 1.0 / 16.0)


def _full_scan(n, r1, r2, beta):
    """(first, bracket): the first grid index where the characteristic
    function turns nonnegative, evaluated on the whole grid at once, and the
    bracket handed to Brent's method, or (None, None) with no crossing."""
    nu, ks = 0.5 * n - 1.0, _scan_grid(n, r1, r2)

    def g(k):
        z0 = radial._cross(nu, nu, k, r1, r2)
        return z0 if math.isinf(beta) else beta * z0 - k * radial._cross(nu, nu + 1.0, k, r1, r2)

    up = np.flatnonzero(g(ks) >= 0.0)
    if len(up) == 0:
        return None, None
    first = int(up[0])
    lo, hi = (ks[first - 1], ks[first]) if first > 0 else (ks[0] / 16.0, ks[0])
    while not g(lo) < 0.0 and lo >= 1e-200 * ks[0]:
        lo, hi = lo / 16.0, lo
    return first, (lo, hi)


def _scan_bracket(n, r1, r2, beta):
    """The bracket that _first_root hands to Brent's method, or None."""
    brackets = []

    def recording(f, lo, hi, **kw):
        brackets.append((lo, hi))
        return hi

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(radial, "brentq", recording)
        try:
            radial._first_root(n, r1, r2, beta)
        except BracketError:
            return None
    return brackets[0]


class TestRootScan:
    @settings(max_examples=100, deadline=2000, derandomize=True, database=None)
    @given(
        n=st.integers(2, 12),
        r1=st.floats(-3.0, math.log10(2.0)).map(lambda e: 10.0**e),
        width=st.floats(-3.0, math.log10(3.0)).map(lambda e: 10.0**e),
        beta=st.one_of(
            st.just(0.0), st.just(math.inf), st.floats(-3.0, 12.0).map(lambda e: 10.0**e)
        ),
    )
    def test_blocked_scan_brackets_as_the_full_scan(self, n, r1, width, beta):
        assert _scan_bracket(n, r1, r1 + width, beta) == _full_scan(n, r1, r1 + width, beta)[1]

    @pytest.mark.parametrize(
        "shell",
        [(2, 1.0, 2.0, 1.0), (3, 1.0, 2.0, math.inf), (5, 1e-3, 2.0, 1e6), (8, 0.5, 3.5, 0.0)],
    )
    def test_one_inner_evaluation_per_point_and_early_stop(self, shell, monkeypatch):
        # every array call of _jy at k R1 is one block of the grid, in order,
        # and the scan stops at the end of the block holding the crossing
        n, r1, r2, beta = shell
        ks = _scan_grid(n, r1, r2)
        at_r1 = []

        def counting(mu, x):
            if np.ndim(x) > 0 and np.all(np.isin(x, ks * r1)):
                at_r1.append(np.array(x))
            return jy(mu, x)

        jy = radial._jy
        monkeypatch.setattr(radial, "_jy", counting)
        radial._first_root(n, r1, r2, beta)
        points = np.concatenate(at_r1)
        first = _full_scan(n, r1, r2, beta)[0]
        blocks = first // radial._SCAN_BLOCK + 1
        assert np.array_equal(points, ks[: blocks * radial._SCAN_BLOCK] * r1)
        if first < len(ks) - radial._SCAN_BLOCK:
            assert len(points) < len(ks)

    @pytest.mark.parametrize("m", range(7))
    def test_spherical_kernels_are_the_public_functions(self, m):
        # _jy calls scipy's kernels behind spherical_jn / spherical_yn; a
        # scipy release that changes either must show here
        x = np.geomspace(1e-6, 1e3, 401)
        assert np.array_equal(_spherical_jn(m, x), spherical_jn(m, x))
        assert np.array_equal(_spherical_yn(m, x), spherical_yn(m, x))


def _robin_beta(n, k, r1, r2):
    """The beta whose characteristic equation has the root k."""
    nu = 0.5 * n - 1.0
    return k * float(radial._cross(nu, nu + 1.0, k, r1, r2)) / float(radial._cross(nu, nu, k, r1, r2))


def _ulp_probes(beta, m):
    return beta + np.arange(-m, m + 1) * np.spacing(beta)


class TestOneKernelBrackets:
    # a root next to a scan point, or an r_bar next to a subset knot, keeps
    # its sign from the scan to Brent's method only if both read one kernel
    def test_root_next_to_a_scan_point(self):
        assert solve_shell(3, 1.0, 2.0, 0.504828570311669).lam == pytest.approx(
            closed_form_3d(1.0, 2.0, 0.504828570311669), rel=1e-13
        )

    def test_critical_radius_on_a_subset_knot(self):
        shell = (4, 1.0, 2.0, 19.159121831389143)
        res = solve_shell(*shell)
        exact, _ = _exact_lambda(*shell, res.lam)
        assert abs(res.lam - exact) <= LAMBDA_RTOL * exact
        assert abs(res.r_bar - _exact_r_bar(res)) <= 4.0 * EPS * res.r_bar
        assert abs(res.r_bar - math.sqrt(2.0)) <= 4.0 * EPS * res.r_bar

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_roots_on_the_last_scan_points_answer(self, n):
        # the six scan points below the Dirichlet root, where beta is large
        # and magnifies the kernels' differences, each at beta* +- 40 ulps
        ks = _scan_grid(n, 1.0, 2.0)
        top = np.flatnonzero(ks < solve_shell(n, 1.0, 2.0, math.inf)._k)[-6:]
        for k in ks[top]:
            for beta in _ulp_probes(_robin_beta(n, k, 1.0, 2.0), 40):
                assert solve_shell(n, 1.0, 2.0, beta).lam == pytest.approx(k * k, rel=1e-12)

    def test_critical_radius_on_each_subset_knot_answers(self):
        # r_bar, where phi' changes sign, on each knot of the Dirichlet
        # solve's stride subset between its r_bar and R2, at beta* +- 60 ulps
        n, nu = 4, 1.0
        res_n, res_d = solve_shell(n, 1.0, 2.0, 0.0), solve_shell(n, 1.0, 2.0, math.inf)
        knots = res_d.r[:: radial._stride(res_d.r, res_d._k)]
        knots = knots[(knots > res_d.r_bar) & (knots < 2.0)]
        assert len(knots) == 4
        for knot in knots:
            z1 = lambda k: float(radial._cross(nu, nu + 1.0, k, 1.0, knot))
            k = brentq(z1, res_n._k, res_d._k, xtol=1e-16)
            for beta in _ulp_probes(_robin_beta(n, k, 1.0, 2.0), 60):
                assert solve_shell(n, 1.0, 2.0, beta).r_bar == pytest.approx(knot, rel=1e-12)


@settings(max_examples=60, deadline=2000, derandomize=True, database=None)
@given(
    n=st.integers(2, 12),
    r1=st.floats(-3.0, math.log10(2.0)).map(lambda e: 10.0**e),
    width=st.floats(-3.0, math.log10(3.0)).map(lambda e: 10.0**e),
    beta=st.one_of(
        st.just(0.0), st.just(math.inf), st.floats(-3.0, 12.0).map(lambda e: 10.0**e)
    ),
)
def test_property_sweep(n, r1, width, beta):
    # each case is an eigenpair inside the Neumann-Dirichlet bracket with a
    # positive profile, or a typed package error
    r2 = r1 + width
    try:
        res = solve_shell(n, r1, r2, beta)
        lam_n = solve_shell(n, r1, r2, 0.0).lam
        lam_d = solve_shell(n, r1, r2, math.inf).lam
    except AnnulusError:
        return
    assert res.lam > 0.0
    assert lam_n * (1.0 - LAMBDA_RTOL) <= res.lam <= lam_d * (1.0 + LAMBDA_RTOL)
    assert np.all(res.phi[1:-1] > 0.0) and res.v_M > 0.0


@settings(max_examples=60, deadline=2000, derandomize=True, database=None)
@given(
    n=st.integers(2, 12),
    r1=st.floats(-3.0, math.log10(2.0)).map(lambda e: 10.0**e),
    width=st.floats(-3.0, math.log10(3.0)).map(lambda e: 10.0**e),
    k_frac=st.floats(-8.0, 0.0).map(lambda e: 10.0**e),
)
def test_stride_subset_sees_every_slope_zero(n, r1, width, k_frac):
    # the sign changes of Z_(nu+1)(k r) on the stride subset are those on
    # all knots, one per subset interval, for k up to four times the first
    # Dirichlet root, where the shell holds several zeros
    dirichlet = solve_shell(n, r1, r1 + width, math.inf)
    k = 4.0 * math.sqrt(dirichlet.lam) * k_frac
    r, nu = dirichlet.r, 0.5 * n - 1.0
    stride = radial._stride(r, k)
    assert stride == PROFILE_SAMPLES - 1 or r[-1] - r[-1 - 2 * stride] > 0.25 * math.pi / k
    assert np.max(np.diff(r[::stride])) <= 0.25 * math.pi / k
    up = radial._cross(nu, nu + 1.0, k, r1, r) > 0.0
    dense = np.flatnonzero(up[:-1] != up[1:])
    coarse = np.flatnonzero(up[::stride][:-1] != up[::stride][1:])
    assert np.array_equal(dense // stride, coarse)


class TestLazyProfile:
    @pytest.fixture
    def sizes(self, monkeypatch):
        sizes = []

        def recording(nu, mu, k, r1, r, inner=None):
            sizes.append(np.size(r))
            return _cross(nu, mu, k, r1, r, inner)

        _cross = radial._cross
        monkeypatch.setattr(radial, "_cross", recording)
        return sizes

    @pytest.mark.parametrize(
        "shell", [(2, 1.0, 2.0, 1.0), (5, 1e-3, 2.0, 1e-3), (8, 1.0, 1.001, 0.0)]
    )
    def test_eager_fields_touch_no_full_profile(self, shell, sizes):
        res = solve_shell(*shell)
        assert res.lam > 0.0 and res.r_bar <= shell[2] and res.v_m <= res.v_M
        assert sizes and PROFILE_SAMPLES not in sizes

    def test_profile_built_once(self, sizes):
        res = solve_shell(3, 1.0, 2.0, 1.0)
        before = len(sizes)
        res.phi
        assert sizes[before:] == [PROFILE_SAMPLES, PROFILE_SAMPLES]
        built = len(sizes)
        res.phi, res.dphi, res.value(1.5), res.slope(1.5)
        assert len(sizes) == built

    @pytest.mark.parametrize(
        "shell", [(2, 1.0, 2.0, 1.0), (12, 1e-3, 3.0, math.inf), (4, 0.5, 0.6, 0.0)]
    )
    def test_eager_fields_do_not_depend_on_reads(self, shell):
        cold, warm = solve_shell(*shell), solve_shell(*shell)
        warm.value(warm.r)
        assert cold.report() == warm.report()
        assert np.array_equal(cold.r, warm.r)

    def test_arrays_read_only(self):
        res = solve_shell(2, 1.0, 2.0, 1.0)
        for arr in (res.r, res.phi, res.dphi):
            with pytest.raises(ValueError):
                arr[1] = 0.0

    def test_failed_profile_check_raises_on_read(self, monkeypatch):
        res = solve_shell(2, 1.0, 2.0, 1.0)
        monkeypatch.setattr(radial, "_phi", lambda nu, k, r1, r: -np.ones_like(r))
        with pytest.raises(NumericalError, match="not positive"):
            res.phi
        with pytest.raises(NumericalError, match="not positive"):
            res.value(1.5)


class TestFiniteDifference:
    def test_matches_closed_form(self):
        lam = solve_shell_fd(3, 1.0, 2.0, 1.0, 10000)
        assert lam == pytest.approx(closed_form_3d(1.0, 2.0, 1.0), rel=1e-6)

    def test_richardson_order(self):
        lam_ref = closed_form_3d(1.0, 2.0, 1.0)
        e1 = abs(solve_shell_fd(3, 1.0, 2.0, 1.0, 400) - lam_ref)
        e2 = abs(solve_shell_fd(3, 1.0, 2.0, 1.0, 800) - lam_ref)
        order = math.log2(e1 / e2)
        assert 1.9 <= order <= 2.1

    def test_neumann_closure_matches_shooting(self):
        lam = solve_shell_fd(2, 1.0, 2.0, 0.0, 20000)
        assert lam == pytest.approx(solve_shell(2, 1.0, 2.0, 0.0).lam, rel=1e-6)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_dirichlet_closure_matches_bessel(self, n):
        lam = solve_shell_fd(n, 1.0, 2.0, math.inf, 20000)
        assert lam == pytest.approx(solve_shell(n, 1.0, 2.0, math.inf).lam, rel=1e-7)

    def test_grid_floor(self):
        with pytest.raises(RangeError):
            solve_shell_fd(2, 1.0, 2.0, 1.0, 50)

    @pytest.mark.parametrize("beta", [-1.0, float("nan")])
    def test_invalid_beta_rejected(self, beta):
        with pytest.raises(RangeError):
            solve_shell_fd(2, 1.0, 2.0, beta, 200)


class TestRadiiMonotonicity:
    def test_standard_sweep(self):
        assert radii_monotonicity(2, 1.0, 1.0, 2.0, 9) == 0

    def test_high_beta_3d(self):
        assert radii_monotonicity(3, 5.0, 1.0, 2.0, 5) == 0

    def test_minimal_sweep(self):
        assert radii_monotonicity(2, 1.0, 1.0, 2.0, 3) == 0
        with pytest.raises(RangeError):
            radii_monotonicity(2, 1.0, 1.0, 2.0, 2)

