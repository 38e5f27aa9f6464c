"""First Robin-Dirichlet eigenvalue on concentric shells, in any dimension.

The profile phi(r) solves

    -(phi' r^(n-1))' = lambda r^(n-1) phi  on (R1, R2),
    phi(R1) = 0,   phi'(R2) + beta phi(R2) = 0,

with beta in [0, inf]; beta = 0 is the Neumann closure and beta = inf the
Dirichlet one.  With nu = n/2 - 1, k = sqrt(lambda) and Z_mu(x) =
J_mu(x) Y_nu(k R1) - Y_mu(x) J_nu(k R1), phi = c r^-nu Z_nu(k r) and
phi' = -c k r^-nu Z_(nu+1)(k r) (DLMF 10.6.6); c = -pi R1^(nu+1) / 2 gives
phi'(R1) = 1 by the Wronskian (DLMF 10.5.2).  Three routes to the same
number: this Bessel characteristic equation (the production path), a
symmetric finite-difference pencil (oracle) and the 3D closed form.

solve_shell certifies the eigenpair from a subset of the profile's knots:
the boundary residual, one critical radius r_bar (or a nondecreasing
profile at beta = 0) and the values phi(R2) < phi(r_bar), up to their
rounding, which v_M - v_m falls below as beta -> 0.  The subset is
every stride-th knot, stride the largest power of two that keeps it at
most pi/(4k) apart in r, and it misses no zero of phi'.  sqrt(x) Z_mu(x)
solves u'' + (1 - (4 mu^2 - 1)/(4 x^2)) u = 0, so for mu = nu + 1 = n/2 >= 1
Sturm comparison with u'' + u = 0 puts consecutive zeros of Z_(nu+1)(k r)
more than pi/k apart: each zero of phi', all simple, flips its sign
between two neighbouring subset knots, and the one subset interval where
phi' drops holds r_bar alone, so Brent's method finds it there.
phi(R1) = 0, phi' > 0 before r_bar, phi' < 0 after it and phi(R2) >= 0
then make the profile positive.  The profile on all knots and its
splines are built on first read, and that build checks positivity and
the single drop of phi' on every knot again.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicHermiteSpline
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq
from scipy.special import j0, j1, jv, y0, y1, yn
from scipy.special._ufuncs import _spherical_jn, _spherical_yn

from .errors import BracketError, NumericalError, RangeError
from .geometry import ShellSpec

PROFILE_SAMPLES = 4097
# stated accuracies of lambda (measured against 30-digit roots: 1.4e-13 at
# width 1e-3, 2e-14 on a hole of radius 1e-3 in 2, 4e-15 on (1, 2))
# and of the profile relative to its maximum (measured: 5e-11 at most)
LAMBDA_RTOL = 1e-11
PROFILE_RTOL = 1e-10
EPS = float(np.finfo(float).eps)
# the root scan evaluates its grid this many points at a time
_SCAN_BLOCK = 32


@dataclass(frozen=True)
class RadialEigenResult:
    """First eigenpair on a shell with the radial profile on its knots.

    r holds the PROFILE_SAMPLES knots uniform in log r.  r_bar is the
    unique interior critical radius of the profile, v_m the boundary value
    phi(R2) and v_M the maximum phi(r_bar).  For beta = 0 the profile is
    nondecreasing and r_bar degenerates to R2.  phi and dphi, the profile
    on the knots with boundary values imposed, and the splines behind
    value() and slope() are built on first read.  The arrays are read-only.
    """

    shell: ShellSpec
    beta: float
    lam: float
    r: np.ndarray
    r_bar: float
    v_m: float
    v_M: float
    residual: float
    _k: float = field(repr=False)

    def __post_init__(self):
        self.r.setflags(write=False)

    @functools.cached_property
    def _profile(self):
        """phi and dphi on every knot, checked again, and their splines."""
        n, r1, r2 = self.shell.dim, self.shell.r_inner, self.shell.r_outer
        nu, k, r = 0.5 * n - 1.0, self._k, self.r
        phi, dphi = _phi(nu, k, r1, r), _dphi(nu, k, r1, r)
        phi[0] = 0.0
        _impose_outer(phi, dphi, self.beta, k)
        if np.any(phi[1:-1] <= 0.0):
            raise NumericalError("profile is not positive inside the shell")
        _one_drop(dphi, self.beta)
        phi.setflags(write=False)
        dphi.setflags(write=False)
        t = _log_knots(r1, r2)
        return (
            phi,
            dphi,
            CubicHermiteSpline(t, phi, r * dphi),
            CubicHermiteSpline(t, dphi, -(n - 1.0) * dphi - self.lam * r * phi),
        )

    @property
    def phi(self) -> np.ndarray:
        return self._profile[0]

    @property
    def dphi(self) -> np.ndarray:
        return self._profile[1]

    def value(self, r):
        """Profile phi at arbitrary radii inside [R1, R2], by the spline in log r."""
        return self._profile[2](np.log(np.asarray(r, dtype=float)))

    def slope(self, r):
        """Profile derivative phi' at arbitrary radii inside [R1, R2], likewise."""
        return self._profile[3](np.log(np.asarray(r, dtype=float)))

    def report(self) -> dict:
        return {
            "lambda": self.lam,
            "r_bar": self.r_bar,
            "v_m": self.v_m,
            "v_M": self.v_M,
            "method": "bessel",
            "residual": self.residual,
        }


def _jy(mu: float, x):
    """(J_mu(x), Y_mu(x)) for x > 0: the module's one Bessel evaluation.

    mu is nu or nu + 1 of an integer dimension n >= 2, so an integer or
    half-integer >= 0, and scipy's kernels for those orders serve scalars
    and arrays alike, bit for bit: cephes j0/y0 and j1/y1 at orders 0 and
    1, jv with yn at higher integer orders, and J_(m+1/2)(x) = sqrt(2x/pi)
    j_m(x) (DLMF 10.47.3) on the ufuncs _spherical_jn/_spherical_yn, which
    scipy's spherical_jn/spherical_yn call through a wrapper that reflects
    x < 0 (about 30 us per call; x > 0 here); all within 8 eps (1 + x) of
    the modulus sqrt(J^2 + Y^2), at a fraction of the cost of AMOS jv/yv.
    """
    if mu == 0.0:
        return j0(x), y0(x)
    if mu == 1.0:
        return j1(x), y1(x)
    if mu % 1.0:
        s = np.sqrt(2.0 / math.pi * x)
        return s * _spherical_jn(int(mu), x), s * _spherical_yn(int(mu), x)
    return jv(mu, x), yn(int(mu), x)


def _cross(nu: float, mu: float, k, r1: float, r, inner=None):
    """Z_mu(k r) = J_mu(k r) Y_nu(k R1) - Y_mu(k r) J_nu(k R1), vectorized;
    inner is (J_nu(k R1), Y_nu(k R1)) = _jy(nu, k R1) when the caller holds it."""
    j_mu, y_mu = _jy(mu, k * r)
    j_nu, y_nu = _jy(nu, k * r1) if inner is None else inner
    return j_mu * y_nu - y_mu * j_nu


def _scale(nu: float, r1: float, r):
    """c r^-nu with c = -pi R1^(nu+1) / 2."""
    return -0.5 * math.pi * r1 ** (nu + 1.0) * r**-nu


def _phi(nu: float, k: float, r1: float, r, inner=None):
    return _scale(nu, r1, r) * _cross(nu, nu, k, r1, r, inner)


def _dphi(nu: float, k: float, r1: float, r, inner=None):
    return -k * _scale(nu, r1, r) * _cross(nu, nu + 1.0, k, r1, r, inner)


def _log_knots(r1: float, r2: float) -> np.ndarray:
    return np.linspace(math.log(r1), math.log(r2), PROFILE_SAMPLES)


def _stride(r, k: float) -> int:
    """The largest power-of-two stride of the knots r, increasingly spaced,
    that keeps them at most pi/(4k) apart."""
    stride = PROFILE_SAMPLES - 1
    while stride > 1 and r[-1] - r[-1 - stride] > 0.25 * math.pi / k:
        stride //= 2
    return stride


def _impose_outer(phi, dphi, beta: float, k: float) -> None:
    """Impose the boundary condition on the last entries, on the
    better-conditioned side: phi(R2) nears a zero of Z_nu when beta > k,
    phi'(R2) one of Z_(nu+1) otherwise."""
    if beta > k:
        phi[-1] = 0.0 if math.isinf(beta) else -dphi[-1] / beta
    else:
        dphi[-1] = -beta * phi[-1] if beta else 0.0


def _one_drop(dphi, beta: float):
    """Index of the one interval where phi' turns nonpositive; at beta = 0
    a check that phi' stays positive before R2 instead, giving None."""
    if beta == 0.0:
        if np.any(dphi[:-1] <= 0.0):
            raise NumericalError("Neumann profile should be increasing")
        return None
    drop = np.flatnonzero((dphi[:-1] > 0.0) & (dphi[1:] <= 0.0))
    if len(drop) != 1:
        raise NumericalError(f"expected one critical radius, found {len(drop)} candidates")
    return int(drop[0])


def _check_beta(beta: float) -> None:
    if not beta >= 0.0:  # also rejects nan
        raise RangeError("beta must be nonnegative")


def _first_root(n: int, r1: float, r2: float, beta: float) -> float:
    """Smallest k > 0 with beta Z_nu(k R2) = k Z_(nu+1)(k R2) (Z_nu(k R2) = 0 at beta = inf).

    Scans the difference, negative below the root, by 1/64 of the root
    spacing pi / d from near zero to lambda = 4 (pi/d)^2 + (n-1)(n-3)/R2^2,
    a bound on the Dirichlet eigenvalue of the outer half shell.  The scan
    evaluates that grid _SCAN_BLOCK points at a time and stops at the block
    holding the first point where the difference turns nonnegative, so its
    bracket is the full scan's, and Brent's method reads the scan's own
    values at its ends (_jy gives a scalar the array's value); each
    evaluation computes J_nu(k R1) and Y_nu(k R1) once for both cross products.
    """
    nu, d = 0.5 * n - 1.0, r2 - r1

    def g(k):
        inner = _jy(nu, k * r1)
        z0 = _cross(nu, nu, k, r1, r2, inner)
        return z0 if math.isinf(beta) else beta * z0 - k * _cross(nu, nu + 1.0, k, r1, r2, inner)

    step = math.pi / (64.0 * d)
    k_max = math.sqrt(4.0 * (math.pi / d) ** 2 + max(0.0, (n - 1.0) * (n - 3.0)) / r2**2)
    ks = step * (np.arange(math.ceil(k_max / step) + 2) + 1.0 / 16.0)
    for start in range(0, len(ks), _SCAN_BLOCK):
        up = np.flatnonzero(g(ks[start : start + _SCAN_BLOCK]) >= 0.0)
        if len(up):
            break
    else:
        raise BracketError(f"no root of the characteristic function below k = {ks[-1]:.6g}")
    first = start + int(up[0])
    lo, hi = (ks[first - 1], ks[first]) if first > 0 else (ks[0] / 16.0, ks[0])
    while not g(lo) < 0.0:  # root below the scan: lambda_ND on a tiny hole, n >= 4
        if lo < 1e-200 * ks[0]:
            raise NumericalError("characteristic function should be negative near k = 0")
        lo, hi = lo / 16.0, lo
    return brentq(lambda k: float(g(k)), lo, hi, xtol=1e-15 * hi)


def solve_shell(n: int, r1: float, r2: float, beta: float) -> RadialEigenResult:
    """First Robin-Dirichlet eigenvalue of the shell (R1, R2), certified.

    k is the first root of the Bessel characteristic equation, polished by
    Brent's method; beta may be 0 (Neumann closure) or inf (Dirichlet).
    The solve checks the boundary residual against its rounding allowance
    and phi' on the stride subset of the knots (module docstring) for one
    critical radius; Brent's method finds r_bar on the subset interval
    where phi' drops, the only zero of phi' in it.  Every value, scalar or
    array, comes from the kernels of _jy, so a knot has the same sign in
    the subset, the full profile and the polish, which can lose its sign
    change only at R2, where phi' is imposed.
    The full profile on PROFILE_SAMPLES knots uniform in t = log r, with
    cubic Hermite splines of phi (dphi/dt = r phi') and phi' (by the ODE,
    d(phi')/dt = -(n-1) phi' - lambda r phi), is built on first read of
    phi, dphi, value() or slope().  J_nu(k R1) and Y_nu(k R1) at the root
    are computed once and serve the knot values, the Brent function of
    r_bar, v_M and the rounding unit alike, and _jy also gives the moduli
    of the residual allowances.
    """
    shell = ShellSpec(n, r1, r2)
    _check_beta(beta)
    nu = 0.5 * n - 1.0
    k = _first_root(n, r1, r2, beta)
    lam = k * k
    inner = _jy(nu, k * r1)

    r = np.exp(_log_knots(r1, r2))
    r[0], r[-1] = r1, r2
    stride = _stride(r, k)
    dphi = _dphi(nu, k, r1, r[::stride], inner)
    phi = _phi(nu, k, r1, r[-1:], inner)

    # the residual's rounding scales with the Bessel moduli sqrt(J^2 + Y^2) of
    # its products, which may both vanish; measured at most 5.1 of 64 units.
    # Allowances count units: two moduli overflow together on tiny holes at large n
    mod = lambda mu, x: math.hypot(*_jy(mu, x))
    unit = 64.0 * EPS * (1.0 + k * r2) * float(abs(_scale(nu, r1, r2))) * math.hypot(*inner)
    phi_err = mod(nu, k * r2)
    if math.isinf(beta):
        residual, tol = phi[-1], phi_err
    else:
        residual = dphi[-1] + beta * phi[-1]
        tol = k * mod(nu + 1.0, k * r2) + beta * phi_err
    if not abs(residual) / unit <= tol:
        raise NumericalError(f"boundary residual {residual:.3e} above {tol:.3e} units of {unit:.3e}")
    _impose_outer(phi, dphi, beta, k)

    v_m = float(phi[-1])
    drop = _one_drop(dphi, beta)
    if drop is None:
        r_bar, v_M = r2, v_m
    else:
        z1 = lambda s: _cross(nu, nu + 1.0, k, r1, s, inner)
        try:
            r_bar = brentq(z1, r[stride * drop], r[stride * (drop + 1)], xtol=EPS * r1)
        except ValueError as err:  # phi'(R2) imposed: beta below the rounding of phi'
            raise NumericalError("critical radius not resolved next to R2") from err
        v_M = _scale(nu, r1, r_bar) * _cross(nu, nu, k, r1, r_bar, inner)
        if not (r1 < r_bar < r2):
            raise NumericalError("critical radius escaped the shell interior")
        # v_M - v_m vanishes with beta: allow the rounding of both values
        bar_err = (r2 / r_bar) ** nu * mod(nu, k * r_bar)
        if not (v_m - v_M) / unit < phi_err + bar_err:
            raise NumericalError("boundary value should stay below the maximum")
        if math.isfinite(beta) and not 0.0 < v_m:
            raise NumericalError("Robin boundary value should be positive")
    if lam <= 0.0:
        raise NumericalError("eigenvalue must be positive")

    return RadialEigenResult(
        shell=shell,
        beta=beta,
        lam=float(lam),
        r=r,
        r_bar=float(r_bar),
        v_m=v_m,
        v_M=float(v_M),
        residual=float(residual),
        _k=k,
    )


def closed_form_3d(r1: float, r2: float, beta: float) -> float:
    """Independent 3D oracle from the elementary radial solution.

    With psi = r phi the equation flattens to psi'' + lambda psi = 0, so
    phi = sin(k (r - R1)) / r and the boundary condition becomes
    f(k) = k R2 cos(k d) + (beta R2 - 1) sin(k d) = 0 with d = R2 - R1.
    f has one zero on (0, pi/d]: f(k)/k -> R1 + beta R2 d > 0 as k -> 0+
    and f(pi/d) = -pi R2/d < 0.  For beta R2 < 1 the root solves tan(k d)
    = k R2/(1 - beta R2), a line steeper than tan(k d) at 0 that meets it
    once on (0, pi/(2d)) and never after; for beta R2 > 1 tan(k d) crosses
    the negative line once on (pi/(2d), pi/d); beta R2 = 1 gives pi/(2d).
    On tiny holes k R2 cos(k d) and sin(k d) nearly cancel, so f is
    evaluated as k R1 cos x + (x cos x - sin x) + beta R2 sin x, x = k d,
    with the middle term from its series, the sum over m >= 1 of
    (-1)^m 2m x^(2m+1) / (2m+1)!, when x < 1/2.  Brent's method brackets
    the root from 2^-30 pi/d to a tolerance relative to the root itself;
    BracketError when the root lies below that start (R1 below about
    3e-18 d at beta = 0) or rounding loses the sign of f(pi/d) (beta above
    about 3e16 / d).
    """
    ShellSpec(3, r1, r2)
    _check_beta(beta)
    d = r2 - r1
    if math.isinf(beta):
        return (math.pi / d) ** 2

    def f(k):
        x = k * d
        if x < 0.5:
            term, bend = -(x**3) / 3.0, 0.0
            for m in range(1, 9):  # the ninth term is below 1e-17 of the first
                bend += term
                term *= -x * x / (2 * m * (2 * m + 3))
        else:
            bend = x * math.cos(x) - math.sin(x)
        return k * r1 * math.cos(x) + bend + beta * r2 * math.sin(x)

    k_lo, k_hi = 2.0**-30 * math.pi / d, math.pi / d
    if not f(k_lo) > 0.0 > f(k_hi):
        raise BracketError("no root of the 3D characteristic equation found")
    k = brentq(f, k_lo, k_hi, rtol=8.9e-16, xtol=EPS * k_lo)
    return k * k


def solve_shell_fd(n: int, r1: float, r2: float, beta: float, m: int) -> float:
    """Second-discretization oracle: symmetric tridiagonal pencil eigenvalue.

    Conservative finite volumes with midpoint weights r^(n-1), a flux
    closure of the Robin condition on a trailing half cell, and the
    Sturm-sequence bisection eigensolver on the standard-form tridiagonal
    matrix.  O(1/m^2) accurate.
    """
    ShellSpec(n, r1, r2)
    _check_beta(beta)
    if m < 100:
        raise RangeError("need at least 100 grid points")
    h = (r2 - r1) / m
    r = r1 + h * np.arange(m + 1)
    a_mid = (0.5 * (r[:-1] + r[1:])) ** (n - 1)

    if math.isinf(beta):
        # both ends eliminated
        diag = (a_mid[:-1] + a_mid[1:]) / h
        off = -a_mid[1:-1] / h
        mass = h * r[1:-1] ** (n - 1)
    else:
        diag = np.empty(m)
        diag[:-1] = (a_mid[:-1] + a_mid[1:]) / h
        diag[-1] = a_mid[-1] / h + beta * r2 ** (n - 1)
        off = -a_mid[1:] / h
        mass = np.empty(m)
        mass[:-1] = h * r[1:-1] ** (n - 1)
        mass[-1] = 0.5 * h * r2 ** (n - 1)

    inv_sqrt = 1.0 / np.sqrt(mass)
    d_std = diag * inv_sqrt * inv_sqrt
    e_std = off * inv_sqrt[:-1] * inv_sqrt[1:]
    vals = eigh_tridiagonal(d_std, e_std, select="i", select_range=(0, 0), eigvals_only=True)
    return float(vals[0])


def radii_monotonicity(n: int, beta: float, r1: float, r2: float, k: int) -> int:
    """Sweep the shell radii: growing the outer radius must lower the
    eigenvalue, growing the inner one must raise it.  Returns the count of
    sweep steps that break either rule."""
    if k < 3:
        raise RangeError("need at least 3 sweep points")
    radii = np.linspace(r1, r2, k + 2)[1:-1]
    lam_outer = np.array([solve_shell(n, r1, r, beta).lam for r in radii])
    lam_inner = np.array([solve_shell(n, r, r2, beta).lam for r in radii])
    return int(np.sum(np.diff(lam_outer) >= 0.0)) + int(np.sum(np.diff(lam_inner) <= 0.0))
