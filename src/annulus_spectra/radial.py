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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicHermiteSpline
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq
from scipy.special import j0, j1, jv, spherical_jn, spherical_yn, y0, y1, yn, yv

from .errors import BracketError, NumericalError, RangeError
from .geometry import ShellSpec

PROFILE_SAMPLES = 4097
# stated accuracies of lambda (measured: 6e-14 at width 1e-3, else 1e-15)
# and of the profile relative to its maximum (measured: 5e-11 at most)
LAMBDA_RTOL = 1e-11
PROFILE_RTOL = 1e-10
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class RadialEigenResult:
    """First eigenpair on a shell with the radial profile on its knots.

    r, phi and dphi hold the profile on its PROFILE_SAMPLES knots uniform
    in log r, boundary values imposed.  r_bar is the unique interior
    critical radius of the profile, v_m the boundary value phi(R2) and v_M
    the maximum phi(r_bar).  For beta = 0 the profile is nondecreasing and
    r_bar degenerates to R2.
    """

    shell: ShellSpec
    beta: float
    lam: float
    r: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    r_bar: float
    v_m: float
    v_M: float
    method: str
    residual: float
    _dense: tuple = None

    def value(self, r):
        """Profile phi at arbitrary radii inside [R1, R2], by the spline in log r."""
        return self._dense[0](np.log(np.asarray(r, dtype=float)))

    def slope(self, r):
        """Profile derivative phi' at arbitrary radii inside [R1, R2], likewise."""
        return self._dense[1](np.log(np.asarray(r, dtype=float)))

    def report(self) -> dict:
        return {
            "lambda": self.lam,
            "r_bar": self.r_bar,
            "v_m": self.v_m,
            "v_M": self.v_M,
            "method": self.method,
            "residual": self.residual,
        }


def write_profile_csv(result: RadialEigenResult, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "phi", "dphi"])
        for row in zip(result.r, result.phi, result.dphi):
            writer.writerow([f"{v:.17g}" for v in row])


def _jy(mu: float, x):
    """(J_mu(x), Y_mu(x)) for x > 0.

    Arrays of integer or half-integer order mu >= 0 use scipy's kernels for
    those orders, cephes j0/y0/j1/y1 and yn, and J_(m+1/2)(x) = sqrt(2x/pi)
    j_m(x) (DLMF 10.47.3): a fraction of the cost of AMOS jv/yv, within
    8 eps (1 + x) of the modulus sqrt(J^2 + Y^2).  Scalars, such as the
    root polish, and any other order stay on jv/yv.
    """
    if np.ndim(x) == 0 or not mu >= 0.0 or mu % 0.5 != 0.0:
        return jv(mu, x), yv(mu, x)
    if mu == 0.0:
        return j0(x), y0(x)
    if mu == 1.0:
        return j1(x), y1(x)
    if mu % 1.0:
        s = np.sqrt(2.0 / math.pi * x)
        return s * spherical_jn(int(mu), x), s * spherical_yn(int(mu), x)
    return jv(mu, x), yn(int(mu), x)


def _cross(nu: float, mu: float, k, r1: float, r):
    """Z_mu(k r) = J_mu(k r) Y_nu(k R1) - Y_mu(k r) J_nu(k R1), vectorized."""
    j_mu, y_mu = _jy(mu, k * r)
    j_nu, y_nu = _jy(nu, k * r1)
    return j_mu * y_nu - y_mu * j_nu


def _check_beta(beta: float) -> None:
    if not beta >= 0.0:  # also rejects nan
        raise RangeError("beta must be nonnegative")


def _first_root(n: int, r1: float, r2: float, beta: float) -> float:
    """Smallest k > 0 with beta Z_nu(k R2) = k Z_(nu+1)(k R2) (Z_nu(k R2) = 0 at beta = inf).

    Scans the difference, negative below the root, by 1/64 of the root
    spacing pi / d from near zero to lambda = 4 (pi/d)^2 + (n-1)(n-3)/R2^2,
    a bound on the Dirichlet eigenvalue of the outer half shell.
    """
    nu, d = 0.5 * n - 1.0, r2 - r1

    def g(k):
        z0 = _cross(nu, nu, k, r1, r2)
        return z0 if math.isinf(beta) else beta * z0 - k * _cross(nu, nu + 1.0, k, r1, r2)

    step = math.pi / (64.0 * d)
    k_max = math.sqrt(4.0 * (math.pi / d) ** 2 + max(0.0, (n - 1.0) * (n - 3.0)) / r2**2)
    ks = step * (np.arange(math.ceil(k_max / step) + 2) + 1.0 / 16.0)
    up = np.flatnonzero(g(ks) >= 0.0)
    if len(up) == 0:
        raise BracketError(f"no root of the characteristic function below k = {ks[-1]:.6g}")
    lo, hi = (ks[up[0] - 1], ks[up[0]]) if up[0] > 0 else (ks[0] / 16.0, ks[0])
    while not g(lo) < 0.0:  # root below the scan: lambda_ND on a tiny hole, n >= 4
        if lo < 1e-200 * ks[0]:
            raise NumericalError("characteristic function should be negative near k = 0")
        lo, hi = lo / 16.0, lo
    return brentq(lambda k: float(g(k)), lo, hi, xtol=1e-15 * hi)


def solve_shell(n: int, r1: float, r2: float, beta: float) -> RadialEigenResult:
    """First Robin-Dirichlet eigenvalue and profile on the shell (R1, R2).

    k is the first root of the Bessel characteristic equation, polished by
    Brent's method; beta may be 0 (Neumann closure) or inf (Dirichlet).
    The exact profile on PROFILE_SAMPLES knots uniform in t = log r feeds
    cubic Hermite splines of phi (dphi/dt = r phi') and phi' (by the ODE,
    d(phi')/dt = -(n-1) phi' - lambda r phi), read by value() and slope().
    """
    shell = ShellSpec(n, r1, r2)
    _check_beta(beta)
    nu = 0.5 * n - 1.0
    k = _first_root(n, r1, r2, beta)
    lam = k * k

    t = np.linspace(math.log(r1), math.log(r2), PROFILE_SAMPLES)
    r = np.exp(t)
    r[0], r[-1] = r1, r2
    c = -0.5 * math.pi * r1 ** (nu + 1.0)
    scale = c * r**-nu
    phi = scale * _cross(nu, nu, k, r1, r)
    dphi = -k * scale * _cross(nu, nu + 1.0, k, r1, r)
    phi[0] = 0.0

    # the residual's rounding scales with the Bessel moduli sqrt(J^2 + Y^2) of
    # its products, which may both vanish; measured at most 5.1 of 64 units
    mod = lambda mu, x: math.hypot(jv(mu, x), yv(mu, x))
    unit = 64.0 * EPS * (1.0 + k * r2) * abs(scale[-1]) * mod(nu, k * r1)
    phi_err = unit * mod(nu, k * r2)
    if math.isinf(beta):
        residual, tol = phi[-1], phi_err
    else:
        residual = dphi[-1] + beta * phi[-1]
        tol = k * unit * mod(nu + 1.0, k * r2) + beta * phi_err
    if not abs(residual) <= tol:
        raise NumericalError(f"boundary residual {residual:.3e} above rounding allowance {tol:.3e}")
    # impose the boundary condition on the better-conditioned side: phi(R2)
    # nears a zero of Z_nu when beta > k, phi'(R2) one of Z_(nu+1) otherwise
    if beta > k:
        phi[-1] = 0.0 if math.isinf(beta) else -dphi[-1] / beta
    else:
        dphi[-1] = -beta * phi[-1] if beta else 0.0

    if np.any(phi[1:-1] <= 0.0):
        raise NumericalError("profile is not positive inside the shell")
    v_m = float(phi[-1])
    if beta == 0.0:
        r_bar, v_M = r2, v_m
        if np.any(dphi[:-1] <= 0.0):
            raise NumericalError("Neumann profile should be increasing")
    else:
        drop = np.flatnonzero((dphi[:-1] > 0.0) & (dphi[1:] <= 0.0))
        if len(drop) != 1:
            raise NumericalError(f"expected one critical radius, found {len(drop)} candidates")
        i = int(drop[0])
        z1 = lambda s: _cross(nu, nu + 1.0, k, r1, s)
        try:
            r_bar = brentq(z1, r[i], r[i + 1], xtol=EPS * r1)
        except ValueError as err:  # no sign change: beta below the rounding of phi'
            raise NumericalError("critical radius not resolved next to R2") from err
        v_M = c * r_bar**-nu * _cross(nu, nu, k, r1, r_bar)
        if not (r1 < r_bar < r2):
            raise NumericalError("critical radius escaped the shell interior")
        if not (v_m < v_M):
            raise NumericalError("boundary value should stay below the maximum")
        if math.isfinite(beta) and not 0.0 < v_m:
            raise NumericalError("Robin boundary value should be positive")
    if lam <= 0.0:
        raise NumericalError("eigenvalue must be positive")

    dense = (
        CubicHermiteSpline(t, phi, r * dphi),
        CubicHermiteSpline(t, dphi, -(n - 1.0) * dphi - lam * r * phi),
    )
    return RadialEigenResult(
        shell=shell,
        beta=beta,
        lam=float(lam),
        r=r,
        phi=phi,
        dphi=dphi,
        r_bar=float(r_bar),
        v_m=v_m,
        v_M=float(v_M),
        method="bessel",
        residual=float(residual),
        _dense=dense,
    )


def closed_form_3d(r1: float, r2: float, beta: float) -> float:
    """Independent 3D oracle from the elementary radial solution.

    With psi = r phi the equation flattens to psi'' + lambda psi = 0, so
    phi = sin(k (r - R1)) / r and the boundary condition becomes
    k R2 cos(k d) + (beta R2 - 1) sin(k d) = 0 with d = R2 - R1.
    """
    ShellSpec(3, r1, r2)
    _check_beta(beta)
    d = r2 - r1
    if math.isinf(beta):
        return (math.pi / d) ** 2

    def f(k):
        return k * r2 * math.cos(k * d) + (beta * r2 - 1.0) * math.sin(k * d)

    # the first root always lies in (0, pi/d]: f(0+) > 0, f(pi/d) < 0
    k_hi = math.pi / d
    m = 256
    ks = np.linspace(k_hi / m, k_hi, m)
    fs = np.array([f(k) for k in ks])
    idx = np.where(np.sign(fs[:-1]) != np.sign(fs[1:]))[0]
    if len(idx) == 0:
        if fs[-1] == 0.0:
            return k_hi**2
        raise BracketError("no root of the 3D characteristic equation found")
    i = int(idx[0])
    k = brentq(f, ks[i], ks[i + 1], rtol=8.9e-16, xtol=1e-15 * k_hi)
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


@dataclass(frozen=True)
class MonotonicityReport:
    radii: np.ndarray
    lam_growing_outer: np.ndarray
    lam_growing_inner: np.ndarray
    violations: int


def radii_monotonicity(n: int, beta: float, r1: float, r2: float, k: int) -> MonotonicityReport:
    """Sweep the shell radii: growing the outer radius must lower the
    eigenvalue, growing the inner one must raise it."""
    if k < 3:
        raise RangeError("need at least 3 sweep points")
    radii = np.linspace(r1, r2, k + 2)[1:-1]
    lam_outer = np.array([solve_shell(n, r1, r, beta).lam for r in radii])
    lam_inner = np.array([solve_shell(n, r, r2, beta).lam for r in radii])
    violations = int(np.sum(np.diff(lam_outer) >= 0.0)) + int(np.sum(np.diff(lam_inner) <= 0.0))
    return MonotonicityReport(radii, lam_outer, lam_inner, violations)
