"""First Robin-Dirichlet eigenvalue on concentric shells, in any dimension.

The profile phi(r) solves

    -(phi' r^(n-1))' = lambda r^(n-1) phi  on (R1, R2),
    phi(R1) = 0,   phi'(R2) + beta phi(R2) = 0,

with beta in [0, inf]; beta = 0 is the Neumann closure and beta = inf the
Dirichlet one.  Three routes to the same number are provided: adaptive
shooting (the production path), a symmetric finite-difference pencil
(second-discretization oracle) and the elementary 3D closed form.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from .errors import BracketError, NumericalError, RangeError
from .geometry import ShellSpec

PROFILE_SAMPLES = 4097
BRENT_RTOL = 1e-11
ODE_RTOL = 1e-12


def _integrate(n: int, r1: float, r2: float, lam: float):
    """Shooting integration from (phi, phi')(R1) = (0, 1)."""

    def rhs(r, y):
        return (y[1], -lam * y[0] - (n - 1.0) / r * y[1])

    sol = solve_ivp(
        rhs,
        (r1, r2),
        (0.0, 1.0),
        method="DOP853",
        rtol=ODE_RTOL,
        atol=1e-14 * (r2 - r1),
        dense_output=True,
    )
    if not sol.success:
        raise NumericalError(f"ODE integration failed: {sol.message}")
    return sol


def _end_residual(sol, beta: float) -> float:
    phi, dphi = sol.y[0, -1], sol.y[1, -1]
    if math.isinf(beta):
        return phi
    return dphi + beta * phi


def shoot(n: int, r1: float, r2: float, beta: float, lam_trial: float) -> float:
    """Boundary residual of the shooting solution at a trial eigenvalue.

    Returns phi'(R2) + beta phi(R2) (or phi(R2) for beta = inf); the first
    eigenvalue is its smallest positive zero.
    """
    ShellSpec(n, r1, r2)
    if lam_trial < 0.0:
        raise RangeError("trial eigenvalue must be nonnegative")
    return _end_residual(_integrate(n, r1, r2, lam_trial), beta)


@dataclass(frozen=True)
class RadialEigenResult:
    """First eigenpair on a shell with the sampled radial profile.

    r_bar is the unique interior critical radius of the profile, v_m the
    boundary value phi(R2) and v_M the maximum phi(r_bar).  For beta = 0
    the profile is nondecreasing and r_bar degenerates to R2.
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
    _dense: object = None

    def value(self, r):
        """Profile phi at arbitrary radii inside [R1, R2]."""
        return self._dense(np.asarray(r, dtype=float))[0]

    def slope(self, r):
        """Profile derivative phi' at arbitrary radii inside [R1, R2]."""
        return self._dense(np.asarray(r, dtype=float))[1]

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


def _locate_first_root(n, r1, r2, beta, lam_max):
    """Walk lambda upward until the boundary residual changes sign."""
    d = r2 - r1
    step = (math.pi / d) ** 2 / 16.0
    lam_prev = 0.0
    f_prev = _end_residual(_integrate(n, r1, r2, 0.0), beta)
    if f_prev <= 0.0:
        raise NumericalError("residual at lambda = 0 should be positive")
    lam = step
    while lam <= lam_max:
        f = _end_residual(_integrate(n, r1, r2, lam), beta)
        if f == 0.0:
            return lam, lam, f, f
        if f < 0.0:
            return lam_prev, lam, f_prev, f
        lam_prev, f_prev = lam, f
        lam += step
    raise BracketError(f"no sign change of the boundary residual below {lam_max:.6g}")


def solve_shell(
    n: int,
    r1: float,
    r2: float,
    beta: float,
    samples: int = PROFILE_SAMPLES,
    lam_max: float = None,
) -> RadialEigenResult:
    """First Robin-Dirichlet eigenvalue and profile on the shell (R1, R2).

    Brackets the smallest root of the shooting residual starting from
    lambda = 0 and polishes it with Brent's method to 1e-11 relative
    tolerance; beta may be 0 (Neumann closure) or inf (Dirichlet).
    """
    shell = ShellSpec(n, r1, r2)
    if not beta >= 0.0:  # also rejects nan
        raise RangeError("beta must be nonnegative")
    d = r2 - r1
    if lam_max is None:
        lam_max = 8.0 * ((math.pi / d) ** 2 + n * n / (r1 * r1))

    lo, hi, f_lo, f_hi = _locate_first_root(n, r1, r2, beta, lam_max)
    if lo == hi:
        lam = lo
    else:
        lam = brentq(
            lambda L: _end_residual(_integrate(n, r1, r2, L), beta),
            lo,
            hi,
            rtol=BRENT_RTOL,
            xtol=1e-14 * hi,
        )

    sol = _integrate(n, r1, r2, lam)
    rr = np.linspace(r1, r2, samples)
    vals = sol.sol(rr)
    phi, dphi = vals[0], vals[1]
    residual = _end_residual(sol, beta)

    if np.any(phi[1:-1] <= 0.0):
        raise NumericalError("profile is not positive inside the shell")

    if beta == 0.0:
        r_bar, v_m = r2, float(phi[-1])
        v_M = v_m
        if np.any(dphi[:-1] <= 0.0):
            raise NumericalError("Neumann profile should be increasing")
    else:
        drop = np.where((dphi[:-1] > 0.0) & (dphi[1:] <= 0.0))[0]
        if len(drop) != 1:
            raise NumericalError(f"expected one critical radius, found {len(drop)} candidates")
        i = int(drop[0])
        r_bar = brentq(
            lambda r: sol.sol(r)[1], rr[i], rr[i + 1], xtol=1e-12 * d, rtol=8.9e-16
        )
        v_M = float(sol.sol(r_bar)[0])
        v_m = float(phi[-1])
        if not (r1 < r_bar < r2):
            raise NumericalError("critical radius escaped the shell interior")
        if not (v_m < v_M):
            raise NumericalError("boundary value should stay below the maximum")
        if math.isfinite(beta):
            if not 0.0 < v_m:
                raise NumericalError("Robin boundary value should be positive")
            tol = 1e-8 * max(abs(dphi[-1]), beta * v_m)
            if abs(residual) > tol:
                raise NumericalError(f"Robin residual {residual:.3e} above tolerance {tol:.3e}")
        else:
            if abs(residual) > 1e-8 * max(1.0, abs(dphi[-1])):
                raise NumericalError(f"Dirichlet residual {residual:.3e} too large")
    if lam <= 0.0:
        raise NumericalError("eigenvalue must be positive")

    return RadialEigenResult(
        shell=shell,
        beta=beta,
        lam=float(lam),
        r=rr,
        phi=phi,
        dphi=dphi,
        r_bar=float(r_bar),
        v_m=float(v_m),
        v_M=float(v_M),
        method="shooting",
        residual=float(residual),
        _dense=sol.sol,
    )


def closed_form_3d(r1: float, r2: float, beta: float) -> float:
    """Independent 3D oracle from the elementary radial solution.

    With psi = r phi the equation flattens to psi'' + lambda psi = 0, so
    phi = sin(k (r - R1)) / r and the boundary condition becomes
    k R2 cos(k d) + (beta R2 - 1) sin(k d) = 0 with d = R2 - R1.
    """
    ShellSpec(3, r1, r2)
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


# ---------------------------------------------------------------------------
# level sets and transplanted profiles
# ---------------------------------------------------------------------------


def level_radii(result: RadialEigenResult, t: float):
    """Radii (r_i, r_o) where the profile crosses the level t.

    r_i lies on the increasing branch [R1, r_bar]; r_o on the decreasing
    branch [r_bar, R2] and exists only for t >= v_m (None otherwise).
    """
    r1, r2 = result.shell.r_inner, result.shell.r_outer
    if t < 0.0 or t > result.v_M * (1.0 + 1e-12) + 1e-300:
        raise RangeError(f"level {t} outside [0, {result.v_M}]")
    t = min(t, result.v_M)
    d = r2 - r1
    if t <= 0.0:
        r_i = r1
    elif t >= result.v_M:
        r_i = result.r_bar
    else:
        r_i = brentq(lambda r: result.value(r) - t, r1, result.r_bar, xtol=1e-14 * d, rtol=8.9e-16)
    if t < result.v_m:
        return r_i, None
    if t >= result.v_M:
        return r_i, result.r_bar
    if t <= result.v_m:
        return r_i, r2
    r_o = brentq(lambda r: result.value(r) - t, result.r_bar, r2, xtol=1e-14 * d, rtol=8.9e-16)
    return r_i, r_o


@dataclass(frozen=True)
class ProfileTransplant:
    """Profile values as functions of boundary distances, with level slopes.

    inner_value(s) is the profile at distance s from the inner sphere,
    outer_value(s) at distance s from the outer one; the slope samplers
    return |phi'| on the matching branch at a given level.  The integral
    of 1/outer_slope over levels recovers outer distances, which is the
    identity the transplant is built on.
    """

    result: RadialEigenResult

    def inner_value(self, s):
        width = self.result.r_bar - self.result.shell.r_inner
        s = np.asarray(s, dtype=float)
        if np.any(s < -1e-12) or np.any(s > width * (1 + 1e-12)):
            raise RangeError("inner distance outside [0, r_bar - R1]")
        return self.result.value(self.result.shell.r_inner + np.clip(s, 0.0, width))

    def outer_value(self, s):
        width = self.result.shell.r_outer - self.result.r_bar
        s = np.asarray(s, dtype=float)
        if np.any(s < -1e-12) or np.any(s > width * (1 + 1e-12)):
            raise RangeError("outer distance outside [0, R2 - r_bar]")
        return self.result.value(self.result.shell.r_outer - np.clip(s, 0.0, width))

    def inner_value_inverse(self, t: float) -> float:
        r_i, _ = level_radii(self.result, t)
        return r_i - self.result.shell.r_inner

    def outer_value_inverse(self, t: float) -> float:
        if t < self.result.v_m:
            raise RangeError("level below the outer boundary value")
        _, r_o = level_radii(self.result, t)
        return self.result.shell.r_outer - r_o

    def inner_slope(self, tau: float) -> float:
        r_i, _ = level_radii(self.result, tau)
        return float(self.result.slope(r_i))

    def outer_slope(self, tau: float) -> float:
        if tau < self.result.v_m:
            raise RangeError("level below the outer boundary value")
        _, r_o = level_radii(self.result, tau)
        return float(abs(self.result.slope(r_o)))


def distance_profiles(result: RadialEigenResult) -> ProfileTransplant:
    """Samplers of the eigenprofile as a function of boundary distances."""
    if result.beta == 0.0:
        raise RangeError("profile transplant needs beta > 0 (interior maximum)")
    return ProfileTransplant(result)


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
