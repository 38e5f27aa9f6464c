"""Web test functions: transplanting the shell eigenprofile onto a domain.

On a class-S annular domain the radial eigenprofile of the matched shell
is rebuilt from boundary distances: near the hole the profile rises with
the hole distance, near the outer boundary it falls with the outer
distance, and the two pieces are glued along the split curve where the
hole-distance sublevel set reaches the area of the shell's inner part.
The resulting function has the shell's boundary data, so its Rayleigh
quotient sits between the domain's eigenvalue and the shell's.

The construction promises continuity across the split curve only on the
shell itself; the interface jump, read in closed form off the hole's free
distance, is therefore part of the certificate and webs that exceed the
declared tolerance are flagged instead of silently accepted.

Each piece of the web depends on one distance, which has unit gradient,
so by the coarea formula every integral of its Rayleigh quotient is a 1D
integral of the profile against the length of a level set (the inner
parallel method).  On circle pairs those lengths are closed-form arcs and
the quotient is computed to round-off, with its quadrature error; other
members are still integrated on a midpoint grid between the two curves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .analysis import InequalityReport
from .errors import InfeasibleError, InvalidWebError, RangeError
from .fem import solve_domain
from .geometry import (
    CLASS_S_RTOL,
    AnnularDomain,
    Circle,
    ConvexPolygon,
    circle_in_disk_angle,
    class_s_data,
    convex_intersection_area,
    disk_intersection_area,
    outer_parallel_points,
)
from .radial import RadialEigenResult, solve_shell

CONTINUITY_FACTOR = 1e-3
# (n_s, n_theta): midpoint cells across and along the annulus, for the
# members whose curves are not both circles
DEFAULT_QUAD_LEVEL = (2048, 128)
# Gauss-Legendre nodes per panel of the coarea quotient on circle pairs,
# and the coarser count that its quadrature error is read against
COAREA_NODES = (32, 16)
CLIP_SAMPLES = 2048
# brentq's absolute tolerance on s*, relative to the farthest outer distance
SPLIT_XTOL = 1e-12


def _sublevel_area(domain: AnnularDomain, s: float, outer_poly) -> float:
    """|{x in Omega : dist(x, hole) < s}|.

    Steiner-exact while the parallel body stays inside the outer region
    (s up to the domain's gap); afterwards the overflow is cut off
    analytically for circle pairs and otherwise by the exact area of the
    parallel body's polygon inside outer_poly, both star shaped about the
    domain's center.
    """
    hole = domain.inner
    if s <= domain.gap:
        return hole.perimeter() * s + math.pi * s * s
    if isinstance(hole, Circle) and isinstance(domain.outer, Circle):
        grown = disk_intersection_area(
            hole.center, hole.radius + s, domain.outer.center, domain.outer.radius
        )
        return grown - hole.area()
    body = ConvexPolygon(outer_parallel_points(hole, s, CLIP_SAMPLES))
    return convex_intersection_area(body, outer_poly, domain.center) - hole.area()


def _split(domain: AnnularDomain, radial: RadialEigenResult):
    """(s*, outer_poly): the distance s* whose hole-distance sublevel set
    has the area of the shell's inner part, between R1 and r_bar, and the
    outer polygon of the area law.

    Up to the hole's free distance domain.gap the area law is an exact
    quadratic in s whose class-S root is r_bar - R1, returned with
    outer_poly None; past it the outer boundary truncates the law and
    brentq finds s* on it.
    """
    r1, r2, residual = class_s_data(domain)
    if abs(residual) > CLASS_S_RTOL * domain.area:
        raise InfeasibleError(
            f"domain is not in class S (relative residual {residual / domain.area:.3e})"
        )
    shell = radial.shell
    if abs(shell.r_inner - r1) > 1e-6 * r1 or abs(shell.r_outer - r2) > 1e-6 * r2:
        raise InfeasibleError("radial profile was solved on a different shell")
    target = math.pi * (radial.r_bar**2 - r1 * r1)
    if target >= domain.area:
        raise InfeasibleError("split area target exceeds the domain area")

    if radial.r_bar - r1 <= domain.gap:
        return radial.r_bar - r1, None

    outer_poly = domain.outer.to_polygon(CLIP_SAMPLES)
    boundary_pts = domain.outer.sample(CLIP_SAMPLES)
    s_hi = float(np.max(domain.inner.distance(boundary_pts)))

    def shortfall(s):
        return _sublevel_area(domain, s, outer_poly) - target

    # the Steiner area at the gap is below the target, as r_bar - R1 > gap
    if shortfall(s_hi) < 0.0:
        raise InfeasibleError(
            f"split area target is not reached within the outer polygon (s <= {s_hi:.6g})"
        )
    s_star = brentq(shortfall, domain.gap, s_hi, xtol=SPLIT_XTOL * s_hi)
    return s_star, outer_poly


@dataclass(frozen=True)
class WebFunction:
    """Transplanted profile with its validity certificate.

    split_s is the gluing distance; interface_jump the largest jump across
    the split curve; contained records whether split_s stays below the
    domain's gap, so that the inner piece keeps off the outer boundary (as
    the boundary values must, to match the shell's).  certified means both
    checks passed at the declared continuity tolerance.
    """

    domain: AnnularDomain
    radial: RadialEigenResult
    split_s: float
    continuity_tol: float
    interface_jump: float
    split_area_rel_err: float

    @property
    def checks(self) -> list:
        """Records of split_s < gap and interface_jump <= continuity_tol."""
        return [
            InequalityReport("web_contained", self.split_s, np.nextafter(self.domain.gap, 0.0), 0.0),
            InequalityReport("web_continuous", self.interface_jump, 0.0, self.continuity_tol),
        ]

    @property
    def contained(self) -> bool:
        return self.checks[0].passed

    @property
    def certified(self) -> bool:
        return all(check.passed for check in self.checks)

    def evaluate(self, points) -> np.ndarray:
        """Web values at points of the closed annulus (vectorized)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self._profile(self.domain.inner.distance(pts), self.domain.outer.distance(pts))[0]

    def _profile(self, d_i, d_o):
        """(w, |grad w|) from the hole and outer distances of the points.

        Distance functions have unit gradient almost everywhere, so the
        chain rule leaves just the transplanted profile slope off the
        plateaus, and 0 on them.
        """
        shell = self.radial.shell
        r_bar = self.radial.r_bar
        in_mi = d_i < self.split_s
        value = np.empty(len(d_i))
        value[in_mi] = self.radial.value(np.minimum(shell.r_inner + d_i[in_mi], r_bar))
        value[~in_mi] = self.radial.value(np.maximum(shell.r_outer - d_o[~in_mi], r_bar))
        slope = np.zeros(len(d_i))
        rising = in_mi & (d_i < r_bar - shell.r_inner)
        falling = ~in_mi & (d_o < shell.r_outer - r_bar)
        slope[rising] = np.abs(self.radial.slope(shell.r_inner + d_i[rising]))
        slope[falling] = np.abs(self.radial.slope(shell.r_outer - d_o[falling]))
        return value, slope

    def report(self) -> dict:
        return {
            "s_star": self.split_s,
            "gap": self.domain.gap,
            "interface_jump": self.interface_jump,
            "continuity_tol": self.continuity_tol,
            "continuity_ok": self.checks[1].passed,
            "inner_region_contained": self.contained,
            "certified": self.certified,
            "split_area_rel_err": self.split_area_rel_err,
        }


def build_web(domain: AnnularDomain, radial: RadialEigenResult) -> WebFunction:
    """Construct the web function and its validity certificate.

    The jump is closed-form.  On the split curve the inner side is on its
    plateau (s* >= r_bar - R1).  The outer side phi(max(R2 - d_o, r_bar))
    is least where d_o is: at the grown hole's free distance gap - s*, or
    at 0 once s* > gap and the curve crosses the outer boundary.
    """
    if radial.shell.dim != 2:
        raise RangeError("web functions are built on planar domains only")
    if radial.beta == 0.0:
        raise RangeError("web construction needs beta > 0")
    s_star, outer_poly = _split(domain, radial)
    shell, r_bar = radial.shell, radial.r_bar
    inside_val = radial.value(min(shell.r_inner + s_star, r_bar))
    outer_val = radial.value(max(shell.r_outer - max(domain.gap - s_star, 0.0), r_bar))
    target = math.pi * (r_bar**2 - shell.r_inner**2)
    return WebFunction(
        domain=domain,
        radial=radial,
        split_s=s_star,
        continuity_tol=CONTINUITY_FACTOR * radial.v_M,
        interface_jump=abs(float(inside_val) - float(outer_val)),
        split_area_rel_err=abs(_sublevel_area(domain, s_star, outer_poly) - target) / target,
    )


@functools.lru_cache(maxsize=None)
def _legendre(n: int):
    """Read-only n-point Gauss-Legendre nodes and weights on [-1, 1]."""
    rule = np.polynomial.legendre.leggauss(n)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _cosine_panels(lo: float, hi: float, breaks, n: int):
    """Nodes and weights of n-point Gauss-Legendre on each panel of
    [lo, hi] cut at the breaks inside it.

    Each panel [p, q] is mapped by t = p + (q - p)(1 - cos u)/2, u in
    [0, pi], whose sin u factor absorbs the square-root ends of the arc
    lengths at the tangency radii.
    """
    cuts = np.unique(np.clip([lo, hi, *breaks], lo, hi))
    x, wx = _legendre(n)
    u = 0.5 * math.pi * (x + 1.0)
    p, q = cuts[:-1, None], cuts[1:, None]
    t = p + 0.5 * (q - p) * (1.0 - np.cos(u))
    return t.ravel(), (0.25 * math.pi * (q - p) * np.sin(u) * wx).ravel()


def _coarea_quotient(web: WebFunction, beta: float, n: int):
    """({gradient, boundary, mass}, value) on a circle pair by the coarea
    formula, n Gauss-Legendre nodes per panel.

    Both distances have unit gradient, so each volume integral is a 1D
    integral of the profile against the length of a level set.  On the
    inner piece the level sets of d_i = s in [0, s*] are the circles
    |x - c_h| = R1 + s inside the outer disk; on the outer piece those of
    d_o = t are the circles |x - c_o| = R2 - t outside the disk
    |x - c_h| < b, b = R1 + s*.  The boundary term runs over the angle psi
    at c_o from the direction of c_h, where |x - c_h|^2 = R2^2 + e^2 -
    2 R2 e cos psi; it is the constant v_m^2 2 pi R2 when the inner piece
    stays off the outer circle (b <= R2 - e).  Panels break where an arc
    length or the profile has a kink: the tangency radii, the plateau
    radius r_bar and the split.
    """
    hole, outer, radial = web.domain.inner, web.domain.outer, web.radial
    r1, r2 = radial.shell.r_inner, radial.shell.r_outer
    h1, h2, r_bar = hole.radius, outer.radius, radial.r_bar
    e = float(np.hypot(*np.subtract(hole.center, outer.center)))
    b = h1 + web.split_s

    s, ws = _cosine_panels(0.0, web.split_s, [h2 - e - h1, h2 + e - h1, r_bar - r1], n)
    ws *= 2.0 * (h1 + s) * circle_in_disk_angle(h1 + s, e, h2)
    rising = s < r_bar - r1
    gradient = float(np.sum(ws[rising] * radial.slope(r1 + s[rising]) ** 2))
    mass = float(np.sum(ws * radial.value(np.minimum(r1 + s, r_bar)) ** 2))

    t, wt = _cosine_panels(0.0, h2 - max(0.0, b - e), [h2 - abs(b - e), h2 - b - e, r2 - r_bar], n)
    wt *= 2.0 * (h2 - t) * (math.pi - circle_in_disk_angle(h2 - t, e, b))
    falling = t < r2 - r_bar
    gradient += float(np.sum(wt[falling] * radial.slope(r2 - t[falling]) ** 2))
    mass += float(np.sum(wt * radial.value(np.maximum(r2 - t, r_bar)) ** 2))

    w_out = float(radial.value(r2)) ** 2
    if b <= h2 - e:
        boundary = 2.0 * math.pi * h2 * w_out
    else:
        # psi runs to the ends of the outer circle's arcs inside the disks
        # |x - c_h| < b and < the plateau radius, both centred on psi = 0
        ends = circle_in_disk_angle(h2, e, np.array([b, h1 + r_bar - r1]))
        psi, wp = _cosine_panels(0.0, math.pi, ends, n)
        d_i = np.sqrt(h2 * h2 + e * e - 2.0 * h2 * e * np.cos(psi)) - h1
        inner = d_i < web.split_s
        w2 = np.full(len(psi), w_out)
        w2[inner] = radial.value(np.minimum(r1 + d_i[inner], r_bar)) ** 2
        boundary = 2.0 * h2 * float(np.sum(wp * w2))
    parts = {"gradient": gradient, "boundary": beta * boundary, "mass": mass}
    return parts, (gradient + beta * boundary) / mass


def _quad_grid(web: WebFunction, quad_level):
    """Structured midpoint grid of quad_level = (n_s, n_theta) cells mapped
    between the two boundary curves.

    The default budget has a strong radial bias because the transplanted
    profile varies across the annulus, not along it.
    """
    n_s, n_theta = quad_level
    center = web.domain.center
    dtheta = 2.0 * math.pi / n_theta
    theta = dtheta * (np.arange(n_theta) + 0.5)
    u = np.column_stack([np.cos(theta), np.sin(theta)])
    rho_in = web.domain.inner.ray_length(center, u)
    rho_out = web.domain.outer.ray_length(center, u)
    g_in = center + rho_in[:, None] * u
    g_out = center + rho_out[:, None] * u

    # x = center + r u(theta) with r = (1 - s) rho_in + s rho_out, so the
    # Jacobian is the polar (rho_out - rho_in) r: the radial part of the
    # boundary tangents drops out of it.  On the outer curve the tangent
    # g' = rho (u_perp - (n . u_perp) / (n . u) u), n the outward normal,
    # has length rho / |n . u|.
    ds = 1.0 / n_s
    s = ds * (np.arange(n_s) + 0.5)
    pts = g_in[None, :, :] + s[:, None, None] * (g_out - g_in)[None, :, :]
    r = rho_in[None, :] + s[:, None] * (rho_out - rho_in)[None, :]
    weights = (rho_out - rho_in)[None, :] * r * ds * dtheta
    normal = web.domain.outer.outward_normal(g_out)
    arc = rho_out / np.abs(np.sum(normal * u, axis=1)) * dtheta
    return pts.reshape(-1, 2), weights.ravel(), g_out, arc


def _grid_quotient(web: WebFunction, beta: float, quad_level):
    """({gradient, boundary, mass}, value) on the midpoint grid of quad_level."""
    pts, weights, outer_pts, arc = _quad_grid(web, quad_level)
    w_vals, g_vals = web._profile(web.domain.inner.distance(pts), web.domain.outer.distance(pts))
    grad_part = float(np.sum(weights * g_vals * g_vals))
    mass_part = float(np.sum(weights * w_vals * w_vals))
    w_bnd = web.evaluate(outer_pts)
    boundary_part = beta * float(np.sum(arc * w_bnd * w_bnd))
    parts = {"gradient": grad_part, "boundary": boundary_part, "mass": mass_part}
    return parts, (grad_part + boundary_part) / mass_part


def _circle_pair(web: WebFunction) -> bool:
    return isinstance(web.domain.inner, Circle) and isinstance(web.domain.outer, Circle)


def rayleigh_quotient(
    web: WebFunction,
    beta: float,
    quad_level=DEFAULT_QUAD_LEVEL,
    allow_uncertified: bool = False,
):
    """Rayleigh quotient of the web function.

    Returns ({gradient, boundary, mass}, value) with value =
    (gradient + boundary) / mass.  When both curves are circles the parts
    are the coarea formula's 1D integrals at COAREA_NODES[0] nodes per
    panel and quad_level is not read; rayleigh_error gives their computed
    quadrature error.  Other members are integrated on the quad_level
    midpoint grid, whose error is not computed.  Uncertified webs are
    rejected unless explicitly allowed for diagnostic runs.
    """
    if not web.certified and not allow_uncertified:
        raise InvalidWebError(
            f"web failed its certificate (jump {web.interface_jump:.3e} "
            f"> tol {web.continuity_tol:.3e} or containment lost)"
        )
    if not (beta >= 0.0 and math.isfinite(beta)):
        raise RangeError("Rayleigh quotient needs finite nonnegative beta")
    if not _circle_pair(web):
        return _grid_quotient(web, beta, quad_level)
    return _coarea_quotient(web, beta, COAREA_NODES[0])


def rayleigh_error(web: WebFunction, beta: float, value: float):
    """Computed quadrature error of value = rayleigh_quotient(web, beta)[1]:
    |value - the coarea value at COAREA_NODES[1] nodes per panel| on a
    circle pair, None on members integrated on the grid."""
    if not _circle_pair(web):
        return None
    return abs(value - _coarea_quotient(web, beta, COAREA_NODES[1])[1])


# ---------------------------------------------------------------------------
# chain certificate
# ---------------------------------------------------------------------------


def chain_certificate(
    domain: AnnularDomain,
    beta: float,
    n_r: int = 48,
    n_a: int = 192,
    quad_level=DEFAULT_QUAD_LEVEL,
    allow_uncertified: bool = True,
) -> dict:
    """Full eigenvalue chain on one class-S domain.

    Solves the domain (FEM) and the matched shell (radial), builds the
    web and checks lambda_fem <= R(w) <= lambda_shell up to the stated
    tolerances (chain_checks).  The quotient of an uncertified web is
    still reported by default, flagged through the certificate fields.

    The FEM leg runs first, then the web leg, so a FEM error wins over a
    web error.  The report's rayleigh_error is the quotient's computed
    quadrature error (rayleigh_error), None on grid members.
    """
    r1, r2, _ = class_s_data(domain)
    radial = solve_shell(2, r1, r2, beta)
    fem = solve_domain(domain, beta, n_r, n_a)
    web = build_web(domain, radial)
    parts, value = rayleigh_quotient(web, beta, quad_level, allow_uncertified=allow_uncertified)
    report = web.report() | {
        "beta": beta,
        "rayleigh": value,
        "rayleigh_error": rayleigh_error(web, beta, value),
        "rayleigh_parts": parts,
        "lambda_fem": fem.lam,
        "lambda_shell": radial.lam,
        "fem_resolution": f"{n_r}x{n_a}",
        "fem_tolerance": 2e-3 * fem.lam,
    }
    lower, upper = chain_checks(report)
    report.update(
        chain_ok=lower.passed and upper.passed, lower_ok=lower.passed, upper_ok=upper.passed
    )
    return report


def chain_checks(report: dict, name: str = "chain") -> list:
    """Records of lambda_fem <= R(w) within fem_tolerance and of
    R(w) <= lambda_shell within 2% of it, from a chain_certificate report."""
    fem, value, shell = report["lambda_fem"], report["rayleigh"], report["lambda_shell"]
    error = report["rayleigh_error"]
    context = {
        "beta": report["beta"],
        "resolution": report["fem_resolution"],
        "rayleigh_error": "not computed" if error is None else error,
    }
    return [
        InequalityReport(f"{name}.lower", fem, value, report["fem_tolerance"], context),
        InequalityReport(f"{name}.upper", value, shell, 0.02 * shell, context),
    ]
