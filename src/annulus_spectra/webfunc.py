"""Web test functions: transplanting the shell eigenprofile onto a domain.

On a class-S annular domain the radial eigenprofile of the matched shell
is rebuilt from boundary distances: near the hole the profile rises with
the hole distance, near the outer boundary it falls with the outer
distance, and the two pieces are glued along the split curve where the
hole-distance sublevel set reaches the area of the shell's inner part.
The resulting function has the shell's boundary data, so its Rayleigh
quotient sits between the domain's eigenvalue and the shell's.

The construction promises continuity across the split curve only on the
shell itself; the measured interface jump is therefore part of the
certificate and webs that exceed the declared tolerance are flagged
instead of silently accepted.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EmptyBodyError, InfeasibleError, InvalidWebError, RangeError
from .fem import solve_domain
from .geometry import (
    AnnularDomain,
    Circle,
    ConvexPolygon,
    class_s_data,
    convex_intersection,
    disk_intersection_area,
    inner_parallel,
    outer_parallel_points,
)
from .radial import RadialEigenResult, level_radii, solve_shell

CLASS_S_RTOL = 1e-8
CONTINUITY_FACTOR = 1e-3
DEFAULT_QUAD_LEVEL = 512 * 512
CLIP_SAMPLES = 2048


def _sublevel_area(domain: AnnularDomain, s: float, s_free: float, outer_poly) -> float:
    """|{x in Omega : dist(x, hole) < s}|.

    Steiner-exact while the parallel body stays inside the outer region;
    afterwards the overflow is cut off analytically for circle pairs and
    by convex clipping otherwise.
    """
    hole = domain.inner
    if s <= 0.0:
        return 0.0
    if s <= s_free:
        return hole.perimeter() * s + math.pi * s * s
    if isinstance(hole, Circle) and isinstance(domain.outer, Circle):
        grown = disk_intersection_area(
            hole.center, hole.radius + s, domain.outer.center, domain.outer.radius
        )
        return grown - hole.area()
    body = ConvexPolygon(outer_parallel_points(hole, s, CLIP_SAMPLES))
    inter = convex_intersection(body, outer_poly)
    if inter is None:
        raise InfeasibleError("parallel body lost contact with the outer region")
    return inter.area - hole.area()


def find_split(domain: AnnularDomain, radial: RadialEigenResult, rtol: float = 1e-12) -> float:
    """Distance s* whose hole-distance sublevel set has the matched area.

    The target is the area of the shell's inner part, between the inner
    radius and the critical radius.  While the parallel body is compactly
    contained the area law is an exact quadratic in s, and for class-S
    domains its root is exactly r_bar - R1; truncation by the outer
    boundary pushes s* up and is resolved by bisection.
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

    hole_samples = domain.inner.sample(CLIP_SAMPLES)
    s_free = float(np.min(domain.outer.distance(hole_samples)))
    if radial.r_bar - r1 <= s_free:
        return radial.r_bar - r1

    outer_poly = domain.outer.to_polygon(CLIP_SAMPLES)
    boundary_pts = domain.outer.sample(CLIP_SAMPLES)
    s_hi = float(np.max(domain.inner.distance(boundary_pts)))
    lo, hi = s_free, s_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _sublevel_area(domain, mid, s_free, outer_poly) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rtol * s_hi:
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class WebFunction:
    """Transplanted profile with its validity certificate.

    split_s is the gluing distance; interface_jump the largest measured
    discontinuity across the split curve; contained records whether the
    inner piece stays away from the outer boundary (needed for the
    boundary values to match the shell's).  certified means both checks
    passed at the declared continuity tolerance.
    """

    domain: AnnularDomain
    radial: RadialEigenResult
    split_s: float
    continuity_tol: float
    interface_jump: float
    contained: bool
    containment_margin: float
    split_area_rel_err: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def certified(self) -> bool:
        return self.contained and self.interface_jump <= self.continuity_tol

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
            "interface_jump": self.interface_jump,
            "continuity_tol": self.continuity_tol,
            "continuity_ok": bool(self.interface_jump <= self.continuity_tol),
            "inner_region_contained": bool(self.contained),
            "certified": bool(self.certified),
            "split_area_rel_err": self.split_area_rel_err,
        }


def build_web(
    domain: AnnularDomain,
    radial: RadialEigenResult,
    continuity_factor: float = CONTINUITY_FACTOR,
    interface_samples: int = 2048,
) -> WebFunction:
    """Construct the web function and measure its validity certificate."""
    if radial.shell.dim != 2:
        raise RangeError("web functions are built on planar domains only")
    if radial.beta == 0.0:
        raise RangeError("web construction needs beta > 0")
    s_star = find_split(domain, radial)

    hole_pts = domain.inner.sample(CLIP_SAMPLES)
    s_free = float(np.min(domain.outer.distance(hole_pts)))
    contained = s_star < s_free
    margin = s_free - s_star

    # measured jump across the split curve: the inner side sits on its
    # plateau (s* >= r_bar - R1 always), the outer side may not have
    # reached its own plateau yet
    pts = outer_parallel_points(domain.inner, s_star, interface_samples)
    keep = np.atleast_1d(domain.outer.contains(pts, tol=-1e-12 * domain.outer.scale))
    inside_val = float(radial.value(min(radial.shell.r_inner + s_star, radial.r_bar)))
    if np.any(keep):
        d_o = domain.outer.distance(pts[keep])
        outer_val = radial.value(np.maximum(radial.shell.r_outer - d_o, radial.r_bar))
        jump = float(np.max(np.abs(inside_val - outer_val)))
    else:
        jump = math.inf

    target = math.pi * (radial.r_bar**2 - radial.shell.r_inner**2)
    outer_poly = domain.outer.to_polygon(CLIP_SAMPLES)
    area_err = abs(_sublevel_area(domain, s_star, s_free, outer_poly) - target) / target

    web = WebFunction(
        domain=domain,
        radial=radial,
        split_s=s_star,
        continuity_tol=continuity_factor * radial.v_M,
        interface_jump=jump,
        contained=contained,
        containment_margin=margin,
        split_area_rel_err=area_err,
        diagnostics={
            "s_free": s_free,
            "inner_plateau_width": s_star - (radial.r_bar - radial.shell.r_inner),
        },
    )
    return web


def evaluate_w(web: WebFunction, x) -> float:
    """Web value at a single point of the closed annulus."""
    p = np.asarray(x, dtype=float).reshape(1, 2)
    tol = 1e-9 * web.domain.outer.scale
    if not web.domain.outer.contains(p[0], tol=tol):
        raise DomainError("point lies outside the outer region")
    if web.domain.inner.contains(p[0], tol=-tol) and web.domain.inner.distance(p)[0] > tol:
        raise DomainError("point lies inside the hole")
    return float(web.evaluate(p)[0])


def _quad_grid(web: WebFunction, quad_level):
    """Structured midpoint grid mapped between the two boundary curves.

    The cell budget is split with a strong radial bias because the
    transplanted profile varies across the annulus, not along it.
    """
    if isinstance(quad_level, tuple):
        n_s, n_theta = quad_level
    else:
        n_theta = max(64, int(round(math.sqrt(quad_level / 16.0))))
        n_s = max(64, int(quad_level) // n_theta)
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


def rayleigh_quotient(
    web: WebFunction,
    beta: float,
    quad_level=DEFAULT_QUAD_LEVEL,
    allow_uncertified: bool = False,
):
    """Quadrature Rayleigh quotient of the web function.

    Returns ({gradient, boundary, mass}, value) with value =
    (gradient + boundary) / mass.  Uncertified webs are rejected unless
    explicitly allowed for diagnostic runs.
    """
    if not web.certified and not allow_uncertified:
        raise InvalidWebError(
            f"web failed its certificate (jump {web.interface_jump:.3e} "
            f"> tol {web.continuity_tol:.3e} or containment lost)"
        )
    if not (beta >= 0.0 and math.isfinite(beta)):
        raise RangeError("Rayleigh quotient needs finite nonnegative beta")
    pts, weights, outer_pts, arc = _quad_grid(web, quad_level)
    w_vals, g_vals = web._profile(web.domain.inner.distance(pts), web.domain.outer.distance(pts))
    grad_part = float(np.sum(weights * g_vals * g_vals))
    mass_part = float(np.sum(weights * w_vals * w_vals))
    w_bnd = web.evaluate(outer_pts)
    boundary_part = beta * float(np.sum(arc * w_bnd * w_bnd))
    parts = {"gradient": grad_part, "boundary": boundary_part, "mass": mass_part}
    return parts, (grad_part + boundary_part) / mass_part


# ---------------------------------------------------------------------------
# level-set comparison tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonTable:
    """Sub/superlevel measures of the web against the shell profile.

    mu columns measure the web's level sets on the domain, eta columns the
    matching shell quantities; the proof's comparisons are mu_i <= eta_i,
    mu_o >= eta_o and perimeter(E_t) <= perimeter(F_t).
    """

    levels: np.ndarray
    mu_i: np.ndarray
    eta_i: np.ndarray
    mu_o: np.ndarray
    eta_o: np.ndarray
    perim_e: np.ndarray
    perim_f: np.ndarray

    def max_violations(self):
        with np.errstate(invalid="ignore"):
            v_i = float(np.nanmax(self.mu_i - self.eta_i))
            v_o = float(np.nanmax(self.eta_o - self.mu_o))
            v_p = float(np.nanmax(self.perim_e - self.perim_f))
        return {"inner_measure": v_i, "outer_measure": v_o, "perimeter": v_p}


def comparison_curves(web: WebFunction, n_levels: int = 16) -> ComparisonTable:
    """Tabulate the measure and perimeter comparisons over a level grid."""
    rad = web.radial
    r1, r2 = rad.shell.r_inner, rad.shell.r_outer
    below = np.linspace(0.0, rad.v_m, max(3, n_levels // 4), endpoint=False)
    above = rad.v_m + (rad.v_M - rad.v_m) * np.linspace(0.0, 0.98, n_levels - len(below))
    levels = np.concatenate([below, above])

    hole_pts = web.domain.inner.sample(CLIP_SAMPLES)
    s_free = float(np.min(web.domain.outer.distance(hole_pts)))
    outer_poly = web.domain.outer.to_polygon(CLIP_SAMPLES)
    split_body = ConvexPolygon(outer_parallel_points(web.domain.inner, web.split_s, CLIP_SAMPLES))
    area = web.domain.area
    m_i_area = _sublevel_area(web.domain, web.split_s, s_free, outer_poly)

    mu_i, eta_i, mu_o, eta_o, p_e, p_f = (np.empty(len(levels)) for _ in range(6))
    for j, t in enumerate(levels):
        r_i, r_o = level_radii(rad, t)
        delta_i = min(r_i - r1, web.split_s)
        mu_i[j] = _sublevel_area(web.domain, delta_i, s_free, outer_poly)
        eta_i[j] = math.pi * (r_i * r_i - r1 * r1)
        if r_o is None:
            mu_o[j] = area - m_i_area
            eta_o[j] = math.pi * (r2 * r2 - rad.r_bar**2)
            p_e[j] = p_f[j] = math.nan
            continue
        delta_o = r2 - r_o
        eroded = _eroded_outer(web.domain, delta_o)
        if eroded is None:
            mu_o[j] = 0.0
            eta_o[j] = math.pi * (r_o * r_o - rad.r_bar**2)
            p_e[j] = p_f[j] = math.nan
            continue
        cap = convex_intersection(split_body, eroded)
        cap_area = cap.area if cap is not None else 0.0
        cap_perim = cap.perimeter if cap is not None else 0.0
        mu_o[j] = eroded.area - cap_area
        eta_o[j] = math.pi * (r_o * r_o - rad.r_bar**2)
        p_e[j] = split_body.perimeter + eroded.perimeter - cap_perim
        p_f[j] = 2.0 * math.pi * r_o
    return ComparisonTable(levels, mu_i, eta_i, mu_o, eta_o, p_e, p_f)


def _eroded_outer(domain: AnnularDomain, delta: float):
    if delta <= 0.0:
        return domain.outer.to_polygon(CLIP_SAMPLES)
    if isinstance(domain.outer, Circle):
        if delta >= domain.outer.radius:
            return None
        return Circle(domain.outer.center, domain.outer.radius - delta).to_polygon(CLIP_SAMPLES)
    try:
        return inner_parallel(domain.outer.to_polygon(CLIP_SAMPLES), delta)
    except EmptyBodyError:
        return None


# ---------------------------------------------------------------------------
# chain certificate and reports
# ---------------------------------------------------------------------------


def chain_certificate(
    domain: AnnularDomain,
    beta: float,
    n_r: int = 48,
    n_a: int = 192,
    quad_level=DEFAULT_QUAD_LEVEL,
    continuity_factor: float = CONTINUITY_FACTOR,
    fem_tolerance: float = None,
    allow_uncertified: bool = True,
) -> dict:
    """Full eigenvalue chain on one class-S domain.

    Solves the domain (FEM) and the matched shell (radial), builds the
    web and checks lambda_fem <= R(w) <= lambda_shell up to the stated
    tolerances.  The quotient of an uncertified web is still reported by
    default, flagged through the certificate fields.
    """
    r1, r2, _ = class_s_data(domain)
    radial = solve_shell(2, r1, r2, beta)
    fem = solve_domain(domain, beta, n_r, n_a)
    web = build_web(domain, radial, continuity_factor)
    parts, value = rayleigh_quotient(web, beta, quad_level, allow_uncertified=allow_uncertified)
    if fem_tolerance is None:
        fem_tolerance = 2e-3 * fem.lam
    lower_ok = fem.lam <= value + fem_tolerance
    upper_ok = value <= 1.02 * radial.lam
    report = web.report()
    report.update(
        {
            "beta": beta,
            "rayleigh": value,
            "rayleigh_parts": parts,
            "lambda_fem": fem.lam,
            "lambda_shell": radial.lam,
            "fem_resolution": f"{n_r}x{n_a}",
            "fem_tolerance": fem_tolerance,
            "chain_ok": bool(lower_ok and upper_ok),
            "lower_ok": bool(lower_ok),
            "upper_ok": bool(upper_ok),
        }
    )
    return report


def write_web_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_comparison_csv(table: ComparisonTable, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "mu_i", "eta_i", "mu_o", "eta_o", "perim_e", "perim_f"])
        for row in zip(
            table.levels, table.mu_i, table.eta_i, table.mu_o, table.eta_o,
            table.perim_e, table.perim_f,
        ):
            writer.writerow([f"{v:.17g}" for v in row])
