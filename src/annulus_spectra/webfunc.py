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
parallel method).  On circle pairs those lengths are closed-form arcs; for
a contained web in an ellipse they are whole parallel curves of the hole
and the parallel curves of the ellipse less their arcs inside the grown
hole.  Either way the quotient is computed to round-off, with its
quadrature error, and there is no grid.  The sandwich lambda(Omega) <=
R(w) <= lambda_shell is read only on certified webs: off the shell the
interface jump is a real feature of the construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq, minimize_scalar
from scipy.special import ellipeinc

from .analysis import InequalityReport
from .errors import InfeasibleError, InvalidWebError, NumericalError, RangeError
from .fem import solve_domain
from .geometry import (
    CLASS_S_RTOL,
    FLAT_ULPS,
    FREE_DISTANCE_SCAN,
    AnnularDomain,
    Circle,
    ConvexPolygon,
    Ellipse,
    PolygonCurve,
    _cross,
    circle_in_disk_angle,
    class_s_data,
    convex_intersection_area,
    disk_intersection_area,
    outer_parallel_points,
)
from .radial import RadialEigenResult, solve_shell

CONTINUITY_FACTOR = 1e-3
# Gauss-Legendre nodes per panel of the coarea quotient, and the coarser
# count that its quadrature error is read against
COAREA_NODES = (32, 16)
# bisections of a tangency's normal angle from its 2 pi / FREE_DISTANCE_SCAN
# bracket, down to about 1e-15
TANGENCY_BISECTIONS = 42
# Newton steps allowed to a level-set crossing; bisection guards each one
CROSSING_ITERATIONS = 60
# split-curve nodes closer than this fraction of its parameter range, and
# t-panel breaks closer than this fraction of the falling band, are merged
MERGE_RTOL = 1e-12
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

    @functools.cached_property
    def _band(self):
        return _outer_band(self)

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


_QUARTER_TURN = np.array([[0.0, 1.0], [-1.0, 0.0]])  # u @ it is u turned by +pi/2


def _corners(polygon: ConvexPolygon):
    """Edge normals and edge vectors, and for each vertex the normal angle
    of the edge before it and the turn to the normal of the edge after it
    (clamped at 0 on collinear vertices)."""
    normal, _ = polygon.edge_normals_offsets()
    edge = np.roll(polygon.vertices, -1, axis=0) - polygon.vertices
    before = np.roll(normal, 1, axis=0)
    turn = np.arctan2(_cross(before, normal), np.sum(before * normal, axis=1))
    return normal, edge, np.arctan2(before[:, 1], before[:, 0]), np.maximum(turn, 0.0)


def _parallel_boundary(hole, s: float):
    """(pieces, walk): the boundary of the parallel body K + sB,
    counterclockwise, with walk(sigma) its points and tangent vectors at
    sigma in [0, pieces).

    A circle or an ellipse is one piece, the support points plus s u at the
    normal angle 2 pi sigma.  A polygon has 2m: piece 2j is the corner arc of
    radius s about vertex j, from the normal of the edge before it to the
    normal of the edge after it, and piece 2j + 1 is edge j moved out by s.
    """
    if isinstance(hole, PolygonCurve):
        v = hole.polygon.vertices
        normal, edge, start, span = _corners(hole.polygon)

        def walk(sigma):
            k = np.minimum(sigma.astype(int), 2 * len(v) - 1)
            j, x, corner = k // 2, sigma - k, (k % 2 == 0)[:, None]
            phi = start[j] + x * span[j]
            u = np.column_stack([np.cos(phi), np.sin(phi)])
            arc = v[j] + s * u, s * span[j][:, None] * u @ _QUARTER_TURN
            side = v[j] + s * normal[j] + x[:, None] * edge[j], edge[j]
            return np.where(corner, arc[0], side[0]), np.where(corner, arc[1], side[1])

        return 2 * len(v), walk

    def walk(sigma):
        phi = 2.0 * math.pi * sigma
        u = np.column_stack([np.cos(phi), np.sin(phi)])
        # radius of curvature at normal u, h + h'' = (a b)^2 / h^3 about the centre
        rho = (hole.a * hole.b) ** 2 / np.hypot(hole.a * u[:, 0], hole.b * u[:, 1]) ** 3
        return hole.support_point(u) + s * u, 2.0 * math.pi * (rho + s)[:, None] * u @ _QUARTER_TURN

    return 1, walk


def _tangencies(outer: Ellipse, hole, s: float) -> np.ndarray:
    """sigma (of _parallel_boundary) of the points where the boundary of
    K + sB touches a parallel curve of the outer ellipse, and of a polygon's
    joints.

    Along the boundary, d_o is critical exactly where it touches a level
    set {d_o = t}: with the same outward normal u, where the support point
    X(u) of the outer curve and the hole's P(u) line up along u, or with the
    opposite one, where X(-u) and P(u) do.  Each is a root of
    (X(+-u) - P(u)) . u_perp, bracketed on a scan of FREE_DISTANCE_SCAN
    normal angles and bisected; P is the support point of a circle or an
    ellipse and each vertex on its own corner arc.  Along a moved polygon
    edge d_o is concave, and its critical point is the foot of X(+-n) on
    the edge.
    """
    n = FREE_DISTANCE_SCAN
    polygon = isinstance(hole, PolygonCurve)
    vertices = hole.polygon.vertices if polygon else None

    def lineup(phi, source, far):
        u = np.column_stack([np.cos(phi), np.sin(phi)])
        p = vertices[source] if polygon else hole.support_point(u)
        x = outer.support_point(np.where(far[:, None], -u, u))
        return np.sum((x - p) * (u @ _QUARTER_TURN), axis=1)

    # rows 2j and 2j + 1: vertex j (or the whole hole) with X(u) and X(-u)
    rows = np.repeat(np.arange(2 * (len(vertices) if polygon else 1)), n)
    phi = np.tile(2.0 * math.pi * np.arange(n) / n, len(rows) // n)
    g = lineup(phi, rows // 2, rows % 2 == 1).reshape(-1, n)
    flat = np.max(np.abs(g), axis=1) <= FLAT_ULPS * np.finfo(float).eps * outer.scale
    k = np.flatnonzero(((g < 0.0) != (np.roll(g, -1, axis=1) < 0.0)) & ~flat[:, None])
    source, far = k // n // 2, k // n % 2 == 1
    lo, hi = phi[k], phi[k] + 2.0 * math.pi / n
    low_sign = g.ravel()[k] < 0.0
    for _ in range(TANGENCY_BISECTIONS):
        mid = 0.5 * (lo + hi)
        right = (lineup(mid, source, far) < 0.0) == low_sign
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    phi = 0.5 * (lo + hi)
    if not polygon:
        return phi / (2.0 * math.pi) % 1.0

    m = len(vertices)
    normal, edge, start, span = _corners(hole.polygon)
    turn = (phi - start[source]) % (2.0 * math.pi)
    inside = turn < span[source]
    corners = 2 * source[inside] + turn[inside] / span[source][inside]
    feet = outer.support_point(np.vstack([normal, -normal])) - np.vstack([vertices, vertices])
    along = np.sum(feet * np.vstack([edge, edge]), axis=1) / np.tile(np.sum(edge * edge, axis=1), 2)
    on_edge = (along > 0.0) & (along < 1.0)
    sides = 2 * np.tile(np.arange(m), 2)[on_edge] + 1 + along[on_edge]
    return np.concatenate([np.arange(2.0 * m), corners, sides])


@dataclass(frozen=True)
class _Band:
    """The boundary of K + s*B cut into runs [lo, hi] of sigma on which d_o
    is monotone below the plateau depth, their end depths, and the depths
    where the level-set length has a kink (breaks)."""

    pieces: int
    walk: Callable
    lo: np.ndarray
    hi: np.ndarray
    f_lo: np.ndarray
    f_hi: np.ndarray
    breaks: np.ndarray


def _outer_band(web: WebFunction) -> _Band:
    """The runs of web's split curve for _level_lengths.

    d_o along the split curve is critical only where the curve touches a
    level set (_tangencies), so between consecutive nodes it is monotone
    below the plateau depth T = R2 - r_bar.  A run that rises past T and
    falls back is cut at its highest point (bounded Brent); one that peaks
    short of T, a tangency the scan missed, raises NumericalError.  The
    breaks are the node depths below T and the contact depth gap - s*.
    """
    dom, s = web.domain, web.split_s
    top = web.radial.shell.r_outer - web.radial.r_bar
    pieces, walk = _parallel_boundary(dom.inner, s)

    def depth(sigma):
        return dom.outer.distance(walk(np.asarray(sigma, dtype=float) % pieces)[0])

    def runs(nodes):
        f_lo = depth(nodes)
        return nodes, np.append(nodes[1:], nodes[0] + pieces), f_lo, np.roll(f_lo, -1)

    # sigma = 0 keeps one node on a split curve at a constant depth, and
    # nodes that coincide (say a same- and an opposite-normal root on an
    # axis of symmetry) are merged, as their run would have no direction
    sigma = _tangencies(dom.outer, dom.inner, s) % pieces
    nodes = np.unique(np.append(sigma[sigma < (1.0 - MERGE_RTOL) * pieces], 0.0))
    nodes, hi, f_lo, f_hi = runs(nodes[np.diff(nodes, prepend=-np.inf) > MERGE_RTOL * pieces])
    step = 1e-3 * (hi - nodes)
    near = depth(np.concatenate([nodes + step, hi - step])).reshape(2, -1)
    peaks = []
    for r in np.flatnonzero((near[0] > f_lo) & (near[1] > f_hi) & (np.maximum(f_lo, f_hi) < top)):
        peak = minimize_scalar(lambda x: -depth([x])[0], bounds=(nodes[r], hi[r]), method="bounded")
        if -peak.fun < top:
            raise NumericalError(
                f"d_o on the split curve has an unresolved extremum near sigma {peak.x:.6g}"
            )
        peaks.append(peak.x % pieces)
    if peaks:
        nodes, hi, f_lo, f_hi = runs(np.unique(np.append(nodes, peaks)))
    cuts = np.sort(np.append(f_lo[(f_lo > 0.0) & (f_lo < top)], dom.gap - s))
    breaks = cuts[np.diff(cuts, prepend=-np.inf) > MERGE_RTOL * top]
    return _Band(pieces, walk, nodes, hi, f_lo, f_hi, breaks)


def _arc_and_turn(outer: Ellipse, theta):
    """Arc length of the outer ellipse c + (a cos theta, b sin theta) and its
    normal angle, both continuous in theta and up to constants: the
    incomplete elliptic integral of the second kind (DLMF 19.2.5), and theta
    plus the normal's lead over it."""
    a, b = outer.a, outer.b
    if a >= b:
        arc = a * ellipeinc(theta - 0.5 * math.pi, 1.0 - (b / a) ** 2)
    else:
        arc = b * ellipeinc(theta, 1.0 - (a / b) ** 2)
    sin, cos = np.sin(theta), np.cos(theta)
    return arc, theta + np.arctan((a - b) * sin * cos / (b * cos * cos + a * sin * sin))


def _level_lengths(web: WebFunction, band: _Band, t: np.ndarray) -> np.ndarray:
    """L(t), the length of {d_o = t} outside K + s*B, for depths t in
    (0, R2 - r_bar) inside the outer ellipse's reach.

    {d_o = t} is the inner parallel curve gamma(theta) - t nu(theta), of
    speed |gamma'| - t a b / |gamma'|^2 and length P - 2 pi t.  Each run of
    band whose end depths straddle t crosses it once, at sigma found by
    safeguarded Newton on d_o(sigma) = t, d_o read off the foot parameter;
    where d_o rises along the counterclockwise split curve the level curve
    leaves K + s*B.  The arcs inside have the closed-form length of
    _arc_and_turn between their crossings, plus one full turn when an arc
    runs through theta = 0.
    """
    outer, hole = web.domain.outer, web.domain.inner
    run, row = np.nonzero((band.f_lo[:, None] - t) * (band.f_hi[:, None] - t) < 0.0)
    f_lo, f_hi, level = band.f_lo[run], band.f_hi[run], t[row]
    rising = f_hi > f_lo
    lo, hi = band.lo[run], band.hi[run]
    # start as if d_o were quadratic about the run end nearer in depth: a
    # tangency there makes it so, and crossings crowd against tangencies
    near_lo = np.abs(level - f_lo) <= np.abs(level - f_hi)
    share = np.sqrt(np.minimum(np.abs(level - f_lo), np.abs(level - f_hi)) / np.abs(f_hi - f_lo))
    sigma = np.where(near_lo, lo + (hi - lo) * share, hi - (hi - lo) * share)
    center = np.asarray(outer.center)
    todo = np.arange(len(sigma))
    for _ in range(CROSSING_ITERATIONS):
        x, tangent = band.walk(sigma[todo] % band.pieces)
        theta = outer.foot_parameter(x)
        cos, sin = np.cos(theta), np.sin(theta)
        nu = np.column_stack([outer.b * cos, outer.a * sin])
        nu /= np.hypot(nu[:, 0], nu[:, 1])[:, None]
        foot = center + np.column_stack([outer.a * cos, outer.b * sin])
        miss = np.sum((foot - x) * nu, axis=1) - level[todo]
        slope = -np.sum(nu * tangent, axis=1)
        # a crossing whose depth is matched to rounding stays where it is
        going = np.abs(miss) > 4.0 * np.finfo(float).eps * outer.scale
        todo, miss, slope = todo[going], miss[going], slope[going]
        low = (miss < 0.0) == rising[todo]
        lo[todo] = np.where(low, sigma[todo], lo[todo])
        hi[todo] = np.where(low, hi[todo], sigma[todo])
        step = np.divide(miss, slope, out=np.full(len(todo), np.inf), where=slope != 0.0)
        moved = sigma[todo] - step
        bisect = ~((moved > lo[todo]) & (moved < hi[todo]))
        moved[bisect] = 0.5 * (lo[todo] + hi[todo])[bisect]
        # so does one whose bracket has shrunk to rounding
        stuck = moved == sigma[todo]
        sigma[todo] = moved
        todo = todo[~stuck]
        if len(todo) == 0:
            break
    else:
        raise NumericalError(f"level-set crossings did not settle at {len(todo)} points")
    theta = outer.foot_parameter(band.walk(sigma % band.pieces)[0]) % (2.0 * math.pi)
    arc, turn = _arc_and_turn(outer, theta)
    inside = np.bincount(row, np.where(rising, 1.0, -1.0) * (arc - level * turn), minlength=len(t))

    # an arc inside through theta = 0 starts at the last crossing and ends
    # at the first, so it wants one more turn of the level curve
    order = np.lexsort((theta, row))
    first = order[np.diff(row[order], prepend=-1) != 0]
    wraps = np.zeros(len(t), dtype=bool)
    wraps[row[first]] = rising[first]
    alone = np.bincount(row, minlength=len(t)) == 0
    if np.any(alone):
        # no crossing: the level curve is all inside or all outside
        x0 = center + np.column_stack([outer.a - t[alone], np.zeros(np.count_nonzero(alone))])
        wraps[alone] = hole.contains(x0) | (hole.distance(x0) < web.split_s)
    full = outer.perimeter() - 2.0 * math.pi * t
    return full - inside - wraps * full


def _level_set_quotient(web: WebFunction, beta: float, n: int):
    """({gradient, boundary, mass}, value) of a contained web in an ellipse
    by the coarea formula, n Gauss-Legendre nodes per panel.

    The inner piece's level sets {d_i = s}, s < s* < gap, are whole
    parallel curves of the hole, of Steiner length P(K) + 2 pi s; the
    boundary carries v_m all round.  The falling part of the outer piece
    runs over the level sets {d_o = t}, t < R2 - r_bar, of length L(t)
    (_level_lengths), on panels cut at the kinks of L, and the plateau v_M
    fills the rest of the area.

    RangeError unless the outer curve is an ellipse whose reach min(a, b)^2
    / max(a, b) exceeds R2 - r_bar; InvalidWebError unless s* < gap.
    """
    dom, radial = web.domain, web.radial
    outer, hole = dom.outer, dom.inner
    r1, r2, r_bar = radial.shell.r_inner, radial.shell.r_outer, radial.r_bar
    if not isinstance(outer, Ellipse):
        raise RangeError("the coarea Rayleigh quotient needs an elliptic outer curve")
    if not web.contained:
        raise InvalidWebError(
            f"the coarea Rayleigh quotient off circle pairs needs a contained web "
            f"(s* {web.split_s:.6g} >= gap {dom.gap:.6g})"
        )
    reach = min(outer.a, outer.b) ** 2 / max(outer.a, outer.b)
    if r2 - r_bar >= reach:
        raise RangeError(f"falling band R2 - r_bar {r2 - r_bar:.6g} >= the outer reach {reach:.6g}")
    s_star, p_hole = web.split_s, hole.perimeter()

    s, ws = _cosine_panels(0.0, s_star, [r_bar - r1], n)
    ws *= p_hole + 2.0 * math.pi * s
    rising = s < r_bar - r1
    gradient = float(np.sum(ws[rising] * radial.slope(r1 + s[rising]) ** 2))
    mass = float(np.sum(ws * radial.value(np.minimum(r1 + s, r_bar)) ** 2))

    band = web._band
    t, wt = _cosine_panels(0.0, r2 - r_bar, band.breaks, n)
    wt *= _level_lengths(web, band, t)
    gradient += float(np.sum(wt * radial.slope(r2 - t) ** 2))
    mass += float(np.sum(wt * radial.value(r2 - t) ** 2))
    plateau = dom.area - p_hole * s_star - math.pi * s_star * s_star - float(np.sum(wt))
    mass += float(radial.value(r_bar)) ** 2 * plateau

    boundary = float(radial.value(r2)) ** 2 * outer.perimeter()
    parts = {"gradient": gradient, "boundary": beta * boundary, "mass": mass}
    return parts, (gradient + beta * boundary) / mass


def _circle_pair(web: WebFunction) -> bool:
    return isinstance(web.domain.inner, Circle) and isinstance(web.domain.outer, Circle)


def _quotient(web: WebFunction, beta: float, n: int):
    if _circle_pair(web):
        return _coarea_quotient(web, beta, n)
    return _level_set_quotient(web, beta, n)


def rayleigh_quotient(web: WebFunction, beta: float, allow_uncertified: bool = False):
    """Rayleigh quotient of the web function.

    Returns ({gradient, boundary, mass}, value) with value =
    (gradient + boundary) / mass, the coarea formula's 1D integrals at
    COAREA_NODES[0] nodes per panel: closed-form arcs on circle pairs
    (_coarea_quotient), and the level sets of the outer distance for a
    contained web in an ellipse (_level_set_quotient), which raises a typed
    error outside its range.  rayleigh_error gives the computed quadrature
    error.  Uncertified webs are rejected unless explicitly allowed for
    diagnostic runs.
    """
    if not web.certified and not allow_uncertified:
        raise InvalidWebError(
            f"web failed its certificate (jump {web.interface_jump:.3e} "
            f"> tol {web.continuity_tol:.3e} or containment lost)"
        )
    if not (beta >= 0.0 and math.isfinite(beta)):
        raise RangeError("Rayleigh quotient needs finite nonnegative beta")
    return _quotient(web, beta, COAREA_NODES[0])


def rayleigh_error(web: WebFunction, beta: float, value: float) -> float:
    """Computed quadrature error of value = rayleigh_quotient(web, beta)[1]:
    |value - the coarea value at COAREA_NODES[1] nodes per panel|."""
    return abs(value - _quotient(web, beta, COAREA_NODES[1])[1])


# ---------------------------------------------------------------------------
# chain certificate
# ---------------------------------------------------------------------------


def chain_certificate(
    domain: AnnularDomain,
    beta: float,
    n_r: int = 48,
    n_a: int = 192,
    quad_level=None,
    allow_uncertified: bool = True,
) -> dict:
    """Full eigenvalue chain on one class-S domain.

    Solves the domain (FEM) and the matched shell (radial), builds the
    web and checks lambda_fem <= R(w) <= lambda_shell up to the stated
    tolerances (chain_checks).  The quotient of an uncertified web is
    still reported by default, flagged through the certificate fields.

    The FEM leg runs first, then the web leg, so a FEM error wins over a
    web error.  The report's rayleigh_error is the quotient's computed
    quadrature error (rayleigh_error).  quad_level, the cell counts of the
    deleted midpoint grid, is accepted and not read, as perfbench's warm-up
    still passes it.
    """
    r1, r2, _ = class_s_data(domain)
    radial = solve_shell(2, r1, r2, beta)
    fem = solve_domain(domain, beta, n_r, n_a)
    web = build_web(domain, radial)
    parts, value = rayleigh_quotient(web, beta, allow_uncertified=allow_uncertified)
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
    context = {
        "beta": report["beta"],
        "resolution": report["fem_resolution"],
        "rayleigh_error": report["rayleigh_error"],
    }
    return [
        InequalityReport(f"{name}.lower", fem, value, report["fem_tolerance"], context),
        InequalityReport(f"{name}.upper", value, shell, 0.02 * shell, context),
    ]
