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
so by the coarea formula the area law that places the split and every
integral of the Rayleigh quotient are 1D integrals against the length of
a level set (the inner parallel method).  With an ellipse outside (a
circle among them) and any convex hole one rule gives those lengths: the
level sets of the hole distance are the boundaries of the parallel bodies
K + sB, those of the outer distance are the ellipse's inner parallel
curves, and each is clipped by the other's region at their crossings,
between which both have closed-form arc lengths.  build_web refuses any
other outer curve and a falling band as deep as the ellipse's reach.  One
Newton solve on the area law, which reads only the hole-distance lengths,
places every split, and one pass there gives the quotient's integrals, to
round-off with their quadrature error, on no grid and no polygon.  The
sandwich lambda(Omega) <= R(w) <= lambda_shell is read only on certified
webs: off the shell the interface jump is a real feature of the
construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import ellipeinc

from .analysis import InequalityReport
from .errors import InfeasibleError, InvalidWebError, NumericalError, RangeError
from .fem import solve_domain
from .geometry import (
    _QUARTER_TURN,
    AnnularDomain,
    ConvexPolygon,
    Ellipse,
    PolygonCurve,
    class_s_radii,
    lineups,
)
from .radial import RadialEigenResult, solve_shell

CONTINUITY_FACTOR = 1e-3
# Gauss-Legendre nodes per panel of the coarea integrals, and the coarser
# count that their quadrature error is read against
COAREA_NODES = (32, 16)
# Newton steps allowed to a level-set crossing; bisection guards each one
CROSSING_ITERATIONS = 60
# Newton steps allowed to the area law, bisection guarding each, and the
# step, relative to s*, that ends the solve
SPLIT_ITERATIONS = 40
SPLIT_RTOL = 1e-13
# split-curve nodes closer than this fraction of its parameter range are merged
MERGE_RTOL = 1e-12
# read only by perfbench/workloads.py::_split_contained
CLIP_SAMPLES = 2048


def _split(domain: AnnularDomain, radial: RadialEigenResult):
    """(s*, area error, integrals): the distance s* whose hole-distance
    sublevel set has the area of the shell's inner part, between R1 and
    r_bar, the relative error of that area, and the _coarea_pass integrals
    of the web split there.  radial is the domain's matched shell.

    A' = P_i(s), the length of the boundary of K + sB inside the outer
    ellipse (_level_lengths at depth 0), so s* is a safeguarded Newton
    solve on A = the coarea integral of P_i at COAREA_NODES[0] nodes per
    panel, each step one _level_lengths call at depth 0 alone.  It starts
    at the class-S root r_bar - R1 of Steiner's law P(K) s + pi s^2: exact
    up to the hole's free distance, and past it a lower bound, as P_i <=
    P(K) + 2 pi s.  It stops once its step falls below SPLIT_RTOL of s*,
    where one _coarea_pass gives the integrals and the area error |A_32 -
    target| + |A_32 - A_16|.
    """
    r1 = radial.shell.r_inner
    target = math.pi * (radial.r_bar**2 - r1 * r1)
    if target >= domain.area:
        raise InfeasibleError("split area target exceeds the domain area")
    frame = _frame(domain)
    lo, hi = radial.r_bar - r1, math.inf
    s, breaks = lo, [*frame.exits, lo]
    for _ in range(SPLIT_ITERATIONS):
        levels, weights = _cosine_panels(0.0, s, breaks, COAREA_NODES[0])
        p_i = _level_lengths(frame, domain, np.append(levels, s), np.zeros(len(levels) + 1))[0]
        miss = float(np.sum(weights * p_i[:-1])) - target
        step = miss / p_i[-1]
        if abs(step) <= SPLIT_RTOL * s:
            integrals, area = _coarea_pass(frame, domain, radial, s)
            return s, (abs(area[0] - target) + abs(area[0] - area[1])) / target, integrals
        lo, hi = (s, hi) if miss < 0.0 else (lo, s)
        s = s - step if lo < s - step < hi else 0.5 * (lo + hi)
    raise NumericalError(f"the area law's Newton solve did not settle near s = {s:.6g}")


@dataclass(frozen=True)
class WebFunction:
    """Transplanted profile with its validity certificate.

    split_s is the gluing distance; interface_jump the largest jump across
    the split curve; contained records whether split_s stays below the
    domain's gap, so that the inner piece keeps off the outer boundary (as
    the boundary values must, to match the shell's).  certified means both
    checks passed at the declared continuity tolerance.  integrals are the
    Rayleigh quotient's parts that the _coarea_pass at the split gave.
    """

    domain: AnnularDomain
    radial: RadialEigenResult
    split_s: float
    continuity_tol: float
    interface_jump: float
    split_area_rel_err: float
    integrals: dict

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


def build_web(domain: AnnularDomain, beta: float) -> WebFunction:
    """The web function of a class-S domain at 0 < beta < inf, with its
    validity certificate and its Rayleigh quotient's integrals.

    The web layer's one gate, before the split: RangeError at beta <= 0,
    inf or nan, for an outer curve that is not an ellipse, and for a
    falling band R2 - r_bar at or past the ellipse's reach.  The profile is
    the planar matched shell's, solve_shell(2, R1, R2, beta) with (R1, R2)
    from geometry.class_s_radii, the one class-S gate (InfeasibleError off
    class S).  The jump is closed-form.  On the split curve the inner side
    is on its plateau (s* >= r_bar - R1).  The outer side phi(max(R2 - d_o,
    r_bar)) is least where d_o is: at the grown hole's free distance gap -
    s*, or at 0 once s* > gap and the curve crosses the outer boundary.
    """
    if not 0.0 < beta < math.inf:  # also refuses nan
        raise RangeError(f"web construction needs beta > 0 and finite, got {beta!r}")
    outer = domain.outer
    if not isinstance(outer, Ellipse):
        raise RangeError("the web's coarea rule needs an elliptic outer curve")
    radial = solve_shell(2, *class_s_radii(domain), beta)
    shell, r_bar = radial.shell, radial.r_bar
    band = shell.r_outer - r_bar
    if not band < outer.reach:
        raise RangeError(f"falling band R2 - r_bar {band:.6g} >= the outer reach {outer.reach:.6g}")
    s_star, area_err, integrals = _split(domain, radial)
    inside_val = radial.value(min(shell.r_inner + s_star, r_bar))
    outer_val = radial.value(max(shell.r_outer - max(domain.gap - s_star, 0.0), r_bar))
    return WebFunction(
        domain=domain,
        radial=radial,
        split_s=s_star,
        continuity_tol=CONTINUITY_FACTOR * radial.v_M,
        interface_jump=abs(float(inside_val) - float(outer_val)),
        split_area_rel_err=area_err,
        integrals=integrals,
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
    lengths where level sets touch.
    """
    cuts = np.unique(np.clip([lo, hi, *breaks], lo, hi))
    x, wx = _legendre(n)
    u = 0.5 * math.pi * (x + 1.0)
    p, q = cuts[:-1, None], cuts[1:, None]
    t = p + 0.5 * (q - p) * (1.0 - np.cos(u))
    return t.ravel(), (0.25 * math.pi * (q - p) * np.sin(u) * wx).ravel()


def _corners(polygon: ConvexPolygon):
    """Edge normals and edge vectors, and for each vertex the normal angle
    of the edge before it and the turn to the normal of the edge after it
    (clamped at 0 on collinear vertices)."""
    normal, _ = polygon.edge_normals_offsets()
    edge = np.roll(polygon.vertices, -1, axis=0) - polygon.vertices
    before = np.roll(normal, 1, axis=0)
    cross = before[:, 0] * normal[:, 1] - before[:, 1] * normal[:, 0]
    turn = np.arctan2(cross, np.sum(before * normal, axis=1))
    return normal, edge, np.arctan2(before[:, 1], before[:, 0]), np.maximum(turn, 0.0)


def _arc_and_turn(ellipse: Ellipse, theta):
    """Arc length of the ellipse c + (a cos theta, b sin theta) and its
    normal angle, both continuous in theta and up to constants: the
    incomplete elliptic integral of the second kind (DLMF 19.2.5), and theta
    plus the normal's lead over it."""
    a, b = ellipse.a, ellipse.b
    if a >= b:
        arc = a * ellipeinc(theta - 0.5 * math.pi, 1.0 - (b / a) ** 2)
    else:
        arc = b * ellipeinc(theta, 1.0 - (a / b) ** 2)
    sin, cos = np.sin(theta), np.cos(theta)
    return arc, theta + np.arctan((a - b) * sin * cos / (b * cos * cos + a * sin * sin))


def _parallel_boundary(hole):
    """(pieces, walk, length): the boundary of the parallel body K + sB,
    counterclockwise, with walk(sigma, s) its points and tangent vectors at
    sigma in [0, pieces) and length(sigma, s) its length from sigma = 0.

    A circle or an ellipse is one piece, the support points plus s u at the
    normal angle 2 pi sigma, whose length is the hole's arc up to there plus
    s times the turn.  A polygon has 2m: piece 2j is the corner arc of
    radius s about vertex j, from the normal of the edge before it to the
    normal of the edge after it, and piece 2j + 1 is edge j moved out by s.
    """
    if isinstance(hole, PolygonCurve):
        v = hole.polygon.vertices
        normal, edge, start, span = _corners(hole.polygon)
        arc = np.column_stack([np.zeros(len(v)), np.hypot(edge[:, 0], edge[:, 1])]).ravel()
        turn = np.column_stack([span, np.zeros(len(v))]).ravel()
        arc_to, turn_to = np.cumsum(arc) - arc, np.cumsum(turn) - turn

        def walk(sigma, s):
            s = np.broadcast_to(s, sigma.shape)[:, None]
            k = np.minimum(sigma.astype(int), 2 * len(v) - 1)
            j, x, corner = k // 2, sigma - k, (k % 2 == 0)[:, None]
            phi = start[j] + x * span[j]
            u = np.column_stack([np.cos(phi), np.sin(phi)])
            arc = v[j] + s * u, s * span[j][:, None] * u @ _QUARTER_TURN
            side = v[j] + s * normal[j] + x[:, None] * edge[j], edge[j]
            return np.where(corner, arc[0], side[0]), np.where(corner, arc[1], side[1])

        def length(sigma, s):
            k = np.minimum(sigma.astype(int), 2 * len(v) - 1)
            x = sigma - k
            return arc_to[k] + x * arc[k] + s * (turn_to[k] + x * turn[k])

        return 2 * len(v), walk, length

    def walk(sigma, s):
        phi = 2.0 * math.pi * sigma
        u = np.column_stack([np.cos(phi), np.sin(phi)])
        # radius of curvature at normal u, h + h'' = (a b)^2 / h^3 about the centre
        rho = (hole.a * hole.b) ** 2 / np.hypot(hole.a * u[:, 0], hole.b * u[:, 1]) ** 3
        s = np.broadcast_to(s, sigma.shape)[:, None]
        return hole.support_point(u) + s * u, 2.0 * math.pi * (rho[:, None] + s) * u @ _QUARTER_TURN

    def length(sigma, s):
        # the support point's parameter lies in phi's quadrant, so it runs
        # continuously over [0, 2 pi) with phi
        phi = 2.0 * math.pi * sigma
        psi = np.arctan2(hole.b * np.sin(phi), hole.a * np.cos(phi)) % (2.0 * math.pi)
        return _arc_and_turn(hole, psi)[0] - _arc_and_turn(hole, 0.0)[0] + s * phi

    return 1, walk, length


def _tangencies(outer: Ellipse, hole) -> np.ndarray:
    """sigma (of _parallel_boundary) of the points where the boundary of
    K + sB can touch a parallel curve of the outer ellipse, for every s, and
    of a polygon's joints.

    Along the boundary, d_o is critical where it touches a level set {d_o
    = t}: with the same outward normal u, where the support point X(u) of
    the outer curve and the hole's P(u) line up along u, or with the
    opposite one, where X(-u) and P(u) do (geometry.lineups; P is each
    vertex on its own corner arc).  Along a moved polygon edge d_o is
    concave, and its critical point is the foot of X(+-n) on the edge.
    """
    phi, source, _ = lineups(outer, hole)
    if not isinstance(hole, PolygonCurve):
        return phi / (2.0 * math.pi) % 1.0

    vertices = hole.polygon.vertices
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
class _Frame:
    """The boundaries of the parallel bodies K + sB of a domain's hole, all
    s at once: walk and length of _parallel_boundary, the nodes (sigma of
    _tangencies, with 0) between which d_o is monotone where smooth, and
    the s at which each node's point leaves the outer ellipse (exits), at
    the ellipse's parameter exit_theta."""

    pieces: int
    walk: Callable
    length: Callable
    nodes: np.ndarray
    exits: np.ndarray
    exit_theta: np.ndarray


def _frame(domain: AnnularDomain) -> _Frame:
    """The frame of domain's hole in its outer ellipse.

    sigma = 0 keeps one node on a boundary at a constant depth, and nodes
    that coincide (say a same- and an opposite-normal root on an axis of
    symmetry) are merged, as their run would have no direction.  A node's
    point moves out along its normal, so its exit is the larger root of a
    quadratic in the ellipse's unit-circle coordinates, its normal read off
    a power-of-two step h near outer.scale / 8, which rounding cannot lose.
    """
    outer = domain.outer
    pieces, walk, length = _parallel_boundary(domain.inner)
    sigma = _tangencies(outer, domain.inner) % pieces
    nodes = np.unique(np.append(sigma[sigma < (1.0 - MERGE_RTOL) * pieces], 0.0))
    nodes = nodes[np.diff(nodes, prepend=-np.inf) > MERGE_RTOL * pieces]
    base, axes = walk(nodes, 0.0)[0], np.array([outer.a, outer.b])
    h = math.ldexp(1.0, math.frexp(outer.scale)[1] - 3)
    q, v = (base - outer.center) / axes, (walk(nodes, h)[0] - base) / axes / h
    qv, vv = np.sum(q * v, axis=1), np.sum(v * v, axis=1)
    exits = (np.sqrt(qv * qv + vv * (1.0 - np.sum(q * q, axis=1))) - qv) / vv
    at = q + exits[:, None] * v
    return _Frame(pieces, walk, length, nodes, exits, np.arctan2(at[:, 1], at[:, 0]))


def _runs(frame: _Frame, outer: Ellipse, rows: np.ndarray, top: np.ndarray):
    """(row, lo, hi, f_lo, f_hi): the boundary of each K + rows[k] B cut
    into runs [lo, hi] of sigma on which d_o is monotone below the depth
    top[k], with their end depths, as flat arrays.

    Between consecutive nodes d_o is monotone where it is smooth; its ridge
    on the outer ellipse's medial axis lies deeper than the reach.  A run
    that rises from both ends below top is cut at its highest point
    (bounded Brent) when that lies at top or deeper; one that peaks between
    0 and top, a tangency the scan missed, raises NumericalError.
    """
    m = len(frame.nodes)
    row = np.repeat(np.arange(len(rows)), m)
    lo = np.tile(frame.nodes, len(rows))
    hi = np.tile(np.append(frame.nodes[1:], frame.nodes[0] + frame.pieces), len(rows))

    def depth(sigma, k):
        return outer.foot(frame.walk(sigma % frame.pieces, rows[k])[0])[1]

    step = 1e-3 * (hi - lo)
    f_lo, *near = depth(np.concatenate([lo, lo + step, hi - step]), np.tile(row, 3)).reshape(3, -1)
    f_hi = np.roll(f_lo.reshape(-1, m), -1, axis=1).ravel()
    cuts = []
    peaked = (near[0] > f_lo) & (near[1] > f_hi) & (np.maximum(f_lo, f_hi) < top[row])
    for r in np.flatnonzero(peaked):
        peak = minimize_scalar(
            lambda x: -depth(np.array([x]), row[r : r + 1])[0],
            bounds=(lo[r], hi[r]),
            method="bounded",
        )
        if -peak.fun >= top[row[r]]:
            cuts.append((r, peak.x, -peak.fun))
        elif -peak.fun > 0.0:
            raise NumericalError(
                f"d_o on the split curve has an unresolved extremum near sigma "
                f"{peak.x % frame.pieces:.6g}"
            )
    if not cuts:
        return row, lo, hi, f_lo, f_hi
    r, x, f = (np.array(c) for c in zip(*cuts))
    keep = np.ones(len(lo), dtype=bool)
    keep[r] = False
    # each cut run becomes [lo, peak] and [peak, hi]
    halves = [(row, row[r], row[r]), (lo, lo[r], x), (hi, x, hi[r])]
    halves += [(f_lo, f_lo[r], f), (f_hi, f, f_hi[r])]
    return tuple(np.concatenate([whole[keep], first, second]) for whole, first, second in halves)


def _level_lengths(frame: _Frame, domain: AnnularDomain, s: np.ndarray, t: np.ndarray):
    """(inner, outer, theta, query): for each query (s_q, t_q), the length
    of {d_i = s_q} where d_o > t_q, along the boundary of K + s_q B, and of
    {d_o = t_q} where d_i > s_q, along the outer ellipse's parallel curve;
    and the ellipse parameter theta of every crossing of the two curves,
    with the index of its query.

    The levels t_q lie in [0, R2 - r_bar], inside the ellipse's reach,
    where {d_o = t} is gamma(theta) - t nu(theta), of speed |gamma'| - t a
    b / |gamma'|^2 and length P - 2 pi t.  Each run of K + s_q B (_runs)
    whose end depths straddle t_q crosses it once, at sigma found by
    safeguarded Newton on d_o(sigma) = t_q, with d_o and the crossing's
    theta read off Ellipse.foot.  Where d_o rises along the
    counterclockwise boundary of K + s_q B, the boundary enters {d_o > t_q}
    and the level curve leaves K + s_q B.  Between crossings both curves
    have closed-form arc lengths: frame.length, and _arc_and_turn less t
    times the turn.
    """
    outer, hole = domain.outer, domain.inner
    inner = hole.perimeter() + 2.0 * math.pi * s
    out = outer.perimeter() - 2.0 * math.pi * t
    # within the gap K + sB lies inside the ellipse: nothing crosses it
    ask = np.flatnonzero((t > 0.0) | (s > domain.gap))
    s, t, full_in, full_out = s[ask], t[ask], inner[ask], out[ask]
    rows, row_q = np.unique(s, return_inverse=True)
    top = np.full(len(rows), -np.inf)
    np.maximum.at(top, row_q, t)
    row, lo, hi, f_lo, f_hi = _runs(frame, outer, rows, top)
    # pair each query with the runs of its row, and keep those that cross it
    order = np.argsort(row, kind="stable")
    lo, hi, f_lo, f_hi = lo[order], hi[order], f_lo[order], f_hi[order]
    count = np.bincount(row, minlength=len(rows))
    start, per = np.cumsum(count) - count, count[row_q]
    query = np.repeat(np.arange(len(s)), per)
    run = start[row_q][query] + np.arange(len(query)) - np.repeat(np.cumsum(per) - per, per)
    level = t[query]
    crossed = (f_lo[run] - level) * (f_hi[run] - level) < 0.0
    query, run, level = query[crossed], run[crossed], level[crossed]
    depth = s[query]
    f0, f1, lo, hi = f_lo[run], f_hi[run], lo[run], hi[run]
    rising = f1 > f0
    # start as if d_o were quadratic about the run end nearer in depth: a
    # tangency there makes it so, and crossings crowd against tangencies
    near_lo = np.abs(level - f0) <= np.abs(level - f1)
    share = np.sqrt(np.minimum(np.abs(level - f0), np.abs(level - f1)) / np.abs(f1 - f0))
    sigma = np.where(near_lo, lo + (hi - lo) * share, hi - (hi - lo) * share)
    todo, theta = np.arange(len(sigma)), np.empty(len(sigma))
    for _ in range(CROSSING_ITERATIONS):
        if len(todo) == 0:
            break
        x, tangent = frame.walk(sigma[todo] % frame.pieces, depth[todo])
        # every crossing leaves todo where it was last read, so theta is its foot
        theta[todo], d = outer.foot(x)
        # d_o falls along the outward normal at the foot
        nu = np.column_stack([outer.b * np.cos(theta[todo]), outer.a * np.sin(theta[todo])])
        miss, slope = d - level[todo], -np.sum(nu * tangent, axis=1) / np.hypot(*nu.T)
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
    else:
        raise NumericalError(f"level-set crossings did not settle at {len(todo)} points")
    sigma %= frame.pieces
    theta %= 2.0 * math.pi
    arc, turn = _arc_and_turn(outer, theta)
    sign, n = np.where(rising, 1.0, -1.0), len(s)
    inside = np.bincount(query, sign * (arc - level * turn), minlength=n)
    along = np.bincount(query, -sign * frame.length(sigma, depth), minlength=n)

    # the level curve's arc inside K + sB through theta = 0 starts at its
    # last crossing and ends at its first, and so does the boundary's run
    # above the level through sigma = 0: each wants one more turn
    wrap_out, wrap_in = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    for key, wrap, enters in ((theta, wrap_out, rising), (sigma, wrap_in, ~rising)):
        order = np.lexsort((key, query))
        first = order[np.diff(query[order], prepend=-1) != 0]
        wrap[query[first]] = enters[first]
    alone = np.bincount(query, minlength=n) == 0
    if np.any(alone):
        # no crossing: each curve is all inside or all outside the other
        x0 = np.column_stack([outer.a - t[alone], np.zeros(np.count_nonzero(alone))])
        x0 += np.asarray(outer.center)
        wrap_out[alone] = hole.contains(x0) | (hole.distance(x0) < s[alone])
        wrap_in[alone] = f_lo[start[row_q[alone]]] > t[alone]
    inner[ask] = along + wrap_in * full_in
    out[ask] = full_out - inside - wrap_out * full_out
    return inner, out, theta, ask[query]


def _coarea_pass(frame: _Frame, domain: AnnularDomain, radial: RadialEigenResult, s_star: float):
    """({n: (gradient, boundary, mass)}, (A_32, A_16)): the Rayleigh
    quotient's parts of the web split at s_star by the coarea formula at n
    Gauss-Legendre nodes per panel, for each n of COAREA_NODES, with the
    boundary term at beta = 1, and the area law at s_star by both rules;
    one _level_lengths call serves them all.

    The inner piece runs over the level sets {d_i = s}, s < s*, of length
    P_i(s) (depth 0), on panels cut where a node's point leaves the outer
    ellipse (a level-set arc is born or a polygon joint passes out) and at
    r_bar - R1.  The falling part of the outer piece runs over the level
    sets {d_o = t}, t < R2 - r_bar, outside K + s*B, on panels cut at the
    node depths of K + s*B, and the plateau v_M fills the rest of the
    area.  The boundary carries v_m, and phi(min(R1 + d_i, r_bar)) where
    the ellipse runs inside K + s*B: a 1D integral in its parameter, cut
    where it crosses {d_i = s*} and {d_i = r_bar - R1} and where a polygon
    hole's nearest point changes between an edge and a vertex.  build_web
    keeps the falling band inside the ellipse's reach.
    """
    outer, hole = domain.outer, domain.inner
    r1, r2, r_bar = radial.shell.r_inner, radial.shell.r_outer, radial.r_bar
    depths = outer.foot(frame.walk(frame.nodes, s_star)[0])[1]
    s_panels = [_cosine_panels(0.0, s_star, [*frame.exits, r_bar - r1], n) for n in COAREA_NODES]
    t_panels = [_cosine_panels(0.0, r2 - r_bar, depths, n) for n in COAREA_NODES]
    sizes = [len(p[0]) for p in s_panels + t_panels]
    # the inner levels at depth 0, the outer ones on K + s*B, and last
    # {d_i = s*} and {d_i = r_bar - R1} at depth 0, for the boundary's
    # crossings
    levels = np.concatenate([p[0] for p in s_panels] + [np.full(sum(sizes[2:]) + 1, s_star)])
    levels = np.append(levels, r_bar - r1)
    depth = np.concatenate([np.zeros(sum(sizes[:2]))] + [p[0] for p in t_panels] + [[0.0, 0.0]])
    inner, outer_len, theta, query = _level_lengths(frame, domain, levels, depth)
    cuts = np.append(theta[query >= len(levels) - 2], frame.exit_theta) % (2.0 * math.pi)
    lengths = np.split(np.where(depth > 0.0, outer_len, inner)[:-2], np.cumsum(sizes))
    v_out, v_top = float(radial.value(r2)) ** 2, float(radial.value(r_bar)) ** 2

    result, area = {}, []
    rules = zip(COAREA_NODES, s_panels, t_panels, lengths[:2], lengths[2:4])
    for n, (s, ws), (t, wt), p_i, l_o in rules:
        ws, wt = ws * p_i, wt * l_o
        area.append(float(np.sum(ws)))
        rising = s < r_bar - r1
        gradient = float(np.sum(ws[rising] * radial.slope(r1 + s[rising]) ** 2))
        gradient += float(np.sum(wt * radial.slope(r2 - t) ** 2))
        mass = float(np.sum(ws * radial.value(np.minimum(r1 + s, r_bar)) ** 2))
        mass += float(np.sum(wt * radial.value(r2 - t) ** 2))
        mass += v_top * (domain.area - area[-1] - float(np.sum(wt)))
        psi, wp = _cosine_panels(0.0, 2.0 * math.pi, cuts, n)
        rim = np.column_stack([outer.a * np.cos(psi), outer.b * np.sin(psi)]) + outer.center
        wp *= np.hypot(outer.a * np.sin(psi), outer.b * np.cos(psi))
        d_i = hole.distance(rim)
        w = radial.value(np.where(d_i < s_star, np.minimum(r1 + d_i, r_bar), r2))
        boundary = v_out * outer.perimeter() + float(np.sum(wp * (w * w - v_out)))
        result[n] = (gradient, boundary, mass)
    return result, area


def rayleigh_quotient(web: WebFunction, *, allow_uncertified: bool = False):
    """Rayleigh quotient of the web function at the beta its shell was
    solved at (web.radial.beta).

    Returns ({gradient, boundary, mass}, value, error) with value =
    (gradient + boundary) / mass: the coarea formula's 1D integrals at
    COAREA_NODES[0] nodes per panel (web.integrals, from build_web), and
    error, its computed quadrature error, |value - the value at
    COAREA_NODES[1] nodes|.  Uncertified webs are rejected unless
    explicitly allowed for diagnostic runs.
    """
    if not web.certified and not allow_uncertified:
        raise InvalidWebError(
            f"web failed its certificate (jump {web.interface_jump:.3e} "
            f"> tol {web.continuity_tol:.3e} or containment lost)"
        )
    beta = web.radial.beta
    (gradient, boundary, mass), (g, b, m) = (web.integrals[n] for n in COAREA_NODES)
    value = (gradient + beta * boundary) / mass
    parts = {"gradient": gradient, "boundary": beta * boundary, "mass": mass}
    return parts, value, abs(value - (g + beta * b) / m)


# ---------------------------------------------------------------------------
# chain certificate
# ---------------------------------------------------------------------------


def chain_certificate(
    domain: AnnularDomain,
    beta: float,
    n_r: int = 48,
    n_a: int = 192,
    quad_level=None,
) -> dict:
    """Full eigenvalue chain on one class-S domain.

    Solves the domain (FEM), builds the web on its matched shell (radial)
    and checks lambda_fem <= R(w) <= lambda_shell up to the stated
    tolerances (chain_checks).  The quotient of an uncertified web is
    still reported, flagged through the certificate fields.

    The FEM leg runs first, then the web leg, so a FEM error wins over a
    web error.  The report's rayleigh_error is the quotient's computed
    quadrature error (rayleigh_quotient).  quad_level, the cell counts of the
    deleted midpoint grid, is accepted and not read, as perfbench's warm-up
    still passes it.
    """
    fem = solve_domain(domain, beta, n_r, n_a)
    web = build_web(domain, beta)
    parts, value, error = rayleigh_quotient(web, allow_uncertified=True)
    report = web.report() | {
        "beta": beta,
        "rayleigh": value,
        "rayleigh_error": error,
        "rayleigh_parts": parts,
        "lambda_fem": fem.lam,
        "lambda_shell": web.radial.lam,
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
