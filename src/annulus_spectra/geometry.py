"""Planar convex-body computations and annular domain bookkeeping.

The 2D machinery (areas, perimeters, quermassintegrals, inradius, support
points and functions, boundary distances, and the lineups of a hole's
support points with an outer ellipse's) works on convex polygons and on
the two boundary-curve kinds used throughout the package: axis-aligned
ellipses, of which a circle is the a = b case, and convex polygons.  An
ellipse has one foot-point solve, Ellipse.foot, which gives the foot's
parameter and the signed distance; distance reads it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.special import ellipe

from .errors import (
    ContainmentError,
    CurvatureUnavailableError,
    GeometryError,
    InfeasibleError,
    NumericalError,
    RangeError,
    StarShapeError,
)

# Collinearity slack for convexity tests, scaled by the squared body size.
CONVEXITY_TOL = 1e-12
CONTAINMENT_REL_GAP = 1e-9
# Normal angles that lineups scans for sign changes, and the Illinois
# steps that take each root from its 2 pi / LINEUP_SCAN bracket to rounding.
LINEUP_SCAN = 256
LINEUP_STEPS = 10
# A scanned function within FLAT_ULPS rounding units of zero is flat: it
# has no isolated roots to bracket.
FLAT_ULPS = 16
# Elements of one (points x edges) block of ConvexPolygon.nearest_edge.
RAY_BLOCK = 1 << 14
# Class-S membership: |class_s_data residual| <= CLASS_S_RTOL * |Omega|.
CLASS_S_RTOL = 1e-8
# Newton steps allowed to the ellipse foot-point solve; points near the
# evolute's cusps, the slowest, settle in under 50.
FOOT_POINT_ITERATIONS = 100
# The largest length whose square is a float: x**2 overflows exactly above it.
SQUARE_MAX = math.sqrt(sys.float_info.max)
# The smallest length whose square is a normal float: below it x**2 loses bits.
SQUARE_MIN = math.sqrt(sys.float_info.min)


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _unit(points) -> float:
    """The power of two within a factor 2 of 1 / max |coordinate|, at most
    2^1000 (past which a subnormal maximum would overflow it): points
    scaled by it, and their products, keep their bits and cannot overflow."""
    return math.ldexp(1.0, min(1000, -math.frexp(float(np.max(np.abs(points))))[1]))


def _as_point(p) -> np.ndarray:
    q = np.asarray(p, dtype=float).reshape(2)
    return q


def _finite_center(center) -> tuple:
    c = tuple(map(float, center))
    if not all(map(math.isfinite, c)):
        raise GeometryError("curve center must be finite")
    return c


def _as_rows(points):
    """(m, 2) rows of points or directions, and whether a single one was given."""
    u = np.asarray(points, dtype=float)
    return u.reshape(-1, 2), u.ndim == 1


def _shoelace(verts: np.ndarray) -> float:
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


@dataclass(frozen=True)
class ConvexPolygon:
    """Counterclockwise convex polygon given by its vertices.

    Vertices must describe a simple, convex loop; consecutive-edge cross
    products may dip to -CONVEXITY_TOL * scale^2 to tolerate collinear
    discretization points.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise GeometryError("polygon needs at least 3 planar vertices")
        if not np.all(np.isfinite(v)):
            raise GeometryError("polygon vertices must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        scale = float(np.max(np.ptp(v, axis=0)))
        if scale <= 0.0:
            raise GeometryError("degenerate polygon: zero extent")
        # checked on the polygon scaled by _unit: the same outcomes, no overflow
        unit = _unit(v)
        scale, v = scale * unit, v * unit
        e = np.roll(v, -1, axis=0) - v
        lengths = np.hypot(e[:, 0], e[:, 1])
        if np.any(lengths <= 1e-14 * scale):
            raise GeometryError("degenerate polygon: repeated vertices")
        cross = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
        if np.any(cross < -CONVEXITY_TOL * scale * scale):
            raise GeometryError("polygon is not convex and counterclockwise")
        if _shoelace(v) <= 0.0:
            raise GeometryError("polygon vertices are not counterclockwise")

    # -- basic measures -------------------------------------------------

    @property
    def area(self) -> float:
        return _shoelace(self.vertices)

    @property
    def perimeter(self) -> float:
        e = np.roll(self.vertices, -1, axis=0) - self.vertices
        return float(np.sum(np.hypot(e[:, 0], e[:, 1])))

    @property
    def centroid(self) -> np.ndarray:
        unit = _unit(self.vertices)
        v = self.vertices * unit
        w = np.roll(v, -1, axis=0)
        cr = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
        a = 0.5 * np.sum(cr)
        cx = np.sum((v[:, 0] + w[:, 0]) * cr) / (6.0 * a)
        cy = np.sum((v[:, 1] + w[:, 1]) * cr) / (6.0 * a)
        return np.array([cx, cy]) / unit

    @property
    def scale(self) -> float:
        return float(np.max(np.ptp(self.vertices, axis=0)))

    def edge_normals_offsets(self):
        """Outward unit normals n_e and offsets b_e with the body {n_e.x <= b_e}."""
        v = self.vertices
        e = np.roll(v, -1, axis=0) - v
        lengths = np.hypot(e[:, 0], e[:, 1])
        n = np.column_stack([e[:, 1], -e[:, 0]]) / lengths[:, None]
        b = np.sum(n * v, axis=1)
        return n, b

    def contains(self, points, tol: float = 0.0):
        """Whether each point is inside (every margin b_e - n_e.x >= -tol):
        a bool for one point, a mask for (m, 2) points."""
        p, single = _as_rows(points)
        n, b = self.edge_normals_offsets()
        inside = np.all(b[None, :] - p @ n.T >= -tol, axis=1)
        return bool(inside[0]) if single else inside

    def nearest_edge(self, points):
        """Distance from each point to the boundary and the index of its
        nearest edge (the first one on ties), from the (points x edges)
        broadcast in blocks of at most RAY_BLOCK elements."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        v = self.vertices
        (vx, vy), (dx, dy) = v.T[:, :, None], (np.roll(v, -1, axis=0) - v).T[:, :, None]
        ll = dx * dx + dy * dy
        best = np.empty(len(p))
        nearest = np.empty(len(p), dtype=int)
        step = max(1, RAY_BLOCK // len(vx))
        for lo in range(0, len(p), step):
            x, y = p[lo : lo + step].T
            # projection parameter of every point on every edge, clamped
            t = np.clip(((x - vx) * dx + (y - vy) * dy) / ll, 0.0, 1.0)
            dist = np.hypot(x - (vx + t * dx), y - (vy + t * dy))
            near = np.argmin(dist, axis=0)
            nearest[lo : lo + step] = near
            best[lo : lo + step] = dist[near, np.arange(len(near))]
        return best, nearest

    def sample_boundary(self, n: int) -> np.ndarray:
        """n points spread along the boundary, proportional to edge length."""
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        lengths = np.hypot(*(w - v).T)
        cum = np.concatenate([[0.0], np.cumsum(lengths)])
        s = np.linspace(0.0, cum[-1], n, endpoint=False)
        idx = np.searchsorted(cum, s, side="right") - 1
        idx = np.clip(idx, 0, len(v) - 1)
        local = (s - cum[idx]) / lengths[idx]
        return v[idx] + local[:, None] * (w[idx] - v[idx])

    @staticmethod
    def regular(n: int, circumradius: float = 1.0, center=(0.0, 0.0)) -> "ConvexPolygon":
        c = _as_point(center)
        th = 2.0 * np.pi * np.arange(n) / n
        verts = c + circumradius * np.column_stack([np.cos(th), np.sin(th)])
        return ConvexPolygon(verts)

    @staticmethod
    def rectangle(width: float, height: float, center=(0.0, 0.0)) -> "ConvexPolygon":
        c = _as_point(center)
        hw, hh = width / 2.0, height / 2.0
        verts = c + np.array([[-hw, -hh], [hw, -hh], [hw, hh], [-hw, hh]])
        return ConvexPolygon(verts)


def random_convex_polygon(rng: np.random.Generator, n: int, scale: float = 1.0) -> ConvexPolygon:
    """Random convex n-gon (Valtr's construction, no hull computation).

    Random x and y coordinates are split into two chains each, paired into
    edge vectors, sorted by angle and chained; the result is convex by
    construction.
    """
    if n < 3:
        raise GeometryError("need n >= 3")

    def chain_deltas(coords):
        c = np.sort(coords)
        lo, hi = c[0], c[-1]
        mid = c[1:-1]
        side = rng.random(len(mid)) < 0.5
        up = np.concatenate([[lo], mid[side], [hi]])
        dn = np.concatenate([[lo], mid[~side], [hi]])
        return np.concatenate([np.diff(up), -np.diff(dn)])

    dx = chain_deltas(rng.random(n) * scale)
    dy = chain_deltas(rng.random(n) * scale)
    rng.shuffle(dy)
    ang = np.arctan2(dy, dx)
    order = np.argsort(ang)
    verts = np.cumsum(np.column_stack([dx[order], dy[order]]), axis=0)
    verts -= verts.mean(axis=0)
    return ConvexPolygon(verts)


# ---------------------------------------------------------------------------
# polygon operations
# ---------------------------------------------------------------------------


def inradius(poly: ConvexPolygon) -> float:
    """Radius of the largest inscribed disk (Chebyshev center of the edges).

    Solved as the linear program max t subject to n_e . x + t <= b_e.
    """
    n, b = poly.edge_normals_offsets()
    m = len(b)
    a_ub = np.column_stack([n, np.ones(m)])
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=a_ub, b_ub=b, bounds=[(None, None)] * 3, method="highs")
    if not res.success:
        raise GeometryError(f"inradius LP failed: {res.message}")
    return float(res.x[2])


def aleksandrov_fenchel_check(poly: ConvexPolygon) -> float:
    """Margin (W1/omega_2) - sqrt(W0/omega_2); nonnegative, zero for disks.

    The quermassintegrals of a planar convex body are W0 = area and
    W1 = perimeter / 2, and omega_2 = pi."""
    return poly.perimeter / 2.0 / math.pi - math.sqrt(poly.area / math.pi)


# ---------------------------------------------------------------------------
# boundary curves
# ---------------------------------------------------------------------------


class BoundaryCurve:
    """Closed convex boundary curve: axis-aligned ellipse (a circle among
    them) or polygon.  Each kind defines
    - area(), perimeter(), and reference_point(), a point well inside;
    - contains(points, tol=0.0), tol a length;
    - distance(points): from points anywhere to the curve;
    - ray_length(origin, direction): t > 0 with origin + t * direction on
      the curve, StarShapeError unless the origin is strictly inside; one
      unit direction gives a float, an (m, 2) array of them (m,) lengths;
    - sample(n): n boundary points in the curve's natural parameterization;
    - support_point(u): (m, 2) boundary points with outward normals the
      (m, 2) unit u, and outward_normal(points) at boundary points;
    - translated(vector), scaled(factor): scaled about its centre (a
      polygon's centroid);
    - scale, a property: the extent; spec_string(), which parse reads back.
    curvature_at raises CurvatureUnavailableError where a kind has none.
    """

    def curvature_at(self, points) -> np.ndarray:
        raise CurvatureUnavailableError("curvature is undefined for this curve")

    @staticmethod
    def parse(text: str) -> "BoundaryCurve":
        """Parse the curve grammar: 'circle cx cy r', 'ellipse cx cy a b',
        'polygon x1 y1 x2 y2 ...'."""
        parts = text.split()
        if not parts:
            raise GeometryError("empty curve specification")
        kind = parts[0].lower()
        try:
            nums = [float(t) for t in parts[1:]]
        except ValueError as exc:
            raise GeometryError(f"bad number in curve specification {text!r}: {exc}") from None
        if kind == "circle":
            if len(nums) != 3:
                raise GeometryError("circle needs: cx cy r")
            return Circle((nums[0], nums[1]), nums[2])
        if kind == "ellipse":
            if len(nums) != 4:
                raise GeometryError("ellipse needs: cx cy a b")
            return Ellipse((nums[0], nums[1]), nums[2], nums[3])
        if kind == "polygon":
            if len(nums) < 6 or len(nums) % 2:
                raise GeometryError("polygon needs >= 3 coordinate pairs")
            return PolygonCurve(ConvexPolygon(np.array(nums).reshape(-1, 2)))
        raise GeometryError(f"unknown curve kind {kind!r}")


def _secular_root(z0, z1, c: float) -> np.ndarray:
    """tau > 0 with (z0 / (tau + c))^2 + (z1 / tau)^2 = 1, by the monotone
    Newton iteration of Ellipse.foot."""
    tau = np.maximum(z1, z0 - c)
    cap = np.hypot(z0, z1)
    todo = np.arange(len(tau))
    for _ in range(FOOT_POINT_ITERATIONS):
        t = tau[todo]
        r0, r1 = z0[todo] / (t + c), z1[todo] / t
        # Newton step for F = 1, with -F'/2 = r0^2 / (t + c) + r1^2 / t
        step = (r0 * r0 + r1 * r1 - 1.0) / (2.0 * (r0 * r0 / (t + c) + r1 * r1 / t))
        moved = np.minimum(t + np.maximum(step, 0.0), cap[todo])
        tau[todo] = moved
        todo = todo[moved != t]
        if len(todo) == 0:
            return tau
    raise NumericalError(
        f"ellipse foot-point Newton iteration did not settle in "
        f"{FOOT_POINT_ITERATIONS} steps at {len(todo)} points"
    )


@dataclass(frozen=True)
class Ellipse(BoundaryCurve):
    """Axis-aligned ellipse with semi-axes a (x) and b (y); Circle is the
    a = b subclass."""

    center: tuple
    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "center", _finite_center(self.center))
        if not (0.0 < self.a < math.inf and 0.0 < self.b < math.inf):
            raise GeometryError("ellipse semi-axes must be positive and finite")

    def _c(self):
        return np.asarray(self.center)

    def area(self):
        return math.pi * self.a * self.b

    def perimeter(self):
        """4 a E(1 - b^2 / a^2) with a the major semi-axis, E the complete
        elliptic integral of the second kind (DLMF 19.9.9)."""
        major, minor = max(self.a, self.b), min(self.a, self.b)
        return 4.0 * major * float(ellipe(1.0 - (minor / major) ** 2))

    def reference_point(self):
        return self._c()

    def contains(self, points, tol=0.0):
        p, single = _as_rows(points)
        r = np.hypot((p[:, 0] - self.center[0]) / self.a, (p[:, 1] - self.center[1]) / self.b)
        # tol is a length; convert through the smaller axis (conservative)
        inside = r <= 1.0 + tol / min(self.a, self.b)
        return bool(inside[0]) if single else inside

    def foot(self, points):
        """(theta, d): the parameter of each point's nearest curve point c +
        (a cos theta, b sin theta) and the signed distance to it, positive
        inside, by Newton's method on Eberly's secular equation (Geometric
        Tools, 2013) folded into the first quadrant with e0 >= e1.

        With c = e0^2 - e1^2 the folded foot is (e0 cos f, e1 sin f), (cos f,
        sin f) = (e0 y0 / (tau + c), e1 y1 / tau), where tau > 0, Eberly's t
        shifted by e1^2 so that near-axis points keep their digits, solves
        F(tau) = (e0 y0 / (tau + c))^2 + (e1 y1 / tau)^2 = 1.  F is convex
        and decreasing, >= 1 at max(e1 y1, e0 y0 - c) and <= 1 at hypot(e0
        y0, e1 y1), so Newton's iterates rise monotonically to the root
        under that cap, and the point is inside where tau < e1^2: d = (e1^2
        - tau) hypot(y0 / (tau + c), y1 / tau).  Axis points (an offset from
        the major axis that underflows counts as zero) are closed-form.
        Computed on the ellipse and points scaled by _unit and d scaled back.
        """
        unit = _unit([self.a, self.b])
        p = (np.atleast_2d(np.asarray(points, dtype=float)) - self._c()) * unit
        wide, q = self.a >= self.b, np.abs(p.T)
        axes = (self.a * unit, self.b * unit)
        (e0, e1), (y0, y1) = (axes, q) if wide else (axes[::-1], q[::-1])
        c = (e0 - e1) * (e0 + e1)
        z0, z1 = e0 * y0, e1 * y1
        d, cos_f, sin_f = np.empty(len(p)), np.zeros(len(p)), np.ones(len(p))
        minor = y0 == 0.0
        major = ~minor & (z1 < np.finfo(float).tiny)
        evolute = major & (z0 < c)
        d[minor] = e1 - y1[minor]
        d[evolute] = e1 * np.sqrt(1.0 - y0[evolute] ** 2 / c)
        d[major & ~evolute] = e0 - y0[major & ~evolute]
        cos_f[major] = 1.0
        cos_f[evolute] = z0[evolute] / c
        sin_f[major] = np.sqrt(1.0 - cos_f[major] ** 2)

        free = ~(minor | major)
        tau = _secular_root(z0[free], z1[free], c)
        d[free] = (e1 * e1 - tau) * np.hypot(y0[free] / (tau + c), y1[free] / tau)
        cos_f[free], sin_f[free] = z0[free] / (tau + c), z1[free] / tau
        sx, sy = np.copysign(1.0, p[:, 0]), np.copysign(1.0, p[:, 1])
        if wide:
            return np.arctan2(sy * sin_f, sx * cos_f), d / unit
        return np.arctan2(sy * cos_f, sx * sin_f), d / unit

    def distance(self, points):
        """Distance to the curve: |d| of foot."""
        return np.abs(self.foot(points)[1])

    @property
    def reach(self) -> float:
        """min(a, b)^2 / max(a, b), the least radius of curvature: up to it
        the inner parallel curves are regular, and a point less deep inside
        has one foot."""
        return min(self.a, self.b) ** 2 / max(self.a, self.b)

    def ray_length(self, origin, direction):
        """The larger root of the ray's quadratic in the ellipse's unit-circle
        coordinates, computed on the ellipse and origin scaled by _unit and
        scaled back."""
        unit = _unit([self.a, self.b])
        a, b = self.a * unit, self.b * unit
        o = (_as_point(origin) - self._c()) * unit
        u, single = _as_rows(direction)
        os = np.array([o[0] / a, o[1] / b])
        cc = os @ os - 1.0
        if not cc < 0.0:
            raise StarShapeError("ray origin is outside the ellipse")
        usx, usy = u[:, 0] / a, u[:, 1] / b
        aa = usx * usx + usy * usy
        bb = os[0] * usx + os[1] * usy
        t = (-bb + np.sqrt(bb * bb - aa * cc)) / aa / unit
        return float(t[0]) if single else t

    def sample(self, n):
        t = 2.0 * np.pi * np.arange(n) / n
        return self._c() + np.column_stack([self.a * np.cos(t), self.b * np.sin(t)])

    def support_point(self, u):
        """c + (a cos psi, b sin psi) with psi = atan2(b u_y, a u_x)."""
        psi = np.arctan2(self.b * u[:, 1], self.a * u[:, 0])
        return self._c() + np.column_stack([self.a * np.cos(psi), self.b * np.sin(psi)])

    def _param_of(self, points):
        p = np.atleast_2d(np.asarray(points, dtype=float)) - self._c()
        return np.arctan2(p[:, 1] / self.b, p[:, 0] / self.a)

    def curvature_at(self, points):
        t = self._param_of(points)
        a, b = self.a, self.b
        return a * b / ((a * np.sin(t)) ** 2 + (b * np.cos(t)) ** 2) ** 1.5

    def outward_normal(self, points):
        t = self._param_of(points)
        n = np.column_stack([self.b * np.cos(t), self.a * np.sin(t)])
        return n / np.hypot(*n.T)[:, None]

    @property
    def scale(self):
        return 2.0 * max(self.a, self.b)

    def translated(self, vector):
        return Ellipse(tuple(self._c() + _as_point(vector)), self.a, self.b)

    def scaled(self, factor):
        return Ellipse(tuple(self._c()), self.a * factor, self.b * factor)

    def spec_string(self):
        return f"ellipse {self.center[0]:.17g} {self.center[1]:.17g} {self.a:.17g} {self.b:.17g}"


class Circle(Ellipse):
    """The ellipse a = b = radius.  Its closed-form foot, (atan2, r - |p -
    c|), is ten to twenty times faster than the foot-point Newton solve,
    and its ray_length gives t = r exactly on rays from the centre, which
    keeps meshes on circles exact."""

    def __init__(self, center, radius):
        if not 0.0 < radius < math.inf:
            raise GeometryError("circle radius must be positive and finite")
        super().__init__(center, radius, radius)

    @property
    def radius(self) -> float:
        return self.a

    def foot(self, points):
        p = np.atleast_2d(np.asarray(points, dtype=float)) - self._c()
        return np.arctan2(p[:, 1], p[:, 0]), self.radius - np.hypot(p[:, 0], p[:, 1])

    def ray_length(self, origin, direction):
        if not self.radius <= SQUARE_MAX:
            raise RangeError(f"circle radius {self.radius:.6g} squares beyond the float range")
        o = _as_point(origin) - self._c()
        u, single = _as_rows(direction)
        cc = o @ o - self.radius**2
        if not cc < 0.0:
            raise StarShapeError("ray origin is outside the circle")
        b = u[:, 0] * o[0] + u[:, 1] * o[1]
        t = -b + np.sqrt(b * b - cc)
        return float(t[0]) if single else t

    def translated(self, vector):
        return Circle(tuple(self._c() + _as_point(vector)), self.radius)

    def scaled(self, factor):
        return Circle(tuple(self._c()), self.radius * factor)

    def spec_string(self):
        return f"circle {self.center[0]:.17g} {self.center[1]:.17g} {self.radius:.17g}"


@dataclass(frozen=True)
class PolygonCurve(BoundaryCurve):
    polygon: ConvexPolygon

    def area(self):
        return self.polygon.area

    def perimeter(self):
        return self.polygon.perimeter

    def reference_point(self):
        return self.polygon.centroid

    def contains(self, points, tol=0.0):
        return self.polygon.contains(points, tol=tol)

    def distance(self, points):
        return self.polygon.nearest_edge(points)[0]

    def ray_length(self, origin, direction):
        """Exit through the edge halfspaces: from a strictly inner origin the
        ray leaves at the smallest (dv x e) / (u x e) over the edges e it
        faces (u x e > 0), dv running from the origin to each edge's start;
        computed on the polygon scaled by _unit and scaled back."""
        u, single = _as_rows(direction)
        unit = _unit(self.polygon.vertices)
        v = self.polygon.vertices * unit
        e = np.roll(v, -1, axis=0) - v
        dv = v - _as_point(origin) * unit
        t_num = dv[:, 0] * e[:, 1] - dv[:, 1] * e[:, 0]
        if not np.all(t_num > 0.0):
            raise StarShapeError("ray origin is outside the polygon")
        denom = u[:, :1] * e[:, 1] - u[:, 1:] * e[:, 0]
        t = np.divide(t_num, denom, out=np.full(denom.shape, np.inf), where=denom > 0.0)
        out = np.min(t, axis=1) / unit
        return float(out[0]) if single else out

    def sample(self, n):
        return self.polygon.sample_boundary(n)

    def support_point(self, u):
        """The vertex v maximizing u . v, the first one on ties."""
        verts = self.polygon.vertices
        return verts[np.argmax(u @ verts.T, axis=1)]

    def outward_normal(self, points):
        n, _ = self.polygon.edge_normals_offsets()
        return n[self.polygon.nearest_edge(points)[1]]

    @property
    def scale(self):
        return self.polygon.scale

    def translated(self, vector):
        return PolygonCurve(ConvexPolygon(self.polygon.vertices + _as_point(vector)))

    def scaled(self, factor):
        about = self.polygon.centroid
        return PolygonCurve(ConvexPolygon(about + factor * (self.polygon.vertices - about)))

    def spec_string(self):
        coords = " ".join(f"{c:.17g}" for c in self.polygon.vertices.ravel())
        return f"polygon {coords}"


# ---------------------------------------------------------------------------
# annular domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShellSpec:
    """Concentric spherical shell in R^n with radii 0 < r_inner < r_outer."""

    dim: int
    r_inner: float
    r_outer: float

    def __post_init__(self):
        dim = self.dim
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 2:
            raise GeometryError("shell dimension must be an integer >= 2")
        if not 0.0 < self.r_inner < self.r_outer:
            raise GeometryError("need 0 < r_inner < r_outer")

    def _outer_power(self, p: int) -> float:
        """R2^p, or RangeError naming the size where it overflows."""
        try:
            return self.r_outer**p
        except OverflowError:
            raise RangeError(f"R2^{p} overflows at R2 = {self.r_outer:.6g}") from None

    @property
    def volume(self) -> float:
        wn = unit_ball_volume(self.dim)
        return wn * (self._outer_power(self.dim) - self.r_inner**self.dim)

    @property
    def outer_area(self) -> float:
        """(n-1)-dimensional measure of the outer sphere."""
        return self.dim * unit_ball_volume(self.dim) * self._outer_power(self.dim - 1)


@dataclass(frozen=True)
class AnnularDomain:
    """Region between a convex outer curve and a convex hole inside it.

    The center is the star-shape reference used for meshing; it must lie
    strictly inside the hole.  gap is the hole's free distance
    (free_distance), exact, and the hole must clear the outer curve by
    more than CONTAINMENT_REL_GAP of its scale.  The domain is immutable,
    so fem keeps its validated meshes in _meshes, keyed by resolution.
    """

    outer: BoundaryCurve
    inner: BoundaryCurve
    center: np.ndarray = None
    gap: float = field(init=False, compare=False)
    _meshes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        center = self.inner.reference_point() if self.center is None else _as_point(self.center)
        center = np.asarray(center, dtype=float)
        center.setflags(write=False)
        object.__setattr__(self, "center", center)
        if not self.inner.contains(center, tol=-1e-12 * self.inner.scale):
            raise GeometryError("center must lie strictly inside the hole")
        gap = free_distance(self.outer, self.inner)
        if gap < 0.0:
            raise ContainmentError("hole is not contained in the outer region")
        if gap <= CONTAINMENT_REL_GAP * self.outer.scale:
            raise ContainmentError(f"hole touches the outer boundary (gap {gap:.3e})")
        object.__setattr__(self, "gap", gap)

    @property
    def area(self) -> float:
        return self.outer.area() - self.inner.area()


def isoperimetric_deficit(curve: BoundaryCurve) -> float:
    """P^2 - 4 pi |K|; zero exactly for disks."""
    p = curve.perimeter()
    return p * p - 4.0 * math.pi * curve.area()


def class_s_data(domain: AnnularDomain):
    """Matched shell radii and the class membership residual.

    R2 and R1 are the radii of the balls matching the outer perimeter and
    the hole's (n-1)-st quermassintegral (in 2D, its perimeter).  The
    residual |Omega| - pi (R2^2 - R1^2) vanishes exactly when the domain's
    measure also matches the shell, i.e. when the outer body and the hole
    have equal isoperimetric deficits.
    """
    p_out = domain.outer.perimeter()
    p_in = domain.inner.perimeter()
    r2 = p_out / (2.0 * math.pi)
    r1 = p_in / (2.0 * math.pi)
    if r1 >= r2:
        raise InfeasibleError("hole perimeter-deficit exceeds the outer body")
    residual = domain.area - math.pi * (r2 * r2 - r1 * r1)
    return r1, r2, residual


def class_s_radii(domain: AnnularDomain):
    """(R1, R2) of the matched shell of a class-S domain: the one class-S
    gate, InfeasibleError unless |class_s_data residual| <= CLASS_S_RTOL
    |Omega|."""
    r1, r2, residual = class_s_data(domain)
    if abs(residual) > CLASS_S_RTOL * domain.area:
        raise InfeasibleError(
            f"domain is not in class S (relative residual {residual / domain.area:.3e})"
        )
    return r1, r2


def scale_hole_to_class_s(outer: BoundaryCurve, hole_shape: BoundaryCurve) -> float:
    """Scale factor making the hole's isoperimetric deficit match the outer's.

    Deficits scale with the square of the dilation factor, so the matching
    scale is sqrt(deficit_outer / deficit_hole).  Compact containment is
    verified for hole_shape.scaled(s) where it lies, the hole its callers
    build (ContainmentError).  A hole with zero deficit (a disk, also in a
    disk, where every contained scale would match) has no single factor:
    InfeasibleError.
    """
    d_out = isoperimetric_deficit(outer)
    d_hole = isoperimetric_deficit(hole_shape)
    zero_out = abs(d_out) <= 1e-9 * outer.scale**2
    zero_hole = abs(d_hole) <= 1e-9 * hole_shape.scale**2
    if zero_hole:
        raise InfeasibleError("hole has zero deficit, so no single scale matches the outer body")
    if zero_out:
        raise InfeasibleError("outer body has zero deficit but the hole does not")
    s = math.sqrt(d_out / d_hole)
    if not free_distance(outer, hole_shape.scaled(s)) > CONTAINMENT_REL_GAP * outer.scale:
        raise ContainmentError(f"scaled hole (factor {s:.6g}) does not fit in the outer body")
    return s


def free_distance(outer: BoundaryCurve, hole: BoundaryCurve) -> float:
    """Largest delta with hole + delta B inside outer; negative when the
    hole is not inside.

    It is the least h_outer(u) - h_hole(u), h(u) = support_point(u) . u
    (Schneider, Convex Bodies, sec. 1.7), over a polygon outer's edge
    normals.  Inside a smooth outer the signed distance of foot is
    concave, so it is least at a polygon hole's vertex or a circle hole's
    centre less the radius.  For an ellipse hole the slack's derivative in the normal
    angle is (X(u) - P(u)) . u_perp, so its least value is at one of the
    same-normal lineups, or at any angle when the lineup is flat.
    """
    if isinstance(outer, PolygonCurve):
        n, b = outer.polygon.edge_normals_offsets()
        return float(np.min(b - np.sum(hole.support_point(n) * n, axis=1)))
    if isinstance(hole, PolygonCurve) or hole.a == hole.b:
        circle = not isinstance(hole, PolygonCurve)
        extreme = hole._c()[None] if circle else hole.polygon.vertices
        return float(np.min(outer.foot(extreme)[1])) - (hole.a if circle else 0.0)
    phi, _, far = lineups(outer, hole)
    phi = np.append(phi[~far], 0.0)
    u = np.column_stack([np.cos(phi), np.sin(phi)])
    return float(np.min(np.sum((outer.support_point(u) - hole.support_point(u)) * u, axis=1)))


_QUARTER_TURN = np.array([[0.0, 1.0], [-1.0, 0.0]])  # u @ it is u turned by +pi/2


def lineups(outer: Ellipse, hole: BoundaryCurve):
    """(phi, source, far): the normal angles phi at which the outer
    ellipse's support point X and the hole's P line up along u = (cos phi,
    sin phi), with the same normal (X(u), far False) or the opposite one
    (X(-u), far True): the roots of (X(+-u) - P(u)) . u_perp.

    P is the support point of an ellipse hole (source 0), or polygon vertex
    source held fixed.  The same-normal roots are the critical points of
    the support-function slack h_outer - h_hole.  Each root is bracketed on
    a scan of LINEUP_SCAN angles and polished by the Illinois variant of
    regula falsi, which keeps the bracket; a row flat to FLAT_ULPS rounding
    units has none.
    """
    n = LINEUP_SCAN
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
    a, b = phi[k], phi[k] + 2.0 * math.pi / n
    ga, gb = g.ravel()[k], np.roll(g, -1, axis=1).ravel()[k]
    for _ in range(LINEUP_STEPS):
        c = b - gb * (b - a) / (gb - ga)
        gc = lineup(c, source, far)
        # b moves to c; a stays, its value halved, while c keeps b's side
        same = (gc < 0.0) == (gb < 0.0)
        a, ga = np.where(same, a, b), np.where(same, 0.5 * ga, gb)
        b, gb = c, gc
    return b, source, far
