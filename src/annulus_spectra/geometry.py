"""Planar convex-body computations and annular domain bookkeeping.

The 2D machinery (areas, perimeters, quermassintegrals, inradius, parallel
bodies, boundary distances) works on convex polygons and on the three
boundary-curve kinds used throughout the package: circles, axis-aligned
ellipses and convex polygons.  Spherical-shell quermassintegrals are
available in every dimension through the closed Steiner formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import (
    ContainmentError,
    CurvatureUnavailableError,
    DomainError,
    EmptyBodyError,
    GeometryError,
    InfeasibleError,
    NumericalError,
    RangeError,
    StarShapeError,
)

# Collinearity slack for convexity tests, scaled by the squared body size.
CONVEXITY_TOL = 1e-12
# Boundary sampling density used for containment / gap checks.
CONTAINMENT_SAMPLES = 4096
CONTAINMENT_REL_GAP = 1e-9
# Default discretization when a curve must be reduced to a polygon.
DEFAULT_NGON = 1024
# Rays x edges per block in the batched polygon ray cast.
RAY_BLOCK = 1 << 17
# Newton steps allowed to the ellipse foot-point solve; points near the
# evolute's cusps, the slowest, settle in under 50.
FOOT_POINT_ITERATIONS = 100


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _as_point(p) -> np.ndarray:
    q = np.asarray(p, dtype=float).reshape(2)
    return q


def _as_directions(direction):
    """(m, 2) direction rows, and whether a single direction was given."""
    u = np.asarray(direction, dtype=float)
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
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        scale = float(np.max(np.ptp(v, axis=0)))
        if scale <= 0.0:
            raise GeometryError("degenerate polygon: zero extent")
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
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        cr = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
        a = 0.5 * np.sum(cr)
        cx = np.sum((v[:, 0] + w[:, 0]) * cr) / (6.0 * a)
        cy = np.sum((v[:, 1] + w[:, 1]) * cr) / (6.0 * a)
        return np.array([cx, cy])

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
        """Boolean mask of points inside (signed margin >= -tol)."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        n, b = self.edge_normals_offsets()
        margin = b[None, :] - p @ n.T
        inside = np.all(margin >= -tol, axis=1)
        return inside if inside.size > 1 else bool(inside[0])

    def nearest_edge(self, points):
        """Distance from each point to the boundary and the index of its
        nearest edge (the first one on ties), one edge at a time."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        v = self.vertices
        d = np.roll(v, -1, axis=0) - v
        ll = np.sum(d * d, axis=1)
        best = np.full(len(p), np.inf)
        nearest = np.zeros(len(p), dtype=int)
        for k in range(len(v)):
            # projection parameter of every point on edge k, clamped
            t = ((p[:, 0] - v[k, 0]) * d[k, 0] + (p[:, 1] - v[k, 1]) * d[k, 1]) / ll[k]
            t = np.clip(t, 0.0, 1.0)
            dist = np.hypot(p[:, 0] - (v[k, 0] + t * d[k, 0]), p[:, 1] - (v[k, 1] + t * d[k, 1]))
            nearest[dist < best] = k
            np.minimum(best, dist, out=best)
        return best, nearest

    def distance_to_boundary(self, points) -> np.ndarray:
        """Euclidean distance from each point to the polygon boundary."""
        return self.nearest_edge(points)[0]

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


def polygon_area(poly: ConvexPolygon) -> float:
    """Shoelace area of a valid convex polygon (always positive)."""
    a = poly.area
    if a <= 0.0:
        raise GeometryError("polygon has nonpositive area")
    return a


def quermassintegrals_2d(poly: ConvexPolygon):
    """(W0, W1, W2) of a planar convex body: area, half perimeter, pi."""
    return polygon_area(poly), poly.perimeter / 2.0, math.pi


def shell_quermass(n: int, radius: float, i: int) -> float:
    """i-th quermassintegral of the ball B_R in R^n: omega_n R^(n-i)."""
    if n < 2:
        raise GeometryError("dimension must be >= 2")
    if not 0 <= i <= n:
        raise RangeError(f"quermassintegral index {i} outside [0, {n}]")
    if radius <= 0.0:
        raise GeometryError("radius must be positive")
    return unit_ball_volume(n) * radius ** (n - i)


def inradius(poly: ConvexPolygon, return_center: bool = False):
    """Radius of the largest inscribed disk (Chebyshev center of the edges).

    Solved as the linear program max t subject to n_e . x + t <= b_e.
    """
    n, b = poly.edge_normals_offsets()
    m = len(b)
    a_ub = np.column_stack([n, np.ones(m)])
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=a_ub, b_ub=b, bounds=[(None, None)] * 3, method="highs")
    if not res.success:
        raise GeometryError(f"inradius LP failed: {res.message}")
    rho = float(res.x[2])
    if return_center:
        return rho, np.array(res.x[:2])
    return rho


def _clip_halfplane(verts: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    """Clip a convex loop against {x : normal . x <= offset} (vectorized)."""
    if len(verts) == 0:
        return verts
    d = verts @ normal - offset
    d_next = np.roll(d, -1)
    keep = d <= 0.0
    cross = keep != np.roll(keep, -1)
    idx_keep = np.nonzero(keep)[0]
    idx_cross = np.nonzero(cross)[0]
    if len(idx_cross) == 0:
        return verts if keep.all() else np.empty((0, 2))
    t = d[idx_cross] / (d[idx_cross] - d_next[idx_cross])
    crossings = verts[idx_cross] + t[:, None] * (
        np.roll(verts, -1, axis=0)[idx_cross] - verts[idx_cross]
    )
    # interleave surviving vertices and edge crossings in loop order
    keys = np.concatenate([2 * idx_keep, 2 * idx_cross + 1])
    pts = np.concatenate([verts[idx_keep], crossings])
    return pts[np.argsort(keys, kind="stable")]


def _dedupe_loop(verts: np.ndarray, scale: float) -> np.ndarray:
    if len(verts) == 0:
        return verts
    keep = [0]
    for i in range(1, len(verts)):
        if np.hypot(*(verts[i] - verts[keep[-1]])) > 1e-12 * scale:
            keep.append(i)
    if len(keep) > 1 and np.hypot(*(verts[keep[-1]] - verts[keep[0]])) <= 1e-12 * scale:
        keep.pop()
    return verts[keep]


def inner_parallel(poly: ConvexPolygon, delta: float) -> ConvexPolygon:
    """Erosion of a convex polygon: intersection of inward-offset edges."""
    if delta < 0.0:
        raise GeometryError("offset must be nonnegative")
    if delta == 0.0:
        return poly
    n, b = poly.edge_normals_offsets()
    verts = poly.vertices
    for k in range(len(b)):
        verts = _clip_halfplane(verts, n[k], b[k] - delta)
        if len(verts) < 3:
            raise EmptyBodyError(f"erosion by {delta} exhausts the polygon")
    verts = _dedupe_loop(verts, poly.scale)
    if len(verts) < 3 or _shoelace(verts) <= 0.0:
        raise EmptyBodyError(f"erosion by {delta} exhausts the polygon")
    return ConvexPolygon(verts)


def convex_intersection(a: ConvexPolygon, b: ConvexPolygon) -> ConvexPolygon | None:
    """Intersection of two convex polygons, or None when empty."""
    n, off = b.edge_normals_offsets()
    verts = a.vertices
    for k in range(len(off)):
        verts = _clip_halfplane(verts, n[k], off[k])
        if len(verts) < 3:
            return None
    verts = _dedupe_loop(verts, max(a.scale, b.scale))
    if len(verts) < 3 or _shoelace(verts) <= 0.0:
        return None
    return ConvexPolygon(verts)


def outer_parallel_measures(poly: ConvexPolygon, delta: float):
    """(area, perimeter) of the outer parallel body at distance delta.

    Planar Steiner polynomial: the dilation of a convex body gains
    P * delta + pi * delta^2 in area and 2 pi delta in perimeter.
    """
    if delta < 0.0:
        raise GeometryError("offset must be nonnegative")
    a = polygon_area(poly)
    p = poly.perimeter
    return a + p * delta + math.pi * delta * delta, p + 2.0 * math.pi * delta


def aleksandrov_fenchel_check(poly: ConvexPolygon) -> float:
    """Margin (W1/omega_2) - sqrt(W0/omega_2); nonnegative, zero for disks."""
    w0, w1, _ = quermassintegrals_2d(poly)
    return w1 / math.pi - math.sqrt(w0 / math.pi)


# ---------------------------------------------------------------------------
# boundary curves
# ---------------------------------------------------------------------------


class BoundaryCurve:
    """Closed convex boundary curve: circle, axis-aligned ellipse or polygon."""

    def area(self) -> float:
        raise NotImplementedError

    def perimeter(self) -> float:
        raise NotImplementedError

    def reference_point(self) -> np.ndarray:
        """A point well inside the enclosed region."""
        raise NotImplementedError

    def contains(self, points, tol: float = 0.0):
        raise NotImplementedError

    def distance(self, points) -> np.ndarray:
        """Distance from points (anywhere) to the curve."""
        raise NotImplementedError

    def ray_length(self, origin, direction):
        """t > 0 with origin + t * direction on the curve (origin inside).

        direction is one unit vector, giving a float, or an (m, 2) array
        of unit vectors, giving an (m,) array of lengths.  StarShapeError
        if any ray fails to leave through exactly one boundary point.
        """
        raise NotImplementedError

    def sample(self, n: int) -> np.ndarray:
        """n boundary points in the curve's natural parameterization."""
        raise NotImplementedError

    def curvature_at(self, points) -> np.ndarray:
        raise CurvatureUnavailableError("curvature is undefined for this curve")

    def outward_normal(self, points) -> np.ndarray:
        raise NotImplementedError

    def to_polygon(self, n: int = DEFAULT_NGON) -> ConvexPolygon:
        return ConvexPolygon(self.sample(n))

    def translated(self, vector) -> "BoundaryCurve":
        raise NotImplementedError

    def scaled(self, factor: float, about=None) -> "BoundaryCurve":
        raise NotImplementedError

    @property
    def scale(self) -> float:
        raise NotImplementedError

    @staticmethod
    def parse(text: str) -> "BoundaryCurve":
        """Parse the curve grammar: 'circle cx cy r', 'ellipse cx cy a b',
        'polygon x1 y1 x2 y2 ...'."""
        parts = text.split()
        if not parts:
            raise GeometryError("empty curve specification")
        kind, nums = parts[0].lower(), [float(t) for t in parts[1:]]
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

    def spec_string(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Circle(BoundaryCurve):
    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(map(float, self.center)))
        if self.radius <= 0.0:
            raise GeometryError("circle radius must be positive")

    def _c(self):
        return np.asarray(self.center)

    def area(self):
        return math.pi * self.radius**2

    def perimeter(self):
        return 2.0 * math.pi * self.radius

    def reference_point(self):
        return self._c()

    def contains(self, points, tol=0.0):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        inside = np.hypot(*(p - self._c()).T) <= self.radius + tol
        return inside if inside.size > 1 else bool(inside[0])

    def distance(self, points):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        return np.abs(np.hypot(*(p - self._c()).T) - self.radius)

    def ray_length(self, origin, direction):
        o = _as_point(origin) - self._c()
        u, single = _as_directions(direction)
        cc = o @ o - self.radius**2
        if not cc < 0.0:
            raise StarShapeError("ray origin is outside the circle")
        b = u[:, 0] * o[0] + u[:, 1] * o[1]
        t = -b + np.sqrt(b * b - cc)
        return float(t[0]) if single else t

    def sample(self, n):
        th = 2.0 * np.pi * np.arange(n) / n
        return self._c() + self.radius * np.column_stack([np.cos(th), np.sin(th)])

    def curvature_at(self, points):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        return np.full(len(p), 1.0 / self.radius)

    def outward_normal(self, points):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        d = p - self._c()
        return d / np.hypot(*d.T)[:, None]

    @property
    def scale(self):
        return 2.0 * self.radius

    def translated(self, vector):
        return Circle(tuple(self._c() + _as_point(vector)), self.radius)

    def scaled(self, factor, about=None):
        c = self._c() if about is None else _as_point(about) + factor * (self._c() - _as_point(about))
        return Circle(tuple(c), self.radius * factor)

    def spec_string(self):
        return f"circle {self.center[0]:.17g} {self.center[1]:.17g} {self.radius:.17g}"


def _adaptive_gauss_legendre(f, a, b, rel_tol=1e-12, order=20, depth=0):
    """Adaptive Gauss-Legendre quadrature by interval halving."""
    nodes, weights = np.polynomial.legendre.leggauss(order)

    def gl(lo, hi):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return half * float(np.sum(weights * f(mid + half * nodes)))

    def recurse(lo, hi, whole, depth):
        mid = 0.5 * (lo + hi)
        left, right = gl(lo, mid), gl(mid, hi)
        if depth > 40 or abs(left + right - whole) <= rel_tol * abs(left + right):
            return left + right
        return recurse(lo, mid, left, depth + 1) + recurse(mid, hi, right, depth + 1)

    return recurse(a, b, gl(a, b), 0)


@dataclass(frozen=True)
class Ellipse(BoundaryCurve):
    """Axis-aligned ellipse with semi-axes a (x) and b (y)."""

    center: tuple
    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(map(float, self.center)))
        if self.a <= 0.0 or self.b <= 0.0:
            raise GeometryError("ellipse semi-axes must be positive")

    def _c(self):
        return np.asarray(self.center)

    def area(self):
        return math.pi * self.a * self.b

    def perimeter(self):
        a, b = self.a, self.b
        if a == b:
            return 2.0 * math.pi * a
        speed = lambda t: np.sqrt((a * np.sin(t)) ** 2 + (b * np.cos(t)) ** 2)
        return 4.0 * _adaptive_gauss_legendre(speed, 0.0, math.pi / 2.0)

    def reference_point(self):
        return self._c()

    def contains(self, points, tol=0.0):
        p = np.atleast_2d(np.asarray(points, dtype=float)) - self._c()
        r = np.hypot(p[:, 0] / self.a, p[:, 1] / self.b)
        # tol is a length; convert through the smaller axis (conservative)
        inside = r <= 1.0 + tol / min(self.a, self.b)
        return inside if inside.size > 1 else bool(inside[0])

    def distance(self, points):
        """Foot-point distance by Newton's method on Eberly's secular equation
        (Geometric Tools, 2013), folded into the first quadrant with e0 >= e1.

        With c = e0^2 - e1^2 the foot point is (e0^2 y0 / (tau + c), e1^2 y1 /
        tau), where tau > 0, Eberly's t shifted by e1^2 so that near-axis
        points keep their digits, solves F(tau) = (e0 y0 / (tau + c))^2 +
        (e1 y1 / tau)^2 = 1.  F is convex and decreasing, >= 1 at max(e1 y1,
        e0 y0 - c) and <= 1 at hypot(e0 y0, e1 y1), so Newton's iterates rise
        monotonically to the root under that cap.  Axis points (an offset
        from the major axis that underflows counts as zero) are closed-form.
        """
        q = np.abs(np.atleast_2d(np.asarray(points, dtype=float)) - self._c())
        if self.a >= self.b:
            (e0, e1), (y0, y1) = (self.a, self.b), q.T
        else:
            (e0, e1), (y1, y0) = (self.b, self.a), q.T
        c = (e0 - e1) * (e0 + e1)
        z0, z1 = e0 * y0, e1 * y1
        out = np.empty(len(q))
        minor = y0 == 0.0
        major = ~minor & (z1 < np.finfo(float).tiny)
        evolute = major & (z0 < c)
        out[minor] = np.abs(y1[minor] - e1)
        out[evolute] = e1 * np.sqrt(1.0 - y0[evolute] ** 2 / c)
        out[major & ~evolute] = np.abs(y0[major & ~evolute] - e0)

        free = ~(minor | major)
        y0, y1, z0, z1 = y0[free], y1[free], z0[free], z1[free]
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
                break
        else:
            raise NumericalError(
                f"ellipse foot-point Newton iteration did not settle in "
                f"{FOOT_POINT_ITERATIONS} steps at {len(todo)} points"
            )
        out[free] = np.abs(tau - e1 * e1) * np.hypot(y0 / (tau + c), y1 / tau)
        return out

    def ray_length(self, origin, direction):
        o = _as_point(origin) - self._c()
        u, single = _as_directions(direction)
        os = np.array([o[0] / self.a, o[1] / self.b])
        cc = os @ os - 1.0
        if not cc < 0.0:
            raise StarShapeError("ray origin is outside the ellipse")
        usx, usy = u[:, 0] / self.a, u[:, 1] / self.b
        aa = usx * usx + usy * usy
        bb = os[0] * usx + os[1] * usy
        t = (-bb + np.sqrt(bb * bb - aa * cc)) / aa
        return float(t[0]) if single else t

    def sample(self, n):
        t = 2.0 * np.pi * np.arange(n) / n
        return self._c() + np.column_stack([self.a * np.cos(t), self.b * np.sin(t)])

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

    def scaled(self, factor, about=None):
        c = self._c() if about is None else _as_point(about) + factor * (self._c() - _as_point(about))
        return Ellipse(tuple(c), self.a * factor, self.b * factor)

    def spec_string(self):
        return f"ellipse {self.center[0]:.17g} {self.center[1]:.17g} {self.a:.17g} {self.b:.17g}"


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
        return self.polygon.distance_to_boundary(points)

    def ray_length(self, origin, direction):
        """Nearest edge crossing along each ray; crossings within
        1e-9 * scale of each other (at a vertex) count as one."""
        u, single = _as_directions(direction)
        v = self.polygon.vertices
        e = np.roll(v, -1, axis=0) - v
        dv = v - _as_point(origin)
        t_num = dv[:, 0] * e[:, 1] - dv[:, 1] * e[:, 0]
        scale = self.scale
        out = np.empty(len(u))
        step = max(1, RAY_BLOCK // len(v))
        for start in range(0, len(u), step):
            ux, uy = u[start : start + step, :1], u[start : start + step, 1:]
            denom = ux * e[:, 1] - uy * e[:, 0]
            with np.errstate(divide="ignore", invalid="ignore"):
                t = t_num / denom
                s = (dv[:, 0] * uy - dv[:, 1] * ux) / denom
            hit = (np.abs(denom) >= 1e-300) & (t > 1e-12 * scale)
            hit &= (s >= -1e-12) & (s <= 1.0 + 1e-12)
            first = np.min(np.where(hit, t, np.inf), axis=1)
            last = np.max(np.where(hit, t, -np.inf), axis=1)
            if not np.all(np.isfinite(first)):
                raise StarShapeError("ray misses the polygon")
            if np.any(last - first > 1e-9 * scale):
                raise StarShapeError("ray crosses the polygon more than once")
            out[start : start + step] = first
        return float(out[0]) if single else out

    def sample(self, n):
        return self.polygon.sample_boundary(n)

    def outward_normal(self, points):
        n, _ = self.polygon.edge_normals_offsets()
        return n[self.polygon.nearest_edge(points)[1]]

    @property
    def scale(self):
        return self.polygon.scale

    def translated(self, vector):
        return PolygonCurve(ConvexPolygon(self.polygon.vertices + _as_point(vector)))

    def scaled(self, factor, about=None):
        about = self.polygon.centroid if about is None else _as_point(about)
        return PolygonCurve(ConvexPolygon(about + factor * (self.polygon.vertices - about)))

    def spec_string(self):
        coords = " ".join(f"{c:.17g}" for c in self.polygon.vertices.ravel())
        return f"polygon {coords}"


def curve_measures(curve: BoundaryCurve):
    """(area, perimeter) of the region enclosed by a boundary curve."""
    return curve.area(), curve.perimeter()


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
        if self.dim < 2:
            raise GeometryError("shell dimension must be >= 2")
        if not 0.0 < self.r_inner < self.r_outer:
            raise GeometryError("need 0 < r_inner < r_outer")

    @property
    def width(self) -> float:
        return self.r_outer - self.r_inner

    @property
    def volume(self) -> float:
        wn = unit_ball_volume(self.dim)
        return wn * (self.r_outer**self.dim - self.r_inner**self.dim)


@dataclass(frozen=True)
class AnnularDomain:
    """Region between a convex outer curve and a convex hole inside it.

    The center is the star-shape reference used for meshing; it must lie
    strictly inside the hole.  Compact containment of the hole is checked
    by dense boundary sampling.
    """

    outer: BoundaryCurve
    inner: BoundaryCurve
    center: np.ndarray = None

    def __post_init__(self):
        center = self.inner.reference_point() if self.center is None else _as_point(self.center)
        center = np.asarray(center, dtype=float)
        center.setflags(write=False)
        object.__setattr__(self, "center", center)
        if not self.inner.contains(center, tol=-1e-12 * self.inner.scale):
            raise GeometryError("center must lie strictly inside the hole")
        pts = self.inner.sample(CONTAINMENT_SAMPLES)
        if not np.all(self.outer.contains(pts, tol=0.0)):
            raise ContainmentError("hole is not contained in the outer region")
        gap = float(np.min(self.outer.distance(pts)))
        if gap <= CONTAINMENT_REL_GAP * self.outer.scale:
            raise ContainmentError(f"hole touches the outer boundary (gap {gap:.3e})")

    @property
    def area(self) -> float:
        return self.outer.area() - self.inner.area()

    def contains(self, points, tol: float = 0.0):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        in_outer = np.atleast_1d(self.outer.contains(p, tol=tol))
        in_hole = np.atleast_1d(self.inner.contains(p, tol=-tol))
        mask = in_outer & ~in_hole
        return mask if mask.size > 1 else bool(mask[0])


def distance_to_boundary(point, domain: AnnularDomain, side: str) -> float:
    """Distance from a closure point of the annulus to one boundary part."""
    p = _as_point(point)
    tol = 1e-9 * domain.outer.scale
    if not domain.outer.contains(p, tol=tol):
        raise DomainError("point lies outside the outer region")
    if domain.inner.contains(p, tol=-tol) and domain.inner.distance(p)[0] > tol:
        raise DomainError("point lies inside the hole")
    if side == "outer":
        return float(domain.outer.distance(p)[0])
    if side == "inner":
        return float(domain.inner.distance(p)[0])
    raise GeometryError(f"side must be 'outer' or 'inner', got {side!r}")


def isoperimetric_deficit(curve: BoundaryCurve) -> float:
    """P^2 - 4 pi |K|; zero exactly for disks."""
    a, p = curve_measures(curve)
    return p * p - 4.0 * math.pi * a


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


def scale_hole_to_class_s(outer: BoundaryCurve, hole_shape: BoundaryCurve, center=None):
    """Scale factor making the hole's isoperimetric deficit match the outer's.

    Deficits scale with the square of the dilation factor, so the matching
    scale is sqrt(deficit_outer / deficit_hole).  The scaled hole is
    recentered at the outer body's natural center and compact containment
    is verified.  When both deficits vanish (disk in disk) every scale with
    containment works and the feasible open interval (0, s_max) is
    returned instead of a single factor.
    """
    d_out = isoperimetric_deficit(outer)
    d_hole = isoperimetric_deficit(hole_shape)
    scale2 = outer.scale**2
    zero_out = abs(d_out) <= 1e-9 * scale2
    zero_hole = abs(d_hole) <= 1e-9 * hole_shape.scale**2
    if center is None:
        if isinstance(outer, PolygonCurve):
            _, center = inradius(outer.polygon, return_center=True)
        else:
            center = outer.reference_point()
    center = _as_point(center)

    def recentered(curve, s):
        scaled = curve.scaled(s)
        return scaled.translated(center - scaled.reference_point())

    if zero_hole and zero_out:
        # any concentric disk-in-disk qualifies; report the feasible range
        lo, hi = 0.0, 1.0
        while _fits(outer, recentered(hole_shape, hi)):
            hi *= 2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if _fits(outer, recentered(hole_shape, mid)):
                lo = mid
            else:
                hi = mid
        return (0.0, lo)
    if zero_hole:
        raise InfeasibleError("hole has zero deficit but the outer body does not")
    if zero_out and not zero_hole:
        raise InfeasibleError("outer body has zero deficit but the hole does not")
    s = math.sqrt(d_out / d_hole)
    candidate = recentered(hole_shape, s)
    if not _fits(outer, candidate):
        raise ContainmentError(f"scaled hole (factor {s:.6g}) does not fit in the outer body")
    return s


def _fits(outer: BoundaryCurve, hole: BoundaryCurve) -> bool:
    pts = hole.sample(CONTAINMENT_SAMPLES // 4)
    if not np.all(outer.contains(pts)):
        return False
    return float(np.min(outer.distance(pts))) > CONTAINMENT_REL_GAP * outer.scale


def disk_intersection_area(c1, r1: float, c2, r2: float) -> float:
    """Area of the intersection of two disks (lens closed form)."""
    d = float(np.hypot(*(_as_point(c1) - _as_point(c2))))
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        r = min(r1, r2)
        return math.pi * r * r
    a1 = math.acos((d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1))
    a2 = math.acos((d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2))
    return r1 * r1 * (a1 - 0.5 * math.sin(2.0 * a1)) + r2 * r2 * (a2 - 0.5 * math.sin(2.0 * a2))


def outer_parallel_points(curve: BoundaryCurve, delta: float, n: int) -> np.ndarray:
    """n boundary points of the outer parallel body at distance delta.

    Uses support points: the parallel body's support point in direction u
    is the curve's support point plus delta u, which traces offset edges
    and corner arcs exactly in the polygon case.
    """
    if delta < 0.0:
        raise GeometryError("offset must be nonnegative")
    theta = 2.0 * np.pi * np.arange(n) / n
    u = np.column_stack([np.cos(theta), np.sin(theta)])
    if isinstance(curve, Circle):
        return np.asarray(curve.center) + (curve.radius + delta) * u
    if isinstance(curve, Ellipse):
        psi = np.arctan2(curve.b * u[:, 1], curve.a * u[:, 0])
        base = np.asarray(curve.center) + np.column_stack(
            [curve.a * np.cos(psi), curve.b * np.sin(psi)]
        )
        return base + delta * u
    if isinstance(curve, PolygonCurve):
        verts = curve.polygon.vertices
        support = verts[np.argmax(u @ verts.T, axis=1)]
        return support + delta * u
    raise GeometryError(f"unsupported curve kind {type(curve).__name__}")
