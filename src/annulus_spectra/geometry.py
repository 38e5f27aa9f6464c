"""Planar convex-body computations and annular domain bookkeeping.

The 2D machinery (areas, perimeters, quermassintegrals, inradius, outer
parallel bodies, boundary distances, and the intersection area of two
convex polygons that share an inner point) works on convex polygons and on
the two boundary-curve kinds used throughout the package: axis-aligned
ellipses, of which a circle is the a = b case, and convex polygons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection, QhullError
from scipy.special import ellipe

from .errors import (
    ContainmentError,
    CurvatureUnavailableError,
    GeometryError,
    InfeasibleError,
    NumericalError,
    StarShapeError,
)

# Collinearity slack for convexity tests, scaled by the squared body size.
CONVEXITY_TOL = 1e-12
# Boundary sampling density used for containment / gap checks.
CONTAINMENT_SAMPLES = 4096
CONTAINMENT_REL_GAP = 1e-9
# Class-S membership: |class_s_data residual| <= CLASS_S_RTOL * |Omega|.
CLASS_S_RTOL = 1e-8
# Newton steps allowed to the ellipse foot-point solve; points near the
# evolute's cusps, the slowest, settle in under 50.
FOOT_POINT_ITERATIONS = 100


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _as_point(p) -> np.ndarray:
    q = np.asarray(p, dtype=float).reshape(2)
    return q


def _finite_center(center) -> tuple:
    c = tuple(map(float, center))
    if not all(map(math.isfinite, c)):
        raise GeometryError("curve center must be finite")
    return c


def _as_directions(direction):
    """(m, 2) direction rows, and whether a single direction was given."""
    u = np.asarray(direction, dtype=float)
    return u.reshape(-1, 2), u.ndim == 1


def _cross(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise z component of p x q."""
    return p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]


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

    def margins(self, points) -> np.ndarray:
        """(m, edges) signed margins b_e - n_e.x, nonnegative inside."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        n, b = self.edge_normals_offsets()
        return b[None, :] - p @ n.T

    def contains(self, points, tol: float = 0.0):
        """Boolean mask of points inside (signed margin >= -tol)."""
        inside = np.all(self.margins(points) >= -tol, axis=1)
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


def convex_intersection_area(a: ConvexPolygon, b: ConvexPolygon, center) -> float:
    """Area of the intersection of two convex polygons that both contain
    center strictly (GeometryError otherwise).

    The intersection is that of both polygons' edge halfspaces
    {n_e . x <= b_e}, found by Qhull (scipy's HalfspaceIntersection) about
    center; its vertices, sorted by angle about center, give the area.
    """
    c = _as_point(center)
    halfspaces = []
    for poly in (a, b):
        v = poly.vertices - c
        # twice the area of (center, v_k, v_k+1), the edge length times the
        # margin of center: positive on every edge iff center is inside
        if not np.all(_cross(v, np.roll(v, -1, axis=0)) > 0.0):
            raise GeometryError("center is not strictly inside both polygons")
        n, h = poly.edge_normals_offsets()
        halfspaces.append(np.column_stack([n, -h]))
    try:
        verts = HalfspaceIntersection(np.vstack(halfspaces), c).intersections - c
    except QhullError as err:
        reason = str(err).splitlines()[0]
        raise GeometryError(f"Qhull cannot intersect the polygons about center: {reason}") from None
    return _shoelace(verts[np.argsort(np.arctan2(verts[:, 1], verts[:, 0]))])


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
    them) or polygon."""

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
        unless the origin is strictly inside.
        """
        raise NotImplementedError

    def sample(self, n: int) -> np.ndarray:
        """n boundary points in the curve's natural parameterization."""
        raise NotImplementedError

    def curvature_at(self, points) -> np.ndarray:
        raise CurvatureUnavailableError("curvature is undefined for this curve")

    def outward_normal(self, points) -> np.ndarray:
        raise NotImplementedError

    def to_polygon(self, n: int) -> ConvexPolygon:
        return ConvexPolygon(self.sample(n))

    def translated(self, vector) -> "BoundaryCurve":
        raise NotImplementedError

    def scaled(self, factor: float) -> "BoundaryCurve":
        """The curve scaled by factor about its centre (a polygon's centroid)."""
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

    def spec_string(self) -> str:
        raise NotImplementedError


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

    def scaled(self, factor):
        return Ellipse(tuple(self._c()), self.a * factor, self.b * factor)

    def spec_string(self):
        return f"ellipse {self.center[0]:.17g} {self.center[1]:.17g} {self.a:.17g} {self.b:.17g}"


class Circle(Ellipse):
    """The ellipse a = b = radius.  Its closed-form distance is ten times
    faster than the foot-point Newton solve, and its ray_length gives t = r
    exactly on rays from the centre, which keeps meshes on circles exact."""

    def __init__(self, center, radius):
        if not 0.0 < radius < math.inf:
            raise GeometryError("circle radius must be positive and finite")
        super().__init__(center, radius, radius)

    @property
    def radius(self) -> float:
        return self.a

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
        faces (u x e > 0), dv running from the origin to each edge's start."""
        u, single = _as_directions(direction)
        v = self.polygon.vertices
        e = np.roll(v, -1, axis=0) - v
        dv = v - _as_point(origin)
        t_num = dv[:, 0] * e[:, 1] - dv[:, 1] * e[:, 0]
        if not np.all(t_num > 0.0):
            raise StarShapeError("ray origin is outside the polygon")
        denom = u[:, :1] * e[:, 1] - u[:, 1:] * e[:, 0]
        t = np.divide(t_num, denom, out=np.full(denom.shape, np.inf), where=denom > 0.0)
        out = np.min(t, axis=1)
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

    @property
    def volume(self) -> float:
        wn = unit_ball_volume(self.dim)
        return wn * (self.r_outer**self.dim - self.r_inner**self.dim)

    @property
    def outer_area(self) -> float:
        """(n-1)-dimensional measure of the outer sphere."""
        return self.dim * unit_ball_volume(self.dim) * self.r_outer ** (self.dim - 1)


@dataclass(frozen=True)
class AnnularDomain:
    """Region between a convex outer curve and a convex hole inside it.

    The center is the star-shape reference used for meshing; it must lie
    strictly inside the hole.  Compact containment of the hole is checked
    by dense boundary sampling, and gap keeps the smallest distance from
    those hole samples to the outer curve.  The domain is immutable, so fem
    keeps its validated meshes in _meshes, keyed by resolution.
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
        pts = self.inner.sample(CONTAINMENT_SAMPLES)
        if isinstance(self.outer, PolygonCurve):
            # inside a convex polygon the distance to the boundary is the
            # smallest edge margin, and a negative margin means outside
            gap = float(np.min(self.outer.polygon.margins(pts)))
        elif np.all(self.outer.contains(pts, tol=0.0)):
            gap = float(np.min(self.outer.distance(pts)))
        else:
            gap = -math.inf
        if gap < 0.0:
            raise ContainmentError("hole is not contained in the outer region")
        if gap <= CONTAINMENT_REL_GAP * self.outer.scale:
            raise ContainmentError(f"hole touches the outer boundary (gap {gap:.3e})")
        object.__setattr__(self, "gap", gap)

    @property
    def area(self) -> float:
        return self.outer.area() - self.inner.area()

    def contains(self, points, tol: float = 0.0):
        p = np.atleast_2d(np.asarray(points, dtype=float))
        in_outer = np.atleast_1d(self.outer.contains(p, tol=tol))
        in_hole = np.atleast_1d(self.inner.contains(p, tol=-tol))
        mask = in_outer & ~in_hole
        return mask if mask.size > 1 else bool(mask[0])


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
        # any disk-in-disk qualifies up to the scale where its gap to the
        # outer circle, R - o - s r, reaches the touching threshold
        r_out, r_hole = 0.5 * outer.scale, 0.5 * hole_shape.scale
        offset = float(np.hypot(*(center - outer.reference_point())))
        s_max = (r_out * (1.0 - 2.0 * CONTAINMENT_REL_GAP) - offset) / r_hole
        if not (s_max > 0.0 and _fits(outer, recentered(hole_shape, 0.5 * s_max))):
            raise ContainmentError("no scaled hole fits in the outer body at this center")
        return (0.0, s_max)
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
    try:
        AnnularDomain(outer, hole)
    except ContainmentError:
        return False
    return True


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
