"""2D P1 finite elements for the Robin-Dirichlet eigenproblem.

Star-shaped annular domains are meshed by blending the two boundary
parameterizations along rays through the domain center, so every node sits
exactly on a ray and boundary nodes sit exactly on the curves.  Assembly
produces exact per-triangle P1 stiffness, consistent mass and exact
two-point Robin edge mass; the inner (Dirichlet) ring is eliminated and the
free nodes are numbered in a nested-dissection order of the rings x rays
grid (George, SIAM J. Numer. Anal. 10, 1973), whose sparsity pattern each
mesh only fills (Cuvelier, Japhet & Scarella, BIT 56, 2016).  The smallest
eigenpair of the SPD pencil is proved to be the smallest: A - sigma M is
factored by sparse LU in that order without pivoting, with sigma the Rayleigh quotient
of the eigenvector one level coarser, and its negative pivots count the
eigenvalues below sigma (Sylvester; Ericsson & Ruhe, Math. Comp. 35,
1980).  Block inverse iteration on that many vectors then certifies
lambda_1 by Kahan's residual bound.  The coarse levels are solved the same
way down to a dense floor and memoised on their meshes.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import eigh, qr
from scipy.sparse.linalg import splu

from .errors import GeometryError, RangeError, SolverError, StarShapeError
from .geometry import AnnularDomain

RESIDUAL_FACTOR = 1e-10
# pencils with at most this many free nodes are solved by dense eigh
DENSE_FREE_NODES = 300
# the dense floor's shift, as a fraction of lambda_2 - lambda_1 above lambda_1
_FLOOR_SHIFT = 0.25
# pivots this small against the largest one leave the inertia count unsure
_TINY_PIVOT = 1e-13
# relative step that moves a shift off an eigenvalue
_SHIFT_STEP = 1e-6
_MAX_STEPS = 60
_EPS = float(np.finfo(float).eps)
_MAX_BLOCK = 64
# largest grid block the nested dissection leaves uncut
_ND_LEAF = 16
# a quad's corners a, b, c, d as (ring, ray) steps from a, and its two
# triangles split along ac or bd; rays turn counterclockwise and rings grow
# outward, so a, b, c, d run clockwise and a triangle takes them in reverse
_CORNERS = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.int32)
_SPLITS = np.array([[[0, 2, 1], [0, 3, 2]], [[0, 3, 1], [1, 3, 2]]])


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation of an annular domain.

    boundary edges are stored per ring as (n, 2) index arrays; node ids on
    ring i of the structured grid are i * n_a + k.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    inner_edges: np.ndarray
    outer_edges: np.ndarray
    resolution: tuple
    # (K_ff, M_ff, B_ff, free_map) per outer condition, filled by _free_forms
    _free: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # unseeded eigenpairs per beta as (lam, u, stats), filled by solve_on_mesh
    _eigenpairs: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # set by mesh_annular: a weak reference to the domain (a strong one
    # would make a domain -> mesh -> domain cycle) and its (outer, inner,
    # center), from which a collected domain is rebuilt
    _domain: object = field(default=None, init=False, repr=False, compare=False)
    _curves: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("nodes", "triangles", "inner_edges", "outer_edges"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def scale(self) -> float:
        return float(np.max(np.ptp(self.nodes, axis=0)))

    def triangle_areas(self) -> np.ndarray:
        p, t = self.nodes, self.triangles
        d1 = p[t[:, 1]] - p[t[:, 0]]
        d2 = p[t[:, 2]] - p[t[:, 0]]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    @property
    def area(self) -> float:
        return float(np.sum(self.triangle_areas()))

    def max_edge_length(self) -> float:
        p, t = self.nodes, self.triangles
        h = 0.0
        for a, b in ((0, 1), (1, 2), (2, 0)):
            e = p[t[:, a]] - p[t[:, b]]
            h = max(h, float(np.max(np.hypot(e[:, 0], e[:, 1]))))
        return h

    @property
    def forms(self):
        """K, M and B on every node, in natural order; filled on first read."""
        return self._free_forms(None)[:3]

    @functools.cached_property
    def _split(self) -> np.ndarray:
        """Each quad's split, 0 along ac and 1 along bd, read off the
        triangles; GeometryError unless they and the boundary edges are
        the rings x rays grid's, in its order."""
        n_r, n_a = self.resolution
        if len(self.nodes) != (n_r + 1) * n_a:
            raise GeometryError("mesh is not a structured rings x rays grid")
        _, grid, inner, outer = _grid(n_r, n_a)
        if self.triangles.shape != (2 * n_r * n_a, 3):
            raise GeometryError("mesh is not conforming")
        t = self.triangles.reshape(-1, 2, 3)
        # the first triangle's second corner is c when split along ac
        split = (t[:, 0, 1] != grid[0, :, 0, 1]).astype(np.intp)
        if not np.array_equal(t, grid[split, np.arange(len(t))]):
            raise GeometryError("mesh is not conforming")
        if not (np.array_equal(self.inner_edges, inner) and np.array_equal(self.outer_edges, outer)):
            raise GeometryError("boundary edge bookkeeping is inconsistent")
        return split

    def _free_forms(self, dirichlet_outer):
        """(K_ff, M_ff, B_ff, free_map) on _pattern's free nodes (None: all),
        each one bincount in triangle order into the pattern the three share
        (a quad's unused diagonal is a stored zero); once per condition."""
        if dirichlet_outer not in self._free:
            indptr, indices, slots, edge_slots, free_map = _pattern(*self.resolution, dirichlet_outer)
            where = slots[self._split, np.arange(len(self._split))]
            stiffness, mass = _element_matrices(self)
            p, e = self.nodes, self.outer_edges
            edge_mass = np.hypot(*(p[e[:, 1]] - p[e[:, 0]]).T)[:, None, None] / [[3.0, 6.0], [6.0, 3.0]]
            nnz, shape = len(indices), (len(free_map), len(free_map))

            def block(at, values):
                data = np.bincount(at.ravel(), values.ravel(), minlength=nnz + 1)[:nnz]
                data.setflags(write=False)
                return sparse.csr_matrix((data, indices, indptr), shape=shape)

            blocks = block(where, stiffness), block(where, mass), block(edge_slots, edge_mass)
            self._free[dirichlet_outer] = (*blocks, free_map)
        return self._free[dirichlet_outer]


@functools.lru_cache(maxsize=32)
def _grid(n_r: int, n_a: int):
    """(corners, triangles, inner_edges, outer_edges) of the rings x rays
    grid, node (i, k) = i * n_a + k, read-only: the ids a, b, c, d of each
    quad, ring-major, and triangles[s, quad] its two under _SPLITS[s]."""
    i, k = np.divmod(np.arange(n_r * n_a), n_a)
    a, b = i * n_a + k, i * n_a + (k + 1) % n_a
    corners = np.array([a, b, b + n_a, a + n_a])
    triangles = corners[_SPLITS].transpose(0, 3, 1, 2)
    ring = np.column_stack([np.arange(n_a), (np.arange(n_a) + 1) % n_a])
    out = (corners, triangles, ring, ring + n_r * n_a)
    for arr in out:
        arr.setflags(write=False)
    return out


def _validate_mesh(mesh: Mesh, domain: AnnularDomain) -> None:
    scale = mesh.scale
    if np.any(mesh.triangle_areas() <= 1e-14 * scale**2):
        raise GeometryError("mesh contains degenerate or inverted triangles")
    mesh._split  # conformity, read off the grid
    n_a = mesh.resolution[1]
    tol = 1e-9 * scale
    if np.max(domain.inner.distance(mesh.nodes[:n_a])) > tol:
        raise GeometryError("inner boundary nodes are off the curve")
    if np.max(domain.outer.distance(mesh.nodes[-n_a:])) > tol:
        raise GeometryError("outer boundary nodes are off the curve")


def mesh_annular(domain: AnnularDomain, n_r: int, n_a: int) -> Mesh:
    """Structured triangulation with n_r radial layers and n_a rays.

    Each boundary curve is cast along all n_a ray directions in one
    batched ray_length call.  Nodes interpolate linearly between the two
    boundary crossings of each ray; quads are split along their shorter
    diagonal, two triangles per quad in ring-major, then ray, order.  The
    validated mesh is memoised on the (immutable) domain per resolution,
    so later calls return the same Mesh with its cached forms.
    """
    if n_r < 2:
        raise RangeError("need at least 2 radial layers")
    if n_a < 8:
        raise RangeError("need at least 8 angular rays")
    if (n_r, n_a) in domain._meshes:
        return domain._meshes[n_r, n_a]
    center = domain.center
    theta = 2.0 * np.pi * np.arange(n_a) / n_a
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    try:
        t_in = domain.inner.ray_length(center, dirs)
        t_out = domain.outer.ray_length(center, dirs)
    except StarShapeError as err:
        raise StarShapeError(f"domain is not star shaped about its center: {err}") from err
    if np.any(t_out <= t_in):
        raise StarShapeError("boundary rays cross in the wrong order")
    p_in = center + t_in[:, None] * dirs
    p_out = center + t_out[:, None] * dirs

    frac = np.arange(n_r + 1)[:, None, None] / n_r
    nodes = (p_in[None, :, :] * (1.0 - frac) + p_out[None, :, :] * frac).reshape(-1, 2)

    (a, b, c, d), grid, inner_edges, outer_edges = _grid(n_r, n_a)
    d_ac = np.hypot(*(nodes[a] - nodes[c]).T)
    d_bd = np.hypot(*(nodes[b] - nodes[d]).T)
    # near-ties split uniformly so symmetric domains get
    # rotationally symmetric triangulations
    split_ac = (d_ac <= d_bd * (1.0 + 1e-9))[:, None, None]
    triangles = np.where(split_ac, grid[0], grid[1]).reshape(-1, 3)
    mesh = Mesh(nodes, triangles, inner_edges, outer_edges, (n_r, n_a))
    _validate_mesh(mesh, domain)
    object.__setattr__(mesh, "_domain", weakref.ref(domain))
    object.__setattr__(mesh, "_curves", (domain.outer, domain.inner, domain.center))
    domain._meshes[n_r, n_a] = mesh
    return mesh


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _pattern(n_r: int, n_a: int, dirichlet_outer):
    """(indptr, indices, slots, edge_slots, free_map), read-only, tables int32:
    row r of the CSR pattern holds the free ones among the 3 x 3 grid
    neighbours of node free_map[r], ascending; slots[s, q, t, i, j] is the
    slot of entry (i, j) of triangle t of quad q split along s (_grid),
    edge_slots[k, i, j] that of outer edge k, nnz that of constrained ones."""
    corners, _, _, outer_edges = _grid(n_r, n_a)
    if dirichlet_outer is None:
        free_map = np.arange((n_r + 1) * n_a)
    else:
        # ring 0 is the hole; ring n_r is free unless dirichlet_outer
        free_map = n_a + _nested_dissection(n_r - int(dirichlet_outer), n_a)
    # free index of node (i, k) at [i + 1, k + 1], -1 if not free or off the grid
    number = np.full((n_r + 3, n_a + 2), -1, dtype=np.int32)
    number[1:-1, 1:-1].flat[free_map] = np.arange(len(free_map))
    number[:, 0], number[:, -1] = number[:, -2], number[:, 1]
    # neighbour o = 3 (di + 1) + (dk + 1) of each row, placed with the others
    di, dk = np.divmod(np.arange(9), 3)
    i, k = np.divmod(free_map[:, None], n_a)
    cols = number[i + di, k + dk]
    order = np.argsort(np.where(cols >= 0, cols, len(free_map)), axis=1)
    ranked = np.take_along_axis(cols, order, axis=1)
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(cols >= 0, axis=1))])
    slot = np.full((number.size, 9), indptr[-1], dtype=np.int32)
    slot[free_map] = np.where(cols >= 0, indptr[:-1, None] + np.argsort(order, axis=1), indptr[-1])
    # entry (u, v) of a triangle is neighbour (corner v - corner u) of u
    step = _CORNERS[_SPLITS][..., None, :, :] - _CORNERS[_SPLITS][..., :, None, :]
    nodes = corners.astype(np.int32)[_SPLITS].transpose(0, 3, 1, 2)[..., :, None]
    slots = slot.ravel()[9 * nodes + (3 * step[..., 0] + step[..., 1] + 4)[:, None]]
    edge_slots = slot.ravel()[9 * outer_edges[:, :, None] + [[4, 5], [3, 4]]]
    out = (indptr.astype(np.int32), ranked[ranked >= 0], slots, edge_slots, free_map)
    for arr in out:
        arr.setflags(write=False)
    return out


def _element_matrices(mesh: Mesh):
    """Each triangle's exact P1 stiffness and consistent mass, (triangles, 3, 3)."""
    x, y = mesh.nodes[mesh.triangles].transpose(2, 0, 1)
    # gradient of the hat function at corner i: (b_i, c_i) / (2 area)
    ahead, behind = [1, 2, 0], [2, 0, 1]
    b, c = y[:, ahead] - y[:, behind], x[:, behind] - x[:, ahead]
    area = 0.5 * (c[:, 2] * b[:, 1] - b[:, 2] * c[:, 1])
    stiffness = b[:, :, None] * b[:, None, :]
    stiffness += c[:, :, None] * c[:, None, :]
    stiffness /= (4.0 * area)[:, None, None]
    return stiffness, (area / 12.0)[:, None, None] * (1.0 + np.eye(3))


@functools.lru_cache(maxsize=32)
def _nested_dissection(rows: int, n_a: int) -> np.ndarray:
    """Nested-dissection order of a rows x n_a grid, periodic in the ray.

    Grid point (i, k) has index i * n_a + k; P1 couplings join only
    neighbouring rows and rays, so one row or one ray separates the grid.
    Rays 0 and n_a // 2 cut the cylinder into two rectangles; each
    rectangle is cut across its longer side until it has at most _ND_LEAF
    points, and every separator comes after the two parts it splits.
    """
    grid = np.arange(rows * n_a).reshape(rows, n_a)
    parts = []

    def cut(block):
        r, c = block.shape
        if block.size <= _ND_LEAF:
            parts.append(block.ravel())
        elif c >= r:
            cut(block[:, : c // 2])
            cut(block[:, c // 2 + 1 :])
            parts.append(block[:, c // 2])
        else:
            cut(block[: r // 2])
            cut(block[r // 2 + 1 :])
            parts.append(block[r // 2])

    half = n_a // 2
    cut(grid[:, 1:half])
    cut(grid[:, half + 1 :])
    order = np.concatenate(parts + [grid[:, 0], grid[:, half]])
    order.setflags(write=False)
    return order


def assemble(mesh: Mesh, beta: float, dirichlet_outer: bool = False):
    """Robin-Dirichlet system (A, M, free_map) with constrained rows removed.

    A = K_ff + beta B_ff from the blocks of Mesh._free_forms; the inner
    ring is always eliminated and the outer ring too when dirichlet_outer
    is set (the beta = inf emulation, A = K_ff, read-only).  Only A's
    values are formed per call, on the blocks' shared pattern; M and
    free_map are the mesh's cached, read-only blocks.  The pattern stores
    each quad's unused diagonal as a zero, which A - sigma M drops, so the
    factored pattern is that of M's positive entries.
    """
    if not dirichlet_outer and not 0.0 <= beta < math.inf:
        raise RangeError("beta must be finite and nonnegative (use dirichlet_outer for inf)")
    k_ff, m_ff, b_ff, free_map = mesh._free_forms(dirichlet_outer)
    if dirichlet_outer:
        return k_ff, m_ff, free_map
    a_data = k_ff.data + beta * b_ff.data
    return sparse.csr_matrix((a_data, k_ff.indices, k_ff.indptr), shape=k_ff.shape), m_ff, free_map


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------


def _shifted_factor(a: sparse.csr_matrix, m: sparse.csr_matrix, sigma: float):
    """(lu, p): unpivoted LU of A - sigma M and its number of negative pivots.

    The factorization keeps assemble's nested-dissection order and does
    not pivot, so A - sigma M = L D L' with D the diagonal of U, and by
    Sylvester's law of inertia p is the number of eigenvalues of the
    pencil below sigma.  lu is None when a pivot vanishes to round-off,
    where the count cannot be trusted.
    """
    try:
        lu = splu(
            (a - sigma * m).tocsc(),
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError:  # an exactly zero pivot
        return None, 0
    if not np.array_equal(lu.perm_r, np.arange(a.shape[0])):
        raise SolverError("SuperLU pivoted rows, so its pivots count no inertia")
    pivots = lu.U.diagonal()
    if np.min(np.abs(pivots)) <= _TINY_PIVOT * np.max(np.abs(pivots)):
        return None, 0
    return lu, int(np.count_nonzero(pivots < 0.0))


def _inverse_iteration(a, m, lu, shift: float, x: np.ndarray, target: float = None):
    """Block inverse iteration with Rayleigh-Ritz under lu = A - shift M.

    Returns (ritz, x, bound, steps, settled): the Ritz values (ascending),
    their M-orthonormal vectors, the block residual bound
    2 sqrt(sum r' diag(M)^-1 r) on ||M^(-1/2) R|| (P1 consistent mass has
    M >= diag(M) / 2), the number of steps, and whether the iteration
    settled.  It settles when ritz[-1] + bound < shift and
    bound^2 / (shift - ritz[-1]) is below one rounding of ritz[0]: with
    every other eigenvalue at or above the shift, as a count of p there
    says, that quadratic residual bound caps ritz[0] - lambda_1, and the
    first vector's residual norm is at most target, if given.  It stops
    unsettled when the bound stops falling or after _MAX_STEPS steps.
    """
    weight = 1.0 / m.diagonal()[:, None]
    best = None
    for steps in range(1, _MAX_STEPS + 1):
        y = qr(lu.solve(m @ x), mode="economic", check_finite=False)[0]
        ay, my = a @ y, m @ y
        ritz, q = eigh(y.T @ ay, y.T @ my, check_finite=False)
        x = y @ q
        r = ay @ q - (my @ q) * ritz
        bound = 2.0 * math.sqrt(float(np.sum(r * r * weight)))
        if best is not None and bound >= best[2]:
            break
        best = (ritz, x, bound)
        gap = shift - ritz[-1]
        if gap > bound and bound * bound <= _EPS * abs(ritz[0]) * gap:
            if target is None or np.linalg.norm(r[:, 0]) <= target:
                return (*best, steps, True)
    return (*best, steps, False)


def _quotient(a, m, x: np.ndarray):
    """(rho, y, r): x M-normalised with a nonnegative sum, its Rayleigh
    quotient and its residual A y - rho M y."""
    y = x / math.sqrt(float(x @ (m @ x)))
    y = -y if float(np.sum(y)) < 0.0 else y
    # y'Ay in extended precision: summed in doubles, the cancellation inside
    # A y leaves about 1e-14 relative noise; y'My sums nonnegative terms
    yl = y.astype(np.longdouble)
    rho = float(np.dot(a.data * np.repeat(yl, np.diff(a.indptr)), yl[a.indices]) / float(y @ (m @ y)))
    return rho, y, a @ y - rho * (m @ y)


def smallest_eigenpair(a: sparse.csr_matrix, m: sparse.csr_matrix, seed=None, angles=None):
    """Smallest eigenpair of the SPD pencil (A, M), certified by inertia.

    The Rayleigh quotient sigma of seed (a first-eigenvector estimate)
    bounds lambda_1 from above; A - sigma M counts the p eigenvalues below
    it (_shifted_factor; sigma moves up by _SHIFT_STEP off a vanishing
    pivot or a round-off exact seed).  Block inverse iteration runs on the
    seed times 1, cos k theta and sin k theta (theta = angles, the nodes'
    ray angles), p vectors.  By Kahan's theorem (Parlett, The Symmetric
    Eigenvalue Problem, ch. 11) the Ritz values lie within the block
    residual bound of p distinct eigenvalues, so with all of them plus
    the bound below sigma the smallest is lambda_1.  If the iteration does
    not settle, A - tau M just above the smallest Ritz value (>= lambda_1)
    must count exactly one eigenvalue and one-vector iteration there must
    certify against tau, or SolverError is raised; so is a residual above
    max(RESIDUAL_FACTOR, eps ||A||_1) ||y|| after more steps.  Without a seed the
    pencil may have DENSE_FREE_NODES rows at most: dense eigh gives the
    seed, and sigma lies _FLOOR_SHIFT of lambda_2 - lambda_1 above
    lambda_1, where A - sigma M is safely regular.

    The eigenvector is M-normalised and oriented to a nonnegative sum; the
    eigenvalue is its Rayleigh quotient.  stats carry sigma,
    negative_pivots (p), factorizations, outer_iterations (LU solves, one
    per right-hand side), factor_nnz (SuperLU's nonzeros of L + U at
    sigma), the residual norm and error_bound, the certified bound on
    |rho - lambda_1|.
    """
    n = a.shape[0]
    if seed is None:
        if n > DENSE_FREE_NODES:
            raise SolverError(f"a pencil of {n} rows needs a seed vector")
        lams, vecs = eigh(a.toarray(), m.toarray(), subset_by_index=[0, 1])
        seed = vecs[:, 0]
        sigma = float(lams[0] + _FLOOR_SHIFT * (lams[1] - lams[0]))
    else:
        sigma = float(seed @ (a @ seed)) / float(seed @ (m @ seed))
    factorizations = 0
    for _ in range(3):
        lu, p = _shifted_factor(a, m, sigma)
        factorizations += 1
        if p > 0:
            break
        sigma += _SHIFT_STEP * abs(sigma)
    else:
        raise SolverError(f"no reliable factorization near the seed's quotient {sigma:.6g}")
    if p > _MAX_BLOCK:
        raise SolverError(f"{p} eigenvalues lie below the seed's quotient {sigma:.6g}")
    nnz = int(lu.nnz)

    theta = 2.0 * np.pi * np.arange(n) / n if angles is None else angles
    columns = [seed]
    for k in range(1, p // 2 + 1):
        columns += [seed * np.cos(k * theta), seed * np.sin(k * theta)]
    ritz, x, bound, steps, settled = _inverse_iteration(a, m, lu, sigma, np.column_stack(columns[:p]))
    solves, shift = steps * p, sigma
    if not settled:
        shift = float(ritz[0]) + _SHIFT_STEP * abs(float(ritz[0]))
        lu, count = _shifted_factor(a, m, shift)
        factorizations += 1
        if count != 1:
            raise SolverError(
                f"{count} eigenvalues counted below {shift:.9g}, just above the "
                f"Ritz value {ritz[0]:.9g}: the iteration did not find lambda_1"
            )
        ritz, x, bound, steps, _ = _inverse_iteration(a, m, lu, shift, x[:, :1])
        solves += steps
    rho, y, r = _quotient(a, m, x[:, 0])
    # A y rounds at about eps ||A||_1 ||y||, and ||A|| grows with beta
    allowed = RESIDUAL_FACTOR
    if np.linalg.norm(r) > allowed * np.linalg.norm(y):
        allowed = max(allowed, _EPS * sparse.linalg.norm(a, 1))
    if np.linalg.norm(r) > allowed * np.linalg.norm(y):
        # lambda settled before the vector did: iterate on under the same factor
        target = allowed * np.linalg.norm(x[:, 0])
        ritz, x, bound, steps, _ = _inverse_iteration(a, m, lu, shift, x, target)
        solves += steps * x.shape[1]
        rho, y, r = _quotient(a, m, x[:, 0])
        if np.linalg.norm(r) > allowed * np.linalg.norm(y):
            raise SolverError(f"generalized residual {np.linalg.norm(r):.3e} above tolerance")
    if not ritz[-1] + bound < shift:
        raise SolverError(f"Ritz values {ritz} within {bound:.3e} of the shift {shift:.9g}")

    stats = {
        "outer_iterations": solves,
        "factorizations": factorizations,
        "negative_pivots": p,
        "sigma": sigma,
        "factor_nnz": nnz,
        "residual": float(np.linalg.norm(r)),
        "error_bound": max(bound, 2.0 * math.sqrt(float(r @ (r / m.diagonal())))),
    }
    return rho, y, stats


@dataclass(frozen=True)
class FemEigenResult:
    """Discrete first eigenpair on an annular mesh.

    u is the full nodal vector with exact zeros on eliminated nodes, M-unit
    norm and nonnegative orientation.  stats is smallest_eigenpair's,
    inertia certificate included.
    """

    lam: float
    u: np.ndarray
    mesh: Mesh
    beta: float
    stats: dict

    def __post_init__(self):
        self.u.setflags(write=False)

    def report(self) -> dict:
        n_r, n_a = self.mesh.resolution
        return {
            "lambda_h": self.lam,
            "beta": "inf" if math.isinf(self.beta) else self.beta,
            "resolution": f"{n_r}x{n_a}",
            "nodes": int(len(self.mesh.nodes)),
            "outer_iterations": self.stats["outer_iterations"],
            "factorizations": self.stats["factorizations"],
            "negative_pivots": self.stats["negative_pivots"],
            "factor_nnz": self.stats["factor_nnz"],
            "residual": self.stats["residual"],
        }


def solve_domain(
    domain: AnnularDomain, beta: float, n_r: int, n_a: int, seed: FemEigenResult = None
) -> FemEigenResult:
    """Mesh, assemble and extract the first Robin-Dirichlet eigenpair.

    beta = inf solves the Dirichlet-Dirichlet problem by eliminating both
    rings; beta = 0 is the Neumann closure on the outer ring.  seed is
    passed to solve_on_mesh.
    """
    mesh = mesh_annular(domain, n_r, n_a)
    return solve_on_mesh(mesh, beta, seed)


def solve_on_mesh(mesh: Mesh, beta: float, seed: FemEigenResult = None) -> FemEigenResult:
    """First eigenpair on a mesh, certified by smallest_eigenpair.

    The start vector is seed's eigenvector, a result on the rings x rays
    grid of the same domain at any resolution, interpolated bilinearly in
    ring fraction and ray angle.  Without a seed it is the eigenpair one
    level coarser on the mesh's domain, (max(2, n_r // 2), max(8, n_a // 2)),
    solved the same way down to the dense floor of DENSE_FREE_NODES free
    nodes.  Unseeded eigenpairs are memoised on the mesh per beta (and
    the mesh on its domain per resolution), so a level is solved once,
    whatever order the levels are asked for in.
    """
    if seed is None and beta in mesh._eigenpairs:
        lam, u, stats = mesh._eigenpairs[beta]
        return FemEigenResult(lam=lam, u=u, mesh=mesh, beta=beta, stats=dict(stats))
    dirichlet_outer = math.isinf(beta)
    a, m, free_map = assemble(mesh, 0.0 if dirichlet_outer else beta, dirichlet_outer)
    n_r, n_a = mesh.resolution
    start = seed
    if seed is None and len(free_map) > DENSE_FREE_NODES:
        start = solve_on_mesh(_coarse_mesh(mesh), beta)
    if start is not None:
        start = _interpolated(start, mesh.resolution)[free_map]
    lam, u_free, stats = smallest_eigenpair(a, m, start, (2.0 * np.pi / n_a) * (free_map % n_a))
    u = np.zeros(len(mesh.nodes))
    u[free_map] = u_free
    if float(np.min(u)) < -1e-10:
        raise SolverError(f"eigenvector lost positivity (min {float(np.min(u)):.3e})")
    result = FemEigenResult(lam=float(lam), u=u, mesh=mesh, beta=beta, stats=stats)
    if seed is None:
        mesh._eigenpairs[beta] = (result.lam, u, dict(stats))
    return result


def _coarse_mesh(mesh: Mesh) -> Mesh:
    """The mesh one level coarser on the same domain, its seed level."""
    n_r, n_a = mesh.resolution
    domain = mesh._domain() if mesh._domain is not None else None
    if domain is None:
        if mesh._curves is None:
            raise SolverError("a mesh built without a domain needs a seed")
        domain = AnnularDomain(*mesh._curves)
    return mesh_annular(domain, max(2, n_r // 2), max(8, n_a // 2))


def _linear_weights(fine: int, coarse: int, periodic: bool) -> np.ndarray:
    """Matrix of linear interpolation from coarse cells to fine ones on
    [0, 1], with endpoints ((fine + 1) x (coarse + 1)) or periodic
    (fine x coarse)."""
    i = np.arange(fine if periodic else fine + 1)
    j, rem = np.divmod(i * coarse, fine)
    cols = coarse if periodic else coarse + 1
    w = rem / fine
    out = np.zeros((len(i), cols))
    out[i, j] = 1.0 - w
    # the right endpoint (j = coarse, w = 0) adds a zero to column 0
    out[i, (j + 1) % cols] += w
    return out


def _interpolated(result: FemEigenResult, resolution) -> np.ndarray:
    """result.u on the rings x rays grid of `resolution`, bilinear in ring
    fraction and ray angle; the identity on the result's own grid."""
    (n_rc, n_ac), (n_r, n_a) = result.mesh.resolution, resolution
    grid = result.u.reshape(n_rc + 1, n_ac)
    rings, rays = _linear_weights(n_r, n_rc, False), _linear_weights(n_a, n_ac, True)
    return (rings @ grid @ rays.T).ravel()


def beta_form_value(result: FemEigenResult) -> float:
    """Discrete boundary-to-mass ratio (u' B u) / (u' M u).

    Equals the derivative of the discrete eigenvalue with respect to beta.
    """
    _, mass, boundary = result.mesh.forms
    u = result.u
    return float(u @ (boundary @ u)) / float(u @ (mass @ u))


@dataclass(frozen=True)
class ConvergenceStudy:
    resolutions: list
    h: np.ndarray
    lam_h: np.ndarray
    lam_ref: float
    order: float


def convergence_study(
    domain: AnnularDomain, beta: float, resolutions, lam_ref: float = None
) -> ConvergenceStudy:
    """Eigenvalue convergence table and observed order on refined meshes.

    lam_ref defaults to Richardson extrapolation of the two finest levels
    assuming second order; pass the radial eigenvalue when the domain is a
    concentric shell.
    """
    if len(resolutions) < 3:
        raise RangeError("need at least 3 resolutions")
    hs, lams = [], []
    for n_r, n_a in resolutions:
        result = solve_domain(domain, beta, n_r, n_a)
        hs.append(result.mesh.max_edge_length())
        lams.append(result.lam)
    hs = np.asarray(hs)
    lams = np.asarray(lams)
    if lam_ref is None:
        ratio = (hs[-2] / hs[-1]) ** 2
        lam_ref = float((ratio * lams[-1] - lams[-2]) / (ratio - 1.0))
    err = np.abs(lams - lam_ref)
    keep = err > 0.0
    order = float(np.polyfit(np.log(hs[keep]), np.log(err[keep]), 1)[0])
    return ConvergenceStudy(list(resolutions), hs, lams, float(lam_ref), order)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def write_mesh(mesh: Mesh, path) -> None:
    """Text format: header then nodes, triangles and tagged boundary edges."""
    with open(path, "w") as fh:
        n_edges = len(mesh.inner_edges) + len(mesh.outer_edges)
        fh.write(f"nodes {len(mesh.nodes)} triangles {len(mesh.triangles)} edges {n_edges}\n")
        for x, y in mesh.nodes:
            fh.write(f"{x:.17g} {y:.17g}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")
        for i, j in mesh.outer_edges:
            fh.write(f"{i} {j} outer\n")
        for i, j in mesh.inner_edges:
            fh.write(f"{i} {j} inner\n")
