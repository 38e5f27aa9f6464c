"""2D P1 finite elements for the Robin-Dirichlet eigenproblem.

Star-shaped annular domains are meshed by blending the two boundary
parameterizations along rays through the domain center, so every node sits
exactly on a ray and boundary nodes sit exactly on the curves.  A mesh is
its nodes and the diagonal that splits each quad; its triangles and
boundary edges are read off the rings x rays grid.  Assembly
produces exact per-triangle P1 stiffness, consistent mass and exact
two-point Robin edge mass; the inner (Dirichlet) ring is eliminated and the
free nodes are numbered in a nested-dissection order of the rings x rays
grid (George, SIAM J. Numer. Anal. 10, 1973), whose sparsity pattern each
mesh fills (Cuvelier, Japhet & Scarella, BIT 56, 2016) and prunes of its
quads' unused diagonals.  The smallest
eigenpair of the SPD pencil is proved to be the smallest: A - sigma M is
factored by sparse LU in that order without pivoting, with sigma the Rayleigh quotient
of the eigenvector one level coarser, and its negative pivots count the
eigenvalues below sigma (Sylvester; Ericsson & Ruhe, Math. Comp. 35,
1980).  Block inverse iteration on that many vectors then certifies
lambda_1 by Kahan's residual bound.  solve_domain solves the coarse levels
the same way down to a dense floor and memoises each on its mesh.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import eigh, qr
from scipy.sparse.linalg import splu

from .errors import GeometryError, RangeError, SolverError, StarShapeError
from .geometry import SQUARE_MAX, SQUARE_MIN, AnnularDomain, _unit

RESIDUAL_FACTOR = 1e-10
# pencils with at most this many free nodes are solved by dense eigh
DENSE_FREE_NODES = 300
# the dense floor's shift, as a fraction of lambda_2 - lambda_1 above lambda_1
_FLOOR_SHIFT = 0.25
# a pivot this small against its own diagonal entry of A - sigma M leaves
# the inertia count unsure
_TINY_PIVOT = 1e-13
# relative step that moves a shift off an eigenvalue
_SHIFT_STEP = 1e-6
_MAX_STEPS = 60
_EPS = float(np.finfo(float).eps)
_MAX_BLOCK = 64
# largest grid block the nested dissection leaves uncut, and SuperLU's
# panel width and relaxed-supernode size, from a sweep of factor times
# over the rings x rays grids (README)
_ND_LEAF = 8
_PANEL_SIZE = 2
_RELAX = 4
# a quad's corners a, b, c, d as (ring, ray) steps from a, and its two
# triangles split along ac or bd; rays turn counterclockwise and rings grow
# outward, so a, b, c, d run clockwise and a triangle takes them in reverse
_CORNERS = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.int32)
_SPLITS = np.array([[[0, 2, 1], [0, 3, 2]], [[0, 3, 1], [1, 3, 2]]])


@dataclass(frozen=True)
class Mesh:
    """Triangulation of an annular domain on the rings x rays grid.

    Node (i, k), on ring i and ray k, is nodes[i * n_a + k]; split holds
    each quad's diagonal, 0 along ac and 1 along bd, ring-major (_grid).
    The triangles and the boundary edges are read off the grid, so a mesh
    is conforming by construction.  A mesh holds no reference to its
    domain: the domain holds its meshes (mesh_annular).
    """

    nodes: np.ndarray
    split: np.ndarray
    resolution: tuple
    # (K_ff, M_ff, B_ff, free_map) per outer condition, filled by _free_forms
    _free: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # unseeded eigenpairs per beta as (lam, u, stats), filled by solve_domain
    _eigenpairs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("nodes", "split"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n_r, n_a = self.resolution
        if self.nodes.shape != ((n_r + 1) * n_a, 2) or self.split.shape != (n_r * n_a,):
            raise GeometryError("mesh is not a structured rings x rays grid")

    @functools.cached_property
    def triangles(self) -> np.ndarray:
        """Each quad's two triangles under its split, ring-major, read-only."""
        triangles = _grid(*self.resolution)[1][self.split, np.arange(len(self.split))].reshape(-1, 3)
        triangles.setflags(write=False)
        return triangles

    @property
    def inner_edges(self) -> np.ndarray:
        return _grid(*self.resolution)[2]

    @property
    def outer_edges(self) -> np.ndarray:
        return _grid(*self.resolution)[3]

    @property
    def scale(self) -> float:
        return float(np.max(np.ptp(self.nodes, axis=0)))

    def triangle_areas(self) -> np.ndarray:
        p, t = self.nodes, self.triangles
        d1 = p[t[:, 1]] - p[t[:, 0]]
        d2 = p[t[:, 2]] - p[t[:, 0]]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def max_edge_length(self) -> float:
        p, t = self.nodes, self.triangles
        h = 0.0
        for a, b in ((0, 1), (1, 2), (2, 0)):
            e = p[t[:, a]] - p[t[:, b]]
            h = max(h, float(np.max(np.hypot(e[:, 0], e[:, 1]))))
        return h

    def _free_forms(self, dirichlet_outer: bool):
        """(K_ff, M_ff, B_ff, free_map) on _pattern's free nodes, each one
        bincount in triangle order into the pattern; once per condition.
        The slots of the quads' unused diagonals are then pruned, so the
        three share one pattern, that of M's positive entries and of
        A - sigma M."""
        if dirichlet_outer not in self._free:
            indptr, indices, slots, edge_slots, free_map = _pattern(*self.resolution, dirichlet_outer)
            where = slots[self.split, np.arange(len(self.split))]
            stiffness, mass = _element_matrices(self.nodes, self.triangles)
            p, e = self.nodes, self.outer_edges
            edge_mass = np.hypot(*(p[e[:, 1]] - p[e[:, 0]]).T)[:, None, None] / [[3.0, 6.0], [6.0, 3.0]]
            nnz, shape = len(indices), (len(free_map), len(free_map))
            fills = ((where, stiffness), (where, mass), (edge_slots, edge_mass))
            data = [np.bincount(at.ravel(), v.ravel(), minlength=nnz + 1)[:nnz] for at, v in fills]
            # a used slot holds a positive mass entry (mesh_annular validated
            # the areas), an unused one a zero
            used = data[1] > 0.0
            indptr = np.cumsum(np.insert(used, 0, False), dtype=np.int32)[indptr]
            indices = indices[used]
            data = [values[used] for values in data]
            for arr in (indptr, indices, *data):
                arr.setflags(write=False)
            blocks = [sparse.csr_matrix((v, indices, indptr), shape=shape) for v in data]
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
    if not scale <= SQUARE_MAX:
        raise RangeError(f"mesh extent {scale:.6g} squares beyond the float range")
    if np.any(mesh.triangle_areas() <= 1e-14 * scale**2):
        raise GeometryError("mesh contains degenerate or inverted triangles")
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
    so later calls return the same Mesh with its cached blocks.  A domain
    whose extent squares below the normal floats is refused (RangeError)
    before any ray is cast.
    """
    if n_r < 2:
        raise RangeError("need at least 2 radial layers")
    if n_a < 8:
        raise RangeError("need at least 8 angular rays")
    if (n_r, n_a) in domain._meshes:
        return domain._meshes[n_r, n_a]
    extent = domain.outer.scale
    if not extent >= SQUARE_MIN:
        raise RangeError(f"domain extent {extent:.6g} squares below the normal floats")
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

    a, b, c, d = _grid(n_r, n_a)[0]
    d_ac = np.hypot(*(nodes[a] - nodes[c]).T)
    d_bd = np.hypot(*(nodes[b] - nodes[d]).T)
    # near-ties split uniformly so symmetric domains get
    # rotationally symmetric triangulations
    split = (d_ac > d_bd * (1.0 + 1e-9)).astype(np.intp)
    mesh = Mesh(nodes, split, (n_r, n_a))
    _validate_mesh(mesh, domain)
    domain._meshes[n_r, n_a] = mesh
    return mesh


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _pattern(n_r: int, n_a: int, dirichlet_outer: bool):
    """(indptr, indices, slots, edge_slots, free_map), read-only, tables int32:
    row r of the CSR pattern holds the free ones among the 3 x 3 grid
    neighbours of node free_map[r], ascending; slots[s, q, t, i, j] is the
    slot of entry (i, j) of triangle t of quad q split along s (_grid),
    edge_slots[k, i, j] that of outer edge k, nnz that of constrained ones."""
    corners, _, _, outer_edges = _grid(n_r, n_a)
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


def _element_matrices(nodes: np.ndarray, triangles: np.ndarray):
    """Each triangle's exact P1 stiffness and consistent mass, (triangles, 3, 3)."""
    x, y = nodes[triangles].transpose(2, 0, 1)
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
    free_map are the mesh's cached, read-only blocks.
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

    A and M share one CSR pattern (Mesh._free_forms) and are symmetric to
    the bit, so the pencil's values on that pattern, read as CSC, are
    A - sigma M: no sparse subtraction and no conversion.  The
    factorization keeps assemble's nested-dissection order and does not
    pivot, so A - sigma M = L D L' with D the diagonal of U, and by
    Sylvester's law of inertia p is the number of eigenvalues of the
    pencil below sigma.  Reading lu.U builds CSC copies of both L and U,
    which the factor keeps for its whole life.  lu is None when a pivot
    vanishes to round-off against its own diagonal entry of A - sigma M,
    where the count cannot be trusted.  The diagonal congruence that gives
    A - sigma M a unit-modulus diagonal keeps the inertia and makes the
    test scale-free; measured against the largest pivot, which grows like
    beta h in the Robin rows, sound factorizations would be refused from
    beta = 1e12 on.
    """
    pencil = sparse.csc_matrix((a.data - sigma * m.data, a.indices, a.indptr), shape=a.shape)
    try:
        lu = splu(
            pencil,
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            relax=_RELAX,
            panel_size=_PANEL_SIZE,
            options={"SymmetricMode": True},
        )
    except RuntimeError:  # an exactly zero pivot
        return None, 0
    if not np.array_equal(lu.perm_r, np.arange(a.shape[0])):
        raise SolverError("SuperLU pivoted rows, so its pivots count no inertia")
    pivots = lu.U.diagonal()
    if np.any(np.abs(pivots) <= _TINY_PIVOT * np.abs(pencil.diagonal())):
        return None, 0
    return lu, int(np.count_nonzero(pivots < 0.0))


def _scaled_diagonal(m):
    """(diag(M) half^2, half): M's diagonal scaled by the even power of two
    half^2 that brings its largest entry near 1, so that a sum over
    diag(M)^-1 keeps its bits and cannot overflow, and its square root
    scales back by half alone."""
    diagonal = m.diagonal()
    half = _unit(math.sqrt(float(np.max(diagonal))))
    return diagonal * half * half, half


def _inverse_iteration(a, m, lu, shift: float, x: np.ndarray, allowed: float):
    """Block inverse iteration with Rayleigh-Ritz under lu = A - shift M.

    Returns (ritz, x, bound, steps, settled): the Ritz values (ascending),
    their M-orthonormal vectors, the block residual bound
    2 sqrt(sum r' diag(M)^-1 r) on ||M^(-1/2) R|| (P1 consistent mass has
    M >= diag(M) / 2), the number of steps, and whether the iteration
    settled.  It settles when ritz[-1] + bound < shift and
    bound^2 / (shift - ritz[-1]) is below one rounding of ritz[0]: with
    every other eigenvalue at or above the shift, as a count of p there
    says, that quadratic residual bound caps ritz[0] - lambda_1, and the
    first vector's residual norm is at most allowed times its norm.  It
    stops unsettled when the bound stops falling or after _MAX_STEPS steps.
    The bound and the settle test are formed on values scaled by powers of
    two (_scaled_diagonal): the same bits, and no overflow on domains
    scaled down to the dense floor.
    """
    diagonal, half = _scaled_diagonal(m)
    weight, unit = 1.0 / diagonal[:, None], _unit(shift)
    best = None
    for steps in range(1, _MAX_STEPS + 1):
        y = qr(lu.solve(m @ x), mode="economic", check_finite=False)[0]
        ay, my = a @ y, m @ y
        ritz, q = eigh(y.T @ ay, y.T @ my, check_finite=False)
        x = y @ q
        r = ay @ q - (my @ q) * ritz
        r_unit = _unit(r)
        bound = 2.0 * math.sqrt(float(np.sum((r * r_unit) ** 2 * weight))) * half / r_unit
        if best is not None and bound >= best[2]:
            break
        best = (ritz, x, bound)
        gap, scaled = shift - ritz[-1], bound * unit
        if gap > bound and scaled * scaled <= _EPS * abs(ritz[0] * unit) * (gap * unit):
            if np.linalg.norm(r[:, 0]) <= allowed * np.linalg.norm(x[:, 0]):
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
    rho = float(yl @ (a.astype(np.longdouble) @ yl) / float(y @ (m @ y)))
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
    the bound below sigma the smallest is lambda_1.  Both iterations hold
    the first vector to one residual target from the start,
    max(RESIDUAL_FACTOR, eps ||A||_1) times its norm.  If the iteration does
    not settle, A - tau M just above the smallest Ritz value (>= lambda_1)
    must count exactly one eigenvalue and one-vector iteration there must
    certify against tau, or SolverError is raised; so is a residual above
    the target.  Without a seed the pencil may have DENSE_FREE_NODES rows
    at most: dense eigh gives the seed (SolverError short of two pairs),
    and sigma lies _FLOOR_SHIFT of lambda_2 - lambda_1 above lambda_1,
    where A - sigma M is safely regular, or at the seed's quotient where
    eigh's error, near eps ||A||, puts that shift lower.
    A and M share one CSR pattern, as assemble's blocks do.

    The eigenvector is M-normalised and oriented to a nonnegative sum; the
    eigenvalue is its Rayleigh quotient.  stats carry sigma,
    negative_pivots (p), factorizations, outer_iterations (LU solves, one
    per right-hand side), factor_nnz (SuperLU's nonzeros of L + U at
    sigma), the residual norm and error_bound, the certified bound on
    |rho - lambda_1|.
    """
    n, floor = a.shape[0], -math.inf
    if seed is None:
        if n > DENSE_FREE_NODES:
            raise SolverError(f"a pencil of {n} rows needs a seed vector")
        lams, vecs = eigh(a.toarray(), m.toarray(), subset_by_index=[0, 1])
        if len(lams) < 2:
            raise SolverError(f"dense eigh gave {len(lams)} of the floor's two smallest eigenpairs")
        seed = vecs[:, 0]
        floor = float(lams[0] + _FLOOR_SHIFT * (lams[1] - lams[0]))
    # eigh's eigenvalues err by about eps ||A||, which grows with beta, so
    # the floor's shift is at least the seed's quotient, as a seeded one is
    sigma = max(float(seed @ (a @ seed)) / float(seed @ (m @ seed)), floor)
    factorizations = 0
    for _ in range(3):
        lu, p = _shifted_factor(a, m, sigma)
        factorizations += 1
        if p > 0:
            break
        del lu  # the dead factor goes before the next one is built
        sigma += _SHIFT_STEP * abs(sigma)
    else:
        raise SolverError(f"no reliable factorization near the seed's quotient {sigma:.6g}")
    if p > _MAX_BLOCK:
        raise SolverError(f"{p} eigenvalues lie below the seed's quotient {sigma:.6g}")
    nnz = int(lu.nnz)

    # A y rounds at about eps ||A||_1 ||y||, and ||A|| grows with beta;
    # A is symmetric, so ||A||_1 is its largest absolute row sum
    norm = float(np.max(np.add.reduceat(np.abs(a.data), a.indptr[:-1])))
    allowed = max(RESIDUAL_FACTOR, _EPS * norm)
    theta = 2.0 * np.pi * np.arange(n) / n if angles is None else angles
    columns = [seed]
    for k in range(1, p // 2 + 1):
        columns += [seed * np.cos(k * theta), seed * np.sin(k * theta)]
    block = np.column_stack(columns[:p])
    ritz, x, bound, steps, settled = _inverse_iteration(a, m, lu, sigma, block, allowed)
    solves, shift = steps * p, sigma
    if not settled:
        shift = float(ritz[0]) + _SHIFT_STEP * abs(float(ritz[0]))
        del lu
        lu, count = _shifted_factor(a, m, shift)
        factorizations += 1
        if count != 1:
            raise SolverError(
                f"{count} eigenvalues counted below {shift:.9g}, just above the "
                f"Ritz value {ritz[0]:.9g}: the iteration did not find lambda_1"
            )
        ritz, x, bound, steps, _ = _inverse_iteration(a, m, lu, shift, x[:, :1], allowed)
        solves += steps
    del lu  # the factor, with the CSC copies of L and U it caches, goes first
    rho, y, r = _quotient(a, m, x[:, 0])
    if np.linalg.norm(r) > allowed * np.linalg.norm(y):
        raise SolverError(f"generalized residual {np.linalg.norm(r):.3e} above tolerance")
    if not ritz[-1] + bound < shift:
        raise SolverError(f"Ritz values {ritz} within {bound:.3e} of the shift {shift:.9g}")

    # the error bound's sum on r and diag(M) scaled as in _inverse_iteration
    (diagonal, half), unit = _scaled_diagonal(m), _unit(r)
    rs = r * unit
    stats = {
        "outer_iterations": solves,
        "factorizations": factorizations,
        "negative_pivots": p,
        "sigma": sigma,
        "factor_nnz": nnz,
        "residual": float(np.linalg.norm(r)),
        "error_bound": max(bound, 2.0 * math.sqrt(float(rs @ (rs / diagonal))) * half / unit),
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


def coarse_resolution(n_r: int, n_a: int) -> tuple:
    """The level that seeds an n_r x n_a solve: half the rings and rays,
    down to the mesher's least of 2 and 8."""
    return max(2, n_r // 2), max(8, n_a // 2)


def solve_domain(
    domain: AnnularDomain, beta: float, n_r: int, n_a: int, seed: FemEigenResult = None
) -> FemEigenResult:
    """Mesh the domain and solve for its first Robin-Dirichlet eigenpair.

    beta = inf solves the Dirichlet-Dirichlet problem by eliminating both
    rings; beta = 0 is the Neumann closure on the outer ring.  A given
    seed goes to solve_on_mesh as it is.  Without one, the solve is seeded
    by this domain's eigenpair at coarse_resolution, itself solved the same
    way, down to the dense floor of DENSE_FREE_NODES free nodes.  Unseeded
    eigenpairs are memoised on their mesh per beta (and the mesh on its
    domain per resolution), so a level is solved once, whatever order the
    levels are asked for in.
    """
    mesh = mesh_annular(domain, n_r, n_a)
    if seed is not None:
        return solve_on_mesh(mesh, beta, seed)
    if beta not in mesh._eigenpairs:
        # assembled first, so a bad beta is refused before any coarse level
        dirichlet_outer = float(beta) == math.inf
        free_map = assemble(mesh, 0.0 if dirichlet_outer else beta, dirichlet_outer)[2]
        if len(free_map) > DENSE_FREE_NODES:
            seed = solve_domain(domain, beta, *coarse_resolution(n_r, n_a))
        result = solve_on_mesh(mesh, beta, seed)
        mesh._eigenpairs[beta] = (result.lam, result.u, dict(result.stats))
    lam, u, stats = mesh._eigenpairs[beta]
    return FemEigenResult(lam=lam, u=u, mesh=mesh, beta=beta, stats=dict(stats))


def solve_on_mesh(mesh: Mesh, beta: float, seed: FemEigenResult = None) -> FemEigenResult:
    """First eigenpair on one mesh, certified by smallest_eigenpair.

    The start vector is seed's eigenvector, a result on the rings x rays
    grid of the same domain at any resolution, interpolated bilinearly in
    ring fraction and ray angle.  Without a seed the pencil is solved
    densely, so it may have DENSE_FREE_NODES free nodes at most; a larger
    one raises SolverError.  Nothing is memoised here: solve_domain walks
    and keeps the levels.
    """
    # -inf is not the Dirichlet limit: assemble refuses it as negative
    dirichlet_outer = float(beta) == math.inf
    a, m, free_map = assemble(mesh, 0.0 if dirichlet_outer else beta, dirichlet_outer)
    n_a = mesh.resolution[1]
    start = None if seed is None else _interpolated(seed, mesh.resolution)[free_map]
    lam, u_free, stats = smallest_eigenpair(a, m, start, (2.0 * np.pi / n_a) * (free_map % n_a))
    u = np.zeros(len(mesh.nodes))
    u[free_map] = u_free
    if float(np.min(u)) < -1e-10:
        raise SolverError(f"eigenvector lost positivity (min {float(np.min(u)):.3e})")
    return FemEigenResult(lam=float(lam), u=u, mesh=mesh, beta=beta, stats=stats)


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
    u vanishes off the free nodes, so the free blocks of the result's own
    outer condition hold every term.
    """
    _, mass, boundary, free_map = result.mesh._free_forms(float(result.beta) == math.inf)
    u = result.u[free_map]
    return float(u @ (boundary @ u)) / float(u @ (mass @ u))


def boundary_residual(result: FemEigenResult) -> np.ndarray:
    """K u - lambda M u on the hole ring and the outer ring, rows 0 and 1 of
    a (2, n_a) array, at any beta.  B is left out, so a Dirichlet ring's
    row is its flux and a Robin outer ring's is -beta B u; only the 2 n_a
    triangles of the first and of the last ring of quads touch the rings."""
    mesh = result.mesh
    n_r, n_a = mesh.resolution
    t = np.concatenate([mesh.triangles[: 2 * n_a], mesh.triangles[-2 * n_a :]])
    stiffness, mass = _element_matrices(mesh.nodes, t)
    local = (stiffness - result.lam * mass) @ result.u[t][:, :, None]
    rows = np.bincount(t.ravel(), local.ravel(), minlength=len(mesh.nodes))
    return rows.reshape(n_r + 1, n_a)[[0, n_r]]


@dataclass(frozen=True)
class ConvergenceStudy:
    resolutions: list
    h: np.ndarray
    lam_h: np.ndarray
    lam_ref: float
    order: float


def convergence_study(
    domain: AnnularDomain, beta: float, resolutions, lam_ref: float
) -> ConvergenceStudy:
    """Eigenvalue convergence table and observed order against lam_ref on
    refined meshes."""
    if len(resolutions) < 3:
        raise RangeError("need at least 3 resolutions")
    hs, lams = [], []
    for n_r, n_a in resolutions:
        result = solve_domain(domain, beta, n_r, n_a)
        hs.append(result.mesh.max_edge_length())
        lams.append(result.lam)
    hs = np.asarray(hs)
    lams = np.asarray(lams)
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
