"""2D P1 finite elements for the Robin-Dirichlet eigenproblem.

Star-shaped annular domains are meshed by blending the two boundary
parameterizations along rays through the domain center, so every node sits
exactly on a ray and boundary nodes sit exactly on the curves.  Assembly
produces exact per-triangle P1 stiffness, consistent mass and exact
two-point Robin edge mass; the inner (Dirichlet) ring is eliminated and the
free nodes are numbered in a nested-dissection order of the rings x rays
grid (George, SIAM J. Numer. Anal. 10, 1973).  The smallest eigenpair of
the SPD pencil is proved to be the smallest: A - sigma M is factored by
sparse LU in that order without pivoting, with sigma the Rayleigh quotient
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
    def inner_nodes(self) -> np.ndarray:
        return np.unique(self.inner_edges)

    @property
    def outer_nodes(self) -> np.ndarray:
        return np.unique(self.outer_edges)

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

    @functools.cached_property
    def forms(self):
        """Full (un-eliminated) stiffness K, mass M and outer edge mass B,
        assembled once per mesh; they do not depend on beta."""
        p, t = self.nodes, self.triangles
        n = len(p)
        v0, v1, v2 = p[t[:, 0]], p[t[:, 1]], p[t[:, 2]]
        area = 0.5 * (
            (v1[:, 0] - v0[:, 0]) * (v2[:, 1] - v0[:, 1])
            - (v1[:, 1] - v0[:, 1]) * (v2[:, 0] - v0[:, 0])
        )
        b = np.stack([v1[:, 1] - v2[:, 1], v2[:, 1] - v0[:, 1], v0[:, 1] - v1[:, 1]], axis=1)
        c = np.stack([v2[:, 0] - v1[:, 0], v0[:, 0] - v2[:, 0], v1[:, 0] - v0[:, 0]], axis=1)

        rows, cols, kv, mv = [], [], [], []
        for i in range(3):
            for j in range(3):
                rows.append(t[:, i])
                cols.append(t[:, j])
                kv.append((b[:, i] * b[:, j] + c[:, i] * c[:, j]) / (4.0 * area))
                mv.append(area / 12.0 * (2.0 if i == j else 1.0) * np.ones_like(area))
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        stiffness = _from_triplets(rows, cols, np.concatenate(kv), n)
        mass = _from_triplets(rows, cols, np.concatenate(mv), n)

        e = self.outer_edges
        lengths = np.hypot(*(p[e[:, 1]] - p[e[:, 0]]).T)
        er, ec, ev = [], [], []
        for i in range(2):
            for j in range(2):
                er.append(e[:, i])
                ec.append(e[:, j])
                ev.append(lengths / (3.0 if i == j else 6.0))
        boundary = _from_triplets(np.concatenate(er), np.concatenate(ec), np.concatenate(ev), n)
        return stiffness, mass, boundary

    def _free_forms(self, dirichlet_outer: bool):
        """(K_ff, M_ff, B_ff, free_map): the forms restricted to the free nodes.

        The inner ring is always constrained, the outer ring too when
        dirichlet_outer is set.  The free rings are numbered in
        nested-dissection order, free_map sends free indices back to node
        ids, and each block is its form sliced by free_map on both sides,
        with sorted column indices.  Built once per outer condition;
        read-only.
        """
        if dirichlet_outer not in self._free:
            n_r, n_a = self.resolution
            # ring 0 is the hole; ring n_r is free unless dirichlet_outer
            free_map = n_a + _nested_dissection(n_r - int(dirichlet_outer), n_a)
            free_map.setflags(write=False)
            blocks = tuple(form[free_map][:, free_map].sorted_indices() for form in self.forms)
            for block in blocks:
                for arr in (block.data, block.indices, block.indptr):
                    arr.setflags(write=False)
            self._free[dirichlet_outer] = (*blocks, free_map)
        return self._free[dirichlet_outer]


def _validate_mesh(mesh: Mesh, domain: AnnularDomain) -> None:
    areas = mesh.triangle_areas()
    if np.any(areas <= 1e-14 * mesh.scale**2):
        raise GeometryError("mesh contains degenerate or inverted triangles")
    # conformity: interior edges shared by exactly two triangles
    t = mesh.triangles
    edges = np.sort(
        np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1
    )
    # one integer key per undirected edge
    _, counts = np.unique(edges[:, 0] * len(mesh.nodes) + edges[:, 1], return_counts=True)
    if np.any(counts > 2):
        raise GeometryError("mesh is not conforming")
    n_boundary = int(np.sum(counts == 1))
    if n_boundary != len(mesh.inner_edges) + len(mesh.outer_edges):
        raise GeometryError("boundary edge bookkeeping is inconsistent")
    tol = 1e-9 * mesh.scale
    if np.max(domain.inner.distance(mesh.nodes[mesh.inner_nodes])) > tol:
        raise GeometryError("inner boundary nodes are off the curve")
    if np.max(domain.outer.distance(mesh.nodes[mesh.outer_nodes])) > tol:
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

    def nid(i, k):
        return i * n_a + k % n_a

    # quad (i, k) has corners a, b on ring i and d, c on ring i + 1
    i, k = (g.ravel() for g in np.meshgrid(np.arange(n_r), np.arange(n_a), indexing="ij"))
    a, b, c, d = nid(i, k), nid(i, k + 1), nid(i + 1, k + 1), nid(i + 1, k)
    d_ac = np.hypot(*(nodes[a] - nodes[c]).T)
    d_bd = np.hypot(*(nodes[b] - nodes[d]).T)
    # near-ties split uniformly so symmetric domains get
    # rotationally symmetric triangulations
    split_ac = (d_ac <= d_bd * (1.0 + 1e-9))[:, None]
    # rays turn counterclockwise and rings grow outward, so a, b, c, d run
    # clockwise; each triangle takes its corners in reverse to be positive
    first = np.where(split_ac, np.column_stack([a, c, b]), np.column_stack([a, d, b]))
    second = np.where(split_ac, np.column_stack([a, d, c]), np.column_stack([b, d, c]))
    triangles = np.stack([first, second], axis=1).reshape(-1, 3).astype(np.int64)

    ks = np.arange(n_a)
    inner_edges = np.column_stack([nid(0, ks), nid(0, ks + 1)])
    outer_edges = np.column_stack([nid(n_r, ks), nid(n_r, ks + 1)])
    mesh = Mesh(nodes, triangles, inner_edges, outer_edges, (n_r, n_a))
    _validate_mesh(mesh, domain)
    object.__setattr__(mesh, "_domain", weakref.ref(domain))
    object.__setattr__(mesh, "_curves", (domain.outer, domain.inner, domain.center))
    domain._meshes[n_r, n_a] = mesh
    return mesh


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def _from_triplets(rows, cols, vals, n) -> sparse.csr_matrix:
    return sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


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
    is set (the beta = inf emulation, A = K_ff, read-only).  Only A is
    formed per call; M and free_map are the mesh's cached, read-only
    blocks.  The sum drops the exact zeros that K_ff stores; A - sigma M
    keeps M's pattern, whose entries are all positive, either way.
    """
    if not dirichlet_outer and not 0.0 <= beta < math.inf:
        raise RangeError("beta must be finite and nonnegative (use dirichlet_outer for inf)")
    n_r, n_a = mesh.resolution
    if len(mesh.nodes) != (n_r + 1) * n_a:
        raise GeometryError("mesh is not a structured rings x rays grid")
    k_ff, m_ff, b_ff, free_map = mesh._free_forms(dirichlet_outer)
    if dirichlet_outer:
        return k_ff, m_ff, free_map
    return k_ff + beta * b_ff, m_ff, free_map


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


def _inverse_iteration(a, m, lu, shift: float, x: np.ndarray):
    """Block inverse iteration with Rayleigh-Ritz under lu = A - shift M.

    Returns (ritz, x, bound, steps, settled): the Ritz values (ascending),
    their M-orthonormal vectors, the block residual bound
    2 sqrt(sum r' diag(M)^-1 r) on ||M^(-1/2) R|| (P1 consistent mass has
    M >= diag(M) / 2), the number of steps, and whether the iteration
    settled.  It settles when ritz[-1] + bound < shift and
    bound^2 / (shift - ritz[-1]) is below one rounding of ritz[0]: with
    every other eigenvalue at or above the shift, as a count of p there
    says, that quadratic residual bound caps ritz[0] - lambda_1.  It stops
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
            return (*best, steps, True)
    return (*best, steps, False)


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
    certify against tau, or SolverError is raised.  Without a seed the
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
    if not ritz[-1] + bound < shift:
        raise SolverError(f"Ritz values {ritz} within {bound:.3e} of the shift {shift:.9g}")

    y = x[:, 0] / math.sqrt(float(x[:, 0] @ (m @ x[:, 0])))
    if float(np.sum(y)) < 0.0:
        y = -y
    # y'Ay in extended precision: summed in doubles, the cancellation
    # inside A y leaves about 1e-14 relative rounding noise.  y'My sums
    # nonnegative terms and needs no more than doubles.
    yl = y.astype(np.longdouble)
    y_ay = np.dot(a.data * np.repeat(yl, np.diff(a.indptr)), yl[a.indices])
    rho = float(y_ay / float(y @ (m @ y)))
    r = a @ y - rho * (m @ y)
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
    res, norm_u = stats["residual"], float(np.linalg.norm(u_free))
    # A u rounds at about eps ||A||_1 ||u||, and ||A|| grows with beta
    if res > RESIDUAL_FACTOR * norm_u and res > _EPS * sparse.linalg.norm(a, 1) * norm_u:
        raise SolverError(f"generalized residual {res:.3e} above tolerance")
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
