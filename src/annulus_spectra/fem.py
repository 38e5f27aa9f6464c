"""2D P1 finite elements for the Robin-Dirichlet eigenproblem.

Star-shaped annular domains are meshed by blending the two boundary
parameterizations along rays through the domain center, so every node sits
exactly on a ray and boundary nodes sit exactly on the curves.  Assembly
produces exact per-triangle P1 stiffness, consistent mass and exact
two-point Robin edge mass; the inner (Dirichlet) ring is eliminated and the
free nodes are numbered in a nested-dissection order of the rings x rays
grid (George, SIAM J. Numer. Anal. 10, 1973).  The smallest eigenpair of
the SPD pencil comes from shift-invert Lanczos (ARPACK) on one sparse LU
factorization of the stiffness side, taken in that order without pivoting.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .errors import GeometryError, RangeError, SolverError, StarShapeError
from .geometry import AnnularDomain

RESIDUAL_FACTOR = 1e-10
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
    # free-node blocks per outer condition, filled by _free_forms
    _free: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        """(K_ff, M_ff, b_ff, free_map): the forms on the free nodes.

        The inner ring is always constrained, the outer ring too when
        dirichlet_outer is set.  The free rings are numbered in
        nested-dissection order and free_map sends free indices back to
        node ids.  With a free outer ring, K_ff lies on the pattern of
        K + B and b_ff = (slots, values) holds B's nonzeros as positions
        in K_ff's values, so K_ff + beta B_ff needs no sparse addition;
        b_ff is () otherwise.  Built once per outer condition; read-only.
        """
        if dirichlet_outer not in self._free:
            n_r, n_a = self.resolution
            stiffness, mass, boundary = self.forms
            # ring 0 is the hole; ring n_r is free unless dirichlet_outer
            free_map = n_a + _nested_dissection(n_r - int(dirichlet_outer), n_a)
            m_ff = mass[free_map][:, free_map].tocsr()
            b_ff = ()
            if dirichlet_outer:
                k_ff = stiffness[free_map][:, free_map].tocsr()
            else:
                # every K + beta B lies on the pattern of K + B; carrying K
                # and B on it makes both slice to the same entry order
                pattern = (stiffness + boundary).tocsr()
                rows = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
                pattern.data = np.asarray(boundary[rows, pattern.indices]).ravel()
                b_on_k = pattern[free_map][:, free_map].data
                slots = np.flatnonzero(b_on_k)
                b_ff = (slots, b_on_k[slots])
                pattern.data = np.asarray(stiffness[rows, pattern.indices]).ravel()
                k_ff = pattern[free_map][:, free_map].tocsr()
            for arr in (
                free_map, *b_ff, k_ff.data, k_ff.indices, k_ff.indptr,
                m_ff.data, m_ff.indices, m_ff.indptr,
            ):
                arr.setflags(write=False)
            self._free[dirichlet_outer] = (k_ff, m_ff, b_ff, free_map)
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

    A = K_ff + beta B_ff on the free nodes of Mesh._free_forms; the inner
    ring is always eliminated and the outer ring too when dirichlet_outer
    is set (the beta = inf emulation, A = K_ff).  Only A is formed per
    call; M and free_map are the mesh's cached, read-only blocks.
    """
    if not dirichlet_outer and not 0.0 <= beta < math.inf:
        raise RangeError("beta must be finite and nonnegative (use dirichlet_outer for inf)")
    n_r, n_a = mesh.resolution
    if len(mesh.nodes) != (n_r + 1) * n_a:
        raise GeometryError("mesh is not a structured rings x rays grid")
    k_ff, m_ff, b_ff, free_map = mesh._free_forms(dirichlet_outer)
    if dirichlet_outer:
        return k_ff, m_ff, free_map
    slots, b_values = b_ff
    values = k_ff.data.copy()
    values[slots] += beta * b_values
    a_ff = sparse.csr_matrix((values, k_ff.indices, k_ff.indptr), shape=k_ff.shape)
    return a_ff, m_ff, free_map


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------


def smallest_eigenpair(a: sparse.csr_matrix, m: sparse.csr_matrix):
    """Smallest eigenpair of the SPD pencil (A, M) by shift-invert Lanczos.

    A arrives in the nested-dissection order that assemble gives, so it is
    factored once by sparse LU in that order, with no fill-reducing
    permutation and no pivoting (A is SPD because the hole is Dirichlet).
    ARPACK runs Lanczos on A^{-1} M (shift 0) from the constant start
    vector, so the result is deterministic.  The eigenvector is
    M-normalised and oriented to a nonnegative sum; the eigenvalue is its
    Rayleigh quotient.  The returned stats carry outer_iterations (the
    number of LU solves), factor_nnz (the nonzeros SuperLU stores for
    L + U), the residual norm and error_bound, a bound on |rho - lambda|
    from the residual.
    """
    n = a.shape[0]
    try:
        lu = splu(
            a.tocsc(),
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as err:
        raise SolverError(f"LU factorization failed: {err}") from err
    solves = 0

    def solve(b):
        nonlocal solves
        solves += 1
        return lu.solve(b)

    op_inv = LinearOperator((n, n), matvec=solve, dtype=float)
    try:
        _, vecs = eigsh(a, k=1, M=m, sigma=0.0, which="LM", v0=np.ones(n), OPinv=op_inv)
    except ArpackNoConvergence as err:
        raise SolverError(f"shift-invert Lanczos did not converge: {err}") from err
    y = vecs[:, 0]
    y /= math.sqrt(float(y @ (m @ y)))
    if float(np.sum(y)) < 0.0:
        y = -y
    rho = float(y @ (a @ y))
    r = a @ y - rho * (m @ y)
    # certified eigenvalue-error bound |rho - lambda| <= ||r||_(M^-1),
    # overestimated through the mass diagonal: P1 consistent mass has
    # M >= diag(M) / 2, so ||r||_(M^-1) <= sqrt(2 r' diag(M)^-1 r)
    bound = 2.0 * math.sqrt(float(r @ (r / m.diagonal())))
    stats = {
        "outer_iterations": solves,
        "factor_nnz": int(lu.nnz),
        "residual": float(np.linalg.norm(r)),
        "error_bound": bound,
    }
    return rho, y, stats


@dataclass(frozen=True)
class FemEigenResult:
    """Discrete first eigenpair on an annular mesh.

    u is the full nodal vector with exact zeros on eliminated nodes, M-unit
    norm and nonnegative orientation.
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
            "factor_nnz": self.stats["factor_nnz"],
            "residual": self.stats["residual"],
        }


def solve_domain(domain: AnnularDomain, beta: float, n_r: int, n_a: int) -> FemEigenResult:
    """Mesh, assemble and extract the first Robin-Dirichlet eigenpair.

    beta = inf solves the Dirichlet-Dirichlet problem by eliminating both
    rings; beta = 0 is the Neumann closure on the outer ring.
    """
    mesh = mesh_annular(domain, n_r, n_a)
    return solve_on_mesh(mesh, beta)


def solve_on_mesh(mesh: Mesh, beta: float) -> FemEigenResult:
    dirichlet_outer = math.isinf(beta)
    a, m, free_map = assemble(mesh, 0.0 if dirichlet_outer else beta, dirichlet_outer)
    lam, u_free, stats = smallest_eigenpair(a, m)
    u = np.zeros(len(mesh.nodes))
    u[free_map] = u_free
    if float(np.min(u)) < -1e-10:
        raise SolverError(f"eigenvector lost positivity (min {float(np.min(u)):.3e})")
    res = stats["residual"]
    if res > RESIDUAL_FACTOR * float(np.linalg.norm(u_free)):
        raise SolverError(f"generalized residual {res:.3e} above tolerance")
    return FemEigenResult(lam=float(lam), u=u, mesh=mesh, beta=beta, stats=stats)


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


def write_eigenvector_csv(result: FemEigenResult, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "x", "y", "u"])
        for i, ((x, y), val) in enumerate(zip(result.mesh.nodes, result.u)):
            writer.writerow([i, f"{x:.17g}", f"{y:.17g}", f"{val:.17g}"])
