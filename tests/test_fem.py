import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import eigsh, splu

from annulus_spectra import fem
from annulus_spectra.analysis import PerturbationField, standard_family
from annulus_spectra.errors import (
    AnnulusError,
    GeometryError,
    RangeError,
    SolverError,
    StarShapeError,
)
from annulus_spectra.fem import (
    Mesh,
    _nested_dissection,
    _validate_mesh,
    assemble,
    beta_form_value,
    convergence_study,
    mesh_annular,
    smallest_eigenpair,
    solve_domain,
    solve_on_mesh,
    write_mesh,
)
from annulus_spectra.geometry import AnnularDomain, Circle, ConvexPolygon, Ellipse, PolygonCurve
from annulus_spectra.radial import solve_shell

CONCENTRIC = AnnularDomain(Circle((0, 0), 2.0), Circle((0, 0), 1.0))
ECCENTRIC = AnnularDomain(Circle((0, 0), 2.0), Circle((0.5, 0), 1.0))
EPS = float(np.finfo(float).eps)


def _coo_forms(mesh):
    """Reference assembly: K, M and B in natural node order from COO
    triplets, one per element entry, summed by scipy's conversion to CSR."""
    p, t = mesh.nodes, mesh.triangles
    n = len(p)
    v0, v1, v2 = p[t[:, 0]], p[t[:, 1]], p[t[:, 2]]
    area = 0.5 * (
        (v1[:, 0] - v0[:, 0]) * (v2[:, 1] - v0[:, 1])
        - (v1[:, 1] - v0[:, 1]) * (v2[:, 0] - v0[:, 0])
    )
    b = np.stack([v1[:, 1] - v2[:, 1], v2[:, 1] - v0[:, 1], v0[:, 1] - v1[:, 1]], axis=1)
    c = np.stack([v2[:, 0] - v1[:, 0], v0[:, 0] - v2[:, 0], v1[:, 0] - v0[:, 0]], axis=1)

    def csr(rows, cols, vals):
        rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
        return sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()

    rows, cols, kv, mv = [], [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(t[:, i])
            cols.append(t[:, j])
            kv.append((b[:, i] * b[:, j] + c[:, i] * c[:, j]) / (4.0 * area))
            mv.append(area / 12.0 * (2.0 if i == j else 1.0) * np.ones_like(area))
    stiffness, mass = csr(rows, cols, kv), csr(rows, cols, mv)

    e = mesh.outer_edges
    lengths = np.hypot(*(p[e[:, 1]] - p[e[:, 0]]).T)
    er, ec, ev = [], [], []
    for i in range(2):
        for j in range(2):
            er.append(e[:, i])
            ec.append(e[:, j])
            ev.append(lengths / (3.0 if i == j else 6.0))
    return stiffness, mass, csr(er, ec, ev)


def _assert_rows_close(got, want):
    # entry by entry within 4 eps of the largest entry of its row: the fill
    # sums in triangle order, the reference in scipy's
    assert got.shape == want.shape
    scale = abs(want).max(axis=1).toarray().ravel()
    diff = abs(got - want).tocoo()
    assert np.all(diff.data <= 4.0 * EPS * scale[diff.row])


def _oracle_domain(name, n_a):
    if name == "circle-pair":
        return AnnularDomain(Circle((0, 0), 2.0), Circle((0.5, 0), 1.0))
    if name == "shell":
        return AnnularDomain(Circle((0, 0), 2.0), Circle((0, 0), 1.0))
    if name == "ellipse-rectangle":
        return _rectangle_hole_member(1.5, 0.6, 0.4)
    # the polygon through the moved outer ray crossings, one vertex per ray
    field = PerturbationField(kind="normal_fourier", target="outer", mode=2, amplitude=1.0)
    return field.perturbed(AnnularDomain(Circle((0, 0), 2.0), Circle((0.5, 0), 1.0)), 0.05, n_a)


class TestMeshAnnular:
    def test_structured_counts(self):
        mesh = mesh_annular(CONCENTRIC, 2, 8)
        assert len(mesh.nodes) == 24
        assert len(mesh.triangles) == 32
        # the mesh covers the inscribed polygons exactly, and their area
        # deficit is the O(1/n_a^2) sine factor
        inscribed = 0.5 * 8 * math.sin(2.0 * math.pi / 8) * (4.0 - 1.0)
        assert mesh.area == pytest.approx(inscribed, rel=1e-13)
        assert mesh.area == pytest.approx(3.0 * math.pi, rel=(2.0 * math.pi / 8) ** 2 / 6 * 1.1)

    def test_eccentric_area(self):
        mesh = mesh_annular(ECCENTRIC, 32, 128)
        assert mesh.area == pytest.approx(ECCENTRIC.area, rel=5e-3)

    def test_coarse_mesh_still_conforming(self):
        mesh = mesh_annular(CONCENTRIC, 2, 8)  # validation runs in the mesher
        assert mesh.resolution == (2, 8)

    def test_boundary_nodes_on_curves(self):
        mesh = mesh_annular(ECCENTRIC, 4, 16)
        assert np.max(ECCENTRIC.inner.distance(mesh.nodes[np.unique(mesh.inner_edges)])) < 1e-12
        assert np.max(ECCENTRIC.outer.distance(mesh.nodes[np.unique(mesh.outer_edges)])) < 1e-12

    def test_positive_orientation(self):
        mesh = mesh_annular(ECCENTRIC, 8, 32)
        assert np.all(mesh.triangle_areas() > 0.0)

    def test_non_star_shaped_rejected(self):
        # center far from the hole makes inner-boundary rays miss
        dom = AnnularDomain(
            Circle((0, 0), 4.0), Circle((1.5, 0), 0.4), center=(1.5, 0.0)
        )
        shifted = AnnularDomain(Circle((0, 0), 4.0), Circle((1.5, 0), 0.4), center=(1.45, 0.0))
        mesh_annular(shifted, 4, 16)  # fine while the center stays inside
        with pytest.raises(StarShapeError):
            bad = AnnularDomain(dom.outer, dom.inner)
            object.__setattr__(bad, "center", np.array([3.0, 0.0]))
            mesh_annular(bad, 4, 16)

    def test_ray_failure_names_the_center(self):
        bad = AnnularDomain(ECCENTRIC.outer, ECCENTRIC.inner)
        object.__setattr__(bad, "center", np.array([1.7, 0.0]))  # in the annulus
        with pytest.raises(StarShapeError, match="not star shaped about its center"):
            mesh_annular(bad, 4, 16)

    def test_triangles_match_per_quad_split(self):
        n_r, n_a = 4, 16
        mesh = mesh_annular(ECCENTRIC, n_r, n_a)
        p = mesh.nodes
        expected = []
        for i in range(n_r):
            for k in range(n_a):
                a, b = i * n_a + k, i * n_a + (k + 1) % n_a
                c, d = (i + 1) * n_a + (k + 1) % n_a, (i + 1) * n_a + k
                if np.hypot(*(p[a] - p[c])) <= np.hypot(*(p[b] - p[d])) * (1.0 + 1e-9):
                    quad = [(a, b, c), (a, c, d)]
                else:
                    quad = [(a, b, d), (b, c, d)]
                for tri in quad:
                    u, v, w = p[list(tri)]
                    cross = (v - u)[0] * (w - u)[1] - (v - u)[1] * (w - u)[0]
                    expected.append(tri if cross >= 0.0 else (tri[0], tri[2], tri[1]))
        assert np.array_equal(mesh.triangles, np.array(expected))

    def test_validation_rejects_duplicated_triangle(self):
        mesh = mesh_annular(ECCENTRIC, 4, 16)
        tris = np.concatenate([mesh.triangles, mesh.triangles[:1]])
        bad = Mesh(mesh.nodes, tris, mesh.inner_edges, mesh.outer_edges, mesh.resolution)
        with pytest.raises(GeometryError, match="mesh is not conforming"):
            _validate_mesh(bad, ECCENTRIC)

    def test_validation_rejects_dropped_boundary_edge(self):
        mesh = mesh_annular(ECCENTRIC, 4, 16)
        bad = Mesh(
            mesh.nodes, mesh.triangles, mesh.inner_edges, mesh.outer_edges[1:], mesh.resolution
        )
        with pytest.raises(GeometryError, match="boundary edge bookkeeping is inconsistent"):
            _validate_mesh(bad, ECCENTRIC)

    def test_validation_rejects_mixed_quad_split(self):
        # quad 5 takes the ac split's first triangle and the bd split's
        # second: both positive, overlapping, and an edge shared three times
        mesh = mesh_annular(ECCENTRIC, 4, 16)
        _, grid, _, _ = fem._grid(4, 16)
        tris = mesh.triangles.reshape(-1, 2, 3).copy()
        tris[5] = [grid[0, 5, 0], grid[1, 5, 1]]
        bad = Mesh(mesh.nodes, tris.reshape(-1, 3), mesh.inner_edges, mesh.outer_edges, (4, 16))
        with pytest.raises(GeometryError, match="mesh is not conforming"):
            _validate_mesh(bad, ECCENTRIC)

    def test_validation_rejects_shuffled_triangles(self):
        # the fill reads each quad's split off the triangles in grid order
        mesh = mesh_annular(ECCENTRIC, 4, 16)
        order = np.random.default_rng(1).permutation(len(mesh.triangles))
        bad = Mesh(mesh.nodes, mesh.triangles[order], mesh.inner_edges, mesh.outer_edges, (4, 16))
        with pytest.raises(GeometryError, match="mesh is not conforming"):
            _validate_mesh(bad, ECCENTRIC)

    @pytest.mark.parametrize("shift", ["rolled", "ring-inward"])
    def test_validation_rejects_shifted_boundary_edges(self, shift):
        mesh = mesh_annular(ECCENTRIC, 4, 16)
        outer = np.roll(mesh.outer_edges, 1, axis=0) if shift == "rolled" else mesh.outer_edges - 16
        bad = Mesh(mesh.nodes, mesh.triangles, mesh.inner_edges, outer, (4, 16))
        with pytest.raises(GeometryError, match="boundary edge bookkeeping is inconsistent"):
            _validate_mesh(bad, ECCENTRIC)

    def test_resolution_floor(self):
        with pytest.raises(RangeError):
            mesh_annular(CONCENTRIC, 1, 16)
        with pytest.raises(RangeError):
            mesh_annular(CONCENTRIC, 4, 4)


class TestMeshMemo:
    def test_one_mesh_per_domain_and_resolution(self):
        dom = AnnularDomain(Circle((0, 0), 2.0), Circle((0.5, 0), 1.0))
        mesh = mesh_annular(dom, 24, 96)
        assert mesh_annular(dom, 24, 96) is mesh
        assert mesh_annular(dom, 12, 48) is not mesh
        # equal but distinct domains do not share meshes
        twin = mesh_annular(AnnularDomain(Circle((0, 0), 2.0), Circle((0.5, 0), 1.0)), 24, 96)
        assert twin is not mesh
        assert np.array_equal(twin.nodes, mesh.nodes)
        assert np.array_equal(twin.triangles, mesh.triangles)

    def test_validated_once_per_built_mesh(self, monkeypatch):
        checked = []
        validate = fem._validate_mesh

        def counting(mesh, domain):
            checked.append(mesh)
            validate(mesh, domain)

        monkeypatch.setattr(fem, "_validate_mesh", counting)
        dom = AnnularDomain(Circle((0, 0), 2.0), Circle((0.5, 0), 1.0))
        mesh = mesh_annular(dom, 8, 32)
        for _ in range(3):
            solve_domain(dom, 1.0, 8, 32)
        assert len(checked) == 1 and checked[0] is mesh

    @pytest.mark.parametrize("beta", [0.0, 1.0, math.inf])
    def test_cached_blocks_match_sliced_forms(self, beta):
        # an eccentric pair, and the shell, whose K stores exact zeros
        # that K + beta B drops
        dirichlet = math.isinf(beta)
        for hole_x in (0.5, 0.0):
            dom = AnnularDomain(Circle((0, 0), 2.0), Circle((hole_x, 0), 1.0))
            mesh = mesh_annular(dom, 8, 32)
            a, m, free = assemble(mesh, 0.0 if dirichlet else beta, dirichlet)
            stiffness, mass, boundary = mesh.forms
            full = stiffness if dirichlet else stiffness + beta * boundary
            assert np.array_equal(a.toarray(), full[free][:, free].toarray())
            assert np.array_equal(m.toarray(), mass[free][:, free].toarray())
            # the same entries as slicing K + beta B per beta, in sorted
            # order, once the stored zeros (unused quad diagonals, and the
            # shell's exact zeros of K) are eliminated from both
            sliced = full.tocsr()[free][:, free].sorted_indices()
            stored = a.copy()
            for matrix in (stored, sliced):
                matrix.eliminate_zeros()
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(stored, name), getattr(sliced, name))
            # M and free_map are the mesh's read-only blocks, shared by every beta
            _, m2, free2 = assemble(mesh, 0.0 if dirichlet else 2.0 * beta, dirichlet)
            assert m2 is m and free2 is free
            assert not m.data.flags.writeable
            with pytest.raises(ValueError):
                m.data[0] = 1.0


class TestAssembly:
    def test_reference_triangle_stiffness(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        tris = np.array([[0, 1, 2]])
        empty = np.empty((0, 2), dtype=np.int64)
        mesh = Mesh(nodes, tris, empty, empty, (1, 1))
        stiffness, mass = fem._element_matrices(mesh)
        expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        assert np.allclose(stiffness[0], expected, atol=1e-15)
        assert np.allclose(mass[0].sum(), 0.5, atol=1e-15)

    def test_mass_partition_of_unity(self):
        mesh = mesh_annular(CONCENTRIC, 8, 32)
        _, mass, _ = mesh.forms
        assert mass.sum() == pytest.approx(mesh.area, rel=1e-13)

    def test_boundary_mass_partition_of_unity(self):
        mesh = mesh_annular(CONCENTRIC, 8, 32)
        _, _, boundary = mesh.forms
        p = mesh.nodes
        e = mesh.outer_edges
        perim = float(np.sum(np.hypot(*(p[e[:, 1]] - p[e[:, 0]]).T)))
        assert boundary.sum() == pytest.approx(perim, rel=1e-13)

    def test_elimination_bookkeeping(self):
        mesh = mesh_annular(CONCENTRIC, 4, 16)
        a, m, free = assemble(mesh, 1.0)
        inner, outer = np.unique(mesh.inner_edges), np.unique(mesh.outer_edges)
        assert a.shape[0] == m.shape[0] == len(free) == len(mesh.nodes) - len(inner)
        assert not set(free.tolist()) & set(inner.tolist())
        a2, _, free2 = assemble(mesh, 0.0, dirichlet_outer=True)
        assert a2.shape[0] == len(mesh.nodes) - len(inner) - len(outer)

    def test_symmetry_exact(self):
        mesh = mesh_annular(ECCENTRIC, 8, 32)
        a, m, _ = assemble(mesh, 2.5)
        assert (a - a.T).nnz == 0
        assert (m - m.T).nnz == 0

    def test_infinite_beta_rejected_without_flag(self):
        mesh = mesh_annular(CONCENTRIC, 4, 16)
        with pytest.raises(RangeError):
            assemble(mesh, float("inf"))

    def test_nan_beta_rejected(self):
        mesh = mesh_annular(CONCENTRIC, 4, 16)
        with pytest.raises(RangeError):
            assemble(mesh, float("nan"))
        with pytest.raises(RangeError):
            solve_on_mesh(mesh, float("nan"))


class TestPatternFill:
    @pytest.mark.parametrize("dirichlet", [False, True])
    @pytest.mark.parametrize("resolution", [(8, 32), (24, 96)])
    @pytest.mark.parametrize(
        "name", ["circle-pair", "shell", "ellipse-rectangle", "polygon-outer"]
    )
    def test_matches_coo_reference(self, name, resolution, dirichlet):
        mesh = mesh_annular(_oracle_domain(name, resolution[1]), *resolution)
        reference = _coo_forms(mesh)
        for got, want in zip(mesh.forms, reference):
            _assert_rows_close(got, want)
        *blocks, free = mesh._free_forms(dirichlet)
        sliced = [form[free][:, free].sorted_indices() for form in reference]
        for got, want in zip(blocks, sliced):
            _assert_rows_close(got, want)
        # SuperLU factors the pattern of the sliced and summed reference
        beta, sigma = (0.0 if dirichlet else 1.5), 2.5
        a, m, _ = assemble(mesh, beta, dirichlet)
        k_ff, m_ff, b_ff = sliced
        want = ((k_ff if dirichlet else k_ff + beta * b_ff) - sigma * m_ff).sorted_indices()
        got = (a - sigma * m).sorted_indices()
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)

    def test_blocks_share_one_pattern(self):
        mesh = mesh_annular(ECCENTRIC, 8, 32)
        k_ff, m_ff, b_ff, _ = mesh._free_forms(False)
        a, _, _ = assemble(mesh, 2.0)
        for block in (m_ff, b_ff, a):
            assert np.shares_memory(block.indices, k_ff.indices)
            assert np.shares_memory(block.indptr, k_ff.indptr)

    def test_later_meshes_neither_sort_nor_convert(self, monkeypatch):
        # the pattern is built once per resolution and outer condition; a
        # later mesh is validated against the grid and only fills values
        fem._pattern.cache_clear()
        n_r, n_a = 24, 96
        names = ["circle-pair", "ellipse-rectangle", "polygon-outer"]
        domains = [_oracle_domain(name, n_a) for name in names]
        first = mesh_annular(domains[0], n_r, n_a)
        for dirichlet in (False, True):
            assemble(first, 0.0, dirichlet)
        sorted_sizes, converted = [], []

        def recording(fn):
            def wrapped(a, *args, **kwargs):
                keys = a if isinstance(a, tuple) else (a,)  # lexsort takes a tuple
                sorted_sizes.append(sum(np.size(key) for key in keys))
                return fn(a, *args, **kwargs)

            return wrapped

        for name in ("unique", "sort", "argsort", "lexsort"):
            monkeypatch.setattr(np, name, recording(getattr(np, name)))
        tocsr = sparse.coo_matrix.tocsr

        def converting(*args, **kwargs):
            converted.append(args)
            return tocsr(*args, **kwargs)

        monkeypatch.setattr(sparse.coo_matrix, "tocsr", converting)
        for domain in domains[1:]:
            mesh = mesh_annular(domain, n_r, n_a)
            for dirichlet in (False, True):
                assemble(mesh, 0.0, dirichlet)
        assert not converted
        # boundary work may sort a ring; nothing sorts one entry per triangle
        assert max(sorted_sizes, default=0) < 2 * n_r * n_a
        assert fem._pattern.cache_info().misses == 2


class TestNestedDissection:
    @pytest.mark.parametrize(
        "n_r, n_a, dirichlet", [(7, 33, False), (5, 8, False), (2, 8, True), (2, 17, True)]
    )
    def test_order_is_permutation_of_free_nodes(self, n_r, n_a, dirichlet):
        mesh = mesh_annular(CONCENTRIC, n_r, n_a)
        a, m, free = assemble(mesh, 0.0 if dirichlet else 1.0, dirichlet)
        rings = n_r - 1 if dirichlet else n_r
        assert np.array_equal(np.sort(free), np.arange(n_a, (rings + 1) * n_a))
        # the same matrices as the natural numbering, permuted
        stiffness, mass, boundary = mesh.forms
        full = stiffness if dirichlet else stiffness + boundary
        assert (a - full[free][:, free]).nnz == 0
        assert (m - mass[free][:, free]).nnz == 0
        # rays 0 and n_a // 2 are the first separators, eliminated last
        last = free[-2 * rings :] - n_a
        assert np.array_equal(np.sort(last % n_a), np.repeat([0, n_a // 2], rings))

    def test_order_cached_read_only(self):
        order = _nested_dissection(6, 24)
        assert order is _nested_dissection(6, 24)
        assert not order.flags.writeable

    def test_fill_below_natural_order(self):
        mesh = mesh_annular(ECCENTRIC, 16, 64)
        a, m, free = assemble(mesh, 1.0)
        # a pencil this large needs a seed; the solve takes its coarse level's
        stats = solve_on_mesh(mesh, 1.0).stats
        back = np.argsort(free)
        natural = splu(a[back][:, back].tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0)
        assert stats["factor_nnz"] < 0.5 * natural.nnz
        assert solve_on_mesh(mesh, 1.0).report()["factor_nnz"] == stats["factor_nnz"]

    @pytest.mark.parametrize("beta", [0.0, 1.0, math.inf])
    def test_matches_default_ordering_eigsh(self, beta):
        mesh = mesh_annular(ECCENTRIC, 48, 192)
        dirichlet = math.isinf(beta)
        a, m, _ = assemble(mesh, 0.0 if dirichlet else beta, dirichlet)
        ref = eigsh(a.tocsc(), k=1, M=m.tocsc(), sigma=0.0, which="LM", return_eigenvectors=False)
        assert solve_on_mesh(mesh, beta).lam == pytest.approx(float(ref[0]), rel=1e-12)

    def test_unstructured_node_count_rejected(self):
        mesh = mesh_annular(CONCENTRIC, 4, 16)
        bad = Mesh(mesh.nodes[:-1], mesh.triangles, mesh.inner_edges, mesh.outer_edges, (4, 16))
        with pytest.raises(GeometryError, match="structured"):
            assemble(bad, 1.0)


class TestSmallestEigenpair:
    def test_thin_ring_tracks_radial(self):
        # near-degenerate angular modes crowd the lowest eigenvalue
        dom = AnnularDomain(Circle((0, 0), 1.05), Circle((0, 0), 1.0))
        res = solve_domain(dom, 1.0, 8, 512)
        rad = solve_shell(2, 1.0, 1.05, 1.0)
        assert res.lam == pytest.approx(rad.lam, rel=5e-3)
        # the 4x256 seed lies above the radial value and the k = 1, 2, 3
        # angular pairs; the block of seed x cos/sin k theta spans them
        assert res.stats["negative_pivots"] == 7

    def test_concentric_matches_radial(self):
        res = solve_domain(CONCENTRIC, 1.0, 64, 256)
        rad = solve_shell(2, 1.0, 2.0, 1.0)
        assert res.lam == pytest.approx(rad.lam, rel=2e-3)

    def test_neumann_closure_matches_radial(self):
        res = solve_domain(CONCENTRIC, 0.0, 64, 256)
        rad = solve_shell(2, 1.0, 2.0, 0.0)
        assert res.lam == pytest.approx(rad.lam, rel=2e-3)

    @pytest.mark.parametrize("beta", [0.0, 2.5, math.inf])
    def test_matches_dense_eigh(self, beta):
        # dense LAPACK on the same pencil; this 256-row pencil is also the
        # solver's dense floor, so the check covers the shifted factor, the
        # iteration and the bound built on that start.  Its eigenvalue
        # carries a backward error near eps * ||A|| (up to 5e-13 here); the
        # Rayleigh quotient of its eigenvector is exact to round-off, which
        # error_bound can bound.
        mesh = mesh_annular(ECCENTRIC, 8, 32)
        dirichlet = math.isinf(beta)
        a, m, _ = assemble(mesh, 0.0 if dirichlet else beta, dirichlet)
        lam, u, stats = smallest_eigenpair(a, m)
        _, vecs = eigh(a.toarray(), m.toarray(), subset_by_index=[0, 0])
        v = vecs[:, 0]
        lam_dense = float(v @ (a @ v)) / float(v @ (m @ v))
        assert lam == pytest.approx(lam_dense, rel=1e-12)
        assert stats["error_bound"] >= abs(lam - lam_dense)
        assert float(u @ (m @ u)) == pytest.approx(1.0, rel=1e-12)
        assert float(np.sum(u)) > 0.0

    def test_eigenvector_structure(self):
        res = solve_domain(CONCENTRIC, 1.0, 32, 128)
        assert np.all(res.u[np.unique(res.mesh.inner_edges)] == 0.0)
        assert float(np.min(res.u)) >= -1e-10
        _, mass, _ = res.mesh.forms
        assert float(res.u @ (mass @ res.u)) == pytest.approx(1.0, rel=1e-12)


def _rectangle_hole_member(b, half_width, half_height):
    """Ellipse (2, b) with a centred rectangular hole, a fresh domain."""
    hole = PolygonCurve(ConvexPolygon.rectangle(2.0 * half_width, 2.0 * half_height))
    return AnnularDomain(Ellipse((0, 0), 2.0, b), hole)


def _lowest_eigsh(result, k):
    a, m, _ = assemble(result.mesh, result.beta)
    return np.sort(eigsh(a.tocsc(), k=k, M=m.tocsc(), sigma=0.0, return_eigenvectors=False))


class TestInertiaCertificate:
    def test_two_lobes_need_a_two_block(self):
        # the hole splits the domain into two lobes with lambda_1 = 3.70607
        # and lambda_2 = 3.73887; the interpolated 12x48 seed's quotient lies
        # above both, and one vector would drift to lambda_2
        dom = _rectangle_hole_member(1.3625328827801515, 0.70327884071576774, 0.60973820539980894)
        res = solve_domain(dom, 1.0, 24, 96)
        ref = _lowest_eigsh(res, 3)
        assert res.stats["negative_pivots"] == 2
        assert ref[1] < res.stats["sigma"] < ref[2]
        assert res.stats["factorizations"] == 1
        assert res.lam == pytest.approx(ref[0], rel=1e-12)
        assert ref[0] == pytest.approx(3.70607, abs=1e-5)

    def test_stalled_iteration_refactors_above_the_ritz_value(self):
        # lambda_2 sits just above the seed's quotient sigma, much nearer to
        # it than lambda_1, so the iteration at sigma is pulled away; the
        # factorization just above the Ritz value counts exactly one
        dom = _rectangle_hole_member(1.3344720734530626, 0.77273318, 0.53210156)
        res = solve_domain(dom, 1.0, 24, 96)
        ref = _lowest_eigsh(res, 2)
        assert res.stats["sigma"] - ref[0] > 10.0 * (ref[1] - res.stats["sigma"]) > 0.0
        assert res.stats["factorizations"] == 2
        assert res.lam == pytest.approx(ref[0], rel=1e-12)

    def test_second_eigenvector_seed_never_gives_lambda_2(self):
        mesh = mesh_annular(ECCENTRIC, 8, 32)
        a, m, free = assemble(mesh, 1.0)
        lams, vecs = eigh(a.toarray(), m.toarray(), subset_by_index=[0, 1])
        try:
            lam, _, _ = smallest_eigenpair(a, m, vecs[:, 1], 2.0 * np.pi * (free % 32) / 32)
        except SolverError as err:
            assert "lambda_1" in str(err)
        else:
            assert lam == pytest.approx(lams[0], rel=1e-12)

    def test_large_pencil_needs_a_seed(self):
        a, m, _ = assemble(mesh_annular(ECCENTRIC, 16, 64), 1.0)
        with pytest.raises(SolverError, match="needs a seed"):
            smallest_eigenpair(a, m)

    def test_chain_solves_densely_only_at_the_floor(self, monkeypatch):
        sizes = []
        dense = fem.eigh

        def recording(h, *args, **kwargs):
            sizes.append(len(h))
            return dense(h, *args, **kwargs)

        monkeypatch.setattr(fem, "eigh", recording)
        solve_domain(AnnularDomain(Circle((0, 0), 2.0), Circle((0.5, 0), 1.0)), 1.0, 48, 192)
        # one 6x24 floor of 144 free nodes; every other call is a small
        # Rayleigh-Ritz problem
        assert max(sizes) == 144 and sorted(sizes)[-2] <= 2
        assert fem.DENSE_FREE_NODES >= 144

    def test_levels_in_either_order_are_bit_identical(self):
        def fresh():
            return AnnularDomain(Circle((0, 0), 2.0), Circle((0.3, 0.2), 0.9))

        up, down = fresh(), fresh()
        coarse_first = [solve_domain(up, 1.0, *res) for res in ((24, 96), (48, 192))]
        fine_first = [solve_domain(down, 1.0, *res) for res in ((48, 192), (24, 96))][::-1]
        for a, b in zip(coarse_first, fine_first):
            assert a.lam == b.lam
            assert np.array_equal(a.u, b.u)

    def test_certificate_on_every_result(self):
        for beta in (0.0, 1.0, math.inf):
            res = solve_domain(ECCENTRIC, beta, 24, 96)
            stats = res.stats
            assert stats["factorizations"] == 1 and stats["negative_pivots"] >= 1
            assert res.lam + stats["error_bound"] < stats["sigma"]
            assert stats["outer_iterations"] >= stats["negative_pivots"]
            report = res.report()
            assert report["factorizations"] == 1 and report["negative_pivots"] >= 1

    def test_mesh_holds_its_domain_weakly(self):
        dom = AnnularDomain(Circle((0, 0), 2.0), Circle((0.5, 0), 1.0))
        ref = weakref.ref(dom)
        res = solve_domain(dom, 1.0, 24, 96)
        del dom
        assert ref() is None
        # an unseeded solve on the orphaned mesh rebuilds the domain
        again = solve_on_mesh(res.mesh, 1.0)
        assert again.lam == res.lam
        other = solve_on_mesh(res.mesh, 2.0)
        assert other.lam == solve_domain(ECCENTRIC, 2.0, 24, 96).lam

    def test_seed_on_the_same_grid(self):
        base = solve_domain(CONCENTRIC, 1.0, 24, 96)
        moved = AnnularDomain(Circle((0, 0), 2.0), Circle((0.01, 0), 1.0))
        seeded = solve_domain(moved, 1.0, 24, 96, seed=base)
        assert seeded.stats["factorizations"] == 1
        assert seeded.lam == pytest.approx(solve_domain(moved, 1.0, 24, 96).lam, rel=1e-13)


class TestSolveDomain:
    def test_eccentric_below_concentric(self):
        lam_con = solve_domain(CONCENTRIC, 1.0, 48, 192).lam
        lam_ecc = solve_domain(ECCENTRIC, 1.0, 48, 192).lam
        assert lam_ecc < lam_con

    def test_large_beta_against_dirichlet_emulation(self):
        # the reciprocal gap is bounded by |Omega| / (beta P(Omega0))
        lam_b = solve_domain(CONCENTRIC, 1e3, 48, 192).lam
        lam_dd = solve_domain(CONCENTRIC, float("inf"), 48, 192).lam
        gap = 1.0 / lam_b - 1.0 / lam_dd
        bound = CONCENTRIC.area / (1e3 * CONCENTRIC.outer.perimeter())
        assert 0.0 <= gap <= bound

    def test_argmax_at_critical_radius(self):
        res = solve_domain(CONCENTRIC, 1.0, 48, 192)
        rad = solve_shell(2, 1.0, 2.0, 1.0)
        radius = float(np.hypot(*res.mesh.nodes[int(np.argmax(res.u))]))
        assert abs(radius - rad.r_bar) <= 2.0 * (1.0 / 48)

    @pytest.mark.parametrize("member", [0, 3])
    def test_large_beta_answers_below_dirichlet(self, member):
        # at beta >= 1e8 the rounding of A u, about eps ||A||_1 ||u||,
        # passes 1e-10 ||u||; the residual check allows it
        domain = standard_family()[member]
        lams = [solve_domain(domain, b, 48, 192).lam for b in (1e8, 1e9, 1e10, math.inf)]
        assert lams == sorted(lams) and lams[-2] < lams[-1]

    def test_thin_eccentric_shell_answers(self):
        # in this thin crescent lambda settles before the eigenvector's
        # residual passes 1e-10 ||u|| from beta = 10 on; the iteration goes
        # on under the same factor instead of stopping on the check
        domain = AnnularDomain(Circle((0, 0), 2.0), Circle((0.04, 0), 1.8))
        for res in ((12, 48), (24, 96), (48, 192)):
            results = [solve_domain(domain, b, *res) for b in (1.0, 10.0, 100.0, 1e3, math.inf)]
            dd = results[-1]
            for lo, hi in zip(results, results[1:]):
                assert lo.lam <= hi.lam + lo.stats["error_bound"] + hi.stats["error_bound"]
                assert lo.lam <= dd.lam + lo.stats["error_bound"] + dd.stats["error_bound"]

    def test_discrete_beta_monotonicity(self):
        mesh = mesh_annular(ECCENTRIC, 24, 96)
        lams = [solve_on_mesh(mesh, b).lam for b in (0.1, 0.5, 1.0, 5.0)]
        for lo, hi in zip(lams, lams[1:]):
            assert lo <= hi + 1e-12 * abs(hi)

    def test_beta_derivative_identity(self):
        res = solve_domain(ECCENTRIC, 1.0, 32, 128)
        formula = beta_form_value(res)
        db = 1e-4
        mesh = res.mesh
        fd = (solve_on_mesh(mesh, 1.0 + db).lam - solve_on_mesh(mesh, 1.0 - db).lam) / (2 * db)
        assert formula == pytest.approx(fd, rel=1e-4)


@settings(max_examples=40, deadline=2000, derandomize=True, database=None)
@given(
    r1=st.floats(0.1, 1.8),
    reach=st.floats(0.0, 0.999),
    phi=st.floats(0.0, 2.0 * math.pi),
    resolution=st.sampled_from([(8, 32), (12, 48)]),
    beta=st.floats(-3.0, 12.0).map(lambda e: 10.0**e),
)
def test_property_sweep(r1, reach, phi, resolution, beta):
    # a hole of radius r1 in radius 2, offset up to 0.999 of the free span:
    # each beta lies between its Neumann (beta = 0) and Dirichlet (inf)
    # solves on the same mesh, within the solves' error bounds, or a solve
    # raises a typed package error (near-touching holes can lose positivity
    # at 8x32, thin shells can stop on the residual check, and beta >= 1e11
    # can leave no reliable factorization)
    offset = reach * (2.0 - r1)
    try:
        domain = AnnularDomain(
            Circle((0, 0), 2.0), Circle((offset * math.cos(phi), offset * math.sin(phi)), r1)
        )
        res, lo, hi = (solve_domain(domain, b, *resolution) for b in (beta, 0.0, math.inf))
    except AnnulusError:
        return
    err = res.stats["error_bound"]
    assert lo.lam - lo.stats["error_bound"] - err <= res.lam
    assert res.lam <= hi.lam + hi.stats["error_bound"] + err


class TestConvergence:
    def test_order_band_concentric(self):
        rad = solve_shell(2, 1.0, 2.0, 1.0)
        study = convergence_study(
            CONCENTRIC, 1.0, [(16, 64), (32, 128), (64, 256)], lam_ref=rad.lam
        )
        assert 1.8 <= study.order <= 2.2

    def test_order_band_eccentric_richardson(self):
        study = convergence_study(ECCENTRIC, 1.0, [(12, 48), (24, 96), (48, 192)])
        assert 1.7 <= study.order <= 2.2

    def test_determinism(self):
        # two equal domains built afresh, so that no memo answers the second
        a = solve_domain(AnnularDomain(Circle((0, 0), 2.0), Circle((0.5, 0), 1.0)), 1.0, 16, 64)
        b = solve_domain(AnnularDomain(Circle((0, 0), 2.0), Circle((0.5, 0), 1.0)), 1.0, 16, 64)
        assert a.lam == b.lam
        assert np.array_equal(a.u, b.u)

    def test_too_few_resolutions(self):
        with pytest.raises(RangeError):
            convergence_study(CONCENTRIC, 1.0, [(8, 32), (16, 64)])


class TestMeshIO:
    def test_mesh_roundtrip(self, tmp_path):
        mesh = mesh_annular(ECCENTRIC, 4, 16)
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        lines = path.read_text().splitlines()
        n, t, e = len(mesh.nodes), len(mesh.triangles), len(mesh.inner_edges) + len(mesh.outer_edges)
        assert lines[0].split() == ["nodes", str(n), "triangles", str(t), "edges", str(e)]
        assert len(lines) == 1 + n + t + e
        # 17 significant digits bring every coordinate back exactly
        nodes = np.array([[float(v) for v in line.split()] for line in lines[1 : 1 + n]])
        assert np.array_equal(nodes, mesh.nodes)
        tris = np.array([[int(v) for v in line.split()] for line in lines[1 + n : 1 + n + t]])
        assert np.array_equal(tris, mesh.triangles)
        edges = [line.split() for line in lines[1 + n + t :]]
        tagged = {
            tag: np.array([[int(i), int(j)] for i, j, k in edges if k == tag])
            for tag in ("outer", "inner")
        }
        assert {k for _, _, k in edges} == {"outer", "inner"}
        assert np.array_equal(tagged["outer"], mesh.outer_edges)
        assert np.array_equal(tagged["inner"], mesh.inner_edges)


class TestPolygonHoleDomain:
    def test_rectangle_hole_solvable(self):
        hole = PolygonCurve(ConvexPolygon.rectangle(1.0, 0.6))
        dom = AnnularDomain(Circle((0, 0), 1.8), hole)
        res = solve_domain(dom, 1.0, 24, 96)
        assert res.lam > 0.0
        assert float(np.min(res.u)) >= -1e-10
