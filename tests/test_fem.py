import functools
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
# (b, half_width, half_height) of a rectangle hole that splits the ellipse
# (2, b) into two lobes (TestInertiaCertificate)
TWO_LOBES = (1.3625328827801515, 0.70327884071576774, 0.60973820539980894)


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
        area = mesh.triangle_areas().sum()
        assert area == pytest.approx(inscribed, rel=1e-13)
        assert area == pytest.approx(3.0 * math.pi, rel=(2.0 * math.pi / 8) ** 2 / 6 * 1.1)

    def test_eccentric_area(self):
        mesh = mesh_annular(ECCENTRIC, 32, 128)
        assert mesh.triangle_areas().sum() == pytest.approx(ECCENTRIC.area, rel=5e-3)

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

    @pytest.mark.parametrize(
        "move, message",
        [
            ("across-ring-neighbour", "mesh contains degenerate or inverted triangles"),
            ("off-hole", "inner boundary nodes are off the curve"),
            ("off-outer", "outer boundary nodes are off the curve"),
        ],
    )
    def test_validation_rejects_moved_node(self, move, message):
        n_r, n_a = 4, 16
        mesh = mesh_annular(ECCENTRIC, n_r, n_a)
        _validate_mesh(mesh, ECCENTRIC)
        nodes = mesh.nodes.copy()
        if move == "across-ring-neighbour":
            # node (2, 5) reflected through node (2, 6): its triangles turn over
            node, neighbour = 2 * n_a + 5, 2 * n_a + 6
            nodes[node] = 2.0 * nodes[neighbour] - nodes[node]
        else:
            inner = move == "off-hole"
            node, curve = (5, ECCENTRIC.inner) if inner else (n_r * n_a + 5, ECCENTRIC.outer)
            nodes[node] += 1e-6 * mesh.scale * curve.outward_normal(nodes[node : node + 1])[0]
        bad = Mesh(nodes, mesh.split, mesh.resolution)
        with pytest.raises(GeometryError, match=message):
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
            k_ff, m_ff, b_ff, free_ff = mesh._free_forms(dirichlet)
            assert m is m_ff and free is free_ff
            block = k_ff if dirichlet else k_ff + beta * b_ff
            assert np.array_equal(a.toarray(), block.toarray())
            # the same entries as slicing the reference K + beta B per beta,
            # in sorted order, once the stored zeros (unused quad diagonals,
            # and the shell's exact zeros of K) are eliminated from both
            stiffness, mass, boundary = _coo_forms(mesh)
            full = stiffness if dirichlet else stiffness + beta * boundary
            sliced = full.tocsr()[free][:, free].sorted_indices()
            _assert_rows_close(a, sliced)
            _assert_rows_close(m, mass[free][:, free])
            stored = a.copy()
            for matrix in (stored, sliced):
                matrix.eliminate_zeros()
            for name in ("indptr", "indices"):
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
        stiffness, mass = fem._element_matrices(nodes, np.array([[0, 1, 2]]))
        expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        assert np.allclose(stiffness[0], expected, atol=1e-15)
        assert np.allclose(mass[0].sum(), 0.5, atol=1e-15)

    def test_mass_partition_of_unity(self):
        mesh = mesh_annular(CONCENTRIC, 8, 32)
        _, mass = fem._element_matrices(mesh.nodes, mesh.triangles)
        assert mass.sum() == pytest.approx(mesh.triangle_areas().sum(), rel=1e-13)

    def test_boundary_mass_partition_of_unity(self):
        # the outer ring is free under the Robin condition: B_ff holds all of B
        mesh = mesh_annular(CONCENTRIC, 8, 32)
        _, _, boundary, _ = mesh._free_forms(False)
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
    def test_matches_coo_reference(self, name, resolution, dirichlet, monkeypatch):
        mesh = mesh_annular(_oracle_domain(name, resolution[1]), *resolution)
        reference = _coo_forms(mesh)
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
        # and the pencil handed to SuperLU is that difference, to the bit
        handed = []

        def recording(pencil, **kwargs):
            handed.append(pencil)
            return splu(pencil, **kwargs)

        monkeypatch.setattr(fem, "splu", recording)
        fem._shifted_factor(a, m, sigma)
        difference = (a - sigma * m).tocsc()
        for field in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(handed[0], field), getattr(difference, field))

    def test_blocks_share_one_pattern(self):
        mesh = mesh_annular(ECCENTRIC, 8, 32)
        mass = _coo_forms(mesh)[1]
        for dirichlet in (False, True):
            k_ff, m_ff, b_ff, free = mesh._free_forms(dirichlet)
            a, _, _ = assemble(mesh, 0.0 if dirichlet else 2.0, dirichlet)
            for block in (m_ff, b_ff, a):
                assert np.shares_memory(block.indices, k_ff.indices)
                assert np.shares_memory(block.indptr, k_ff.indptr)
            # no stored zero of M: the pattern is the reference M's, whose
            # triplets come from the triangles alone
            assert np.all(m_ff.data > 0.0)
            want = mass[free][:, free].sorted_indices()
            assert np.array_equal(m_ff.indptr, want.indptr)
            assert np.array_equal(m_ff.indices, want.indices)

    def test_shifted_factor_neither_subtracts_nor_converts(self, monkeypatch):
        a, m, _ = assemble(mesh_annular(ECCENTRIC, 8, 32), 1.0)
        calls = []

        def recording(cls, name):
            method = getattr(cls, name)

            def wrapped(*args, **kwargs):
                calls.append(f"{cls.__name__}.{name}")
                return method(*args, **kwargs)

            return wrapped

        for cls in (sparse.csr_matrix, sparse.csc_matrix):
            for name in ("__sub__", "__rsub__", "__add__", "tocsc", "tocsr", "tocoo", "asformat"):
                monkeypatch.setattr(cls, name, recording(cls, name))
        lu, p = fem._shifted_factor(a, m, 3.0)
        assert lu is not None and p >= 1
        assert not calls

    def test_later_meshes_neither_sort_nor_convert(self, monkeypatch):
        # the pattern is built once per resolution and outer condition; a
        # later mesh only fills values
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
        # the reference matrices in the natural numbering, permuted
        stiffness, mass, boundary = _coo_forms(mesh)
        full = stiffness if dirichlet else stiffness + boundary
        _assert_rows_close(a, full[free][:, free])
        _assert_rows_close(m, mass[free][:, free])
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
        stats = solve_domain(ECCENTRIC, 1.0, 16, 64).stats
        back = np.argsort(free)
        natural = splu(a[back][:, back].tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0)
        assert stats["factor_nnz"] < 0.5 * natural.nnz
        assert solve_domain(ECCENTRIC, 1.0, 16, 64).report()["factor_nnz"] == stats["factor_nnz"]

    @pytest.mark.parametrize("beta", [0.0, 1.0, math.inf])
    def test_matches_default_ordering_eigsh(self, beta):
        mesh = mesh_annular(ECCENTRIC, 48, 192)
        dirichlet = math.isinf(beta)
        a, m, _ = assemble(mesh, 0.0 if dirichlet else beta, dirichlet)
        ref = eigsh(a.tocsc(), k=1, M=m.tocsc(), sigma=0.0, which="LM", return_eigenvectors=False)
        assert solve_domain(ECCENTRIC, beta, 48, 192).lam == pytest.approx(float(ref[0]), rel=1e-12)

    def test_unstructured_node_count_rejected(self):
        mesh = mesh_annular(CONCENTRIC, 4, 16)
        for nodes, split in ((mesh.nodes[:-1], mesh.split), (mesh.nodes, mesh.split[:-1])):
            with pytest.raises(GeometryError, match="not a structured rings x rays grid"):
                Mesh(nodes, split, (4, 16))


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

    @pytest.mark.parametrize("case, count", [("eccentric", 1), ("two-lobes", 2), ("thin-ring", 7)])
    def test_negative_pivots_count_dense_eigenvalues(self, case, count):
        # the pencils at the seeds' quotients of three 12x48 or 3x192 solves;
        # the thin ring's, like its 8x512 one above, counts 7
        domain, resolution = {
            "eccentric": (ECCENTRIC, (12, 48)),
            "two-lobes": (_rectangle_hole_member(*TWO_LOBES), (12, 48)),
            "thin-ring": (AnnularDomain(Circle((0, 0), 1.05), Circle((0, 0), 1.0)), (3, 192)),
        }[case]
        res = solve_domain(domain, 1.0, *resolution)
        a, m, _ = assemble(res.mesh, 1.0)
        sigma = res.stats["sigma"]
        lams = eigh(a.toarray(), m.toarray(), eigvals_only=True)
        _, p = fem._shifted_factor(a, m, sigma)
        assert p == res.stats["negative_pivots"] == np.count_nonzero(lams < sigma) == count

    def test_eigenvector_structure(self):
        res = solve_domain(CONCENTRIC, 1.0, 32, 128)
        assert np.all(res.u[np.unique(res.mesh.inner_edges)] == 0.0)
        assert float(np.min(res.u)) >= -1e-10
        _, mass, _, free = res.mesh._free_forms(False)
        u = res.u[free]
        assert float(u @ (mass @ u)) == pytest.approx(1.0, rel=1e-12)


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
        dom = _rectangle_hole_member(*TWO_LOBES)
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

    def test_mesh_holds_no_domain(self):
        dom = AnnularDomain(Circle((0, 0), 2.0), Circle((0.5, 0), 1.0))
        ref = weakref.ref(dom)
        res = solve_domain(dom, 1.0, 24, 96)
        del dom
        assert ref() is None
        # above the dense floor only a seed starts a solve on a bare mesh
        with pytest.raises(SolverError, match="needs a seed"):
            solve_on_mesh(res.mesh, 2.0)

    def test_chain_solves_each_level_once(self, monkeypatch):
        solved = []
        solve = fem.solve_on_mesh

        def recording(mesh, beta, seed=None):
            solved.append(mesh.resolution)
            return solve(mesh, beta, seed)

        monkeypatch.setattr(fem, "solve_on_mesh", recording)
        dom = AnnularDomain(Circle((0, 0), 2.0), Circle((0.3, 0.2), 0.9))
        solve_domain(dom, 1.0, 48, 192)
        assert solved == [(6, 24), (12, 48), (24, 96), (48, 192)]
        # the 24x96 level is memoised on its mesh
        solve_domain(dom, 1.0, 24, 96)
        assert len(solved) == 4

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

    @pytest.mark.xfail(raises=SolverError, strict=True, reason="signed first eigenvector")
    def test_long_slot_in_a_flat_ellipse_answers(self):
        # a slot reaching to 0.5 of the ellipse's far vertex, meshed on rays
        # from its centroid: the discrete first eigenvector is signed at
        # every level from 2x8 (min / max -0.087) to 64x256 (-0.008), so the
        # positivity check of solve_on_mesh raises at the dense floor
        slot = ConvexPolygon(np.array([[-0.2, -0.1], [2.5, -0.1], [2.5, 0.1], [-0.2, 0.1]]))
        domain = AnnularDomain(Ellipse((0, 0), 3.0, 0.6), PolygonCurve(slot))
        result = solve_domain(domain, 1.0, 16, 64)
        assert result.lam > 0.0 and np.min(result.u) >= -1e-10

    @pytest.mark.parametrize("member", [0, 3])
    def test_large_beta_answers_below_dirichlet(self, member):
        # at beta >= 1e8 the rounding of A u, about eps ||A||_1 ||u||,
        # passes 1e-10 ||u||; the residual check allows it
        domain = standard_family()[member]
        lams = [solve_domain(domain, b, 48, 192).lam for b in (1e8, 1e9, 1e10, math.inf)]
        assert lams == sorted(lams) and lams[-2] < lams[-1]

    @pytest.mark.parametrize("member", [0, 6, 7])
    def test_beta_1e12_answers_between_1e4_and_dirichlet(self, member):
        # the Robin rows' pivots grow like beta h: against the largest pivot
        # every shift at beta = 1e12 looked singular on these members, against
        # its own diagonal entry of A - sigma M each pivot stays well away
        domain = standard_family()[member]
        lo, mid, hi = (solve_domain(domain, b, 48, 192).lam for b in (1e4, 1e12, math.inf))
        assert lo <= mid <= hi

    @pytest.mark.parametrize("resolution", [(16, 64), (48, 192)])
    def test_floor_shift_at_least_the_seed_quotient(self, resolution):
        # at beta = 1e13 dense eigh's eigenvalues on member 7's floor err by
        # more than lambda_2 - lambda_1, and a shift a quarter of their gap
        # above their lambda_1 fell below the true one: no reliable
        # factorization followed; the seed's quotient bounds it from above
        domain = standard_family()[7]
        lams = [solve_domain(domain, b, *resolution).lam for b in (1e4, 1e12, 1e13, math.inf)]
        assert lams == sorted(lams)

    def test_thin_eccentric_shell_answers(self):
        # in this thin crescent lambda settles before the eigenvector's
        # residual passes 1e-10 ||u|| from beta = 10 on; the iteration holds
        # the vector to its residual target and goes on until it passes
        domain = AnnularDomain(Circle((0, 0), 2.0), Circle((0.04, 0), 1.8))
        for res in ((12, 48), (24, 96), (48, 192)):
            results = [solve_domain(domain, b, *res) for b in (1.0, 10.0, 100.0, 1e3, math.inf)]
            dd = results[-1]
            for lo, hi in zip(results, results[1:]):
                assert lo.lam <= hi.lam + lo.stats["error_bound"] + hi.stats["error_bound"]
                assert lo.lam <= dd.lam + lo.stats["error_bound"] + dd.stats["error_bound"]

    @pytest.mark.parametrize("beta", [math.nan, -1.0, -math.inf])
    def test_invalid_beta_refused_before_the_chain(self, beta):
        dom = AnnularDomain(Circle((0, 0), 2.0), Circle((0.5, 0), 1.0))
        with pytest.raises(RangeError):
            solve_domain(dom, beta, 48, 192)
        assert list(dom._meshes) == [(48, 192)]

    def test_discrete_beta_monotonicity(self):
        lams = [solve_domain(ECCENTRIC, b, 24, 96).lam for b in (0.1, 0.5, 1.0, 5.0)]
        for lo, hi in zip(lams, lams[1:]):
            assert lo <= hi + 1e-12 * abs(hi)

    @pytest.mark.parametrize("beta", [0.0, 1.0, math.inf])
    def test_hole_residual_matches_coo_reference(self, beta):
        # rows 0 and 1 are the hole ring and the outer ring of K u - lambda M u,
        # B left out: on a Robin outer ring that row is -beta B u, and at
        # beta = 0 only the solve's residual
        res = solve_domain(ECCENTRIC, beta, 16, 64)
        stiffness, mass, boundary = _coo_forms(res.mesh)
        want = (stiffness @ res.u - res.lam * (mass @ res.u)).reshape(17, 64)[[0, 16]]
        got = fem.boundary_residual(res)
        assert got.shape == (2, 64)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        if 0.0 < beta < math.inf:
            robin = -beta * (boundary @ res.u)[-64:]
            assert np.max(np.abs(got[1] - robin)) <= 1e-8 * np.max(np.abs(robin))

    def test_beta_derivative_identity(self):
        res = solve_domain(ECCENTRIC, 1.0, 32, 128)
        formula = beta_form_value(res)
        db = 1e-4
        fd = (
            solve_domain(ECCENTRIC, 1.0 + db, 32, 128).lam
            - solve_domain(ECCENTRIC, 1.0 - db, 32, 128).lam
        ) / (2 * db)
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


FAMILY = standard_family()


def _scaled_domain(dom, k):
    """The domain with every point and centre times 2^k, exact in floating point."""
    s = math.ldexp(1.0, k)
    curves = []
    for curve in (dom.outer, dom.inner):
        if isinstance(curve, PolygonCurve):
            curves.append(PolygonCurve(ConvexPolygon(curve.polygon.vertices * s)))
        elif isinstance(curve, Circle):
            curves.append(Circle(tuple(np.asarray(curve.center) * s), curve.radius * s))
        else:
            curves.append(Ellipse(tuple(np.asarray(curve.center) * s), curve.a * s, curve.b * s))
    return AnnularDomain(*curves, dom.center * s)


@functools.lru_cache(maxsize=None)
def _unscaled_fem_lam(member, beta):
    return solve_domain(FAMILY[member], beta, 16, 64).lam


# RuntimeWarnings as errors: the plain "error" filter would also raise the
# deprecation warning that hypothesis's failure report meets
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    member=st.integers(0, len(FAMILY) - 1),
    beta=st.sampled_from([0.0, 0.1, 1.0, 10.0, 1e4, math.inf]),
    k=st.integers(-500, 500),
)
def test_fem_eigenvalue_is_covariant_under_power_of_two_scaling(member, beta, k):
    # scaling the domain by 2^k and beta by 2^-k scales lambda_h by 4^-k; below
    # about 2^-260 the eigensolver's residual sums and its settle test once
    # overflowed, as lambda_h^2 and r' diag(M)^-1 r pass the largest float
    lam = solve_domain(_scaled_domain(FAMILY[member], k), beta * 2.0**-k, 16, 64).lam
    expected = _unscaled_fem_lam(member, beta)
    assert abs(lam * 4.0**k - expected) <= 4.0 * EPS * expected


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "k, error, message",
    [
        # the entries of M reach the float minimum, and dense eigh gives no pair
        (-508, SolverError, "dense eigh gave 0 of the floor's two smallest eigenpairs"),
        (510, RangeError, r"mesh extent 1\.34078e\+154 squares beyond the float range"),
    ],
    ids=["floor", "extent"],
)
def test_fem_scale_ends_typed(k, error, message):
    for beta in (1.0, math.inf):
        with pytest.raises(error, match=message):
            solve_domain(_scaled_domain(FAMILY[3], k), beta * 2.0**-k, 16, 64)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", range(-507, -501))
def test_fem_answers_or_ends_typed_down_to_the_dense_floor(k):
    # r' diag(M)^-1 r is summed on diag(M) scaled by an even power of two,
    # as 1 / diag(M) grows like 4^-k and overflowed from k = -504.  From
    # k = -506 the smallest entries of M are subnormal and keep fewer bits,
    # which moves lambda_h by a few more roundings
    tol = (4.0 if k >= -505 else 8.0) * EPS
    answered = 0
    for member, dom in enumerate(FAMILY):
        for beta in (0.0, 0.1, 1.0, 10.0, 1e4, math.inf):
            try:
                lam = solve_domain(_scaled_domain(dom, k), beta * 2.0**-k, 16, 64).lam
            except SolverError:
                continue
            expected = _unscaled_fem_lam(member, beta)
            assert abs(lam * 4.0**k - expected) <= tol * expected, (member, beta)
            answered += 1
    assert answered > 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [-520, -540, -560, -1000])
def test_fem_below_the_floor_ends_in_the_extent_gate(k):
    # below 2^-511 a length squares below the normal floats, where an
    # ellipse's ray casting once overflowed and a circle's meshes came out
    # off the curve, degenerate or not star shaped
    for dom in FAMILY:
        for beta in (1.0, math.inf):
            with pytest.raises(RangeError, match="squares below the normal floats"):
                solve_domain(_scaled_domain(dom, k), beta * 2.0**-k, 16, 64)


class TestConvergence:
    def test_order_band_concentric(self):
        rad = solve_shell(2, 1.0, 2.0, 1.0)
        study = convergence_study(
            CONCENTRIC, 1.0, [(16, 64), (32, 128), (64, 256)], lam_ref=rad.lam
        )
        assert 1.8 <= study.order <= 2.2

    def test_order_band_eccentric_richardson(self):
        # the reference is the Richardson value of the two finest levels,
        # assuming second order
        coarse, fine = (solve_domain(ECCENTRIC, 1.0, *res) for res in ((24, 96), (48, 192)))
        ratio = (coarse.mesh.max_edge_length() / fine.mesh.max_edge_length()) ** 2
        lam_ref = (ratio * fine.lam - coarse.lam) / (ratio - 1.0)
        study = convergence_study(ECCENTRIC, 1.0, [(12, 48), (24, 96), (48, 192)], lam_ref)
        assert 1.7 <= study.order <= 2.2

    def test_determinism(self):
        # two equal domains built afresh, so that no memo answers the second
        a = solve_domain(AnnularDomain(Circle((0, 0), 2.0), Circle((0.5, 0), 1.0)), 1.0, 16, 64)
        b = solve_domain(AnnularDomain(Circle((0, 0), 2.0), Circle((0.5, 0), 1.0)), 1.0, 16, 64)
        assert a.lam == b.lam
        assert np.array_equal(a.u, b.u)

    def test_too_few_resolutions(self):
        with pytest.raises(RangeError):
            convergence_study(CONCENTRIC, 1.0, [(8, 32), (16, 64)], 1.0)


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

    def test_polygon_pair_scaled_by_2_400_answers(self):
        # coordinates near 2.6e120 once overflowed the hole's centroid; the
        # scaled pair gives the unit pair's lambda scaled by 2^-800
        outer, hole = ConvexPolygon.regular(6, 2.0), ConvexPolygon.rectangle(1.0, 0.6)
        lam = solve_domain(AnnularDomain(PolygonCurve(outer), PolygonCurve(hole)), 1.0, 8, 32).lam
        s = 2.0**400
        big = AnnularDomain(
            PolygonCurve(ConvexPolygon(outer.vertices * s)),
            PolygonCurve(ConvexPolygon(hole.vertices * s)),
        )
        assert solve_domain(big, 1.0 / s, 8, 32).lam * s * s == pytest.approx(lam, rel=1e-13)
