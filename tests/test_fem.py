import math

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.sparse.linalg import eigsh, splu

from annulus_spectra import fem
from annulus_spectra.errors import GeometryError, RangeError, StarShapeError
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
from annulus_spectra.geometry import AnnularDomain, Circle, ConvexPolygon, PolygonCurve
from annulus_spectra.radial import solve_shell

CONCENTRIC = AnnularDomain(Circle((0, 0), 2.0), Circle((0, 0), 1.0))
ECCENTRIC = AnnularDomain(Circle((0, 0), 2.0), Circle((0.5, 0), 1.0))


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
        assert np.max(ECCENTRIC.inner.distance(mesh.nodes[mesh.inner_nodes])) < 1e-12
        assert np.max(ECCENTRIC.outer.distance(mesh.nodes[mesh.outer_nodes])) < 1e-12

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
        mesh = mesh_annular(AnnularDomain(Circle((0, 0), 2.0), Circle((0.5, 0), 1.0)), 8, 32)
        dirichlet = math.isinf(beta)
        a, m, free = assemble(mesh, 0.0 if dirichlet else beta, dirichlet)
        stiffness, mass, boundary = mesh.forms
        full = stiffness if dirichlet else stiffness + beta * boundary
        assert np.array_equal(a.toarray(), full[free][:, free].toarray())
        assert np.array_equal(m.toarray(), mass[free][:, free].toarray())
        # the same entries in the same order as slicing K + beta B per beta
        sliced = full.tocsr()[free][:, free]
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a, name), getattr(sliced, name))
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
        stiffness, mass, _ = mesh.forms
        expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        assert np.allclose(stiffness.toarray(), expected, atol=1e-15)
        assert np.allclose(mass.toarray().sum(), 0.5, atol=1e-15)

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
        assert a.shape[0] == m.shape[0] == len(free) == len(mesh.nodes) - len(mesh.inner_nodes)
        assert not set(free.tolist()) & set(mesh.inner_nodes.tolist())
        a2, _, free2 = assemble(mesh, 0.0, dirichlet_outer=True)
        assert a2.shape[0] == len(mesh.nodes) - len(mesh.inner_nodes) - len(mesh.outer_nodes)

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
        _, _, stats = smallest_eigenpair(a, m)
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
        # dense LAPACK on the same pencil is an eigensolver independent of
        # the sparse LU + Lanczos path.  Its eigenvalue carries a backward
        # error near eps * ||A|| (up to 5e-13 here); the Rayleigh quotient of
        # its eigenvector is exact to round-off, which error_bound can bound.
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
        assert np.all(res.u[res.mesh.inner_nodes] == 0.0)
        assert float(np.min(res.u)) >= -1e-10
        _, mass, _ = res.mesh.forms
        assert float(res.u @ (mass @ res.u)) == pytest.approx(1.0, rel=1e-12)


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
        a = solve_domain(ECCENTRIC, 1.0, 16, 64)
        b = solve_domain(ECCENTRIC, 1.0, 16, 64)
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
