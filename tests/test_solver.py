import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from oracles import (
    T_DISK_P15,
    T_DISK_P2,
    T_DISK_P3,
    T_UNIT_SQUARE,
    _LEAF,
    _dissection_order,
    _free_edges,
    angle_range_degrees,
    boundary_subdivision_loop,
    delaunay_tie_gap,
    full_delaunay_mesh,
    independent_ladder,
    kept_lattice_rows,
    load_vector_add_at,
    max_edge_length,
    numbered_mesh,
    p2_field_minimum_degree,
    rayleigh_quotient,
    smoothing_sweep_add_at,
    stiffness_coo,
    torsion_rectangle_series,
)
import webtorsion.solver as solver_mod
from webtorsion.bounds import bound_report, c_p, q_exponent
from webtorsion.errors import BadExponent, NoConvergence, NonMonotoneConvergence, TooFine
from webtorsion.geometry import metrics, polygon_from_vertices, scale
from webtorsion.parallel import WeightProfile, inner_body, profile
from webtorsion.shapes import disk, rectangle, slab_upper_bound, torsion_p_ball
from webtorsion.solver import (
    richardson_T,
    solve_torsion,
    triangulate,
)

W1 = WeightProfile.constant(1.0)
WEIGHTS = (W1, WeightProfile.truncated_linear(1.0, 1.0), WeightProfile.exponential(1.0, 1.0))


def _recomputed_state(res):
    """Energy, gradient norm and |F| of a nonlinear result's field, assembled
    afresh with the solver's regularization."""
    mesh, p = res.mesh, res.p
    G, area, m = mesh._gradient, mesh.triangle_areas, len(mesh.triangles)
    eps2 = (solver_mod._EPS_REG * metrics(mesh.polygon).diameter) ** 2
    F = solver_mod._load_vector(mesh, res.weight)
    x = res.u[mesh.n_boundary:]
    g = G @ x
    s = g[:m] ** 2 + g[m:] ** 2 + eps2
    J = float(np.sum(area * s ** (p / 2.0))) / p - float(F @ x)
    grad = G.T @ (np.tile(area * s ** ((p - 2.0) / 2.0), 2) * g) - F
    return J, float(np.linalg.norm(grad)), float(np.linalg.norm(F))


def _load_term(res):
    """The load term F . u of a result's field, assembled by the oracle. At
    the discrete optimum it equals -p/(p-1) J; the quotient T meets that
    identity whenever the field has its optimal amplitude, converged or not."""
    return float(load_vector_add_at(res.mesh, res.weight) @ res.u[res.mesh.n_boundary:])


def _assert_torsion_is_the_quotient(res):
    """T of a constant-weight solve on disk(1, 256) is the quotient of its own
    field and lies below the disk's exact T. A relative error d in the
    Dirichlet sum moves the quotient by d / (p - 1); the solver's sum carries
    its regularization eps2, 2.5e-13 of it at p = 1.2. At p = 1.2 on the disk
    at h = 0.05, F . u alone is off by 5.3e-4."""
    p = res.p
    Q = rayleigh_quotient(res.mesh, W1, p, res.u)
    assert res.torsion == pytest.approx(Q, rel=1e-12 / (p - 1.0), abs=0.0)
    assert res.torsion < torsion_p_ball(p)


class TestTriangulate:
    def test_square_coarse(self, unit_square):
        mesh = triangulate(unit_square, 0.5 * 0.99)
        assert len(mesh.triangles) >= 8
        bnd = mesh.nodes[: mesh.n_boundary]
        assert np.all(np.abs(unit_square.signed_distance(bnd)) < 1e-12)

    def test_node_count_scales_like_h_squared(self, unit_square):
        n1 = triangulate(unit_square, 1.0 / 16).node_count
        n2 = triangulate(unit_square, 1.0 / 32).node_count
        n3 = triangulate(unit_square, 1.0 / 64).node_count
        assert 3.0 < n2 / n1 < 5.2
        assert 3.0 < n3 / n2 < 5.2

    def test_positive_orientation_and_tiling(self, small_corpus):
        for poly in small_corpus[:8] + [disk(1.0, 256)[0], rectangle(0.1)[0]]:
            m = metrics(poly)
            mesh = triangulate(poly, m.inradius / 4.0)
            assert np.all(mesh.triangle_areas > 0)
            assert float(np.sum(mesh.triangle_areas)) == pytest.approx(m.area, rel=1e-12)
            # boundary nodes first; smoothing keeps the free nodes >= 0.32 h inside
            nb = mesh.n_boundary
            assert np.array_equal(mesh.nodes[:nb], boundary_subdivision_loop(poly.vertices, mesh.h))
            assert np.all(np.abs(poly.signed_distance(mesh.nodes[:nb])) <= 1e-12)
            assert np.all(poly.signed_distance(mesh.nodes[nb:]) >= 0.3 * mesh.h)

    def test_canonical_shape_quality(self, unit_square):
        # right-angled corners and no sub-h boundary edges: the 15 degree
        # floor is attainable and must hold
        for mesh in (
            triangulate(unit_square, 1.0 / 24),
            triangulate(rectangle(0.2)[0], 0.1 / 8),
            triangulate(disk(1.0, 256)[0], 1.0 / 24),
        ):
            assert angle_range_degrees(mesh.nodes, mesh.triangles)[0] >= 15.0
            assert max_edge_length(mesh.nodes, mesh.triangles) <= 1.35 * mesh.h

    def test_fuzz_mesh_quality(self, small_corpus):
        # bodies with needle corners force matching small angles; what P1
        # accuracy needs is the upper angle bound
        for poly in small_corpus[:10]:
            mesh = triangulate(poly, metrics(poly).inradius / 6.0)
            assert angle_range_degrees(mesh.nodes, mesh.triangles)[1] <= 150.0
            assert max_edge_length(mesh.nodes, mesh.triangles) <= 1.7 * mesh.h

    def test_thin_rectangle(self):
        poly = polygon_from_vertices([(-5, -0.05), (5, -0.05), (5, 0.05), (-5, 0.05)])
        mesh = triangulate(poly, 0.02)
        assert mesh.node_count < 120_000
        assert angle_range_degrees(mesh.nodes, mesh.triangles)[0] >= 15.0

    def test_h_out_of_range(self, unit_square):
        with pytest.raises(ValueError):
            triangulate(unit_square, 0.6)
        with pytest.raises(ValueError):
            triangulate(unit_square, 0.0)

    def test_one_delaunay_call(self, unit_square, monkeypatch):
        # the smoothing sweep keeps the connectivity of the first triangulation,
        # and qhull sees only the strip of points off the deep lattice: the 72
        # boundary points and the 78 lattice points of the outer rows and
        # columns
        calls = []
        real = solver_mod.Delaunay
        monkeypatch.setattr(solver_mod, "Delaunay", lambda pts: calls.append(len(pts)) or real(pts))
        mesh = triangulate(unit_square, 1.0 / 16)
        assert mesh.node_count == 490
        assert calls == [150]

    def test_strip_route_matches_full_delaunay(self, small_corpus):
        # on the same points before smoothing, one qhull call on every point
        # gives the same triangles up to flips of cocircular quadrilaterals
        # (only rectangle(0.1) has one, at 8e-12 h^4), and then the same
        # nodes, in the same numbering, up to the order of the smoothing sums
        c, s = math.cos(0.3), math.sin(0.3)
        rotated = polygon_from_vertices(
            [(c * x - s * y, s * x + c * y) for x, y in [(0, 0), (1, 0), (1, 1), (0, 1)]])
        cases = [(poly, metrics(poly).inradius / 4.0) for poly in small_corpus[:8]]
        cases += [(disk(1.0, 256)[0], 0.02), (rotated, 1.0 / 24), (rectangle(0.1)[0], 0.0125)]
        ties = 0
        for poly, h in cases:
            pts, nb, lattice = solver_mod._mesh_points(poly, h)
            mesh = triangulate(poly, h)
            nodes, tris = full_delaunay_mesh(poly, pts, nb, h)
            differ, gap = delaunay_tie_gap(pts, mesh.triangles, tris, h)
            assert gap <= 1e-10
            if differ:
                ties += 1
            else:
                assert np.abs(mesh.nodes - nodes).max() <= 1e-12 * h
        assert ties <= 1

    def test_without_deep_points_qhull_meshes_every_node(self, unit_square, monkeypatch):
        # at h = 0.49 no lattice point has six deep triangles around it
        calls = []
        real = solver_mod.Delaunay
        monkeypatch.setattr(solver_mod, "Delaunay", lambda pts: calls.append(len(pts)) or real(pts))
        mesh = triangulate(unit_square, 0.49)
        assert calls == [mesh.node_count] == [16]
        pts, nb, _ = solver_mod._mesh_points(unit_square, 0.49)
        nodes, tris = full_delaunay_mesh(unit_square, pts, nb, 0.49)
        assert delaunay_tie_gap(pts, mesh.triangles, tris, 0.49)[0] == 0
        assert np.abs(mesh.nodes - nodes).max() <= 1e-12

    def test_smoothing_sums_match_add_at_bitwise(self):
        for poly, h in ((disk(1.0, 256)[0], 0.05), (rectangle(0.1)[0], 0.0125)):
            pts, nb, lattice = solver_mod._mesh_points(poly, h)
            tris = solver_mod._delaunay_triangles(pts, h, lattice)
            got = solver_mod._smoothed(poly, pts, tris, nb, 0.32 * h)
            assert got.tobytes() == smoothing_sweep_add_at(poly, pts, tris, nb, 0.32 * h).tobytes()

    def test_two_calls_give_identical_meshes(self, small_corpus):
        for poly, h in ((small_corpus[0], metrics(small_corpus[0]).inradius / 6.0),
                        (disk(1.0, 256)[0], 0.02)):
            a, b = triangulate(poly, h), triangulate(poly, h)
            assert a.nodes.tobytes() == b.nodes.tobytes()
            assert a.triangles.tobytes() == b.triangles.tobytes()

    def test_free_nodes_permute_the_kept_lattice(self, unit_square, small_corpus):
        # the kept lattice points come row by row, and the mesh's free nodes
        # are those points after smoothing, in the same order
        cases = [(unit_square, 1.0 / 64), (disk(1.0, 256)[0], 0.02), (rectangle(0.1)[0], 0.0125),
                 (small_corpus[1], metrics(small_corpus[1]).inradius / 4.0)]
        for poly, h in cases:
            pts, nb, lattice = solver_mod._mesh_points(poly, h)
            node = lattice[4]
            assert np.array_equal(node[node >= 0], np.arange(nb, len(pts)))
            assert pts[nb:].tobytes() == kept_lattice_rows(poly, h).tobytes()
            smoothed = solver_mod._smoothed(
                poly, pts, solver_mod._delaunay_triangles(pts, h, lattice), nb, 0.32 * h)
            mesh = triangulate(poly, h)
            assert mesh.n_boundary == nb
            assert mesh.nodes.tobytes() == smoothed.tobytes()

    def test_identity_order_below_one_leaf(self, unit_square):
        # 4 free nodes, fewer than one leaf box holds, and none at all
        mesh = triangulate(unit_square, 0.49)
        pts, nb, _ = solver_mod._mesh_points(unit_square, 0.49)
        assert len(pts) == nb + 4 and mesh.n_boundary == nb
        edges = _free_edges(mesh.triangles, nb)
        assert np.array_equal(_dissection_order(mesh.nodes[nb:], edges), np.arange(4))
        none = np.zeros(0, dtype=np.int64)
        assert len(_dissection_order(np.zeros((0, 2)), (none, none))) == 0

    def test_free_edges_once_each(self, unit_square):
        for mesh in (triangulate(unit_square, 1.0 / 16),
                     solver_mod._refined(triangulate(disk(1.0, 256)[0], 0.2))):
            nb = mesh.n_boundary
            i, j = _free_edges(mesh.triangles, nb)
            pairs = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1) - nb
            ref = np.unique(pairs[pairs.min(axis=1) >= 0], axis=0)
            assert np.all(i < j)
            assert np.array_equal(np.unique(np.column_stack((i, j)), axis=0), ref)
            assert len(i) == len(ref)

    def test_single_row_of_free_nodes(self):
        # the low corner shifts the lattice rows so that only one row is
        # kept: the box has no extent across and splits along x only
        poly = polygon_from_vertices([(-0.02, -0.002), (2, 0), (2, 0.1), (0, 0.1)])
        h = 0.95 * metrics(poly).inradius
        pts, nb, _ = solver_mod._mesh_points(poly, h)
        assert len(np.unique(pts[nb:, 1])) == 1
        assert len(pts) - nb > _LEAF
        mesh = triangulate(poly, h)
        order = _dissection_order(mesh.nodes[nb:], _free_edges(mesh.triangles, nb))
        assert np.array_equal(np.sort(order), np.arange(len(pts) - nb))
        assert float(np.sum(mesh.triangle_areas)) == pytest.approx(metrics(poly).area, rel=1e-12)
        ref = p2_field_minimum_degree(mesh, W1)
        u = solve_torsion(mesh, W1, 2.0).u
        assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_node_budget(self, unit_square, monkeypatch):
        monkeypatch.setattr(solver_mod, "_MAX_NODES", 100)
        with pytest.raises(TooFine):
            triangulate(unit_square, 1.0 / 32)

    def test_budget_counts_lattice_rows_within_the_polygon(self, monkeypatch):
        # a thin rectangle on the diagonal fills under 4% of its bounding box,
        # whose lattice alone (about 150k points) would exceed the budget
        poly = polygon_from_vertices([(0.01, -0.01), (1.01, 0.99), (0.99, 1.01), (-0.01, 0.01)])
        monkeypatch.setattr(solver_mod, "_MAX_NODES", 20_000)
        mesh = triangulate(poly, metrics(poly).inradius / 4.0)
        assert 2_000 < mesh.node_count < 20_000

    def test_budget_checked_before_allocating(self, unit_square):
        # about 11M candidate points: rejected before the lattice is built
        tracemalloc.start()
        try:
            with pytest.raises(TooFine):
                triangulate(unit_square, 4e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestDiscretization:
    def test_stiffness_matches_element_assembly(self, small_corpus):
        poly = small_corpus[0]
        for mesh in (
            triangulate(poly, metrics(poly).inradius / 6.0),
            triangulate(disk(1.0, 256)[0], 1.0 / 12),
        ):
            nb = mesh.n_boundary
            ref = stiffness_coo(mesh.nodes, mesh.triangles)[nb:, nb:]
            K = mesh._stiffness
            assert abs(K - ref).max() <= 1e-13 * abs(ref).max()

    def test_load_vector_matches_add_at_bitwise(self):
        mesh = triangulate(disk(1.0, 256)[0], 0.05)
        for weight in (W1, WeightProfile.constant(2.5), WeightProfile.truncated_linear(1.0, 0.0),
                       WeightProfile.exponential(1.0, 0.0), WeightProfile.exponential(1.0, 1.0)):
            got = solver_mod._load_vector(mesh, weight)
            assert got.tobytes() == load_vector_add_at(mesh, weight).tobytes()

    def test_constant_load_needs_no_depths(self, unit_square, monkeypatch):
        mesh = triangulate(unit_square, 0.25)
        monkeypatch.setattr(type(unit_square), "signed_distance", None)
        for weight in (W1, WeightProfile.truncated_linear(2.0, 0.0)):
            assert solver_mod._load_vector(mesh, weight).shape == (mesh.node_count - mesh.n_boundary,)

    def test_one_factorization_per_mesh(self, unit_square, monkeypatch):
        calls = []
        real = solver_mod.splu
        monkeypatch.setattr(solver_mod, "splu",
                            lambda K, **kw: calls.append(K.shape) or real(K, **kw))
        mesh = triangulate(unit_square, 1.0 / 16)
        solve_torsion(mesh, W1, 2.0)
        solve_torsion(mesh, WeightProfile.exponential(1.0, 1.0), 3.0)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "poly, h, refinements",
        [
            (polygon_from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)]), 1.0 / 64, 0),
            (disk(1.0, 256)[0], 1.0 / 24, 0),
            (rectangle(0.1)[0], 0.05 / 4, 0),
            (rectangle(0.05)[0], 0.025 / 4, 0),
            (polygon_from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)]), 1.0 / 32, 1),
            (disk(1.0, 256)[0], 1.0 / 24, 1),
        ],
        ids=["square", "disk", "rectangle", "thin_rectangle", "refined_square", "refined_disk"],
    )
    def test_lu_solves_stiffness(self, poly, h, refinements):
        # no pivoting: K_ff is symmetric positive definite; the refined
        # square (7,317 free nodes) and disk (12,877) lie on either side of
        # _MG_MIN_FREE
        mesh = _refined_times(triangulate(poly, h), refinements)[-1]
        K, lu = mesh._stiffness, mesh._stiffness_lu
        b = np.random.default_rng(0).standard_normal(K.shape[0])
        assert np.linalg.norm(K @ lu.solve(b) - b) <= 1e-12 * np.linalg.norm(b)

    def test_symmetric_ordering_fills_less_than_colamd(self, unit_square):
        from scipy.sparse.linalg import splu

        # both in COLAMD order: the LU's diagonal pivots in symmetric mode
        # fill less than splu's default partial pivoting
        mesh = triangulate(unit_square, 1.0 / 96)
        K, lu = mesh._stiffness, mesh._stiffness_lu
        assert lu.nnz < splu(K).nnz

    @pytest.mark.parametrize("case", ["square", "disk", "corpus"])
    def test_same_torsion_as_numbered_meshes(self, case, small_corpus):
        # the meshes numbered at build time in nested-dissection order and
        # factorized in it: the same T at every p, to the solvers' accuracy;
        # the refined square is solved by V-cycle CG at p = 2
        mesh = {
            "square": lambda: solver_mod._refined(triangulate(_fresh_square(), 1.0 / 48)),
            "disk": lambda: triangulate(disk(1.0, 256)[0], 0.04),
            "corpus": lambda: solver_mod._refined(
                triangulate(small_corpus[3], metrics(small_corpus[3]).inradius / 4.0)),
        }[case]()
        numbered = numbered_mesh(mesh)
        assert not np.array_equal(numbered.nodes, mesh.nodes)
        for p, rel in ((1.5, 1e-9), (2.0, 1e-12), (3.0, 1e-9)):
            T, T_numbered = (solve_torsion(m, W1, p).torsion for m in (mesh, numbered))
            assert T == pytest.approx(T_numbered, rel=rel, abs=0.0)

    @pytest.mark.parametrize("case", ["square", "disk", "rectangle", "corpus"])
    def test_p2_matches_minimum_degree_route(self, case, small_corpus):
        poly, h = {
            "square": lambda: (polygon_from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)]), 1.0 / 64),
            "disk": lambda: (disk(1.0, 256)[0], 1.0 / 24),
            "rectangle": lambda: (rectangle(0.1)[0], 0.0125),
            "corpus": lambda: (small_corpus[0], metrics(small_corpus[0]).inradius / 6.0),
        }[case]()
        mesh = triangulate(poly, h)
        ref = p2_field_minimum_degree(mesh, W1)
        u = solve_torsion(mesh, W1, 2.0).u
        assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.fixture(scope="module")
def disk_plateau():
    """The p = 1.2 solve on disk(1, 256) at h = 0.05, which the plateau guard
    stops after thousands of iterations."""
    return solve_torsion(triangulate(disk(1.0, 256)[0], 0.05), W1, 1.2)


class TestSolve:
    def test_square_p2(self, unit_square):
        mesh = triangulate(unit_square, 1.0 / 64)
        res = solve_torsion(mesh, W1, 2.0)
        assert res.torsion == pytest.approx(T_UNIT_SQUARE, rel=0.01)
        assert res.stop_reason == "linear"
        assert res.u.min() >= -1e-12
        assert np.all(res.u[: mesh.n_boundary] == 0.0)

    def test_disk_p2(self):
        poly, _ = disk(1.0, 256)
        res = solve_torsion(triangulate(poly, 1.0 / 24), W1, 2.0)
        assert res.torsion == pytest.approx(T_DISK_P2, rel=0.01)

    def test_disk_p3(self):
        poly, _ = disk(1.0, 256)
        res = solve_torsion(triangulate(poly, 1.0 / 24), W1, 3.0)
        assert res.torsion == pytest.approx(T_DISK_P3, rel=0.01)

    def test_disk_p15(self):
        poly, _ = disk(1.0, 256)
        res = solve_torsion(triangulate(poly, 1.0 / 24), W1, 1.5)
        assert res.torsion == pytest.approx(T_DISK_P15, rel=0.01)

    def test_energy_identity(self, small_corpus):
        # F . u = -p/(p-1) J at the discrete optimum, for any weight
        weighted = (WeightProfile.truncated_linear(1.0, 1.0),
                    WeightProfile.exponential(1.0, 1.0))
        cases = [(W1, p) for p in (1.5, 2.0, 3.0)]
        cases += [(w, p) for w in weighted for p in (1.5, 3.0)]
        for poly in small_corpus[:4]:
            mesh = triangulate(poly, metrics(poly).inradius / 6.0)
            for w, p in cases:
                res = solve_torsion(mesh, w, p, tol=1e-11)
                assert _load_term(res) == pytest.approx(
                    -p / (p - 1.0) * res.energy, rel=1e-6
                )

    def test_carried_state_matches_the_returned_field(self, small_corpus):
        # the iteration carries G x, F . x and the energy through its line
        # searches; recomputed from the returned field they must agree
        for poly in small_corpus[:4]:
            mesh = triangulate(poly, metrics(poly).inradius / 6.0)
            solve_torsion(mesh, W1, 2.0)
            assert "_gradient_T" not in mesh.__dict__  # built by p != 2 solves only
            transposes = []
            for w in WEIGHTS:
                for p in (1.5, 3.0, 10.0):
                    res = solve_torsion(mesh, w, p)
                    J, grad_norm, F_norm = _recomputed_state(res)
                    assert res.energy == pytest.approx(J, rel=1e-12)
                    assert abs(res.grad_norm - grad_norm) <= 1e-10 * F_norm
                    transposes.append(mesh._gradient_T)
            GT = transposes[0]
            assert GT.format == "csr" and (GT != mesh._gradient.T).nnz == 0
            assert all(t is GT for t in transposes)

    def test_carried_state_after_a_long_run(self, disk_plateau):
        # thousands of carried line searches: the result's energy, gradient
        # and torsion are still those of the returned field
        res = disk_plateau
        assert res.iterations > 1000
        # the decrement stays above 1e-6 |J| here: the plateau guard stops it
        assert res.stop_reason == "plateau"
        J, grad_norm, F_norm = _recomputed_state(res)
        assert res.energy == pytest.approx(J, rel=1e-12)
        assert abs(res.grad_norm - grad_norm) <= 1e-10 * F_norm
        _assert_torsion_is_the_quotient(res)

    def test_newton_line_search_near_p_min(self):
        # near-exact line searches keep the directions conjugate, so a few
        # hundred iterations suffice; phi' jumps where a field's slope passes
        # near 0, and the search must still find its steps there
        mesh = triangulate(disk(1.0, 256)[0], 0.05)
        res = solve_torsion(mesh, W1, 1.3)
        assert res.iterations < 1000
        assert res.stop_reason == "plateau"  # the decrement stays above 2e-8 |J|
        assert _load_term(res) == pytest.approx(-1.3 / 0.3 * res.energy, rel=2e-4)

    @pytest.mark.xfail(
        strict=True,
        reason=("near p = 1.1 the energy stop accepts a stagnated field"
                " (ROADMAP item: A Newton solve below p = 1.5)"),
    )
    def test_energy_identity_near_p_min(self):
        # the load term F . u of the field, not its quotient, which is second
        # order in the field's error and meets the identity at 1.7e-7 on a
        # stagnated field; measured: F . u is off by 1.3e-4 to 6.2e-4,
        # depending on roundoff in the warm start
        mesh = triangulate(disk(1.0, 256)[0], 0.05)
        res = solve_torsion(mesh, W1, 1.2)
        assert _load_term(res) == pytest.approx(-6.0 * res.energy, rel=1e-6)

    def test_maximum_principle(self, small_corpus):
        for poly in small_corpus[:6]:
            mesh = triangulate(poly, metrics(poly).inradius / 5.0)
            for p in (1.5, 3.0):
                res = solve_torsion(mesh, W1, p)
                assert res.u.min() >= -1e-12

    def test_failed_line_search_raises(self, unit_square, monkeypatch):
        # every trial's energy is NaN, so no trial shows phi' < 0, and the
        # unconverged field must not come back as a result
        real, calls = solver_mod._dirichlet, []

        def nan_trials(mesh, g, p, eps2=0.0):
            s, e, total = real(mesh, g, p, eps2)
            calls.append(p)
            if len(calls) > 2:  # the warm start and the first iterate are finite
                e, total = np.full_like(e, np.nan), math.nan
            return s, e, total

        monkeypatch.setattr(solver_mod, "_dirichlet", nan_trials)
        mesh = triangulate(unit_square, 1.0 / 16)
        with pytest.raises(NoConvergence, match="line search"):
            solve_torsion(mesh, W1, 3.0)
        assert len(calls) == 2 + solver_mod._MAX_TRIAL_STEPS

    def test_iteration_cap_raises(self, unit_square, monkeypatch):
        monkeypatch.setattr(solver_mod, "_MAX_ITERS", 3)
        mesh = triangulate(unit_square, 1.0 / 16)
        with pytest.raises(NoConvergence, match="did not settle"):
            solve_torsion(mesh, W1, 3.0)

    def test_bad_exponent_and_tol(self, unit_square):
        mesh = triangulate(unit_square, 0.25)
        with pytest.raises(BadExponent):
            solve_torsion(mesh, W1, 1.05)
        with pytest.raises(BadExponent):
            solve_torsion(mesh, W1, 11.0)
        for tol in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                solve_torsion(mesh, W1, 2.0, tol=tol)

    def test_vanishing_load_gives_the_zero_field(self, unit_square):
        # linear:1e9 is 0 at every centroid depth, so F = 0 on every free
        # node: every p returns the field 0 with T = J = 0 and no iteration,
        # where the line search would divide by phi'' = 0
        w = WeightProfile.truncated_linear(1.0, 1e9)
        mesh = triangulate(unit_square, 1.0 / 16)
        F = solver_mod._load_vector(mesh, w)
        assert len(F) > 0 and not F.any()
        for p in (1.1, 1.5, 2.0, 3.0, 10.0):
            res = solve_torsion(mesh, w, p)
            assert (res.torsion, res.energy, res.iterations, res.grad_norm) == (0.0, 0.0, 0, 0.0)
            assert (res.stop_reason, res.decrement) == ("linear", 0.0)
            assert not res.u.any()


@pytest.fixture(scope="module")
def corpus_solves(small_corpus):
    """(p, result at the default tol, result at tol = 1e-13) for the first
    four corpus bodies at R/6, every weight and p = 1.5, 3 and 10."""
    out = []
    for poly in small_corpus[:4]:
        mesh = triangulate(poly, metrics(poly).inradius / 6.0)
        for w in WEIGHTS:
            for p in (1.5, 3.0, 10.0):
                out.append((p, solve_torsion(mesh, w, p), solve_torsion(mesh, w, p, tol=1e-13)))
    return out


class TestStopRule:
    def test_corpus_stops_on_the_decrement(self, corpus_solves):
        assert [res.stop_reason for _, res, _ in corpus_solves] == ["decrement"] * 36

    def test_decrement_stop_is_accurate(self, corpus_solves):
        # the decrement stop lands within tol of the minimum's T
        for _, res, tight in corpus_solves:
            assert res.torsion == pytest.approx(tight.torsion, rel=1e-10, abs=0.0)

    def test_reports_its_decrement(self, corpus_solves, disk_plateau):
        # a "decrement" stop reports lambda^2 / (2 |J|) at most tol / 10, the
        # default tol being 1e-10; the p = 1.2 plateau stop reports more
        for _, res, tight in corpus_solves:
            assert 0.0 < res.decrement <= 1e-11
            assert 0.0 < tight.decrement <= 1e-14
        assert disk_plateau.stop_reason == "plateau" and disk_plateau.decrement > 1e-11

    def test_iteration_ceiling(self, corpus_solves):
        # measured: 401 iterations at p = 1.5 and 177 at p = 3; with the
        # energy window as the only stop they took 447 and 285
        for p, measured in ((1.5, 401), (3.0, 177)):
            total = sum(res.iterations for q, res, _ in corpus_solves if q == p)
            assert total <= 1.1 * measured

    def test_scale_invariance(self, small_corpus):
        # lambda^2 and tol |J| scale alike, so scaling the body by L (with f
        # read in its own units) or f by c moves no stop
        poly = small_corpus[1]
        R = metrics(poly).inradius
        mesh = triangulate(poly, R / 6.0)
        for p in (1.5, 3.0, 10.0):
            n = solve_torsion(mesh, WeightProfile.exponential(1.0, 2.0 / R), p).iterations
            for L in (0.1, 10.0):
                scaled = triangulate(scale(poly, L), L * R / 6.0)
                res = solve_torsion(scaled, WeightProfile.exponential(1.0, 2.0 / (L * R)), p)
                assert res.iterations == n
            for c in (0.2, 5.0):
                assert solve_torsion(mesh, WeightProfile.exponential(c, 2.0 / R), p).iterations == n


class TestRayleigh:
    def test_matches_torsion_at_optimum(self, unit_square):
        # at the discrete minimizer the quotient equals the field's own F . u
        mesh = triangulate(unit_square, 1.0 / 32)
        for p in (1.5, 2.0, 3.0):
            res = solve_torsion(mesh, W1, p, tol=1e-11)
            assert res.torsion == pytest.approx(_load_term(res), rel=1e-6)

    def test_torsion_is_the_quotient_of_its_field(self):
        # p = 1.2 on this mesh is checked by test_carried_state_after_a_long_run
        mesh = triangulate(disk(1.0, 256)[0], 0.05)
        for p in (1.5, 2.0, 3.0):
            _assert_torsion_is_the_quotient(solve_torsion(mesh, W1, p))

    def test_scaling_invariance_of_quotient(self, unit_square):
        mesh = triangulate(unit_square, 1.0 / 32)
        u = solve_torsion(mesh, W1, 2.0).u
        assert rayleigh_quotient(mesh, W1, 2.0, 2.0 * u) == pytest.approx(
            rayleigh_quotient(mesh, W1, 2.0, u), rel=1e-12
        )

    def test_any_field_is_a_lower_bound(self):
        # the quotient of an arbitrary admissible field cannot exceed the
        # true torsion of the enclosing disk
        poly, _ = disk(1.0, 256)
        mesh = triangulate(poly, 1.0 / 24)
        res = solve_torsion(mesh, W1, 2.0)
        bumpy = np.array(res.u)
        interior = slice(mesh.n_boundary, None)
        bumpy[interior] *= 1.0 + 0.05 * np.sin(7.0 * mesh.nodes[interior, 0])
        crude = rayleigh_quotient(mesh, W1, 2.0, bumpy)
        assert crude <= T_DISK_P2 * (1.0 + 1e-9)
        assert crude < res.torsion


class TestWeightedSolves:
    def test_upper_transfer(self, small_corpus):
        # T_{f,p} <= f(0)^q T_p since f <= f(0)
        weights = (WeightProfile.truncated_linear(1.0, 1.0),
                   WeightProfile.exponential(1.0, 1.0))
        for poly in small_corpus[:4]:
            mesh = triangulate(poly, metrics(poly).inradius / 6.0)
            for p in (1.5, 2.0, 3.0):
                T1 = solve_torsion(mesh, W1, p).torsion
                q = q_exponent(p)
                for w in weights:
                    Tf = solve_torsion(mesh, w, p).torsion
                    assert Tf <= w(0.0) ** q * T1 * (1.0 + 1e-9)

    def test_lower_transfer(self, small_corpus):
        # T_{f,p} >= c_p f(R)^{q+1} area^{q+1} / (f(0) P^q), up to mesh error
        w = WeightProfile.exponential(1.0, 1.0)
        for poly in small_corpus[:4]:
            m = metrics(poly)
            mesh = triangulate(poly, m.inradius / 6.0)
            for p in (1.5, 2.0, 3.0):
                Tf = solve_torsion(mesh, w, p).torsion
                q = q_exponent(p)
                lower = (
                    c_p(p) * w(m.inradius) ** (q + 1.0) * m.area ** (q + 1.0)
                    / (w(0.0) * m.perimeter**q)
                )
                assert Tf >= lower * (1.0 - 0.05)

    def test_weighted_above_closed_bound(self, small_corpus):
        for poly in small_corpus[:3]:
            m = metrics(poly)
            mesh = triangulate(poly, m.inradius / 8.0)
            for w in (WeightProfile.truncated_linear(1.0, 1.0),
                      WeightProfile.exponential(1.0, 1.0)):
                pr = profile(poly, w, 256)
                for p in (1.5, 2.0, 3.0):
                    T = solve_torsion(mesh, w, p).torsion
                    assert T > bound_report(pr, p).closed


class TestDomainMonotonicity:
    def test_nested_bodies(self, small_corpus):
        for poly in small_corpus[:5]:
            m = metrics(poly)
            sub = inner_body(poly, 0.2 * m.inradius)
            mesh_big = triangulate(poly, m.inradius / 6.0)
            mesh_small = triangulate(sub, metrics(sub).inradius / 6.0)
            for p in (1.5, 2.0, 3.0):
                T_big = solve_torsion(mesh_big, W1, p).torsion
                T_small = solve_torsion(mesh_small, W1, p).torsion
                assert T_small <= T_big * (1.0 + 1e-6)


class TestSlabComparison:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("l", [0.4, 0.2])
    def test_rectangle_under_slab_bound(self, p, l):
        poly, rec = rectangle(l)
        mesh = triangulate(poly, rec.inradius / 8.0)
        T = solve_torsion(mesh, W1, p).torsion
        assert T <= slab_upper_bound(l, p) * (1.0 + 1e-9)
        assert T > bound_report(profile(poly, W1, 64), p).closed


class TestRichardson:
    def test_square_order_two(self, unit_square):
        rich = richardson_T(unit_square, W1, 2.0, [1 / 12, 1 / 24, 1 / 48, 1 / 96])
        assert rich.observed_order == pytest.approx(2.0, abs=0.3)
        assert rich.torsion == pytest.approx(T_UNIT_SQUARE, rel=1e-3)
        assert rich.error >= abs(rich.torsion - T_UNIT_SQUARE)
        # the order is read from the last two increments, as the error is
        d = [b - a for a, b in zip(rich.torsions, rich.torsions[1:])]
        assert rich.observed_order == math.log2(abs(d[-2])) - math.log2(abs(d[-1]))

    def test_disk_extrapolation(self):
        poly, _ = disk(1.0, 256)
        rich = richardson_T(poly, W1, 2.0, [1 / 8, 1 / 16, 1 / 32])
        assert rich.torsion == pytest.approx(T_DISK_P2, rel=2e-3)

    def test_thin_rectangle_under_slab(self):
        poly, rec = rectangle(0.1)
        h = rec.inradius / 8.0
        rich = richardson_T(poly, W1, 2.0, [4 * h, 2 * h, h])
        assert rich.torsion <= 0.1**2 / 12.0
        assert rich.torsion == pytest.approx(torsion_rectangle_series(10.0, 0.1), rel=2e-3)

    def test_validation(self, unit_square):
        with pytest.raises(ValueError):
            richardson_T(unit_square, W1, 2.0, [1 / 16, 1 / 32])
        with pytest.raises(ValueError):
            richardson_T(unit_square, W1, 2.0, [1 / 16, 1 / 24, 1 / 32])
        # within 2% of halving, but the ladder could only solve exact halves
        with pytest.raises(ValueError, match="exactly half"):
            richardson_T(unit_square, W1, 2.0, [0.1, 0.0505, 0.02525])
        with pytest.raises(ValueError, match="positive"):
            richardson_T(unit_square, W1, 2.0, [0.2, 0.1, 0.0])

    def test_non_monotone_detected(self, unit_square, monkeypatch):
        fake = {1 / 8: 0.035, 1 / 16: 0.0351, 1 / 32: 0.0349}

        def fake_solve(mesh, weight, p, tol=1e-10):
            class R:
                torsion = fake[mesh.h]

            return R()

        monkeypatch.setattr(solver_mod, "solve_torsion", fake_solve)
        with pytest.raises(NonMonotoneConvergence):
            solver_mod.richardson_T(unit_square, W1, 2.0, [1 / 8, 1 / 16, 1 / 32])


def _fresh_square():
    """A new polygon object, so no earlier ladder is reused."""
    return polygon_from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])


class TestLadderReuse:
    HS = [1 / 8, 1 / 16, 1 / 32]

    @staticmethod
    def _count_builds(monkeypatch):
        """The h of every mesh triangulated, the h of every mesh refined and
        the shape of every matrix factorized."""
        built, refined, factored = [], [], []
        tri, ref, lu = solver_mod.triangulate, solver_mod._refined, solver_mod.splu
        monkeypatch.setattr(solver_mod, "triangulate",
                            lambda poly, h: built.append(h) or tri(poly, h))
        monkeypatch.setattr(solver_mod, "_refined",
                            lambda mesh: refined.append(mesh.h / 2) or ref(mesh))
        monkeypatch.setattr(solver_mod, "splu",
                            lambda K, **kw: factored.append(K.shape) or lu(K, **kw))
        return built, refined, factored

    def test_one_mesh_and_lu_per_h_across_p_and_weights(self, monkeypatch):
        # one triangulate per ladder, the finer levels refined from it
        built, refined, factored = self._count_builds(monkeypatch)
        square = _fresh_square()
        for w in (W1, WeightProfile.exponential(1.0, 1.0)):
            for p in (1.5, 2.0, 3.0):
                richardson_T(square, w, p, self.HS)
        assert built == self.HS[:1]
        assert refined == self.HS[1:]
        assert len(factored) == 3

    def test_scipy_entry_points_wrapped_before_the_first_mesh(self):
        # what a tracer does: replace solver.Delaunay and solver.splu with
        # wrappers (getattr, then setattr) right after import, before scipy
        # is loaded; every later call must go through the wrappers
        code = """
import functools, json, sys
import webtorsion.solver as solver
from webtorsion.geometry import polygon_from_vertices
from webtorsion.parallel import WeightProfile

scipy_before = any(m.startswith("scipy") for m in sys.modules)
calls = {"Delaunay": 0, "splu": 0}
for name in calls:
    fn = getattr(solver, name)
    def traced(*args, _fn=fn, _name=name, **kwargs):
        calls[_name] += 1
        return _fn(*args, **kwargs)
    setattr(solver, name, functools.wraps(fn)(traced))
square = polygon_from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])
solver.richardson_T(square, WeightProfile.constant(1.0), 2.0, HS)
ladder = solver._last_ladder
print(json.dumps({"scipy_before": scipy_before, "calls": calls, "levels": len(ladder),
                  "triangulated": sum(m.parent is None for m in ladder),
                  "factorized": sum("_stiffness_lu" in vars(m) for m in ladder)}))
"""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(solver_mod.__file__)))
        out = subprocess.run([sys.executable, "-c", f"HS = {self.HS!r}\n" + code], env=env,
                             capture_output=True, text=True, check=True)
        report = json.loads(out.stdout.strip().splitlines()[-1])
        assert report["scipy_before"] is False
        assert report["levels"] == 3 and report["triangulated"] == 1 and report["factorized"] == 3
        assert report["calls"] == {"Delaunay": 1, "splu": 3}

    def test_shifted_ladder_starts_afresh(self, monkeypatch):
        # a ladder from another coarsest h shares no mesh with the last one,
        # so the result is the same as on a fresh polygon
        shifted = [1 / 16, 1 / 32, 1 / 64]
        square = _fresh_square()
        richardson_T(square, W1, 2.0, self.HS)
        built, refined, _ = self._count_builds(monkeypatch)
        after = richardson_T(square, W1, 2.0, shifted)
        assert built == [1 / 16] and refined == [1 / 32, 1 / 64]
        assert after == richardson_T(_fresh_square(), W1, 2.0, shifted)

    def test_coarser_ladder_starts_afresh(self, monkeypatch):
        # no mesh of the last ladder at the new coarsest h: nothing is reused
        square = _fresh_square()
        richardson_T(square, W1, 2.0, self.HS)
        built, refined, _ = self._count_builds(monkeypatch)
        richardson_T(square, W1, 2.0, [1 / 4, 1 / 8, 1 / 16])
        assert built == [1 / 4] and refined == [1 / 8, 1 / 16]

    def test_other_polygon_frees_the_ladder(self, monkeypatch):
        tri, ref = solver_mod.triangulate, solver_mod._refined
        old, dead_at_build = [], []

        def recorded(build):
            def wrapped(*args):
                mesh = build(*args)
                old.append(weakref.ref(mesh))
                return mesh
            return wrapped

        monkeypatch.setattr(solver_mod, "triangulate", recorded(tri))
        monkeypatch.setattr(solver_mod, "_refined", recorded(ref))
        richardson_T(_fresh_square(), W1, 2.0, self.HS)
        gc.collect()
        assert len(old) == 3 and all(r() is not None for r in old)

        def checked(build):
            def wrapped(*args):
                gc.collect()
                dead_at_build.append(all(r() is None for r in old))
                return build(*args)
            return wrapped

        # equal vertices, another object: the old ladder goes before any build
        monkeypatch.setattr(solver_mod, "triangulate", checked(tri))
        monkeypatch.setattr(solver_mod, "_refined", checked(ref))
        richardson_T(_fresh_square(), W1, 2.0, self.HS)
        assert dead_at_build == [True, True, True]

    def test_reused_ladder_is_bit_identical(self):
        w = WeightProfile.exponential(1.0, 1.0)
        square = _fresh_square()
        richardson_T(square, W1, 2.0, self.HS)
        reused = richardson_T(square, w, 3.0, self.HS)
        fresh = richardson_T(_fresh_square(), w, 3.0, self.HS)
        assert reused == fresh
        meshes = solver_mod._ladder(square, self.HS[0], len(self.HS))
        assert [m.h for m in meshes] == self.HS
        assert reused.torsions == tuple(solve_torsion(m, w, 3.0).torsion for m in meshes)


def _refined_times(mesh, k):
    """mesh and its k successive refinements, coarsest first."""
    meshes = [mesh]
    for _ in range(k):
        meshes.append(solver_mod._refined(meshes[-1]))
    return meshes


def _edge_count(triangles) -> int:
    pairs = np.sort(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    return len(np.unique(pairs, axis=0))


class TestRefinement:
    @pytest.fixture(scope="class")
    def coarse_meshes(self, unit_square, small_corpus):
        return [triangulate(unit_square, 1.0 / 8), triangulate(disk(1.0, 256)[0], 0.2),
                triangulate(rectangle(0.1)[0], 0.025),
                triangulate(small_corpus[2], metrics(small_corpus[2]).inradius / 2.0)]

    def test_tiles_the_polygon_boundary_first(self, coarse_meshes):
        for coarse in coarse_meshes:
            fine = solver_mod._refined(coarse)
            poly, nb = coarse.polygon, fine.n_boundary
            assert fine.node_count == coarse.node_count + _edge_count(coarse.triangles)
            assert fine.h == coarse.h / 2 and fine.parent is coarse
            assert np.all(fine.triangle_areas > 0)
            assert float(np.sum(fine.triangle_areas)) == pytest.approx(metrics(poly).area, rel=1e-12)
            # a loop of boundary nodes has as many edges: each gains a midpoint
            assert nb == 2 * coarse.n_boundary
            assert fine.nodes[: coarse.n_boundary].tobytes() == (
                coarse.nodes[: coarse.n_boundary].tobytes())
            assert np.all(np.abs(poly.signed_distance(fine.nodes[:nb])) <= 1e-12)
            assert np.all(poly.signed_distance(fine.nodes[nb:]) > 1e-6 * fine.h)

    def test_four_block_node_layout(self, coarse_meshes):
        # coarse boundary nodes, boundary midpoints, coarse free nodes,
        # interior midpoints; P is the identity on the coarse free nodes
        for coarse in coarse_meshes:
            fine = solver_mod._refined(coarse)
            nb, nf = coarse.n_boundary, coarse.node_count - coarse.n_boundary
            nodes = fine.nodes
            assert nodes[:nb].tobytes() == coarse.nodes[:nb].tobytes()
            assert nodes[fine.n_boundary:fine.n_boundary + nf].tobytes() == (
                coarse.nodes[nb:].tobytes())
            pairs = np.sort(coarse.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
            edges, count = np.unique(pairs, axis=0, return_counts=True)
            halves = 0.5 * (coarse.nodes[edges[:, 0]] + coarse.nodes[edges[:, 1]])
            for got, want in ((nodes[nb:fine.n_boundary], halves[count == 1]),
                              (nodes[fine.n_boundary + nf:], halves[count == 2])):
                assert len(got) == len(want)
                assert np.array_equal(got[np.lexsort(got.T)], want[np.lexsort(want.T)])
            P = fine.prolongation
            assert abs(P[:nf] - sp.identity(nf)).max() == 0.0

    def test_prolongation_reproduces_the_coarse_field(self, coarse_meshes):
        rng = np.random.default_rng(3)
        for coarse in coarse_meshes:
            fine = solver_mod._refined(coarse)
            P = fine.prolongation
            assert P.shape == (fine.node_count - fine.n_boundary, coarse.node_count - coarse.n_boundary)
            x = rng.standard_normal(P.shape[1])
            got = (fine._gradient @ (P @ x)).reshape(2, -1)
            want = np.repeat((coarse._gradient @ x).reshape(2, -1), 4, axis=1)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_galerkin_coarse_operator(self, coarse_meshes):
        for coarse in coarse_meshes:
            fine = solver_mod._refined(coarse)
            nb, P = fine.n_boundary, fine.prolongation
            K_fine = stiffness_coo(fine.nodes, fine.triangles)[nb:, nb:]
            K_coarse = stiffness_coo(coarse.nodes, coarse.triangles)[coarse.n_boundary:, coarse.n_boundary:]
            assert abs(P.T @ K_fine @ P - K_coarse).max() <= 1e-12 * abs(K_coarse).max()

    def test_inherited_operators_match_the_geometry(self, coarse_meshes):
        # a refined mesh rescales its parent's areas and slopes; two levels
        # down they still match the element assembly of its own nodes
        rng = np.random.default_rng(5)
        for coarse in coarse_meshes:
            coarse, mid, fine = _refined_times(coarse, 2)
            for parent, child in ((coarse, mid), (mid, fine)):
                quarters = np.repeat(parent.triangle_areas / 4, 4)
                assert child.triangle_areas.tobytes() == quarters.tobytes()
            nb = fine.n_boundary
            ref = stiffness_coo(fine.nodes, fine.triangles)[nb:, nb:]
            K = fine._stiffness
            assert K.format == "csc" and abs(K - ref).max() <= 1e-12 * abs(ref).max()
            x = rng.standard_normal(coarse.node_count - coarse.n_boundary)
            got = (fine._gradient @ (fine.prolongation @ (mid.prolongation @ x))).reshape(2, -1)
            want = np.repeat((coarse._gradient @ x).reshape(2, -1), 16, axis=1)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_refinement_respects_the_node_budget(self, unit_square, monkeypatch):
        coarse = triangulate(unit_square, 1.0 / 16)
        monkeypatch.setattr(solver_mod, "_MAX_NODES", coarse.node_count + 100)
        with pytest.raises(TooFine):
            solver_mod._refined(coarse)


class TestMultigrid:
    @staticmethod
    def _lu_torsion(mesh):
        F = solver_mod._load_vector(mesh, W1)
        return float(F @ mesh._stiffness_lu.solve(F))

    def test_vcycle_cg_matches_the_lu(self, unit_square, monkeypatch):
        # with the size rule lowered the V-cycle smooths on three levels and
        # solves the root mesh by its LU
        monkeypatch.setattr(solver_mod, "_MG_MIN_FREE", 64)
        meshes = _refined_times(triangulate(unit_square, 1.0 / 16), 3)
        for mesh in meshes[1:]:
            res = solve_torsion(mesh, W1, 2.0)
            assert res.iterations > 1
            assert res.torsion == pytest.approx(self._lu_torsion(mesh), rel=1e-12)
            # the stop is on the decrement, not the residual: grad_norm is
            # the returned field's residual, and the decrement reached its
            # threshold
            F = solver_mod._load_vector(mesh, W1)
            x = res.u[mesh.n_boundary:]
            residual = np.linalg.norm(mesh._stiffness @ x - F)
            assert res.grad_norm == pytest.approx(residual, rel=1e-12)
            assert 0.0 < res.decrement <= solver_mod._CG_DECREMENT

    def test_size_rule(self, unit_square):
        # a refined mesh above 2^13 free nodes takes the V-cycle at every p;
        # its LU is never built, and the V-cycle's LU is its parent's
        coarse, mid, fine = _refined_times(triangulate(unit_square, 1.0 / 24), 2)
        assert mid.node_count - mid.n_boundary <= solver_mod._MG_MIN_FREE
        assert fine.node_count - fine.n_boundary == 16_409 > solver_mod._MG_MIN_FREE
        assert solve_torsion(fine, W1, 3.0).torsion > 0
        assert "_stiffness_lu" not in fine.__dict__
        res = solve_torsion(fine, W1, 2.0)
        # V-cycle CG stops on T's decrement after 5 iterations, at the LU's
        # T; a stop at a relative residual of 1e-12 needs 10
        assert 1 < res.iterations <= 6
        assert "_stiffness_lu" not in fine.__dict__ and "_stiffness_lu" in mid.__dict__
        assert "_stiffness_lu" not in coarse.__dict__
        assert res.torsion == pytest.approx(self._lu_torsion(fine), rel=1e-12)
        assert solve_torsion(mid, W1, 2.0).iterations == 1

    def test_bad_angles_converge(self, monkeypatch):
        # disk(1, 256) at h = 0.32 has 256 boundary nodes around about 50
        # free ones, and refinement keeps those angles
        mesh = _refined_times(triangulate(disk(1.0, 256)[0], 0.32), 3)[-1]
        n_free = mesh.node_count - mesh.n_boundary
        assert n_free > solver_mod._MG_MIN_FREE
        res = solve_torsion(mesh, W1, 2.0)
        assert 20 < res.iterations < 200
        assert res.torsion == pytest.approx(self._lu_torsion(mesh), rel=1e-12)
        # the nonlinear iteration preconditioned by this weakest V-cycle
        # converges to the T of the same solve preconditioned by the mesh's
        # own LU, with the size rule raised to its free count
        res = solve_torsion(mesh, W1, 3.0)
        monkeypatch.setattr(solver_mod, "_MG_MIN_FREE", n_free)
        ref = solve_torsion(mesh, W1, 3.0)
        assert res.iterations < 200
        assert res.torsion == pytest.approx(ref.torsion, rel=1e-9, abs=0.0)

    def test_one_solver_per_exponent(self, unit_square, monkeypatch):
        # p = 2 is one LU solve on a triangulated mesh; other p never run the
        # p = 2 solve, there or on a refined mesh that takes the V-cycle
        lu_mesh = triangulate(unit_square, 1.0 / 16)
        res = solve_torsion(lu_mesh, W1, 2.0)
        assert (res.stop_reason, res.iterations, res.decrement) == ("linear", 1, 0.0)
        monkeypatch.setattr(solver_mod, "_MG_MIN_FREE", 64)
        mg_mesh = _refined_times(triangulate(unit_square, 1.0 / 16), 2)[-1]
        assert not solver_mod._factorized(mg_mesh)

        def no_p2_solve(mesh, F):
            raise AssertionError("the p = 2 solve ran at p != 2")

        monkeypatch.setattr(solver_mod, "_solve_p2", no_p2_solve)
        for mesh in (lu_mesh, mg_mesh):
            for p in (1.5, 3.0):
                res = solve_torsion(mesh, W1, p)
                assert res.stop_reason in ("decrement", "plateau") and res.torsion > 0.0

    def test_smoother_below_two(self, unit_square):
        # V-cycle CG needs omega lambda_max(D^-1 K_ff) < 2; lambda_max of
        # D^-1 K_ff scaled by omega is that of the symmetric W^1/2 K_ff W^1/2,
        # W = omega / diag(K_ff), and omega's power estimate lies below it
        bad = _refined_times(triangulate(disk(1.0, 256)[0], 0.32), 3)
        for mesh in (solver_mod._refined(triangulate(unit_square, 1.0 / 48)),
                     solver_mod._refined(triangulate(disk(1.0, 256)[0], 0.04)), bad[2], bad[3]):
            w = sp.diags(np.sqrt(mesh._jacobi))
            lam = eigsh(w @ mesh._stiffness @ w, k=1, which="LA", return_eigenvectors=False)[0]
            assert 1.3 < lam < 2.0

    def test_levels_freed_without_the_cycle_collector(self, unit_square):
        # the V-cycle's operators must not hold the levels in a reference
        # cycle: with the cyclic collector off, dropping the mesh frees every
        # level and the arrays it cached, the V-cycle's K, omega / diag K and
        # P, after V-cycle CG at p = 2 and the nonlinear iteration at p = 3
        for p in (2.0, 3.0):
            meshes = _refined_times(triangulate(unit_square, 1.0 / 24), 2)
            gc.collect()
            gc.disable()
            try:
                assert solve_torsion(meshes[-1], W1, p).iterations > 1
                refs = [weakref.ref(obj) for mesh in meshes for obj in (
                    [mesh] + [v for v in vars(mesh).values() if isinstance(v, np.ndarray)]
                    + [v.data for v in vars(mesh).values() if sp.issparse(v)])]
                del meshes
                assert all(r() is None for r in refs)
            finally:
                gc.enable()

    def test_cached_operators_per_mesh(self, monkeypatch):
        # a ladder's meshes cache their areas, G, K and the LU or the
        # smoother, and G^T once a p != 2 solve ran; a refined mesh caches
        # nothing more, its slopes being recomputed through its parents
        monkeypatch.setattr(solver_mod, "_MG_MIN_FREE", 64)
        square = polygon_from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])
        hs = [1.0 / 8, 1.0 / 16, 1.0 / 32]
        fields = {f.name for f in dataclasses.fields(solver_mod.Mesh)}
        common = {"triangle_areas", "_gradient", "_stiffness"}
        for p, extra in ((2.0, set()), (3.0, {"_gradient_T"})):
            richardson_T(square, W1, p, hs)
            root, mid, fine = solver_mod._ladder(square, hs[0], 3)
            assert not solver_mod._factorized(mid)
            assert set(vars(root)) - fields == common | {"_stiffness_lu"} | extra
            for mesh in (mid, fine):
                assert set(vars(mesh)) - fields == common | {"_jacobi"} | extra

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "_MAX_CG_ITERS", 20)
        mesh = _refined_times(triangulate(disk(1.0, 256)[0], 0.32), 3)[-1]
        with pytest.raises(NoConvergence, match="V-cycle CG"):
            solve_torsion(mesh, W1, 2.0)


class TestNestedLadder:
    def test_p2_torsion_never_decreases(self, unit_square, small_corpus):
        # nested P1 spaces and an exact constant load: T_h = max over V_h
        for poly, h in ((unit_square, 1.0 / 4), (disk(1.0, 256)[0], 0.25),
                        (small_corpus[5], metrics(small_corpus[5]).inradius / 2.0)):
            Ts = [solve_torsion(m, W1, 2.0).torsion for m in _refined_times(triangulate(poly, h), 4)]
            assert all(b > a for a, b in zip(Ts, Ts[1:]))

    @pytest.mark.parametrize("case", ["square", "disk", "rectangle"])
    def test_agrees_with_independent_meshes(self, case, monkeypatch):
        poly, hs = {
            "square": lambda: (_fresh_square(), [1 / 12, 1 / 24, 1 / 48, 1 / 96]),
            "disk": lambda: (disk(1.0, 256)[0], [1 / 8, 1 / 16, 1 / 32]),
            "rectangle": lambda: (rectangle(0.1)[0], [0.025, 0.0125, 0.00625]),
        }[case]()
        nested = richardson_T(poly, W1, 2.0, hs)
        monkeypatch.setattr(solver_mod, "_ladder", independent_ladder)
        independent = richardson_T(poly, W1, 2.0, hs)
        assert nested.torsions != independent.torsions
        assert abs(nested.torsion - independent.torsion) <= max(nested.error, independent.error)
