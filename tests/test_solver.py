import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from oracles import (
    T_DISK_P15,
    T_DISK_P2,
    T_DISK_P3,
    T_UNIT_SQUARE,
    angle_range_degrees,
    boundary_subdivision_loop,
    max_edge_length,
    stiffness_coo,
    torsion_rectangle_series,
)
import webtorsion.solver as solver_mod
from webtorsion.bounds import bound_report, c_p, q_exponent
from webtorsion.errors import BadExponent, NoConvergence, NonMonotoneConvergence, TooFine
from webtorsion.geometry import metrics, polygon_from_vertices
from webtorsion.parallel import WeightProfile, inner_body, profile
from webtorsion.shapes import disk, rectangle, slab_upper_bound
from webtorsion.solver import (
    rayleigh_check,
    richardson_T,
    solve_torsion,
    triangulate,
)

W1 = WeightProfile.constant(1.0)


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
        # the smoothing sweep keeps the connectivity of the first triangulation
        calls = []
        real = solver_mod.Delaunay
        monkeypatch.setattr(solver_mod, "Delaunay", lambda pts: calls.append(len(pts)) or real(pts))
        mesh = triangulate(unit_square, 1.0 / 16)
        assert calls == [mesh.node_count]

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
            K, _ = mesh._stiffness_lu
            assert abs(K - ref).max() <= 1e-13 * abs(ref).max()

    def test_one_factorization_per_mesh(self, unit_square, monkeypatch):
        calls = []
        real = solver_mod.splu
        monkeypatch.setattr(solver_mod, "splu",
                            lambda K, **kw: calls.append(K.shape) or real(K, **kw))
        mesh = triangulate(unit_square, 1.0 / 16)
        res = solve_torsion(mesh, W1, 2.0)
        solve_torsion(mesh, WeightProfile.exponential(1.0, 1.0), 3.0)
        rayleigh_check(res)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "poly, h",
        [
            (polygon_from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)]), 1.0 / 64),
            (disk(1.0, 256)[0], 1.0 / 24),
            (rectangle(0.1)[0], 0.05 / 4),
        ],
        ids=["square", "disk", "rectangle"],
    )
    def test_lu_solves_stiffness(self, poly, h):
        # no pivoting: K_ff is symmetric positive definite
        K, lu = triangulate(poly, h)._stiffness_lu
        b = np.random.default_rng(0).standard_normal(K.shape[0])
        assert np.linalg.norm(K @ lu.solve(b) - b) <= 1e-12 * np.linalg.norm(b)

    def test_symmetric_ordering_fills_less_than_colamd(self, unit_square):
        from scipy.sparse.linalg import splu

        K, lu = triangulate(unit_square, 1.0 / 96)._stiffness_lu
        assert lu.nnz < splu(K).nnz


class TestSolve:
    def test_square_p2(self, unit_square):
        mesh = triangulate(unit_square, 1.0 / 64)
        res = solve_torsion(mesh, W1, 2.0)
        assert res.torsion == pytest.approx(T_UNIT_SQUARE, rel=0.01)
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
        # T = -p/(p-1) J at the discrete optimum
        for poly in small_corpus[:4]:
            mesh = triangulate(poly, metrics(poly).inradius / 6.0)
            for p in (1.5, 2.0, 3.0):
                res = solve_torsion(mesh, W1, p, tol=1e-11)
                assert res.torsion == pytest.approx(
                    -p / (p - 1.0) * res.energy, rel=1e-6
                )

    def test_maximum_principle(self, small_corpus):
        for poly in small_corpus[:6]:
            mesh = triangulate(poly, metrics(poly).inradius / 5.0)
            for p in (1.5, 3.0):
                res = solve_torsion(mesh, W1, p)
                assert res.u.min() >= -1e-12

    def test_failed_line_search_raises(self, unit_square, monkeypatch):
        # one trial step per search: the step doubles each iteration until it
        # overshoots, and the unconverged field must not come back as a result
        monkeypatch.setattr(solver_mod, "_MAX_TRIAL_STEPS", 1)
        mesh = triangulate(unit_square, 1.0 / 16)
        with pytest.raises(NoConvergence, match="line search"):
            solve_torsion(mesh, W1, 3.0)

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


class TestRayleigh:
    def test_matches_torsion_at_optimum(self, unit_square):
        mesh = triangulate(unit_square, 1.0 / 32)
        for p in (1.5, 2.0, 3.0):
            res = solve_torsion(mesh, W1, p, tol=1e-11)
            assert rayleigh_check(res) == pytest.approx(res.torsion, rel=1e-6)

    def test_scaling_invariance_of_quotient(self, unit_square):
        from dataclasses import replace

        mesh = triangulate(unit_square, 1.0 / 32)
        res = solve_torsion(mesh, W1, 2.0)
        doubled = replace(res, u=2.0 * np.array(res.u))
        assert rayleigh_check(doubled) == pytest.approx(
            rayleigh_check(res), rel=1e-12
        )

    def test_any_field_is_a_lower_bound(self):
        # the quotient of an arbitrary admissible field cannot exceed the
        # true torsion of the enclosing disk
        from dataclasses import replace

        poly, _ = disk(1.0, 256)
        mesh = triangulate(poly, 1.0 / 24)
        res = solve_torsion(mesh, W1, 2.0)
        bumpy = np.array(res.u)
        interior = slice(mesh.n_boundary, None)
        bumpy[interior] *= 1.0 + 0.05 * np.sin(7.0 * mesh.nodes[interior, 0])
        crude = replace(res, u=bumpy)
        assert rayleigh_check(crude) <= T_DISK_P2 * (1.0 + 1e-9)
        assert rayleigh_check(crude) < res.torsion


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
        """The h of every mesh built and the shape of every matrix factorized."""
        built, factored = [], []
        tri, lu = solver_mod.triangulate, solver_mod.splu
        monkeypatch.setattr(solver_mod, "triangulate",
                            lambda poly, h: built.append(h) or tri(poly, h))
        monkeypatch.setattr(solver_mod, "splu",
                            lambda K, **kw: factored.append(K.shape) or lu(K, **kw))
        return built, factored

    def test_one_mesh_and_lu_per_h_across_p_and_weights(self, monkeypatch):
        built, factored = self._count_builds(monkeypatch)
        square = _fresh_square()
        for w in (W1, WeightProfile.exponential(1.0, 1.0)):
            for p in (1.5, 2.0, 3.0):
                richardson_T(square, w, p, self.HS)
        assert built == self.HS
        assert len(factored) == 3

    def test_shifted_ladder_builds_one_mesh(self, monkeypatch):
        square = _fresh_square()
        richardson_T(square, W1, 2.0, self.HS)
        built, factored = self._count_builds(monkeypatch)
        richardson_T(square, W1, 2.0, [1 / 16, 1 / 32, 1 / 64])
        assert built == [1 / 64]
        assert len(factored) == 1

    def test_other_polygon_frees_the_ladder(self, monkeypatch):
        tri = solver_mod.triangulate
        old, dead_at_build = [], []

        def recorded(poly, h):
            mesh = tri(poly, h)
            old.append(weakref.ref(mesh))
            return mesh

        monkeypatch.setattr(solver_mod, "triangulate", recorded)
        richardson_T(_fresh_square(), W1, 2.0, self.HS)
        gc.collect()
        assert len(old) == 3 and all(r() is not None for r in old)

        def checked(poly, h):
            gc.collect()
            dead_at_build.append(all(r() is None for r in old))
            return tri(poly, h)

        # equal vertices, another object: the old ladder goes before any build
        monkeypatch.setattr(solver_mod, "triangulate", checked)
        richardson_T(_fresh_square(), W1, 2.0, self.HS)
        assert dead_at_build == [True, True, True]

    def test_reused_ladder_is_bit_identical(self):
        w = WeightProfile.exponential(1.0, 1.0)
        square = _fresh_square()
        richardson_T(square, W1, 2.0, self.HS)
        reused = richardson_T(square, w, 3.0, self.HS)
        fresh = richardson_T(_fresh_square(), w, 3.0, self.HS)
        assert reused == fresh
        assert reused.torsions == tuple(
            solve_torsion(triangulate(_fresh_square(), h), w, 3.0).torsion for h in self.HS
        )
