import numpy as np
import pytest

from oracles import (
    T_DISK_P15,
    T_DISK_P2,
    T_DISK_P3,
    T_UNIT_SQUARE,
    stiffness_coo,
    torsion_rectangle_series,
)
import webtorsion.solver as solver_mod
from webtorsion.bounds import c_p, q_exponent, web_lower_closed
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
        bnd = mesh.nodes[mesh.is_boundary]
        assert np.all(np.abs(unit_square.signed_distance(bnd)) < 1e-12)

    def test_node_count_scales_like_h_squared(self, unit_square):
        n1 = triangulate(unit_square, 1.0 / 16).node_count
        n2 = triangulate(unit_square, 1.0 / 32).node_count
        n3 = triangulate(unit_square, 1.0 / 64).node_count
        assert 3.0 < n2 / n1 < 5.2
        assert 3.0 < n3 / n2 < 5.2

    def test_positive_orientation_and_tiling(self, small_corpus):
        for poly in small_corpus[:8]:
            m = metrics(poly)
            mesh = triangulate(poly, m.inradius / 4.0)
            assert np.all(mesh.triangle_areas > 0)
            assert float(np.sum(mesh.triangle_areas)) == pytest.approx(m.area, rel=1e-12)

    def test_canonical_shape_quality(self, unit_square):
        # right-angled corners and no sub-h boundary edges: the 15 degree
        # floor is attainable and must hold
        for mesh in (
            triangulate(unit_square, 1.0 / 24),
            triangulate(rectangle(0.2)[0], 0.1 / 8),
            triangulate(disk(1.0, 256)[0], 1.0 / 24),
        ):
            assert mesh.min_angle_degrees() >= 15.0
            assert mesh.max_edge() <= 1.35 * mesh.h

    def test_fuzz_mesh_quality(self, small_corpus):
        # bodies with needle corners force matching small angles; what P1
        # accuracy needs is the upper angle bound
        for poly in small_corpus[:10]:
            mesh = triangulate(poly, metrics(poly).inradius / 6.0)
            assert mesh.max_angle_degrees() <= 150.0
            assert mesh.max_edge() <= 1.7 * mesh.h

    def test_thin_rectangle(self):
        poly = polygon_from_vertices([(-5, -0.05), (5, -0.05), (5, 0.05), (-5, 0.05)])
        mesh = triangulate(poly, 0.02)
        assert mesh.node_count < 120_000
        assert mesh.min_angle_degrees() >= 15.0

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


class TestDiscretization:
    def test_stiffness_matches_element_assembly(self, small_corpus):
        poly = small_corpus[0]
        for mesh in (
            triangulate(poly, metrics(poly).inradius / 6.0),
            triangulate(disk(1.0, 256)[0], 1.0 / 12),
        ):
            free = ~mesh.is_boundary
            ref = stiffness_coo(mesh.nodes, mesh.triangles)[free][:, free]
            K, _ = mesh._stiffness_lu
            assert abs(K - ref).max() <= 1e-13 * abs(ref).max()

    def test_one_factorization_per_mesh(self, unit_square, monkeypatch):
        calls = []
        real = solver_mod.splu
        monkeypatch.setattr(solver_mod, "splu", lambda K: calls.append(K.shape) or real(K))
        mesh = triangulate(unit_square, 1.0 / 16)
        res = solve_torsion(mesh, W1, 2.0)
        solve_torsion(mesh, WeightProfile.exponential(1.0, 1.0), 3.0)
        rayleigh_check(res, W1, 2.0)
        assert len(calls) == 1


class TestSolve:
    def test_square_p2(self, unit_square):
        mesh = triangulate(unit_square, 1.0 / 64)
        res = solve_torsion(mesh, W1, 2.0)
        assert res.torsion == pytest.approx(T_UNIT_SQUARE, rel=0.01)
        assert res.min_interior >= -1e-12
        assert np.all(res.u[mesh.is_boundary] == 0.0)

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
                assert res.min_interior >= -1e-12

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
        with pytest.raises(ValueError):
            solve_torsion(mesh, W1, 2.0, tol=0.0)


class TestRayleigh:
    def test_matches_torsion_at_optimum(self, unit_square):
        mesh = triangulate(unit_square, 1.0 / 32)
        for p in (1.5, 2.0, 3.0):
            res = solve_torsion(mesh, W1, p, tol=1e-11)
            assert rayleigh_check(res, W1, p) == pytest.approx(res.torsion, rel=1e-6)

    def test_scaling_invariance_of_quotient(self, unit_square):
        from dataclasses import replace

        mesh = triangulate(unit_square, 1.0 / 32)
        res = solve_torsion(mesh, W1, 2.0)
        doubled = replace(res, u=2.0 * np.array(res.u))
        assert rayleigh_check(doubled, W1, 2.0) == pytest.approx(
            rayleigh_check(res, W1, 2.0), rel=1e-12
        )

    def test_any_field_is_a_lower_bound(self):
        # the quotient of an arbitrary admissible field cannot exceed the
        # true torsion of the enclosing disk
        from dataclasses import replace

        poly, _ = disk(1.0, 256)
        mesh = triangulate(poly, 1.0 / 24)
        res = solve_torsion(mesh, W1, 2.0)
        bumpy = np.array(res.u)
        interior = ~mesh.is_boundary
        bumpy[interior] *= 1.0 + 0.05 * np.sin(7.0 * mesh.nodes[interior, 0])
        crude = replace(res, u=bumpy)
        assert rayleigh_check(crude, W1, 2.0) <= T_DISK_P2 * (1.0 + 1e-9)
        assert rayleigh_check(crude, W1, 2.0) < res.torsion


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
                    assert T > web_lower_closed(m, w, pr.mu_f_total, p)


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
        assert T > web_lower_closed(metrics(poly), W1, 1.0, p)


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
        fake = iter([0.035, 0.0351, 0.0349])

        def fake_solve(mesh, weight, p, tol=1e-10):
            class R:
                torsion = next(fake)

            return R()

        monkeypatch.setattr(solver_mod, "solve_torsion", fake_solve)
        with pytest.raises(NonMonotoneConvergence):
            solver_mod.richardson_T(unit_square, W1, 2.0, [1 / 8, 1 / 16, 1 / 32])
