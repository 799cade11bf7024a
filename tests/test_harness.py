import io
import math

import numpy as np
import pytest

import webtorsion.harness as harness
from webtorsion.errors import ViolationFound
from webtorsion.geometry import metrics
from webtorsion.harness import (
    FuzzConfig,
    SplitMix64,
    classical_inequality_suite,
    fuzz_suite,
    random_convex_body,
    run_sequence,
    write_sequence_svg,
)


class TestGenerator:
    def test_splitmix_reference_stream(self):
        # first outputs for seed 0 of the standard splitmix64 recurrence
        g = SplitMix64(0)
        assert g.next_u64() == 0xE220A8397B1DCDAF
        assert g.next_u64() == 0x6E789E6AA1B965F4
        assert g.next_u64() == 0x06C45D188009454F

    def test_uniform_range(self):
        g = SplitMix64(123)
        vals = [g.uniform() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert 0.4 < sum(vals) / len(vals) < 0.6

    def test_determinism(self):
        cfg = FuzzConfig(seed=42, count=10)
        a = random_convex_body(cfg, 0)
        b = random_convex_body(cfg, 0)
        assert np.array_equal(a.vertices, b.vertices)

    def test_seed_42_body_0_frozen(self):
        # regression anchor for cross-run reproducibility
        poly = random_convex_body(FuzzConfig(seed=42, count=1), 0)
        assert len(poly.vertices) == 13
        np.testing.assert_allclose(
            poly.vertices[0], [-0.9358988411593998, 0.003368998786986025], rtol=0, atol=0
        )

    def test_indices_differ(self):
        cfg = FuzzConfig(seed=42, count=10)
        a = random_convex_body(cfg, 1)
        b = random_convex_body(cfg, 2)
        assert a.vertices.shape != b.vertices.shape or not np.array_equal(
            a.vertices, b.vertices
        )

    def test_anisotropy_produces_thin_bodies(self):
        cfg = FuzzConfig(seed=5, count=30, tau_min=0.02, tau_max=0.02)
        ratios = []
        for i in range(30):
            m = metrics(random_convex_body(cfg, i))
            ratios.append(m.width / m.diameter)
        assert np.median(ratios) < 0.05

    def test_isotropic_bodies_are_round(self):
        cfg = FuzzConfig(seed=5, count=30, tau_min=1.0, tau_max=1.0)
        ratios = []
        for i in range(30):
            m = metrics(random_convex_body(cfg, i))
            ratios.append(m.width / m.diameter)
        assert np.median(ratios) > 0.3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FuzzConfig(min_vertices=2)
        with pytest.raises(ValueError):
            FuzzConfig(tau_min=0.0)


class TestSuite:
    def test_square_equality_witness(self, unit_square):
        rep = classical_inequality_suite(unit_square)
        m = metrics(unit_square)
        # circumscribed polygon: area / (P R) = 1/2 exactly
        assert m.area / (m.perimeter * m.inradius) == pytest.approx(0.5, abs=1e-12)
        assert rep.slacks["area_per_inradius_lo"] == pytest.approx(0.0, abs=1e-12)

    def test_equilateral_scott_equality(self, equilateral):
        m = metrics(equilateral)
        lhs = (m.width - 2.0 * m.inradius) * m.perimeter
        rhs = 2.0 / math.sqrt(3.0) * m.width**2
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert m.width / m.inradius == pytest.approx(3.0, rel=1e-12)
        rep = classical_inequality_suite(equilateral)
        assert rep.slacks["scott"] == pytest.approx(0.0, abs=1e-12)
        assert rep.slacks["width_inradius_hi"] == pytest.approx(0.0, abs=1e-12)

    def test_corpus_clean(self):
        summary = fuzz_suite(FuzzConfig(seed=7, count=200))
        assert summary.count == 200
        assert summary.violations == []
        assert all(entry["slack"] >= -1e-9 for entry in summary.worst.values())

    def test_corpus_with_steiner(self):
        summary = fuzz_suite(FuzzConfig(seed=11, count=50), steiner_grid=64)
        assert summary.violations == []

    def test_planted_violation_detected(self, unit_square, monkeypatch):
        # tighten a window beyond its mathematical value: the suite must trip
        monkeypatch.setattr(harness, "WIDTH_INRADIUS_HI", 2.5)
        tri = __import__("webtorsion").shapes.isosceles_triangle(3.0**0.25)[0]
        with pytest.raises(ViolationFound) as err:
            classical_inequality_suite(tri)
        assert err.value.name == "width_inradius_hi"


class TestSequences:
    def test_rectangle_sequence(self, monkeypatch):
        monkeypatch.setattr(harness, "SEQUENCE_MESH_DIVISOR", 8)
        rows = run_sequence("rectangle", (0.4, 0.2, 0.1), 2.0, grid=128)
        assert len(rows) == 3
        F = [r["F_p"] for r in rows]
        assert all(f > 1.0 / 3.0 for f in F)
        assert F[0] > F[1] > F[2]  # decreasing toward the sharp constant
        assert all(r["theorem2_ok"] for r in rows)
        assert all(r["T"] <= r["slab_upper"] for r in rows)
        assert all(r["theorem3_ok"] for r in rows)

    def test_triangle_sequence_deficit_floor(self, monkeypatch):
        monkeypatch.setattr(harness, "SEQUENCE_MESH_DIVISOR", 8)
        rows = run_sequence("triangle", (0.4, 0.2), 2.0, grid=128)
        for r in rows:
            assert r["deficit"] >= 1.0 / 6.0

    def test_rectangle_p3_tends_to_sharp_constant(self, monkeypatch):
        monkeypatch.setattr(harness, "SEQUENCE_MESH_DIVISOR", 8)
        rows = run_sequence("rectangle", (0.2, 0.1), 3.0, grid=128)
        F = [r["F_p"] for r in rows]
        c3 = 2.0 / 5.0
        assert F[1] < F[0]
        assert F[1] == pytest.approx(c3, rel=0.03)
        assert all(f > c3 for f in F)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            run_sequence("pentagon", (0.2,), 2.0)

    def test_svg_is_static(self, monkeypatch):
        monkeypatch.setattr(harness, "SEQUENCE_MESH_DIVISOR", 6)
        rows = run_sequence("rectangle", (0.4, 0.2), 2.0, grid=128)
        buf = io.StringIO()
        write_sequence_svg(rows, buf)
        svg = buf.getvalue()
        assert svg.startswith("<svg")
        assert "polyline" in svg
        assert "script" not in svg
