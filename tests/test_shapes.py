import json
import math

import numpy as np
import pytest

from oracles import T_DISK_P2, T_DISK_P3, torsion_disk_exact
from webtorsion.bounds import c_p, q_exponent
import webtorsion.shapes as shapes_mod
from webtorsion.errors import BadParameter
from webtorsion.geometry import metrics
from webtorsion.shapes import (
    cylinder_perimeter,
    disk,
    from_descriptor,
    isosceles_triangle,
    rectangle,
    slab_upper_bound,
    stadium,
    stadium_of_width,
    torsion_p_ball,
)


class TestRectangle:
    def test_record_l_01(self):
        poly, rec = rectangle(0.1)
        assert rec.perimeter == pytest.approx(20.2)
        assert rec.area == 1.0
        assert rec.inradius == pytest.approx(0.05)
        assert rec.width == pytest.approx(0.1)
        m = metrics(poly)
        assert m.area == pytest.approx(rec.area, rel=1e-12)
        assert m.perimeter == pytest.approx(rec.perimeter, rel=1e-12)
        assert m.inradius == pytest.approx(rec.inradius, rel=1e-9)
        assert m.width == pytest.approx(rec.width, rel=1e-12)
        assert m.diameter == pytest.approx(rec.diameter, rel=1e-12)

    def test_slab_upper_values(self):
        # p = 2 reduces to l^2 / 12
        assert slab_upper_bound(0.1, 2.0) == pytest.approx(0.1**2 / 12.0)
        assert slab_upper_bound(0.1, 2.0) == pytest.approx(8.3333e-4, rel=1e-4)
        # p = 3: 2 c_3 l^{-1} (l/2)^{5/2} = 8 (0.05)^{5/2}
        assert slab_upper_bound(0.1, 3.0) == pytest.approx(8.0 * 0.05**2.5, rel=1e-12)
        assert slab_upper_bound(0.1, 3.0) == pytest.approx(4.472e-3, rel=1e-3)

    def test_slab_limit_is_sharp_constant(self):
        # slab bound times P^q tends to c_p from above as l -> 0
        for p in (1.5, 2.0, 3.0):
            q = q_exponent(p)
            vals = [slab_upper_bound(l, p) * rectangle(l)[1].perimeter**q
                    for l in (0.2, 0.1, 0.05, 0.02)]
            assert all(v > c_p(p) for v in vals)
            assert vals[-1] == pytest.approx(c_p(p), rel=3e-3)
            assert np.all(np.diff(vals) < 0)

    def test_bad_parameter(self):
        for l in (0.0, -0.5, 1.0, 2.0, math.nan):
            with pytest.raises(BadParameter):
                rectangle(l)
        for args in ((math.nan, 2.0), (0.1, math.nan), (0.1, 2.0, math.nan)):
            with pytest.raises(BadParameter):
                slab_upper_bound(*args)


class TestCylinder:
    def test_planar_matches_rectangle(self):
        assert cylinder_perimeter(0.1, 2) == pytest.approx(20.2)
        _, rec = rectangle(0.1)
        assert cylinder_perimeter(0.1, 2) == pytest.approx(rec.perimeter)

    def test_dimension_three(self):
        # unit square cross-section: H^1 of its boundary is 4
        assert cylinder_perimeter(0.01, 3, 4.0) == pytest.approx(200.4)

    def test_requires_boundary_measure_above_two(self):
        with pytest.raises(BadParameter):
            cylinder_perimeter(0.1, 3)
        for args in ((math.nan, 2), (0.1, math.nan, 4.0), (0.1, 3, math.nan)):
            with pytest.raises(BadParameter):
                cylinder_perimeter(*args)

    def test_torsion_perimeter_product_limit(self):
        # 2 c_p l^{-1} (l/2)^{(2p-1)/(p-1)} P^q -> c_p (1 + l^{n/(n-1)} H/2)^q
        p, n, H = 2.0, 3, 4.0
        q = q_exponent(p)
        for l in (1e-2, 1e-3, 1e-4):
            prod = slab_upper_bound(l, p, n) * cylinder_perimeter(l, n, H) ** q
            expected = c_p(p) * (1.0 + l ** (n / (n - 1.0)) / 2.0 * H) ** q
            assert prod == pytest.approx(expected, rel=1e-12)
        assert prod == pytest.approx(c_p(p), rel=1e-5)


class TestTriangle:
    def test_incircle_identity_exact(self):
        for l in (0.4, 0.2, 0.1, 0.05, 1.0, 3.0):
            poly, rec = isosceles_triangle(l)
            m = metrics(poly)
            assert m.perimeter * m.inradius / m.area == pytest.approx(2.0, rel=1e-12)
            assert rec.perimeter * rec.inradius == pytest.approx(2.0 * rec.area, rel=1e-15)

    def test_record_matches_metrics(self):
        for l in (0.3, 0.9, 2.0):
            poly, rec = isosceles_triangle(l)
            m = metrics(poly)
            assert m.area == pytest.approx(1.0, rel=1e-12)
            assert m.perimeter == pytest.approx(rec.perimeter, rel=1e-12)
            assert m.width == pytest.approx(rec.width, rel=1e-12)
            assert m.inradius == pytest.approx(rec.inradius, rel=1e-9)

    def test_equilateral_member(self):
        # l = 3^(1/4) makes the unit-area triangle equilateral, where w/R = 3
        poly, _ = isosceles_triangle(3.0**0.25)
        m = metrics(poly)
        assert m.width / m.inradius == pytest.approx(3.0, rel=1e-9)

    def test_deficit_floor(self):
        _, rec = isosceles_triangle(0.2)
        assert rec.deficit_floor == pytest.approx(1.0 / 6.0)

    def test_bad_parameter(self):
        for l in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(BadParameter, match="triangle parameter"):
                isosceles_triangle(l)


class TestStadium:
    def test_record_and_santalo_equality(self):
        _, rec = stadium(0.5, 2.0)
        assert rec.area == pytest.approx(rec.inradius * (rec.perimeter - math.pi * rec.inradius), rel=1e-15)
        assert rec.width == 1.0

    def test_degenerate_is_disk(self):
        poly, rec = stadium(1.0, 0.0, 128)
        assert rec.area == pytest.approx(math.pi)
        m = metrics(poly)
        assert m.area == pytest.approx(math.pi, rel=1e-3)

    def test_polygonalization_budget(self):
        poly, rec = stadium(0.5, 2.0, 256)
        m = metrics(poly)
        assert m.area == pytest.approx(rec.area, rel=1e-3)
        assert m.perimeter == pytest.approx(rec.perimeter, rel=1e-3)
        assert m.inradius == pytest.approx(rec.inradius, rel=1e-3)
        assert m.width == pytest.approx(rec.width, rel=1e-3)

    def test_validation(self):
        for r, a in ((0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (math.inf, 1.0),
                     (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(BadParameter, match="need finite r > 0"):
                stadium(r, a)
        with pytest.raises(BadParameter):
            stadium(1.0, 1.0, 32)
        with pytest.raises(BadParameter):
            stadium_of_width(2.0)


class TestDisk:
    def test_torsion_table(self):
        assert torsion_p_ball(2.0) == pytest.approx(T_DISK_P2, rel=1e-15)
        assert torsion_p_ball(3.0) == pytest.approx(
            2.0 * math.pi * (2.0 / 3.0) * 2.0**-0.5 * (0.5 - 2.0 / 7.0), rel=1e-15
        )
        assert torsion_p_ball(3.0) == pytest.approx(T_DISK_P3, rel=1e-12)
        # radial quadrature oracle across exponents
        for p in (1.2, 1.5, 2.0, 2.5, 4.0):
            assert torsion_p_ball(p) == pytest.approx(torsion_disk_exact(p), rel=1e-9)
        # scaling R^{q+2}
        assert torsion_p_ball(2.0, 2.0) == pytest.approx(16.0 * T_DISK_P2, rel=1e-12)

    def test_torsion_of_higher_balls(self):
        # the 3-ball at p = 2: u = (1 - r^2)/6, T = 4 pi / 45
        assert torsion_p_ball(2.0, 1.0, 3) == pytest.approx(4.0 * math.pi / 45.0, rel=1e-15)
        for n in (3, 4):
            for p in (1.2, 1.5, 2.0, 3.0, 7.0):
                for R in (1.0, 0.7):
                    assert torsion_p_ball(p, R, n) == pytest.approx(torsion_disk_exact(p, R, n), rel=1e-10)
        for args in ((2.0, 1.0, 1), (math.nan,), (2.0, math.nan), (2.0, 1.0, math.nan)):
            with pytest.raises(BadParameter):
                torsion_p_ball(*args)

    def test_bad_radius(self):
        for radius in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(BadParameter, match="radius"):
                disk(radius)

    def test_point_count_capped(self, monkeypatch):
        monkeypatch.setattr(shapes_mod, "_MAX_POINTS", 100)
        assert len(disk(1.0, 100)[0].vertices) == 100
        # rejected before any point array is made
        monkeypatch.setattr(shapes_mod, "np", None)
        with pytest.raises(BadParameter):
            disk(1.0, 101)
        with pytest.raises(BadParameter):
            stadium(1.0, 1.0, 101)

    def test_polygonalization_budgets(self):
        for k, budget in ((256, 1e-3), (2048, 1e-5)):
            poly, rec = disk(1.0, k)
            m = metrics(poly)
            assert m.area == pytest.approx(rec.area, rel=budget)
            assert m.perimeter == pytest.approx(rec.perimeter, rel=budget)
            assert m.inradius == pytest.approx(rec.inradius, rel=budget)
            assert m.width == pytest.approx(rec.width, rel=budget)


class TestDescriptor:
    def test_vertices(self):
        poly, rec = from_descriptor({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]})
        assert rec is None
        assert metrics(poly).area == pytest.approx(1.0)

    def test_named_shapes(self):
        for desc in (
            {"shape": "rectangle", "l": 0.1},
            {"shape": "triangle", "l": 0.2},
            {"shape": "stadium", "r": 0.5, "a": 2, "k": 256},
            {"shape": "disk", "R": 1, "k": 256},
        ):
            poly, rec = from_descriptor(json.loads(json.dumps(desc)))
            assert rec is not None
            assert metrics(poly).area > 0

    def test_unknown_rejected(self):
        with pytest.raises(BadParameter):
            from_descriptor({"shape": "pentagon"})
        # JSON's NaN reaches the disk's guard, not the polygon check
        with pytest.raises(BadParameter, match="radius"):
            from_descriptor(json.loads('{"shape": "disk", "R": NaN}'))
        with pytest.raises(BadParameter):
            from_descriptor([1, 2])
