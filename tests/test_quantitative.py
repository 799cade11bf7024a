import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from oracles import (
    T_DISK_P2,
    T_UNIT_SQUARE,
    sigma_bisection,
    symdiff_ratio_clipped,
    torsion_rectangle_series,
)
from webtorsion.bounds import functional_F
from webtorsion.errors import BadExponent, BadParameter, ContainmentFailure
from webtorsion.geometry import metrics, polygon_from_vertices
from webtorsion.parallel import WeightProfile
from webtorsion.quantitative import (
    K_of_p,
    enclosing_rectangle,
    k_tilde,
    sigma_threshold,
    theorem2_report,
    theorem3_report,
)
from webtorsion.shapes import disk, isosceles_triangle, rectangle, stadium
from webtorsion.solver import richardson_T, solve_torsion, triangulate

W1 = WeightProfile.constant(1.0)


class TestConstants:
    def test_K_values(self):
        assert K_of_p(2.0) == pytest.approx(1.0 / 72.0, rel=1e-15)
        assert K_of_p(1.5) == pytest.approx(0.00625, rel=1e-12)
        assert K_of_p(10.0) == pytest.approx(
            90.0 / (2.0 ** (10.0 / 9.0) * 3.0 * 28.0 * 19.0), rel=1e-12
        )
        for p in (1.0, math.nan):
            with pytest.raises(BadExponent):
                K_of_p(p)
        # 2^q overflows: in log space K is subnormal near q = 1030 and 0 as p
        # tends to 1; the direct formula keeps its bits where it is finite
        assert K_of_p(1.001) == 1.5492393114241529e-305
        p = 1.00097
        expected = (math.log10((p - 1.0) * p / (3.0 * (3.0 * p - 2.0) * (2.0 * p - 1.0)))
                    - p / (p - 1.0) * math.log10(2.0))
        assert math.log10(K_of_p(p)) == pytest.approx(expected, rel=1e-9)
        with pytest.raises(BadExponent):
            K_of_p(1.0000001)

    def test_K_tends_to_one_36th(self):
        # (p-1) p and (3p-2)(2p-1) overflow for large p while K tends to 1/36;
        # an overflowed denominator is not read as a finite K = 0
        for p in (1e100, 1e154, 1e200, 1e300):
            K = K_of_p(p)
            assert K > 0.0
            assert K == pytest.approx(1.0 / 36.0, rel=1e-11)

    def test_sigma_binding_constraint(self):
        sigma = sigma_threshold()
        K2 = 1.0 / 72.0
        # closed forms of the three admissible maxima
        x1 = math.sqrt((2.0**3 * 3.0**3) / (4.0**3 * 6.0)) / math.pi
        a, b, c = math.pi**2 / 96.0, math.pi / 48.0, -1.0 / 162.0
        x2 = (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
        x3 = math.sqrt(3.0) / 2.0 - 8.0 / (3.0 * math.pi)
        assert x1 == pytest.approx(0.2387, rel=1e-3)
        assert x2 == pytest.approx(0.0834, rel=1e-2)
        assert x3 == pytest.approx(0.01720, rel=1e-3)
        # the third constraint binds
        assert sigma == pytest.approx(K2 * min(x1, x2, x3), rel=1e-10)
        assert sigma == pytest.approx(2.3888e-4, rel=1e-4)
        assert sigma == pytest.approx(sigma_bisection(), rel=1e-10)

    def test_k_tilde(self):
        kt = k_tilde()
        assert kt > 0.0
        assert kt == pytest.approx(sigma_threshold() / 8.0, rel=1e-12)
        assert kt == pytest.approx(2.986e-5, rel=1e-3)
        assert 1.0 / 384.0 > kt  # the fallback constant is not binding


class TestEnclosingRectangle:
    def test_unit_square(self, unit_square):
        rect = enclosing_rectangle(unit_square)
        assert rect.long_side == pytest.approx(2.0)
        assert rect.short_side == pytest.approx(1.0)
        assert rect.symdiff_ratio == pytest.approx(1.0, rel=1e-12)

    def test_rectangle_family(self):
        # for an a x b rectangle, D = b / a
        poly = polygon_from_vertices([(0, 0), (4, 0), (4, 1), (0, 1)])
        rect = enclosing_rectangle(poly)
        assert rect.symdiff_ratio == pytest.approx(0.25, rel=1e-12)

    def test_equilateral_hits_cap(self, equilateral):
        rect = enclosing_rectangle(equilateral)
        assert rect.symdiff_ratio == pytest.approx(2.0, rel=1e-12)

    def test_geometric_ratio_matches_closed_form(self, small_corpus):
        named = [
            disk(1.0, 256)[0],
            stadium(0.5, 1.0, 256)[0],
            rectangle(0.01)[0],
            isosceles_triangle(0.05)[0],
        ]
        for poly in small_corpus[:20] + named:
            rect = enclosing_rectangle(poly)
            geo = symdiff_ratio_clipped(poly, rect)
            assert geo == pytest.approx(rect.symdiff_ratio, rel=1e-9, abs=1e-9)
            assert 0.0 < rect.symdiff_ratio <= 2.0 + 1e-12

    def test_containment(self, small_corpus):
        for poly in small_corpus[:20]:
            rect = enclosing_rectangle(poly)
            c = rect.corners
            e = np.roll(c, -1, axis=0) - c
            normals = np.column_stack((-e[:, 1], e[:, 0]))
            normals /= np.linalg.norm(normals, axis=1)[:, None]
            for i in range(4):
                d = poly.vertices @ normals[i] - normals[i] @ c[i]
                assert d.min() >= -1e-9

    def test_escaping_vertex_raises(self, unit_square):
        # a strip of half the width cannot hold the body
        body = metrics(unit_square)
        with pytest.raises(ContainmentFailure):
            enclosing_rectangle(unit_square, replace(body, width=0.5 * body.width))


class TestTheorem2:
    def test_unit_square(self, unit_square):
        rep = theorem2_report(metrics(unit_square), T_UNIT_SQUARE, 2.0)
        assert rep.F_p == pytest.approx(0.5623, rel=1e-3)
        assert rep.deficit == pytest.approx(0.2290, rel=1e-3)
        assert rep.theorem2_rhs == pytest.approx(1.0 / 72.0 / math.sqrt(2.0), rel=1e-9)
        assert rep.theorem2_ok

    def test_disk(self):
        body = metrics(disk(1.0, 2048)[0])
        rep = theorem2_report(body, T_DISK_P2, 2.0)
        assert rep.deficit == pytest.approx(1.0 / 6.0, rel=1e-3)
        assert rep.theorem2_rhs == pytest.approx(1.0 / 72.0, rel=1e-3)
        assert rep.theorem2_ok

    @pytest.mark.parametrize("l", [0.4, 0.2, 0.1])
    def test_rectangle_sharpness_rate(self, l):
        # (F_2 - 1/3) diam / w sits between K(2) and the chain constant 8/3
        poly, rec = rectangle(l)
        body = metrics(poly)
        T = torsion_rectangle_series(1.0 / l, l)
        rep = theorem2_report(body, T, 2.0)
        rate = rep.deficit * body.diameter / body.width
        assert K_of_p(2.0) <= rate <= 8.0 / 3.0
        assert rep.theorem2_ok

    def test_fuzz_with_solver(self, small_corpus):
        for poly in small_corpus[:6]:
            m = metrics(poly)
            mesh = triangulate(poly, m.inradius / 8.0)
            for p in (1.5, 2.0, 3.0):
                T = solve_torsion(mesh, W1, p).torsion
                rep = theorem2_report(m, T, p)
                assert rep.theorem2_ok
                assert rep.deficit > 0.0


class TestTheorem3:
    def test_unit_square_large_branch(self, unit_square):
        rep = theorem3_report(unit_square, T_UNIT_SQUARE)
        assert rep.branch == "large-deficit"
        assert rep.theorem3_ok
        assert rep.quantitative_R_ok is None
        assert rep.theorem3_rhs == pytest.approx(sigma_threshold() / 8.0, rel=1e-9)
        assert rep.theorem3_rhs == k_tilde() * rep.symdiff_ratio**3
        assert rep.all_ok

    def test_thin_rectangle_small_branch(self):
        # deficit ~ (4/3) l^2 falls under sigma around l = 0.013
        l = 0.01
        poly, _ = rectangle(l)
        T = torsion_rectangle_series(1.0 / l, l)
        rep = theorem3_report(poly, T)
        assert rep.branch == "small-deficit"
        assert 0.0 < rep.deficit < sigma_threshold()
        assert rep.symdiff_ratio == pytest.approx(l * l, rel=1e-6)
        # intermediate inradius-deficit inequality: deficit >= (1/6) l^6
        assert rep.quantitative_R_rhs == pytest.approx(l**6 / 6.0, rel=1e-5)
        assert rep.quantitative_R_ok
        assert rep.theorem3_rhs == k_tilde() * rep.symdiff_ratio**3
        assert rep.theorem3_ok
        assert rep.all_ok

    def test_stadium_report(self):
        poly, rec = stadium(0.5, 2.0, 256)
        h = rec.inradius / 10.0
        rich = richardson_T(poly, W1, 2.0, [4 * h, 2 * h, h])
        rep = theorem3_report(poly, rich.torsion)
        assert rep.theorem2_ok and rep.theorem3_ok and rep.all_ok

    def test_triangle_deficit_floor(self):
        # P R / area = 2 for triangles pins the inradius deficit at 1
        for l in (0.4, 0.2):
            poly, _ = isosceles_triangle(l)
            m = metrics(poly)
            mesh = triangulate(poly, m.inradius / 8.0)
            T = solve_torsion(mesh, W1, 2.0).torsion
            rep = theorem3_report(poly, T, m)
            assert rep.inradius_deficit == pytest.approx(1.0, rel=1e-9)
            assert rep.deficit >= 1.0 / 6.0

    def test_rejects_non_finite_torsion(self, unit_square):
        body = metrics(unit_square)
        for T in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(BadParameter, match="finite and positive"):
                functional_F(T, body, 2.0)
            with pytest.raises(BadParameter, match="finite and positive"):
                theorem3_report(unit_square, T)

    def test_json_payload(self, unit_square):
        rep = theorem3_report(unit_square, T_UNIT_SQUARE)
        d = asdict(rep)
        for key in ("p", "torsion", "F_p", "c_p", "deficit", "width_diam_ratio", "K_p",
                    "theorem2_rhs", "theorem2_ok", "inradius_deficit", "rectangle",
                    "symdiff_ratio", "sigma", "k_tilde", "branch", "theorem3_rhs",
                    "theorem3_ok"):
            assert key in d
        assert d["rectangle"]["long_side"] == pytest.approx(2.0)
