import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import webtorsion
from oracles import chebyshev_center_lp, diameter_bruteforce, width_sampled
from webtorsion.errors import Degenerate, NonConvex, NonPositiveScale
from webtorsion.geometry import (
    ConvexPolygon,
    metrics,
    polygon_from_vertices,
    scale,
)
from webtorsion.harness import FuzzConfig, random_convex_body
from webtorsion.shapes import disk, isosceles_triangle, rectangle, stadium


def test_unit_square_construction(unit_square):
    assert len(unit_square.vertices) == 4
    m = metrics(unit_square)
    assert m.area == pytest.approx(1.0, abs=1e-15)
    assert m.perimeter == pytest.approx(4.0, abs=1e-15)
    assert m.diameter == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert m.width == pytest.approx(1.0, abs=1e-15)
    assert m.inradius == pytest.approx(0.5, rel=1e-12)
    assert m.incenter[0] == pytest.approx(0.5, abs=1e-9)
    assert m.incenter[1] == pytest.approx(0.5, abs=1e-9)


def test_reflex_vertex_rejected():
    with pytest.raises(NonConvex):
        polygon_from_vertices([(0, 0), (1, 0), (0.5, -0.1), (1, 1), (0, 1)])


def test_collinear_point_merged():
    poly = polygon_from_vertices([(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)])
    assert len(poly.vertices) == 4
    assert metrics(poly).area == pytest.approx(1.0)


def test_clockwise_input_reversed():
    poly = polygon_from_vertices([(0, 0), (0, 1), (1, 1), (1, 0)])
    assert metrics(poly).area == pytest.approx(1.0)


def test_degenerate_rejected():
    with pytest.raises(Degenerate):
        polygon_from_vertices([(0, 0), (1, 0), (2, 1e-13)])
    with pytest.raises(Degenerate):
        polygon_from_vertices([(0, 0), (1, 0)])


def test_winding_twice_rejected():
    th = np.linspace(0, 4 * np.pi, 10, endpoint=False)
    star = np.column_stack((np.cos(th), np.sin(th)))
    with pytest.raises(NonConvex):
        polygon_from_vertices(star)


def test_pentagram_rejected():
    # every corner of a pentagram turns left, but its boundary winds twice
    th = 0.8 * np.pi * np.arange(5)
    with pytest.raises(NonConvex):
        ConvexPolygon(np.column_stack((np.cos(th), np.sin(th))))


def test_equilateral_width_over_inradius(equilateral):
    m = metrics(equilateral)
    assert m.width / m.inradius == pytest.approx(3.0, rel=1e-12)
    assert m.inradius == pytest.approx(math.sqrt(3.0) / 6.0, rel=1e-12)


def test_thin_rectangle_metrics():
    poly = polygon_from_vertices([(-5, -0.05), (5, -0.05), (5, 0.05), (-5, 0.05)])
    m = metrics(poly)
    assert m.area == pytest.approx(1.0, rel=1e-13)
    assert m.perimeter == pytest.approx(20.2, rel=1e-13)
    assert m.width == pytest.approx(0.1, rel=1e-12)
    assert m.diameter == pytest.approx(math.sqrt(100.01), rel=1e-13)
    assert m.inradius == pytest.approx(0.05, rel=1e-9)


def test_scale(unit_square):
    doubled = scale(unit_square, 2.0)
    m = metrics(doubled)
    assert m.area == pytest.approx(4.0)
    assert m.perimeter == pytest.approx(8.0)
    same = scale(unit_square, 1.0)
    assert np.array_equal(same.vertices, unit_square.vertices)
    with pytest.raises(NonPositiveScale):
        scale(unit_square, 0.0)
    with pytest.raises(NonPositiveScale):
        scale(unit_square, -2.0)


def test_metric_scaling_laws(small_corpus):
    for poly in small_corpus[:10]:
        m = metrics(poly)
        ms = metrics(scale(poly, 3.0))
        assert ms.area == pytest.approx(9.0 * m.area, rel=1e-12)
        assert ms.perimeter == pytest.approx(3.0 * m.perimeter, rel=1e-12)
        assert ms.width == pytest.approx(3.0 * m.width, rel=1e-12)
        assert ms.diameter == pytest.approx(3.0 * m.diameter, rel=1e-12)
        assert ms.inradius == pytest.approx(3.0 * m.inradius, rel=1e-9)


@pytest.fixture(scope="module")
def caliper_bodies(small_corpus):
    bodies = list(small_corpus)
    for k in [*range(3, 65), 100, 127, 128, 255, 256, 511, 512, 1000, 1023, 1024]:
        th = np.linspace(0.0, 2.0 * np.pi, k, endpoint=False)
        bodies.append(polygon_from_vertices(np.column_stack((np.cos(th), np.sin(th)))))
    for l in (0.5, 0.1, 0.01):
        bodies += [rectangle(l)[0], isosceles_triangle(l)[0]]
    bodies += [isosceles_triangle(5.0)[0], stadium(0.5, 1.0, 256)[0], disk(1.0, 256)[0]]
    return bodies


def test_diameter_calipers_matches_bruteforce(caliper_bodies):
    for poly in caliper_bodies:
        assert metrics(poly).diameter == pytest.approx(diameter_bruteforce(poly.vertices), rel=1e-12)


def test_width_matches_direction_sampling(caliper_bodies):
    for poly in caliper_bodies:
        m = metrics(poly)
        # the sampled set contains every edge normal, where the minimum lives
        assert m.width == pytest.approx(width_sampled(poly.vertices), rel=1e-12)
        # and the reported direction is an edge normal that attains it
        u = np.asarray(m.width_direction)
        assert np.any(np.all(poly.edge_normals == u, axis=1))
        proj = poly.vertices @ u
        assert proj.max() - proj.min() == pytest.approx(m.width, rel=1e-12)


def test_inscribed_disk_fits(small_corpus):
    for poly in small_corpus:
        m = metrics(poly)
        center = np.asarray(m.incenter)
        d = poly.signed_distance(center[None, :])[0]
        assert d >= m.inradius - 1e-12
        # the skeleton's last node against the linear program's optimum
        assert m.inradius == pytest.approx(chebyshev_center_lp(poly)[0], rel=1e-9)
    # the deepest inner body of a rectangle is a segment; its midpoint is the center
    assert metrics(rectangle(0.2)[0]).incenter == pytest.approx((0.0, 0.0), abs=1e-15)


def test_inradius_matches_tight_lp():
    # HiGHS at its default feasibility tolerances puts this 14-gon's inradius
    # 5.0e-6 relative short of the optimum
    poly = random_convex_body(FuzzConfig(seed=42), 160)
    assert metrics(poly).inradius == pytest.approx(chebyshev_center_lp(poly)[0], rel=1e-12)


def test_import_leaves_out_scipy_optimize():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(webtorsion.__file__)))
    code = "import sys, webtorsion; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_isoperimetric_inequality(small_corpus):
    for poly in small_corpus:
        m = metrics(poly)
        assert m.perimeter**2 >= 4.0 * math.pi * m.area


def test_metric_windows(small_corpus):
    for poly in small_corpus:
        m = metrics(poly)
        ratio = m.area / (m.perimeter * m.inradius)
        assert 0.5 - 1e-9 <= ratio < 1.0 + 1e-9
        assert 2.0 - 1e-9 <= m.width / m.inradius <= 3.0 + 1e-9
        assert 2.0 * m.diameter < m.perimeter * (1.0 + 1e-9)
        assert m.perimeter <= math.pi * m.diameter * (1.0 + 1e-9)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=3, max_value=64))
@settings(max_examples=60, deadline=None)
def test_random_bodies_are_valid(index, nmax):
    cfg = FuzzConfig(seed=77, count=10_001, max_vertices=nmax)
    poly = random_convex_body(cfg, index)
    # construction re-checks every polygon invariant
    ConvexPolygon(poly.vertices)
    assert metrics(poly).area > 0


def test_immutability(unit_square):
    with pytest.raises(ValueError):
        unit_square.vertices[0, 0] = 7.0
