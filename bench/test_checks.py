"""The benchmark's checks pass on real outputs and fail on perturbed ones.

    python3 -m pytest -q bench/test_checks.py
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import refs  # noqa: E402
from webtorsion.bounds import bound_report  # noqa: E402
from webtorsion.geometry import metrics, polygon_from_vertices  # noqa: E402
from webtorsion.parallel import WeightProfile, inner_body, profile  # noqa: E402
from webtorsion.quantitative import theorem2_report, theorem3_report  # noqa: E402
from webtorsion.shapes import disk  # noqa: E402
from webtorsion.solver import richardson_T  # noqa: E402

W1 = WeightProfile.constant(1.0)
SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


@pytest.fixture(scope="module")
def square():
    return polygon_from_vertices(SQUARE)


@pytest.fixture(scope="module")
def square_profile(square):
    return profile(square, W1, 128)


@pytest.fixture(scope="module")
def kgon():
    poly, _ = disk(1.0, 64)
    return poly, refs.RegularPolygon(64)


@pytest.fixture(scope="module")
def square_ladder(square):
    return richardson_T(square, W1, 2.0, [1 / 24, 1 / 48, 1 / 96])


def test_references_match_known_values():
    assert refs.rectangle_torsion(1.0, 1.0) == pytest.approx(0.03514425373904368, rel=1e-12)
    assert refs.disk_torsion(2.0, 1.0) == pytest.approx(math.pi / 8.0, rel=1e-14)
    assert refs.disk_torsion(1.5, 1.0) == pytest.approx(math.pi / 20.0, rel=1e-14)
    assert refs.K_of_p(2.0) == pytest.approx(1.0 / 72.0, rel=1e-14)
    assert refs.planar_window(2.0) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert refs.area_perimeter(SQUARE) == (1.0, 4.0)


def test_kgon_mu_f_closed_forms_match_quadrature():
    from scipy.integrate import quad

    poly = refs.RegularPolygon(7, 1.3)
    for kind, param, f, kink in (
        ("const", 0.0, lambda s: 1.0, 0.5),
        ("linear", 1.0, lambda s: max(1.0 - s, 0.0), 1.0),
        ("linear", 2.5, lambda s: max(1.0 - 2.5 * s, 0.0), 0.4),
        ("exp", 1.7, lambda s: math.exp(-1.7 * s), 0.5),
    ):
        val, _ = quad(lambda s: f(s) * float(poly.perimeter(s)), 0.0, poly.apothem,
                      points=[kink], epsabs=0.0, epsrel=1e-13)
        assert poly.mu_f_total(kind, param) == pytest.approx(val, rel=1e-10)


def test_fuzz_summary():
    good = {"count": 10, "violations": [], "worst_slack": 0.01, "worst_body": 3}
    assert checks.fuzz_summary(0, good, 10) == []
    assert checks.fuzz_summary(2, good, 10)
    assert checks.fuzz_summary(0, dict(good, count=9), 10)
    bad = dict(good, violations=[{"body": 4, "name": "scott", "slack": -1e-3}])
    assert checks.fuzz_summary(0, bad, 10)


def test_inradius(square):
    m = metrics(square)
    assert checks.inradius(square.vertices, m.inradius, m.incenter) == []
    assert checks.inradius(square.vertices, m.inradius * (1 + 1e-6), m.incenter)
    assert checks.inradius(square.vertices, m.inradius, (0.5 + 1e-3, 0.5))
    assert checks.inradius(square.vertices, 0.2, m.incenter)


def test_bound_chain_and_constants(square_profile):
    for p in (1.5, 2.0, 3.0):
        rep = bound_report(square_profile, p)
        assert checks.bound_chain(rep.closed, rep.refined, rep.integral) == []
        assert checks.bound_chain(rep.closed, rep.integral, rep.refined)
        assert checks.bound_chain(rep.refined, rep.closed, rep.integral)
        assert checks.bound_constants(rep.closed, rep.f_p_window, 1.0, 4.0, p, True) == []
        assert checks.bound_constants(rep.closed * (1 + 1e-6), rep.f_p_window, 1.0, 4.0, p, True)
        window = (rep.f_p_window[0], rep.f_p_window[1] * (1 + 1e-6))
        assert checks.bound_constants(rep.closed, window, 1.0, 4.0, p, True)


def test_steiner(square_profile):
    t, P, mu = square_profile.t, square_profile.perimeters, square_profile.areas
    assert checks.steiner(t, P, mu, 1.0, 4.0) == []
    flat = P.copy()
    flat[5] = flat[4]
    assert checks.steiner(t, flat, mu, 1.0, 4.0)
    shrunk = mu.copy()
    shrunk[40] -= 0.05
    assert checks.steiner(t, P, shrunk, 1.0, 4.0)
    assert checks.steiner(t, P * (1 + 1e-3), mu, 1.0, 4.0)


def test_clip_route(square, square_profile):
    j = 32
    t = float(square_profile.t[j])
    loop = np.array(inner_body(square, t).vertices)
    P, mu = square_profile.perimeters[j], square_profile.areas[j]
    assert checks.clip_route(P, mu, loop, 1.0, 4.0, j) == []
    assert checks.clip_route(P * (1 + 1e-6), mu, loop, 1.0, 4.0, j)
    assert checks.clip_route(P, mu - 1e-7, loop, 1.0, 4.0, j)
    assert checks.clip_route(P, mu, None, 1.0, 4.0, j)
    assert checks.clip_route(0.0, 0.0, None, 1.0, 4.0, j) == []


def test_kgon_profile_and_integral(kgon):
    poly, ref = kgon
    for kind, param, w in (
        ("const", 0.0, W1),
        ("linear", 1.0, WeightProfile.truncated_linear(1.0, 1.0)),
        ("exp", 1.0, WeightProfile.exponential(1.0, 1.0)),
    ):
        prof = profile(poly, w, 512)
        assert checks.kgon_profile(ref, prof.t, prof.perimeters, prof.areas) == []
        assert checks.kgon_mu_f(ref, prof.mu_f_total, kind, param) == []
        assert checks.kgon_mu_f(ref, prof.mu_f_total * (1 + 1e-4), kind, param)
    shifted = prof.t.copy()
    shifted[100] += 1e-3
    assert checks.kgon_profile(ref, shifted, prof.perimeters, prof.areas)
    prof = profile(poly, W1, 512)
    for p in (1.5, 2.0, 3.0):
        integral = bound_report(prof, p).integral
        assert checks.kgon_integral(ref, integral, p) == []
        assert checks.kgon_integral(ref, integral * (1 + 1e-3), p)
        assert checks.kgon_integral(ref, ref.web_integral_const(p) * (1 - 1e-6), p)


def test_torsion_case(square, square_ladder):
    body = metrics(square)
    T = square_ladder.torsion
    t2 = theorem2_report(body, T, 2.0)
    t3 = theorem3_report(square, T, body)
    args = (t2.torsion, t2.F_p, t2.theorem2_ok, t3.theorem3_ok, t3.quantitative_R_ok)
    assert checks.torsion_case(SQUARE, 2.0, T, *args) == []
    assert checks.torsion_case(SQUARE, 2.0, T * (1 + 1e-3), *args)
    assert checks.torsion_case(SQUARE, 2.0, T * 10.0, *args)
    assert checks.torsion_case(SQUARE, 2.0, T, t2.torsion, t2.F_p, False, t3.theorem3_ok, None)
    assert checks.torsion_case(SQUARE, 2.0, T, t2.torsion, t2.F_p, True, False, None)
    assert checks.torsion_case(SQUARE, 2.0, T, t2.torsion, t2.F_p, True, True, False)


def test_fine_ladder(square_ladder):
    ref = refs.rectangle_torsion(1.0, 1.0)
    Ts, T, err = square_ladder.torsions, square_ladder.torsion, square_ladder.error
    assert checks.fine_ladder(Ts, T, err, ref, ref) == []
    assert checks.fine_ladder(Ts, T * (1 + 1e-3), err, ref, ref)
    assert checks.fine_ladder(Ts[:-1] + (ref * (1 + 1e-9),), T, err, ref, ref)
    assert checks.fine_ladder(Ts, T, err, ref * 1.01, ref * 1.02)
