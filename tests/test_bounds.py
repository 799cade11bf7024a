import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from oracles import (
    T_DISK_P2,
    WEB_CLOSED_SQUARE,
    WEB_INTEGRAL_SQUARE,
    torsion_rectangle_series,
    web_integral_quad,
)
import webtorsion
import webtorsion.bounds
from webtorsion.bounds import (
    bound_report,
    c_p,
    functional_F,
    functional_H_half,
    makai_upper,
    q_exponent,
)
from webtorsion.errors import BadExponent, BadParameter, WebTorsionError
from webtorsion.geometry import metrics, scale
from webtorsion.parallel import WeightProfile, profile
from webtorsion.quantitative import K_of_p, theorem2_report
from webtorsion.shapes import disk, rectangle, slab_upper_bound, torsion_p_ball

W1 = WeightProfile.constant(1.0)
WEIGHTS = (
    WeightProfile.constant(1.0),
    WeightProfile.truncated_linear(1.0, 1.0),
    WeightProfile.exponential(1.0, 1.0),
)
P_VALUES = (1.5, 2.0, 3.0)


def test_constants():
    assert c_p(2.0) == pytest.approx(1.0 / 3.0)
    assert c_p(3.0) == pytest.approx(2.0 / 5.0)
    assert q_exponent(2.0) == 2.0
    assert makai_upper(2.0) == pytest.approx(2.0 / 3.0)
    with pytest.raises(BadExponent):
        c_p(1.0)
    with pytest.raises(BadExponent):
        q_exponent(0.5)
    for f in (c_p, q_exponent):
        with pytest.raises(BadExponent):
            f(math.nan)
    # 2^(q+1) overflows: in log space the window is finite near q = 1030 and
    # beyond double range as p tends to 1
    p = 1.00097
    q = q_exponent(p)
    expected = (q + 1.0) * math.log10(2.0) - math.log10((q + 2.0) * (q + 1.0))
    assert math.log10(makai_upper(p)) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(BadExponent):
        makai_upper(1.0000001)


def test_infinite_exponent_is_rejected(unit_square):
    # q_exponent admits p for every closed form; at p = inf they returned NaN
    body = metrics(unit_square)
    pr = profile(unit_square, W1, 64)
    for call in (lambda: q_exponent(math.inf), lambda: c_p(math.inf), lambda: K_of_p(math.inf),
                 lambda: makai_upper(math.inf), lambda: functional_F(0.05, body, math.inf),
                 lambda: bound_report(pr, math.inf), lambda: theorem2_report(body, 0.05, math.inf)):
        with pytest.raises(BadExponent):
            call()


@pytest.mark.parametrize("p", [1.001, 1.0005])
@pytest.mark.parametrize("factor", [1e-3, 1e3])
def test_exponent_near_one_stays_typed(p, factor):
    # a power that overflows is evaluated in log space, and a value outside
    # double range raises BadExponent: never OverflowError, ZeroDivisionError,
    # a RuntimeWarning or a non-finite field
    poly = scale(rectangle(0.5)[0], factor)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for T in (1e-12, 0.01, 1e12):
            try:
                assert math.isfinite(functional_F(T, metrics(poly), p))
            except BadExponent:
                pass
        for w in WEIGHTS:
            pr = profile(poly, w, 64)
            try:
                fields = asdict(bound_report(pr, p))
            except BadExponent:
                continue
            assert all(math.isfinite(v) for v in (*fields.values(), *fields["f_p_window"])
                       if not isinstance(v, tuple))


def test_powers_beyond_double_range_in_log_space():
    # rectangle(0.5) scaled by 1000 at p = 1.01: P^q and area^(q+1) overflow
    # while F and the bounds lie inside double range
    p, q = 1.01, q_exponent(1.01)
    poly = scale(rectangle(0.5)[0], 1e3)
    body = metrics(poly)
    expected = 100.0 + q * math.log10(body.perimeter) - (q + 1.0) * math.log10(body.area)
    assert math.log10(functional_F(1e100, body, p)) == pytest.approx(expected, rel=1e-12)
    # the bounds scale as factor^(q+2), read against the unscaled body
    ref = bound_report(profile(rectangle(0.5)[0], W1, 64), p)
    big = bound_report(profile(poly, W1, 64), p)
    for name in ("closed", "refined", "integral", "inf_weight"):
        expected = math.log10(getattr(ref, name)) + 3.0 * (q + 2.0)
        assert math.log10(getattr(big, name)) == pytest.approx(expected, abs=1e-9)


SWEEP_P = (1.0 + 1e-7, 1.001, 1.01, 1.5, 2.0, 10.0, 1e3, 1e154, 1e300)
SWEEP_SCALES = (1e-3, 1.0, 1e3, 1e50, 1e100)


@pytest.mark.parametrize("factor", SWEEP_SCALES)
def test_closed_forms_are_finite_or_typed(factor):
    # every closed form in q = p/(p-1), across p and body scales, returns a
    # finite float >= 0 or raises a WebTorsionError, and never warns
    poly = scale(rectangle(0.5)[0], factor)
    body = metrics(poly)
    slow = (WeightProfile.truncated_linear(1.0, 1e-3), WeightProfile.exponential(1.0, 1e-3))
    profiles = [profile(poly, w, 64) for w in (*WEIGHTS, *slow)]

    def check(call):
        try:
            value = call()
        except WebTorsionError:
            return
        values = asdict(value) if isinstance(value, webtorsion.BoundSet) else {"value": value}
        values.update(zip(("window_lo", "window_hi"), values.pop("f_p_window", ())))
        for name, v in values.items():
            assert type(v) is float and 0.0 <= v < math.inf, (name, v)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in SWEEP_P:
            check(lambda: c_p(p))
            check(lambda: makai_upper(p))
            check(lambda: K_of_p(p))
            check(lambda: slab_upper_bound(0.5 * factor, p))
            for n in (2, 3, 400):
                check(lambda: torsion_p_ball(p, factor, n))
            for T in (1e-300, 1.0, 1e300):
                check(lambda: functional_F(T, body, p))
            for pr in profiles:
                check(lambda: bound_report(pr, p))
        for T in (1e-300, 1.0, 1e300):
            check(lambda: functional_H_half(T, body))


class TestIntegralBound:
    def test_square(self, unit_square):
        pr = profile(unit_square, W1, 512)
        val = bound_report(pr, 2.0).integral
        assert val == pytest.approx(WEB_INTEGRAL_SQUARE, rel=1e-5)
        # trapezoid of a convex integrand sits above the true integral
        assert val >= WEB_INTEGRAL_SQUARE - 1e-15

    def test_disk_reaches_exact_torsion(self):
        # the web bound is tight on disks: integral = pi/8 for the unit disk
        poly, _ = disk(1.0, 256)
        pr = profile(poly, W1, 512)
        assert bound_report(pr, 2.0).integral == pytest.approx(T_DISK_P2, rel=1e-3)

    def test_scaling_law(self, unit_square):
        # scale t multiplies the bound by t^{2+q}
        pr1 = profile(unit_square, W1, 256)
        pr2 = profile(scale(unit_square, 2.0), W1, 256)
        v1 = bound_report(pr1, 2.0).integral
        v2 = bound_report(pr2, 2.0).integral
        assert v2 == pytest.approx(16.0 * v1, rel=1e-9)

    def test_against_quadrature_oracle(self, small_corpus):
        # rebuild the integrand from closed forms of the square-like profile
        # and from interpolants for fuzzed bodies
        for poly in small_corpus[:5]:
            pr = profile(poly, W1, 512)
            mu_f = lambda t: float(np.interp(t, pr.t, pr.weighted))
            per = lambda t: float(np.interp(t, pr.t, pr.perimeters))
            oracle = web_integral_quad(mu_f, per, pr.metrics.inradius, 2.0)
            assert bound_report(pr, 2.0).integral == pytest.approx(oracle, rel=1e-4)

    def test_trapezoid_of_the_direct_integrand(self, small_corpus):
        # inside double range the bound is np.trapezoid of mu_f^q / P^{1/(p-1)}
        # written out, to the bit
        for poly in small_corpus[:5]:
            for w in WEIGHTS:
                pr = profile(poly, w, 128)
                live = pr.perimeters > 0.0
                live[-1] = False
                for p in P_VALUES:
                    g = np.zeros_like(pr.t)
                    g[live] = (pr.weighted[live] ** q_exponent(p)
                               / pr.perimeters[live] ** (1.0 / (p - 1.0)))
                    assert bound_report(pr, p).integral == float(np.trapezoid(g, pr.t))

    def test_bad_exponent(self, unit_square):
        pr = profile(unit_square, W1, 64)
        with pytest.raises(BadExponent):
            bound_report(pr, 1.0)

    @pytest.mark.xfail(
        strict=True,
        reason=("the trapezoid integral crosses T on thin rectangles"
                " (ROADMAP item: An exact, one-sided bound chain)"),
    )
    def test_below_torsion_on_thin_rectangles(self):
        # measured at p = 2: integral / T - 1 is +1.13e-4 for rectangle(0.005)
        # at m = 64 and +1.54e-6 for rectangle(0.001) at m = 512
        for l, m in ((0.005, 64), (0.001, 512)):
            T = torsion_rectangle_series(1.0 / l, l)
            assert bound_report(profile(rectangle(l)[0], W1, m), 2.0).integral <= T


class TestClosedBound:
    def test_square(self, unit_square):
        pr = profile(unit_square, W1, 512)
        val = bound_report(pr, 2.0).closed
        assert val == pytest.approx(WEB_CLOSED_SQUARE, rel=1e-9)

    def test_weight_homogeneity(self, unit_square):
        # multiplying f by kappa scales the bound by kappa^q
        kappa = 3.7
        pr1 = profile(unit_square, W1, 128)
        prk = profile(unit_square, WeightProfile.constant(kappa), 128)
        for p in P_VALUES:
            q = q_exponent(p)
            v1 = bound_report(pr1, p).closed
            vk = bound_report(prk, p).closed
            assert vk == pytest.approx(kappa**q * v1, rel=1e-12)


class TestRefinedBound:
    def test_flat_weights_take_the_constant_route(self, small_corpus):
        # a linear or exp weight of zero slope is constant: its profile and
        # every bound, the refined one's shrink form included, match f = 2.5
        flat = (WeightProfile.exponential(2.5, 0.0), WeightProfile.truncated_linear(2.5, 0.0))
        for poly in small_corpus:
            ref = profile(poly, WeightProfile.constant(2.5), 128)
            prs = [profile(poly, w, 128) for w in flat]
            for p in P_VALUES:
                for pr in prs:
                    assert bound_report(pr, p) == bound_report(ref, p)

    def test_unit_weight_recovers_integral(self, unit_square):
        # for f = 1 the shrink form equals the web integral in the continuum
        pr = profile(unit_square, W1, 512)
        rep = bound_report(pr, 2.0)
        refined = rep.refined
        assert refined > WEB_CLOSED_SQUARE
        assert refined == pytest.approx(WEB_INTEGRAL_SQUARE, rel=2e-3)
        assert refined <= rep.integral

    def test_exponential_weight_strictly_refined(self, small_corpus):
        we = WeightProfile.exponential(1.0, 1.0)
        for poly in small_corpus[:5]:
            pr = profile(poly, we, 256)
            rep = bound_report(pr, 2.0)
            assert rep.refined > rep.closed

    def test_chain_on_corpus(self, small_corpus):
        for poly in small_corpus[:20]:
            for w in WEIGHTS:
                pr = profile(poly, w, 512)
                for p in P_VALUES:
                    rep = bound_report(pr, p)
                    scale_ref = max(rep.integral, 1e-300)
                    assert rep.closed <= rep.refined * (1.0 + 1e-9)
                    assert rep.refined <= rep.integral * (1.0 + 1e-9), (
                        f"refined {rep.refined} above integral {rep.integral} "
                        f"(rel {(rep.refined - rep.integral) / scale_ref:.2e})"
                    )
                    assert rep.closed > 0 and rep.integral > 0

    @pytest.mark.parametrize("p", [1.01, 1.02])
    def test_slow_weights_on_a_large_body(self, p):
        # mu_f^gamma / f^2 (-f') overflows on rectangle(0.5) scaled by 1000,
        # while every bound lies inside double range
        poly = scale(rectangle(0.5)[0], 1e3)
        for w in (WeightProfile.truncated_linear(1.0, 1e-3), WeightProfile.exponential(1.0, 1e-3)):
            rep = bound_report(profile(poly, w, 64), p)
            assert all(math.isfinite(v) for v in (rep.closed, rep.refined, rep.integral))
            assert rep.closed <= rep.refined <= rep.integral


class TestInfWeightBound:
    def test_unit_weight_coincides_with_closed(self, unit_square):
        pr = profile(unit_square, W1, 128)
        rep = bound_report(pr, 2.0)
        assert rep.inf_weight == pytest.approx(rep.closed, rel=1e-9)

    def test_vanishing_infimum(self, unit_square):
        w = WeightProfile.truncated_linear(1.0, 4.0)  # hits zero at s = 1/4 < R
        assert bound_report(profile(unit_square, w, 128), 2.0).inf_weight == 0.0
        # still 0 where area^(q+1) overflows and the product is taken in log space
        big = bound_report(profile(scale(unit_square, 100.0), w, 512), 1.01)
        assert big.inf_weight == 0.0 and big.closed > 0.0

    def test_exponential_square(self, unit_square):
        w = WeightProfile.exponential(1.0, 1.0)
        # (inf f)^q = e^{-2 R} = e^{-1} at q = 2
        val = bound_report(profile(unit_square, w, 128), 2.0).inf_weight
        assert val == pytest.approx(math.exp(-1.0) / 48.0, rel=1e-9)


class TestFunctionals:
    def test_disk_values(self):
        _, rec = disk(1.0, 256)
        body = metrics(disk(1.0, 2048)[0])
        F = functional_F(rec.torsion(2.0), body, 2.0)
        assert F == pytest.approx(0.5, rel=1e-4)
        H = functional_H_half(rec.torsion(2.0), body)
        assert H == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-4)
        # algebraic identity H^2 = F_2 in the plane
        assert H * H == pytest.approx(F, rel=1e-12)
        assert H >= 1.0 / math.sqrt(3.0)
        assert F >= 1.0 / 3.0
        assert type(H) is float

    def test_H_on_a_huge_body(self):
        # P T^{1/2} / area^{3/2} with area^{3/2} beyond double range: a value
        # or a typed error, never OverflowError
        body = metrics(scale(rectangle(0.5)[0], 1e110))
        try:
            H = functional_H_half(1e300, body)
        except WebTorsionError:
            return
        # P = 5e110 and area = 1e220, so H = 5e110 1e150 / 1e330
        assert H == pytest.approx(5e-70, rel=1e-12)

    def test_scale_invariance(self, unit_square):
        body = metrics(unit_square)
        big = metrics(scale(unit_square, 17.0))
        for p in P_VALUES:
            q = q_exponent(p)
            T = 0.05
            T_big = T * 17.0 ** (2.0 + q)
            assert functional_F(T, body, p) == pytest.approx(
                functional_F(T_big, big, p), rel=1e-12
            )

    def test_window_contains_fuzz_bounds(self, small_corpus):
        # even the web integral lower bound already clears the lower window
        for poly in small_corpus[:10]:
            pr = profile(poly, W1, 512)
            for p in P_VALUES:
                F_lower = functional_F(bound_report(pr, p).integral, pr.metrics, p)
                assert F_lower > c_p(p)
                assert F_lower < makai_upper(p)

    def test_rejects_nonpositive_torsion(self, unit_square):
        with pytest.raises(BadParameter, match="finite and positive"):
            functional_F(0.0, metrics(unit_square), 2.0)
        with pytest.raises(BadParameter, match="finite and positive"):
            functional_H_half(math.inf, metrics(unit_square))


def test_report_json_keys(unit_square):
    pr = profile(unit_square, W1, 128)
    d = asdict(bound_report(pr, 2.0))
    assert sorted(d) == [
        "c_p", "closed", "f_p_window", "inf_weight", "integral", "p", "q", "refined",
    ]
    lo, hi = d["f_p_window"]
    assert lo == pytest.approx(1.0 / 3.0)
    assert hi == pytest.approx(2.0 / 3.0)


def test_public_names():
    # __all__ grows only by a deliberate edit of this list; the bound chain is
    # reached through bound_report alone
    assert sorted(webtorsion.__all__) == [
        "BodyMetrics", "BoundSet", "ConvexPolygon", "DeficitReport", "EnclosingRectangle",
        "FuzzConfig", "K_of_p", "Mesh", "ParallelProfile", "RichardsonResult",
        "SteinerReport", "TorsionResult", "WeightProfile", "bound_report", "c_p",
        "classical_inequality_suite", "cylinder_perimeter", "disk", "enclosing_rectangle",
        "functional_F", "functional_H_half", "fuzz_suite", "inner_body",
        "isosceles_triangle", "k_tilde", "makai_upper", "metrics", "polygon_from_vertices",
        "profile", "q_exponent", "random_convex_body", "rectangle",
        "richardson_T", "run_sequence", "scale", "sigma_threshold", "slab_upper_bound",
        "solve_torsion", "stadium", "steiner_check", "theorem2_report", "theorem3_report",
        "torsion_p_ball", "triangulate",
    ]
    # members that only tests read stay out of the package
    assert not hasattr(webtorsion, "support_function")
    assert not hasattr(webtorsion.geometry, "support_function")
    assert not hasattr(webtorsion.errors, "ZeroDirection")
    assert not hasattr(webtorsion.harness, "corpus")
    assert not hasattr(webtorsion.Mesh, "min_angle_degrees")
    assert not hasattr(webtorsion.Mesh, "max_edge")
    # a solve's torsion is its field's Rayleigh quotient; the quotient kernel
    # lives on only as tests/oracles.py's rayleigh_quotient
    assert not hasattr(webtorsion.solver, "rayleigh_check")
    for name in (
        "inf_weight_lower", "web_lower_closed", "web_lower_integral",
        "web_lower_refined", "web_lower_refined_general",
    ):
        assert not hasattr(webtorsion, name)
        assert not hasattr(webtorsion.bounds, name)
