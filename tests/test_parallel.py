import math

import numpy as np
import pytest

from oracles import MU_F_SQUARE_LINEAR, profile_deque, steiner_quotient_loop
import webtorsion.parallel as parallel_mod
from webtorsion.bounds import bound_report
from webtorsion.errors import GridTooCoarse, TooFine, ViolationFound
from webtorsion.geometry import metrics, scale
from webtorsion.parallel import (
    ParallelProfile,
    WeightProfile,
    inner_body,
    profile,
    steiner_check,
)
from webtorsion.shapes import disk, rectangle, stadium

W1 = WeightProfile.constant(1.0)


class TestWeightProfile:
    def test_kinds(self):
        wc = WeightProfile.constant(2.0)
        wl = WeightProfile.truncated_linear(1.0, 4.0)
        we = WeightProfile.exponential(1.0, 0.5)
        assert wc(0.3) == 2.0
        assert wl(0.1) == pytest.approx(0.6)
        assert wl(0.3) == 0.0  # truncated
        assert we(2.0) == pytest.approx(math.exp(-1.0))

    def test_derivatives(self):
        wl = WeightProfile.truncated_linear(1.0, 4.0)
        assert wl.derivative(0.1) == -4.0
        assert wl.derivative(0.5) == 0.0
        we = WeightProfile.exponential(1.0, 2.0)
        assert we.derivative(0.0) == -2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightProfile.constant(0.0)
        with pytest.raises(ValueError):
            WeightProfile("linear", c=1.0, beta=-1.0)
        with pytest.raises(ValueError):
            WeightProfile("cubic")
        # non-finite parameters would turn every bound and torsion into NaN
        for bad in (
            dict(kind="const", c=math.inf),
            dict(kind="const", c=math.nan),
            dict(kind="linear", beta=math.nan),
            dict(kind="linear", beta=math.inf),
            dict(kind="exp", rate=math.nan),
            dict(kind="exp", rate=math.inf),
        ):
            with pytest.raises(ValueError):
                WeightProfile(**bad)

    def test_non_increasing_and_nonnegative(self):
        s = np.linspace(0, 3, 100)
        for w in (WeightProfile.constant(1.5),
                  WeightProfile.truncated_linear(1.0, 2.0),
                  WeightProfile.exponential(2.0, 1.0)):
            vals = w(s)
            assert np.all(np.diff(vals) <= 1e-15)
            assert np.all(vals >= 0.0)
            assert w(0.0) > 0.0


class TestInnerBody:
    def test_square_quarter_depth(self, unit_square):
        ib = inner_body(unit_square, 0.25)
        m = metrics(ib)
        assert m.perimeter == pytest.approx(2.0, abs=1e-12)
        assert m.area == pytest.approx(0.25, abs=1e-12)

    def test_square_empty_at_inradius(self, unit_square):
        assert inner_body(unit_square, 0.5) is None
        assert inner_body(unit_square, 0.7) is None

    def test_empty_at_inradius_on_large_bodies(self, small_corpus):
        for poly in small_corpus:
            big = scale(poly, 1e3)
            assert inner_body(big, metrics(big).inradius) is None

    def test_sliver_just_below_inradius(self):
        # the 500 x 2e-12 inner body of a thin rectangle is a true body
        l = 0.002
        poly, _ = rectangle(l)
        t = metrics(poly).inradius * (1.0 - 1e-9)
        ib = inner_body(poly, t)
        assert ib is not None
        assert ib._area == pytest.approx((1.0 / l - 2.0 * t) * (l - 2.0 * t), rel=1e-6)

    def test_zero_depth_is_identity(self, unit_square):
        assert inner_body(unit_square, 0.0) is unit_square

    def test_triangle_shrinks_homothetically(self, equilateral):
        # P(t) = P(0) (1 - t/R) for any triangle
        R = metrics(equilateral).inradius
        for frac in (0.2, 0.5, 0.9):
            t = frac * R
            m = metrics(inner_body(equilateral, t))
            assert m.perimeter == pytest.approx(3.0 * (1.0 - t / R), rel=1e-9)

    def test_negative_depth_rejected(self, unit_square):
        for t in (-0.1, math.nan):
            with pytest.raises(ValueError):
                inner_body(unit_square, t)


class TestProfile:
    def test_square_constant_weight(self, unit_square):
        pr = profile(unit_square, W1, 512)
        assert pr.mu_f_total == pytest.approx(1.0, abs=1e-9)
        # P(t) = 4 - 8 t and mu(t) = (1 - 2 t)^2 exactly
        assert np.allclose(pr.perimeters[:-1], 4.0 - 8.0 * pr.t[:-1], atol=1e-12)
        assert np.allclose(pr.areas[:-1], (1.0 - 2.0 * pr.t[:-1]) ** 2, atol=1e-12)

    def test_square_linear_weight(self, unit_square):
        pr = profile(unit_square, WeightProfile.truncated_linear(1.0, 1.0), 512)
        assert pr.mu_f_total == pytest.approx(MU_F_SQUARE_LINEAR, abs=1e-6)

    def test_linear_weight_support_end_inside_first_step(self):
        # on a 500 x 2000 rectangle f = max(1 - s, 0) vanishes at s = 1, far
        # inside the first step R/64; mu_f(0) is the integral over [0, 1] of
        # (1 - t)(5000 - 8 t), and the subinterval holding s counts [0, 1]
        pr = profile(scale(rectangle(0.5)[0], 1e3), WeightProfile.truncated_linear(1.0, 1.0), 64)
        assert pr.mu_f_total == pytest.approx(2500.0 - 4.0 / 3.0, rel=1e-3)
        assert pr.mu_f_total <= 2500.0 - 4.0 / 3.0
        b = bound_report(pr, 2.0)
        assert 0.0 < b.closed <= b.refined <= b.integral

    def test_grid_too_coarse(self, unit_square):
        with pytest.raises(GridTooCoarse):
            profile(unit_square, W1, 63)

    def test_grid_too_fine(self, unit_square, monkeypatch):
        monkeypatch.setattr(parallel_mod, "_MAX_GRID", 100)
        assert len(profile(unit_square, W1, 100).t) == 101
        # rejected before the body is measured or any grid array is made
        monkeypatch.setattr(parallel_mod, "metrics", None)
        monkeypatch.setattr(parallel_mod, "np", None)
        with pytest.raises(TooFine):
            profile(unit_square, W1, 101)

    def test_stadium_perimeter_is_steiner_exact(self):
        poly, rec = stadium(0.5, 2.0, 256)
        pr = profile(poly, W1, 256)
        expected = pr.metrics.perimeter - 2.0 * math.pi * pr.t[:-1]
        assert np.abs(pr.perimeters[:-1] - expected).max() < 1e-3

    def test_matches_inner_body_route(self, small_corpus):
        # profile evaluates the straight skeleton's pieces, inner_body clips
        # edge by edge and the oracle intersects the shifted half-planes in an
        # angular deque at every node; the three routes must agree to roundoff
        for poly in small_corpus[:8]:
            pr = profile(poly, W1, 64)
            m = pr.metrics
            for j in (0, 5, 23, 47, 63):
                ib = inner_body(poly, float(pr.t[j]))
                if ib is None:
                    assert pr.perimeters[j] == 0.0
                    continue
                mm = metrics(ib)
                assert mm.perimeter == pytest.approx(pr.perimeters[j], rel=1e-12, abs=1e-12 * m.perimeter)
                assert mm.area == pytest.approx(pr.areas[j], rel=1e-12, abs=1e-12 * m.area)
        shapes = [disk(1.0, 256)[0], stadium(0.5, 1.0, 256)[0], rectangle(0.1)[0]]
        for poly in list(small_corpus) + shapes:
            pr = profile(poly, W1, 512)
            P, mu = profile_deque(poly, pr.t[:-1])
            assert np.abs(P - pr.perimeters[:-1]).max() <= 1e-9 * pr.metrics.perimeter
            assert np.abs(mu - pr.areas[:-1]).max() <= 1e-9 * pr.metrics.area

    def test_fuzz_profile_invariants(self, small_corpus):
        for poly in small_corpus[:30]:
            pr = profile(poly, W1, 512)
            m = pr.metrics
            P, mu, t = pr.perimeters, pr.areas, pr.t
            assert np.all(np.diff(P) <= 1e-9 * m.perimeter)
            assert mu[0] == pytest.approx(m.area, rel=1e-9)
            assert mu[-1] <= 1e-6 * m.area
            pos = mu > 0
            last = int(np.max(np.nonzero(pos)))
            assert np.all(np.diff(mu[: last + 1]) < 0)
            # -d mu / dt equals the average of P over the subinterval, so it
            # must land between the endpoint perimeters
            fd = -np.diff(mu) / (t[1] - t[0])
            assert np.all(fd <= P[:-1] + 1e-9 * m.perimeter)
            assert np.all(fd >= P[1:] - 1e-9 * m.perimeter)
            # away from kinks the endpoint average matches to quadrature error
            avg = 0.5 * (P[:-1] + P[1:])
            close = np.abs(fd - avg) <= 1e-6 * m.perimeter
            assert close.mean() > 0.9

    def test_weighted_measure_invariants(self, small_corpus):
        kinds = (W1, WeightProfile.truncated_linear(1.0, 1.0),
                 WeightProfile.exponential(1.0, 1.0))
        for poly in small_corpus[:15]:
            for w in kinds:
                pr = profile(poly, w, 512)
                m = pr.metrics
                # mu_f(t) <= (R - t) f(t) P(t): f P decreasing makes the tail small
                rhs = (m.inradius - pr.t) * np.asarray(w(pr.t)) * pr.perimeters
                assert float((pr.weighted - rhs).max()) <= 1e-9
                # f(t) P(t) non-increasing node by node
                fP = np.asarray(w(pr.t)) * pr.perimeters
                assert np.all(np.diff(fP) <= 1e-9 * fP[0])
                assert pr.weighted[-1] == 0.0

    def test_area_consistency_from_perimeter_integral(self, small_corpus):
        # trapezoid of P recovers the area; the final subinterval can hide a
        # perimeter jump when the body collapses onto a segment, so that
        # subinterval's contribution enters the tolerance explicitly
        for poly in small_corpus[:30]:
            pr = profile(poly, W1, 512)
            m = pr.metrics
            est = float(np.trapezoid(pr.perimeters, pr.t))
            dt = pr.t[1] - pr.t[0]
            tol = 1e-6 * m.area + 0.55 * dt * pr.perimeters[-2]
            assert abs(est - m.area) <= tol


class TestSteiner:
    def test_square_slacks(self, unit_square):
        pr = profile(unit_square, W1, 512)
        rep = steiner_check(pr)
        # slack of the perimeter bound is (8 - 2 pi) t, minimal at the first node t > 0
        assert rep.perimeter_slack == pytest.approx((8.0 - 2.0 * math.pi) * pr.t[1], rel=1e-9)
        assert rep.perimeter_node == 1
        assert rep.quotient_slack == pytest.approx(8.0 - 2.0 * math.pi, rel=1e-6)

    def test_stadium_near_equality(self):
        poly, _ = stadium(0.5, 2.0, 256)
        pr = profile(poly, W1, 256)
        rep = steiner_check(pr)
        assert abs(rep.perimeter_slack) < 1e-3
        assert abs(rep.area_slack) < 1e-3

    def test_disk_quotient_is_two_pi(self):
        poly, _ = disk(1.0, 512)
        pr = profile(poly, W1, 128)
        rep = steiner_check(pr)
        assert rep.quotient_slack == pytest.approx(0.0, abs=1e-3 * 2 * math.pi)

    def test_violation_raised_on_corrupted_profile(self, unit_square):
        pr = profile(unit_square, W1, 128)
        # inflating every perimeter keeps the profile invariants but breaks
        # the Steiner bound near t = 0
        corrupted = ParallelProfile(
            t=pr.t, perimeters=1.01 * pr.perimeters, areas=pr.areas,
            weighted=pr.weighted, metrics=pr.metrics, weight=pr.weight,
        )
        with pytest.raises(ViolationFound):
            steiner_check(corrupted)

    def test_minima_skip_the_identities_at_t0(self, small_corpus):
        # P(0) = P and mu(0) = A hold by construction and carry no information
        for poly in small_corpus[:10]:
            rep = steiner_check(profile(poly, W1, 64))
            assert rep.perimeter_node >= 1
            assert rep.area_node >= 1

    def test_quotient_matches_loop(self, small_corpus):
        bodies = small_corpus + [disk(1.0, 256)[0], stadium(0.5, 1.0, 256)[0], rectangle(0.1)[0]]
        for m in (64, 512):
            for poly in bodies:
                pr = profile(poly, W1, m)
                rep = steiner_check(pr)
                assert (rep.quotient_slack, rep.quotient_node) == steiner_quotient_loop(pr)

    def test_fuzz_steiner(self, small_corpus):
        for poly in small_corpus[:30]:
            rep = steiner_check(profile(poly, W1, 512))
            assert rep.perimeter_slack >= -1e-9 * metrics(poly).perimeter
