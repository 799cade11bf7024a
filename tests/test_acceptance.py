"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The two random corpora are
built once per session; criterion 1 owns the 200-body corpus and criteria 6
and 7 share the 1000-body corpus.
"""
import math
import time

import pytest

from oracles import T_DISK_P2, T_UNIT_SQUARE
from webtorsion.bounds import (
    bound_report,
    functional_F,
    functional_H_half,
    q_exponent,
)
from webtorsion.errors import NonMonotoneConvergence
from webtorsion.geometry import metrics, scale
from webtorsion.harness import FuzzConfig, classical_inequality_suite, random_convex_body
from webtorsion.parallel import WeightProfile, profile
from webtorsion.quantitative import (
    K_of_p,
    k_tilde,
    sigma_threshold,
    theorem2_report,
    theorem3_report,
)
from webtorsion.shapes import disk, isosceles_triangle, rectangle
from webtorsion.solver import richardson_T, triangulate, solve_torsion

pytestmark = pytest.mark.acceptance

W_CONST = WeightProfile.constant(1.0)
WEIGHTS = {
    "const": W_CONST,
    "linear": WeightProfile.truncated_linear(1.0, 1.0),
    "exp": WeightProfile.exponential(1.0, 1.0),
}
P_VALUES = (1.5, 2.0, 3.0)


def _announce(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _leq(a: float, b: float, rel: float = 1e-9) -> bool:
    return a <= b + rel * max(abs(a), abs(b), 1e-300)


def _robust_richardson(poly, weight, p, h_fine, retries=2):
    """Ratio-2 ladder ending at h_fine, shifted finer if increments stall."""
    h = h_fine
    for attempt in range(retries + 1):
        try:
            return richardson_T(poly, weight, p, [4.0 * h, 2.0 * h, h])
        except NonMonotoneConvergence:
            if attempt == retries:
                raise
            h *= 0.5
    raise AssertionError("unreachable")


@pytest.fixture(scope="module")
def corpus200():
    """Per body and weight: mu_f profile bounds; per p: extrapolated torsion."""
    cfg = FuzzConfig(seed=20260809, count=200)
    t0 = time.monotonic()
    rows = []
    for i in range(cfg.count):
        poly = random_convex_body(cfg, i)
        body = metrics(poly)
        h = body.inradius / 8.0
        cells = {}
        for wname, w in WEIGHTS.items():
            prof = profile(poly, w, 512)
            for p in P_VALUES:
                rep = bound_report(prof, p)
                rich = _robust_richardson(poly, w, p, h)
                cells[(wname, p)] = (rep, rich)
        rows.append({"index": i, "metrics": body, "cells": cells})
    elapsed = time.monotonic() - t0
    return {"rows": rows, "seconds": elapsed}


@pytest.fixture(scope="module")
def corpus1000():
    """Unit weight over 1000 bodies: torsion ladders per exponent."""
    cfg = FuzzConfig(seed=1009, count=1000)
    rows = []
    for i in range(cfg.count):
        poly = random_convex_body(cfg, i)
        body = metrics(poly)
        per_p = {}
        for p in P_VALUES:
            h = body.inradius / 8.0
            rich = _robust_richardson(poly, W_CONST, p, h)
            rep = theorem2_report(body, rich.torsion, p)
            slack = rep.deficit - rep.theorem2_rhs
            # solver tolerance must stay below 10 percent of the slack it judges
            attempts = 0
            while rich.error * body.perimeter**q_exponent(p) / body.area ** (
                q_exponent(p) + 1.0
            ) >= 0.1 * slack and attempts < 2:
                h *= 0.5
                rich = _robust_richardson(poly, W_CONST, p, h)
                rep = theorem2_report(body, rich.torsion, p)
                slack = rep.deficit - rep.theorem2_rhs
                attempts += 1
            per_p[p] = rich
        rows.append({"index": i, "polygon": poly, "metrics": body, "torsion": per_p})
    return rows


def test_criterion_01_polya_lower_bound(corpus200):
    violations = []
    worst = math.inf
    for row in corpus200["rows"]:
        for (wname, p), (rep, rich) in row["cells"].items():
            slack = (rich.torsion - rich.error) - rep.closed
            worst = min(worst, slack / max(rich.torsion, 1e-300))
            if slack <= 0.0:
                violations.append((row["index"], wname, p, slack))
    secs = corpus200["seconds"]
    _announce(
        1,
        not violations and secs < 900.0,
        f"T >= closed bound with positive slack on 200 bodies x 3 p x 3 weights "
        f"(worst relative slack {worst:.3e}, corpus built in {secs:.0f}s)",
    )


def test_criterion_02_bound_chain(corpus200):
    violations = []
    for row in corpus200["rows"]:
        for (wname, p), (rep, rich) in row["cells"].items():
            ok = (
                _leq(rep.closed, rep.refined)
                and _leq(rep.refined, rep.integral)
                and _leq(rep.integral, rich.torsion + rich.error)
            )
            if not ok:
                violations.append((row["index"], wname, p))
    _announce(
        2,
        not violations,
        f"closed <= refined <= integral <= T + error on the corpus "
        f"({len(violations)} violations at 1e-9 relative slack)",
    )


def test_criterion_03_solver_validation(unit_square):
    res_square = solve_torsion(triangulate(unit_square, 1.0 / 64), W_CONST, 2.0)
    sq_err = abs(res_square.torsion - T_UNIT_SQUARE) / T_UNIT_SQUARE
    poly, _ = disk(1.0, 256)
    res_disk = solve_torsion(triangulate(poly, 1.0 / 32), W_CONST, 2.0)
    disk_err = abs(res_disk.torsion - T_DISK_P2) / T_DISK_P2
    rich = richardson_T(unit_square, W_CONST, 2.0, [1 / 12, 1 / 24, 1 / 48, 1 / 96])
    ok = sq_err < 0.01 and disk_err < 0.01 and abs(rich.observed_order - 2.0) <= 0.3
    _announce(
        3,
        ok,
        f"T(square) off by {sq_err:.2e}, T(disk) off by {disk_err:.2e}, "
        f"observed order {rich.observed_order:.2f}",
    )


def test_criterion_04_disk_functionals():
    poly, _ = disk(1.0, 256)
    body = metrics(poly)
    h = body.inradius / 8.0
    rich = _robust_richardson(poly, W_CONST, 2.0, h)
    F = functional_F(rich.torsion, body, 2.0)
    H = functional_H_half(rich.torsion, body)
    ok = (
        abs(F - 0.5) < 0.01
        and abs(H - 1.0 / math.sqrt(2.0)) < 0.01
        and F >= 1.0 / 3.0
        and H >= 1.0 / math.sqrt(3.0)
    )
    _announce(4, ok, f"F_2(disk) = {F:.4f}, H_half(disk) = {H:.4f}, both above their windows")


def test_criterion_05_thinning_rectangles():
    values = []
    ok = True
    detail = []
    for l in (0.4, 0.2, 0.1):
        poly, rec = rectangle(l)
        body = metrics(poly)
        rich = _robust_richardson(poly, W_CONST, 2.0, rec.inradius / 10.0)
        F = functional_F(rich.torsion, body, 2.0)
        f_err = rich.error * body.perimeter**2 / body.area**3
        hi = (1.0 + l * l) ** 2 / 3.0 + f_err
        ok = ok and (1.0 / 3.0 < F <= hi)
        values.append(F)
        detail.append(f"F({l}) = {F:.5f} in (1/3, {hi:.5f}]")
    ok = ok and values[0] > values[1] > values[2]
    _announce(5, ok, "; ".join(detail) + "; decreasing toward 1/3")


def test_criterion_06_theorem2(corpus1000):
    violations = 0
    worst = math.inf
    for row in corpus1000:
        body = row["metrics"]
        for p in P_VALUES:
            rich = row["torsion"][p]
            rep = theorem2_report(body, rich.torsion, p)
            slack = rep.deficit - rep.theorem2_rhs
            worst = min(worst, slack)
            if not rep.theorem2_ok:
                violations += 1
    # exponent sharpness on thin rectangles via the solver
    rates = []
    for l in (0.2, 0.1):
        poly, rec = rectangle(l)
        body = metrics(poly)
        rich = _robust_richardson(poly, W_CONST, 2.0, rec.inradius / 10.0)
        rep = theorem2_report(body, rich.torsion, 2.0)
        rate = rep.deficit * body.diameter / body.width
        rate_err = rich.error * body.perimeter**2 * body.diameter / body.width
        rates.append(rate)
        if rate > 8.0 / 3.0 + rate_err + 1e-9:
            violations += 1
        if rate < K_of_p(2.0):
            violations += 1
    ok = violations == 0 and abs(K_of_p(2.0) - 1.0 / 72.0) < 1e-15
    _announce(
        6,
        ok,
        f"deficit >= K(p) w/diam on 1000 bodies x 3 p (worst slack {worst:.3e}); "
        f"rectangle rates {[f'{r:.3f}' for r in rates]} within [K(2), 8/3]",
    )


def test_criterion_07_theorem3(corpus1000):
    sigma = sigma_threshold()
    kt = k_tilde()
    violations = 0
    small_branch_checked = 0
    for row in corpus1000:
        rep = theorem3_report(row["polygon"], row["torsion"][2.0].torsion, row["metrics"])
        if not (rep.theorem3_ok and rep.theorem2_ok):
            violations += 1
        if rep.branch == "small-deficit":
            small_branch_checked += 1
            if not rep.quantitative_R_ok:
                violations += 1
    # analytic small-deficit witness: the l = 0.01 rectangle via the series
    from oracles import torsion_rectangle_series

    poly, _ = rectangle(0.01)
    rep = theorem3_report(poly, torsion_rectangle_series(100.0, 0.01))
    small_ok = (
        rep.branch == "small-deficit" and rep.quantitative_R_ok and rep.theorem3_ok
    )
    ok = (
        violations == 0
        and small_ok
        and abs(sigma - 2.3888e-4) < 2e-7
        and abs(kt - sigma / 8.0) < 1e-18
    )
    _announce(
        7,
        ok,
        f"sigma = {sigma:.4e}, K~ = {kt:.4e}; deficit >= K~ D^3 on the p = 2 corpus "
        f"({small_branch_checked} corpus bodies plus the analytic rectangle on the "
        f"small-deficit branch)",
    )


def test_criterion_08_thinning_triangles():
    details = []
    ok = True
    for l in (0.4, 0.2, 0.1, 0.05):
        poly, rec = isosceles_triangle(l)
        body = metrics(poly)
        divisor = 8.0 if l > 0.07 else 6.0
        rich = _robust_richardson(poly, W_CONST, 2.0, body.inradius / divisor)
        F = functional_F(rich.torsion, body, 2.0)
        f_err = rich.error * body.perimeter**2 / body.area**3
        ok = ok and (F - 1.0 / 3.0 >= 1.0 / 6.0 - f_err)
        details.append(f"deficit({l}) = {F - 1/3:.4f}")
    _announce(8, ok, "; ".join(details) + " all >= 1/6")


def test_criterion_09_classical_suite(unit_square, equilateral):
    cfg = FuzzConfig(seed=31415, count=10_000)
    violations = []
    worst = math.inf
    for i in range(cfg.count):
        poly = random_convex_body(cfg, i)
        try:
            slacks = classical_inequality_suite(poly, steiner_grid=64)
            worst = min(worst, *slacks.values())
        except Exception as exc:  # noqa: BLE001 - any breach fails the criterion
            violations.append((i, str(exc)))
    m_sq = metrics(unit_square)
    square_exact = abs(m_sq.area / (m_sq.perimeter * m_sq.inradius) - 0.5) < 1e-12
    m_eq = metrics(equilateral)
    scott_exact = abs(
        (m_eq.width - 2 * m_eq.inradius) * m_eq.perimeter
        - 2.0 / math.sqrt(3.0) * m_eq.width**2
    ) < 1e-12
    ratio_exact = abs(m_eq.width / m_eq.inradius - 3.0) < 1e-12
    from webtorsion.shapes import stadium
    from webtorsion.parallel import steiner_check

    st_poly, st_rec = stadium(0.5, 2.0, 256)
    m_st = metrics(st_poly)
    santalo_gap = abs(m_st.area - m_st.inradius * (m_st.perimeter - math.pi * m_st.inradius))
    st_rep = steiner_check(profile(st_poly, W_CONST, 256))
    stadium_ok = santalo_gap < 1e-3 and abs(st_rep.perimeter_slack) < 1e-3
    ok = not violations and square_exact and scott_exact and ratio_exact and stadium_ok
    _announce(
        9,
        ok,
        f"zero violations on 10^4 bodies (worst slack {worst:.2e}); square, "
        f"equilateral and stadium equality witnesses reproduced",
    )


def test_criterion_10_scaling_invariance(unit_square):
    cfg = FuzzConfig(seed=555, count=3)
    bodies = [unit_square] + [random_convex_body(cfg, i) for i in range(2)]
    worst = 0.0
    for poly in bodies:
        for p in (1.5, 2.0):
            base = None
            for t in (1.0, 0.5, 3.0, 17.0):
                scaled = scale(poly, t)
                prof = profile(scaled, W_CONST, 512)
                rep = bound_report(prof, p)
                body = prof.metrics
                fs = (
                    functional_F(rep.closed, body, p),
                    functional_F(rep.refined, body, p),
                    functional_F(rep.integral, body, p),
                )
                if base is None:
                    base = fs
                else:
                    for a, b in zip(base, fs):
                        worst = max(worst, abs(a - b) / abs(a))
    _announce(
        10,
        worst < 1e-9,
        f"bound pipeline F_p invariant under scales 0.5, 3, 17 "
        f"(worst relative drift {worst:.2e})",
    )
