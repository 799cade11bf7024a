"""Correctness checks on plain numbers taken from the program's outputs.

Every check returns a list of failure messages; an empty list means the
output passed. References come from ``refs`` or from properties the method
must have, never from the routine being checked.
"""
from __future__ import annotations

import math

import numpy as np

import refs

REL = 1e-9


def _leq(a: float, b: float, rel: float = REL) -> bool:
    return a <= b + rel * max(abs(a), abs(b), 1e-300)


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


def fuzz_summary(status: int, summary: dict, n: int) -> list[str]:
    """Exit status 0, no violations and one result per requested body."""
    out = []
    if status != 0:
        out.append(f"fuzz exit status {status}")
    if summary.get("violations"):
        out.append(f"fuzz reported {len(summary['violations'])} violations")
    if summary.get("count") != n:
        out.append(f"fuzz count {summary.get('count')} != {n}")
    return out


def inradius(vertices, R: float, incenter) -> list[str]:
    """A/P <= R <= 2A/P, and no edge line is closer than R to the incenter."""
    A, P = refs.area_perimeter(vertices)
    out = []
    if not (_leq(A / P, R) and _leq(R, 2.0 * A / P)):
        out.append(f"inradius {R!r} outside [A/P, 2A/P] = [{A / P!r}, {2 * A / P!r}]")
    dist = refs.edge_distances(vertices, incenter)
    if np.any(dist < R - REL * R):
        out.append(f"incenter {incenter} lies {float(dist.min())!r} < R from an edge")
    return out


def bound_chain(closed: float, refined: float, integral: float) -> list[str]:
    if _leq(closed, refined) and _leq(refined, integral):
        return []
    return [f"bound chain out of order: closed {closed!r}, refined {refined!r}, integral {integral!r}"]


def bound_constants(closed: float, window: tuple, A: float, P: float, p: float, const_weight: bool) -> list[str]:
    """The reported F_p window, and for f = 1 the closed bound, equal their closed forms."""
    out = []
    if not (_close(window[0], refs.c_p(p), REL) and _close(window[1], refs.planar_window(p), REL)):
        out.append(f"F_p window {window} != ({refs.c_p(p)!r}, {refs.planar_window(p)!r})")
    if const_weight and not _close(closed, refs.polya_floor(A, P, p), REL):
        out.append(f"closed bound {closed!r} != Polya floor {refs.polya_floor(A, P, p)!r}")
    return out


def steiner(t, P, mu, A0: float, P0: float) -> list[str]:
    """P(t) <= P0 - 2 pi t, mu(t) >= A0 - P0 t + pi t^2 and -dP/dt >= 2 pi."""
    t, P, mu = (np.asarray(x, dtype=float) for x in (t, P, mu))
    out = []
    s1 = (P0 - 2.0 * math.pi * t) - P
    if s1.min() < -REL * P0:
        out.append(f"Steiner perimeter slack {float(s1.min())!r} at node {int(s1.argmin())}")
    s2 = mu - (A0 - P0 * t + math.pi * t * t)
    if s2.min() < -REL * A0:
        out.append(f"Steiner area slack {float(s2.min())!r} at node {int(s2.argmin())}")
    live = (P[:-1] > 0.0) | (P[1:] > 0.0)
    quot = (P[:-1] - P[1:]) / np.diff(t) - 2.0 * math.pi
    if live.any() and quot[live].min() < -REL * 2.0 * math.pi:
        out.append(f"Steiner quotient slack {float(quot[live].min())!r}")
    return out


def clip_route(P_prof: float, mu_prof: float, clipped, A0: float, P0: float, where) -> list[str]:
    """Profile values at one depth against the inner body clipped edge by edge.

    ``clipped`` is the vertex loop of the clipped body, or None when it is empty.
    """
    if clipped is None:
        if P_prof != 0.0 or mu_prof != 0.0:
            return [f"depth {where}: clipping route empty, profile has P {P_prof!r}"]
        return []
    A, P = refs.area_perimeter(clipped)
    if _close(P, P_prof, REL, REL * P0) and _close(A, mu_prof, REL, REL * A0):
        return []
    return [f"depth {where}: profile (P, mu) = ({P_prof!r}, {mu_prof!r}), clipping route ({P!r}, {A!r})"]


def kgon_profile(poly: refs.RegularPolygon, t, P, mu) -> list[str]:
    """P(t) and mu(t) of a regular k-gon against P0 (1 - t/a) and mu0 (1 - t/a)^2."""
    t, P, mu = (np.asarray(x, dtype=float) for x in (t, P, mu))
    out = []
    dP = np.abs(P - poly.perimeter(t))
    if dP.max() > REL * poly.P0:
        out.append(f"k-gon P(t) off its closed form by {float(dP.max())!r} at node {int(dP.argmax())}")
    dmu = np.abs(mu - poly.area(t))
    if dmu.max() > REL * poly.mu0:
        out.append(f"k-gon mu(t) off its closed form by {float(dmu.max())!r} at node {int(dmu.argmax())}")
    return out


# trapezoid error of the web integral at m = 512 is below 1e-5 relative
KGON_INTEGRAL_REL = 1e-4
# midpoint error of mu_f for the non-constant weights at m = 512
KGON_MU_F_REL = 1e-5


def kgon_integral(poly: refs.RegularPolygon, integral: float, p: float) -> list[str]:
    """Web integral for f = 1: within the trapezoid error and never below the closed form.

    The integrand (1 - t/a)^{q+1} is convex, so the trapezoid rule over-estimates it.
    """
    exact = poly.web_integral_const(p)
    if _leq(exact, integral) and integral <= exact * (1.0 + KGON_INTEGRAL_REL):
        return []
    return [f"k-gon web integral {integral!r} vs closed form {exact!r} at p = {p}"]


def kgon_mu_f(poly: refs.RegularPolygon, mu_f_total: float, kind: str, param: float) -> list[str]:
    exact = poly.mu_f_total(kind, param)
    if _close(mu_f_total, exact, KGON_MU_F_REL):
        return []
    return [f"k-gon mu_f({kind}:{param}) {mu_f_total!r} vs closed form {exact!r}"]


def torsion_case(
    vertices, p: float, T: float, report_T: float, report_F: float,
    theorem2_ok: bool, theorem3_ok=None, quantitative_R_ok=None,
) -> list[str]:
    """Polya floor <= T <= window A^{q+1}/P^q, and the verdicts judge this T and hold."""
    A, P = refs.area_perimeter(vertices)
    F = refs.functional_F(T, A, P, p)
    out = []
    if not (_leq(refs.c_p(p), F) and _leq(F, refs.planar_window(p))):
        out.append(f"F_p {F!r} outside [{refs.c_p(p)!r}, {refs.planar_window(p)!r}] at p = {p}")
    if report_T != T or not _close(report_F, F, REL):
        out.append(f"report judges T {report_T!r} (F_p {report_F!r}), ladder gave {T!r} (F_p {F!r})")
    width, diam = refs.width_diameter(vertices)
    own_ok = F - refs.c_p(p) >= refs.K_of_p(p) * width / diam
    if not (theorem2_ok and own_ok):
        out.append(f"theorem 2 fails at p = {p}: reported {theorem2_ok}, recomputed {own_ok}")
    if p == 2.0 and (theorem3_ok is not True or quantitative_R_ok is False):
        out.append(f"theorem 3 verdicts {theorem3_ok}, {quantitative_R_ok}")
    return out


def fine_ladder(torsions, T: float, error: float, lo: float, hi: float) -> list[str]:
    """Each level below the upper reference; the extrapolation within error of [lo, hi].

    A conforming P1 solution never exceeds the exact torsion, so every level
    must sit below ``hi``; ``lo == hi`` for a body with an exact reference.
    """
    out = []
    for i, Th in enumerate(torsions):
        if not Th < hi:
            out.append(f"level {i}: T_h {Th!r} not below the reference {hi!r}")
    gap = max(lo - T, T - hi, 0.0)
    if not gap <= error:
        out.append(f"extrapolated T {T!r} is {gap!r} from [{lo!r}, {hi!r}], reported error {error!r}")
    return out
