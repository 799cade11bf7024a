"""Lower bounds for the weighted p-torsion and the scale-invariant functionals.

``bound_report(prof, p)`` is the one entry to the bound chain. Every bound is
a functional of a single inner-parallel profile, so the weight f, the body's
metrics and mu_f(0) are read from the profile and cannot disagree with it:

- closed: c_p mu_f(0)^{q+1} / (f(0) P^q);
- refined: the closed bound plus a perimeter-shrink correction for constant
  f, or a weight-decay correction for the other weights;
- integral: the web test-field value, the integral over [0, R] of
  mu_f^q / P^{1/(p-1)};
- inf_weight: the variational bound (inf f)^q c_p area^{q+1} / P^q.

In the continuum they are ordered closed <= refined <= integral <= T. The
shrink correction is a right-endpoint lower sum of a non-increasing
integrand (an under-estimate) and the integral bound is the trapezoid rule on
a convex integrand (an over-estimate), which keeps refined <= integral on the
grid. The over-estimate can carry the integral bound above T where the web
bound is nearly tight: at p = 2 with a constant weight, integral / T - 1
measures +1.13e-4 for rectangle(0.005) at m = 64 and +1.54e-6 for
rectangle(0.001) at m = 512 (ROADMAP item *An exact, one-sided bound chain*).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadExponent, BadParameter
from .geometry import BodyMetrics
from .parallel import ParallelProfile


def q_exponent(p: float) -> float:
    """Conjugate-type exponent q = p/(p-1), the one admission rule for p:
    BadExponent unless 1 < p < inf."""
    if not (1.0 < p < math.inf):
        raise BadExponent(f"p = {p!r} must be finite and exceed 1")
    return p / (p - 1.0)


def c_p(p: float) -> float:
    """Sharp constant (p-1)/(2p-1) of the thinning-cylinder limit; p is
    admitted by q_exponent."""
    q_exponent(p)
    return (p - 1.0) / (2.0 * p - 1.0)


def _exp_in_range(log_value: float, error: type, message: str) -> float:
    """exp(log_value), or error(message) when it lies outside double range
    (0 or inf)."""
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    if not (0.0 < value < math.inf):
        raise error(message)
    return value


def _ratio(num, den):
    """num's product of b^e, left to right from the first power (sparing an
    array a pass by 1), divided by den's, and den's product (1 if empty)."""
    top = bottom = None
    for base, e in num:
        top = base**e if top is None else top * base**e
    for base, e in den:
        bottom = base**e if bottom is None else bottom * base**e
    return (top, 1.0) if bottom is None else (top / bottom, bottom)


def _power(num, den=(), what="", error=BadExponent):
    """prod b^e over the pairs (b, e) of num divided by that over den.

    Each product is multiplied left to right, so a value inside double range
    keeps the bits of the formula written out. Only where a product is inf or
    NaN (a power or the divisor overflowed, or the divisor underflowed to 0)
    is it exp(h), h the sum of e log b over num minus that over den; a zero
    base in num gives 0. Scalar bases give a float, and error("<what> lies
    outside double range") where that value does. Array bases give the
    products elementwise as (g, M) with g e^M the products, M = 0, or
    max(0, max h) on the log route: an integral of g enters an outer product
    as the pairs (integral, 1) and (e, M).
    """
    if isinstance(num[0][0], np.ndarray):
        with np.errstate(all="ignore"):
            value, bottom = _ratio(num, den)
            # entries are >= 0 and inf * 0 is NaN, so a finite dot product (or
            # sum) shows them all finite; else the entrywise test decides
            if math.isfinite(np.dot(value, bottom) if den else value.sum()) or (
                    np.isfinite(value).all() and np.isfinite(bottom).all()):
                return value, 0.0
            h = sum([e * np.log(b) for b, e in num] + [-e * np.log(b) for b, e in den])
            shift = max(float(h.max()), 0.0)
            return np.exp(h - shift), shift
    try:
        value, bottom = _ratio(num, den)
    except (OverflowError, ZeroDivisionError):  # raised by float powers and division
        value = bottom = math.inf
    if math.isfinite(value) and math.isfinite(bottom):
        return float(value)
    log = lambda b: math.log(b) if b else -math.inf
    h = sum([e * log(b) for b, e in num] + [-e * log(b) for b, e in den])
    return 0.0 if h == -math.inf else _exp_in_range(h, error, f"{what} lies outside double range")


def makai_upper(p: float) -> float:
    """Planar upper window 2^{q+1}/((q+2)(q+1)) for T_p P^q / area^{q+1}."""
    q = q_exponent(p)
    return _power([(2.0, q + 1.0)], [((q + 2.0) * (q + 1.0), 1.0)], f"makai_upper at p = {p!r}")


def functional_F(T: float, body: BodyMetrics, p: float) -> float:
    """Scale-invariant torsion functional T P^q / area^{q+1}."""
    if not (0.0 < T < math.inf):
        raise BadParameter("T must be finite and positive")
    q = q_exponent(p)
    return _power([(T, 1.0), (body.perimeter, q)], [(body.area, q + 1.0)], f"F_p at p = {p!r}")


def functional_H_half(T: float, body: BodyMetrics) -> float:
    """Planar functional P T^{1/2} / area^{3/2} (bounded only at exponent 1/2)."""
    if not (0.0 < T < math.inf):
        raise BadParameter("T must be finite and positive")
    return _power([(body.perimeter, 1.0), (T, 0.5)], [(body.area, 1.5)], "H_1/2")


def _integral(t, live, num, den):
    """The trapezoid value over t of the power product of the arrays in num
    and den where live (0 elsewhere), as the pairs it enters an outer
    product with."""
    g = np.zeros_like(t)
    g[live], shift = _power([(b[live], e) for b, e in num], [(b[live], e) for b, e in den])
    # the operations of np.trapezoid, so its bits, without its argument handling
    return [(float(((t[1:] - t[:-1]) * (g[1:] + g[:-1]) / 2.0).sum()), 1.0), (math.e, shift)]


def _web_integral(prof: ParallelProfile, p: float, q: float) -> float:
    """Trapezoid value of the integral of mu_f^q / P^{1/(p-1)} over [0, R].

    The integrand is 0 where P vanishes (it tends to 0 there) and at the
    inradius endpoint. q = q_exponent(p) comes from the caller.
    """
    P = prof.perimeters
    live = P > 0.0
    live[-1] = False
    return _power(_integral(prof.t, live, [(prof.weighted, q)], [(P, 1.0 / (p - 1.0))]), (),
                  f"the web integral at p = {p!r}")


def _refinement(prof: ParallelProfile, p: float, q: float, cp: float) -> float:
    """The refined bound minus the closed bound, never negative; the caller
    passes q = q_exponent(p) and cp = c_p(p).

    Constant f: c_p q f(0)^q times the integral of (mu/P)^gamma (-P') dt,
    gamma = (2p-1)/(p-1), which recovers the full web integral in the
    continuum. Since mu/P is non-increasing and -P' >= 0, pairing each
    subinterval's exact perimeter drop with the right-endpoint value of
    (mu/P)^gamma gives a guaranteed under-estimate.

    Other f: c_p / P^q times the trapezoid value of the integral of
    mu_f^gamma / f^2 (-f') dt, with f' from the weight's analytic slope.
    """
    gamma = q + 1.0
    w = prof.weight
    if w.is_constant:
        P, mu = prof.perimeters, prof.areas
        phi = np.zeros_like(P)
        live = P > 0.0
        phi[live], shift = _power([(mu[live] / P[live], gamma)])
        drops = np.maximum(P[:-1] - P[1:], 0.0)
        return _power([(cp, 1.0), (q, 1.0), (w.c, q), (float(np.sum(drops * phi[1:])), 1.0),
                       (math.e, shift)], (), f"the refinement at p = {p!r}")
    t = prof.t
    fvals, slopes = np.asarray(w(t)), -np.asarray(w.derivative(t))
    integral = _integral(t, fvals > 0.0, [(prof.weighted, gamma), (slopes, 1.0)], [(fvals, 2.0)])
    return _power([(cp, 1.0), *integral], [(prof.metrics.perimeter, q)],
                  f"the refinement at p = {p!r}")


@dataclass(frozen=True)
class BoundSet:
    """All lower bounds for one body, weight and exponent."""

    p: float
    q: float
    c_p: float
    closed: float
    refined: float
    integral: float
    inf_weight: float
    f_p_window: tuple[float, float]


def bound_report(prof: ParallelProfile, p: float) -> BoundSet:
    """Evaluate every bound on a profile and package them with the F_p window."""
    q = q_exponent(p)
    cp = c_p(p)
    body, w = prof.metrics, prof.weight
    P, area, mu_f, f0 = body.perimeter, body.area, prof.mu_f_total, w.c
    closed = _power([(cp, 1.0), (mu_f, q + 1.0)], [(f0, 1.0), (P, q)],
                    f"the closed bound at p = {p!r}")
    # a non-increasing weight attains its infimum at the inradius
    inf_weight = _power([(float(w(body.inradius)), q), (cp, 1.0), (area, q + 1.0)], [(P, q)],
                        f"the inf-weight bound at p = {p!r}")
    return BoundSet(
        p=p,
        q=q,
        c_p=cp,
        closed=closed,
        refined=closed + _refinement(prof, p, q, cp),
        integral=_web_integral(prof, p, q),
        inf_weight=inf_weight,
        f_p_window=(cp, makai_upper(p)),
    )
