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
rectangle(0.001) at m = 512 (ROADMAP item 2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadExponent
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
    """exp(log_value) for a closed form whose direct evaluation overflowed,
    or error(message) when the value lies outside double range (0 or inf)."""
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    if not (0.0 < value < math.inf):
        raise error(message)
    return value


def _in_range(direct, log_value, name: str, p: float) -> float:
    """The value of a closed form at exponent p: direct() where it is finite.

    Where a power in direct() overflows (or a divisor underflows to 0) it is
    exp(log_value()), 0 when a factor is 0 (its log raises ValueError), and
    BadExponent is raised when it lies outside double range.
    """
    try:
        value = direct()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if math.isfinite(value):
        return value
    try:
        log = log_value()
    except ValueError:
        return 0.0
    return _exp_in_range(log, BadExponent, f"{name} at p = {p!r} lies outside double range")


def makai_upper(p: float) -> float:
    """Planar upper window 2^{q+1}/((q+2)(q+1)) for T_p P^q / area^{q+1},
    evaluated by _in_range."""
    q = q_exponent(p)
    return _in_range(lambda: 2.0 ** (q + 1.0) / ((q + 2.0) * (q + 1.0)),
                     lambda: (q + 1.0) * math.log(2.0) - math.log((q + 2.0) * (q + 1.0)),
                     "makai_upper", p)


def functional_F(T: float, body: BodyMetrics, p: float) -> float:
    """Scale-invariant torsion functional T P^q / area^{q+1}, evaluated by
    _in_range."""
    if not (0.0 < T < math.inf):
        raise ValueError("T must be finite and positive")
    q = q_exponent(p)
    P, area = body.perimeter, body.area
    return _in_range(lambda: T * P**q / area ** (q + 1.0),
                     lambda: math.log(T) + q * math.log(P) - (q + 1.0) * math.log(area),
                     "F_p", p)


def functional_H_half(T: float, body: BodyMetrics) -> float:
    """Planar functional P T^{1/2} / area^{3/2} (bounded only at exponent 1/2)."""
    if not (0.0 < T < math.inf):
        raise ValueError("T must be finite and positive")
    return body.perimeter * np.sqrt(T) / body.area**1.5


def _web_integral(prof: ParallelProfile, p: float) -> float:
    """Trapezoid value of the integral of mu_f^q / P^{1/(p-1)} over [0, R].

    The integrand is forced to 0 where P vanishes (it tends to 0 there) and
    at the inradius endpoint. It follows the rule of _in_range: where a
    power overflows or the divisor underflows to 0, the integrand is
    evaluated in log space, and BadExponent is raised when the integral lies
    outside double range.
    """
    q = q_exponent(p)
    P, mu_f = prof.perimeters, prof.weighted
    g = np.zeros_like(P)
    live = P > 0.0
    with np.errstate(all="ignore"):
        divisor = P[live] ** (1.0 / (p - 1.0))
        g[live] = mu_f[live] ** q / divisor
        g[-1] = 0.0
        value = float(np.trapezoid(g, prof.t))
        # P falls with t, so divisor[0] is the largest divisor
        if not (math.isfinite(value) and divisor[0] < math.inf):
            g[live] = np.exp(q * np.log(mu_f[live]) - np.log(P[live]) / (p - 1.0))
            g[-1] = 0.0
            value = float(np.trapezoid(g, prof.t))
    if not math.isfinite(value):
        raise BadExponent(f"the web integral at p = {p!r} lies outside double range")
    return value


def _refinement(prof: ParallelProfile, p: float) -> float:
    """The refined bound minus the closed bound, never negative.

    Constant f: c_p q f(0)^q times the integral of (mu/P)^gamma (-P') dt,
    gamma = (2p-1)/(p-1), which recovers the full web integral in the
    continuum. Since mu/P is non-increasing and -P' >= 0, pairing each
    subinterval's exact perimeter drop with the right-endpoint value of
    (mu/P)^gamma gives a guaranteed under-estimate.

    Other f: c_p / P^q times the trapezoid value of the integral of
    mu_f^gamma / f^2 (-f') dt, with f' from the weight's analytic slope.
    """
    q = q_exponent(p)
    gamma = q + 1.0
    w = prof.weight
    cp = c_p(p)
    if w.is_constant:
        P, mu = prof.perimeters, prof.areas
        phi = np.zeros_like(P)
        live = P > 0.0
        phi[live] = (mu[live] / P[live]) ** gamma
        drops = np.maximum(P[:-1] - P[1:], 0.0)
        f0, total = w(0.0), float(np.sum(drops * phi[1:]))
        direct = lambda: cp * q * f0**q * total
        log_value = lambda: math.log(cp * q) + q * math.log(f0) + math.log(total)
    else:
        t, mu_f = prof.t, prof.weighted
        fvals = np.asarray(w(t))
        slopes = -np.asarray(w.derivative(t))
        g = np.zeros_like(mu_f)
        live = fvals > 0.0
        g[live] = mu_f[live] ** gamma / fvals[live] ** 2 * slopes[live]
        P, total = prof.metrics.perimeter, max(float(np.trapezoid(g, t)), 0.0)
        direct = lambda: cp / P**q * total
        log_value = lambda: math.log(cp) - q * math.log(P) + math.log(total)
    return _in_range(direct, log_value, "the refinement", p)


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
    P, area, mu_f, f0 = body.perimeter, body.area, prof.mu_f_total, w(0.0)
    closed = _in_range(lambda: cp * mu_f ** (q + 1.0) / (f0 * P**q),
                       lambda: (math.log(cp) + (q + 1.0) * math.log(mu_f) - math.log(f0)
                                - q * math.log(P)),
                       "the closed bound", p)
    # a non-increasing weight attains its infimum at the inradius
    inf_f = float(w(body.inradius))
    inf_weight = _in_range(lambda: inf_f**q * cp * area ** (q + 1.0) / P**q,
                           lambda: (q * math.log(inf_f) + math.log(cp) + (q + 1.0) * math.log(area)
                                    - q * math.log(P)),
                           "the inf-weight bound", p)
    return BoundSet(
        p=p,
        q=q,
        c_p=cp,
        closed=closed,
        refined=closed + _refinement(prof, p),
        integral=_web_integral(prof, p),
        inf_weight=inf_weight,
        f_p_window=(cp, makai_upper(p)),
    )
