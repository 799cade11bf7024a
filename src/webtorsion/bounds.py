"""Lower bounds for the weighted p-torsion and the scale-invariant functionals.

In the continuum every bound here is a lower bound for T_{f,p}, and they are
ordered closed <= refined <= integral <= T. The refined bound's shrink term
is a right-endpoint lower sum of a non-increasing integrand (an
under-estimate) and the integral bound is the trapezoid rule on a convex
integrand (an over-estimate), which keeps refined <= integral on the grid.
The over-estimate can carry the integral bound above T where the web bound is
nearly tight: at p = 2 with a constant weight, integral / T - 1 measures
+1.13e-4 for rectangle(0.005) at m = 64 and +1.54e-6 for rectangle(0.001) at
m = 512 (ROADMAP item 2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadExponent
from .geometry import BodyMetrics
from .parallel import ParallelProfile, WeightProfile


def q_exponent(p: float) -> float:
    """Conjugate-type exponent q = p/(p-1)."""
    if p <= 1.0:
        raise BadExponent(f"p = {p!r} must exceed 1")
    return p / (p - 1.0)


def c_p(p: float) -> float:
    """Sharp constant (p-1)/(2p-1) of the thinning-cylinder limit."""
    if p <= 1.0:
        raise BadExponent(f"p = {p!r} must exceed 1")
    return (p - 1.0) / (2.0 * p - 1.0)


def makai_upper(p: float) -> float:
    """Planar upper window 2^{q+1}/((q+2)(q+1)) for T_p P^q / area^{q+1}."""
    q = q_exponent(p)
    return 2.0 ** (q + 1.0) / ((q + 2.0) * (q + 1.0))


def functional_F(T: float, body: BodyMetrics, p: float) -> float:
    """Scale-invariant torsion functional T P^q / area^{q+1}."""
    if T <= 0.0:
        raise ValueError("T must be positive")
    q = q_exponent(p)
    return T * body.perimeter**q / body.area ** (q + 1.0)


def functional_H_half(T: float, body: BodyMetrics) -> float:
    """Planar functional P T^{1/2} / area^{3/2} (bounded only at exponent 1/2)."""
    if T <= 0.0:
        raise ValueError("T must be positive")
    return body.perimeter * np.sqrt(T) / body.area**1.5


def web_lower_integral(prof: ParallelProfile, p: float) -> float:
    """Trapezoid value of the web test-field bound.

    T >= integral over [0, R] of mu_f^{p/(p-1)}(t) / P^{1/(p-1)}(t) dt; the
    integrand is forced to 0 where P vanishes (it tends to 0 there) and at
    the inradius endpoint. The trapezoid rule over-estimates this convex
    integrand, so on thin bodies the sampled value can exceed T (see the
    module docstring).
    """
    q = q_exponent(p)
    P, mu_f = prof.perimeters, prof.weighted
    g = np.zeros_like(P)
    live = P > 0.0
    g[live] = mu_f[live] ** q / P[live] ** (1.0 / (p - 1.0))
    g[-1] = 0.0
    return float(np.trapezoid(g, prof.t))


def web_lower_closed(body: BodyMetrics, weight: WeightProfile, mu_f_total: float, p: float) -> float:
    """Closed-form bound c_p mu_f(body)^{q+1} / (f(0) P^q)."""
    q = q_exponent(p)
    return c_p(p) * mu_f_total ** (q + 1.0) / (weight(0.0) * body.perimeter**q)


def shrink_term(prof: ParallelProfile, p: float) -> float:
    """Lower sum of the perimeter-shrink correction for constant weights.

    The continuum term is the integral of (mu/P)^{(2p-1)/(p-1)} (-P') dt.
    Since mu/P is non-increasing and -P' >= 0, pairing each subinterval's
    exact perimeter drop with the right-endpoint value of (mu/P)^gamma gives
    a guaranteed under-estimate.
    """
    gamma = q_exponent(p) + 1.0
    P, mu = prof.perimeters, prof.areas
    phi = np.zeros_like(P)
    live = P > 0.0
    phi[live] = (mu[live] / P[live]) ** gamma
    drops = np.maximum(P[:-1] - P[1:], 0.0)
    return float(np.sum(drops * phi[1:]))


def weight_slope_term(prof: ParallelProfile, weight: WeightProfile, p: float) -> float:
    """Trapezoid value of the weight-decay correction for general weights.

    The continuum term is the integral of mu_f^{(2p-1)/(p-1)} / f^2 (-f') dt,
    taken in closed form from the weight's analytic slope.
    """
    gamma = q_exponent(p) + 1.0
    t, mu_f = prof.t, prof.weighted
    fvals = np.asarray(weight(t))
    slopes = -np.asarray(weight.derivative(t))
    g = np.zeros_like(mu_f)
    live = fvals > 0.0
    g[live] = mu_f[live] ** gamma / fvals[live] ** 2 * slopes[live]
    return max(float(np.trapezoid(g, t)), 0.0)


def web_lower_refined_general(prof: ParallelProfile, weight: WeightProfile, p: float) -> float:
    """Closed bound plus the weight-decay correction (zero for constant f)."""
    closed = web_lower_closed(prof.metrics, weight, prof.mu_f_total, p)
    q = q_exponent(p)
    extra = c_p(p) / prof.metrics.perimeter**q * weight_slope_term(prof, weight, p)
    return closed + extra


def web_lower_refined(prof: ParallelProfile, weight: WeightProfile, p: float) -> float:
    """Refined lower bound, always at least the closed bound.

    Constant weights use the perimeter-shrink form (which recovers the full
    web integral in the continuum); non-constant weights add the weight-decay
    correction to the closed bound.
    """
    if weight.is_constant:
        closed = web_lower_closed(prof.metrics, weight, prof.mu_f_total, p)
        q = q_exponent(p)
        scale_f = weight(0.0) ** q
        return closed + c_p(p) * q * scale_f * shrink_term(prof, p)
    return web_lower_refined_general(prof, weight, p)


def inf_weight_lower(body: BodyMetrics, weight: WeightProfile, p: float) -> float:
    """Variational bound (inf f)^q c_p area^{q+1} / P^q."""
    q = q_exponent(p)
    inf_f = float(weight(body.inradius))  # non-increasing weight attains inf at R
    return inf_f**q * c_p(p) * body.area ** (q + 1.0) / body.perimeter**q


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

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "c_p": self.c_p,
            "closed": self.closed,
            "refined": self.refined,
            "integral": self.integral,
            "inf_weight": self.inf_weight,
            "F_p_window": list(self.f_p_window),
        }


def bound_report(prof: ParallelProfile, p: float) -> BoundSet:
    """Evaluate every bound on a profile and package them with the F_p window."""
    w = prof.weight
    return BoundSet(
        p=p,
        q=q_exponent(p),
        c_p=c_p(p),
        closed=web_lower_closed(prof.metrics, w, prof.mu_f_total, p),
        refined=web_lower_refined(prof, w, p),
        integral=web_lower_integral(prof, p),
        inf_weight=inf_weight_lower(prof.metrics, w, p),
        f_p_window=(c_p(p), makai_upper(p)),
    )
