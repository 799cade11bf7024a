"""Quantitative stability of the torsion functional for planar convex bodies.

The deficit F_p - c_p is bounded below by K(p) w/diam (any p > 1) and, at
p = 2, by a cubic power of the symmetric-difference distance to an enclosing
rectangle Q with sides P/2 and w. The threshold sigma splits the proof into a
large-deficit branch (where D <= 2 suffices) and a small-deficit branch that
also passes through the inradius-deficit inequality.

Both objects come from closed forms. sigma is K(2) times the least of the
three admissible maxima of its branch-split constraints. Q is placed from the
width direction and the vertex projections, checked once to contain every
vertex within 1e-12 (max|v| + 1). Since Q contains the body, the ratio
D = |Q symdiff body| / area is (|Q| - area) / area = P w / (2 area) - 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import _power, c_p, functional_F, q_exponent
from .errors import ContainmentFailure
from .geometry import BodyMetrics, ConvexPolygon, metrics

# constant of the intermediate inradius-deficit inequality, any value < 1/3 works
QUANT_R_CONST = 1.0 / 6.0
# fallback constant of the small-deficit branch; the binding value is sigma/8
K_TILDE_FLOOR = 1.0 / 384.0
# how k_tilde was obtained, reported next to it
K_TILDE_BASIS = "min(sigma/8, 1/384), reconstructed constant"
# the verdict fields of a DeficitReport, and the one rule on a mapping of
# them: none is False, a verdict that is None or absent being no verdict
VERDICTS = ("theorem2_ok", "theorem3_ok", "quantitative_R_ok")


def _verdicts_hold(fields) -> bool:
    return not any(fields.get(v) is False for v in VERDICTS)


def K_of_p(p: float) -> float:
    """Explicit constant (p-1) p / (2^{p/(p-1)} 3 (3p-2) (2p-1)); K(2) = 1/72.

    p is admitted by q_exponent. K tends to 1/36 as p grows and to 0 as p
    tends to 1, where BadExponent is raised once it underflows.
    """
    q = q_exponent(p)
    return _power([(p - 1.0, 1.0), (p, 1.0)],
                  [(2.0, q), (3.0, 1.0), (3.0 * p - 2.0, 1.0), (2.0 * p - 1.0, 1.0)],
                  f"K(p) at p = {p!r}")


def sigma_threshold() -> float:
    """Largest sigma > 0 satisfying the three branch-split constraints at K(2).

    With x = sigma / K(2) the constraints read x <= 3/(4 pi),
    pi^2 x^2 / 96 + pi x / 48 <= 1/162 and x <= sqrt(3)/2 - 8/(3 pi); the
    third one binds.
    """
    a, b = math.pi**2 / 96.0, math.pi / 48.0
    x2 = (math.sqrt(b * b + 4.0 * a / 162.0) - b) / (2.0 * a)
    x3 = math.sqrt(3.0) / 2.0 - 8.0 / (3.0 * math.pi)
    return K_of_p(2.0) * min(3.0 / (4.0 * math.pi), x2, x3)


def k_tilde() -> float:
    """Constant of the cubic stability inequality: min(sigma/8, 1/384)."""
    return min(sigma_threshold() / 8.0, K_TILDE_FLOOR)


@dataclass(frozen=True)
class EnclosingRectangle:
    """Rectangle with sides P/2 and w containing the body.

    The short side is parallel to the minimal-width direction; corners are
    listed counter-clockwise in the original frame.
    """

    width_direction: tuple[float, float]
    long_side: float
    short_side: float
    corners: np.ndarray
    symdiff_ratio: float


def enclosing_rectangle(polygon: ConvexPolygon, body: BodyMetrics | None = None) -> EnclosingRectangle:
    """Build Q and the closed-form ratio D = |Q symdiff body| / area = P w / (2 area) - 1.

    Raises ContainmentFailure when a vertex lies more than 1e-12 (max|v| + 1)
    outside Q.
    """
    if body is None:
        body = metrics(polygon)
    u = np.asarray(body.width_direction, dtype=float)
    vdir = np.array([-u[1], u[0]])
    proj_u = polygon.vertices @ u
    proj_v = polygon.vertices @ vdir
    long_side = body.perimeter / 2.0
    short_side = body.width
    mid_v = 0.5 * (proj_v.min() + proj_v.max())
    u_lo = proj_u.min()
    v_lo, v_hi = mid_v - long_side / 2.0, mid_v + long_side / 2.0
    u_hi = u_lo + short_side
    tol = 1e-12 * (float(np.max(np.abs(polygon.vertices))) + 1.0)
    # u_lo is the least u-projection, so only three sides can be crossed
    if not (
        proj_u.max() <= u_hi + tol and v_lo - tol <= proj_v.min() and proj_v.max() <= v_hi + tol
    ):
        raise ContainmentFailure("body vertices escape the enclosing rectangle")
    # (u, vdir) is a right-handed frame, so these corners run counter-clockwise
    corners = np.array(
        [
            u_lo * u + v_lo * vdir,
            u_hi * u + v_lo * vdir,
            u_hi * u + v_hi * vdir,
            u_lo * u + v_hi * vdir,
        ]
    )
    ratio = body.perimeter * body.width / (2.0 * body.area) - 1.0
    return EnclosingRectangle(
        width_direction=(float(u[0]), float(u[1])),
        long_side=long_side,
        short_side=short_side,
        corners=corners,
        symdiff_ratio=ratio,
    )


@dataclass(frozen=True)
class DeficitReport:
    """Deficit functionals, geometric ratios and theorem verdicts for one body."""

    p: float
    torsion: float
    F_p: float
    c_p: float
    deficit: float
    width_diam_ratio: float
    K_p: float
    theorem2_rhs: float
    theorem2_ok: bool
    inradius_deficit: float
    # p = 2 only fields; None otherwise
    rectangle: EnclosingRectangle | None = None
    symdiff_ratio: float | None = None
    sigma: float | None = None
    k_tilde: float | None = None
    branch: str | None = None
    theorem3_rhs: float | None = None
    theorem3_ok: bool | None = None
    quantitative_R_rhs: float | None = None
    quantitative_R_ok: bool | None = None

    @property
    def all_ok(self) -> bool:
        """No verdict is False: the rule of VERDICTS, where None is no verdict."""
        return _verdicts_hold(vars(self))


def theorem2_report(body: BodyMetrics, T: float, p: float) -> DeficitReport:
    """Check F_p - c_p >= K(p) w / diam with a torsion value from any source."""
    F = functional_F(T, body, p)
    cp, K = c_p(p), K_of_p(p)
    deficit = F - cp
    ratio = body.width / body.diameter
    rhs = K * ratio
    return DeficitReport(
        p=p,
        torsion=T,
        F_p=F,
        c_p=cp,
        deficit=deficit,
        width_diam_ratio=ratio,
        K_p=K,
        theorem2_rhs=rhs,
        theorem2_ok=bool(deficit >= rhs),
        inradius_deficit=body.perimeter * body.inradius / body.area - 1.0,
    )


def theorem3_report(polygon: ConvexPolygon, T: float, body: BodyMetrics | None = None) -> DeficitReport:
    """Full p = 2 deficit report with the cubic stability verdicts.

    Every body is checked against k_tilde D^3. On the large-deficit branch
    (deficit >= sigma) that is (sigma/8) D^3, since k_tilde = sigma/8, and it
    holds because D <= 2; small-deficit bodies are also checked against the
    intermediate inradius-deficit inequality deficit >= (1/6) (P R / area - 1)^3.
    """
    if body is None:
        body = metrics(polygon)
    base = theorem2_report(body, T, 2.0)
    rect = enclosing_rectangle(polygon, body)
    D = rect.symdiff_ratio
    sigma = sigma_threshold()
    kt = k_tilde()
    rhs3 = kt * D**3
    ok3 = bool(base.deficit >= rhs3)
    if base.deficit >= sigma:
        branch = "large-deficit"
        rhs_r, ok_r = None, None
    else:
        branch = "small-deficit"
        rhs_r = QUANT_R_CONST * base.inradius_deficit**3
        ok_r = bool(base.deficit >= rhs_r)
    return replace(
        base,
        rectangle=rect,
        symdiff_ratio=D,
        sigma=sigma,
        k_tilde=kt,
        branch=branch,
        theorem3_rhs=rhs3,
        theorem3_ok=ok3,
        quantitative_R_rhs=rhs_r,
        quantitative_R_ok=ok_r,
    )
