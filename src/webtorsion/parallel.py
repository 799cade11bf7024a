"""Inner parallel bodies and the profiles that drive every lower bound.

For a convex polygon the body at depth t is the intersection of its edge
half-planes pushed inward by t. Its perimeter P(t) and area mu(t) are
piecewise linear and quadratic between the edge-collapse events of the
straight skeleton (``geometry._skeleton``). The profile samples P(t), mu(t)
and the weighted volume mu_f(t) = integral over {d > t} of f(d(x)) on a
uniform grid over [0, R], R the inradius. ``inner_body`` builds the body at
one depth by clipping, independently of the skeleton.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse, ViolationFound
from .geometry import (
    BodyMetrics,
    ConvexPolygon,
    metrics,
    _canonicalize,
    _shoelace,
    _skeleton,
)

DEFAULT_GRID = 512
_MIN_GRID = 64
# relative tolerance of the Steiner checks, read at call time
STEINER_REL_TOL = 1e-9


@dataclass(frozen=True)
class WeightProfile:
    """Continuous, non-increasing, non-negative weight of the boundary distance.

    Kinds: "const" f = c, "linear" f(s) = max(c - beta s, 0),
    "exp" f(s) = c exp(-rate s). Always f(0) = c > 0.
    """

    kind: str
    c: float = 1.0
    beta: float = 0.0
    rate: float = 0.0

    def __post_init__(self):
        if self.kind not in ("const", "linear", "exp"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if not (self.c > 0.0):
            raise ValueError("weight must be positive at distance zero")
        if self.beta < 0.0 or self.rate < 0.0:
            raise ValueError("slope and rate must be non-negative")

    @classmethod
    def constant(cls, c: float = 1.0) -> "WeightProfile":
        return cls("const", c=c)

    @classmethod
    def truncated_linear(cls, c: float = 1.0, beta: float = 1.0) -> "WeightProfile":
        return cls("linear", c=c, beta=beta)

    @classmethod
    def exponential(cls, c: float = 1.0, rate: float = 1.0) -> "WeightProfile":
        return cls("exp", c=c, rate=rate)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "const":
            out = np.full_like(s, self.c)
        elif self.kind == "linear":
            out = np.maximum(self.c - self.beta * s, 0.0)
        else:
            out = self.c * np.exp(-self.rate * s)
        return float(out) if out.ndim == 0 else out

    def derivative(self, s):
        """Pointwise slope f'(s); the left value is used at the linear kink."""
        s = np.asarray(s, dtype=float)
        if self.kind == "const":
            out = np.zeros_like(s)
        elif self.kind == "linear":
            out = np.where(self.c - self.beta * s > 0.0, -self.beta, 0.0)
        else:
            out = -self.rate * self.c * np.exp(-self.rate * s)
        return float(out) if out.ndim == 0 else out

    @property
    def is_constant(self) -> bool:
        return self.kind == "const" or (self.kind == "linear" and self.beta == 0.0) or (
            self.kind == "exp" and self.rate == 0.0
        )


# ---------------------------------------------------------------------------
# inner bodies
# ---------------------------------------------------------------------------


def _clip_halfplane(pts, nx, ny, b):
    """Sutherland-Hodgman clip of a convex loop against n . x >= b."""
    out = []
    m = len(pts)
    if m == 0:
        return out
    px, py = pts[-1]
    pd = nx * px + ny * py - b
    for qx, qy in pts:
        qd = nx * qx + ny * qy - b
        if qd >= 0.0:
            if pd < 0.0:
                t = pd / (pd - qd)
                out.append((px + t * (qx - px), py + t * (qy - py)))
            out.append((qx, qy))
        elif pd >= 0.0:
            t = pd / (pd - qd)
            out.append((px + t * (qx - px), py + t * (qy - py)))
        px, py, pd = qx, qy, qd
    return out


def _clip(pts, normals, offsets):
    """Clip a convex loop by every half-plane n_i . x >= b_i.

    Returns the clipped loop as a list of points, or [] as soon as fewer than
    3 points remain.
    """
    for (nx, ny), b in zip(normals.tolist(), offsets.tolist()):
        pts = _clip_halfplane(pts, nx, ny, b)
        if len(pts) < 3:
            return []
    return pts


def inner_body(polygon: ConvexPolygon, t: float):
    """The body at depth t, or None when it is empty (t >= inradius).

    The loop is clipped by the edge half-planes pushed inward by t and cleaned
    by the rule that builds every polygon (``geometry._canonicalize``).
    """
    if t < 0.0:
        raise ValueError("depth t must be non-negative")
    if t == 0.0:
        return polygon
    if t >= metrics(polygon).inradius:
        return None
    n, b, _ = polygon._edges
    arr = _canonicalize(_clip(polygon.vertices.tolist(), n, b + t))
    if len(arr) < 3 or _shoelace(arr) <= 0.0:
        return None
    return ConvexPolygon(arr)


@dataclass(frozen=True)
class ParallelProfile:
    """Sampled curves t -> (P(t), mu(t), mu_f(t)) of the inner parallel bodies."""

    t: np.ndarray
    perimeters: np.ndarray
    areas: np.ndarray
    weighted: np.ndarray
    metrics: BodyMetrics
    weight: WeightProfile
    polygon: ConvexPolygon

    def __post_init__(self):
        for name in ("t", "perimeters", "areas", "weighted"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        m = self.metrics
        P, mu = self.perimeters, self.areas
        tol_p = 1e-9 * m.perimeter
        tol_a = 1e-9 * m.area
        if np.any(np.diff(P) > tol_p):
            raise ViolationFound("perimeter-monotone", float(np.diff(P).max()), None)
        pos = mu > 0.0
        if pos.any():
            last = int(np.max(np.nonzero(pos)))
            if np.any(np.diff(mu[: last + 1]) >= 0.0):
                raise ViolationFound("area-strict-decrease", 0.0, None)
            if np.any(mu[last + 1 :] != 0.0) or np.any(P[last + 1 :] != 0.0):
                raise ViolationFound("trailing-zeros", 0.0, None)
        if abs(mu[0] - m.area) > 1e-9 * m.area:
            raise ViolationFound("area-at-zero", float(mu[0] - m.area), 0)
        if mu[-1] > 1e-6 * m.area + tol_a:
            raise ViolationFound("area-at-inradius", float(mu[-1]), len(mu) - 1)
        if self.weighted[-1] != 0.0:
            raise ViolationFound("weighted-at-inradius", float(self.weighted[-1]), None)

    @property
    def mu_f_total(self) -> float:
        return float(self.weighted[0])

    def to_csv(self, stream) -> None:
        """Write rows t,P,mu,mu_f with 17 significant digits."""
        stream.write("t,P,mu,mu_f\n")
        for i in range(len(self.t)):
            stream.write(
                f"{self.t[i]:.17g},{self.perimeters[i]:.17g},"
                f"{self.areas[i]:.17g},{self.weighted[i]:.17g}\n"
            )


def profile(polygon: ConvexPolygon, weight: WeightProfile, m: int = DEFAULT_GRID) -> ParallelProfile:
    """Sample P, mu and mu_f on the uniform grid 0 = t_0 < ... < t_m = R.

    P and mu are the straight skeleton's exact pieces between edge-collapse
    events, evaluated at the nodes. mu_f is accumulated from the inradius
    end, so mu_f(R) = 0 holds exactly: constant weights use c times the
    exact areas, the others sum f(midpoint) times the exact area increment of
    each subinterval.
    """
    if m < _MIN_GRID:
        raise GridTooCoarse(f"grid size {m} below minimum {_MIN_GRID}")
    body = metrics(polygon)
    times, P_j, mu_j, C_j, _ = _skeleton(polygon)
    ts = np.linspace(0.0, body.inradius, m + 1)
    j = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, len(P_j) - 1)
    d = ts - times[j]
    P = P_j[j] - 2.0 * C_j[j] * d
    mu = mu_j[j] - d * (P_j[j] - C_j[j] * d)
    # the body at depth R has measure zero; its node is empty by definition,
    # and so is every node from the first one past the last event or of area
    # rounded to zero
    live = (ts < times[-1]) & (mu > 0.0)
    live[-1] = False
    live = np.logical_and.accumulate(live)
    P = np.where(live, P, 0.0)
    mu = np.where(live, mu, 0.0)
    if weight.is_constant:
        # exact: the weighted volume of a constant weight is c times the area,
        # which keeps the discrete bound chain one-sided
        mu_f = weight.c * mu
    else:
        # accumulate f(mid) times the exact area increment of each subinterval;
        # since mu carries the integral of P exactly, this is insensitive to
        # the perimeter kinks and to its jump at a needle collapse, and it
        # obeys mu_f(t) <= f(t) mu(t) <= (R - t) f(t) P(t) node by node
        mids = 0.5 * (ts[:-1] + ts[1:])
        seg = np.asarray(weight(mids)) * (mu[:-1] - mu[1:])
        mu_f = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    return ParallelProfile(
        t=ts, perimeters=P, areas=mu, weighted=mu_f,
        metrics=body, weight=weight, polygon=polygon,
    )


@dataclass(frozen=True)
class SteinerReport:
    """Worst slacks of the inner Steiner inequalities over a profile."""

    perimeter_slack: float
    perimeter_node: int
    area_slack: float
    area_node: int
    quotient_slack: float
    quotient_node: int

    def to_json_dict(self) -> dict:
        return {
            "perimeter_slack": self.perimeter_slack,
            "perimeter_node": self.perimeter_node,
            "area_slack": self.area_slack,
            "area_node": self.area_node,
            "quotient_slack": self.quotient_slack,
            "quotient_node": self.quotient_node,
        }


def steiner_check(prof: ParallelProfile) -> SteinerReport:
    """Verify P(t) <= P - 2 pi t, mu(t) >= area - P t + pi t^2 and -dP/dt >= 2 pi.

    Returns the minimal slacks, those of the first two over the nodes t > 0
    (at t = 0 both hold with equality by construction); raises ViolationFound
    when a slack falls below -STEINER_REL_TOL times the natural scale of its
    inequality.
    """
    m = prof.metrics
    t, P, mu = prof.t, prof.perimeters, prof.areas
    s1 = (m.perimeter - 2 * np.pi * t) - P
    s2 = mu - (m.area - m.perimeter * t + np.pi * t * t)
    i1 = 1 + int(np.argmin(s1[1:]))
    i2 = 1 + int(np.argmin(s2[1:]))
    # difference quotients of P, skipping the subintervals past the inradius
    # where P vanishes at both nodes
    q = np.where(
        (P[:-1] != 0.0) | (P[1:] != 0.0), (P[:-1] - P[1:]) / (t[1] - t[0]) - 2 * np.pi, np.inf
    )
    i3 = int(np.argmin(q))
    report = SteinerReport(
        perimeter_slack=float(s1[i1]), perimeter_node=i1,
        area_slack=float(s2[i2]), area_node=i2,
        quotient_slack=float(q[i3]), quotient_node=i3,
    )
    if report.perimeter_slack < -STEINER_REL_TOL * m.perimeter:
        raise ViolationFound("steiner-perimeter", report.perimeter_slack, i1)
    if report.area_slack < -STEINER_REL_TOL * m.area:
        raise ViolationFound("steiner-area", report.area_slack, i2)
    if report.quotient_slack < -STEINER_REL_TOL * 2 * np.pi:
        raise ViolationFound("steiner-quotient", report.quotient_slack, i3)
    return report
