"""Fuzz corpus generation, inequality property suites and experiment sweeps.

The corpus generator is a fixed 64-bit mixing recurrence so that every run
(and any reimplementation) reproduces the same bodies bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import bound_report
from .errors import BadParameter, Degenerate, NonConvex, RejectionOverflow, ViolationFound, _integer
from .geometry import ConvexPolygon, metrics, polygon_from_vertices
from .parallel import DEFAULT_GRID, SLACK_REL_TOL, WeightProfile, _check_grid, profile, steiner_check
from .quantitative import theorem2_report, theorem3_report
from .shapes import isosceles_triangle, rectangle, slab_upper_bound, stadium_of_width
from .solver import richardson_T

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# classical planar windows, kept at module level so a planted mutation is
# visible to the whole suite
AREA_PER_INRADIUS_LO = 0.5
AREA_PER_INRADIUS_HI = 1.0
WIDTH_INRADIUS_LO = 2.0
WIDTH_INRADIUS_HI = 3.0
SCOTT_COEFF = 2.0 / math.sqrt(3.0)
DIAM_PER_LO = 2.0
DIAM_PER_HI = math.pi


class SplitMix64:
    """splitmix-style generator: z += 0x9E3779B97F4A7C15 per step, then
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9, z = (z ^ (z >> 27)) *
    0x94D049BB133111EB, z ^= z >> 31, all modulo 2^64."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53


@dataclass(frozen=True)
class FuzzConfig:
    """Deterministic corpus description."""

    seed: int = 42
    count: int = 1000
    min_vertices: int = 3
    max_vertices: int = 64
    tau_min: float = 0.01
    tau_max: float = 1.0

    def __post_init__(self):
        for name in ("seed", "count", "min_vertices", "max_vertices"):
            _integer(getattr(self, name), name)
        if self.count < 0:
            raise BadParameter(f"corpus size {self.count} must be non-negative")
        if not (3 <= self.min_vertices <= self.max_vertices <= 64):
            raise BadParameter("vertex-count range must sit inside [3, 64]")
        if not (0.0 < self.tau_min <= self.tau_max <= 1.0):
            raise BadParameter("anisotropy range must sit inside (0, 1]")


def random_convex_body(config: FuzzConfig, index: int) -> ConvexPolygon:
    """Deterministic random body: hull of disk points, one axis compressed.

    The stream for case ``index`` starts from seed XOR ((index + 1) *
    0x9E3779B97F4A7C15 mod 2^64). Points are drawn uniformly in the unit disk
    (radial inversion, no rejection), hulled, and the y axis is compressed by
    tau drawn uniformly from [tau_min, tau_max]. Bodies with area below 1e-6
    are redrawn; more than 1000 consecutive rejections raise.
    """
    rng = SplitMix64(config.seed ^ ((_integer(index, "case index") + 1) * _GOLDEN & _MASK))
    span = config.max_vertices - config.min_vertices + 1
    for _ in range(1000):
        n_pts = config.min_vertices + rng.next_u64() % span
        tau = config.tau_min + rng.uniform() * (config.tau_max - config.tau_min)
        pts = []
        for _ in range(n_pts):
            r = math.sqrt(rng.uniform())
            th = 2.0 * math.pi * rng.uniform()
            pts.append((r * math.cos(th), r * math.sin(th)))
        hull = _convex_hull(pts)
        if len(hull) < 3:
            continue
        compressed = [(x, tau * y) for x, y in hull]
        try:
            poly = polygon_from_vertices(compressed)
        except (NonConvex, Degenerate):
            continue
        if metrics(poly).area < 1e-6:
            continue
        return poly
    raise RejectionOverflow(f"case {index}: over 1000 consecutive rejections")


def _convex_hull(points):
    """Andrew monotone chain with strict turns (collinear points dropped)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                ox, oy = out[-2]
                ax, ay = out[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0.0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def classical_inequality_suite(
    polygon: ConvexPolygon, steiner_grid: int | None = None
) -> dict:
    """Check the five planar windows, raising ViolationFound on any breach.

    Returns the slack of every classical inequality by name; a non-negative
    slack is a pass.

    When steiner_grid is given, the inner-parallel profile at that grid size
    is built and its Steiner inequalities are checked as well. All slacks are
    normalized by the natural scale of their inequality; a window slack below
    -SLACK_REL_TOL is a breach.
    """
    m = metrics(polygon)
    area, P, R, w, diam = m.area, m.perimeter, m.inradius, m.width, m.diameter
    slacks = {
        "area_per_inradius_lo": area / (P * R) - AREA_PER_INRADIUS_LO,
        "area_per_inradius_hi": AREA_PER_INRADIUS_HI - area / (P * R),
        "width_inradius_lo": w / R - WIDTH_INRADIUS_LO,
        "width_inradius_hi": WIDTH_INRADIUS_HI - w / R,
        "scott": (SCOTT_COEFF * w * w - (w - 2.0 * R) * P) / (w * w),
        "santalo": (R * (P - math.pi * R) - area) / area,
        "diam_per_lo": (P - DIAM_PER_LO * diam) / P,
        "diam_per_hi": (DIAM_PER_HI * diam - P) / P,
        "isoperimetric": (P * P - 4.0 * math.pi * area) / (P * P),
    }
    for name, slack in slacks.items():
        if slack < -SLACK_REL_TOL:
            raise ViolationFound(name, slack)
    if steiner_grid is not None:
        prof = profile(polygon, WeightProfile.constant(1.0), steiner_grid)
        rep = steiner_check(prof)
        slacks["steiner_perimeter"] = rep.perimeter_slack / m.perimeter
        slacks["steiner_area"] = rep.area_slack / m.area
        slacks["steiner_quotient"] = rep.quotient_slack / (2.0 * math.pi)
    return slacks


@dataclass(frozen=True)
class FuzzSummary:
    """Outcome of a corpus sweep of the inequality suite.

    ``worst`` maps each inequality to its least slack over the bodies that
    passed, as {"slack": value, "body": first index reaching it}.
    """

    count: int
    violations: list
    worst: dict


def fuzz_suite(config: FuzzConfig, steiner_grid: int | None = None) -> FuzzSummary:
    """Run the classical suite over the whole corpus and summarize.

    A steiner_grid outside profile's limits raises before any body is built.
    """
    if steiner_grid is not None:
        _check_grid(steiner_grid)
    worst = {}
    violations = []
    for i in range(config.count):
        body = random_convex_body(config, i)
        try:
            slacks = classical_inequality_suite(body, steiner_grid)
        except ViolationFound as exc:
            violations.append({"body": i, "name": exc.name, "slack": exc.slack})
            continue
        for name, slack in slacks.items():
            if name not in worst or slack < worst[name]["slack"]:
                worst[name] = {"slack": slack, "body": i}
    return FuzzSummary(count=config.count, violations=violations, worst=worst)


SEQUENCE_COLUMNS = [
    "kind", "l", "p", "area", "perimeter", "inradius", "width", "diameter",
    "mu_f", "closed", "refined", "integral", "T", "T_error", "observed_order",
    "F_p", "deficit", "theorem2_rhs", "theorem2_ok", "symdiff_ratio",
    "branch", "theorem3_ok", "quantitative_R_ok", "slab_upper",
]

# the thinning families of run_sequence, each kind with the maker of its
# unit-area member of width l
SEQUENCE_KINDS = {
    "rectangle": rectangle, "triangle": isosceles_triangle, "stadium": stadium_of_width,
}
DEFAULT_L_GRID = (0.4, 0.2, 0.1, 0.05)
SEQUENCE_MESH_DIVISOR = 10


def _deficit_check(poly: ConvexPolygon, p: float, h: float):
    """richardson_T of the constant weight on the ladder (4h, 2h, h) and the
    report for p: theorem3_report at p = 2, theorem2_report otherwise."""
    rich = richardson_T(poly, WeightProfile.constant(1.0), p, [4.0 * h, 2.0 * h, h])
    T, body = rich.torsion, metrics(poly)
    return rich, theorem3_report(poly, T, body) if p == 2.0 else theorem2_report(body, T, p)


def run_sequence(
    kind: str,
    l_grid=DEFAULT_L_GRID,
    p: float = 2.0,
    grid: int = DEFAULT_GRID,
) -> list[dict]:
    """Metrics, bounds, solver torsion and verdicts along a thinning family.

    kind is a key of SEQUENCE_KINDS; l is the width of the unit-area member.
    The solver runs a 3-level ratio-2 refinement ladder with finest size
    inradius / SEQUENCE_MESH_DIVISOR. A row holds None where its column does
    not apply: the p = 2 only fields at other p, quantitative_R_ok on the
    large-deficit branch and slab_upper for kinds other than rectangle.
    """
    if kind not in SEQUENCE_KINDS:
        raise BadParameter(f"unknown sequence kind {kind!r}")
    weight = WeightProfile.constant(1.0)
    rows = []
    for l in l_grid:
        poly, _rec = SEQUENCE_KINDS[kind](float(l))
        body = metrics(poly)
        prof = profile(poly, weight, grid)
        bounds = bound_report(prof, p)
        rich, rep = _deficit_check(poly, p, body.inradius / SEQUENCE_MESH_DIVISOR)
        rows.append({
            "kind": kind,
            "l": float(l),
            "p": p,
            "area": body.area,
            "perimeter": body.perimeter,
            "inradius": body.inradius,
            "width": body.width,
            "diameter": body.diameter,
            "mu_f": prof.mu_f_total,
            "closed": bounds.closed,
            "refined": bounds.refined,
            "integral": bounds.integral,
            "T": rich.torsion,
            "T_error": rich.error,
            "observed_order": rich.observed_order,
            **{c: getattr(rep, c) for c in (
                "F_p", "deficit", "theorem2_rhs", "theorem2_ok", "symdiff_ratio",
                "branch", "theorem3_ok", "quantitative_R_ok")},
            "slab_upper": slab_upper_bound(float(l), p) if kind == "rectangle" else None,
        })
    return rows
