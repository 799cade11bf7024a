"""Analytic shape families with closed-form reference data.

Thinning rectangles and isosceles triangles of unit area, stadii, disks, and
the n-dimensional thinning-cylinder formulas. Curved shapes enter as fine
polygonal approximations with an explicit error budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import c_p, q_exponent
from .errors import BadParameter
from .geometry import ConvexPolygon, polygon_from_vertices

# most vertices of a disk, or arc points of a stadium cap
_MAX_POINTS = 1 << 16


def slab_upper_bound(l: float, p: float, n: int = 2) -> float:
    """Upper bound 2 c_p l^{-1} (l/2)^{(2p-1)/(p-1)} for the thinning cylinder.

    Comes from comparing with the one-dimensional slab solution; at p = 2 it
    reduces to l^2 / 12.
    """
    if not (l > 0.0 and p > 1.0 and n >= 2):
        raise BadParameter("need l > 0, p > 1, n >= 2")
    gamma = (2.0 * p - 1.0) / (p - 1.0)
    return 2.0 * c_p(p) * (l ** -1.0) * (l / 2.0) ** gamma


def cylinder_perimeter(l: float, n: int, boundary_measure_of_c: float | None = None) -> float:
    """Perimeter 2 l^{-1} + l^{1/(n-1)} H^{n-2}(boundary of C) of the cylinder.

    For n = 2 the cross-section C is a unit segment and the boundary measure
    defaults to 2 (its two endpoints).
    """
    if not (l > 0.0 and n >= 2):
        raise BadParameter("need l > 0 and n >= 2")
    if boundary_measure_of_c is None:
        if n != 2:
            raise BadParameter("boundary measure of C required for n >= 3")
        boundary_measure_of_c = 2.0
    if not (boundary_measure_of_c >= 0.0):
        raise BadParameter("need a boundary measure of C >= 0")
    return 2.0 / l + l ** (1.0 / (n - 1.0)) * boundary_measure_of_c


def torsion_p_ball(p: float, radius: float = 1.0, n: int = 2) -> float:
    """Exact T_p of the n-ball from the radial solution.

    u(r) = (p-1)/p n^{-1/(p-1)} (R^q - r^q), q = p/(p-1), so
    T = |S^{n-1}| (p-1)/p n^{-1/(p-1)} R^{q+n} q / (n (q+n)) with the sphere
    area |S^{n-1}| = 2 pi^{n/2} / Gamma(n/2); T = 4 pi / 45 at p = 2, R = 1, n = 3.
    """
    if not (p > 1.0 and radius > 0.0 and n >= 2):
        raise BadParameter("need p > 1, radius > 0 and n >= 2")
    q = q_exponent(p)
    sphere = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    coef = sphere * (p - 1.0) / p * n ** (-1.0 / (p - 1.0))
    return coef * radius ** (q + n) * q / (n * (q + n))


@dataclass(frozen=True)
class RectangleRecord:
    """Exact data for the unit-area rectangle (-1/(2l), 1/(2l)) x (-l/2, l/2)."""

    l: float
    area: float
    perimeter: float
    inradius: float
    width: float
    diameter: float


def rectangle(l: float):
    """Thinning rectangle of unit area, width l; returns (polygon, record)."""
    if not (0.0 < l < 1.0):
        raise BadParameter(f"rectangle parameter l = {l!r} outside (0, 1)")
    a = 1.0 / (2.0 * l)
    b = l / 2.0
    poly = polygon_from_vertices([(-a, -b), (a, -b), (a, b), (-a, b)])
    rec = RectangleRecord(
        l=l,
        area=1.0,
        perimeter=(2.0 / l) * (1.0 + l * l),
        inradius=l / 2.0,
        width=l,
        diameter=math.hypot(2.0 * a, 2.0 * b),
    )
    return poly, rec


@dataclass(frozen=True)
class TriangleRecord:
    """Exact data for the unit-area isosceles triangle of base 2/l, height l."""

    l: float
    base: float
    area: float
    perimeter: float
    inradius: float
    width: float
    diameter: float
    deficit_floor: float  # P R / area = 2 for triangles forces deficit >= 1/6


def isosceles_triangle(l: float):
    """Unit-area isosceles triangle of height l; returns (polygon, record)."""
    if not (0.0 < l < math.inf):
        raise BadParameter(f"triangle parameter l = {l!r} must be finite and positive")
    base = 2.0 / l
    leg = math.hypot(base / 2.0, l)
    perimeter = base + 2.0 * leg
    poly = polygon_from_vertices([(-base / 2.0, 0.0), (base / 2.0, 0.0), (0.0, l)])
    # minimal width of a triangle is its smallest altitude, 2 area / longest side
    width = 2.0 / max(base, leg)
    rec = TriangleRecord(
        l=l,
        base=base,
        area=1.0,
        perimeter=perimeter,
        inradius=2.0 / perimeter,
        width=width,
        diameter=max(base, leg),
        deficit_floor=1.0 / 6.0,
    )
    return poly, rec


@dataclass(frozen=True)
class StadiumRecord:
    """Exact data for the stadium: hull of two radius-r disks at distance a."""

    r: float
    a: float
    area: float
    perimeter: float
    inradius: float
    width: float


def stadium(r: float, a: float, k: int = 256):
    """Polygonal stadium with k arc points per cap; returns (polygon, record)."""
    if not (0.0 < r < math.inf and 0.0 <= a < math.inf):
        raise BadParameter(f"need finite r > 0 and a >= 0, got r = {r!r}, a = {a!r}")
    if k < 64:
        raise BadParameter(f"need at least 64 arc points per cap, got {k}")
    if k > _MAX_POINTS:
        raise BadParameter(f"need at most {_MAX_POINTS} arc points per cap, got {k}")
    up = np.linspace(-np.pi / 2.0, np.pi / 2.0, k)
    down = up[::-1]
    right = np.column_stack((a / 2.0 + r * np.cos(up), r * np.sin(up)))
    left = np.column_stack((-a / 2.0 - r * np.cos(down), r * np.sin(down)))
    poly = polygon_from_vertices(np.vstack([right, left]))
    rec = StadiumRecord(
        r=r, a=a,
        area=math.pi * r * r + 2.0 * r * a,
        perimeter=2.0 * math.pi * r + 2.0 * a,
        inradius=r,
        width=2.0 * r,
    )
    return poly, rec


@dataclass(frozen=True)
class DiskRecord:
    """Exact disk data plus the closed-form p-torsion table."""

    radius: float
    k: int
    area: float
    perimeter: float
    inradius: float
    width: float

    def torsion(self, p: float) -> float:
        return torsion_p_ball(p, self.radius)


def disk(radius: float = 1.0, k: int = 256):
    """Regular k-gon inscribed in the disk; returns (polygon, record)."""
    if not (0.0 < radius < math.inf):
        raise BadParameter(f"need a finite radius > 0, got {radius!r}")
    if k < 64:
        raise BadParameter(f"need at least 64 vertices, got {k}")
    if k > _MAX_POINTS:
        raise BadParameter(f"need at most {_MAX_POINTS} vertices, got {k}")
    thetas = np.linspace(0.0, 2.0 * np.pi, k, endpoint=False)
    pts = radius * np.column_stack((np.cos(thetas), np.sin(thetas)))
    poly = ConvexPolygon(pts)
    rec = DiskRecord(
        radius=radius, k=k,
        area=math.pi * radius * radius,
        perimeter=2.0 * math.pi * radius,
        inradius=radius,
        width=2.0 * radius,
    )
    return poly, rec


def stadium_of_width(l: float, k: int = 256):
    """Unit-area stadium of width l (thinning analogue of the rectangle)."""
    if not (0.0 < l < 2.0 / math.sqrt(math.pi)):
        raise BadParameter(f"stadium width l = {l!r} outside (0, 2/sqrt(pi))")
    r = l / 2.0
    a = (1.0 - math.pi * r * r) / (2.0 * r)
    return stadium(r, a, k)


def _integer(value) -> int:
    """value as an int; a boolean or a number with a fractional part is ill-typed."""
    if isinstance(value, bool) or not float(value).is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _param(desc: dict, key: str, cast=float, default=None):
    """desc[key] converted by cast; BadParameter names a missing or ill-typed key."""
    if key not in desc and default is None:
        raise BadParameter(f"shape descriptor {desc!r} lacks {key!r}")
    value = desc.get(key, default)
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise BadParameter(f"shape descriptor key {key!r} has ill-typed value {value!r}") from None


def from_descriptor(desc: dict):
    """Resolve a shape descriptor into (polygon, record or None).

    Accepts {"vertices": [[x, y], ...]} or {"shape": name, ...parameters} with
    names rectangle, triangle, stadium, disk.
    """
    if not isinstance(desc, dict):
        raise BadParameter("shape descriptor must be a JSON object")
    if "vertices" in desc:
        vertices = _param(desc, "vertices", lambda v: np.asarray(v, dtype=float))
        return polygon_from_vertices(vertices), None
    name = desc.get("shape")
    if name == "rectangle":
        return rectangle(_param(desc, "l"))
    if name == "triangle":
        return isosceles_triangle(_param(desc, "l"))
    if name == "stadium":
        return stadium(_param(desc, "r"), _param(desc, "a"), _param(desc, "k", _integer, 256))
    if name == "disk":
        return disk(_param(desc, "R", float, 1.0), _param(desc, "k", _integer, 256))
    raise BadParameter(f"unknown shape descriptor {desc!r}")
