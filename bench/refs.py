"""Reference values computed apart from webtorsion.

Everything here works from vertex coordinates, shape parameters and closed
forms only; nothing imports the package under test.
"""
from __future__ import annotations

import math

import numpy as np


def q_exponent(p: float) -> float:
    return p / (p - 1.0)


def c_p(p: float) -> float:
    """Thinning-cylinder constant (p - 1) / (2p - 1) of the Polya-type bound."""
    return (p - 1.0) / (2.0 * p - 1.0)


def planar_window(p: float) -> float:
    """Upper end 2^{q+1} / ((q+2)(q+1)) of T P^q / A^{q+1} for planar convex bodies."""
    q = q_exponent(p)
    return 2.0 ** (q + 1.0) / ((q + 2.0) * (q + 1.0))


def polya_floor(area: float, perimeter: float, p: float) -> float:
    """Lower bound c_p A^{q+1} / P^q for T_p with f = 1."""
    q = q_exponent(p)
    return c_p(p) * area ** (q + 1.0) / perimeter**q


def functional_F(T: float, area: float, perimeter: float, p: float) -> float:
    q = q_exponent(p)
    return T * perimeter**q / area ** (q + 1.0)


def K_of_p(p: float) -> float:
    """Theorem 2 constant (p-1) p / (2^q 3 (3p-2) (2p-1)), with K(2) = 1/72."""
    return (p - 1.0) * p / (2.0 ** q_exponent(p) * 3.0 * (3.0 * p - 2.0) * (2.0 * p - 1.0))


def area_perimeter(vertices) -> tuple[float, float]:
    """Shoelace area (counter-clockwise positive) and perimeter of a vertex loop."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return 0.5 * float(np.sum(x * yn - xn * y)), float(np.sum(np.hypot(xn - x, yn - y)))


def width_diameter(vertices) -> tuple[float, float]:
    """Minimal width over edge normals and diameter over all vertex pairs."""
    v = np.asarray(vertices, dtype=float)
    e = np.roll(v, -1, axis=0) - v
    n = np.column_stack((-e[:, 1], e[:, 0])) / np.hypot(e[:, 0], e[:, 1])[:, None]
    proj = v @ n.T
    width = float((proj.max(axis=0) - proj.min(axis=0)).min())
    d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=2)
    return width, float(math.sqrt(d2.max()))


def edge_distances(vertices, point) -> np.ndarray:
    """Signed distance from a point to every edge line, positive inside a CCW loop."""
    v = np.asarray(vertices, dtype=float)
    e = np.roll(v, -1, axis=0) - v
    cross = e[:, 0] * (point[1] - v[:, 1]) - e[:, 1] * (point[0] - v[:, 0])
    return cross / np.hypot(e[:, 0], e[:, 1])


def rectangle_torsion(a: float, b: float, terms: int = 200) -> float:
    """T_2 of an a x b rectangle (-Laplace u = 1) from the classical tanh series.

    T = (a_ b_^3 / 12) (1 - 192 b_ / (pi^5 a_) sum_{n odd} tanh(n pi a_ / (2 b_)) / n^5)
    with a_ >= b_; the tail after 200 odd terms is below 1e-13 relative.
    """
    long_, short = max(a, b), min(a, b)
    s = math.fsum(
        math.tanh(n * math.pi * long_ / (2.0 * short)) / n**5 for n in range(1, 2 * terms, 2)
    )
    return long_ * short**3 / 12.0 * (1.0 - 192.0 * short / (math.pi**5 * long_) * s)


def disk_torsion(p: float, radius: float) -> float:
    """T_p of the disk of the given radius from the radial solution.

    u(r) = (p-1)/p 2^{-1/(p-1)} (R^q - r^q) integrates to
    2 pi (p-1)/p 2^{-1/(p-1)} R^{q+2} q / (2 (q+2)); at p = 2 this is pi R^4 / 8.
    """
    q = q_exponent(p)
    amp = (p - 1.0) / p * 2.0 ** (-1.0 / (p - 1.0))
    return 2.0 * math.pi * amp * radius ** (q + 2.0) * q / (2.0 * (q + 2.0))


class RegularPolygon:
    """Closed forms for the regular k-gon of circumradius rho.

    Its inner parallel body at depth t is the homothetic copy scaled by
    1 - t/a about the center, a the apothem, so P(t) = P0 (1 - t/a) and
    mu(t) = mu0 (1 - t/a)^2.
    """

    def __init__(self, k: int, rho: float = 1.0):
        self.k = k
        self.apothem = rho * math.cos(math.pi / k)
        self.P0 = 2.0 * k * rho * math.sin(math.pi / k)
        self.mu0 = 0.5 * self.P0 * self.apothem

    def perimeter(self, t):
        return self.P0 * (1.0 - np.asarray(t) / self.apothem)

    def area(self, t):
        return self.mu0 * (1.0 - np.asarray(t) / self.apothem) ** 2

    def web_integral_const(self, p: float) -> float:
        """Integral over [0, a] of mu^q / P^{1/(p-1)} for f = 1.

        The integrand is mu0^q P0^{-1/(p-1)} (1 - t/a)^{q+1}, so the integral
        is mu0^q P0^{-1/(p-1)} a / (q + 2).
        """
        q = q_exponent(p)
        return self.mu0**q * self.P0 ** (-1.0 / (p - 1.0)) * self.apothem / (q + 2.0)

    def mu_f_total(self, kind: str, param: float) -> float:
        """Integral over [0, a] of f(s) P(s) ds for f = 1, max(1 - beta s, 0) or exp(-lambda s)."""
        a, P0 = self.apothem, self.P0
        if kind == "const":
            return self.mu0
        if kind == "linear":
            top = min(a, 1.0 / param)
            # integral of (1 - beta s)(1 - s/a) from 0 to top
            return P0 * (
                top - (param + 1.0 / a) * top**2 / 2.0 + param / a * top**3 / 3.0
            )
        if kind == "exp":
            lam = param
            e = math.exp(-lam * a)
            return P0 * ((1.0 - e) / lam - (1.0 - e * (1.0 + lam * a)) / (lam * lam * a))
        raise ValueError(f"unknown weight kind {kind!r}")
