"""Desk-scale P1 finite element solver for -div(|grad u|^{p-2} grad u) = f(d).

The torsion energy J(u) = (1/p) int |grad u|^p - int f u is minimized over
piecewise-linear fields vanishing on the boundary. At p = 2 the linear system
is solved directly; otherwise a preconditioned nonlinear conjugate gradient
iteration with Armijo line search is used, warm-started from the scaled
linear solution. A mesh builds its gradient operator, stiffness matrix and LU
once, on first use; every solve on it, for any p and weight, shares them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from scipy.spatial import Delaunay

from .errors import BadExponent, NoConvergence, NonMonotoneConvergence, TooFine
from .geometry import BodyMetrics, ConvexPolygon, metrics
from .parallel import WeightProfile

# supported exponent range of the solver and of the CLI's --p options
P_MIN, P_MAX = 1.1, 10.0
_MAX_NODES = 2_000_000
_MAX_ITERS = 100_000
# Armijo trial steps per line search, halving from the first
_MAX_TRIAL_STEPS = 60
# gradient regularization scale, relative to the body diameter
_EPS_REG = 1e-10


@dataclass(frozen=True)
class Mesh:
    """Immutable triangle mesh of a convex polygon and its P1 operators.

    The areas, the gradient operator and the factorized stiffness matrix are
    built on first use and cached, so every (weight, p) solve shares them.
    """

    polygon: ConvexPolygon
    body: BodyMetrics
    nodes: np.ndarray
    triangles: np.ndarray
    is_boundary: np.ndarray
    h: float

    def __post_init__(self):
        for name in ("nodes", "triangles", "is_boundary"):
            arr = getattr(self, name)
            arr.setflags(write=False)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @cached_property
    def triangle_areas(self) -> np.ndarray:
        v = self.nodes[self.triangles]
        e1, e2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
        area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        area.setflags(write=False)  # shared by every solve on the mesh
        return area

    @cached_property
    def _free(self) -> np.ndarray:
        return np.flatnonzero(~self.is_boundary)

    @cached_property
    def _gradient(self) -> sp.csr_matrix:
        """G with (G x)[t] and (G x)[m + t] the x- and y-slopes in triangle t
        of the P1 field that is x on the free nodes and 0 on the boundary."""
        v = self.nodes[self.triangles]
        x, y = v[:, :, 0], v[:, :, 1]
        area2 = 2.0 * self.triangle_areas[:, None]
        gx = (y[:, [1, 2, 0]] - y[:, [2, 0, 1]]) / area2
        gy = (x[:, [2, 0, 1]] - x[:, [1, 2, 0]]) / area2
        col = np.full(self.node_count, -1)
        col[self._free] = np.arange(len(self._free))
        cols = col[self.triangles].ravel()
        keep = cols >= 0
        m = len(self.triangles)
        rows = np.repeat(np.arange(m), 3)[keep]
        return sp.csr_matrix(
            (np.concatenate([gx.ravel()[keep], gy.ravel()[keep]]),
             (np.concatenate([rows, rows + m]), np.tile(cols[keep], 2))),
            shape=(2 * m, len(self._free)),
        )

    @cached_property
    def _stiffness_lu(self):
        """K_ff = G^T diag(area, area) G and its sparse LU, one per mesh."""
        G = self._gradient
        K = (G.T @ sp.diags(np.tile(self.triangle_areas, 2)) @ G).tocsc()
        return K, splu(K)

    def _angle_range(self):
        v = self.nodes[self.triangles]
        lo, hi = math.inf, 0.0
        for i in range(3):
            a = v[:, (i + 1) % 3] - v[:, i]
            b = v[:, (i + 2) % 3] - v[:, i]
            cosang = np.einsum("ij,ij->i", a, b) / (
                np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
            )
            ang = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
            lo = min(lo, float(ang.min()))
            hi = max(hi, float(ang.max()))
        return lo, hi

    def min_angle_degrees(self) -> float:
        return self._angle_range()[0]

    def max_angle_degrees(self) -> float:
        """P1 interpolation quality rests on this staying away from 180."""
        return self._angle_range()[1]

    def max_edge(self) -> float:
        v = self.nodes[self.triangles]
        best = 0.0
        for i in range(3):
            e = v[:, (i + 1) % 3] - v[:, i]
            best = max(best, float(np.linalg.norm(e, axis=1).max()))
        return best


def triangulate(polygon: ConvexPolygon, h: float) -> Mesh:
    """Delaunay mesh with target edge length h.

    Each polygon edge is subdivided at spacing <= 0.9 h and an interior
    hexagonal lattice at spacing 0.8 h is added, offset from the boundary;
    the Delaunay triangulation of a convex point set tiles the polygon
    exactly, and one neighbor-averaging sweep of the interior nodes, keeping
    that triangulation's connectivity, improves angles. Interior
    angles stay clear of 180 degrees (the quantity that governs P1
    accuracy); corners sharper than the target minimum angle necessarily
    appear in any mesh of such a body.
    """
    body = metrics(polygon)
    if not (0.0 < h < body.inradius):
        raise ValueError(f"target edge length h = {h!r} must lie in (0, inradius)")
    v = polygon.vertices
    k = len(v)
    boundary_pts = []
    for i in range(k):
        a, b = v[i], v[(i + 1) % k]
        n_seg = max(1, int(math.ceil(float(np.hypot(*(b - a))) / (0.9 * h))))
        for j in range(n_seg):
            boundary_pts.append(a + (b - a) * (j / n_seg))
    boundary_pts = np.asarray(boundary_pts)

    spacing = 0.8 * h
    clearance = 0.5 * spacing
    lo = v.min(axis=0)
    hi = v.max(axis=0)
    dy = spacing * math.sqrt(3.0) / 2.0
    ys = np.arange(lo[1] + clearance, hi[1] - clearance + 1e-15, dy)
    rows = []
    for r, yv in enumerate(ys):
        x0 = lo[0] + clearance + (0.5 * spacing if r % 2 else 0.0)
        xs = np.arange(x0, hi[0] - clearance + 1e-15, spacing)
        if len(xs):
            rows.append(np.column_stack((xs, np.full(len(xs), yv))))
    if rows:
        lattice = np.vstack(rows)
        keep = polygon.signed_distance(lattice) >= clearance
        interior_pts = lattice[keep]
    else:
        interior_pts = np.empty((0, 2))

    n_bnd = len(boundary_pts)
    pts = np.vstack([boundary_pts, interior_pts]) if len(interior_pts) else boundary_pts
    if len(pts) > _MAX_NODES:
        raise TooFine(f"{len(pts)} nodes exceed the {_MAX_NODES} budget")

    simplices = Delaunay(pts).simplices

    if len(interior_pts):
        # one averaging sweep on interior nodes; the connectivity stays
        neigh_sum = np.zeros_like(pts)
        neigh_cnt = np.zeros(len(pts))
        for a, b in ((0, 1), (1, 2), (2, 0)):
            np.add.at(neigh_sum, simplices[:, a], pts[simplices[:, b]])
            np.add.at(neigh_cnt, simplices[:, a], 1.0)
            np.add.at(neigh_sum, simplices[:, b], pts[simplices[:, a]])
            np.add.at(neigh_cnt, simplices[:, b], 1.0)
        smoothed = neigh_sum / np.maximum(neigh_cnt, 1.0)[:, None]
        moved = pts.copy()
        interior_idx = np.arange(n_bnd, len(pts))
        cand = smoothed[interior_idx]
        ok = polygon.signed_distance(cand) >= 0.8 * clearance
        moved[interior_idx[ok]] = cand[ok]
        pts = moved

    # orient, then drop slivers of essentially zero area (collinear boundary runs)
    p0, p1, p2 = pts[simplices[:, 0]], pts[simplices[:, 1]], pts[simplices[:, 2]]
    cross = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p1[:, 1] - p0[:, 1]) * (
        p2[:, 0] - p0[:, 0]
    )
    flip = cross < 0.0
    simplices[flip] = simplices[flip][:, [0, 2, 1]]
    scale2 = h * h
    simplices = simplices[np.abs(cross) > 1e-12 * scale2]

    is_boundary = np.zeros(len(pts), dtype=bool)
    is_boundary[:n_bnd] = True
    mesh = Mesh(
        polygon=polygon, body=body, nodes=pts,
        triangles=np.ascontiguousarray(simplices, dtype=np.int32),
        is_boundary=is_boundary, h=h,
    )
    if abs(float(np.sum(mesh.triangle_areas)) - body.area) > 1e-9 * body.area:
        raise TooFine("triangulation does not tile the polygon")  # pragma: no cover
    return mesh


@dataclass(frozen=True)
class TorsionResult:
    """Converged discrete solution and its derived quantities."""

    mesh: Mesh
    u: np.ndarray
    p: float
    weight: WeightProfile
    energy: float
    torsion: float
    iterations: int
    grad_norm: float

    def __post_init__(self):
        self.u.setflags(write=False)

    @property
    def min_interior(self) -> float:
        return float(self.u.min())


def _load_vector(mesh: Mesh, weight: WeightProfile) -> np.ndarray:
    cent = mesh.nodes[mesh.triangles].mean(axis=1)
    fvals = np.asarray(weight(mesh.polygon.signed_distance(cent)))
    fvals = np.maximum(fvals, 0.0)
    contrib = mesh.triangle_areas * fvals / 3.0
    F = np.zeros(mesh.node_count)
    for i in range(3):
        np.add.at(F, mesh.triangles[:, i], contrib)
    return F


def _slopes(mesh: Mesh, x: np.ndarray):
    """G x and |grad|^2 per triangle of the field x on the free nodes."""
    g = mesh._gradient @ x
    m = len(mesh.triangles)
    return g, g[:m] ** 2 + g[m:] ** 2


def _p_dirichlet(mesh: Mesh, s: np.ndarray, p: float) -> float:
    """sum over triangles of area * s^(p/2)."""
    return float(np.sum(mesh.triangle_areas * s ** (p / 2.0)))


def solve_torsion(
    mesh: Mesh,
    weight: WeightProfile,
    p: float,
    tol: float = 1e-10,
) -> TorsionResult:
    """Minimize the torsion energy over P1 fields vanishing on the boundary.

    For p = 2 the Galerkin system is solved by a sparse direct factorization;
    otherwise preconditioned nonlinear conjugate gradients run until the
    relative energy decrease stays below tol over 10 successive iterations.
    Raises NoConvergence when the line search or the iteration cap runs out.
    """
    if not (P_MIN <= p <= P_MAX):
        raise BadExponent(f"p = {p!r} outside the supported range [{P_MIN:g}, {P_MAX:g}]")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    idx = mesh._free
    F = _load_vector(mesh, weight)
    F_f = F[idx]

    u = np.zeros(mesh.node_count)
    if len(idx) == 0:
        return TorsionResult(mesh, u, p, weight, 0.0, 0.0, 0, 0.0)

    K_ff, lu = mesh._stiffness_lu
    u2 = lu.solve(F_f)
    if p == 2.0:
        u[idx] = u2
        T = float(F @ u)
        J = 0.5 * float(u2 @ (K_ff @ u2)) - T
        res = float(np.linalg.norm(K_ff @ u2 - F_f))
        return TorsionResult(mesh, u, p, weight, J, T, 1, res)

    G = mesh._gradient
    area = mesh.triangle_areas
    eps2 = (_EPS_REG * mesh.body.diameter) ** 2

    def energy(x):
        return _p_dirichlet(mesh, _slopes(mesh, x)[1] + eps2, p) / p - float(F_f @ x)

    def energy_grad(x):
        g, s = _slopes(mesh, x)
        s += eps2
        w = np.tile(area * s ** ((p - 2.0) / 2.0), 2)
        return G.T @ (w * g) - F_f, _p_dirichlet(mesh, s, p) / p - float(F_f @ x)

    # warm start: scale the linear solution to its own optimal amplitude
    a_p = _p_dirichlet(mesh, _slopes(mesh, u2)[1], p)
    b_lin = float(F_f @ u2)
    x = u2 * (b_lin / a_p) ** (1.0 / (p - 1.0)) if a_p > 0 else u2

    g, J = energy_grad(x)
    z = lu.solve(g)
    d = -z
    gz = float(g @ z)
    step = 1.0
    history = [J]
    for n_iter in range(1, _MAX_ITERS + 1):
        gd = float(g @ d)
        if gd >= 0.0:
            d = -z
            gd = -gz
        step = max(step * 2.0, 1e-12)
        for _ in range(_MAX_TRIAL_STEPS):
            if energy(x + step * d) <= J + 1e-4 * step * gd:
                break
            step *= 0.5
        else:
            raise NoConvergence(
                f"line search found no decrease in {_MAX_TRIAL_STEPS} steps at iteration {n_iter}"
            )
        x = x + step * d
        g_new, J_new = energy_grad(x)
        z_new = lu.solve(g_new)
        gz_new = float(g_new @ z_new)
        beta = max(0.0, float(g_new @ (z_new - z)) / gz) if gz > 0 else 0.0
        d = -z_new + beta * d
        g, z, gz, J = g_new, z_new, gz_new, J_new
        history.append(J)
        if len(history) > 10 and history[-11] - history[-1] < tol * abs(history[-1]):
            break
    else:
        raise NoConvergence(f"energy minimization did not settle in {_MAX_ITERS} iterations")

    u[idx] = x
    T = float(F @ u)
    return TorsionResult(mesh, u, p, weight, J, T, n_iter, float(np.linalg.norm(g)))


def rayleigh_check(result: TorsionResult, weight: WeightProfile, p: float) -> float:
    """Rayleigh-type quotient of the discrete solution.

    (int f u)^{p/(p-1)} / (int |grad u|^p)^{1/(p-1)}; at the discrete
    optimum this equals the computed torsion up to solver tolerance, and for
    any field it is a valid lower bound for the true torsion. The field is
    read on the free nodes: it vanishes on the boundary.
    """
    mesh = result.mesh
    x = result.u[mesh._free]
    num = float(_load_vector(mesh, weight)[mesh._free] @ x)
    dirichlet = _p_dirichlet(mesh, _slopes(mesh, x)[1], p)
    if dirichlet <= 0.0:
        return 0.0
    q = p / (p - 1.0)
    return num**q / dirichlet ** (1.0 / (p - 1.0))


@dataclass(frozen=True)
class RichardsonResult:
    """Extrapolated torsion with an error estimate from a refinement study."""

    torsion: float
    error: float
    observed_order: float
    h_values: tuple
    torsions: tuple


def richardson_T(
    polygon: ConvexPolygon,
    weight: WeightProfile,
    p: float,
    h_list,
    tol: float = 1e-10,
) -> RichardsonResult:
    """Solve on a ratio-2 ladder of meshes and extrapolate the torsion.

    Assumes second-order convergence at p = 2 and fits the observed order
    otherwise; the error estimate is the last increment |T_h - T_{h/2}|.
    """
    hs = [float(h) for h in h_list]
    if len(hs) < 3:
        raise ValueError("need at least 3 mesh sizes")
    for a, b in zip(hs, hs[1:]):
        if not (a > b):
            raise ValueError("mesh sizes must decrease")
        if abs(a / b - 2.0) > 0.02:
            raise ValueError("mesh sizes must halve at each step")
    # each mesh, with its LU, is freed before the next one is built
    Ts = [solve_torsion(triangulate(polygon, h), weight, p, tol).torsion for h in hs]
    diffs = [b - a for a, b in zip(Ts, Ts[1:])]
    d_prev, d_last = diffs[-2], diffs[-1]
    err = abs(d_last)
    floor = 1e-12 * abs(Ts[-1])
    if abs(d_last) > max(abs(d_prev), floor) or (
        d_last * d_prev < 0 and abs(d_last) > floor
    ):
        raise NonMonotoneConvergence(
            f"increments {d_prev:.3e} then {d_last:.3e} do not contract"
        )
    if abs(d_last) <= floor or abs(d_prev) <= floor:
        order = 2.0
        extr = Ts[-1]
    else:
        # least-squares slope of log2 |increments| against the level index;
        # with only two increments this is their plain log ratio
        logs = [math.log2(abs(d)) for d in diffs if abs(d) > floor]
        n = len(logs)
        xbar = (n - 1) / 2.0
        ybar = sum(logs) / n
        order = -sum((i - xbar) * (y - ybar) for i, y in enumerate(logs)) / sum(
            (i - xbar) ** 2 for i in range(n)
        )
        rate = 2.0**2 if p == 2.0 else 2.0**order
        extr = Ts[-1] + d_last / (rate - 1.0)
    return RichardsonResult(
        torsion=float(extr), error=float(err), observed_order=float(order),
        h_values=tuple(hs), torsions=tuple(Ts),
    )
