"""Desk-scale P1 finite element solver for -div(|grad u|^{p-2} grad u) = f(d).

The torsion energy J(u) = (1/p) int |grad u|^p - int f u is minimized over
piecewise-linear fields vanishing on the boundary. A mesh lists its
n_boundary boundary nodes first, so the free (interior) nodes are the slice
nodes[n_boundary:] and every field is solved for on that slice. At p = 2 the
linear system is solved directly; otherwise a preconditioned nonlinear
conjugate gradient iteration with Armijo line search is used, warm-started
from the scaled linear solution. One kernel, _dirichlet, gives the slopes
and sum area |grad u|^p for the iteration, its warm start and
rayleigh_check. A mesh builds its gradient operator, stiffness matrix and LU
once, on first use; every solve on it, for any p and weight, shares them.
richardson_T keeps the meshes of its last ladder, so successive calls on the
same polygon share them too.
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
from .geometry import ConvexPolygon, metrics
from .parallel import WeightProfile

# supported exponent range of the solver and of the CLI's --p options
P_MIN, P_MAX = 1.1, 10.0
# candidate points (boundary plus the lattice rows across the polygon) per mesh
_MAX_NODES = 2_000_000
_MAX_ITERS = 100_000
# Armijo trial steps per line search, halving from the first
_MAX_TRIAL_STEPS = 60
# gradient regularization scale, relative to the body diameter
_EPS_REG = 1e-10

# richardson_T's last ladder: its polygon and {h: Mesh} for that call's h values
_ladder_polygon = None
_ladder_meshes = {}


@dataclass(frozen=True)
class Mesh:
    """Immutable triangle mesh of a convex polygon and its P1 operators.

    The first n_boundary nodes lie on the boundary; the rest are the free
    nodes. The areas, the gradient operator and the factorized stiffness
    matrix are built on first use and cached, so every (weight, p) solve
    shares them.
    """

    polygon: ConvexPolygon
    nodes: np.ndarray
    triangles: np.ndarray
    n_boundary: int
    h: float

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.triangles.setflags(write=False)

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
    def _gradient(self) -> sp.csr_matrix:
        """G with (G x)[t] and (G x)[m + t] the x- and y-slopes in triangle t
        of the P1 field that is x on the free nodes and 0 on the boundary."""
        v = self.nodes[self.triangles]
        x, y = v[:, :, 0], v[:, :, 1]
        area2 = 2.0 * self.triangle_areas[:, None]
        gx = (y[:, [1, 2, 0]] - y[:, [2, 0, 1]]) / area2
        gy = (x[:, [2, 0, 1]] - x[:, [1, 2, 0]]) / area2
        cols = self.triangles.ravel() - self.n_boundary
        keep = cols >= 0
        m = len(self.triangles)
        rows = np.repeat(np.arange(m), 3)[keep]
        return sp.csr_matrix(
            (np.concatenate([gx.ravel()[keep], gy.ravel()[keep]]),
             (np.concatenate([rows, rows + m]), np.tile(cols[keep], 2))),
            shape=(2 * m, self.node_count - self.n_boundary),
        )

    @cached_property
    def _stiffness_lu(self):
        """K_ff = G^T diag(area, area) G and its sparse LU, one per mesh.

        K_ff is symmetric positive definite, so the LU needs no pivoting and
        a minimum-degree ordering of K + K^T keeps its fill low.
        """
        G = self._gradient
        K = (G.T @ sp.diags(np.tile(self.triangle_areas, 2)) @ G).tocsc()
        return K, splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})


def triangulate(polygon: ConvexPolygon, h: float) -> Mesh:
    """Delaunay mesh with target edge length h, boundary nodes first.

    Each polygon edge is subdivided at spacing <= 0.9 h; these points are
    the mesh's first n_boundary nodes. The points of an interior hexagonal
    lattice at spacing 0.8 h are kept where they lie at least 0.4 h inside.
    The Delaunay triangulation of a convex point set tiles the polygon
    exactly, and one neighbor-averaging sweep of the interior nodes, keeping
    that triangulation's connectivity, improves angles; a move is kept only
    while the node stays at least 0.32 h inside. Interior angles stay clear
    of 180 degrees (the quantity that governs P1 accuracy); corners sharper
    than the target minimum angle necessarily appear in any mesh of such a
    body.

    The node budget is checked before the lattice is built: TooFine is
    raised when the boundary points plus the lattice points of each row that
    fall within the polygon's x-extent at that row (the candidates) exceed
    _MAX_NODES. It bounds candidates, not kept nodes; the two differ by the
    candidates within 0.4 h of the boundary.
    """
    body = metrics(polygon)
    if not (0.0 < h < body.inradius):
        raise ValueError(f"target edge length h = {h!r} must lie in (0, inradius)")
    v = polygon.vertices
    edges = np.roll(v, -1, axis=0) - v
    spacing = 0.8 * h
    clearance = 0.5 * spacing
    lo = v.min(axis=0) + clearance
    hi = v.max(axis=0) - clearance + 1e-15
    x0 = np.array([lo[0], lo[0] + 0.5 * spacing])  # rows alternate between two offsets
    with np.errstate(all="ignore"):  # a tiny h gives inf counts, rejected below
        n_seg = np.maximum(1.0, np.ceil(np.hypot(edges[:, 0], edges[:, 1]) / (0.9 * h)))
        row_len = np.maximum(0.0, np.ceil((hi[0] - x0) / spacing))
    candidates = n_seg.sum()
    # the perimeter is at least twice the height, so this check bounds the rows
    if candidates <= _MAX_NODES:
        ys = np.arange(lo[1], hi[1], spacing * math.sqrt(3.0) / 2.0)
        # [xl, xr] is the polygon at height y; a kept lattice point lies at
        # least 0.4 h inside it, so one more index on each side loses none
        xl, xr = np.full(len(ys), -np.inf), np.full(len(ys), np.inf)
        for (nx, ny), b in zip(polygon.edge_normals, polygon.edge_offsets):
            if nx > 0.0:
                np.maximum(xl, (b - ny * ys) / nx, out=xl)
            elif nx < 0.0:
                np.minimum(xr, (b - ny * ys) / nx, out=xr)
        parity = np.arange(len(ys)) % 2
        start, n_row = x0[parity], row_len[parity]
        first = np.clip(np.floor((xl - start) / spacing), 0.0, n_row)
        stop = np.clip(np.ceil((xr - start) / spacing) + 1.0, first, n_row)
        candidates += np.sum(stop - first)
    if not (candidates <= _MAX_NODES):
        raise TooFine(f"{candidates:.0f} candidate points exceed the {_MAX_NODES} budget")

    n_seg = n_seg.astype(int)
    edge = np.repeat(np.arange(len(v)), n_seg)
    j = np.arange(len(edge)) - np.repeat(np.cumsum(n_seg) - n_seg, n_seg)
    boundary_pts = v[edge] + edges[edge] * (j / n_seg[edge])[:, None]
    xs = [np.arange(x, hi[0], spacing) for x in x0]
    first, stop = first.astype(int), stop.astype(int)
    row_x = [xs[r % 2][first[r]:stop[r]] for r in range(len(ys))]
    lattice = np.column_stack((np.concatenate(row_x), np.repeat(ys, stop - first)))
    n_bnd = len(boundary_pts)
    pts = np.vstack([boundary_pts, lattice[polygon.signed_distance(lattice) >= clearance]])

    simplices = Delaunay(pts).simplices

    # one averaging sweep on interior nodes; the connectivity stays
    neigh_sum = np.zeros_like(pts)
    neigh_cnt = np.zeros(len(pts))
    for a, b in ((0, 1), (1, 2), (2, 0)):
        np.add.at(neigh_sum, simplices[:, a], pts[simplices[:, b]])
        np.add.at(neigh_cnt, simplices[:, a], 1.0)
        np.add.at(neigh_sum, simplices[:, b], pts[simplices[:, a]])
        np.add.at(neigh_cnt, simplices[:, b], 1.0)
    cand = neigh_sum[n_bnd:] / np.maximum(neigh_cnt[n_bnd:], 1.0)[:, None]
    ok = polygon.signed_distance(cand) >= 0.8 * clearance
    pts[n_bnd:][ok] = cand[ok]

    # orient, then drop slivers of essentially zero area (collinear boundary runs)
    p0, p1, p2 = pts[simplices[:, 0]], pts[simplices[:, 1]], pts[simplices[:, 2]]
    cross = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p1[:, 1] - p0[:, 1]) * (
        p2[:, 0] - p0[:, 0]
    )
    flip = cross < 0.0
    simplices[flip] = simplices[flip][:, [0, 2, 1]]
    scale2 = h * h
    simplices = simplices[np.abs(cross) > 1e-12 * scale2]

    mesh = Mesh(
        polygon=polygon, nodes=pts,
        triangles=np.ascontiguousarray(simplices, dtype=np.int32),
        n_boundary=n_bnd, h=h,
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


def _load_vector(mesh: Mesh, weight: WeightProfile) -> np.ndarray:
    """Loads on the free nodes: f at each centroid, a third of the triangle's
    share to each of its nodes."""
    cent = mesh.nodes[mesh.triangles].mean(axis=1)
    contrib = mesh.triangle_areas * weight(mesh.polygon.signed_distance(cent)) / 3.0
    F = np.zeros(mesh.node_count)
    for i in range(3):
        np.add.at(F, mesh.triangles[:, i], contrib)
    return F[mesh.n_boundary:]


def _dirichlet(mesh: Mesh, x: np.ndarray, p: float, eps2: float = 0.0):
    """G x, s = |grad|^2 + eps2 per triangle, and sum of area * s^(p/2), for
    the field that is x on the free nodes and 0 on the boundary."""
    g = mesh._gradient @ x
    m = len(mesh.triangles)
    s = g[:m] ** 2 + g[m:] ** 2 + eps2
    return g, s, float(np.sum(mesh.triangle_areas * s ** (p / 2.0)))


def _ncg(mesh: Mesh, F: np.ndarray, p: float, tol: float, x: np.ndarray):
    """Preconditioned nonlinear CG from the linear solution x: returns the
    minimizer on the free nodes, its energy, gradient and iteration count."""
    G, area = mesh._gradient, mesh.triangle_areas
    lu = mesh._stiffness_lu[1]
    eps2 = (_EPS_REG * metrics(mesh.polygon).diameter) ** 2

    def energy_grad(x):
        g, s, a = _dirichlet(mesh, x, p, eps2)
        w = np.tile(area * s ** ((p - 2.0) / 2.0), 2)
        return G.T @ (w * g) - F, a / p - float(F @ x)

    # warm start: scale the linear solution to its own optimal amplitude
    a_p = _dirichlet(mesh, x, p)[2]
    b_lin = float(F @ x)
    x = x * (b_lin / a_p) ** (1.0 / (p - 1.0)) if a_p > 0 else x

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
            trial = x + step * d
            if _dirichlet(mesh, trial, p, eps2)[2] / p - float(F @ trial) <= J + 1e-4 * step * gd:
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
            return x, J, g, n_iter
    raise NoConvergence(f"energy minimization did not settle in {_MAX_ITERS} iterations")


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
    tol must be finite and positive. Raises NoConvergence when the line
    search or the iteration cap runs out.
    """
    if not (P_MIN <= p <= P_MAX):
        raise BadExponent(f"p = {p!r} outside the supported range [{P_MIN:g}, {P_MAX:g}]")
    if not (0.0 < tol < math.inf):
        raise ValueError(f"tol = {tol!r} must be finite and positive")
    F = _load_vector(mesh, weight)
    u = np.zeros(mesh.node_count)
    if len(F) == 0:
        return TorsionResult(mesh, u, p, weight, 0.0, 0.0, 0, 0.0)

    K, lu = mesh._stiffness_lu
    x = lu.solve(F)
    if p == 2.0:
        Kx = K @ x
        J, residual, iterations = 0.5 * float(x @ Kx) - float(F @ x), Kx - F, 1
    else:
        x, J, residual, iterations = _ncg(mesh, F, p, tol, x)
    u[mesh.n_boundary:] = x
    return TorsionResult(mesh, u, p, weight, J, float(F @ x), iterations,
                         float(np.linalg.norm(residual)))


def rayleigh_check(result: TorsionResult) -> float:
    """Rayleigh-type quotient of the discrete solution.

    (int f u)^{p/(p-1)} / (int |grad u|^p)^{1/(p-1)}; at the discrete
    optimum this equals the computed torsion up to solver tolerance, and for
    any field it is a valid lower bound for the true torsion. The field is
    read on the free nodes: it vanishes on the boundary. The weight and p are
    the result's own.
    """
    mesh, p = result.mesh, result.p
    x = result.u[mesh.n_boundary:]
    num = float(_load_vector(mesh, result.weight) @ x)
    dirichlet = _dirichlet(mesh, x, p)[2]
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
    torsions: tuple


def _ladder(polygon: ConvexPolygon, hs) -> list:
    """The meshes of polygon at hs, reusing those of the last ladder.

    Only one ladder stays alive: the last ladder's meshes that this call does
    not share (all of them, on another polygon object) are dropped before
    anything is built.
    """
    global _ladder_polygon, _ladder_meshes
    if polygon is not _ladder_polygon:
        _ladder_polygon, _ladder_meshes = polygon, {}
    _ladder_meshes = {h: _ladder_meshes[h] for h in hs if h in _ladder_meshes}
    for h in hs:
        if h not in _ladder_meshes:
            _ladder_meshes[h] = triangulate(polygon, h)
    return [_ladder_meshes[h] for h in hs]


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
    Meshes (and their LUs) of the previous call on the same polygon object
    are reused at every h the two ladders share.
    """
    hs = [float(h) for h in h_list]
    if len(hs) < 3:
        raise ValueError("need at least 3 mesh sizes")
    for a, b in zip(hs, hs[1:]):
        if not (a > b):
            raise ValueError("mesh sizes must decrease")
        if abs(a / b - 2.0) > 0.02:
            raise ValueError("mesh sizes must halve at each step")
    # finest first: on a new ladder the largest LU is factorized while no
    # other LU of the ladder is alive, which lowers the peak memory
    meshes = _ladder(polygon, hs)[::-1]
    Ts = [solve_torsion(mesh, weight, p, tol).torsion for mesh in meshes][::-1]
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
        torsions=tuple(Ts),
    )
