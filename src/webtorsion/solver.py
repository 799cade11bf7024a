"""Desk-scale P1 finite element solver for -div(|grad u|^{p-2} grad u) = f(d).

The torsion energy J(u) = (1/p) int |grad u|^p - int f u is minimized over
piecewise-linear fields vanishing on the boundary. A mesh lists its
n_boundary boundary nodes first, so the free (interior) nodes are the slice
nodes[n_boundary:] and every field is solved for on that slice. A mesh
keeps its nodes in the order it builds them. At p = 2 the linear system is
solved by the mesh's sparse LU, or, on a refined
mesh with more than _MG_MIN_FREE free nodes, by conjugate gradients
preconditioned with one multigrid V-cycle over the mesh's ancestors
(_solve_p2). Otherwise a preconditioned nonlinear
conjugate gradient iteration is used, warm-started from the scaled linear
solution. The iteration carries the slopes G x and the load term F . x of
its iterate. Its line search is a safeguarded Newton search on the convex
phi(a) = J(x + a d): with G d and F . d formed once per search direction, a
trial at step a has slopes G x + a G d and load term F . x + a F . d, and
phi'(a) and phi''(a) follow from those slopes per triangle, so a trial needs
no sparse product. The first trial is the Newton step from a = 0, read from
the iterate's own slopes. A trial is accepted when |phi'(a)| <= 0.1 |phi'(0)|
and the energy meets the Armijo test; otherwise the search keeps a bracket
[lo, hi] with phi'(lo) < 0 < phi'(hi), takes Newton steps inside it that move
less than half as far as the last trial, and bisects (or doubles while hi is
unbounded) otherwise. When the bracket shrinks to 1e-6 of hi it accepts lo, a
descent step by convexity. The accepted trial's slopes and energy become the
new iterate's. So an iteration makes one product G d, one product G^T (w G x)
for the gradient and one LU solve. When the energy stop fires, G x and
F . x are recomputed from the iterate and the stop must hold for the
recomputed energy too, so a result's energy and gradient are those of its
field. One kernel, _dirichlet, turns slopes into |grad u|^2 per triangle
and sum area |grad u|^p for the iteration and its warm start. A mesh builds
its gradient operator, stiffness matrix, LU and smoother once, on first
use, and the transpose of the gradient operator on its first nonlinear
solve; every solve on it, for any p and weight, shares them.

A solve reports one torsion value: the Rayleigh quotient of its own field,
T = (F . x)^{p/(p-1)} / D^{1/(p-1)} with D the Dirichlet sum, which is the
product x . K_ff x the p = 2 solve forms anyway, or the sum the nonlinear
iteration recomputes when it stops. The quotient is stationary at the
discrete minimizer, so its error is second order in the field's. The loads
put f at the centroids, which is exact for a constant weight: then every P1
field is admissible for the continuous problem and T is a guaranteed lower
bound for the polygon's torsion, up to roundoff. For other weights it is a
quadrature estimate of one.

richardson_T builds nested ladders: it triangulates its coarsest h only,
and each finer level splits every triangle of the one before into four
(_refined). The P1 spaces are then nested, and each refined mesh holds its
parent and the prolongation between them, which the V-cycle uses. It keeps
its last ladder (_ladder), and a call on the same polygon object from the
same coarsest h shares its meshes; any other call builds afresh, so a
result depends only on the call's arguments.

triangulate places boundary subdivision points and an interior hexagonal
lattice. The lattice triangles whose three points were kept lie deep enough
inside to be Delaunay triangles in closed form, so its one qhull Delaunay
call triangulates only the strip of points along the boundary that they do
not cover.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, cg, splu
from scipy.spatial import Delaunay

from .errors import BadExponent, NoConvergence, NonMonotoneConvergence, TooFine
from .geometry import ConvexPolygon, metrics
from .parallel import WeightProfile

# supported exponent range of the solver and of the CLI's --p options
P_MIN, P_MAX = 1.1, 10.0
# nodes per mesh: triangulate's candidate points (boundary plus the lattice
# rows across the polygon), or a refined mesh's nodes
_MAX_NODES = 2_000_000
_MAX_ITERS = 100_000
# trial steps per line search, the first being the Newton step from a = 0
_MAX_TRIAL_STEPS = 60
# gradient regularization scale, relative to the body diameter
_EPS_REG = 1e-10
# p = 2 solves on a refined mesh with more free nodes than this run V-cycle
# CG; smaller meshes, and every V-cycle's coarsest level, use the LU
_MG_MIN_FREE = 1 << 13
# V-cycle CG: relative residual to reach, and the iteration cap
_CG_RTOL = 1e-12
_MAX_CG_ITERS = 1_000
# power steps of the smoother's lambda_max estimate
_POWER_STEPS = 10

# richardson_T's last ladder, coarsest mesh first
_last_ladder = []


@dataclass(frozen=True)
class Mesh:
    """Immutable triangle mesh of a convex polygon and its P1 operators.

    The first n_boundary nodes lie on the boundary; the rest are the free
    nodes, in the order the mesh was built in (triangulate, _refined). The
    areas, the gradient operator, the stiffness matrix and its LU are built
    on first use and cached, so every (weight, p) solve shares them. A mesh
    made by _refined holds the mesh it refines as parent and the
    prolongation P from the parent's free nodes to its own; a triangulated
    mesh holds None in both.
    """

    polygon: ConvexPolygon
    nodes: np.ndarray
    triangles: np.ndarray
    n_boundary: int
    h: float
    parent: Mesh | None = field(default=None, repr=False)
    prolongation: sp.csr_matrix | None = field(default=None, repr=False)

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
        of the P1 field that is x on the free nodes and 0 on the boundary.
        Row t holds triangle t's free vertices in its own vertex order."""
        v = self.nodes[self.triangles]
        x, y = v[:, :, 0], v[:, :, 1]
        area2 = 2.0 * self.triangle_areas[:, None]
        gx = (y[:, [1, 2, 0]] - y[:, [2, 0, 1]]) / area2
        gy = (x[:, [2, 0, 1]] - x[:, [1, 2, 0]]) / area2
        cols = self.triangles - self.n_boundary
        keep = cols >= 0
        indptr = np.concatenate(([0], np.cumsum(np.tile(np.count_nonzero(keep, axis=1), 2))))
        return sp.csr_matrix(
            (np.concatenate([gx[keep], gy[keep]]), np.tile(cols[keep], 2), indptr),
            shape=(2 * len(self.triangles), self.node_count - self.n_boundary),
        )

    @cached_property
    def _gradient_T(self) -> sp.csr_matrix:
        """G^T in CSR form for the gradient of the nonlinear iteration; p = 2
        solves never build it."""
        return self._gradient.T.tocsr()

    @cached_property
    def _stiffness(self) -> sp.csc_matrix:
        """K_ff = G^T diag(area, area) G, shared by the LU and the V-cycle."""
        G = self._gradient
        return (G.T @ sp.diags(np.tile(self.triangle_areas, 2)) @ G).tocsc()

    @cached_property
    def _stiffness_lu(self):
        """SuperLU's LU of K_ff, one per mesh. K_ff is symmetric positive
        definite, so it is factorized in symmetric mode without pivoting, in
        SuperLU's own COLAMD order."""
        return splu(self._stiffness, diag_pivot_thresh=0.0, options={"SymmetricMode": True})

    @cached_property
    def _jacobi(self) -> np.ndarray:
        """omega / diag(K_ff), the damped Jacobi smoother of the V-cycle, with
        omega = 1.3 / lambda, lambda the Rayleigh quotient of
        D^-1/2 K_ff D^-1/2 after _POWER_STEPS power steps from a seeded
        start. lambda lies below lambda_max(D^-1 K_ff): 0.79 to 0.93 of it on
        the unit square and disk(1, 256) ladders, so omega lambda_max stays
        near 1.4 to 1.65, below the 2 at which the smoother stops converging."""
        K = self._stiffness
        r = 1.0 / np.sqrt(K.diagonal())
        v = np.random.default_rng(0).standard_normal(K.shape[0])
        for _ in range(_POWER_STEPS):
            v /= np.linalg.norm(v)
            w = r * (K @ (r * v))
            lam, v = float(v @ w), w
        return (1.3 / lam) * r * r


def _mesh_points(polygon: ConvexPolygon, h: float):
    """triangulate's points before smoothing, boundary subdivision first, with
    n_boundary and the lattice they came from. The kept lattice points follow
    row by row.

    The lattice is (x_origin, y_origin, first, stop, node): row r lies at
    y_origin + r s sqrt(3)/2 and holds the columns k in [first[r], stop[r]),
    at x_origin + (k + (r mod 2)/2) s with s = 0.8 h; node lists the point
    index of each (row, column) in that order, -1 where the point was not
    kept. Raises TooFine over the node budget, before the lattice is built.
    """
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
    kept = np.flatnonzero(polygon.signed_distance(lattice) >= clearance)
    node = np.full(len(lattice), -1)
    node[kept] = n_bnd + np.arange(len(kept))
    pts = np.vstack([boundary_pts, lattice[kept]])
    return pts, n_bnd, (lo[0], lo[1], first, stop, node)


def _delaunay_triangles(pts: np.ndarray, h: float, lattice) -> np.ndarray:
    """A Delaunay triangulation of pts, the deep lattice triangles in closed
    form and qhull's on the rest.

    A lattice triangle is deep when its three points were kept. Each kept
    point lies at least s/2 inside, s = 0.8 h, and along any direction the
    centroid of an equilateral triangle of side s lies at least s/(2 sqrt 3)
    beyond its nearest corner, so a deep triangle's centroid lies at least
    s (1/2 + 1/(2 sqrt 3)) = 0.79 s inside. Its open circumdisk, of radius
    s/sqrt(3) = 0.58 s, then holds no boundary point, and every other lattice
    point lies 2 s/sqrt(3) from its centre, so it belongs to every Delaunay
    triangulation of pts. The one Delaunay call leaves out the points whose
    six lattice triangles are all deep. Every edge around the deep region has
    an empty circle through its ends only, so qhull's triangles either lie in
    the deep region, where they are replaced by the deep triangles, or are
    Delaunay triangles of pts; a centroid is placed in its lattice triangle
    by arithmetic. With no deep triangle this is Delaunay(pts).simplices.
    """
    x_org, y_org, first, stop, node = lattice
    spacing = 0.8 * h
    row_step = spacing * math.sqrt(3.0) / 2.0
    n_rows = len(first)
    offset = np.concatenate(([0], np.cumsum(stop - first)))  # first entry of each row in node

    def entry(r, k):
        """Index into node of the lattice point (r, k), -1 where there is none."""
        ok = (r >= 0) & (r < n_rows)
        r = np.where(ok, r, 0)
        ok &= (first[r] <= k) & (k < stop[r])
        return np.where(ok, offset[r] + k - first[r], -1)

    def point(r, k):
        """Point index of the lattice point (r, k), -1 where it was not kept."""
        e = entry(r, k)
        return np.where(e >= 0, node[e], -1)

    # with a = k - floor(r / 2) the lattice point (r, k) is x_org + a (s, 0)
    # + r (s/2, s sqrt(3)/2); the triangle (a, r), (a + 1, r), (a, r + 1)
    # points up and (a, r), (a, r + 1), (a - 1, r + 1) down, both listed at
    # the entry of their row-r corner (r, k)
    r = np.repeat(np.arange(n_rows), stop - first)
    k = first[r] + np.arange(len(node)) - offset[r]
    c = k + r % 2  # column of a in row r + 1
    above = point(r + 1, c)
    tris = (np.column_stack((node, point(r, k + 1), above)),
            np.column_stack((node, above, point(r + 1, c - 1))))
    deep = np.array([np.all(t >= 0, axis=1) for t in tris])  # [up, down] per entry
    deep_tris = np.concatenate([t[d] for t, d in zip(tris, deep)])

    sub = np.flatnonzero(np.bincount(deep_tris.ravel(), minlength=len(pts)) < 6)
    strip = sub[Delaunay(pts[sub]).simplices]
    if len(deep_tris) == 0:  # nothing to replace, and maybe no entry to look up
        return strip
    # the lattice triangle holding each centroid: its row and skew coordinate
    cent = pts[strip].mean(axis=1)
    b = (cent[:, 1] - y_org) / row_step
    a = (cent[:, 0] - x_org) / spacing - 0.5 * b
    row, col = np.floor(b), np.floor(a)
    kind = ((a - col) + (b - row) >= 1.0).astype(int)  # 0 up at col, 1 down at col + 1
    row, col = row.astype(int), col.astype(int) + kind
    e = entry(row, col + row // 2)
    in_deep = (e >= 0) & deep[kind, np.maximum(e, 0)]
    return np.concatenate((strip[~in_deep], deep_tris))


def _smoothed(polygon: ConvexPolygon, pts: np.ndarray, simplices: np.ndarray, n_bnd: int,
              min_depth: float) -> np.ndarray:
    """pts after one sweep that moves each interior node to the mean of its
    neighbours over the triangles' edges, where the move keeps it at least
    min_depth inside. The sums accumulate in the order of the edge list
    (a, b), (b, a) for a, b = 0 1, 1 2, 2 0."""
    a = simplices[:, [0, 1, 1, 2, 2, 0]].T.ravel()
    b = simplices[:, [1, 0, 2, 1, 0, 2]].T.ravel()
    n = len(pts)
    total = np.column_stack([np.bincount(a, weights=pts[b, i], minlength=n) for i in (0, 1)])
    count = np.bincount(a, minlength=n).astype(float)
    cand = total[n_bnd:] / np.maximum(count[n_bnd:], 1.0)[:, None]
    ok = polygon.signed_distance(cand) >= min_depth
    out = pts.copy()
    out[n_bnd:][ok] = cand[ok]
    return out


def triangulate(polygon: ConvexPolygon, h: float) -> Mesh:
    """Delaunay mesh with target edge length h: the boundary nodes first,
    then the kept lattice points row by row as the free nodes.

    Each polygon edge is subdivided at spacing <= 0.9 h; these points are
    the mesh's first n_boundary nodes. The points of an interior hexagonal
    lattice at spacing 0.8 h are kept where they lie at least 0.4 h inside.
    The Delaunay triangulation of a convex point set tiles the polygon
    exactly. Its deep lattice triangles, whose circumdisks lie inside the
    polygon, are known in closed form, so qhull triangulates only the strip
    of points along the boundary (_delaunay_triangles). One neighbor-averaging
    sweep of the interior nodes, keeping that triangulation's connectivity,
    improves angles; a move is kept only while the node stays at least
    0.32 h inside. Interior angles stay clear of 180 degrees (the quantity
    that governs P1 accuracy); corners sharper than the target minimum angle
    necessarily appear in any mesh of such a body.

    The node budget is checked before the lattice is built: TooFine is
    raised when the boundary points plus the lattice points of each row that
    fall within the polygon's x-extent at that row (the candidates) exceed
    _MAX_NODES. It bounds candidates, not kept nodes; the two differ by the
    candidates within 0.4 h of the boundary.
    """
    body = metrics(polygon)
    if not (0.0 < h < body.inradius):
        raise ValueError(f"target edge length h = {h!r} must lie in (0, inradius)")
    pts, n_bnd, lattice = _mesh_points(polygon, h)
    simplices = _delaunay_triangles(pts, h, lattice)
    # one averaging sweep on interior nodes; the connectivity stays
    pts = _smoothed(polygon, pts, simplices, n_bnd, 0.32 * h)

    # orient, then drop slivers of essentially zero area (collinear boundary runs)
    p0, p1, p2 = pts[simplices[:, 0]], pts[simplices[:, 1]], pts[simplices[:, 2]]
    cross = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p1[:, 1] - p0[:, 1]) * (
        p2[:, 0] - p0[:, 0]
    )
    flip = cross < 0.0
    simplices[flip] = simplices[flip][:, [0, 2, 1]]
    scale2 = h * h
    simplices = simplices[np.abs(cross) > 1e-12 * scale2]

    mesh = Mesh(polygon=polygon, nodes=pts, triangles=simplices.astype(np.int32),
                n_boundary=n_bnd, h=h)
    if abs(float(np.sum(mesh.triangle_areas)) - body.area) > 1e-9 * body.area:
        raise TooFine("triangulation does not tile the polygon")  # pragma: no cover
    return mesh


def _refined(coarse: Mesh) -> Mesh:
    """coarse with every triangle split in four at its edge midpoints.

    Triangle t = (a, b, c) becomes 4 t ... 4 t + 3: (a, m_ab, m_ca),
    (m_ab, b, m_bc), (m_ca, m_bc, c) and (m_ab, m_bc, m_ca), with the
    parent's orientation. The midpoint of a boundary edge (an edge of one
    triangle) lies on a polygon edge and is a boundary node: the boundary
    nodes are coarse's, then those midpoints. The free nodes follow:
    coarse's in their order, then the other midpoints. The P1 spaces are
    nested: the prolongation P is 1 at a kept free node, so its first rows
    are the identity, and 1/2 from each free end of a split edge. Raises
    TooFine when the N + E nodes (N nodes and E edges of coarse) exceed
    _MAX_NODES.
    """
    N, nb = coarse.node_count, coarse.n_boundary
    pairs = np.sort(coarse.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2).astype(np.int64), axis=1)
    keys, edge_of, count = np.unique(pairs[:, 0] * N + pairs[:, 1], return_inverse=True,
                                     return_counts=True)
    if N + len(keys) > _MAX_NODES:
        raise TooFine(f"{N + len(keys)} refined nodes exceed the {_MAX_NODES} budget")
    ends = np.column_stack((keys // N, keys % N))
    on_bnd = count == 1
    nbf = nb + int(on_bnd.sum())
    # node numbers: coarse boundary nodes, boundary midpoints, coarse free
    # nodes, interior midpoints
    mid = np.empty(len(keys), dtype=np.int64)
    mid[on_bnd] = nb + np.arange(nbf - nb)
    mid[~on_bnd] = nbf + (N - nb) + np.arange(len(keys) - (nbf - nb))
    old = np.concatenate((np.arange(nb), nbf + np.arange(N - nb)))
    halves = 0.5 * (coarse.nodes[ends[:, 0]] + coarse.nodes[ends[:, 1]])
    nodes = np.vstack((coarse.nodes[:nb], halves[on_bnd], coarse.nodes[nb:], halves[~on_bnd]))
    a, b, c = old[coarse.triangles].T
    m_ab, m_bc, m_ca = mid[edge_of].reshape(-1, 3).T
    triangles = np.stack((np.column_stack((a, m_ab, m_ca)), np.column_stack((m_ab, b, m_bc)),
                          np.column_stack((m_ca, m_bc, c)), np.column_stack((m_ab, m_bc, m_ca))),
                         axis=1).reshape(-1, 3)
    # P: 1 at each kept node, 1/2 from each free end of an interior midpoint
    kept = np.arange(N - nb)
    free_end = (ends[~on_bnd] - nb).ravel()
    live = free_end >= 0
    P = sp.csr_matrix(
        (np.concatenate((np.ones(len(kept)), np.full(np.count_nonzero(live), 0.5))),
         (np.concatenate((kept, len(kept) + (np.arange(len(free_end)) // 2)[live])),
          np.concatenate((kept, free_end[live])))),
        shape=(len(nodes) - nbf, len(kept)),
    )
    return Mesh(polygon=coarse.polygon, nodes=nodes, triangles=triangles.astype(np.int32),
                n_boundary=nbf, h=0.5 * coarse.h, parent=coarse, prolongation=P)


@dataclass(frozen=True)
class TorsionResult:
    """Converged discrete solution and its derived quantities.

    torsion is the Rayleigh quotient (int f u)^{p/(p-1)} / (int |grad
    u|^p)^{1/(p-1)} of the field u, with f at the triangle centroids, and 0
    when the Dirichlet integral is 0. For a constant weight it is a
    guaranteed lower bound for the polygon's torsion; for other weights, a
    quadrature estimate. energy is J(u), iterations the solver's count and
    grad_norm the norm of the energy gradient at u.
    """

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
    share to each of its nodes. A constant f needs no centroid depths."""
    if weight.is_constant:
        f = weight(0.0)
    else:
        f = weight(mesh.polygon.signed_distance(mesh.nodes[mesh.triangles].mean(axis=1)))
    contrib = mesh.triangle_areas * f / 3.0
    # node by node in the order of the triangle list's columns
    F = np.bincount(mesh.triangles.T.ravel(), weights=np.tile(contrib, 3),
                    minlength=mesh.node_count)
    return F[mesh.n_boundary:]


def _dirichlet(mesh: Mesh, g: np.ndarray, p: float, eps2: float = 0.0):
    """From slopes g = G x: s = |grad|^2 + eps2 and e = area * s^(p/2) per
    triangle, and sum e, for the field that is x on the free nodes and 0 on
    the boundary."""
    m = len(mesh.triangles)
    s = g[:m] ** 2 + g[m:] ** 2 + eps2
    e = mesh.triangle_areas * s ** (p / 2.0)
    return s, e, float(np.sum(e))


def _ncg(mesh: Mesh, F: np.ndarray, p: float, tol: float, x: np.ndarray):
    """Preconditioned nonlinear CG from the linear solution x: returns the
    minimizer on the free nodes, its Dirichlet sum
    sum area (|grad x|^2 + eps2)^(p/2), its load term F . x, its energy
    gradient and the iteration count."""
    G, GT = mesh._gradient, mesh._gradient_T
    lu = mesh._stiffness_lu
    eps2 = (_EPS_REG * metrics(mesh.polygon).diameter) ** 2

    def energy(Gx, Fx):
        """s, e and J of the field with slopes Gx and load term Fx."""
        s, e, a = _dirichlet(mesh, Gx, p, eps2)
        return s, e, a / p - Fx

    def gradient(Gx, s, e):
        """G^T (w G x) - F with w = area s^(p/2) / s; s >= eps2 > 0."""
        return GT @ ((e / s) * Gx.reshape(2, -1)).ravel() - F

    def slopes(Gt, s, e, Gd, Fd, dd):
        """phi'(a) = sum w t - F . d and phi''(a) = sum w (dd + (p - 2) t^2 / s)
        of phi(a) = J(x + a d), from the trial's slopes Gt = G x + a G d, s
        and e: w = e / s, t = Gt . G d and dd = |G d|^2 per triangle."""
        t = (Gt.reshape(2, -1) * Gd.reshape(2, -1)).sum(axis=0)
        w = e / s
        return float(w @ t) - Fd, float(w @ (dd + (p - 2.0) * t * t / s))

    # warm start: scale the linear solution to its own optimal amplitude
    a_p = _dirichlet(mesh, G @ x, p)[2]
    b_lin = float(F @ x)
    x = x * (b_lin / a_p) ** (1.0 / (p - 1.0)) if a_p > 0 else x

    # the iterate x with its slopes Gx = G x, load term Fx = F . x, s, e and J
    Gx, Fx = G @ x, float(F @ x)
    s, e, J = energy(Gx, Fx)
    g = gradient(Gx, s, e)
    z = lu.solve(g)
    d = -z
    gz = float(g @ z)
    history = [J]
    for n_iter in range(1, _MAX_ITERS + 1):
        gd = float(g @ d)
        if gd >= 0.0:
            d = -z
            gd = -gz
        Gd, Fd = G @ d, float(F @ d)
        dd = (Gd.reshape(2, -1) ** 2).sum(axis=0)
        # safeguarded Newton search on the convex phi(a) = J(x + a d), with
        # phi'(0) = gd < 0: [lo, hi] brackets its minimizer, phi'(lo) < 0
        a, dphi, lo, hi, moved = 0.0, gd, 0.0, math.inf, math.inf
        ddphi = slopes(Gx, s, e, Gd, Fd, dd)[1]
        for _ in range(_MAX_TRIAL_STEPS):
            a_next = a - dphi / ddphi
            # a Newton step must stay in the bracket and move less than half
            # as far as the last trial did; where phi' jumps (a field's
            # slope passing near 0 at p < 2) Newton alone would bounce
            # between the bracket's ends
            if not (lo < a_next < hi and 2.0 * abs(a_next - a) < moved):
                if hi < math.inf:
                    a_next = 0.5 * (lo + hi)
                else:
                    a_next = 2.0 * a if a > 0.0 else 1.0
            moved, a = abs(a_next - a), a_next
            Gt, Ft = Gx + a * Gd, Fx + a * Fd
            st, et, Jt = energy(Gt, Ft)
            dphi, ddphi = slopes(Gt, st, et, Gd, Fd, dd)
            # near convergence Jt differs from J only at roundoff, so the
            # Armijo test can fail on a good step; the bracket on phi' below
            # still ends in one
            if abs(dphi) <= -0.1 * gd and Jt <= J + 1e-4 * a * gd:
                break
            if dphi < 0.0:
                lo, at_lo = a, (Gt, Ft, st, et, Jt)
            else:
                hi = a
            if hi < math.inf and hi - lo <= 1e-6 * hi:
                # phi' < 0 at lo > 0, so by convexity lo is a descent step
                a, (Gt, Ft, st, et, Jt) = lo, at_lo
                break
        else:
            raise NoConvergence(
                f"line search found no descent step in {_MAX_TRIAL_STEPS} trials"
                f" at iteration {n_iter}"
            )
        x, Gx, Fx, s, e, J = x + a * d, Gt, Ft, st, et, Jt
        history.append(J)
        if len(history) > 10 and history[-11] - J < tol * abs(J):
            # the carried state settled: recompute it from x, so that the
            # result is the energy and gradient of the returned field, and
            # stop only if the recomputed energy settled too
            Gx, Fx = G @ x, float(F @ x)
            s, e, dirichlet = _dirichlet(mesh, Gx, p, eps2)
            J = dirichlet / p - Fx
            history[-1] = J
            if history[-11] - J < tol * abs(J):
                return x, dirichlet, Fx, gradient(Gx, s, e), n_iter
        g_new = gradient(Gx, s, e)
        z_new = lu.solve(g_new)
        gz_new = float(g_new @ z_new)
        beta = max(0.0, float(g_new @ (z_new - z)) / gz) if gz > 0 else 0.0
        d = -z_new + beta * d
        g, z, gz = g_new, z_new, gz_new
    raise NoConvergence(f"energy minimization did not settle in {_MAX_ITERS} iterations")


def _vcycle(r: np.ndarray, levels: list, lu) -> np.ndarray:
    """One V-cycle on K x = r from x = 0: for levels[0] = (K, omega / diag K,
    P), 2 damped Jacobi sweeps, the coarse correction P e with e the V-cycle
    of levels[1:] on the restricted residual P^T (r - K x), and 2 more
    sweeps; below the last level, lu solves. A recursive closure would be a
    reference cycle holding the ladder's matrices until the cyclic garbage
    collector ran, long after the ladder was dropped; this function holds
    nothing."""
    if not levels:
        return lu.solve(r)
    (K, w, P), coarser = levels[0], levels[1:]
    x = w * r
    x += w * (r - K @ x)
    x += P @ _vcycle(P.T @ (r - K @ x), coarser, lu)
    for _ in range(2):
        x += w * (r - K @ x)
    return x


def _solve_p2(mesh: Mesh, F: np.ndarray):
    """x with K_ff x = F, and the iteration count.

    A triangulated mesh, or a refined one with at most _MG_MIN_FREE free
    nodes, is solved by its LU, in 1 iteration. A larger refined mesh is
    solved by scipy's conjugate gradients from x = 0, preconditioned by one
    V-cycle, until the residual falls below _CG_RTOL |F|; NoConvergence is
    raised after _MAX_CG_ITERS iterations. The V-cycle's levels are mesh
    and its ancestors down to the first one with at most _MG_MIN_FREE free
    nodes, or the root mesh; that level is solved by its LU. Each finer
    level smooths with 2 damped Jacobi sweeps before and 2 after the coarse
    correction P e, e from the parent's own K_ff, which equals P^T K_ff P
    for nested P1 spaces. The cycle is a symmetric operator, positive
    definite while omega lambda_max < 2 (Mesh._jacobi), as CG needs.
    """
    levels = []
    coarse = mesh
    while coarse.parent is not None and coarse.node_count - coarse.n_boundary > _MG_MIN_FREE:
        # K_ff is symmetric, so its CSC transpose is itself in CSR form,
        # whose products are faster
        levels.append((coarse._stiffness.T, coarse._jacobi, coarse.prolongation))
        coarse = coarse.parent
    lu = coarse._stiffness_lu
    if not levels:
        return lu.solve(F), 1
    K = levels[0][0]
    vcycle = LinearOperator(K.shape, matvec=lambda r: _vcycle(r, levels, lu), dtype=F.dtype)
    steps = []  # one entry per iteration
    x, info = cg(K, F, rtol=_CG_RTOL, atol=0.0, maxiter=_MAX_CG_ITERS, M=vcycle,
                 callback=steps.append)
    if info > 0:
        raise NoConvergence(f"V-cycle CG did not reach {_CG_RTOL:g} in {_MAX_CG_ITERS} iterations")
    return x, len(steps)


def solve_torsion(
    mesh: Mesh,
    weight: WeightProfile,
    p: float,
    tol: float = 1e-10,
) -> TorsionResult:
    """Minimize the torsion energy over P1 fields vanishing on the boundary.

    For p = 2 the Galerkin system K_ff x = F is solved by the mesh's sparse
    LU, or, on a refined mesh with more than _MG_MIN_FREE free nodes, by
    conjugate gradients preconditioned with one multigrid V-cycle over the
    mesh's ancestors, to a relative residual of 1e-12 (_solve_p2; its
    iteration count is the result's). Otherwise preconditioned nonlinear
    conjugate gradients, with the LU as preconditioner, run until the
    relative energy decrease stays below tol over 10 successive iterations.
    tol must be finite and positive. Raises NoConvergence when the line
    search or an iteration cap runs out.

    The result's torsion is the quotient (F . x)^{p/(p-1)} / D^{1/(p-1)} of
    the returned field x, D its Dirichlet sum: x . K_ff x at p = 2, and at
    other p the nonlinear iteration's final sum, whose regularization eps2
    only raises D. For a constant weight it is a guaranteed lower bound for
    the polygon's torsion, and otherwise a quadrature estimate of it.
    """
    if not (P_MIN <= p <= P_MAX):
        raise BadExponent(f"p = {p!r} outside the supported range [{P_MIN:g}, {P_MAX:g}]")
    if not (0.0 < tol < math.inf):
        raise ValueError(f"tol = {tol!r} must be finite and positive")
    F = _load_vector(mesh, weight)
    u = np.zeros(mesh.node_count)
    if len(F) == 0:
        return TorsionResult(mesh, u, p, weight, 0.0, 0.0, 0, 0.0)

    if p == 2.0:
        x, iterations = _solve_p2(mesh, F)
        Kx = mesh._stiffness @ x
        dirichlet, Fx, residual = float(x @ Kx), float(F @ x), Kx - F
    else:
        x, dirichlet, Fx, residual, iterations = _ncg(mesh, F, p, tol, mesh._stiffness_lu.solve(F))
    u[mesh.n_boundary:] = x
    J = dirichlet / p - Fx
    T = Fx ** (p / (p - 1.0)) / dirichlet ** (1.0 / (p - 1.0)) if dirichlet > 0.0 else 0.0
    return TorsionResult(mesh, u, p, weight, J, T, iterations, float(np.linalg.norm(residual)))


@dataclass(frozen=True)
class RichardsonResult:
    """Extrapolated torsion with an error estimate from a refinement study."""

    torsion: float
    error: float
    observed_order: float
    torsions: tuple


def _ladder(polygon: ConvexPolygon, h: float, levels: int) -> list:
    """The nested ladder of polygon from h, coarsest first: triangulate(polygon,
    h) and levels - 1 successive refinements of it.

    The last ladder is reused only when it starts at the same polygon object
    and the same h: it is extended by refinement, or its first levels are
    returned. Any other call drops it before anything is built, so at most
    one ladder is alive and the meshes depend only on the arguments.
    """
    if not (_last_ladder and _last_ladder[0].polygon is polygon and _last_ladder[0].h == h):
        _last_ladder.clear()
        _last_ladder.append(triangulate(polygon, h))
    while len(_last_ladder) < levels:
        _last_ladder.append(_refined(_last_ladder[-1]))
    return _last_ladder[:levels]


def richardson_T(
    polygon: ConvexPolygon,
    weight: WeightProfile,
    p: float,
    h_list,
    tol: float = 1e-10,
) -> RichardsonResult:
    """Solve on a ratio-2 ladder of nested meshes and extrapolate the torsion.

    The coarsest mesh is triangulate(polygon, h_list[0]); each finer level is
    the one before refined once, at exactly half its h. The spaces are
    nested, so at p = 2 with a constant weight T_h never decreases along the
    ladder. Assumes second-order convergence at p = 2 and fits the observed
    order otherwise; the error estimate is the last increment
    |T_h - T_{h/2}|. The meshes (and their LUs) of the previous call are
    reused when it was on the same polygon object from the same h_list[0];
    otherwise the ladder is built afresh. Either way the result depends
    only on the arguments.
    """
    hs = [float(h) for h in h_list]
    if len(hs) < 3:
        raise ValueError("need at least 3 mesh sizes")
    if not all(h > 0.0 for h in hs):
        raise ValueError("mesh sizes must be positive")
    for a, b in zip(hs, hs[1:]):
        if not (a > b):
            raise ValueError("mesh sizes must decrease")
        if abs(a / b - 2.0) > 0.02:
            raise ValueError("mesh sizes must halve at each step")
    # finest first: on a new ladder the largest LU is factorized while no
    # other LU of the ladder is alive, which lowers the peak memory
    meshes = _ladder(polygon, hs[0], len(hs))[::-1]
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
