"""Independent reference computations used to freeze expected test values.

Everything here is deliberately written against a different formulation than
the library (series, quadrature, direction sampling, a linear program for the
inscribed disk, a half-plane intersection per profile node, element-by-element
stiffness assembly, a loop over the mesh's edge subdivision points, a loop
over the Steiner difference quotients, bisection for the theorem 3
threshold, clipping for the body-rectangle symmetric difference, one qhull
call on every mesh point, np.add.at sums, a minimum-degree LU, full lattice
rows, a ladder of independently triangulated meshes, meshes numbered and
factorized in nested-dissection order, a Rayleigh quotient from per-triangle
edge vectors) so the two can act as mutual checks.
The mesh-quality probes (angle range, longest edge) measure meshes that the
library builds but never inspects.
"""
import math
from collections import deque

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.sparse.linalg import splu
from scipy.spatial import Delaunay

from webtorsion.solver import Mesh, triangulate

# free nodes per leaf box of the nested-dissection order, at most on average
_LEAF = 32


def torsion_rectangle_series(a: float, b: float, terms: int = 400) -> float:
    """Torsion integral of an a x b rectangle from the classical series.

    T = (1/4) (a_ b_^3 / 3) (1 - 192 b_/(pi^5 a_) sum_{n odd} tanh(n pi a_/(2 b_))/n^5)
    with a_ >= b_; partial sums converge like n^-5, so 400 odd terms are far
    below 1e-10 relative.
    """
    a_, b_ = max(a, b), min(a, b)
    s = sum(math.tanh(n * math.pi * a_ / (2 * b_)) / n**5 for n in range(1, 2 * terms, 2))
    k_t = (a_ * b_**3 / 3.0) * (1.0 - 192.0 * b_ / (math.pi**5 * a_) * s)
    return k_t / 4.0


def torsion_disk_exact(p: float, radius: float = 1.0, n: int = 2) -> float:
    """Radial p-torsion of the n-ball by direct quadrature of the closed form.

    The sphere areas are tabulated: 2 pi, 4 pi and 2 pi^2 for n = 2, 3, 4.
    """
    q = p / (p - 1.0)
    sphere = {2: 2.0 * math.pi, 3: 4.0 * math.pi, 4: 2.0 * math.pi**2}[n]
    u = lambda r: (p - 1.0) / p * n ** (-1.0 / (p - 1.0)) * (radius**q - r**q)
    val, _ = quad(lambda r: sphere * r ** (n - 1) * u(r), 0.0, radius)
    return val


def width_sampled(vertices: np.ndarray, n_dirs: int = 3600) -> float:
    """Brute-force minimal width over sampled directions plus edge normals."""
    thetas = np.linspace(0.0, 2.0 * np.pi, n_dirs, endpoint=False)
    dirs = np.column_stack((np.cos(thetas), np.sin(thetas)))
    e = np.roll(vertices, -1, axis=0) - vertices
    normals = np.column_stack((-e[:, 1], e[:, 0]))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    dirs = np.vstack([dirs, normals])
    proj = vertices @ dirs.T
    return float((proj.max(axis=0) - proj.min(axis=0)).min())


def diameter_bruteforce(vertices: np.ndarray) -> float:
    d2 = np.sum((vertices[:, None, :] - vertices[None, :, :]) ** 2, axis=2)
    return float(np.sqrt(d2.max()))


def steiner_quotient_loop(prof):
    """Least (P(t_i) - P(t_{i+1})) / dt - 2 pi over the subintervals and its
    first node, skipping those where P vanishes at both ends."""
    t, P = prof.t, prof.perimeters
    slack, node = math.inf, -1
    dt = t[1] - t[0]
    for i in range(len(t) - 1):
        if P[i] == 0.0 and P[i + 1] == 0.0:
            continue
        q = (P[i] - P[i + 1]) / dt - 2 * np.pi
        if q < slack:
            slack, node = q, i
    return float(slack), node


def web_integral_quad(mu_f, perim, inradius: float, p: float) -> float:
    """Adaptive quadrature of mu_f^{p/(p-1)} / P^{1/(p-1)} given callables."""
    q = p / (p - 1.0)

    def integrand(t):
        pv = perim(t)
        if pv <= 0.0:
            return 0.0
        return mu_f(t) ** q / pv ** (1.0 / (p - 1.0))

    val, _ = quad(integrand, 0.0, inradius, limit=200)
    return val


# frozen values, computed with the helpers above
T_UNIT_SQUARE = 0.03514425373904368          # torsion_rectangle_series(1, 1)
T_DISK_P2 = math.pi / 8.0
T_DISK_P3 = 0.6346975625940523               # torsion_disk_exact(3.0)
T_DISK_P15 = math.pi / 20.0                  # torsion_disk_exact(1.5) closed form
MU_F_SQUARE_LINEAR = 5.0 / 6.0               # quad of (1-s)(4-8s) over [0, 1/2]
WEB_INTEGRAL_SQUARE = 1.0 / 32.0             # quad of (1-2t)^4/(4-8t) over [0, 1/2]
WEB_CLOSED_SQUARE = 1.0 / 48.0               # (1/3) 1^3 / 4^2


def chebyshev_center_lp(polygon):
    """Largest inscribed disk by the HiGHS linear program max r, r <= n_i . x - b_i.

    The feasibility tolerances are tightened to 1e-10, then the active
    constraints are re-solved in least squares; the radius returned is the
    exact minimal edge distance of the polished center.
    """
    from scipy.optimize import linprog

    n, b = polygon.edge_normals, polygon.edge_offsets
    k = len(b)
    res = linprog(
        c=np.array([0.0, 0.0, -1.0]),
        A_ub=np.column_stack((-n, np.ones(k))),
        b_ub=-b,
        bounds=[(None, None), (None, None), (0.0, None)],
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.success, res.message
    x, y, r = res.x
    center = np.array([x, y])
    scale_len = float(np.max(np.abs(polygon.vertices))) + 1.0
    active = np.where(n @ center - b - r < 1e-7 * scale_len)[0]
    if len(active) >= 3:
        rows = np.column_stack((n[active], -np.ones(len(active))))
        sol, *_ = np.linalg.lstsq(rows, b[active], rcond=None)
        cand_r = float(np.min(n @ sol[:2] - b))
        if cand_r >= r - 1e-9 * scale_len:
            center, r = sol[:2], max(cand_r, r)
    r = float(np.min(n @ center - b))
    return r, (float(center[0]), float(center[1]))


def offset_polygon_deque(nx, ny, c, start):
    """Vertices of the intersection of half-planes n_i . x >= c_i.

    The normals must be angularly sorted counter-clockwise; ``start`` rotates
    the processing order to begin at the smallest angle. Returns a vertex list
    or None when the intersection is empty or degenerate.
    """
    k = len(c)

    def inter(i, j):
        det = nx[i] * ny[j] - ny[i] * nx[j]
        return (
            (c[i] * ny[j] - ny[i] * c[j]) / det,
            (nx[i] * c[j] - c[i] * nx[j]) / det,
        )

    def violates(i, j, l):
        x, y = inter(i, j)
        return nx[l] * x + ny[l] * y < c[l]

    dq = deque()
    for s in range(k):
        i = (start + s) % k
        while len(dq) >= 2 and violates(dq[-2], dq[-1], i):
            dq.pop()
        while len(dq) >= 2 and violates(dq[0], dq[1], i):
            dq.popleft()
        dq.append(i)
    while len(dq) >= 3 and violates(dq[-2], dq[-1], dq[0]):
        dq.pop()
    while len(dq) >= 3 and violates(dq[0], dq[1], dq[-1]):
        dq.popleft()
    if len(dq) < 3:
        return None
    idx = list(dq)
    return [inter(idx[j], idx[(j + 1) % len(idx)]) for j in range(len(idx))]


def loop_area_perimeter(pts):
    area = 0.0
    per = 0.0
    m = len(pts)
    for j in range(m):
        x0, y0 = pts[j]
        x1, y1 = pts[(j + 1) % m]
        area += x0 * y1 - x1 * y0
        per += math.hypot(x1 - x0, y1 - y0)
    return 0.5 * area, per


def profile_deque(polygon, ts):
    """Perimeters and areas of the inner bodies at depths ts < R, each from a
    fresh angular-deque intersection of the shifted edge half-planes."""
    n, b = polygon.edge_normals, polygon.edge_offsets
    nx, ny = n[:, 0].tolist(), n[:, 1].tolist()
    start = int(np.argmin(np.arctan2(n[:, 1], n[:, 0])))
    P = np.zeros(len(ts))
    mu = np.zeros(len(ts))
    for i, t in enumerate(ts):
        loop = offset_polygon_deque(nx, ny, (b + t).tolist(), start)
        area, per = (0.0, 0.0) if loop is None else loop_area_perimeter(loop)
        if area <= 0.0:
            break
        P[i], mu[i] = per, area
    return P, mu


def stiffness_coo(nodes, triangles):
    """P1 stiffness matrix summed from the 3 x 3 element matrices.

    Each element contributes area * grad(phi_i) . grad(phi_j), with the basis
    gradients from the edge vectors of its triangle, assembled as COO triplets.
    """
    v = nodes[triangles]
    x, y = v[:, :, 0], v[:, :, 1]
    bx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    by = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area2 = np.sum(x * bx, axis=1)
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(triangles[:, i])
            cols.append(triangles[:, j])
            vals.append((bx[:, i] * bx[:, j] + by[:, i] * by[:, j]) / (2.0 * area2))
    n = len(nodes)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )


def boundary_subdivision_loop(vertices, h: float) -> np.ndarray:
    """Edge subdivision points of triangulate, one edge and one point at a
    time: each edge a -> b gets n = max(1, ceil(|b - a| / (0.9 h))) points
    a + (b - a) j / n, j = 0 .. n - 1."""
    k = len(vertices)
    pts = []
    for i in range(k):
        a, b = vertices[i], vertices[(i + 1) % k]
        n_seg = max(1, int(math.ceil(float(np.hypot(*(b - a))) / (0.9 * h))))
        for j in range(n_seg):
            pts.append(a + (b - a) * (j / n_seg))
    return np.asarray(pts)


def smoothing_sweep_add_at(polygon, pts, simplices, n_bnd: int, min_depth: float) -> np.ndarray:
    """triangulate's smoothing sweep with twelve np.add.at sums: each interior
    node moves to the mean of its neighbours over the triangles' edges where
    the move keeps it at least min_depth inside."""
    neigh_sum = np.zeros_like(pts)
    neigh_cnt = np.zeros(len(pts))
    for a, b in ((0, 1), (1, 2), (2, 0)):
        np.add.at(neigh_sum, simplices[:, a], pts[simplices[:, b]])
        np.add.at(neigh_cnt, simplices[:, a], 1.0)
        np.add.at(neigh_sum, simplices[:, b], pts[simplices[:, a]])
        np.add.at(neigh_cnt, simplices[:, b], 1.0)
    cand = neigh_sum[n_bnd:] / np.maximum(neigh_cnt[n_bnd:], 1.0)[:, None]
    ok = polygon.signed_distance(cand) >= min_depth
    out = pts.copy()
    out[n_bnd:][ok] = cand[ok]
    return out


def full_delaunay_mesh(polygon, pts, n_bnd: int, h: float):
    """Nodes and triangles of triangulate from its points before smoothing
    by one qhull call on all of them: the smoothing sweep at 0.32 h, then
    counter-clockwise orientation and the drop of triangles with
    |cross| <= 1e-12 h^2."""
    simplices = Delaunay(pts).simplices
    nodes = smoothing_sweep_add_at(polygon, pts, simplices, n_bnd, 0.32 * h)
    v0 = nodes[simplices[:, 0]]
    e1, e2 = nodes[simplices[:, 1]] - v0, nodes[simplices[:, 2]] - v0
    cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    simplices[cross < 0.0] = simplices[cross < 0.0][:, [0, 2, 1]]
    return nodes, simplices[np.abs(cross) > 1e-12 * h * h]


def kept_lattice_rows(polygon, h: float) -> np.ndarray:
    """triangulate's interior lattice points before smoothing, row by row
    and left to right: every point of the rows of spacing 0.8 h across the
    bounding box, shrunk by 0.4 h, that lies at least 0.4 h inside."""
    s = 0.8 * h
    v = polygon.vertices
    lo, hi = v.min(axis=0) + 0.5 * s, v.max(axis=0) - 0.5 * s + 1e-15
    rows = []
    for r, y in enumerate(np.arange(lo[1], hi[1], s * math.sqrt(3.0) / 2.0)):
        xs = np.arange(lo[0] + 0.5 * s * (r % 2), hi[0], s)
        row = np.column_stack((xs, np.full(len(xs), y)))
        rows.append(row[polygon.signed_distance(row) >= 0.5 * s])
    return np.concatenate(rows)


def independent_ladder(polygon, h, levels) -> list:
    """The meshes of a Richardson ladder from h, halving levels - 1 times,
    built one triangulate call per level, each independent of the others:
    the ladder before its levels were nested by refinement."""
    return [triangulate(polygon, h / 2**k) for k in range(levels)]


def splu_minimum_degree(K):
    """SuperLU factorization of the symmetric positive definite K without
    pivoting, on a minimum-degree ordering of K + K^T in symmetric mode."""
    return splu(sp.csc_matrix(K), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def _dissection_order(points: np.ndarray, edges) -> np.ndarray:
    """Nested-dissection order of the nodes at points, joined by edges (two
    arrays of indices into points), as a permutation of their indices.

    Their bounding box is bisected at its midpoint along its longer side
    D = ceil(log2(n / _LEAF)) times. The boxes of one level are congruent, so
    the axis of each split is global and a node's path through the boxes is
    a D-bit code. An edge whose ends' codes first differ at some split
    crosses that split's line, and its end nearer the line (the first end
    on a tie) belongs to that split's separator; a node on several
    separators belongs to the coarsest. Separators come after both halves
    they separate (post-order), and the nodes of one leaf box or one
    separator keep their order. At most _LEAF nodes keep theirs.
    """
    n = len(points)
    if n <= _LEAF:
        return np.arange(n)
    depth = math.ceil(math.log2(n / _LEAF))
    lo = points.min(axis=0)
    side = points.max(axis=0) - lo
    axes, halved = [], side.tolist()
    for _ in range(depth):
        axes.append(int(halved[1] > halved[0]))
        halved[axes[-1]] /= 2.0
    # per axis: the splits along it, and each node's box index among the
    # 2^splits boxes; the code interleaves their bits in level order
    splits = [axes.count(a) for a in (0, 1)]
    rank = [axes[:lvl].count(a) for lvl, a in enumerate(axes)]  # earlier splits on its axis
    box = np.zeros((2, n), dtype=np.int64)
    code = np.zeros(n, dtype=np.int64)
    for lvl, a in enumerate(axes):
        if rank[lvl] == 0:
            cells = 1 << splits[a]
            box[a] = np.minimum((points[:, a] - lo[a]) / side[a] * cells, cells - 1)
        code |= ((box[a] >> (splits[a] - 1 - rank[lvl])) & 1) << (depth - 1 - lvl)
    i, j = edges
    differ = code[i] ^ code[j]
    cut = differ > 0
    i, j, differ = i[cut], j[cut], differ[cut]
    bit = np.frexp(differ)[1] - 1  # the first split the edge crosses, from the low end
    lvl = depth - 1 - bit
    a = np.array(axes)[lvl]
    # the split's line: its upper half starts at the larger (rank + 1)-bit box prefix
    prefix_bits = np.array(rank)[lvl] + 1
    upper = np.maximum(box[a, i], box[a, j]) >> (np.array(splits)[a] - prefix_bits)
    line = lo[a] + side[a] * (upper / 2.0 ** prefix_bits)
    near_i = np.abs(points[i, a] - line) <= np.abs(points[j, a] - line)
    sep = np.where(near_i, i, j)
    tail = np.zeros(n, dtype=np.int64)  # D - the separator's level, 0 in a leaf
    np.maximum.at(tail, sep, bit + 1)
    # a separator node takes the key of its box's last leaf, then sorts
    # after the deeper separators that share it
    return np.argsort((code | ((1 << tail) - 1)) * (depth + 1) + tail, kind="stable")


def _free_edges(triangles: np.ndarray, n_bnd: int):
    """The edges between two free nodes, once each, as two arrays of free-node
    indices. Such an edge is interior, so it lies in two triangles, and the
    triangles' common orientation runs it once from its lower end."""
    i = triangles - n_bnd
    j = i[:, [1, 2, 0]]
    keep = (i >= 0) & (j > i)
    return i[keep], j[keep]


def numbered_mesh(mesh):
    """mesh with its free nodes renumbered in _dissection_order and its LU
    factorized in that numbering with no column permutation: the meshes that
    triangulate and _refined built when every mesh was numbered once, at
    build time, for a nested-dissection LU. A refined mesh keeps its parent, and its
    prolongation's rows follow the new numbering."""
    nb = mesh.n_boundary
    order = _dissection_order(mesh.nodes[nb:], _free_edges(mesh.triangles, nb))
    new = np.empty(mesh.node_count, dtype=np.int64)
    new[:nb] = np.arange(nb)
    new[nb + order] = np.arange(nb, mesh.node_count)
    P = mesh.prolongation
    numbered = Mesh(polygon=mesh.polygon, nodes=np.vstack([mesh.nodes[:nb], mesh.nodes[nb + order]]),
                    triangles=new[mesh.triangles].astype(np.int32), n_boundary=nb, h=mesh.h,
                    parent=mesh.parent, prolongation=None if P is None else P[order])
    # the LU cached as the mesh's own, as Mesh._stiffness_lu built it then
    vars(numbered)["_stiffness_lu"] = splu(numbered._stiffness, permc_spec="NATURAL",
                                           diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    return numbered


def p2_field_minimum_degree(mesh, weight) -> np.ndarray:
    """The p = 2 field on every node of mesh: K_ff from the element
    matrices, the loads from np.add.at sums and a minimum-degree LU."""
    nb = mesh.n_boundary
    lu = splu_minimum_degree(stiffness_coo(mesh.nodes, mesh.triangles)[nb:, nb:])
    u = np.zeros(mesh.node_count)
    u[nb:] = lu.solve(load_vector_add_at(mesh, weight))
    return u


def load_vector_add_at(mesh, weight) -> np.ndarray:
    """The solver's free-node loads with three np.add.at sums: f at each
    centroid, a third of the triangle's share to each of its nodes."""
    cent = mesh.nodes[mesh.triangles].mean(axis=1)
    contrib = mesh.triangle_areas * weight(mesh.polygon.signed_distance(cent)) / 3.0
    F = np.zeros(mesh.node_count)
    for i in range(3):
        np.add.at(F, mesh.triangles[:, i], contrib)
    return F[mesh.n_boundary:]


def rayleigh_quotient(mesh, weight, p: float, u) -> float:
    """(int f u)^{p/(p-1)} / (int |grad u|^p)^{1/(p-1)} of the P1 field u,
    given on every node and 0 on the boundary: the loads of
    load_vector_add_at, and each triangle's slope from its edge vectors.
    0 when the Dirichlet integral is not positive."""
    v = mesh.nodes[mesh.triangles]
    x, y = v[:, :, 0], v[:, :, 1]
    bx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    by = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area2 = np.sum(x * bx, axis=1)
    w = np.asarray(u)[mesh.triangles]
    gx, gy = np.sum(bx * w, axis=1) / area2, np.sum(by * w, axis=1) / area2
    dirichlet = float(np.sum(0.5 * area2 * (gx * gx + gy * gy) ** (p / 2.0)))
    if dirichlet <= 0.0:
        return 0.0
    num = float(load_vector_add_at(mesh, weight) @ np.asarray(u)[mesh.n_boundary:])
    return num ** (p / (p - 1.0)) / dirichlet ** (1.0 / (p - 1.0))


def delaunay_tie_gap(pts, tri_a, tri_b, h: float):
    """Triangles of tri_a and tri_b (vertex triples) found in only one of the
    two, and the largest, over those triangles, of the smallest
    |incircle determinant| / h^4 of its three vertices and the fourth vertex
    of an edge-sharing triangle of the other set; inf when one has no such
    partner. Two Delaunay triangulations of the same points differ only by
    such flips of cocircular quadrilaterals, where the determinant is 0."""
    set_a = {tuple(sorted(t)) for t in np.asarray(tri_a).tolist()}
    set_b = {tuple(sorted(t)) for t in np.asarray(tri_b).tolist()}
    only_a, only_b = set_a - set_b, set_b - set_a
    worst = 0.0
    for mine, other in ((only_a, only_b), (only_b, only_a)):
        for t in mine:
            best = math.inf
            for u in other:
                rest = set(u) - set(t)
                if len(rest) == 1:
                    d = pts[rest.pop()]
                    rows = [(*(pts[i] - d), float(np.sum((pts[i] - d) ** 2))) for i in t]
                    best = min(best, abs(float(np.linalg.det(np.array(rows)))) / h**4)
            worst = max(worst, best)
    return len(only_a) + len(only_b), worst


def angle_range_degrees(nodes, triangles):
    """Smallest and largest interior angle, in degrees, over all triangles."""
    v = nodes[triangles]
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


def max_edge_length(nodes, triangles) -> float:
    """Longest triangle edge."""
    v = nodes[triangles]
    return max(float(np.linalg.norm(v[:, (i + 1) % 3] - v[:, i], axis=1).max()) for i in range(3))


def sigma_bisection() -> float:
    """Largest sigma with all three theorem 3 branch-split constraints at
    K(2) = 1/72, each solved by bisection on [0, 1] to 1e-14 in sigma."""
    K2 = 1.0 / 72.0

    def g1(s):
        return 1.0 / (4.0**3 * 6.0) - math.pi**2 / (2.0**3 * 3.0**3) * (s / K2) ** 2

    def g2(s):
        x = s / K2
        return 1.0 / (3.0**3 * 6.0) - math.pi / 48.0 * x - math.pi**2 / (2.0**5 * 3.0) * x * x

    def g3(s):
        return math.pi / 4.0 - math.pi / (2.0 * math.sqrt(3.0)) * (s / K2) - 4.0 / (
            3.0 * math.sqrt(3.0)
        )

    def largest_admissible(fn):
        lo, hi = 0.0, 1.0
        assert fn(lo) >= 0.0
        if fn(hi) >= 0.0:
            return hi
        while hi - lo > 1e-14:
            mid = 0.5 * (lo + hi)
            if fn(mid) >= 0.0:
                lo = mid
            else:
                hi = mid
        return lo

    return min(largest_admissible(g) for g in (g1, g2, g3))


def symdiff_ratio_clipped(polygon, rect) -> float:
    """(|Q| + |body| - 2 |Q intersect body|) / |body|, with the intersection
    clipped from the body edge by edge of Q (a point is kept when it lies left
    of the counter-clockwise edge)."""
    pts = [tuple(v) for v in polygon.vertices.tolist()]
    corners = [tuple(c) for c in np.asarray(rect.corners, dtype=float).tolist()]
    for (ax, ay), (bx, by) in zip(corners, corners[1:] + corners[:1]):
        side = [(bx - ax) * (y - ay) - (by - ay) * (x - ax) for x, y in pts]
        out = []
        for j in range(len(pts)):
            k = (j + 1) % len(pts)
            if side[j] >= 0.0:
                out.append(pts[j])
            if (side[j] >= 0.0) != (side[k] >= 0.0):
                s = side[j] / (side[j] - side[k])
                out.append((pts[j][0] + s * (pts[k][0] - pts[j][0]),
                            pts[j][1] + s * (pts[k][1] - pts[j][1])))
        pts = out
        if len(pts) < 3:
            return math.inf
    inter, _ = loop_area_perimeter(pts)
    area_b, _ = loop_area_perimeter(polygon.vertices.tolist())
    return (rect.long_side * rect.short_side + area_b - 2.0 * inter) / area_b
