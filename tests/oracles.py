"""Independent reference computations used to freeze expected test values.

Everything here is deliberately written against a different formulation than
the library (series, quadrature, direction sampling, a linear program for the
inscribed disk, a half-plane intersection per profile node, element-by-element
stiffness assembly, a loop over the mesh's edge subdivision points, a loop
over the Steiner difference quotients, bisection for the theorem 3
threshold, clipping for the body-rectangle symmetric difference) so the two
can act as mutual checks. The mesh-quality probes (angle range, longest
edge) measure meshes that the library builds but never inspects.
"""
import math
from collections import deque

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad


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


def torsion_disk_exact(p: float, radius: float = 1.0) -> float:
    """Radial p-torsion of the disk by direct quadrature of the closed form."""
    q = p / (p - 1.0)
    u = lambda r: (p - 1.0) / p * 2.0 ** (-1.0 / (p - 1.0)) * (radius**q - r**q)
    val, _ = quad(lambda r: 2.0 * math.pi * r * u(r), 0.0, radius)
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
