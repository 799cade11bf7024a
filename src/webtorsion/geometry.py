"""Convex polygon kernel: construction and classical metrics.

Polygons model bounded, open, convex planar bodies. They are stored as
counter-clockwise vertex arrays with strictly convex corners; collinear and
duplicate vertices are merged at construction time. All operations are pure
functions over immutable values.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import Degenerate, NonConvex, NonPositiveScale

# Normalized cross products below this are treated as collinear.
MERGE_EPS = 1e-12
# Vertices closer than this are duplicates.
MIN_VERTEX_SEP = 1e-12
# Polygons with area below this are rejected as degenerate.
MIN_AREA = 1e-9


def _shoelace(v: np.ndarray) -> float:
    w = np.concatenate((v[1:], v[:1]))
    return 0.5 * float(np.sum(v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]))


@dataclass(frozen=True)
class ConvexPolygon:
    """Counter-clockwise, strictly convex planar polygon.

    Use :func:`polygon_from_vertices` to build one from raw points; the
    constructor itself only validates an already canonical vertex array. It
    measures the edges once and caches the area and the edge data.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise Degenerate("need an (k, 2) array with k >= 3")
        if not np.all(np.isfinite(v)):
            raise Degenerate("non-finite vertex coordinates")
        v = np.array(v, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        area = _shoelace(v)
        if area <= 0.0:
            raise NonConvex("vertices are not in counter-clockwise order")
        # edge i runs from vertex i to vertex i + 1
        e = np.concatenate((v[1:], v[:1])) - v
        length = np.linalg.norm(e, axis=1)
        # strict convexity at every corner: edge i - 1 turns left into edge i
        ep = np.concatenate((e[-1:], e[:-1]))
        cross = ep[:, 0] * e[:, 1] - ep[:, 1] * e[:, 0]
        norm = np.concatenate((length[-1:], length[:-1])) * length
        if np.any(norm < MIN_VERTEX_SEP**2):
            raise Degenerate("duplicate vertices")
        if np.any(cross / norm <= 0.0):
            raise NonConvex("reflex or flat corner in canonical polygon")
        # a star polygon turns left at every corner too, but its turns sum to
        # a multiple of 2 pi above 2 pi
        ang = np.arctan2(e[:, 1], e[:, 0])
        turn = (np.diff(ang, append=ang[0]) + np.pi) % (2 * np.pi) - np.pi
        if abs(float(np.sum(turn)) - 2 * np.pi) > 1e-6:
            raise NonConvex("boundary winds more than once")
        # inward unit normals n_i and offsets b_i with n_i . x >= b_i on the
        # body: the inward normal of a CCW edge is its left-rotated direction
        n = np.column_stack((-e[:, 1], e[:, 0])) / length[:, None]
        object.__setattr__(self, "_area", area)
        object.__setattr__(self, "_edges", (n, np.einsum("ij,ij->i", n, v), length))

    @property
    def edge_normals(self) -> np.ndarray:
        return self._edges[0]

    @property
    def edge_offsets(self) -> np.ndarray:
        return self._edges[1]

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance to the boundary, positive inside (exact for convex polygons)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n, b, _ = self._edges
        out = np.full(len(pts), np.inf)
        for i in range(len(b)):
            np.minimum(out, pts @ n[i] - b[i], out=out)
        return out


@dataclass(frozen=True)
class BodyMetrics:
    """Classical metrics of a convex body."""

    area: float
    perimeter: float
    diameter: float
    width: float
    width_direction: tuple[float, float]
    inradius: float
    incenter: tuple[float, float]


def _canonicalize(points: np.ndarray) -> np.ndarray:
    """Drop duplicate and collinear vertices, keeping the traversal order."""
    pts = [tuple(p) for p in points]
    changed = True
    while changed and len(pts) >= 3:
        changed = False
        # duplicates first
        kept = []
        for p in pts:
            if kept and math.hypot(p[0] - kept[-1][0], p[1] - kept[-1][1]) < MIN_VERTEX_SEP:
                changed = True
                continue
            kept.append(p)
        if len(kept) >= 2 and math.hypot(
            kept[0][0] - kept[-1][0], kept[0][1] - kept[-1][1]
        ) < MIN_VERTEX_SEP:
            kept.pop()
            changed = True
        pts = kept
        if len(pts) < 3:
            break
        # collinear corners next
        kept = []
        m = len(pts)
        for j in range(m):
            a = pts[j - 1]
            p = pts[j]
            c = pts[(j + 1) % m]
            ux, uy = p[0] - a[0], p[1] - a[1]
            wx, wy = c[0] - p[0], c[1] - p[1]
            cross = ux * wy - uy * wx
            norm = math.hypot(ux, uy) * math.hypot(wx, wy)
            if norm > 0 and cross / norm <= -MERGE_EPS:
                raise NonConvex(f"reflex turn at vertex {j}: {p}")
            if norm == 0 or abs(cross) / norm < MERGE_EPS:
                changed = True
                continue
            kept.append(p)
        pts = kept
    return np.asarray(pts, dtype=float)


def polygon_from_vertices(points) -> ConvexPolygon:
    """Build a canonical convex polygon from an ordered point list.

    The points must trace the boundary once (either orientation); clockwise
    input is reversed. Collinear vertices are merged, duplicates dropped.

    Raises
    ------
    NonConvex
        If a reflex turn is found, or the boundary winds more than once.
    Degenerate
        If fewer than 3 usable points remain or the area is below 1e-9.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise Degenerate("expected an (k, 2) array of points")
    if pts.shape[0] < 3:
        raise Degenerate("need at least 3 points")
    if not np.all(np.isfinite(pts)):
        raise Degenerate("non-finite input coordinates")
    area = _shoelace(pts)
    if area < 0:
        pts = pts[::-1]
    merged = _canonicalize(pts)
    if merged.shape[0] < 3:
        raise Degenerate("fewer than 3 vertices after merging")
    poly = ConvexPolygon(merged)
    if poly._area < MIN_AREA:
        raise Degenerate(f"area {poly._area:.3e} below {MIN_AREA:.0e}")
    return poly


def scale(polygon: ConvexPolygon, t: float) -> ConvexPolygon:
    """Dilate the body by t > 0 about the origin."""
    if not (t > 0.0):
        raise NonPositiveScale(f"scale factor {t!r} must be positive")
    return polygon_from_vertices(polygon.vertices * t)


def _calipers(polygon: ConvexPolygon):
    """Diameter, minimal width and its direction in one antipodal sweep.

    Rotating calipers (Toussaint 1983): the vertex j farthest from the line of
    edge i advances monotonically with i. The minimal width is attained on an
    edge normal, at the least height of j over edge i (the first edge on
    ties), and the diameter between an end of edge i and j or j + 1.
    """
    v = polygon.vertices.tolist()
    nrm = polygon._edges[0].tolist()
    k = len(v)
    d2, width, width_dir = 0.0, math.inf, None
    j = 1
    for i in range(k):
        (xa, ya), (xb, yb) = v[i], v[(i + 1) % k]
        nx, ny = nrm[i]
        h = nx * v[j][0] + ny * v[j][1]
        while True:
            j1 = (j + 1) % k
            h1 = nx * v[j1][0] + ny * v[j1][1]
            if h1 <= h:
                break
            j, h = j1, h1
        w = h - min(nx * xa + ny * ya, nx * xb + ny * yb)
        if w < width:
            width, width_dir = w, (nx, ny)
        for x, y in (v[j], v[j1]):
            d2 = max(
                d2,
                (x - xa) * (x - xa) + (y - ya) * (y - ya),
                (x - xb) * (x - xb) + (y - yb) * (y - yb),
            )
    return math.sqrt(d2), width, width_dir


def _tan_half_turn(na, nb) -> float:
    """tan(phi/2) for the counter-clockwise turn phi in (0, pi) from normal na to nb."""
    cross = na[0] * nb[1] - na[1] * nb[0]
    dot = na[0] * nb[0] + na[1] * nb[1]
    # each form avoids the cancellation of the other: 1 + cos phi near pi, sin phi near 0
    return cross / (1.0 + dot) if dot >= 0.0 else (1.0 - dot) / cross


def _skeleton(polygon: ConvexPolygon):
    """Edge-collapse events of the convex straight skeleton, cached on the polygon.

    Pushing every edge inward by t moves each vertex along its bisector and
    shortens each edge at rate tan(phi_a/2) + tan(phi_b/2), phi_a and phi_b the
    turns at its ends. An edge of length zero collapses: its two end vertices
    merge into one whose turn is their sum. So between consecutive events
    t_j <= t <= t_{j+1} the inner body has

        P(t) = P_j - 2 C_j (t - t_j),  mu(t) = mu_j - P_j (t - t_j) + C_j (t - t_j)^2,

    C_j the sum of tan(phi/2) over its vertices. The last event is the first
    merge whose turn reaches pi (to MERGE_EPS in its sine): there the body is
    a point or a segment, and its depth is the inradius.

    Returns ``(times, P, mu, C, incenter)``: ``times`` holds t_0 = 0, ..., t_J,
    the other arrays the J pieces, and ``incenter`` the midpoint of the
    bounding box of the surviving skeleton vertices at t_J, which is the
    skeleton's last node or the midpoint of its last segment.
    """
    cached = polygon.__dict__.get("_skeleton")
    if cached is not None:
        return cached
    n, b, length = polygon._edges
    k = len(b)
    nrm = n.tolist()
    prv = [(i - 1) % k for i in range(k)]
    nxt = [(i + 1) % k for i in range(k)]
    # h[i] is tan of the half turn at the start vertex of edge i; edge i
    # shrinks at rate[i] and reaches length zero at depth tau[i]
    h = [_tan_half_turn(nrm[i - 1], nrm[i]) for i in range(k)]
    rate = [h[i] + h[nxt[i]] for i in range(k)]
    tau = (length / rate).tolist()
    heap = list(zip(tau, range(k)))
    heapq.heapify(heap)
    t, P, mu, C = 0.0, float(length.sum()), polygon._area, math.fsum(h)
    times, pieces = [t], [(P, mu, C)]
    while True:
        t_i, i = heapq.heappop(heap)
        if t_i != tau[i]:
            continue  # stale entry
        d = max(t_i - t, 0.0)
        a, c = prv[i], nxt[i]
        na, nc = nrm[a], nrm[c]
        cross = na[0] * nc[1] - na[1] * nc[0]
        if cross <= 0.0 or (cross <= MERGE_EPS and na[0] * nc[0] + na[1] * nc[1] < 0.0):
            break
        mu -= d * (P - C * d)
        P -= 2.0 * C * d
        t += d
        nxt[a], prv[c] = c, a
        tau[i], h[i] = math.inf, 0.0
        h[c] = _tan_half_turn(na, nc)
        for e in (a, c):
            r = h[e] + h[nxt[e]]
            tau[e] = t + (tau[e] - t) * rate[e] / r
            rate[e] = r
            heapq.heappush(heap, (tau[e], e))
        # summed afresh: a running sum would cancel after a merged turn near pi
        C = math.fsum(h)
        times.append(t)
        pieces.append((P, mu, C))
    t += d
    times.append(t)
    # the surviving vertices at depth t, each where two consecutive lines
    # n . x = b + t meet. A vertex turning by more than 3 pi / 4 moves faster
    # than 2.6 and is dropped, as it magnifies the roundoff of t. Turns sum to
    # pi at each end of a segment and to 2 pi around a point, so a vertex
    # turning by 2 pi / 3 or less remains at every end.
    ends = [(i, nxt[i])]
    while ends[-1][1] != i:
        ends.append((ends[-1][1], nxt[ends[-1][1]]))
    ends = np.array(ends)
    ends = ends[np.einsum("ij,ij->i", n[ends[:, 0]], n[ends[:, 1]]) >= math.cos(0.75 * math.pi)]
    x = np.linalg.solve(n[ends], (b[ends] + t)[:, :, None])[:, :, 0]
    c = 0.5 * (x.min(axis=0) + x.max(axis=0))
    cached = (np.array(times), *np.array(pieces).T, (float(c[0]), float(c[1])))
    object.__setattr__(polygon, "_skeleton", cached)
    return cached


def metrics(polygon: ConvexPolygon) -> BodyMetrics:
    """Area, perimeter, diameter, minimal width and inradius of the body.

    The incenter is the straight skeleton's last node, or the midpoint of its
    last segment when the deepest inner body is a segment (see
    :func:`_skeleton`). The inradius is the exact minimal edge distance of
    that incenter, so the inscribed disk fits by construction. Results are
    cached on the polygon, which is safe because polygons are immutable.
    """
    cached = polygon.__dict__.get("_metrics")
    if cached is not None:
        return cached
    diameter, width, width_dir = _calipers(polygon)
    n, b, length = polygon._edges
    incenter = _skeleton(polygon)[4]
    inradius = float(np.min(n @ np.asarray(incenter) - b))
    m = BodyMetrics(
        area=polygon._area,
        perimeter=float(np.sum(length)),
        diameter=diameter,
        width=width,
        width_direction=width_dir,
        inradius=inradius,
        incenter=incenter,
    )
    object.__setattr__(polygon, "_metrics", m)
    return m
