"""The four benchmark workloads: seeded inputs, timed operations and their checks.

A workload builds its inputs from the seed when constructed, then exposes
``warmup()`` and ``ops``: a fixed list of operations forming one round.
Each operation has a label, the number of cases it completes, a ``run``
callable (the timed call into webtorsion) and a ``check`` callable that
turns its result into failure messages (untimed).
"""
from __future__ import annotations

import bisect
import functools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import refs
import webtorsion.cli as cli
import webtorsion.harness as harness
import webtorsion.parallel as parallel
import webtorsion.shapes as shapes
from webtorsion import bounds, geometry, quantitative, solver

_MASK = (1 << 64) - 1
P_VALUES = (1.5, 2.0, 3.0)
W_CONST = parallel.WeightProfile.constant(1.0)


class Stream:
    """splitmix64 stream that derives every benchmark input from the seed."""

    def __init__(self, seed: int, salt: int):
        self._state = (seed * 0x2545F4914F6CDD1D ^ salt) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53


@dataclass
class Op:
    label: str
    cases: int
    run: Callable
    check: Callable


def _placed(vertices, rng: Stream, max_angle: float):
    """The vertex loop rotated by a seeded angle and shifted by a seeded offset."""
    th = max_angle * rng.uniform()
    shift = np.array([2.0 * rng.uniform() - 1.0, 2.0 * rng.uniform() - 1.0])
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    return geometry.polygon_from_vertices(np.asarray(vertices) @ rot.T + shift)


def _stratified(seed: int, salt: int, key, edges, per_bin: int, pool: int):
    """The first per_bin bodies of each bin [edges[j], edges[j + 1]) of key(body).

    Bodies come from a seeded corpus in index order. At least ``pool`` of
    them are drawn whatever the seed, so set-up does the same work on every
    seed; drawing goes on past the pool only while a bin is still short.
    """
    cfg = harness.FuzzConfig(seed=Stream(seed, salt).next_u64(), count=pool)
    bins = [[] for _ in edges[:-1]]
    i = 0
    while i < pool or any(len(b) < per_bin for b in bins):
        if i >= 100 * pool:
            raise RuntimeError(f"corpus bins {edges} not filled in {i} draws")
        body = harness.random_convex_body(cfg, i)
        i += 1
        j = bisect.bisect_right(edges, key(body)) - 1
        if 0 <= j < len(bins) and len(bins[j]) < per_bin:
            bins[j].append(body)
    return [b for group in bins for b in group]


class FuzzSweep:
    """`webtorsion fuzz --n N --grid 64 --out ...` in-process through cli_dispatch.

    One round is CORPORA dispatches, each over its own seeded corpus of N bodies.
    """

    N = 200
    CORPORA = 4
    SAMPLES = 2
    ROUND_S = 5.0

    def __init__(self, seed: int, out_dir):
        rng = Stream(seed, 0xF022)
        self.ops = []
        for c in range(self.CORPORA):
            fuzz_seed = rng.next_u64() >> 1
            out = out_dir / f"fuzz-{seed}-{c}.json"
            samples = sorted({rng.next_u64() % self.N for _ in range(self.SAMPLES)})
            self.ops.append(Op(
                f"fuzz{c}", self.N,
                functools.partial(self._dispatch, fuzz_seed, self.N, out),
                functools.partial(self._check, fuzz_seed, out, samples),
            ))
        self._warmup_args = (fuzz_seed, 1, out)

    @staticmethod
    def _dispatch(fuzz_seed: int, n: int, out) -> int:
        return cli.cli_dispatch([
            "fuzz", "--n", str(n), "--seed", str(fuzz_seed), "--grid", "64", "--out", str(out),
        ])

    def warmup(self):
        self._dispatch(*self._warmup_args)

    def _check(self, fuzz_seed, out, samples, status: int) -> list[str]:
        with open(out, encoding="utf-8") as fh:
            summary = json.load(fh)
        found = checks.fuzz_summary(status, summary, self.N)
        cfg = harness.FuzzConfig(seed=fuzz_seed, count=self.N)
        for i in samples:
            body = harness.random_convex_body(cfg, i)
            m = geometry.metrics(body)
            found += [f"body {i}: {msg}" for msg in checks.inradius(body.vertices, m.inradius, m.incenter)]
        return found


class BoundsCorpus:
    """Profiles at m = 512 for three weights and the bound chain at three p."""

    M = 512
    WEIGHTS = (("const", 0.0), ("linear", 1.0), ("exp", 1.0))
    VERTEX_EDGES = (3, 6, 9, 12, 65)
    PER_BIN = 3
    POOL = 60
    CLIP_NODES = (64, 192, 320, 448)
    ROUND_S = 5.0

    def __init__(self, seed: int, out_dir):
        rng = Stream(seed, 0xB0D5)
        bodies = [(f"corpus{i}", b, None) for i, b in enumerate(_stratified(
            seed, 0xB0D5, lambda b: len(b.vertices), self.VERTEX_EDGES, self.PER_BIN, self.POOL))]
        k = 256
        disk, _ = shapes.disk(1.0, k)
        bodies.append(("disk", _placed(disk.vertices, rng, 2.0 * math.pi / k), refs.RegularPolygon(k)))
        stadium, _ = shapes.stadium(0.5, 1.0, 256)
        bodies.append(("stadium", _placed(stadium.vertices, rng, math.pi), None))
        self.bodies = bodies
        self._clipped = {}
        self.ops = [
            Op(f"{name}/{kind}", 1, self._runner(poly, kind, param), self._checker(name, poly, kgon, kind, param))
            for name, poly, kgon in bodies
            for kind, param in self.WEIGHTS
        ]

    @staticmethod
    def _weight(kind, param):
        if kind == "const":
            return W_CONST
        if kind == "linear":
            return parallel.WeightProfile.truncated_linear(1.0, param)
        return parallel.WeightProfile.exponential(1.0, param)

    def _runner(self, poly, kind, param):
        weight = self._weight(kind, param)

        def run():
            prof = parallel.profile(poly, weight, self.M)
            reps = [bounds.bound_report(prof, p) for p in P_VALUES]
            parallel.steiner_check(prof)
            return prof, reps

        return run

    def warmup(self):
        _, poly, _ = self.bodies[0]
        self._runner(poly, "const", 0.0)()

    def _clip_reference(self, name, poly, t):
        if name not in self._clipped:
            loops = []
            for j in self.CLIP_NODES:
                inner = parallel.inner_body(poly, float(t[j]))
                loops.append(None if inner is None else np.array(inner.vertices))
            self._clipped[name] = loops
        return self._clipped[name]

    def _checker(self, name, poly, kgon, kind, param):
        A0, P0 = refs.area_perimeter(poly.vertices)

        def check(result):
            prof, reps = result
            out = []
            for rep in reps:
                out += checks.bound_chain(rep.closed, rep.refined, rep.integral)
                out += checks.bound_constants(rep.closed, rep.f_p_window, A0, P0, rep.p, kind == "const")
            out += checks.steiner(prof.t, prof.perimeters, prof.areas, A0, P0)
            for j, loop in zip(self.CLIP_NODES, self._clip_reference(name, poly, prof.t)):
                out += checks.clip_route(prof.perimeters[j], prof.areas[j], loop, A0, P0, j)
            if kgon is not None:
                out += checks.kgon_profile(kgon, prof.t, prof.perimeters, prof.areas)
                out += checks.kgon_mu_f(kgon, prof.mu_f_total, kind, param)
                if kind == "const":
                    for rep in reps:
                        out += checks.kgon_integral(kgon, rep.integral, rep.p)
            return [f"{name}/{kind}: {msg}" for msg in out]

        return check


class TorsionCorpus:
    """Richardson ladders (4h, 2h, h), h = R/8, at three p with theorem 2/3 reports."""

    # A / R^2 bins, equal in log scale: the mesh size, and so the cost, grows with it
    AR2_EDGES = (3.2, 4.5, 6.3, 8.8, 12.3, 17.3, 24.2, 33.9, 47.4)
    PER_BIN = 2
    POOL = 300
    ROUND_S = 4.0

    def __init__(self, seed: int, out_dir):
        def ar2(body):
            m = geometry.metrics(body)
            return m.area / m.inradius**2

        self.bodies = _stratified(seed, 0x7025, ar2, self.AR2_EDGES, self.PER_BIN, self.POOL)
        self.ops = [
            Op(f"body{i}/p{p}", 1, self._runner(poly, p), self._checker(poly, p))
            for i, poly in enumerate(self.bodies)
            for p in P_VALUES
        ]

    @staticmethod
    def _runner(poly, p):
        def run():
            body = geometry.metrics(poly)
            h = body.inradius / 8.0
            rich = solver.richardson_T(poly, W_CONST, p, [4.0 * h, 2.0 * h, h])
            t2 = quantitative.theorem2_report(body, rich.torsion, p)
            t3 = quantitative.theorem3_report(poly, rich.torsion, body) if p == 2.0 else None
            return rich, t2, t3

        return run

    def warmup(self):
        self._runner(self.bodies[0], 2.0)()

    @staticmethod
    def _checker(poly, p):
        def check(result):
            rich, t2, t3 = result
            return checks.torsion_case(
                poly.vertices, p, rich.torsion, t2.torsion, t2.F_p, t2.theorem2_ok,
                None if t3 is None else t3.theorem3_ok,
                None if t3 is None else t3.quantitative_R_ok,
            )

        return check


class FineLadder:
    """p = 2 ladders on the unit square (to 67k nodes) and disk(1, 256) (to 57k nodes)."""

    SQUARE_H = (1 / 48, 1 / 96, 1 / 192)
    DISK_H = (0.04, 0.02, 0.01)
    ROUND_S = 6.5

    def __init__(self, seed: int, out_dir):
        rng = Stream(seed, 0xF1AE)
        k = 256
        square = _placed([(0, 0), (1, 0), (1, 1), (0, 1)], rng, 0.5 * math.pi)
        disk, _ = shapes.disk(1.0, k)
        disk = _placed(disk.vertices, rng, 2.0 * math.pi / k)
        t_square = refs.rectangle_torsion(1.0, 1.0)
        disk_bracket = (refs.disk_torsion(2.0, math.cos(math.pi / k)), refs.disk_torsion(2.0, 1.0))
        self.square = square
        self.ops = [
            Op("square", 1, self._runner(square, self.SQUARE_H), self._checker(t_square, t_square)),
            Op("disk", 1, self._runner(disk, self.DISK_H), self._checker(*disk_bracket)),
        ]

    @staticmethod
    def _runner(poly, hs):
        return lambda: solver.richardson_T(poly, W_CONST, 2.0, list(hs))

    def warmup(self):
        self._runner(self.square, [4.0 * h for h in self.SQUARE_H])()

    @staticmethod
    def _checker(lo, hi):
        def check(rich):
            return checks.fine_ladder(rich.torsions, rich.torsion, rich.error, lo, hi)

        return check


WORKLOADS = {
    "fuzz_sweep": FuzzSweep,
    "bounds_corpus": BoundsCorpus,
    "torsion_corpus": TorsionCorpus,
    "fine_ladder": FineLadder,
}
