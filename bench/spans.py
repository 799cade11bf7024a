"""In-memory span tracing by wrapping the public functions of each layer.

A span records name, start, end and parent. Wrappers replace the original
function object in every loaded module namespace that holds it, so calls
made through ``webtorsion.cli`` or ``webtorsion.harness`` are seen as well
as direct ones. Counts are recorded at the same boundaries.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# module -> public functions wrapped as one layer each
LAYERS = {
    "harness": ("random_convex_body", "fuzz_suite", "classical_inequality_suite"),
    "geometry": ("metrics",),
    "parallel": ("profile", "steiner_check"),
    "bounds": ("bound_report",),
    "solver": ("triangulate", "solve_torsion", "richardson_T"),
    "quantitative": ("theorem2_report", "theorem3_report"),
    "cli": ("cli_dispatch",),
}
# scipy entry points, wrapped only where webtorsion.solver calls them
SCIPY_IN_SOLVER = {"Delaunay": "solver.delaunay", "splu": "solver.splu"}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self.enabled = True
        self._stack = []

    def _count(self, name, result):
        c = self.counts
        if name == "harness.random_convex_body":
            c["harness.bodies"] += 1
        elif name == "geometry.metrics":
            c["geometry.metrics_calls"] += 1
        elif name == "parallel.profile":
            c["parallel.profile_nodes"] += len(result.t)
        elif name == "solver.triangulate":
            c["solver.triangulate_calls"] += 1
            c["solver.mesh_nodes"] += result.node_count
        elif name == "solver.delaunay":
            c["solver.delaunay_calls"] += 1
        elif name == "solver.splu":
            # what SuperLU stores for L and U; reading .L/.U would copy them
            c["solver.lu_fill_nnz"] += result.nnz
        elif name == "solver.solve_nonlinear":
            c["solver.nonlinear_iterations"] += result.iterations

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_name = name
            if name == "solver.solve_torsion":
                p = kwargs["p"] if "p" in kwargs else args[2]
                span_name = "solver.solve_p2" if p == 2.0 else "solver.solve_nonlinear"
            parent = self._stack[-1] if self._stack else -1
            span = [span_name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            self._count(span_name, result)
            return result

        return traced

    def install(self, package):
        """Replace every layer function wherever a module of the package holds it."""
        targets = {}
        for mod, names in LAYERS.items():
            module = sys.modules[f"{package.__name__}.{mod}"]
            for fname in names:
                fn = getattr(module, fname)
                targets[id(fn)] = (fn, self.wrap(fn, f"{mod}.{fname}"))
        solver = sys.modules[f"{package.__name__}.solver"]
        for attr, name in SCIPY_IN_SOLVER.items():
            fn = getattr(solver, attr)
            setattr(solver, attr, self.wrap(fn, name))
        prefix = package.__name__
        modules = [m for n, m in sys.modules.items() if n == prefix or n.startswith(prefix + ".")]
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[key] = hit[1]

    def self_times(self) -> dict:
        """Span duration minus the time its direct children cover, summed per name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
