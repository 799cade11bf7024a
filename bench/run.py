"""Benchmark of webtorsion: one workload per run, one JSON result line.

    python3 bench/run.py --workload fuzz_sweep --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ./src. With
--trace 0 the result holds the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run (spans go to bench/out/). Messages about
failed checks go to stderr; the last stdout line is the JSON result.
"""
import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# one process, one thread: pin BLAS and OpenMP before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

END_TO_END = {"setup_s": "s", "cases_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_TIMES = (
    "harness.random_convex_body", "geometry.metrics", "parallel.profile",
    "parallel.steiner_check", "bounds.bound_report", "solver.triangulate",
    "solver.delaunay", "solver.splu", "solver.solve_p2", "solver.solve_nonlinear",
    "solver.richardson_T", "quantitative.theorem2_report",
    "quantitative.theorem3_report", "cli.cli_dispatch",
)
PER_LAYER_COUNTS = (
    "harness.bodies", "geometry.metrics_calls", "parallel.profile_nodes",
    "solver.triangulate_calls", "solver.delaunay_calls", "solver.mesh_nodes",
    "solver.lu_fill_nnz", "solver.nonlinear_iterations",
)

# op seconds between two samples of the reference kernel
CALIBRATE_EVERY_S = 1.0


def _since_process_start() -> float:
    """Seconds from process start to now, at clock-tick resolution (0 if unknown)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime", encoding="ascii") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    elapsed = uptime - start_ticks / os.sysconf("SC_CLK_TCK")
    return elapsed if 0.0 <= elapsed < 60.0 else 0.0


_STARTUP_S = _since_process_start()
_T0 = time.perf_counter()


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_package():
    """webtorsion from ./src of this checkout, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import webtorsion

    if Path(webtorsion.__file__).resolve().parent.parent != src:
        raise ImportError(f"webtorsion resolved to {webtorsion.__file__}, not under {src}")
    return webtorsion


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        webtorsion = _import_package()
    except ImportError as exc:
        print(f"cannot import webtorsion from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import spans
    import workloads
    from webtorsion.errors import WebTorsionError

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(webtorsion)
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    wl.warmup()
    setup_s = _STARTUP_S + (time.perf_counter() - _T0)
    import calib  # after set-up, so its import adds nothing to setup_s

    # a fixed amount of work per (workload, seconds): whole rounds of the same ops
    rounds = max(1, round(args.seconds / wl.ROUND_S))
    attempted = failed = 0
    failures = []
    op_seconds = [[] for _ in wl.ops]
    op_scaled = [[] for _ in wl.ops]  # op times rescaled to the reference speed
    kernel_s = []  # every reference-kernel sample of the run
    for r in range(rounds):
        before = calib.sample()
        kernel_s.append(before)
        pending = []  # (op index, seconds) since the last reference sample
        for i, op in enumerate(wl.ops):
            attempted += op.cases
            t0 = time.perf_counter()
            try:
                result, ok = op.run(), True
            except WebTorsionError as exc:
                failed += op.cases
                ok = False
                print(f"round {r} {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            elapsed = time.perf_counter() - t0
            op_seconds[i].append(elapsed)
            pending.append((i, elapsed))
            if ok:
                if tracer:
                    tracer.enabled = False
                failures += [f"round {r} {op.label}: {msg}" for msg in op.check(result)]
                if tracer:
                    tracer.enabled = True
            if sum(t for _, t in pending) >= CALIBRATE_EVERY_S or i == len(wl.ops) - 1:
                # ops between two reference samples run at their mean speed
                after = calib.sample()
                kernel_s.append(after)
                scale = 2.0 * calib.REFERENCE_S / (before + after)
                for j, t in pending:
                    op_scaled[j].append(t * scale)
                pending, before = [], after
        print(f"round {r}: ops {sum(s[-1] for s in op_seconds):.4f} s, "
              f"reference kernel {before:.4f} s", file=sys.stderr)
    for msg in failures:
        print(f"CHECK FAILED {msg}", file=sys.stderr)
    per_round = (attempted - failed) / rounds
    raw = per_round / sum(statistics.median(s) for s in op_seconds)
    scaled = per_round / sum(statistics.median(s) for s in op_scaled)
    print(f"cases/s: {raw:.4f} wall, {scaled:.4f} at reference speed", file=sys.stderr)
    # set-up ran just before the first sample, at the speed the run's samples show
    setup_scaled = setup_s * calib.REFERENCE_S / statistics.median(kernel_s)
    print(f"setup: {setup_s:.4f} s wall, {setup_scaled:.4f} s at reference speed", file=sys.stderr)

    if tracer:
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
        self_s = tracer.self_times()
        metrics = {f"{name}_s": {"value": self_s.get(name, 0.0), "unit": "s"} for name in PER_LAYER_TIMES}
        metrics.update({name: {"value": tracer.counts.get(name, 0), "unit": "count"} for name in PER_LAYER_COUNTS})
    else:
        values = {
            "setup_s": setup_scaled,
            "cases_per_s": scaled,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
