"""Command line surface: geometry, profile, bound, solve, deficit, sequence, fuzz.

Exit status: 0 when every requested verdict holds, 2 when an inequality
violation is detected, 1 on usage or convergence errors. Outputs are
deterministic: JSON with sorted keys, CSV with 17 significant digits.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import harness, shapes
from .bounds import bound_report
from .errors import WebTorsionError, ViolationFound
from .geometry import metrics
from .parallel import DEFAULT_GRID, WeightProfile, profile, steiner_check
from .quantitative import theorem2_report, theorem3_report
from .solver import P_MAX, P_MIN, richardson_T, solve_torsion, triangulate


def _parse_weight(spec: str) -> WeightProfile:
    if spec == "const":
        return WeightProfile.constant(1.0)
    if spec.startswith("linear:"):
        return WeightProfile.truncated_linear(1.0, float(spec.split(":", 1)[1]))
    if spec.startswith("exp:"):
        return WeightProfile.exponential(1.0, float(spec.split(":", 1)[1]))
    raise argparse.ArgumentTypeError(
        f"weight {spec!r} not of the form const, linear:beta or exp:lambda"
    )


def _parse_p(spec: str) -> float:
    p = float(spec)
    if not (P_MIN <= p <= P_MAX):
        raise argparse.ArgumentTypeError(
            f"p = {spec} outside the supported range [{P_MIN:g}, {P_MAX:g}]"
        )
    return p


def _load_polygon(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        desc = json.load(fh)
    return shapes.from_descriptor(desc)


def _emit_json(obj: dict, out=None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _parse_l_grid(spec: str):
    return tuple(float(x) for x in spec.split(","))


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="webtorsion",
        description="planar convex bodies, p-torsion lower bounds and deficit checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("geometry", help="classical metrics of a shape")
    g.add_argument("shape", help="shape descriptor JSON file")
    g.add_argument("--out", default=None)

    pr = sub.add_parser("profile", help="inner parallel profile as CSV")
    pr.add_argument("shape")
    pr.add_argument("--weight", type=_parse_weight, default=WeightProfile.constant(1.0))
    pr.add_argument("--grid", type=int, default=DEFAULT_GRID)
    pr.add_argument("--out", default=None, help="CSV path (default stdout)")

    b = sub.add_parser("bound", help="analytic lower bounds")
    b.add_argument("shape")
    b.add_argument("--p", type=_parse_p, default=2.0)
    b.add_argument("--weight", type=_parse_weight, default=WeightProfile.constant(1.0))
    b.add_argument("--grid", type=int, default=DEFAULT_GRID)
    b.add_argument("--out", default=None)

    s = sub.add_parser("solve", help="finite element torsion solve")
    s.add_argument("shape")
    s.add_argument("--p", type=_parse_p, default=2.0)
    s.add_argument("--weight", type=_parse_weight, default=WeightProfile.constant(1.0))
    s.add_argument("--h", type=float, default=None, help="target edge length (default R/16)")
    s.add_argument("--tol", type=float, default=1e-10)
    s.add_argument("--out", default=None, help="CSV path for the nodal solution x,y,u")

    d = sub.add_parser("deficit", help="quantitative deficit report")
    d.add_argument("shape")
    d.add_argument("--p", type=_parse_p, default=2.0)
    d.add_argument("--h", type=float, default=None, help="finest mesh size (default R/12)")
    d.add_argument("--out", default=None)

    q = sub.add_parser("sequence", help="thinning-family sweep as CSV")
    q.add_argument("--kind", choices=("rectangle", "triangle", "stadium"), required=True)
    q.add_argument("--l", type=_parse_l_grid, default=harness.DEFAULT_L_GRID)
    q.add_argument("--p", type=_parse_p, default=2.0)
    q.add_argument("--grid", type=int, default=DEFAULT_GRID)
    q.add_argument("--out", default=None)
    q.add_argument("--svg", default=None, help="optional line plot of F_p against l")

    f = sub.add_parser("fuzz", help="classical inequality suite over a random corpus")
    f.add_argument("--n", type=int, default=1000)
    f.add_argument("--seed", type=int, default=42)
    f.add_argument("--grid", type=int, default=None, help="include Steiner checks at this grid")
    f.add_argument("--out", default=None)
    return ap


def cli_dispatch(argv) -> int:
    """Run one subcommand; returns the process exit status."""
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except ViolationFound as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 2
    except (WebTorsionError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run(args) -> int:
    if args.command == "geometry":
        poly, _ = _load_polygon(args.shape)
        m = metrics(poly)
        _emit_json(
            {
                "area": m.area,
                "perimeter": m.perimeter,
                "diameter": m.diameter,
                "width": m.width,
                "width_direction": list(m.width_direction),
                "inradius": m.inradius,
                "incenter": list(m.incenter),
                "vertices": len(poly.vertices),
            },
            args.out,
        )
        return 0

    if args.command == "profile":
        poly, _ = _load_polygon(args.shape)
        prof = profile(poly, args.weight, args.grid)
        rep = steiner_check(prof)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                prof.to_csv(fh)
            _emit_json(rep.to_json_dict())
        else:
            prof.to_csv(sys.stdout)
        return 0

    if args.command == "bound":
        poly, _ = _load_polygon(args.shape)
        prof = profile(poly, args.weight, args.grid)
        _emit_json(bound_report(prof, args.p).to_json_dict(), args.out)
        return 0

    if args.command == "solve":
        poly, _ = _load_polygon(args.shape)
        body = metrics(poly)
        h = args.h if args.h is not None else body.inradius / 16.0
        mesh = triangulate(poly, h)
        res = solve_torsion(mesh, args.weight, args.p, args.tol)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write("x,y,u\n")
                for (x, y), u in zip(mesh.nodes, res.u):
                    fh.write(f"{x:.17g},{y:.17g},{u:.17g}\n")
        _emit_json(
            {
                "T": res.torsion,
                "J": res.energy,
                "iters": res.iterations,
                "grad_norm": res.grad_norm,
                "h": h,
                "p": args.p,
                "nodes": mesh.node_count,
            }
        )
        return 0

    if args.command == "deficit":
        poly, _ = _load_polygon(args.shape)
        body = metrics(poly)
        h = args.h if args.h is not None else body.inradius / 12.0
        w1 = WeightProfile.constant(1.0)
        rich = richardson_T(poly, w1, args.p, [4 * h, 2 * h, h])
        if args.p == 2.0:
            rep = theorem3_report(poly, rich.torsion, body)
        else:
            rep = theorem2_report(body, rich.torsion, args.p)
        payload = rep.to_json_dict()
        payload["T_error"] = rich.error
        _emit_json(payload, args.out)
        return 0 if rep.all_ok else 2

    if args.command == "sequence":
        rows = harness.run_sequence(args.kind, args.l, args.p, args.grid)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                harness.write_sequence_csv(rows, fh)
        else:
            harness.write_sequence_csv(rows, sys.stdout)
        if args.svg:
            with open(args.svg, "w", encoding="utf-8") as fh:
                harness.write_sequence_svg(rows, fh)
        ok = all(r["theorem2_ok"] for r in rows) and all(
            r["theorem3_ok"] in (True, "") for r in rows
        )
        return 0 if ok else 2

    if args.command == "fuzz":
        cfg = harness.FuzzConfig(seed=args.seed, count=args.n)
        summary = harness.fuzz_suite(cfg, args.grid)
        _emit_json(summary.to_json_dict(), args.out)
        return 0 if not summary.violations else 2

    raise ValueError(f"unknown command {args.command!r}")  # pragma: no cover


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
