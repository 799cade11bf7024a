"""Command line surface: geometry, profile, bound, solve, deficit, sequence, fuzz.

Exit status: 0 when every requested verdict holds, 2 when an inequality
violation is detected, 1 on usage or convergence errors. ``deficit`` and
``sequence`` share one verdict rule (quantitative.VERDICTS): exit 2 when any
verdict they print is false, where a blank cell or an absent field is no
verdict. Outputs are deterministic: JSON with sorted keys, CSV with 17
significant digits and None as a blank cell. This module is the only one that
formats output: report dataclasses are written field by field, under the
names of _OUTPUT_NAMES where those differ.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, is_dataclass

import numpy as np

from . import harness, shapes
from .bounds import bound_report
from .errors import WebTorsionError, ViolationFound
from .geometry import metrics
from .parallel import DEFAULT_GRID, WeightProfile, profile, steiner_check
from .quantitative import K_TILDE_BASIS, _verdicts_hold
from .solver import P_MAX, P_MIN, solve_torsion, triangulate


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
        return shapes.from_descriptor(json.load(fh))[0]


_OUTPUT_NAMES = {"torsion": "T", "f_p_window": "F_p_window"}


def _fields(report) -> dict:
    """A report dataclass as a dict under its output names."""
    return {_OUTPUT_NAMES.get(k, k): v for k, v in asdict(report).items()}


def _json_default(obj):
    if is_dataclass(obj):
        return _fields(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write(text: str, out=None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out=None) -> None:
    _write(json.dumps(obj, sort_keys=True, indent=2, default=_json_default) + "\n", out)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _emit_csv(header, rows, out=None) -> None:
    """Comma separated rows under a header line; see _cell for the cells."""
    _write("".join(",".join(map(_cell, row)) + "\n" for row in [header, *rows]), out)


def _parse_l_grid(spec: str):
    return tuple(float(x) for x in spec.split(","))


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="webtorsion",
        description="planar convex bodies, p-torsion lower bounds and deficit checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def shared(*names, **kwargs) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **kwargs)
        return parent

    # each argument shared by several commands is declared once, here
    shape = shared("shape", help="shape descriptor JSON file")
    p = shared("--p", type=_parse_p, default=2.0)
    weight = shared("--weight", type=_parse_weight, default=WeightProfile.constant(1.0))
    grid = shared("--grid", type=int, default=DEFAULT_GRID)
    out = shared("--out", default=None)

    sub.add_parser("geometry", parents=[shape, out], help="classical metrics of a shape")

    pr = sub.add_parser("profile", parents=[shape, weight, grid], help="inner parallel profile as CSV")
    pr.add_argument("--out", default=None, help="CSV path (default stdout)")

    sub.add_parser("bound", parents=[shape, p, weight, grid, out], help="analytic lower bounds")

    s = sub.add_parser("solve", parents=[shape, p, weight], help="finite element torsion solve")
    s.add_argument("--h", type=float, default=None, help="target edge length (default R/16)")
    s.add_argument("--tol", type=float, default=1e-10)
    s.add_argument("--out", default=None, help="CSV path for the nodal solution x,y,u")

    d = sub.add_parser("deficit", parents=[shape, p, out], help="quantitative deficit report")
    d.add_argument("--h", type=float, default=None, help="finest mesh size (default R/12)")

    q = sub.add_parser("sequence", parents=[p, grid, out], help="thinning-family sweep as CSV")
    q.add_argument("--kind", choices=tuple(harness.SEQUENCE_KINDS), required=True)
    q.add_argument("--l", type=_parse_l_grid, default=harness.DEFAULT_L_GRID)
    q.add_argument("--svg", default=None, help="optional line plot of F_p against l")

    f = sub.add_parser("fuzz", parents=[out], help="classical inequality suite over a random corpus")
    f.add_argument("--n", type=int, default=1000)
    f.add_argument("--seed", type=int, default=42)
    f.add_argument("--grid", type=int, default=None, help="include Steiner checks at this grid")
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
    except (WebTorsionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run(args) -> int:
    poly = _load_polygon(args.shape) if "shape" in args else None
    if args.command == "geometry":
        _emit_json({**asdict(metrics(poly)), "vertices": len(poly.vertices)}, args.out)
        return 0

    if args.command == "profile":
        prof = profile(poly, args.weight, args.grid)
        rep = steiner_check(prof)
        columns = (prof.t, prof.perimeters, prof.areas, prof.weighted)
        _emit_csv(["t", "P", "mu", "mu_f"], zip(*(c.tolist() for c in columns)), args.out)
        if args.out:
            _emit_json(rep)
        return 0

    if args.command == "bound":
        prof = profile(poly, args.weight, args.grid)
        _emit_json(bound_report(prof, args.p), args.out)
        return 0

    if args.command == "solve":
        body = metrics(poly)
        h = args.h if args.h is not None else body.inradius / 16.0
        mesh = triangulate(poly, h)
        res = solve_torsion(mesh, args.weight, args.p, args.tol)
        if args.out:
            _emit_csv(["x", "y", "u"], np.column_stack((mesh.nodes, res.u)).tolist(), args.out)
        _emit_json({"T": res.torsion, "J": res.energy, "iters": res.iterations,
                    "grad_norm": res.grad_norm, "h": h, "p": args.p, "nodes": mesh.node_count})
        return 0

    if args.command == "deficit":
        body = metrics(poly)
        h = args.h if args.h is not None else body.inradius / 12.0
        # the ladder's coarsest size 4 h must lie below the inradius R
        if not (0.0 < h < body.inradius / 4.0):
            raise ValueError(f"--h {h!r} must lie in (0, R/4), and R/4 = {body.inradius / 4.0!r}")
        rich, rep = harness._deficit_check(poly, args.p, h)
        if rep.rectangle is not None:
            payload = {**_fields(rep), "k_tilde_basis": K_TILDE_BASIS}
        else:
            # the p = 2 only fields, all None here, are left out
            payload = {k: v for k, v in _fields(rep).items() if v is not None}
        _emit_json({**payload, "T_error": rich.error}, args.out)
        return 0 if rep.all_ok else 2

    if args.command == "sequence":
        rows = harness.run_sequence(args.kind, args.l, args.p, args.grid)
        columns = harness.SEQUENCE_COLUMNS
        _emit_csv(columns, ([row[c] for c in columns] for row in rows), args.out)
        if args.svg:
            with open(args.svg, "w", encoding="utf-8") as fh:
                harness.write_sequence_svg(rows, fh)
        return 0 if all(map(_verdicts_hold, rows)) else 2

    if args.command == "fuzz":
        cfg = harness.FuzzConfig(seed=args.seed, count=args.n)
        summary = harness.fuzz_suite(cfg, args.grid)
        _emit_json(summary, args.out)
        return 0 if not summary.violations else 2

    raise ValueError(f"unknown command {args.command!r}")  # pragma: no cover


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
