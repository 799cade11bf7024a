import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import webtorsion.cli as cli
import webtorsion.harness as harness
from webtorsion.bounds import bound_report
from webtorsion.cli import cli_dispatch
from webtorsion.geometry import metrics
from webtorsion.parallel import DEFAULT_GRID, WeightProfile, profile, steiner_check
from webtorsion.quantitative import theorem2_report, theorem3_report
from webtorsion.shapes import from_descriptor
from webtorsion.solver import richardson_T, solve_torsion, triangulate


@pytest.fixture()
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    return str(path)


@pytest.fixture()
def rect_file(tmp_path):
    path = tmp_path / "rect.json"
    path.write_text(json.dumps({"shape": "rectangle", "l": 0.2}))
    return str(path)


def test_geometry_command(square_file, capsys):
    assert cli_dispatch(["geometry", square_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["area"] == pytest.approx(1.0)
    assert out["perimeter"] == pytest.approx(4.0)
    assert out["inradius"] == pytest.approx(0.5, rel=1e-9)


def test_geometry_rejects_bad_shape(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [0.5, -0.1], [1, 1], [0, 1]]}))
    assert cli_dispatch(["geometry", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "desc, key",
    [
        ({"shape": "rectangle"}, "'l'"),
        ({"shape": "rectangle", "l": None}, "'l'"),
        ({"shape": "triangle", "l": [0.1]}, "'l'"),
        ({"shape": "stadium", "r": 1}, "'a'"),
        ({"shape": "disk", "k": None}, "'k'"),
        ({"vertices": {"x": 0}}, "'vertices'"),
        ({"shape": "disk", "k": 256.9}, "'k'"),
        ({"shape": "stadium", "r": 0.5, "a": 1, "k": 256.9}, "'k'"),
        ({"shape": "disk", "k": True}, "'k'"),
    ],
    ids=["missing", "null", "list", "stadium-missing", "disk-null", "vertices-object",
         "disk-fractional-k", "stadium-fractional-k", "disk-boolean-k"],
)
def test_malformed_descriptor_names_the_key(desc, key, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(desc))
    assert cli_dispatch(["geometry", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


def test_oversized_inputs_exit_one(square_file, tmp_path, monkeypatch, capsys):
    import webtorsion.parallel as parallel_mod
    import webtorsion.shapes as shapes_mod

    monkeypatch.setattr(parallel_mod, "_MAX_GRID", 100)
    monkeypatch.setattr(shapes_mod, "_MAX_POINTS", 100)
    for argv in (
        ["profile", square_file, "--grid", "101"],
        ["bound", square_file, "--grid", "101"],
        ["sequence", "--kind", "rectangle", "--l", "0.4", "--grid", "101"],
        ["fuzz", "--n", "3", "--grid", "101"],
    ):
        assert cli_dispatch(argv) == 1
        assert capsys.readouterr().err.startswith("error: grid size 101 above maximum 100")
    path = tmp_path / "big.json"
    for desc in ({"shape": "disk", "k": 101}, {"shape": "stadium", "r": 0.5, "a": 1, "k": 101}):
        path.write_text(json.dumps(desc))
        assert cli_dispatch(["geometry", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: need at most 100")


def test_fuzz_grid_checked_before_the_sweep(monkeypatch, capsys):
    # an empty corpus builds no profile, so only the up-front check can
    # reject the grid; a valid grid still gives the empty summary
    import webtorsion.harness as harness_mod

    bodies = []
    real = harness_mod.random_convex_body
    monkeypatch.setattr(harness_mod, "random_convex_body",
                        lambda cfg, i: bodies.append(i) or real(cfg, i))
    for grid, message in (("10", "below minimum 64"), ("99999999999", "above maximum 1048576")):
        for n in ("0", "3"):
            assert cli_dispatch(["fuzz", "--n", n, "--grid", grid]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: grid size") and message in err
    assert bodies == []
    assert cli_dispatch(["fuzz", "--n", "0", "--grid", "64"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 0


def test_huge_integer_in_a_descriptor_exits_one(tmp_path):
    # a 401-digit k is a whole number beyond the vertex cap, reported on one
    # line with no traceback
    path = tmp_path / "huge.json"
    path.write_text('{"shape": "disk", "k": 1' + "0" * 400 + "}")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-m", "webtorsion.cli", "geometry", str(path)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr.startswith("error: need at most") and "Traceback" not in run.stderr


def test_deficit_h_checked_against_a_quarter_of_the_inradius(tmp_path, capsys):
    # rectangle(0.5) has inradius 0.25; the ladder's coarsest size is 4 h
    path = tmp_path / "rect.json"
    path.write_text(json.dumps({"shape": "rectangle", "l": 0.5}))
    R4 = metrics(_polygon(path)).inradius / 4.0
    for h in ("0.1", "0.0625", "0", "-0.01", "nan"):
        assert cli_dispatch(["deficit", str(path), "--h", h]) == 1
        assert capsys.readouterr().err == (
            f"error: --h {float(h)!r} must lie in (0, R/4), and R/4 = {R4!r}\n")


def test_missing_file_is_usage_error(capsys):
    assert cli_dispatch(["geometry", "/nonexistent/shape.json"]) == 1


def test_bad_arguments_exit_one(square_file, capsys):
    assert cli_dispatch(["bound"]) == 1
    assert cli_dispatch(["nonsense"]) == 1
    assert cli_dispatch(["bound", "x.json", "--weight", "cubic:2"]) == 1
    # non-finite weights and tolerances: no NaN result may exit 0
    for weight in ("linear:nan", "exp:nan", "linear:inf", "exp:inf"):
        assert cli_dispatch(["bound", square_file, "--weight", weight]) == 1
    assert cli_dispatch(["solve", square_file, "--h", "0.25", "--weight", "exp:nan"]) == 1
    assert cli_dispatch(["solve", square_file, "--h", "0.25", "--p", "3", "--tol", "inf"]) == 1


def test_exponent_range_checked_before_any_work(square_file, monkeypatch, capsys):
    import webtorsion.cli as cli_mod
    import webtorsion.solver as solver_mod

    calls = []

    def recorded(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for mod, name in ((solver_mod, "triangulate"), (cli_mod, "triangulate"), (cli_mod, "profile")):
        monkeypatch.setattr(mod, name, recorded(name, getattr(mod, name)))
    for argv in (
        ["sequence", "--kind", "rectangle", "--l", "0.4,0.2,0.1", "--p", "1.05", "--grid", "64"],
        ["solve", square_file, "--p", "42"],
        ["deficit", square_file, "--p", "1.05"],
        ["bound", square_file, "--p", "nan"],
    ):
        assert cli_dispatch(argv) == 1
        assert calls == []
        assert "--p" in capsys.readouterr().err


def test_profile_command(square_file, tmp_path, capsys):
    out = tmp_path / "prof.csv"
    assert cli_dispatch(["profile", square_file, "--grid", "64", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,P,mu,mu_f"
    assert len(lines) == 66
    steiner = json.loads(capsys.readouterr().out)
    # unit square: the perimeter slack (8 - 2 pi) t is least at the first node t = 1/128
    assert steiner["perimeter_slack"] == pytest.approx((8.0 - 2.0 * math.pi) / 128, rel=1e-9)
    assert steiner["perimeter_node"] == 1


def test_profile_csv_roundtrip(square_file, unit_square, capsys):
    assert cli_dispatch(["profile", square_file, "--grid", "64"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,P,mu,mu_f"
    assert len(lines) == 66
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert rows[0].tolist() == [0.0, 4.0, 1.0, 1.0]
    # 17 significant digits read back to the very same doubles
    pr = profile(unit_square, WeightProfile.constant(1.0), 64)
    assert rows.T.tobytes() == np.stack([pr.t, pr.perimeters, pr.areas, pr.weighted]).tobytes()


def test_bound_command(square_file, capsys):
    assert cli_dispatch(["bound", square_file, "--p", "2", "--grid", "128"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["closed"] == pytest.approx(1.0 / 48.0, rel=1e-9)
    assert rep["F_p_window"] == [pytest.approx(1.0 / 3.0), pytest.approx(2.0 / 3.0)]
    assert cli_dispatch(["bound", square_file, "--p", "42"]) == 1


def test_solve_command(square_file, tmp_path, capsys):
    sol = tmp_path / "u.csv"
    code = cli_dispatch(
        ["solve", square_file, "--p", "2", "--h", "0.05", "--out", str(sol)]
    )
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["T"] == pytest.approx(0.0351, rel=0.02)
    lines = sol.read_text().splitlines()
    assert lines[0] == "x,y,u"
    assert len(lines) == rep["nodes"] + 1


def test_deficit_command(square_file, capsys):
    assert cli_dispatch(["deficit", square_file, "--p", "2", "--h", "0.07"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["theorem2_ok"] is True
    assert rep["theorem3_ok"] is True
    assert rep["branch"] == "large-deficit"
    assert "k_tilde_basis" in rep


def test_deficit_nonzero_exit_on_false_verdict(square_file, capsys, monkeypatch):
    import webtorsion.quantitative as quant

    monkeypatch.setattr(quant, "K_of_p", lambda p: 1e6)  # unsatisfiable slope
    assert cli_dispatch(["deficit", square_file, "--p", "2", "--h", "0.1"]) == 2


def test_sequence_exit_follows_every_verdict(rect_file, capsys, monkeypatch):
    import webtorsion.quantitative as quant

    # every body lands on the small-deficit branch, where only the
    # inradius-deficit inequality fails
    monkeypatch.setattr(quant, "sigma_threshold", lambda: 1.0)
    monkeypatch.setattr(quant, "QUANT_R_CONST", 1e9)
    assert cli_dispatch(["sequence", "--kind", "rectangle", "--l", "0.4", "--grid", "64"]) == 2
    row = capsys.readouterr().out.splitlines()[1]
    assert ",small-deficit,true,false," in row
    assert cli_dispatch(["deficit", rect_file, "--h", "0.02"]) == 2


def test_verdict_rule_at_p_other_than_two(rect_file, capsys, monkeypatch):
    import webtorsion.quantitative as quant

    # at p = 3 the p = 2 only verdicts are None, so theorem 2 alone decides
    monkeypatch.setattr(harness, "SEQUENCE_MESH_DIVISOR", 6)
    deficit = ["deficit", rect_file, "--p", "3", "--h", "0.02"]
    sequence = ["sequence", "--kind", "rectangle", "--l", "0.4", "--p", "3", "--grid", "64"]
    assert cli_dispatch(deficit) == 0
    assert cli_dispatch(sequence) == 0
    monkeypatch.setattr(quant, "K_of_p", lambda p: 1e6)  # unsatisfiable slope
    assert cli_dispatch(deficit) == 2
    assert cli_dispatch(sequence) == 2


def test_sequence_csv_deterministic(capsys, monkeypatch):
    monkeypatch.setattr(harness, "SEQUENCE_MESH_DIVISOR", 6)
    argv = ["sequence", "--kind", "rectangle", "--l", "0.4", "--grid", "128"]
    assert cli_dispatch(argv) == 0
    first = capsys.readouterr().out
    assert cli_dispatch(argv) == 0
    assert capsys.readouterr().out == first
    assert first.splitlines()[0].startswith("kind,l,p,area,perimeter")


def test_sequence_command(tmp_path, capsys):
    out = tmp_path / "seq.csv"
    svg = tmp_path / "seq.svg"
    code = cli_dispatch(
        ["sequence", "--kind", "rectangle", "--l", "0.4,0.2,0.1", "--p", "2",
         "--grid", "128", "--out", str(out), "--svg", str(svg)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header + one row per l
    assert svg.read_text().startswith("<svg")


def test_fuzz_command(capsys):
    assert cli_dispatch(["fuzz", "--n", "50", "--seed", "7"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["count"] == 50
    assert rep["violations"] == []


def test_fuzz_corpus_size_checked(capsys):
    assert cli_dispatch(["fuzz", "--n", "-5"]) == 1
    assert "error: " in capsys.readouterr().err
    assert cli_dispatch(["fuzz", "--n", "0"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["count"], rep["violations"]) == (0, [])


def test_fuzz_deterministic_output(capsys):
    assert cli_dispatch(["fuzz", "--n", "30", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert cli_dispatch(["fuzz", "--n", "30", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("grid", [None, 64])
def test_fuzz_worst_per_inequality(grid, capsys):
    argv = ["fuzz", "--n", "40", "--seed", "3"] + ([] if grid is None else ["--grid", str(grid)])
    assert cli_dispatch(argv) == 0
    worst = json.loads(capsys.readouterr().out)["worst"]
    cfg = harness.FuzzConfig(seed=3, count=40)
    slacks = [
        harness.classical_inequality_suite(harness.random_convex_body(cfg, i), grid)
        for i in range(cfg.count)
    ]
    assert set(worst) == set(slacks[0])
    for name, entry in worst.items():
        column = [s[name] for s in slacks]
        assert entry["slack"] == min(column)
        assert entry["body"] == column.index(min(column))


def test_planted_violation_flips_fuzz_exit(capsys, monkeypatch):
    monkeypatch.setattr(harness, "DIAM_PER_HI", 2.5)  # below the true constant pi
    code = cli_dispatch(["fuzz", "--n", "30", "--seed", "3"])
    assert code == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["violations"]


# Byte-level output: the expected bytes are rendered here from library values,
# JSON with sorted keys and two-space indent, CSV cells with 17 significant
# digits, true/false for verdicts and a blank cell for None.


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        return format(v, ".17g") if isinstance(v, float) else str(v)

    return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows])


@pytest.fixture()
def quad_file(tmp_path):
    path = tmp_path / "quad.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [2, 0], [1.5, 1], [0.2, 0.8]]}))
    return str(path)


def _polygon(path):
    with open(path, encoding="utf-8") as fh:
        return from_descriptor(json.load(fh))[0]


def test_geometry_bytes(quad_file, capsys):
    poly = _polygon(quad_file)
    m = metrics(poly)
    expected = {
        "area": m.area, "perimeter": m.perimeter, "diameter": m.diameter, "width": m.width,
        "width_direction": list(m.width_direction), "inradius": m.inradius,
        "incenter": list(m.incenter), "vertices": len(poly.vertices),
    }
    assert cli_dispatch(["geometry", quad_file]) == 0
    assert capsys.readouterr().out == _json_text(expected)


def test_bound_out_bytes(quad_file, tmp_path, capsys):
    out = tmp_path / "bound.json"
    argv = ["bound", quad_file, "--p", "3", "--weight", "exp:1", "--grid", "64", "--out", str(out)]
    assert cli_dispatch(argv) == 0
    assert capsys.readouterr().out == ""
    b = bound_report(profile(_polygon(quad_file), WeightProfile.exponential(1.0, 1.0), 64), 3.0)
    expected = {
        "p": b.p, "q": b.q, "c_p": b.c_p, "closed": b.closed, "refined": b.refined,
        "integral": b.integral, "inf_weight": b.inf_weight, "F_p_window": list(b.f_p_window),
    }
    assert out.read_text() == _json_text(expected)


def test_profile_out_bytes(quad_file, tmp_path, capsys):
    out = tmp_path / "prof.csv"
    argv = ["profile", quad_file, "--weight", "linear:0.5", "--grid", "64", "--out", str(out)]
    assert cli_dispatch(argv) == 0
    pr = profile(_polygon(quad_file), WeightProfile.truncated_linear(1.0, 0.5), 64)
    rows = zip(*(a.tolist() for a in (pr.t, pr.perimeters, pr.areas, pr.weighted)))
    assert out.read_text() == _csv_text(["t", "P", "mu", "mu_f"], rows)
    s = steiner_check(pr)
    expected = {
        "perimeter_slack": s.perimeter_slack, "perimeter_node": s.perimeter_node,
        "area_slack": s.area_slack, "area_node": s.area_node,
        "quotient_slack": s.quotient_slack, "quotient_node": s.quotient_node,
    }
    assert capsys.readouterr().out == _json_text(expected)


def test_solve_out_bytes(square_file, tmp_path, capsys):
    out = tmp_path / "u.csv"
    assert cli_dispatch(["solve", square_file, "--h", "0.25", "--p", "3", "--out", str(out)]) == 0
    mesh = triangulate(_polygon(square_file), 0.25)
    res = solve_torsion(mesh, WeightProfile.constant(1.0), 3.0, 1e-10)
    rows = np.column_stack((mesh.nodes, res.u)).tolist()
    assert out.read_text() == _csv_text(["x", "y", "u"], rows)
    expected = {
        "T": res.torsion, "J": res.energy, "iters": res.iterations, "grad_norm": res.grad_norm,
        "h": 0.25, "p": 3.0, "nodes": mesh.node_count,
    }
    assert capsys.readouterr().out == _json_text(expected)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_deficit_bytes(p, rect_file, capsys):
    poly = _polygon(rect_file)
    body = metrics(poly)
    h = 0.02
    code = cli_dispatch(["deficit", rect_file, "--p", str(p), "--h", str(h)])
    rich = richardson_T(poly, WeightProfile.constant(1.0), p, [4 * h, 2 * h, h])
    rep = theorem3_report(poly, rich.torsion, body) if p == 2.0 else theorem2_report(body, rich.torsion, p)
    expected = {
        "p": rep.p, "T": rep.torsion, "F_p": rep.F_p, "c_p": rep.c_p, "deficit": rep.deficit,
        "width_diam_ratio": rep.width_diam_ratio, "K_p": rep.K_p,
        "theorem2_rhs": rep.theorem2_rhs, "theorem2_ok": rep.theorem2_ok,
        "inradius_deficit": rep.inradius_deficit, "T_error": rich.error,
    }
    if p == 2.0:
        r = rep.rectangle
        expected.update({
            "rectangle": {
                "width_direction": list(r.width_direction), "long_side": r.long_side,
                "short_side": r.short_side, "corners": r.corners.tolist(),
                "symdiff_ratio": r.symdiff_ratio,
            },
            "symdiff_ratio": rep.symdiff_ratio, "sigma": rep.sigma, "k_tilde": rep.k_tilde,
            "k_tilde_basis": "min(sigma/8, 1/384), reconstructed constant",
            "branch": rep.branch, "theorem3_rhs": rep.theorem3_rhs,
            "theorem3_ok": rep.theorem3_ok, "quantitative_R_rhs": rep.quantitative_R_rhs,
            "quantitative_R_ok": rep.quantitative_R_ok,
        })
    assert code == (0 if rep.all_ok else 2)
    assert capsys.readouterr().out == _json_text(expected)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_sequence_bytes(p, capsys, monkeypatch):
    monkeypatch.setattr(harness, "SEQUENCE_MESH_DIVISOR", 6)
    argv = ["sequence", "--kind", "stadium", "--l", "0.4,0.2", "--p", str(p), "--grid", "64"]
    code = cli_dispatch(argv)
    rows = harness.run_sequence("stadium", (0.4, 0.2), p, 64)
    columns = harness.SEQUENCE_COLUMNS
    assert capsys.readouterr().out == _csv_text(columns, ([r[c] for c in columns] for r in rows))
    assert code == 0


def test_sequence_svg_bytes():
    # the chart of two rows, byte for byte: axes, polyline, the end labels
    # of each axis and the axis names
    rows = [{"l": 0.4, "F_p": 0.0123456789}, {"l": 0.1, "F_p": 0.5}]
    assert cli._sequence_svg(rows) == (
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" viewBox="0 0 640 480">\n'
        '<rect width="640" height="480" fill="white"/>\n'
        '<line x1="60" y1="420" x2="580" y2="420" stroke="black"/>\n'
        '<line x1="60" y1="60" x2="60" y2="420" stroke="black"/>\n'
        '<polyline points="580.00,420.00 60.00,60.00" fill="none" stroke="steelblue" '
        'stroke-width="2"/>\n'
        '<text x="60.00" y="440" font-size="12" text-anchor="middle">0.1</text>\n'
        '<text x="580.00" y="440" font-size="12" text-anchor="middle">0.4</text>\n'
        '<text x="52" y="420.00" font-size="12" text-anchor="end">0.0123457</text>\n'
        '<text x="52" y="60.00" font-size="12" text-anchor="end">0.5</text>\n'
        '<text x="320" y="465" font-size="14" text-anchor="middle">l</text>\n'
        '<text x="18" y="240" font-size="14" text-anchor="middle" '
        'transform="rotate(-90 18 240)">F_p</text>\n'
        "</svg>\n"
    )


@pytest.mark.parametrize("grid", [None, 64])
def test_fuzz_out_bytes(grid, tmp_path, capsys):
    out = tmp_path / "fuzz.json"
    argv = ["fuzz", "--n", "25", "--seed", "11", "--out", str(out)]
    assert cli_dispatch(argv + ([] if grid is None else ["--grid", str(grid)])) == 0
    assert capsys.readouterr().out == ""
    s = harness.fuzz_suite(harness.FuzzConfig(seed=11, count=25), grid)
    expected = {"count": s.count, "violations": s.violations, "worst": s.worst}
    assert out.read_text() == _json_text(expected)


# Every subcommand's arguments, order aside: dest -> (option strings,
# default, type, choices, required).
_HELP = (("-h", "--help"), argparse.SUPPRESS, None, None, False)
_SHAPE = ((), None, None, None, True)
_OUT = (("--out",), None, None, None, False)
_P = (("--p",), 2.0, cli._parse_p, None, False)
_WEIGHT = (("--weight",), WeightProfile.constant(1.0), cli._parse_weight, None, False)
_GRID = (("--grid",), DEFAULT_GRID, int, None, False)
_H = (("--h",), None, float, None, False)
_PARSER_TABLE = {
    "geometry": {"help": _HELP, "shape": _SHAPE, "out": _OUT},
    "profile": {"help": _HELP, "shape": _SHAPE, "weight": _WEIGHT, "grid": _GRID, "out": _OUT},
    "bound": {"help": _HELP, "shape": _SHAPE, "p": _P, "weight": _WEIGHT, "grid": _GRID,
              "out": _OUT},
    "solve": {"help": _HELP, "shape": _SHAPE, "p": _P, "weight": _WEIGHT, "h": _H,
              "tol": (("--tol",), 1e-10, float, None, False), "out": _OUT},
    "deficit": {"help": _HELP, "shape": _SHAPE, "p": _P, "h": _H, "out": _OUT},
    "sequence": {
        "help": _HELP,
        "kind": (("--kind",), None, None, ("rectangle", "triangle", "stadium"), True),
        "l": (("--l",), harness.DEFAULT_L_GRID, cli._parse_l_grid, None, False),
        "p": _P, "grid": _GRID, "out": _OUT, "svg": (("--svg",), None, None, None, False),
    },
    "fuzz": {"help": _HELP, "n": (("--n",), 1000, int, None, False),
             "seed": (("--seed",), 42, int, None, False),
             "grid": (("--grid",), None, int, None, False), "out": _OUT},
}


def test_parser_table():
    ap = cli._build_parser()
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    table = {
        name: {a.dest: (tuple(a.option_strings), a.default, a.type, a.choices, a.required)
               for a in parser._actions}
        for name, parser in sub.choices.items()
    }
    assert table == _PARSER_TABLE
