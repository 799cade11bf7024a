import json
import math

import pytest

import webtorsion.harness as harness
from webtorsion.cli import cli_dispatch


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


def test_missing_file_is_usage_error(capsys):
    assert cli_dispatch(["geometry", "/nonexistent/shape.json"]) == 1


def test_bad_arguments_exit_one(capsys):
    assert cli_dispatch(["bound"]) == 1
    assert cli_dispatch(["nonsense"]) == 1
    assert cli_dispatch(["bound", "x.json", "--weight", "cubic:2"]) == 1


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


def test_fuzz_deterministic_output(capsys):
    assert cli_dispatch(["fuzz", "--n", "30", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert cli_dispatch(["fuzz", "--n", "30", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first


def test_planted_violation_flips_fuzz_exit(capsys, monkeypatch):
    monkeypatch.setattr(harness, "DIAM_PER_HI", 2.5)  # below the true constant pi
    code = cli_dispatch(["fuzz", "--n", "30", "--seed", "3"])
    assert code == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["violations"]
