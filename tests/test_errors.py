"""Bad input fails with a typed WebTorsionError, never a bare ValueError."""
import argparse
import ast
import math
import pathlib

import pytest

import webtorsion
from webtorsion import cli, shapes
from webtorsion.errors import BadParameter, WebTorsionError
from webtorsion.geometry import polygon_from_vertices
from webtorsion.harness import (FuzzConfig, classical_inequality_suite, fuzz_suite,
                                random_convex_body, run_sequence)
from webtorsion.parallel import WeightProfile, inner_body, profile
from webtorsion.solver import richardson_T, solve_torsion, triangulate

SQUARE = polygon_from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])
W1 = WeightProfile.constant(1.0)


def _deficit_with_too_coarse_h(tmp_path):
    path = tmp_path / "square.json"
    path.write_text('{"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}')
    cli._run(cli._build_parser().parse_args(["deficit", str(path), "--h", "0.2"]))


BAD_INPUTS = {
    "weight kind": lambda tmp: WeightProfile("bogus"),
    "weight at zero": lambda tmp: WeightProfile.constant(0.0),
    "weight slope": lambda tmp: WeightProfile.truncated_linear(1.0, -1.0),
    "inner body depth": lambda tmp: inner_body(SQUARE, -0.1),
    "mesh size": lambda tmp: triangulate(SQUARE, 0.5),
    "solve tol": lambda tmp: solve_torsion(triangulate(SQUARE, 0.25), W1, 2.0, 0.0),
    "ladder length": lambda tmp: richardson_T(SQUARE, W1, 2.0, [0.2, 0.1]),
    "ladder sizes": lambda tmp: richardson_T(SQUARE, W1, 2.0, [0.2, 0.1, math.nan]),
    "ladder halving": lambda tmp: richardson_T(SQUARE, W1, 2.0, [0.2, 0.1, 0.04]),
    "corpus size": lambda tmp: FuzzConfig(count=-1),
    "vertex counts": lambda tmp: FuzzConfig(min_vertices=2),
    "anisotropy": lambda tmp: FuzzConfig(tau_min=0.0),
    "sequence kind": lambda tmp: run_sequence("pentagon", (0.2,), 2.0),
    "deficit h": _deficit_with_too_coarse_h,
    "cli command": lambda tmp: cli._run(argparse.Namespace(command="bogus")),
    "descriptor integer": lambda tmp: shapes.from_descriptor({"shape": "disk", "k": 2.5}),
    # a count is an int: a float, even a whole one, or NaN is not
    "profile grid": lambda tmp: profile(SQUARE, W1, 100.0),
    "profile grid nan": lambda tmp: profile(SQUARE, W1, math.nan),
    "suite grid": lambda tmp: classical_inequality_suite(SQUARE, 100.0),
    "fuzz grid": lambda tmp: fuzz_suite(FuzzConfig(count=1), 100.0),
    "sequence grid": lambda tmp: run_sequence("rectangle", (0.4,), 2.0, 100.0),
    "disk vertices": lambda tmp: shapes.disk(1.0, 64.0),
    "stadium arc points": lambda tmp: shapes.stadium(1.0, 1.0, 64.5),
    "corpus seed": lambda tmp: FuzzConfig(seed=1.5),
    "corpus count": lambda tmp: FuzzConfig(count=2.5),
    "corpus vertex count": lambda tmp: FuzzConfig(min_vertices=3.5),
    "case index": lambda tmp: random_convex_body(FuzzConfig(), 1.5),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_raises_a_typed_error(case, tmp_path):
    # BadParameter is a ValueError too, so argparse and ValueError callers
    # keep catching it
    with pytest.raises(WebTorsionError) as err:
        BAD_INPUTS[case](tmp_path)
    assert isinstance(err.value, BadParameter) and isinstance(err.value, ValueError)


def test_no_bare_value_error_in_the_package():
    raised = []
    for path in sorted(pathlib.Path(webtorsion.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                raised.append(f"{path.name}:{node.lineno}")
    assert raised == []
