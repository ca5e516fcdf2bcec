import argparse
import collections
import copy
import json
import logging
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torusweights import (
    HomogeneityError,
    InputError,
    InternalError,
    ModuleTermOrder,
    PolyMatrix,
    PolynomialSyntaxError,
    ProblemFileError,
    ScalarMatrix,
    buchberger,
    is_minimal_map,
    minimal_resolution,
    propagate,
    propagate_forward,
    propagate_graded_components,
    propagate_resolution,
    syzygies,
)
from torusweights import problemfile
from torusweights.cli import _SUBCOMMANDS, _build_parser, main
from torusweights.parsing import MAX_EXPONENT, parse_polynomial
from torusweights.problemfile import load_problem, problem_from_dict, problem_to_dict, scalar_matrix_to_rows

from conftest import PROBLEMS, fixture_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_propagate_json(capsys):
    code, out, err = run(
        capsys, "propagate", "--input", str(fixture_path("two_variables.json")), "--json"
    )
    assert code == 0
    assert out == '{"change_of_basis":[["0","1"],["1","0"]],"weights":[[0,1],[1,0]]}\n'


def test_propagate_human_golden(capsys):
    code, out, err = run(capsys, "propagate", "--input", str(fixture_path("two_variables.json")))
    assert code == 0
    assert out == "C =\n  [ 0  1 ]\n  [ 1  0 ]\nV =\n  (0, 1)\n  (1, 0)\n"


def test_propagate_is_deterministic(capsys):
    first = run(capsys, "propagate", "--input", str(fixture_path("bigraded.json")), "--json")
    second = run(capsys, "propagate", "--input", str(fixture_path("bigraded.json")), "--json")
    assert first == second
    payload = json.loads(first[1])
    assert payload["weights"] == [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 1], [0, 0, 2, 0]]


def test_graded_weights(capsys):
    code, out, err = run(
        capsys,
        "graded-weights",
        "--input", str(fixture_path("bigraded.json")),
        "--degree", "0,1",
        "--json",
    )
    assert code == 0
    assert json.loads(out) == {"weights": [[0, 0, 0, 1], [0, 0, 1, 0]]}


def test_propagate_resolution(capsys):
    code, out, err = run(
        capsys,
        "propagate-resolution",
        "--input", str(fixture_path("koszul.json")),
        "--from", "0",
        "--json",
    )
    assert code == 0
    assert json.loads(out) == {
        "weights_by_module": [
            [[0, 0, 0]],
            [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
            [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
            [[1, 1, 1]],
        ]
    }


def test_propagate_resolution_from_top(capsys):
    code, out, err = run(
        capsys,
        "propagate-resolution",
        "--input", str(fixture_path("grassmannian.json")),
        "--from", "3",
        "--weights", "V3",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["weights_by_module"][0] == [[0, 0, 0, 0, 0]]
    assert payload["weights_by_module"][1] == [
        [0, 1, 1, 1, 1], [1, 0, 1, 1, 1], [1, 1, 0, 1, 1], [1, 1, 1, 0, 1], [1, 1, 1, 1, 0]
    ]


def test_propagate_resolution_empty_matrices_flag(capsys):
    # an empty name list used to fall back to the file's resolution list
    for value in ("", " "):
        code, out, err = run(
            capsys, "propagate-resolution", "--input", str(fixture_path("koszul.json")),
            "--matrices", value, "--json",
        )
        assert (code, out) == (2, "")
        assert err == "parse error: --matrices names no differentials\n"


def test_resolve_human_golden(capsys):
    code, out, err = run(capsys, "resolve", "--input", str(fixture_path("koszul.json")), "--matrix", "d1")
    assert (code, err) == (0, "")
    assert out == (
        "minimal free resolution of length 3\n"
        "ranks: 1 3 3 1\n"
        "d1 =\n  [ x1  x1+x2  x1+x3 ]\n"
        "d2 =\n  [ x1+x2  x1+x3  x2-x3 ]\n  [   -x1      0     x3 ]\n  [     0    -x1    -x2 ]\n"
        "d3 =\n  [  x3 ]\n  [ -x2 ]\n  [  x1 ]\n"
    )


def test_propagate_resolution_human_golden(capsys):
    code, out, err = run(capsys, "propagate-resolution", "--input", str(fixture_path("koszul.json")), "--from", "0")
    assert (code, err) == (0, "")
    assert out == (
        "V0 =\n  (0, 0, 0)\n"
        "V1 =\n  (0, 0, 1)\n  (0, 1, 0)\n  (1, 0, 0)\n"
        "V2 =\n  (0, 1, 1)\n  (1, 0, 1)\n  (1, 1, 0)\n"
        "V3 =\n  (1, 1, 1)\n"
    )


def test_graded_weights_human_golden(capsys):
    code, out, err = run(
        capsys, "graded-weights", "--input", str(fixture_path("bigraded.json")), "--degree", "0,1"
    )
    assert (code, err) == (0, "")
    assert out == "V =\n  (0, 0, 0, 1)\n  (0, 0, 1, 0)\n"


def test_empty_matrices_print_their_shape(capsys, tmp_path):
    doc = two_variables_document()
    doc["modules"]["N"] = {"degrees": []}
    doc["matrices"] = {"m": {"rows": "F0", "cols": "N", "entries": [[]]}}
    path = tmp_path / "no_columns.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "gb", "--input", str(path))
    assert (code, out, err) == (0, "reduced Groebner basis with 0 elements\nG =\n  (empty 1x0 matrix)\n", "")
    code, out, err = run(capsys, "propagate", "--input", str(path))
    assert (code, out, err) == (0, "C =\n  (empty 0x0 matrix)\nV =\n", "")


def test_propagate_resolution_matrices_flag(capsys):
    # the flag's names are used in place of the file's resolution list
    path = str(fixture_path("koszul.json"))
    code, out, err = run(
        capsys, "propagate-resolution", "--input", path, "--matrices", "d1,d2,d3",
        "--from", "3", "--weights", "W0", "--json",
    )
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "weights_by_module": [
            [[-1, -1, -1]],
            [[-1, -1, 0], [-1, 0, -1], [0, -1, -1]],
            [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
            [[0, 0, 0]],
        ]
    }
    code, out, err = run(capsys, "propagate-resolution", "--input", path, "--matrices", "d1,d9", "--from", "0")
    assert (code, out, err) == (2, "", "parse error: no matrix named 'd9' in the problem file\n")


def test_propagate_resolution_without_a_resolution_is_a_parse_error(capsys):
    code, out, err = run(capsys, "propagate-resolution", "--input", str(fixture_path("two_variables.json")))
    assert (code, out) == (2, "")
    assert err == 'parse error: no resolution: add a "resolution" list or pass --matrices\n'


def test_malformed_degree_is_a_parse_error(capsys):
    for flag, value in (("--degree", "0,x"), ("--degree", ""), ("--degree", "0;1")):
        code, out, err = run(capsys, "graded-weights", "--input", str(fixture_path("bigraded.json")), flag, value)
        assert (code, out) == (2, "")
        assert err == "parse error: degree must be comma-separated integers, got %r\n" % value


def test_unknown_and_ambiguous_matrix(capsys):
    path = str(fixture_path("koszul.json"))
    code, out, err = run(capsys, "gb", "--input", path, "--matrix", "nope")
    assert (code, out, err) == (2, "", "parse error: no matrix named 'nope' in the problem file\n")
    code, out, err = run(capsys, "gb", "--input", path)
    assert (code, out) == (2, "")
    assert err == "parse error: problem file defines 3 of these; choose a matrix with --matrix\n"


def test_an_empty_table_is_named(capsys, tmp_path):
    doc = two_variables_document()
    del doc["weightlists"]
    path = tmp_path / "no_weights.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "propagate", "--input", str(path))
    assert (code, out, err) == (2, "", "parse error: problem file defines no weight list\n")
    doc["matrices"] = {}
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "gb", "--input", str(path))
    assert (code, out, err) == (2, "", "parse error: problem file defines no matrix\n")


def test_gb_subcommand(capsys):
    code, out, err = run(
        capsys, "gb", "--input", str(fixture_path("koszul.json")), "--matrix", "d1", "--json"
    )
    assert code == 0
    assert json.loads(out) == {"groebner_matrix": [["x3", "x2", "x1"]], "size": 3}


def test_gb_subcommand_sorts_decreasing_under_position_down(capsys):
    code, out, err = run(
        capsys, "gb", "--input", str(fixture_path("koszul.json")), "--matrix", "d2",
        "--module-order", "top-down", "--json",
    )
    assert code == 0
    assert json.loads(out) == {
        "groebner_matrix": [
            ["x1+x3", "0", "x2-x3"],
            ["0", "x1+x3", "x3"],
            ["-x1", "-x1-x2", "-x2"],
        ],
        "size": 3,
    }


def test_gb_truncate_flag(capsys, tmp_path):
    doc = {
        "ring": {"vars": ["x", "y"], "degrees": [[1], [1]], "weights": [[1, 0], [0, 1]]},
        "modules": {"F0": {"degrees": [[0]]}, "E": {"degrees": [[2], [2]]}},
        "matrices": {
            "m": {"rows": "F0", "cols": "E", "entries": [["x*y", "y^2-x^2"]]}
        },
    }
    path = tmp_path / "trunc.json"
    path.write_text(json.dumps(doc))
    code_full, out_full, _ = run(capsys, "gb", "--input", str(path), "--json")
    code_cut, out_cut, _ = run(capsys, "gb", "--input", str(path), "--truncate", "2", "--json")
    assert code_full == code_cut == 0
    assert json.loads(out_cut)["size"] < json.loads(out_full)["size"]


def test_degree_of_wrong_length_exit_code(capsys):
    # two_variables.json is singly graded; a bidegree is a domain error
    path = str(fixture_path("two_variables.json"))
    for argv in (
        ["graded-weights", "--degree", "1,2"],
        ["gb", "--truncate", "1,2"],
    ):
        code, out, err = run(capsys, *argv, "--input", path)
        assert (code, out) == (1, "")
        assert "wrong length" in err


def test_graded_weights_has_no_truncate_flag(capsys):
    # the Groebner run stops at --degree; a cap below it used to print 55 weights, not 50
    argv = [
        "graded-weights", "--input", str(fixture_path("grassmannian.json")),
        "--matrix", "d1", "--weights", "W0", "--degree", "2",
    ]
    with pytest.raises(SystemExit) as info:
        main(argv + ["--truncate", "1"])
    captured = capsys.readouterr()
    assert (info.value.code, captured.out) == (2, "")
    assert "--truncate" in captured.err
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert len(json.loads(out)["weights"]) == 50


def test_resolve_max_length_below_one_exit_code(capsys):
    for value in ("0", "-1"):
        code, out, err = run(
            capsys, "resolve", "--input", str(fixture_path("koszul.json")),
            "--matrix", "d1", "--max-length", value,
        )
        assert (code, out) == (1, "")
        assert "max_length" in err


def test_resolve_subcommand(capsys):
    code, out, err = run(
        capsys, "resolve", "--input", str(fixture_path("bigraded.json")), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ranks"] == [1, 5, 9, 7, 2]


@pytest.mark.parametrize(
    "flags, expected", [([], "minimal\n"), (["--json"], '{"minimal":true}\n')], ids=["text", "json"]
)
def test_check_minimal(capsys, flags, expected):
    code, out, err = run(capsys, "check-minimal", "--input", str(fixture_path("two_variables.json")), *flags)
    assert code == 0
    assert out == expected


def test_propagate_forward_subcommand(capsys, tmp_path):
    doc = {
        "ring": {"vars": ["x"], "degrees": [[1]], "weights": [[1]]},
        "modules": {"F0": {"degrees": [[0]]}, "E": {"degrees": [[1]]}},
        "matrices": {"m": {"rows": "F0", "cols": "E", "entries": [["x"]]}},
        "weightlists": {"V": [[1]]},
    }
    path = tmp_path / "single.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "propagate-forward", "--input", str(path), "--json")
    assert code == 0
    assert json.loads(out) == {"change_of_basis": [["1"]], "weights": [[0]]}


def test_domain_error_exit_code(capsys, tmp_path):
    # a non-minimal dual is a domain error: exit 1 with a named precondition
    doc = {
        "ring": {"vars": ["x"], "degrees": [[1]], "weights": [[1]]},
        "modules": {"F": {"degrees": [[0], [0]]}, "E": {"degrees": [[1]]}},
        "matrices": {"m": {"rows": "F", "cols": "E", "entries": [["x"], ["x"]]}},
        "weightlists": {"V": [[1]]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "propagate-forward", "--input", str(path), "--json")
    assert code == 1
    assert "minimal" in err


def test_non_minimal_mixed_degree_map_exit_code(capsys, tmp_path):
    # x^2 = x * x: each equal-degree block is minimal, the whole map is not
    doc = {
        "ring": {"vars": ["x", "y"], "degrees": [[1], [1]], "weights": [[1], [0]]},
        "modules": {"F0": {"degrees": [[0]]}, "E": {"degrees": [[1], [2]]}},
        "matrices": {"m": {"rows": "F0", "cols": "E", "entries": [["x", "x^2"]]}},
        "weightlists": {"W": [[0]]},
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "propagate", "--input", str(path))
    assert code == 1
    assert "not minimal" in err


def test_internal_error_exit_code(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise InternalError("syzygy matrix does not annihilate the input")

    monkeypatch.setattr("torusweights.cli.minimal_resolution", fail)
    code, out, err = run(capsys, "resolve", "--input", str(fixture_path("bigraded.json")))
    assert code == 3
    assert out == ""
    assert "internal error: syzygy matrix does not annihilate the input" in err


def test_inhomogeneous_matrix_rejected_at_load(capsys, tmp_path):
    doc = {
        "ring": {"vars": ["x"], "degrees": [[1]], "weights": [[1]]},
        "modules": {"F0": {"degrees": [[0]]}, "E": {"degrees": [[2]]}},
        "matrices": {"m": {"rows": "F0", "cols": "E", "entries": [["x"]]}},
        "weightlists": {"W": [[0]]},
    }
    path = tmp_path / "inhomogeneous.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check-minimal", "--input", str(path))
    assert code == 1
    assert "homogeneous" in err


def test_huge_power_of_a_variable_fails_fast(capsys, tmp_path):
    # x1^n used to take n multiplications before the degree check saw it
    doc = {
        "ring": {"vars": ["x1"], "degrees": [[1]], "weights": [[1]]},
        "modules": {"F0": {"degrees": [[0]]}, "E": {"degrees": [[1]]}},
        "matrices": {"m": {"rows": "F0", "cols": "E", "entries": [["x1^10000000"]]}},
    }
    path = tmp_path / "power.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, "check-minimal", "--input", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert "homogeneous" in err


@pytest.mark.parametrize("base", ["(3*x1)", "(x1+2*x2)", "x1"], ids=["single-term", "multi-term", "variable"])
def test_exponent_above_the_cap_is_a_parse_error(capsys, tmp_path, base):
    # the cap is checked before any power is computed: (3*x1)^e powers the
    # coefficient, (x1+2*x2)^e multiplies e times
    doc = {
        "ring": {"vars": ["x1", "x2"], "degrees": [[1], [1]], "weights": [[1], [1]]},
        "modules": {"F0": {"degrees": [[0]]}, "E": {"degrees": [[1]]}},
        "matrices": {"m": {"rows": "F0", "cols": "E", "entries": [["%s^%d" % (base, MAX_EXPONENT + 1)]]}},
    }
    path = tmp_path / "power.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, "check-minimal", "--input", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "parse error: exponent %d is above the cap of %d" % (MAX_EXPONENT + 1, MAX_EXPONENT) in err


@pytest.mark.parametrize(
    "entry, cap",
    [("(x1+2*x2)^10000000", "MAX_POWER_TERMS"), ("(3*x1)^10000000", "MAX_POWER_BITS")],
    ids=["multi-term", "single-term"],
)
def test_power_above_a_size_cap_is_a_parse_error(capsys, tmp_path, entry, cap):
    # the exponent is within MAX_EXPONENT, but the power's estimated size is
    # not: (x1+2*x2)^e would multiply e times, (3*x1)^e power the coefficient
    doc = {
        "ring": {"vars": ["x1", "x2"], "degrees": [[1], [1]], "weights": [[1], [1]]},
        "modules": {"F0": {"degrees": [[0]]}, "E": {"degrees": [[1]]}},
        "matrices": {"m": {"rows": "F0", "cols": "E", "entries": [[entry]]}},
    }
    path = tmp_path / "power.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, "check-minimal", "--input", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and cap in err


def test_overlong_integer_literal_is_a_parse_error(capsys, tmp_path):
    # int() refuses strings of more than sys.get_int_max_str_digits() digits
    doc = {
        "ring": {"vars": ["x1"], "degrees": [[1]], "weights": [[1]]},
        "modules": {"F0": {"degrees": [[0]]}, "E": {"degrees": [[1]]}},
        "matrices": {"m": {"rows": "F0", "cols": "E", "entries": [["x1^" + "9" * 5000]]}},
    }
    path = tmp_path / "literal.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check-minimal", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse error:")


HIGH_DEGREE_RESOLUTION = {
    "ranks": [1, 4, 3],
    "degrees": [[[0]], [[101], [101], [120], [101]], [[102], [159], [160]]],
    "differentials": [
        [["x^100*y", "x^99*y^2", "x^60*y^60+3*x^30*y^90", "x*y^100"]],
        [
            ["y", "0", "0"],
            ["-x", "y^58", "0"],
            ["0", "-x^39+3*x^9*y^30", "-y^40"],
            ["0", "-9*x^38*y^20", "x^59+3*x^29*y^30"],
        ],
    ],
}
HIGH_DEGREE_BASIS = ["x*y^100", "x^99*y^2", "x^100*y", "x^60*y^60+3*x^30*y^90"]


@pytest.mark.parametrize("order", ["top-up", "pot-up", "top-down", "pot-down"])
def test_high_degree_fixture_widens_the_packed_fields(capsys, caplog, order):
    # the columns have total degree at most 120, which the first fields hold;
    # S-pair lcms such as x^99*y^60 (degree 159) and x^60*y^100 (degree 160)
    # do not fit, so every run widens its fields before it takes them
    caplog.set_level(logging.DEBUG, logger="torusweights.groebner")
    path = str(fixture_path("high_degree.json"))
    code, out, err = run(capsys, "resolve", "--input", path, "--module-order", order, "--json")
    assert (code, err) == (0, "")
    assert out == json.dumps(HIGH_DEGREE_RESOLUTION, sort_keys=True, separators=(",", ":")) + "\n"
    assert "buchberger: widened exponent fields" in caplog.text
    caplog.clear()
    code, out, err = run(capsys, "gb", "--input", path, "--module-order", order, "--json")
    assert (code, err) == (0, "")
    basis = HIGH_DEGREE_BASIS if order.endswith("-up") else HIGH_DEGREE_BASIS[::-1]
    assert out == json.dumps({"groebner_matrix": [basis], "size": 4}, separators=(",", ":")) + "\n"
    assert "buchberger: widened exponent fields" in caplog.text


def test_mixed_sign_resolution_golden(capsys):
    # the printed matrices depend on the frame: the order in which its run
    # takes generators and S-pairs (generators first), the reduced basis it
    # is built on (here two elements are back-substituted, which leaves the
    # pruned matrices as they were), the pairs each level keeps, and which
    # units pruning cancels
    path = str(fixture_path("mixed_sign.json"))
    code, out, err = run(capsys, "resolve", "--input", path, "--module-order", "top-up", "--json")
    assert (code, err) == (0, "")
    assert out == fixture_path("mixed_sign_resolve_top_up.json").read_text()


def test_coefficients_too_long_to_print_are_a_domain_error(tmp_path):
    # the 3000-digit literals parse, but the syzygies' coefficients outgrow
    # the number of digits Python converts to text
    import subprocess

    a, b = "7" * 3000, "3" * 3000
    doc = {
        "ring": {"vars": ["x", "y", "z"], "degrees": [[1]] * 3, "weights": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        "modules": {"F0": {"degrees": [[0], [0]]}, "F1": {"degrees": [[1], [1], [1]]}},
        "matrices": {"m": {"rows": "F0", "cols": "F1", "entries": [
            ["%s*x" % a, "y", "z"], ["x", "%s*y" % b, "x+z"]]}},
        "weightlists": {"W": [[0, 0, 0], [0, 0, 0]]},
    }
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "torusweights.cli", "resolve", "--input", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert str(sys.get_int_max_str_digits()) in proc.stderr


def test_scalar_matrix_too_long_to_print_is_a_domain_error():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(InputError, match=str(limit)):
        scalar_matrix_to_rows(ScalarMatrix([[1, Fraction(1, 10 ** (limit + 1))]]))


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "gb", "--input", str(path))
    assert code == 2
    assert "parse error" in err


def run_on_undecodable_file(capsys, tmp_path, content):
    path = tmp_path / "undecodable.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "propagate", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and err.count("\n") == 1
    return err


def test_json_integer_above_the_digit_limit_is_a_parse_error(capsys, tmp_path):
    err = run_on_undecodable_file(capsys, tmp_path, b"9" * 5000)
    assert "digits" in err


def test_problem_file_that_is_not_utf8_is_a_parse_error(capsys, tmp_path):
    err = run_on_undecodable_file(capsys, tmp_path, b'{"ring": "\xff"}')
    assert "utf-8" in err


def test_json_nested_beyond_the_recursion_limit_is_a_parse_error(capsys, tmp_path):
    err = run_on_undecodable_file(capsys, tmp_path, b"[" * 100000 + b"]" * 100000)
    assert "recursion" in err


def test_polynomial_syntax_error_exit_code(capsys, tmp_path):
    doc = {
        "ring": {"vars": ["x"], "degrees": [[1]], "weights": [[1]]},
        "modules": {"F0": {"degrees": [[0]]}, "E": {"degrees": [[1]]}},
        "matrices": {"m": {"rows": "F0", "cols": "E", "entries": [["x +"]]}},
    }
    path = tmp_path / "badpoly.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "gb", "--input", str(path))
    assert code == 2


def test_polynomial_nested_past_the_recursion_limit_is_a_parse_error(capsys, tmp_path):
    doc = {
        "ring": {"vars": ["x"], "degrees": [[1]], "weights": [[1]]},
        "modules": {"F0": {"degrees": [[0]]}, "E": {"degrees": [[1]]}},
        "matrices": {"m": {"rows": "F0", "cols": "E", "entries": [["(" * 250 + "x" + ")" * 250]]}},
    }
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "gb", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: nesting is deeper than the recursion limit (at position ")
    assert err.count("\n") == 1


def test_resolve_into_the_zero_module_is_a_domain_error(capsys, tmp_path):
    doc = {
        "ring": {"vars": ["x1", "x2"], "degrees": [[1], [1]], "weights": [[1, 0], [0, 1]]},
        "modules": {"F0": {"degrees": []}, "E": {"degrees": [[1]]}},
        "matrices": {"m": {"rows": "F0", "cols": "E", "entries": []}},
    }
    path = tmp_path / "rank_zero.json"
    path.write_text(json.dumps(doc))
    for extra in ([], ["--max-length", "1"], ["--max-length", "2"]):
        code, out, err = run(capsys, "resolve", "--input", str(path), *extra)
        assert (code, out, err) == (1, "", "error: presentation matrix is not a minimal map\n")


@pytest.mark.parametrize(
    "raised, code, message",
    [
        (KeyboardInterrupt(), 130, "interrupted\n"),
        (MemoryError(), 1, "error: out of memory\n"),
        (RecursionError("maximum recursion depth exceeded"), 1, "error: maximum recursion depth exceeded\n"),
    ],
)
def test_resource_errors_and_interrupts_end_with_one_line(capsys, monkeypatch, raised, code, message):
    def run_and_raise(problem, args):
        raise raised

    help_text, add_arguments, _ = _SUBCOMMANDS["check-minimal"]
    monkeypatch.setitem(_SUBCOMMANDS, "check-minimal", (help_text, add_arguments, run_and_raise))
    assert run(capsys, "check-minimal", "--input", str(fixture_path("two_variables.json"))) == (code, "", message)


def test_a_search_deeper_than_the_recursion_limit_is_a_domain_error(capsys, tmp_path):
    # the standard-monomial search recurses once per variable
    n = 1200
    doc = {
        "ring": {"vars": ["x%d" % i for i in range(n)], "degrees": [[1]] * n, "weights": [[1]] * n},
        "modules": {"F": {"degrees": [[0]]}, "E": {"degrees": [[1]]}},
        "matrices": {"m": {"rows": "F", "cols": "E", "entries": [["x0"]]}},
        "weightlists": {"w": [[0]]},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "graded-weights", "--input", str(path), "--degree", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: maximum recursion depth exceeded") and err.count("\n") == 1


def test_unknown_reference_exit_code(capsys, tmp_path):
    doc = {
        "ring": {"vars": ["x"], "degrees": [[1]], "weights": [[1]]},
        "modules": {"F0": {"degrees": [[0]]}},
        "matrices": {"m": {"rows": "F0", "cols": "NOPE", "entries": [["x"]]}},
    }
    path = tmp_path / "dangling.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "gb", "--input", str(path))
    assert code == 2


def run_on_broken_two_variables(capsys, tmp_path, edit):
    doc = json.loads(fixture_path("two_variables.json").read_text())
    edit(doc)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    return run(capsys, "propagate", "--input", str(path))


def test_non_integer_ring_weight_is_a_parse_error(capsys, tmp_path):
    code, out, err = run_on_broken_two_variables(
        capsys, tmp_path, lambda doc: doc["ring"].update(weights=[["a", 0], [0, 1]])
    )
    assert code == 2
    assert "'weights' in ring" in err


def test_non_integer_ring_degree_is_a_parse_error(capsys, tmp_path):
    code, out, err = run_on_broken_two_variables(
        capsys, tmp_path, lambda doc: doc["ring"].update(degrees=[["one"], [1]])
    )
    assert code == 2
    assert "'degrees' in ring" in err


def test_non_integer_weight_list_is_a_parse_error(capsys, tmp_path):
    code, out, err = run_on_broken_two_variables(
        capsys, tmp_path, lambda doc: doc["weightlists"].update(W=[["a", 0]])
    )
    assert code == 2
    assert "weight list 'W'" in err


def test_non_string_matrix_entry_is_a_parse_error(capsys, tmp_path):
    code, out, err = run_on_broken_two_variables(
        capsys, tmp_path, lambda doc: doc["matrices"]["m"].update(entries=[[5, "x2"]])
    )
    assert code == 2
    assert "'entries' in matrix 'm'" in err


def two_variables_document():
    return json.loads(fixture_path("two_variables.json").read_text())


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(module_ordr="pot-up"), "unknown key 'module_ordr' in problem document"),
        (lambda doc: doc["ring"].update(term_order="lex"), "unknown key 'term_order' in ring"),
        (lambda doc: doc["modules"]["E"].update(rank=2), "unknown key 'rank' in module 'E'"),
        (lambda doc: doc["matrices"]["m"].update(row="F0"), "unknown key 'row' in matrix 'm'"),
    ],
    ids=["document", "ring", "module", "matrix"],
)
def test_unknown_keys_are_parse_errors(capsys, tmp_path, edit, message):
    # docs/problem-file-schema.json allows no other keys at these four levels
    doc = two_variables_document()
    edit(doc)
    with pytest.raises(ProblemFileError) as info:
        problem_from_dict(doc)
    assert str(info.value) == message
    code, out, err = run_on_broken_two_variables(capsys, tmp_path, edit)
    assert (code, out, err) == (2, "", "parse error: %s\n" % message)


VARS_MESSAGE = "'vars' in ring must be a nonempty list of variable names"


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda doc: doc["matrices"]["m"].update(rows="NOPE"),
            "matrix 'm' references unknown module 'NOPE'",
        ),
        (lambda doc: doc.update(weightlists=[[0, 0]]), "'weightlists' must map names to weight lists"),
        (lambda doc: doc.update(resolution="m"), "'resolution' must be a list of matrix names"),
        (lambda doc: doc.update(resolution=["m", 1]), "'resolution' must be a list of matrix names"),
        (lambda doc: doc.update(resolution=["m", "d2"]), "resolution references unknown matrix 'd2'"),
        (lambda doc: doc["matrices"]["m"].pop("entries"), "missing 'entries' in matrix 'm'"),
        (lambda doc: doc["matrices"]["m"].pop("rows"), "missing 'rows' in matrix 'm'"),
        (lambda doc: doc["matrices"]["m"].pop("cols"), "missing 'cols' in matrix 'm'"),
        (lambda doc: doc["matrices"]["m"].update(entries=[["x1"]]), "matrix 'm' entries do not match the module ranks"),
        (lambda doc: doc["matrices"]["m"].update(entries=[]), "matrix 'm' entries do not match the module ranks"),
        # values docs/problem-file-schema.json rejects, as it rejects unknown keys
        (lambda doc: doc["ring"].update(vars=[True, "x2"]), VARS_MESSAGE),
        (lambda doc: doc["ring"].update(vars=[1]), VARS_MESSAGE),
        (lambda doc: doc["ring"].update(vars=[]), VARS_MESSAGE),
        (lambda doc: doc["ring"].update(vars=["1x", "x2"]), VARS_MESSAGE),
        (lambda doc: doc["ring"].update(order="deglex"), "'order' in ring must be one of 'grevlex', 'lex'"),
        (
            lambda doc: doc.update(module_order="x"),
            "'module_order' in problem document must be one of 'top-up', 'pot-up', 'top-down', 'pot-down'",
        ),
    ],
    ids=["unknown-rows-module", "weightlists-not-an-object", "resolution-not-a-list",
         "resolution-not-strings", "resolution-unknown-matrix", "missing-entries", "missing-rows",
         "missing-cols", "entries-too-narrow", "entries-too-short", "vars-bool", "vars-int", "vars-empty",
         "vars-pattern", "order-enum", "module-order-enum"],
)
def test_loader_errors_name_the_fault(capsys, tmp_path, edit, message):
    doc = two_variables_document()
    edit(doc)
    with pytest.raises(ProblemFileError) as info:
        problem_from_dict(doc)
    assert str(info.value) == message
    code, out, err = run_on_broken_two_variables(capsys, tmp_path, edit)
    assert (code, out, err) == (2, "", "parse error: %s\n" % message)


def test_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "gb", "--input", str(tmp_path / "absent.json"))
    assert code == 1


PROBLEM_FIXTURES = ["bigraded.json", "grassmannian.json", "koszul.json", "three_squares.json", "two_variables.json"]
PROBLEM_DOCUMENTS = [json.loads(fixture_path(name).read_text()) for name in PROBLEM_FIXTURES]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


def document_paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from document_paths(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from document_paths(item, prefix + (i,))


@st.composite
def corrupted_documents(draw):
    """A fixture problem document with one field replaced by a drawn JSON value."""
    doc = copy.deepcopy(draw(st.sampled_from(PROBLEM_DOCUMENTS)))
    path = draw(st.sampled_from(list(document_paths(doc))))
    value = draw(JSON_VALUES)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@settings(max_examples=100, deadline=None, derandomize=True)
@given(corrupted_documents())
def test_loader_raises_only_documented_errors(doc):
    try:
        problem_from_dict(doc)
    except (ProblemFileError, PolynomialSyntaxError, InputError):
        pass


# help, usage and parse errors of the front end; "problem.json" is never read
FRONT_END_PROBES = [
    ["--help"],
    *([name, "--help"] for name in _SUBCOMMANDS),
    [],
    ["-h", "resolve"],
    ["nosuch"],
    ["res"],
    ["resolve"],
    ["resolve", "--max-length", "x"],
    ["check-minimal", "--input", "problem.json", "--bogus"],
    ["propagate", "--input", "problem.json", "extra"],
]


def outcome(capsys, call):
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", FRONT_END_PROBES, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_the_front_end_prints_what_the_parser_of_every_subcommand_prints(capsys, monkeypatch, argv):
    # argparse's wording moves between Python versions, so the reference is
    # the parser of every subcommand in this interpreter, not pinned text.
    # An argument the subcommand does not take is reported by the top-level
    # parser, whose usage line lists the subcommands it registered.
    monkeypatch.setenv("COLUMNS", "80")
    expected = outcome(capsys, lambda: _build_parser(_SUBCOMMANDS).parse_args(argv))
    assert expected[0] in (0, 2)
    assert outcome(capsys, lambda: main(argv)) == expected


def test_a_call_registers_only_its_subcommand(capsys, monkeypatch):
    registered = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        registered.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    code, out, _ = run(capsys, "check-minimal", "--input", str(fixture_path("koszul.json")), "--matrix", "d1")
    assert (code, out, registered) == (0, "minimal\n", ["check-minimal"])


def test_log_verbosity_env_var():
    import os
    import subprocess
    import sys

    env = dict(os.environ, TORUSWEIGHTS_LOG="debug")
    proc = subprocess.run(
        [sys.executable, "-m", "torusweights.cli", "gb",
         "--input", str(fixture_path("koszul.json")), "--matrix", "d1"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "leading term" in proc.stderr
    quiet = subprocess.run(
        [sys.executable, "-m", "torusweights.cli", "gb",
         "--input", str(fixture_path("koszul.json")), "--matrix", "d1"],
        capture_output=True, text=True,
        env={k: v for k, v in os.environ.items() if k != "TORUSWEIGHTS_LOG"},
    )
    assert quiet.returncode == 0
    assert quiet.stderr == ""


def test_problem_round_trip_is_idempotent():
    problem = load_problem(fixture_path("grassmannian.json"))
    once = problem_to_dict(problem)
    twice = problem_to_dict(problem_from_dict(once))
    assert once == twice


def test_modules_of_equal_degrees_keep_their_names_in_a_round_trip():
    # a module named by its degrees alone came back under the last such name
    data = {
        "ring": {"vars": ["x", "y"], "degrees": [[1], [1]], "weights": [[1], [0]], "order": "grevlex"},
        "modules": {"F": {"degrees": [[0]]}, "G": {"degrees": [[0]]}, "H": {"degrees": [[1]]}},
        "matrices": {
            "on_f": {"rows": "F", "cols": "H", "entries": [["x"]]},
            "on_g": {"rows": "G", "cols": "H", "entries": [["y"]]},
            "f_to_g": {"rows": "G", "cols": "F", "entries": [["1"]]},
        },
        "weightlists": {},
        "module_order": "top-up",
    }
    once = problem_to_dict(problem_from_dict(data))
    assert {name: (m["rows"], m["cols"]) for name, m in once["matrices"].items()} == {
        "on_f": ("F", "H"), "on_g": ("G", "H"), "f_to_g": ("G", "F"),
    }
    assert once == data


def test_a_matrix_on_a_module_outside_the_table_does_not_serialize():
    problem = load_problem(fixture_path("two_variables.json"))
    del problem.modules["E"]
    with pytest.raises(ProblemFileError, match="matrix uses a module that is not in the module table"):
        problem_to_dict(problem)


def test_module_order_flag(capsys):
    code_top, out_top, _ = run(
        capsys, "propagate", "--input", str(fixture_path("bigraded.json")), "--json",
        "--module-order", "top-up",
    )
    code_pot, out_pot, _ = run(
        capsys, "propagate", "--input", str(fixture_path("bigraded.json")), "--json",
        "--module-order", "pot-up",
    )
    assert code_top == code_pot == 0
    top = json.loads(out_top)["weights"]
    pot = json.loads(out_pot)["weights"]
    assert sorted(map(tuple, top)) == sorted(map(tuple, pot))


# Loading parses each distinct entry string of a document once, and equal
# strings share one Polynomial.

def spy_on_parsing(monkeypatch):
    """The list of strings that problemfile hands to parse_polynomial from now on."""
    texts = []

    def spy(ring, text):
        texts.append(text)
        return parse_polynomial(ring, text)

    monkeypatch.setattr(problemfile, "parse_polynomial", spy)
    return texts


@pytest.mark.parametrize("name", PROBLEMS)
def test_loading_parses_each_distinct_entry_once(monkeypatch, name):
    doc = json.loads(fixture_path(name + ".json").read_text())
    texts = spy_on_parsing(monkeypatch)
    problem = problem_from_dict(doc)
    strings = [t for spec in doc["matrices"].values() for row in spec["entries"] for t in row]
    assert collections.Counter(texts) == collections.Counter(set(strings))
    ring = problem.ring
    for label, spec in doc["matrices"].items():
        codomain, domain = problem.modules[spec["rows"]], problem.modules[spec["cols"]]
        alone = PolyMatrix(codomain, domain, [[parse_polynomial(ring, t) for t in row] for row in spec["entries"]])
        loaded = problem.matrices[label]
        assert loaded.entries == alone.entries
        assert (loaded.domain, loaded.codomain) == (alone.domain, alone.codomain)


def one_variable_document(modules, matrices):
    return {
        "ring": {"vars": ["x1"], "degrees": [[1]], "weights": [[1]]},
        "modules": {name: {"degrees": degrees} for name, degrees in modules.items()},
        "matrices": {
            name: {"rows": rows, "cols": cols, "entries": entries} for name, (rows, cols, entries) in matrices.items()
        },
    }


def test_a_shared_entry_is_checked_at_every_cell():
    # "x1" is homogeneous of the expected degree 1 at (0, 0) and not at (0, 1)
    doc = one_variable_document({"F0": [[0]], "E": [[1], [2]]}, {"m": ("F0", "E", [["x1", "x1"]])})
    with pytest.raises(HomogeneityError, match=r"entry \(0, 1\) is not homogeneous of degree \(2,\)"):
        problem_from_dict(doc)
    # and across matrices: n's entries reuse m's "x1", and n's (1, 0) expects degree 2
    doc = one_variable_document(
        {"F0": [[0]], "E": [[1]], "G": [[0], [-1]]},
        {"m": ("F0", "E", [["x1"]]), "n": ("G", "E", [["x1"], ["x1"]])},
    )
    with pytest.raises(HomogeneityError, match=r"entry \(1, 0\) is not homogeneous of degree \(2,\)"):
        problem_from_dict(doc)


@pytest.mark.parametrize("bad", ["x1 +", "(3*x1)^10000001", "(3*x1)^10000000", "x1 ^ -1", "y", "1/x1"])
def test_a_repeated_malformed_entry_fails_as_a_single_one(monkeypatch, bad):
    def failure(doc):
        with pytest.raises(PolynomialSyntaxError) as info:
            problem_from_dict(doc)
        return str(info.value), info.value.position

    once = one_variable_document({"F0": [[0]], "E": [[1]]}, {"m": ("F0", "E", [[bad]])})
    everywhere = one_variable_document({"F0": [[0]] * 3, "E": [[1]] * 4}, {"m": ("F0", "E", [[bad] * 4] * 3)})
    assert failure(everywhere) == failure(once)
    # the load stops at the first copy
    texts = spy_on_parsing(monkeypatch)
    failure(everywhere)
    assert texts == [bad]


def test_a_homogeneity_error_wins_over_a_later_parse_error():
    doc = one_variable_document(
        {"F0": [[0]], "E": [[1]]},
        {"m": ("F0", "E", [["x1^2"]]), "n": ("F0", "E", [["x1 +"]]), "p": ("F0", "E", [["x1^2"]])},
    )
    with pytest.raises(HomogeneityError, match=r"entry \(0, 0\)"):
        problem_from_dict(doc)


def entry_terms(problem):
    return {label: [[dict(p.terms) for p in row] for row in m.entries] for label, m in problem.matrices.items()}


def run_every_computation(problem, order):
    """Run each public computation on the problem's maps and the weight lists that fit them; returns those run."""
    ran = {buchberger, syzygies, is_minimal_map, minimal_resolution}
    for m in problem.matrices.values():
        buchberger(m, order)
        syzygies(m, order)
        is_minimal_map(m)
        minimal_resolution(m, order)
        for w in problem.weightlists.values():
            if len(w) == m.num_rows:
                propagate(m, w, order)
                propagate_graded_components(m.domain.basis_degrees[0], m, w, order)
                ran |= {propagate, propagate_graded_components}
            if len(w) == m.num_cols:
                propagate_forward(m, w, order)
                ran.add(propagate_forward)
    if problem.resolution is not None:
        maps = [problem.matrices[name] for name in problem.resolution]
        ranks = [maps[0].num_rows] + [d.num_cols for d in maps]
        for index, rank in enumerate(ranks):
            for w in problem.weightlists.values():
                if len(w) == rank:
                    propagate_resolution(maps, index, w, order)
                    ran.add(propagate_resolution)
    return ran


@pytest.mark.parametrize("order", [ModuleTermOrder(kind) for kind in ModuleTermOrder.KINDS], ids=lambda o: o.kind)
def test_no_computation_writes_to_a_shared_entry(order):
    ran = set()
    for name in PROBLEMS:
        problem = load_problem(fixture_path(name + ".json"))
        before = entry_terms(problem)
        ran |= run_every_computation(problem, order)
        assert entry_terms(problem) == before, name
    assert ran == {
        buchberger, syzygies, is_minimal_map, minimal_resolution, propagate, propagate_forward,
        propagate_resolution, propagate_graded_components,
    }
