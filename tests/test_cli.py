import json

import pytest

from torusweights.cli import main
from torusweights.problemfile import load_problem, problem_from_dict, problem_to_dict

from conftest import fixture_path


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


def test_gb_subcommand(capsys):
    code, out, err = run(
        capsys, "gb", "--input", str(fixture_path("koszul.json")), "--matrix", "d1", "--json"
    )
    assert code == 0
    assert json.loads(out) == {"groebner_matrix": [["x3", "x2", "x1"]], "size": 3}


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


def test_resolve_subcommand(capsys):
    code, out, err = run(
        capsys, "resolve", "--input", str(fixture_path("bigraded.json")), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ranks"] == [1, 5, 9, 7, 2]


def test_check_minimal(capsys):
    code, out, err = run(capsys, "check-minimal", "--input", str(fixture_path("two_variables.json")))
    assert code == 0
    assert out == "minimal\n"


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


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "gb", "--input", str(path))
    assert code == 2
    assert "parse error" in err


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


def test_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "gb", "--input", str(tmp_path / "absent.json"))
    assert code == 1


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
