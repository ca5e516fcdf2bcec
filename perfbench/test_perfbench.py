"""Tests of the benchmark itself, on the tiny configuration of each workload.

Run from the repository root with `python -m pytest -q perfbench`.
"""

import json
import shutil
import signal
import subprocess
import sys
from collections import Counter

import pytest

import run

sys.path.insert(0, str(run.SRC))

import references  # noqa: E402
import speed  # noqa: E402
import torusweights  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ["components", "resolve", "forward"]
BENCHMARK = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(capsys, *argv):
    assert run.main(["--tiny", "--seconds", "0"] + list(argv)) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_is_correct(capsys, workload, seed):
    result = bench(capsys, "--workload", workload, "--seed", str(seed))
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_tableaux_reference_matches_the_frozen_degree2_list():
    fixture = run.HERE.parent / "tests" / "fixtures" / "plucker_degree2_weights.json"
    frozen = Counter(tuple(w) for w in json.loads(fixture.read_text(encoding="utf-8")))
    assert frozen == references.grassmannian_component(2)


def test_traced_counters_repeat_exactly(capsys):
    runs = [bench(capsys, "--workload", "components", "--seed", "3", "--trace", "1") for _ in range(2)]
    counts = [
        {name: m["value"] for name, m in r["metrics"].items() if m["unit"] != "s"} for r in runs
    ]
    assert counts[0] == counts[1]
    assert sorted(runs[0]["metrics"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    # The degree-1 component propagates 10 standard monomials: one 10x10x10 product.
    assert counts[0]["modules.ScalarMatrix.matmul.mults"] >= 10 ** 3
    assert counts[0]["cli.main.calls"] == 1


def test_wrong_answers_and_errors_count_as_failures(capsys, monkeypatch):
    real = torusweights.propagate_graded_components

    def corrupted(*args, **kwargs):
        weights = list(real(*args, **kwargs))
        weights[0] = tuple(x + 1 for x in weights[0])
        return tuple(weights)

    monkeypatch.setattr(torusweights, "propagate_graded_components", corrupted)
    result = bench(capsys, "--workload", "components")
    assert not result["correct"] and 0 < result["failed"] < result["attempted"]

    def broken(*args, **kwargs):
        raise torusweights.InputError("broken on purpose")

    monkeypatch.setattr(torusweights, "minimal_resolution", broken)
    result = bench(capsys, "--workload", "resolve")
    assert result["failed"] == result["attempted"]


def test_speedometer_samples_during_a_region_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer() as meter:
        seconds, wall, result = meter.time(sum, range(3 * 10 ** 6))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert result == sum(range(3 * 10 ** 6))
    assert len(meter.samples) >= 2 and seconds > 0 and wall > 0


def test_tracer_rebinds_imported_names_and_restores_them():
    groebner = sys.modules["torusweights.groebner"]
    propagate = sys.modules["torusweights.propagate"]
    original = groebner.buchberger
    with tracing.Tracer() as tracer:
        assert groebner.buchberger is not original
        assert propagate.buchberger is groebner.buchberger
        assert torusweights.buchberger is groebner.buchberger
    assert propagate.buchberger is original
    assert torusweights.buchberger is original
    assert tracer.spans == []


def test_benchmark_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(run.HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "resolve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
