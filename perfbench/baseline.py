"""Measure the baseline: two sets of seeded runs per workload, then one traced run.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py

Runs `run.py` once per seed (1..10) and workload, one process at a time,
with the `run_seconds` of BENCHMARK.json, and then the whole set once more.
For each end-to-end metric and set it records the values, the median, the
quartiles and the interquartile range as a share of the median, as
`statistics.quantiles(values, n=4)` gives them, and the change of the second
set's median from the first's next to the metric's bound.  One traced run
(seed 1) per workload adds the per-layer counters.  The machine, Python
version and `nproc` are recorded with the numbers in `baseline.json`.
"""

import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ["components", "resolve", "forward"]
SEEDS = 10
SETS = 2


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600, check=True, cwd=HERE.parent)
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: %d of %d queries failed" % (workload, seed, result["failed"], result["attempted"]))
    print("%s seed=%d trace=%d: %s" % (workload, seed, trace, done.stdout.splitlines()[-2]), flush=True)
    return result


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    with open(HERE.parent / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    seeds = list(range(1, SEEDS + 1))
    sets = [
        {workload: [run_once(workload, seed, seconds, 0) for seed in seeds] for workload in WORKLOADS}
        for _ in range(SETS)
    ]

    report = {
        "machine": {
            "cpu": cpu_model(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "seeds": seeds,
        "seconds": seconds,
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = [s[workload] for s in sets]
        metrics = {}
        for name, bound in bounds.items():
            summaries = [summarize([r["metrics"][name]["value"] for r in set_runs]) for set_runs in runs]
            first, last = summaries[0]["median"], summaries[-1]["median"]
            metrics[name] = {
                "unit": runs[0][0]["metrics"][name]["unit"],
                "bound": bound,
                "median_change": (last - first) / first,
                "sets": summaries,
            }
        traced = run_once(workload, 1, seconds, 1)
        report["workloads"][workload] = {
            "attempted": sum(r["attempted"] for set_runs in runs for r in set_runs),
            "failed": sum(r["failed"] for set_runs in runs for r in set_runs),
            "end_to_end": metrics,
            "per_layer_seed1": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    with open(HERE / "baseline.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    for workload, entry in report["workloads"].items():
        for name, m in entry["end_to_end"].items():
            print("%-10s %-13s bound=%.2f medians=%s iqr_shares=%s median_change=%+.4f" % (
                workload, name, m["bound"], ["%.4f" % s["median"] for s in m["sets"]],
                ["%.4f" % s["iqr_share"] for s in m["sets"]], m["median_change"]))


if __name__ == "__main__":
    main()
