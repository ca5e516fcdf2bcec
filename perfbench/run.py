"""torusweights benchmark: one workload per process, single-threaded.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload components|resolve|forward \
        --seed N --seconds S --trace 0|1

The library is imported from `src/` next to this directory.  The seed only
generates the inputs (see `problems`).  Every query's output is checked
against `references` outside the timed region; a query fails if it raised or
its answer differs.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

Times are seconds at a fixed reference speed of the machine: each timed
region's wall time, scaled by the machine's speed sampled while it ran (see
`speed`).  The raw wall times are printed on the line before the result.

With `--trace 0` the metrics are the end-to-end ones:

- `setup_s`: median over fresh processes (this one and SETUP_PROBES more)
  of the time to import torusweights, build the workload's problem
  documents, load them with `problem_from_dict` and write the CLI input
  files.
- `first_pass_s`: the first pass over the query list in this process.
- `wall_s`: median of the later passes, run until `--seconds` have passed
  (at least one).
- `peak_rss_mb`: peak resident memory of this process.

With `--trace 1` one untraced warm-up pass runs, then set-up runs again
under the tracer from `tracing`, and then each query runs twice in a row,
untraced and traced.  The metrics are the per-layer counters and self times
of the traced part, and `trace.overhead_s`: the traced pass minus the
untraced pass, summed over these adjacent pairs.  The spans are written to
`perfbench/out/`.
"""

import argparse
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import speed

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Set-up runs in the main process and in this many more fresh processes,
# half of them before the first pass and half after the last, so that the
# samples span the run rather than one stretch of machine load.
SETUP_PROBES = 8

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "first_pass_s": "s", "peak_rss_mb": "MB"}


def setup(workload, seed, tiny, workdir):
    """Import, build and load the workload's problems; returns (problems, files)."""
    import torusweights.problemfile
    import workloads

    docs, cli_labels = workloads.documents(workload, seed, tiny)
    loaded = {label: torusweights.problemfile.problem_from_dict(doc) for label, doc in docs.items()}
    files = {}
    for label in cli_labels:
        path = workdir / ("%s.json" % label)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(docs[label], handle)
        files[label] = str(path)
    return loaded, files


def probe_setup(args):
    """set-up time of one fresh interpreter running this script in probe mode."""
    argv = [sys.executable, str(pathlib.Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.tiny:
        argv.append("--tiny")
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def run_pass(queries, loaded, files):
    """Run every query once; returns the outputs.  An exception is an output."""
    outputs = []
    for query in queries:
        try:
            outputs.append(query.run(loaded, files))
        except Exception as exc:  # counted as a failed query
            traceback.print_exc(file=sys.stderr)
            outputs.append(exc)
    return outputs


class Tally:
    """Queries attempted and failed over all passes of a run."""

    def __init__(self, queries):
        self.queries = queries
        self.attempted = 0
        self.failed = 0

    def check(self, outputs):
        """Count the outputs that raised or differ from the reference."""
        for query, output in zip(self.queries, outputs):
            try:
                ok = not isinstance(output, Exception) and query.check(output)
            except Exception:  # a malformed output is a wrong answer
                traceback.print_exc(file=sys.stderr)
                ok = False
            if not ok:
                print("perfbench: query %s gave a wrong answer" % query.label, file=sys.stderr)
                self.failed += 1
        self.attempted += len(outputs)


def measure(args, workdir):
    """End-to-end metrics of one untraced run."""
    with speed.Speedometer() as meter:
        seconds, _, (loaded, files) = meter.time(setup, args.workload, args.seed, args.tiny, workdir)
    setups = [seconds] + [probe_setup(args) for _ in range(SETUP_PROBES // 2)]
    import workloads

    queries = workloads.queries(args.workload, args.seed, args.tiny)
    tally = Tally(queries)
    warm, warm_wall = [], []
    with speed.Speedometer() as meter:
        first, first_wall, outputs = meter.time(run_pass, queries, loaded, files)
        tally.check(outputs)
        window = time.perf_counter()
        while not warm or time.perf_counter() - window < args.seconds:
            seconds, wall, outputs = meter.time(run_pass, queries, loaded, files)
            tally.check(outputs)
            warm.append(seconds)
            warm_wall.append(wall)
    setups += [probe_setup(args) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    print("perfbench: workload=%s seed=%d setup_samples=%s first_pass=%.3f (wall %.3f) warm_passes=%s (wall %s)"
          % (args.workload, args.seed, ["%.4f" % s for s in setups], first, first_wall,
             ["%.3f" % s for s in warm], ["%.3f" % s for s in warm_wall]))
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(warm),
        "first_pass_s": first,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return tally, {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()}


def measure_traced(args, workdir):
    """Per-layer metrics of one traced pass, each query paired with an untraced run."""
    import tracing

    loaded, files = setup(args.workload, args.seed, args.tiny, workdir)
    import workloads

    queries = workloads.queries(args.workload, args.seed, args.tiny)
    tally = Tally(queries)
    tally.check(run_pass(queries, loaded, files))
    tracer = tracing.Tracer()
    with tracer:
        traced_loaded, traced_files = setup(args.workload, args.seed, args.tiny, workdir)
    untraced, traced = 0.0, 0.0
    untraced_outputs, traced_outputs = [], []
    with speed.Speedometer() as meter:
        for query in queries:
            seconds, _, outputs = meter.time(run_pass, [query], loaded, files)
            untraced += seconds
            untraced_outputs += outputs
            with tracer:
                seconds, _, outputs = meter.time(run_pass, [query], traced_loaded, traced_files)
            traced += seconds
            traced_outputs += outputs
    tally.check(untraced_outputs)
    tally.check(traced_outputs)
    values = tracer.metrics()
    values["trace.overhead_s"] = traced - untraced
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / ("trace-%s-seed%d.json" % (args.workload, args.seed))
    tracer.write_spans(spans_path)
    print("perfbench: workload=%s seed=%d untraced_pass=%.3f traced_pass=%.3f spans=%s"
          % (args.workload, args.seed, untraced, traced, spans_path.relative_to(HERE.parent)))
    units = tracing.metric_units()
    return tally, {name: {"value": values[name], "unit": units[name]} for name in tracing.metric_names()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="torusweights benchmark")
    parser.add_argument("--workload", required=True, choices=["components", "resolve", "forward"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True, help="length of the warm-pass window")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs (for the benchmark's tests)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "torusweights" / "__init__.py").is_file():
        print("perfbench: no torusweights sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / ("inputs-%d" % os.getpid())
    workdir.mkdir()
    try:
        if args.setup_probe:
            with speed.Speedometer() as meter:
                seconds, _, _ = meter.time(setup, args.workload, args.seed, args.tiny, workdir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        tally, metrics = (measure_traced if args.trace else measure)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
