"""The three benchmark workloads: problem documents plus a fixed query list.

A workload is built in two parts.  `documents(seed, tiny)` returns the
problem dicts that set-up loads through `problem_from_dict` (and, for the
CLI round trip, writes to disk).  `queries(seed, tiny)` returns the queries
one pass runs, in order; each has a `run(problems, files)` that calls the
library and a `check(output)` that compares the output with an answer from
`references`, outside the timed region.

`tiny` selects the smallest inputs that still run every code path of the
workload; the benchmark's own tests use it.
"""

import contextlib
import io
import json
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import problems
import references
import torusweights
import torusweights.cli


@dataclass
class Query:
    label: str
    run: Callable
    check: Callable


def _weights(ws):
    return Counter(tuple(w) for w in ws)


def _run_cli(argv):
    """In-process CLI round trip; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = torusweights.cli.main(argv)
    return code, out.getvalue()


def _cli_json(output, key):
    code, text = output
    if code != 0:
        return None
    return json.loads(text)[key]


# ----- components -----------------------------------------------------------
#
# Graded components of the Gr(2,5) coordinate ring and of coker d2: the only
# workload where dense change-of-basis bookkeeping dominates, with Buchberger
# on pure monomial columns and no syzygies.


def _component(matrix, weights, degree):
    def run(loaded, files):
        p = loaded["gr"]
        return torusweights.propagate_graded_components(
            (degree,), p.matrices[matrix], p.weightlists[weights], p.module_order
        )

    return run


def _components_documents(seed, tiny):
    return {"gr": problems.grassmannian(seed)}, ["gr"]


def _components_queries(seed, tiny):
    ring_degrees = (1,) if tiny else (1, 2, 3)
    coker_degrees = (2,) if tiny else (2, 3)
    cli_degree = 1 if tiny else 2
    out = []
    for d in ring_degrees:
        check = lambda ws, d=d: _weights(ws) == references.grassmannian_component(d)
        out.append(Query("gr25-degree%d" % d, _component("d1", "W0", d), check))
    for d in coker_degrees:
        check = lambda ws, d=d: _weights(ws) == references.grassmannian_ideal_component(d)
        out.append(Query("coker-d2-degree%d" % d, _component("d2_rebased", "V1", d), check))
    argv_tail = ["--matrix", "d1", "--weights", "W0", "--degree", str(cli_degree), "--json"]
    out.append(
        Query(
            "cli-graded-weights-degree%d" % cli_degree,
            lambda loaded, files: _run_cli(["graded-weights", "--input", files["gr"]] + argv_tail),
            lambda output: _weights(_cli_json(output, "weights"))
            == references.grassmannian_component(cli_degree),
        )
    )
    return out


# ----- resolve --------------------------------------------------------------
#
# Minimal resolutions, then backward propagation from F_0: Schreyer syzygies
# over dense rationals dominate, with Nakayama minimization and PolyMatrix
# products for chain checks and rebasing.


def _resolve(label, matrix, weights):
    def run(loaded, files):
        p = loaded[label]
        resolution = torusweights.minimal_resolution(p.matrices[matrix], p.module_order)
        propagated = torusweights.propagate_resolution(
            resolution.differentials, 0, p.weightlists[weights], p.module_order
        )
        return resolution, propagated

    return run


def _resolution_matches(ranks, module_weights, domain_degrees=None):
    def check(output):
        resolution, propagated = output
        if resolution.ranks != ranks:
            return False
        if [_weights(ws) for ws in propagated.per_module] != module_weights:
            return False
        if domain_degrees is not None:
            return [Counter(d.domain.basis_degrees) for d in resolution.differentials] == domain_degrees
        return True

    return check


def _koszul_sizes(tiny):
    return (3,) if tiny else (6, 7)


def _resolve_documents(seed, tiny):
    docs = {"koszul%d" % n: problems.koszul_presentation(n, seed) for n in _koszul_sizes(tiny)}
    docs["bigraded"] = problems.bigraded()
    if not tiny:
        docs["gr"] = problems.grassmannian(0)
    return docs, []


def _resolve_queries(seed, tiny):
    out = [
        Query(
            "resolve-koszul%d" % n,
            _resolve("koszul%d" % n, "d1", "W0"),
            _resolution_matches(references.koszul_ranks(n), references.koszul_modules(n)),
        )
        for n in _koszul_sizes(tiny)
    ]
    if not tiny:
        out.append(
            Query(
                "resolve-gr25",
                _resolve("gr", "d1", "W0"),
                _resolution_matches(references.GRASSMANNIAN_RANKS, references.grassmannian_resolution()),
            )
        )
    out.append(
        Query(
            "resolve-bigraded",
            _resolve("bigraded", "m", "W"),
            _resolution_matches(
                references.BIGRADED_RANKS, references.BIGRADED_WEIGHTS, references.BIGRADED_DEGREES
            ),
        )
    )
    return out


# ----- forward --------------------------------------------------------------
#
# Whole resolutions seeded at the top module: the propagate layer through
# propagate_forward and dual_map, a truncated Buchberger and a solve per
# step, and no syzygies.


def _forward(label, start, weights):
    def run(loaded, files):
        p = loaded[label]
        differentials = [p.matrices[name] for name in p.resolution]
        return torusweights.propagate_resolution(differentials, start, p.weightlists[weights], p.module_order)

    return run


def _forward_documents(seed, tiny):
    docs = {"koszul%d" % n: problems.koszul_complex(n, seed) for n in _koszul_sizes(tiny)}
    docs["gr"] = problems.grassmannian(0)
    return docs, ["gr"]


def _forward_queries(seed, tiny):
    out = [
        Query(
            "forward-koszul%d" % n,
            _forward("koszul%d" % n, n, "VN"),
            lambda result, n=n: [_weights(ws) for ws in result.per_module] == references.koszul_modules(n),
        )
        for n in _koszul_sizes(tiny)
    ]
    gr_expected = references.grassmannian_resolution
    out.append(
        Query(
            "forward-gr25",
            _forward("gr", 3, "V3"),
            lambda result: [_weights(ws) for ws in result.per_module] == gr_expected(),
        )
    )
    argv_tail = ["--from", "3", "--weights", "V3", "--json"]
    out.append(
        Query(
            "cli-propagate-resolution-gr25",
            lambda loaded, files: _run_cli(["propagate-resolution", "--input", files["gr"]] + argv_tail),
            lambda output: [_weights(ws) for ws in _cli_json(output, "weights_by_module")] == gr_expected(),
        )
    )
    return out


WORKLOADS = {
    "components": (_components_documents, _components_queries),
    "resolve": (_resolve_documents, _resolve_queries),
    "forward": (_forward_documents, _forward_queries),
}


def documents(workload, seed, tiny=False):
    """(problem dicts by label, labels the CLI reads from files)."""
    return WORKLOADS[workload][0](seed, tiny)


def queries(workload, seed, tiny=False):
    return WORKLOADS[workload][1](seed, tiny)
