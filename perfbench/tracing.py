"""Per-layer tracing of torusweights, installed from outside the library.

`Tracer.install()` wraps the public functions of each module (and a few
methods) and rebinds every wrapped name wherever the package holds it: in
the defining module and in each module that imported it, such as the
`buchberger` that `torusweights.propagate` imported from `groebner`.  Each
timed call records a span (name, start, end, parent) in memory; a few
functions also add work counters.  `uninstall()` restores the originals.

The self time of a span is its duration minus the durations of its direct
child spans.
"""

import json
import sys
import time
from collections import defaultdict


def _scalar_matmul_work(counters, active, args, result):
    left, right = args[0], args[1]
    rows, inner, cols = left.num_rows, left.num_cols, right.num_cols
    counters["modules.ScalarMatrix.matmul.mults"] += rows * inner * cols
    # Products whose factors are both nonzero: the useful part of the
    # i*k*j multiplications the dense product performs.
    left_nonzero = [0] * inner
    for row in left.rows:
        for k, x in enumerate(row):
            if x:
                left_nonzero[k] += 1
    counters["modules.ScalarMatrix.matmul.useful_mults"] += sum(
        left_nonzero[k] * sum(1 for x in right.rows[k] if x) for k in range(inner)
    )


def _poly_matmul_work(counters, active, args, result):
    left, right = args[0], args[1]
    counters["modules.PolyMatrix.matmul.entry_products"] += left.num_rows * left.num_cols * right.num_cols


def _solve_work(counters, active, args, result):
    a_rows, b_rows = args[0], args[1]
    rows = len(a_rows)
    cols = len(a_rows[0]) if rows else 0
    rhs = len(b_rows[0]) if b_rows else 0
    counters["linalg.solve.cells"] += rows * (cols + rhs)


def _buchberger_work(counters, active, args, result):
    counters["groebner.buchberger.basis_size"] += len(result.elements)


def _normal_form_work(counters, active, args, result):
    if active["groebner.buchberger"]:
        counters["groebner.normal_form.under_buchberger"] += 1
        if not result.remainder.is_zero:
            counters["groebner.normal_form.useful"] += 1


def _standard_monomials_work(counters, active, args, result):
    counters["groebner.standard_monomials.terms"] += len(result)


# (metric prefix, module, attribute path, work counter or None)
TIMED = [
    ("modules.ScalarMatrix.matmul", "modules", "ScalarMatrix.__matmul__", _scalar_matmul_work),
    ("modules.ScalarMatrix.inverse", "modules", "ScalarMatrix.inverse", None),
    ("modules.PolyMatrix.matmul", "modules", "PolyMatrix.__matmul__", _poly_matmul_work),
    ("modules.PolyMatrix.init", "modules", "PolyMatrix.__init__", None),
    ("modules.split_by_column_degree", "modules", "split_by_column_degree", None),
    ("modules.dual_map", "modules", "dual_map", None),
    ("linalg.solve", "linalg", "solve", _solve_work),
    ("linalg.Echelon.add", "linalg", "Echelon.add", None),
    ("linalg.invert", "linalg", "invert", None),
    ("groebner.buchberger", "groebner", "buchberger", _buchberger_work),
    ("groebner.normal_form", "groebner", "normal_form", _normal_form_work),
    ("groebner.syzygies", "groebner", "syzygies", None),
    ("groebner.is_minimal_map", "groebner", "is_minimal_map", None),
    ("groebner.change_of_basis", "groebner", "change_of_basis", None),
    ("groebner.standard_monomials", "groebner", "standard_monomials", _standard_monomials_work),
    ("groebner.minimal_resolution", "groebner", "minimal_resolution", None),
    ("groebner.Resolution", "groebner", "Resolution.__init__", None),
    ("propagate.propagate", "propagate", "propagate", None),
    ("propagate.propagate_single_degree", "propagate", "propagate_single_degree", None),
    ("propagate.propagate_forward", "propagate", "propagate_forward", None),
    ("propagate.propagate_resolution", "propagate", "propagate_resolution", None),
    ("propagate.propagate_graded_components", "propagate", "propagate_graded_components", None),
    ("parsing.parse_polynomial", "parsing", "parse_polynomial", None),
    ("problemfile.problem_from_dict", "problemfile", "problem_from_dict", None),
    ("cli.main", "cli", "main", None),
]

# Called too often to time each call; these only count.
COUNTED = [
    ("rings.Polynomial.mul", "rings", "Polynomial.__mul__"),
    ("rings.Polynomial.add", "rings", "Polynomial.__add__"),
]


def metric_names():
    """Every per-layer metric a traced run reports, in a fixed order."""
    return list(Tracer().metrics()) + ["trace.overhead_s"]


def metric_units():
    """Unit of each per-layer metric: seconds, a ratio, or a count."""
    def unit(name):
        if name.endswith("_s"):
            return "s"
        return "ratio" if name.endswith("_ratio") else "count"

    return {name: unit(name) for name in metric_names()}


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Span recorder and call counter for one traced run."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent span index or -1)
        self.counters = defaultdict(int)
        self._stack = []
        self._active = defaultdict(int)
        self._restore = []

    def _timed(self, name, fn, work):
        spans, stack, active, counters = self.spans, self._stack, self._active, self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                spans[index] = (name, start, end, parent)
            if work is not None:
                work(counters, active, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counters = self.counters
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, modules, module_name, path, make):
        owner, attr = _resolve(modules["torusweights." + module_name], path)
        original = owner.__dict__[attr]
        wrapped = make(original)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)
        if owner is modules["torusweights." + module_name]:
            # Module-level function: also rebind every import of it.
            for module in modules.values():
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapped)

    def install(self):
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name == "torusweights" or name.startswith("torusweights.")
        }
        for name, module_name, path, work in TIMED:
            self._rebind(modules, module_name, path, lambda fn, n=name, w=work: self._timed(n, fn, w))
        for name, module_name, path in COUNTED:
            self._rebind(modules, module_name, path, lambda fn, n=name: self._counted(n, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def metrics(self):
        """Per-layer metrics: calls and self time per timed name, plus counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        self_time = defaultdict(float)
        for index, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_time[name] += end - start - child_time[index]
        c = self.counters
        out = {}
        for prefix, _, _, _ in TIMED:
            out[prefix + ".calls"] = calls[prefix]
            out[prefix + ".self_s"] = self_time[prefix]
        mults = c["modules.ScalarMatrix.matmul.mults"]
        under = c["groebner.normal_form.under_buchberger"]
        out.update(
            {
                "modules.ScalarMatrix.matmul.mults": mults,
                "modules.ScalarMatrix.matmul.nonzero_ratio": (
                    c["modules.ScalarMatrix.matmul.useful_mults"] / mults if mults else 0.0
                ),
                "modules.PolyMatrix.matmul.entry_products": c["modules.PolyMatrix.matmul.entry_products"],
                "linalg.solve.cells": c["linalg.solve.cells"],
                "groebner.buchberger.basis_size": c["groebner.buchberger.basis_size"],
                "groebner.normal_form.useful_ratio": (
                    c["groebner.normal_form.useful"] / under if under else 0.0
                ),
                "groebner.standard_monomials.terms": c["groebner.standard_monomials.terms"],
            }
        )
        for prefix, _, _ in COUNTED:
            out[prefix + ".calls"] = c[prefix + ".calls"]
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path):
        """Write the spans as JSON: a name table and [name, start, end, parent] rows."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[name], round(start - origin, 9), round(end - origin, 9), parent]
            for name, start, end, parent in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": names, "spans": rows}, handle, separators=(",", ":"))
