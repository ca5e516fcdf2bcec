"""Command-line front end.

Subcommands: gb, resolve, propagate, propagate-forward, propagate-resolution,
graded-weights, check-minimal.  Input is a problem description file (see
problemfile).  graded-weights stops its Groebner run at --degree; gb --truncate
bounds degrees through the ring's positive functional.  Output is
human-readable by default; --json switches to a
deterministic machine schema.  Exit codes: 0 success, 1 domain error (message
names the violated precondition, or memory or recursion depth ran out), 2
parse error, 3 internal error (a failed invariant of the library itself),
130 interrupted.  Set TORUSWEIGHTS_LOG to a level name (debug, info, ...)
for diagnostics on stderr.

Each subcommand is one entry of `_SUBCOMMANDS`: its help text, the function
that adds its arguments and the function that runs it.  A call runs one
subcommand, so when the first argument names one, `main` builds a parser
that registers that entry alone, which saves building six parsers it would
not use.  Any other first argument (none, -h, an unknown or abbreviated
name), and a call whose subcommand is given an argument it does not take,
goes to the parser of every entry, so top-level help, usage lines and
errors read as they always have.
"""

import argparse
import json
import logging
import os
import sys
from functools import partial

from .errors import InputError, InternalError, PolynomialSyntaxError, ProblemFileError
from .groebner import buchberger, is_minimal_map, minimal_resolution, sort_gb_columns
from .modules import ModuleTermOrder
from .problemfile import load_problem, matrix_to_rows, scalar_matrix_to_rows
from .propagate import (
    propagate,
    propagate_forward,
    propagate_graded_components,
    propagate_resolution,
)


def _configure_logging():
    level_name = os.environ.get("TORUSWEIGHTS_LOG", "").strip()
    if level_name:
        level = getattr(logging, level_name.upper(), None)
        if isinstance(level, int):
            logging.basicConfig(level=level, stream=sys.stderr)


def _parse_degree(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ProblemFileError("degree must be comma-separated integers, got %r" % text) from None


def _pick(table, requested, what, flag):
    if requested is not None:
        if requested not in table:
            raise ProblemFileError("no %s named %r in the problem file" % (what, requested))
        return table[requested]
    if len(table) == 1:
        return next(iter(table.values()))
    if not table:
        raise ProblemFileError("problem file defines no %s" % what)
    raise ProblemFileError(
        "problem file defines %d of these; choose a %s with --%s" % (len(table), what, flag)
    )


def _module_order(problem, args):
    if args.module_order is not None:
        return ModuleTermOrder(args.module_order)
    return problem.module_order


def _print_matrix_rows(rows, label):
    print("%s =" % label)
    if not rows or not rows[0]:
        print("  (empty %dx%d matrix)" % (len(rows), len(rows[0]) if rows else 0))
        return
    widths = [max(len(rows[i][j]) for i in range(len(rows))) for j in range(len(rows[0]))]
    for row in rows:
        cells = [cell.rjust(widths[j]) for j, cell in enumerate(row)]
        print("  [ %s ]" % "  ".join(cells))


def _print_weights(weights, label):
    print("%s =" % label)
    for w in weights:
        print("  (%s)" % ", ".join(str(x) for x in w))


def _emit_json(payload):
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _cmd_gb(problem, args):
    matrix = _pick(problem.matrices, args.matrix, "matrix", "matrix")
    order = _module_order(problem, args)
    bound = _parse_degree(args.truncate) if args.truncate else None
    basis = buchberger(matrix, order, bound=bound)
    rows = matrix_to_rows(sort_gb_columns(basis))
    if args.json:
        _emit_json({"groebner_matrix": rows, "size": len(basis.elements)})
    else:
        print("reduced Groebner basis with %d elements" % len(basis.elements))
        _print_matrix_rows(rows, "G")
    return 0


def _cmd_resolve(problem, args):
    matrix = _pick(problem.matrices, args.matrix, "matrix", "matrix")
    order = _module_order(problem, args)
    resolution = minimal_resolution(matrix, order, max_length=args.max_length)
    degrees = [[list(d) for d in m.basis_degrees] for m in resolution.modules]
    diff_rows = [matrix_to_rows(d) for d in resolution.differentials]
    if args.json:
        _emit_json({"ranks": resolution.ranks, "degrees": degrees, "differentials": diff_rows})
    else:
        print("minimal free resolution of length %d" % resolution.length)
        print("ranks: %s" % " ".join(str(r) for r in resolution.ranks))
        for i, rows in enumerate(diff_rows):
            _print_matrix_rows(rows, "d%d" % (i + 1))
    return 0


def _cmd_propagate(problem, args, forward=False):
    matrix = _pick(problem.matrices, args.matrix, "matrix", "matrix")
    weights = _pick(problem.weightlists, args.weights, "weight list", "weights")
    order = _module_order(problem, args)
    run = propagate_forward if forward else propagate
    result = run(matrix, weights, order)
    if args.json:
        _emit_json(
            {
                "change_of_basis": scalar_matrix_to_rows(result.change_of_basis),
                "weights": [list(w) for w in result.weights],
            }
        )
    else:
        _print_matrix_rows(scalar_matrix_to_rows(result.change_of_basis), "C")
        _print_weights(result.weights, "V" if not forward else "W")
    return 0


def _cmd_propagate_resolution(problem, args):
    if args.matrices is not None:
        if not args.matrices.strip():
            raise ProblemFileError("--matrices names no differentials")
        names = [n.strip() for n in args.matrices.split(",")]
    elif problem.resolution:
        names = problem.resolution
    else:
        raise ProblemFileError("no resolution: add a \"resolution\" list or pass --matrices")
    differentials = [_pick(problem.matrices, n, "matrix", "matrices") for n in names]
    weights = _pick(problem.weightlists, args.weights, "weight list", "weights")
    order = _module_order(problem, args)
    result = propagate_resolution(differentials, args.start_index, weights, order)
    if args.json:
        _emit_json({"weights_by_module": [[list(w) for w in ws] for ws in result.per_module]})
    else:
        for i, ws in enumerate(result.per_module):
            _print_weights(ws, "V%d" % i)
    return 0


def _cmd_graded_weights(problem, args):
    matrix = _pick(problem.matrices, args.matrix, "matrix", "matrix")
    weights = _pick(problem.weightlists, args.weights, "weight list", "weights")
    order = _module_order(problem, args)
    result = propagate_graded_components(_parse_degree(args.degree), matrix, weights, order)
    if args.json:
        _emit_json({"weights": [list(w) for w in result]})
    else:
        _print_weights(result, "V")
    return 0


def _cmd_check_minimal(problem, args):
    matrix = _pick(problem.matrices, args.matrix, "matrix", "matrix")
    minimal = is_minimal_map(matrix)
    if args.json:
        _emit_json({"minimal": minimal})
    else:
        print("minimal" if minimal else "not minimal")
    return 0


def _common(p, weights=False):
    p.add_argument("--input", required=True, help="problem description file (JSON)")
    p.add_argument("--matrix", help="matrix name (optional when the file has exactly one)")
    if weights:
        p.add_argument("--weights", help="weight list name (optional when unique)")
    p.add_argument(
        "--module-order",
        choices=list(ModuleTermOrder.KINDS),
        help="module term order (default: the file's module_order, else top-up)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _gb_arguments(p):
    _common(p)
    p.add_argument("--truncate", help="degree bound, comma-separated integers, compared through the "
                   "ring's positive functional (so not componentwise on a multigraded ring)")


def _resolve_arguments(p):
    _common(p)
    p.add_argument("--max-length", type=int, default=None)


def _propagate_resolution_arguments(p):
    _common(p, weights=True)
    p.add_argument("--from", dest="start_index", type=int, default=0,
                   help="index of the module whose weights are given (default 0)")
    p.add_argument("--matrices", help="comma-separated differential names d1,...,dm")


def _graded_weights_arguments(p):
    _common(p, weights=True)
    p.add_argument("--degree", required=True, help="target degree, comma-separated integers")


# name: (help, a function that adds the subcommand's arguments to its parser, run)
_SUBCOMMANDS = {
    "gb": ("reduced Groebner basis of a matrix image", _gb_arguments, _cmd_gb),
    "resolve": ("minimal free resolution of a presentation", _resolve_arguments, _cmd_resolve),
    "propagate": ("propagate codomain weights to the domain", partial(_common, weights=True), _cmd_propagate),
    "propagate-forward": (
        "propagate domain weights to the codomain",
        partial(_common, weights=True),
        partial(_cmd_propagate, forward=True),
    ),
    "propagate-resolution": (
        "propagate weights along a resolution", _propagate_resolution_arguments, _cmd_propagate_resolution,
    ),
    "graded-weights": (
        "weights of one graded component of a cokernel", _graded_weights_arguments, _cmd_graded_weights,
    ),
    "check-minimal": ("test whether a matrix is a minimal map", _common, _cmd_check_minimal),
}


def _build_parser(names):
    """The top-level parser, with a subparser for each of names, keys of `_SUBCOMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="torusweights",
        description="Torus-weight propagation along equivariant maps and resolutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_text, add_arguments, run = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(run=run)
    return parser


def main(argv=None):
    _configure_logging()
    if argv is None:
        argv = sys.argv[1:]
    names = argv[:1] if argv and argv[0] in _SUBCOMMANDS else _SUBCOMMANDS
    args, extras = _build_parser(names).parse_known_args(argv)
    if extras:
        # the top-level parser reports arguments that its subcommand does
        # not take, in a usage line that lists every registered subcommand
        args = _build_parser(_SUBCOMMANDS).parse_args(argv)
    try:
        problem = load_problem(args.input)
        return args.run(problem, args)
    except (ProblemFileError, PolynomialSyntaxError) as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except (InputError, OSError, RecursionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except InternalError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
