"""Problem description files: a JSON document naming a ring, free modules,
matrices, and weight lists.

Schema (see docs/problem-file-schema.json for the machine-readable version):

    {
      "ring": {"vars": [...], "degrees": [[...], ...], "weights": [[...], ...],
               "order": "grevlex" | "lex"},
      "modules": {NAME: {"degrees": [[...], ...]}, ...},
      "matrices": {NAME: {"rows": MODULE, "cols": MODULE,
                          "entries": [[POLY, ...], ...]}, ...},
      "weightlists": {NAME: [[...], ...], ...},
      "resolution": [MATRIX, ...],            # optional, ordered d_1 ... d_m
      "module_order": "top-up" | "pot-up" | "top-down" | "pot-down"  # optional
    }

Matrix entries are polynomial strings in the expression grammar; "rows" names
the codomain module, "cols" the domain module.  Matrices are checked for
homogeneity while loading.  Equal entry strings in one document are parsed
once and load as one shared Polynomial.  A key that the schema does not name
in the document, the ring, a module or a matrix is a ProblemFileError, as
the JSON schema's "additionalProperties": false makes it, and so is any
other value the schema rejects: a variable name that is not a string of its
pattern, an empty "vars", or an "order" or "module_order" outside its enum.
"""

import json
from dataclasses import dataclass

from .errors import ProblemFileError
from .modules import FreeModuleSpec, ModuleTermOrder, PolyMatrix
from .parsing import number_to_string, parse_polynomial, polynomial_to_string
from .rings import _NAME_RE, RingSpec


@dataclass
class Problem:
    ring: RingSpec
    modules: dict
    matrices: dict
    weightlists: dict
    resolution: list
    module_order: ModuleTermOrder


def _require(data, key, kind, where):
    if key not in data:
        raise ProblemFileError("missing %r in %s" % (key, where))
    value = data[key]
    if not isinstance(value, kind):
        raise ProblemFileError("%r in %s has the wrong type" % (key, where))
    return value


def _reject_unknown(data, known, where):
    """Raise ProblemFileError naming the first key of the object data that is not in known."""
    for key in data:
        if key not in known:
            raise ProblemFileError("unknown key %r in %s" % (key, where))


def _is_int_vector(value):
    return isinstance(value, list) and all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    )


def _require_int_vectors(data, key, where):
    value = _require(data, key, list, where)
    if not all(_is_int_vector(v) for v in value):
        raise ProblemFileError("%r in %s must be a list of integer lists" % (key, where))
    return value


def _choice(data, key, choices, default, where):
    """data[key], which must be one of choices, or default when data has no key."""
    value = data.get(key, default)
    if value not in choices:
        raise ProblemFileError("%r in %s must be one of %s" % (key, where, ", ".join(map(repr, choices))))
    return value


def _section(data, key):
    value = data.get(key, {})
    if not isinstance(value, dict) or not all(isinstance(v, dict) for v in value.values()):
        raise ProblemFileError("%r must map names to objects" % key)
    return value


def problem_from_dict(data):
    """Build a Problem from parsed JSON, resolving all references."""
    if not isinstance(data, dict):
        raise ProblemFileError("problem document must be a JSON object")
    _reject_unknown(
        data, ("ring", "modules", "matrices", "weightlists", "resolution", "module_order"), "problem document"
    )
    ring_data = _require(data, "ring", dict, "problem document")
    _reject_unknown(ring_data, ("vars", "degrees", "weights", "order"), "ring")
    names = _require(ring_data, "vars", list, "ring")
    if not names or not all(isinstance(v, str) and _NAME_RE.match(v) for v in names):
        raise ProblemFileError("'vars' in ring must be a nonempty list of variable names")
    ring = RingSpec(
        names,
        _require_int_vectors(ring_data, "degrees", "ring"),
        _require_int_vectors(ring_data, "weights", "ring"),
        _choice(ring_data, "order", RingSpec.TERM_ORDERS, "grevlex", "ring"),
    )

    modules = {}
    for name, spec in _section(data, "modules").items():
        where = "module %r" % name
        _reject_unknown(spec, ("degrees",), where)
        modules[name] = FreeModuleSpec(ring, _require_int_vectors(spec, "degrees", where))

    matrices = {}
    parsed = {}
    for name, spec in _section(data, "matrices").items():
        where = "matrix %r" % name
        _reject_unknown(spec, ("rows", "cols", "entries"), where)
        rows_name = _require(spec, "rows", str, where)
        cols_name = _require(spec, "cols", str, where)
        if rows_name not in modules:
            raise ProblemFileError("matrix %r references unknown module %r" % (name, rows_name))
        if cols_name not in modules:
            raise ProblemFileError("matrix %r references unknown module %r" % (name, cols_name))
        codomain, domain = modules[rows_name], modules[cols_name]
        entry_rows = _require(spec, "entries", list, where)
        if not all(isinstance(r, list) and all(isinstance(t, str) for t in r) for r in entry_rows):
            raise ProblemFileError("'entries' in %s must be rows of polynomial strings" % where)
        if len(entry_rows) != codomain.rank or any(len(r) != domain.rank for r in entry_rows):
            raise ProblemFileError("matrix %r entries do not match the module ranks" % name)
        entries = [
            [parsed[t] if t in parsed else parsed.setdefault(t, parse_polynomial(ring, t)) for t in row]
            for row in entry_rows
        ]
        matrices[name] = PolyMatrix(codomain, domain, entries)

    weightlists = {}
    weightlist_data = data.get("weightlists", {})
    if not isinstance(weightlist_data, dict):
        raise ProblemFileError("'weightlists' must map names to weight lists")
    for name, rows in weightlist_data.items():
        if not isinstance(rows, list) or not all(_is_int_vector(w) for w in rows):
            raise ProblemFileError("weight list %r must be a list of integer lists" % name)
        weightlists[name] = tuple(tuple(w) for w in rows)

    resolution = data.get("resolution")
    if resolution is not None:
        if not isinstance(resolution, list) or not all(isinstance(n, str) for n in resolution):
            raise ProblemFileError("'resolution' must be a list of matrix names")
        for name in resolution:
            if name not in matrices:
                raise ProblemFileError("resolution references unknown matrix %r" % name)

    module_order = ModuleTermOrder(_choice(data, "module_order", ModuleTermOrder.KINDS, "top-up", "problem document"))
    return Problem(ring, modules, matrices, weightlists, resolution, module_order)


def load_problem(path):
    """The Problem in the file at path; a file that does not decode as JSON is a ProblemFileError.

    Besides malformed JSON, the decoder rejects bytes that are not UTF-8,
    integers longer than `sys.get_int_max_str_digits()` and nesting deeper
    than the recursion limit.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise ProblemFileError(str(exc)) from exc
    return problem_from_dict(data)


def matrix_to_rows(matrix):
    """Matrix entries as canonical polynomial strings (rows of strings)."""
    ring = matrix.domain.ring
    return [
        [polynomial_to_string(ring, matrix.entries[i][j]) for j in range(matrix.num_cols)]
        for i in range(matrix.num_rows)
    ]


def scalar_matrix_to_rows(matrix):
    """Scalar matrix entries as exact strings ("3", "-1/2"); see `number_to_string`."""
    return [[number_to_string(x) for x in row] for row in matrix.rows]


def problem_to_dict(problem):
    """Serialize a Problem back to its canonical JSON-compatible dict.

    A matrix's module is named by the table entry that is that object, else by an equal one.
    """
    own, equal, modules = {}, {}, {}
    for name, spec in problem.modules.items():
        own[id(spec)] = equal[spec] = name
        modules[name] = {"degrees": [list(d) for d in spec.basis_degrees]}

    def module_ref(spec):
        name = own.get(id(spec), equal.get(spec))
        if name is None:
            raise ProblemFileError("matrix uses a module that is not in the module table")
        return name

    data = {
        "ring": {
            "vars": list(problem.ring.var_names),
            "degrees": [list(d) for d in problem.ring.var_degrees],
            "weights": [list(w) for w in problem.ring.var_weights],
            "order": problem.ring.term_order,
        },
        "modules": modules,
        "matrices": {
            name: {
                "rows": module_ref(m.codomain),
                "cols": module_ref(m.domain),
                "entries": matrix_to_rows(m),
            }
            for name, m in problem.matrices.items()
        },
        "weightlists": {name: [list(w) for w in ws] for name, ws in problem.weightlists.items()},
        "module_order": problem.module_order.kind,
    }
    if problem.resolution is not None:
        data["resolution"] = list(problem.resolution)
    return data
