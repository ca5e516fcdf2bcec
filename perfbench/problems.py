"""Seeded problem documents for the benchmark workloads.

Every builder returns a plain problem dict in the schema that
`torusweights.problemfile.problem_from_dict` reads.  The seed only chooses
inputs: the coefficients of generic linear forms and the declaration order of
the Pluecker coordinates.  Nothing here calls the library.
"""

import itertools
import random

# Pluecker coordinates p_ij (i < j) of Gr(2,5), in the order of the
# Grassmannian acceptance fixture; p_ij carries torus weight e_i + e_j.
PLUCKER_PAIRS = [(i, j) for j in range(2, 6) for i in range(1, j)]
FOUR_SUBSETS = list(itertools.combinations(range(1, 6), 4))

# Second and third differentials of the Gr(2,5) resolution (the
# Buchsbaum-Eisenbud complex), as in the acceptance fixture.
GR_D2 = [
    ["-p_15", "p_25", "p_35", "p_45", "0"],
    ["p_14", "-p_24", "-p_34", "0", "-p_45"],
    ["-p_13", "p_23", "0", "-p_34", "p_35"],
    ["p_12", "0", "p_23", "p_24", "-p_25"],
    ["0", "-p_12", "-p_13", "-p_14", "p_15"],
]
GR_D3 = [
    ["-p_34*p_25+p_24*p_35-p_23*p_45"],
    ["-p_34*p_15+p_14*p_35-p_13*p_45"],
    ["p_24*p_15-p_14*p_25+p_12*p_45"],
    ["-p_23*p_15+p_13*p_25-p_12*p_35"],
    ["-p_23*p_14+p_13*p_24-p_12*p_34"],
]


def rng_for(seed, label):
    """Independent, reproducible random stream per (seed, input) pair."""
    return random.Random("%d:%s" % (seed, label))


def plucker_name(pair):
    return "p_%d%d" % pair


def unit_vector(n, i):
    return [int(k == i) for k in range(n)]


def plucker_weight(pair):
    return [int(k + 1 in pair) for k in range(5)]


def plucker_relations():
    """The five Pluecker quadrics, one per 4-subset, as signed term lists."""
    relations = []
    for a, b, c, d in FOUR_SUBSETS:
        relations.append([(1, (a, b), (c, d)), (-1, (a, c), (b, d)), (1, (a, d), (b, c))])
    return relations


def _relation_text(relation):
    text = ""
    for sign, left, right in relation:
        text += ("-" if sign < 0 else "+") + "%s*%s" % (plucker_name(left), plucker_name(right))
    return text.lstrip("+")


def plucker_order(seed):
    """Declaration order of the ten Pluecker coordinates for this seed.

    Seed 0 keeps the fixture order; any other seed shuffles it, which changes
    the grevlex term order but not any weight multiset.
    """
    pairs = list(PLUCKER_PAIRS)
    if seed:
        rng_for(seed, "plucker-order").shuffle(pairs)
    return pairs


def _plucker_ring(pairs):
    return {
        "vars": [plucker_name(p) for p in pairs],
        "degrees": [[1]] * len(pairs),
        "weights": [plucker_weight(p) for p in pairs],
        "order": "grevlex",
    }


def _grevlex_key(pairs, factors):
    """grevlex key of a product of coordinates, precedence = declaration order."""
    expo = [0] * len(pairs)
    for pair in factors:
        expo[pairs.index(pair)] += 1
    return (sum(expo), tuple(-e for e in reversed(expo)))


def _negate(text):
    if text == "0":
        return text
    return text[1:] if text.startswith("-") else "-" + text


def grassmannian(seed=0):
    """The Gr(2,5) resolution d1, d2, d3 with weight lists W0 and V3.

    Also holds `d2_rebased`: the second differential with its rows rewritten
    in the basis of F1 that weight propagation along d1 produces (the
    relations made monic and sorted by increasing leading term), together
    with the matching weight list `V1` of that basis.
    """
    pairs = plucker_order(seed)
    relations = plucker_relations()

    def lead(relation):
        return max(relation, key=lambda term: _grevlex_key(pairs, term[1:]))

    ranked = sorted(range(5), key=lambda k: _grevlex_key(pairs, lead(relations[k])[1:]))
    rebased = []
    for k in ranked:
        sign = lead(relations[k])[0]
        rebased.append([cell if sign > 0 else _negate(cell) for cell in GR_D2[k]])
    return {
        "ring": _plucker_ring(pairs),
        "modules": {
            "F0": {"degrees": [[0]]},
            "F1": {"degrees": [[2]] * 5},
            "F2": {"degrees": [[3]] * 5},
            "F3": {"degrees": [[5]]},
        },
        "matrices": {
            "d1": {"rows": "F0", "cols": "F1", "entries": [[_relation_text(r) for r in relations]]},
            "d2": {"rows": "F1", "cols": "F2", "entries": GR_D2},
            "d2_rebased": {"rows": "F1", "cols": "F2", "entries": rebased},
            "d3": {"rows": "F2", "cols": "F3", "entries": GR_D3},
        },
        "weightlists": {
            "W0": [[0] * 5],
            "V1": [[int(i in FOUR_SUBSETS[k]) for i in range(1, 6)] for k in ranked],
            "V3": [[2] * 5],
        },
        "resolution": ["d1", "d2", "d3"],
        "module_order": "top-up",
    }


def bigraded():
    """The bigraded presentation of the acceptance suite (ranks 1,5,9,7,2)."""
    return {
        "ring": {
            "vars": ["x1", "x2", "y1", "y2"],
            "degrees": [[1, 0], [1, 0], [0, 1], [0, 1]],
            "weights": [unit_vector(4, i) for i in range(4)],
            "order": "grevlex",
        },
        "modules": {
            "F0": {"degrees": [[0, 0]]},
            "E": {"degrees": [[1, 0], [1, 0], [0, 2], [0, 2], [0, 2]]},
        },
        "matrices": {
            "m": {"rows": "F0", "cols": "E", "entries": [["x1", "x2", "y1^2", "y1*y2", "y2^2"]]}
        },
        "weightlists": {"W": [[0, 0, 0, 0]]},
    }


def _determinant_is_zero(rows):
    """Exact singularity test by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return True
            a[k], a[swap] = a[swap], a[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[n - 1][n - 1] == 0


def generic_forms(n, seed, label):
    """n linearly independent linear forms with coefficients drawn from 1..9."""
    rng = rng_for(seed, "%s-forms-%d" % (label, n))
    while True:
        coefficients = [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
        if not _determinant_is_zero(coefficients):
            return coefficients


def _form_text(row):
    return "+".join("%d*x%d" % (c, j + 1) for j, c in enumerate(row))


def _koszul_ring(n):
    return {
        "vars": ["x%d" % (j + 1) for j in range(n)],
        "degrees": [[1]] * n,
        "weights": [unit_vector(n, j) for j in range(n)],
        "order": "grevlex",
    }


def koszul_presentation(n, seed):
    """The row of n generic linear forms: a presentation of the residue field."""
    forms = [_form_text(row) for row in generic_forms(n, seed, "presentation")]
    return {
        "ring": _koszul_ring(n),
        "modules": {"F0": {"degrees": [[0]]}, "F1": {"degrees": [[1]] * n}},
        "matrices": {"d1": {"rows": "F0", "cols": "F1", "entries": [forms]}},
        "weightlists": {"W0": [[0] * n]},
        "module_order": "top-up",
    }


def koszul_complex(n, seed):
    """All n differentials of the Koszul complex on n generic linear forms.

    F_k has one basis element e_I per k-subset I (lexicographic order), in
    degree k, and d_k(e_I) = sum_t (-1)^t l_{I[t]} e_{I without I[t]}.  The
    top module F_n carries the weight list `VN` = [(1, ..., 1)].
    """
    forms = [_form_text(row) for row in generic_forms(n, seed, "complex")]
    subsets = [list(itertools.combinations(range(n), k)) for k in range(n + 1)]
    modules = {"F%d" % k: {"degrees": [[k]] * len(subsets[k])} for k in range(n + 1)}
    matrices = {}
    for k in range(1, n + 1):
        row_of = {s: i for i, s in enumerate(subsets[k - 1])}
        entries = [["0"] * len(subsets[k]) for _ in subsets[k - 1]]
        for j, subset in enumerate(subsets[k]):
            for t, var in enumerate(subset):
                face = subset[:t] + subset[t + 1:]
                entries[row_of[face]][j] = forms[var] if t % 2 == 0 else "-(%s)" % forms[var]
        matrices["d%d" % k] = {"rows": "F%d" % (k - 1), "cols": "F%d" % k, "entries": entries}
    return {
        "ring": _koszul_ring(n),
        "modules": modules,
        "matrices": matrices,
        "weightlists": {"VN": [[1] * n]},
        "resolution": ["d%d" % k for k in range(1, n + 1)],
        "module_order": "top-up",
    }
