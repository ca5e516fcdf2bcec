import itertools
import pathlib
import random

import pytest

from torusweights import FreeModuleSpec, PolyMatrix, RingSpec
from torusweights.linalg import rank
from torusweights.parsing import parse_polynomial, polynomial_to_string
from torusweights.problemfile import load_problem

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# The problem files under fixtures/, without their ".json".
PROBLEMS = ["bigraded", "generic_koszul", "grassmannian", "high_degree", "high_degree_3var", "koszul",
            "mixed_sign", "three_squares", "two_variables"]

# Variable weights that are negative and wider than 64 bits, which the
# search for standard monomials packs into signed slots.
WIDE_WEIGHT_RING = RingSpec(
    ["x", "y", "z"], [[1], [1], [1]], [[-(2**70) - 1, -3], [-(2**65), -(2**66) - 7], [-1, -(2**64)]]
)


def fixture_path(name):
    return FIXTURES / name


def matrix(ring, cod_degs, dom_degs, rows):
    cod = FreeModuleSpec(ring, cod_degs)
    dom = FreeModuleSpec(ring, dom_degs)
    return PolyMatrix(cod, dom, [[parse_polynomial(ring, t) for t in row] for row in rows])


def entries_as_text(m):
    ring = m.domain.ring
    return [[polynomial_to_string(ring, p) for p in row] for row in m.entries]


def plucker_presentation(n):
    """The C(n, 4) Pluecker quadrics of Gr(2, n) as a one-row presentation.

    p_ij, i < j, has degree 1 and weight e_i + e_j, declared by increasing
    j and then i, under grevlex, as perfbench's Gr(2,5) problem declares
    them; the quadric of a < b < c < d is p_ab p_cd - p_ac p_bd + p_ad p_bc.
    """
    pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
    weights = [[int(k + 1 in pair) for k in range(n)] for pair in pairs]
    ring = RingSpec(["p_%d%d" % pair for pair in pairs], [[1]] * len(pairs), weights, "grevlex")
    quadrics = [
        "p_%d%d*p_%d%d-p_%d%d*p_%d%d+p_%d%d*p_%d%d" % (a, b, c, d, a, c, b, d, a, d, b, c)
        for a, b, c, d in itertools.combinations(range(1, n + 1), 4)
    ]
    return matrix(ring, [[0]], [[2]] * len(quadrics), [quadrics])


def koszul_complex(n, seed):
    """The differentials d_1 ... d_n of the Koszul complex on n generic linear forms.

    As perfbench/problems.py's koszul_complex(n, seed) builds them: the
    forms' coefficients are drawn from 1..9 by the same seeded stream until
    the forms are independent, F_k has one basis element e_I per k-subset I
    (lexicographic order) in degree k, and d_k(e_I) = sum_t (-1)^t l_{I[t]}
    e_{I without I[t]}, over `std_ring(n)`.
    """
    rng = random.Random("%d:complex-forms-%d" % (seed, n))
    while True:
        coefficients = [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
        if rank(coefficients) == n:
            break
    forms = ["+".join("%d*x%d" % (c, j + 1) for j, c in enumerate(row)) for row in coefficients]
    subsets = [list(itertools.combinations(range(n), k)) for k in range(n + 1)]
    ring = std_ring(n)
    differentials = []
    for k in range(1, n + 1):
        row_of = {s: i for i, s in enumerate(subsets[k - 1])}
        entries = [["0"] * len(subsets[k]) for _ in subsets[k - 1]]
        for j, subset in enumerate(subsets[k]):
            for t, var in enumerate(subset):
                face = subset[:t] + subset[t + 1:]
                entries[row_of[face]][j] = forms[var] if t % 2 == 0 else "-(%s)" % forms[var]
        differentials.append(matrix(ring, [[k - 1]] * len(subsets[k - 1]), [[k]] * len(subsets[k]), entries))
    return differentials


def std_ring(n, order="grevlex"):
    weights = [[int(i == j) for j in range(n)] for i in range(n)]
    return RingSpec(["x%d" % (i + 1) for i in range(n)], [[1]] * n, weights, order)


@pytest.fixture(scope="session")
def koszul():
    return load_problem(fixture_path("koszul.json"))


@pytest.fixture(scope="session")
def two_variables():
    return load_problem(fixture_path("two_variables.json"))


@pytest.fixture(scope="session")
def three_squares():
    return load_problem(fixture_path("three_squares.json"))


@pytest.fixture(scope="session")
def bigraded():
    return load_problem(fixture_path("bigraded.json"))


@pytest.fixture(scope="session")
def grassmannian():
    return load_problem(fixture_path("grassmannian.json"))


@pytest.fixture(scope="session")
def mixed_sign():
    return load_problem(fixture_path("mixed_sign.json"))
