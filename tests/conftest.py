import itertools
import pathlib
import random

import pytest

from torusweights import FreeModuleSpec, PolyMatrix, RingSpec
from torusweights.linalg import rank
from torusweights.parsing import parse_polynomial, polynomial_to_string
from torusweights.problemfile import load_problem

# tests import the Pluecker presentation from here
from reference import plucker_presentation

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


def koszul_complex(n, seed):
    """The differentials d_1 ... d_n of the Koszul complex on n generic linear forms.

    As perfbench/problems.py's koszul_complex(n, seed) builds them: the
    forms' coefficients are drawn from 1..9 by the same seeded stream until
    the forms are independent, F_k has one basis element e_I per k-subset I
    (lexicographic order) in degree k, and d_k(e_I) = sum_t (-1)^t l_{I[t]}
    e_{I without I[t]}, over `std_ring(n)`.
    """
    forms = generic_forms(n, seed, "complex")
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


def generic_forms(n, seed, label):
    """n independent linear forms in x1 ... xn, as texts, drawn as perfbench/problems.py's generic_forms draws them."""
    rng = random.Random("%d:%s-forms-%d" % (seed, label, n))
    while True:
        coefficients = [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
        if rank(coefficients) == n:
            return ["+".join("%d*x%d" % (c, j + 1) for j, c in enumerate(row)) for row in coefficients]


def koszul_presentation(n, seed):
    """The row of n generic linear forms, as perfbench/problems.py's koszul_presentation(n, seed) builds it."""
    return matrix(std_ring(n), [[0]], [[1]] * n, [generic_forms(n, seed, "presentation")])


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
