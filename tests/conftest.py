import itertools
import pathlib

import pytest

from torusweights import FreeModuleSpec, PolyMatrix, RingSpec
from torusweights.parsing import parse_polynomial, polynomial_to_string
from torusweights.problemfile import load_problem

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# The problem files under fixtures/, without their ".json".
PROBLEMS = ["bigraded", "generic_koszul", "grassmannian", "high_degree", "high_degree_3var", "koszul",
            "mixed_sign", "three_squares", "two_variables"]


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
