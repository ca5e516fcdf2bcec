"""Expected answers, derived without the library under test.

Each function returns the expected weight multisets as `collections.Counter`
objects of integer tuples, computed by direct enumeration (tableaux,
monomials, subsets) or copied from published worked examples.
"""

import itertools
from collections import Counter
from math import comb

from problems import PLUCKER_PAIRS, plucker_weight


def _add(vectors, length):
    total = [0] * length
    for v in vectors:
        for i, x in enumerate(v):
            total[i] += x
    return tuple(total)


def grassmannian_component(d):
    """Weights of degree d of the Gr(2,5) coordinate ring.

    The component is the Schur module of shape (d, d) on C^5, so its weights
    are the contents of the semistandard tableaux with two rows of length d
    and entries 1..5.
    """
    rows = list(itertools.combinations_with_replacement(range(1, 6), d))
    weights = Counter()
    for top in rows:
        for bottom in rows:
            if all(b > t for t, b in zip(top, bottom)):
                content = [0] * 5
                for x in top + bottom:
                    content[x - 1] += 1
                weights[tuple(content)] += 1
    return weights


def plucker_monomials(d):
    """Weights of all degree-d monomials in the ten Pluecker coordinates."""
    return Counter(
        _add([plucker_weight(p) for p in factors], 5)
        for factors in itertools.combinations_with_replacement(PLUCKER_PAIRS, d)
    )


def grassmannian_ideal_component(d):
    """Weights of degree d of coker d2, which is isomorphic to the Pluecker ideal.

    The ideal's degree-d part is every degree-d monomial weight minus the
    weights of the coordinate ring in degree d.
    """
    expected = plucker_monomials(d)
    expected.subtract(grassmannian_component(d))
    if any(count < 0 for count in expected.values()):
        raise ValueError("coordinate ring weights are not contained in the monomial weights")
    return +expected


def koszul_modules(n):
    """F_k of the Koszul complex on n generic forms: one weight per k-subset."""
    return [
        Counter(tuple(int(i in subset) for i in range(n)) for subset in itertools.combinations(range(n), k))
        for k in range(n + 1)
    ]


def koszul_ranks(n):
    return [comb(n, k) for k in range(n + 1)]


def grassmannian_resolution():
    """Weights of F_0..F_3 of the Gr(2,5) resolution (acceptance criterion 4)."""
    ones = (1,) * 5
    return [
        Counter([(0,) * 5]),
        Counter(tuple(x - (i == k) for i, x in enumerate(ones)) for k in range(5)),
        Counter(tuple(x + (i == k) for i, x in enumerate(ones)) for k in range(5)),
        Counter([(2,) * 5]),
    ]


GRASSMANNIAN_RANKS = [1, 5, 5, 1]

# Bigraded example of acceptance criterion 3: ranks, the degree multisets of
# F_1..F_4, and the weight multisets of F_0..F_4.
BIGRADED_RANKS = [1, 5, 9, 7, 2]
BIGRADED_DEGREES = [
    Counter({(1, 0): 2, (0, 2): 3}),
    Counter({(2, 0): 1, (1, 2): 6, (0, 3): 2}),
    Counter({(2, 2): 3, (1, 3): 4}),
    Counter({(2, 3): 2}),
]
BIGRADED_WEIGHTS = [
    Counter([(0, 0, 0, 0)]),
    Counter([(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 2), (0, 0, 1, 1), (0, 0, 2, 0)]),
    Counter(
        [
            (1, 1, 0, 0),
            (0, 1, 0, 2),
            (1, 0, 0, 2),
            (0, 1, 1, 1),
            (1, 0, 1, 1),
            (0, 1, 2, 0),
            (1, 0, 2, 0),
            (0, 0, 1, 2),
            (0, 0, 2, 1),
        ]
    ),
    Counter(
        [
            (1, 1, 0, 2),
            (1, 1, 1, 1),
            (1, 1, 2, 0),
            (0, 1, 1, 2),
            (0, 1, 2, 1),
            (1, 0, 1, 2),
            (1, 0, 2, 1),
        ]
    ),
    Counter([(1, 1, 1, 2), (1, 1, 2, 1)]),
]
