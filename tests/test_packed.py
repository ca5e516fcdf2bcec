"""Packed terms outside the Groebner engine, against the tuple code they replaced.

`_TermCodec.product` must give `PolyMatrix.__matmul__`'s product, entry for
entry, also for the constant left factor C^-1 by which the walk rebases a
map, and its zero test must agree with `(a @ b).is_zero`, on both of its
paths: the dict loop and the packed rows.  A spy on `packed._row_slots`,
which picks the path, records which one each product took and can force
either.  The packed propagation walk must give, step by step, what the
tuple walk gave: the functions `_combine`, `_propagate` and `_walk` below
are the tuple versions, kept as the reference; they compute C, G and each
step's map eagerly and hand them over as functions of no argument, as the
records take them.  Hypothesis runs derandomized, as in test_properties.
"""

import contextlib
import importlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from torusweights import (
    FreeModuleSpec,
    InputError,
    ModuleTermOrder,
    PolyMatrix,
    RingSpec,
    ScalarMatrix,
    minimal_resolution,
    propagate_resolution,
)
from torusweights.errors import MinimalityError, ResolutionStepError
from torusweights.groebner import _nonzero_composite, _packed_chain, check_chain
from torusweights.linalg import Echelon, _dense_primitive, _Slots, rank
from torusweights.modules import ModuleElement, _column_rows, dual_map
from torusweights import packed
from torusweights.packed import _FIELD_BITS, _TermCodec, _largest_degree
from torusweights.problemfile import load_problem
from torusweights.propagate import _NOT_MINIMAL, PropagationResult
from torusweights.rings import Polynomial, unit_monomial, vector_add

from conftest import PROBLEMS, fixture_path, plucker_presentation, std_ring

ALL_ORDERS = [ModuleTermOrder(kind) for kind in ModuleTermOrder.KINDS]

# The largest exponent the first field width holds.
FIRST_CAPACITY = (1 << _FIELD_BITS) - 1


def typed_poly(p):
    return sorted((mono, type(c).__name__, c) for mono, c in p.terms.items())


def typed_matrix(m):
    """The entries of a PolyMatrix with their coefficient types, and its modules."""
    return (
        m.codomain,
        m.domain,
        [[typed_poly(p) for p in row] for row in m.entries],
    )


def typed_scalars(s):
    return [[(type(x).__name__, x) for x in row] for row in s.rows]


# ---------- the product kernel against PolyMatrix.__matmul__ ----------

COEFFICIENTS = st.sampled_from([1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3)])

# Coefficients that would widen the kernel's row slots past a machine word,
# which sends their products to the dict loop: up to +-2**200, and Fractions
# whose large denominators are pairwise coprime.
WIDE_COEFFICIENTS = st.sampled_from(
    [
        2**200, -(2**200), 2**200 - 1, -(2**64 + 1),
        Fraction(1, 2**61 - 1), Fraction(-5, 10**30 + 3), Fraction(2**100, 3**50),
    ]
)

ANY_COEFFICIENTS = st.one_of(COEFFICIENTS, WIDE_COEFFICIENTS)


@contextlib.contextmanager
def kernel_paths(force=None):
    """The paths `_TermCodec.product` takes inside the block, as a list of "dict" and "packed".

    force "dict" sends every product through the dict loop, and force
    "packed" packs the rows wherever A has two rows per packed monomial and
    the slots fit 64 bits, however empty they would be; None leaves the
    rule as it is.
    """
    taken = []
    rule = packed._row_slots

    def spy(*args):
        layout = None if force == "dict" else rule(*args)
        taken.append("dict" if layout is None else "packed")
        return layout

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(packed, "_row_slots", spy)
        if force == "packed":
            patch.setattr(packed, "_BYTES_PER_ROW", float("inf"))
        yield taken


@st.composite
def monomial_of_degree(draw, n, degree):
    cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=n - 1, max_size=n - 1)))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))


@st.composite
def homogeneous_poly(draw, n, degree, max_terms=3, coefficients=COEFFICIENTS):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        terms[draw(monomial_of_degree(n, degree))] = draw(coefficients)
    return Polynomial(terms)


@st.composite
def composable_pair(draw):
    """(a, b) with a @ b defined, over 1-3 variables under lex or grevlex.

    Half the pairs compose to zero by construction: the rows of a are up to
    five scalar multiples of one row (f_1, ..., f_r), so that a monomial of
    a column of a sits in up to five rows, and each column of b is
    h * (f_j e_i - f_i e_j).  In some of those pairs the multipliers and h
    take wide coefficients too, which keep the dict loop.  Some of those have one entry of b perturbed by a term, so that
    the composite is (most likely) nonzero.  The other half have random
    entries.  Entry degrees reach across the first field width, and
    products of them further.
    """
    n = draw(st.integers(1, 3))
    ring = std_ring(n, draw(st.sampled_from(["grevlex", "lex"])))
    scale = draw(st.sampled_from([3, 100, 150]))
    r = draw(st.integers(1, 3))
    e_degrees = [draw(st.integers(1, scale)) for _ in range(r)]
    if draw(st.booleans()):
        f = [draw(homogeneous_poly(n, d)) for d in e_degrees]
        coefficients = draw(st.sampled_from([COEFFICIENTS, ANY_COEFFICIENTS]))
        multipliers = draw(st.lists(coefficients, min_size=1, max_size=5))
        a = PolyMatrix(
            FreeModuleSpec(ring, [[0]] * len(multipliers)),
            FreeModuleSpec(ring, [[d] for d in e_degrees]),
            [[p.scale(c) for p in f] for c in multipliers],
        )
        columns, d_degrees = [], []
        for i, j in itertools.combinations(range(r), 2):
            gap = draw(st.integers(0, scale))
            h = draw(homogeneous_poly(n, gap, 2, coefficients))
            column = [Polynomial() for _ in range(r)]
            column[i], column[j] = h * f[j], -(h * f[i])
            columns.append(column)
            d_degrees.append(e_degrees[i] + e_degrees[j] + gap)
        if columns and draw(st.booleans()):
            j = draw(st.integers(0, len(columns) - 1))
            k = draw(st.integers(0, r - 1))
            term = draw(homogeneous_poly(n, d_degrees[j] - e_degrees[k], 1))
            columns[j][k] = columns[j][k] + term
    else:
        f_degrees = [draw(st.integers(0, 1)) for _ in range(draw(st.integers(1, 3)))]
        e_degrees = [d + max(f_degrees) for d in e_degrees]
        a = PolyMatrix(
            FreeModuleSpec(ring, [[d] for d in f_degrees]),
            FreeModuleSpec(ring, [[d] for d in e_degrees]),
            [[draw(homogeneous_poly(n, e - f)) for e in e_degrees] for f in f_degrees],
        )
        d_degrees = [max(e_degrees) + draw(st.integers(0, scale)) for _ in range(draw(st.integers(0, 3)))]
        columns = [[draw(homogeneous_poly(n, d - e)) for e in e_degrees] for d in d_degrees]
    b = PolyMatrix.from_columns(
        a.domain,
        FreeModuleSpec(ring, [[d] for d in d_degrees]),
        [ModuleElement(a.domain, column) for column in columns],
    )
    return a, b


def assert_product_matches_matmul(a, b, order):
    expected = a @ b
    codec = _TermCodec(a.domain.ring, order, max(a.num_rows, b.num_rows), _largest_degree(a) + _largest_degree(b))
    packed_a, packed_b = codec.columns(a), codec.columns(b)
    product = codec.matrix(list(codec.product(packed_a, packed_b)), a.codomain, b.domain)
    assert typed_matrix(product) == typed_matrix(expected)
    assert (not any(codec.product(packed_a, packed_b))) == expected.is_zero
    assert (_nonzero_composite(*_packed_chain([a, b], order)) is None) == expected.is_zero


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pair=composable_pair(), order=st.sampled_from(ALL_ORDERS))
def check_product_kernel_matches_matmul(pair, order):
    assert_product_matches_matmul(*pair, order)


def test_product_kernel_matches_matmul():
    with kernel_paths() as taken:
        check_product_kernel_matches_matmul()
    assert set(taken) == {"dict", "packed"}


def test_packed_rows_match_matmul_wherever_they_fit():
    # the same pairs with the rows packed wherever they repeat a monomial and
    # fit 64-bit slots; 200-bit coefficients and large denominators do not
    with kernel_paths("packed") as taken:
        check_product_kernel_matches_matmul()
    assert set(taken) == {"dict", "packed"}


class CountedTerms(dict):
    """A term dict that counts the passes over its terms: each packing of its Polynomial makes one."""

    passes = 0

    def items(self):
        self.passes += 1
        return super().items()

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_columns_pack_each_distinct_entry_once():
    # a loaded matrix shares one Polynomial between equal entries; packing
    # it must give what packing equal entries that are distinct objects
    # gives, dicts in the same insertion order, and pass over the terms of
    # each nonzero object once
    ring = std_ring(3)
    x, y, z = (ring.variable(i) for i in range(3))
    polys = [x * y - z.scale(3) * z, (x + y).scale(Fraction(1, 2)) * z, Polynomial()]
    layout = [[0, 1, 2, 0], [1, 0, 0, 2], [2, 2, 1, 0]]

    def counted(k):
        return Polynomial._from_exact(CountedTerms(polys[k].terms))

    codomain, domain = FreeModuleSpec(ring, [[0]] * 3), FreeModuleSpec(ring, [[2]] * 4)
    shared = [counted(k) for k in range(len(polys))]
    distinct = [[counted(k) for k in row] for row in layout]
    m_shared = PolyMatrix(codomain, domain, [[shared[k] for k in row] for row in layout])
    m_distinct = PolyMatrix(codomain, domain, distinct)
    for order in ALL_ORDERS:
        codec = _TermCodec(ring, order, 4, 2)
        expected = [
            list({codec.term(mono, i): c for i, k in enumerate(col) for mono, c in polys[k].terms.items()}.items())
            for col in zip(*layout)
        ]
        for m, entries in ((m_shared, shared), (m_distinct, [p for row in distinct for p in row])):
            for reader in (codec.columns, _largest_degree):
                for p in entries:
                    p.terms.passes = 0
                reader(m)
                assert [p.terms.passes for p in entries] == [int(bool(p)) for p in entries], (reader, order)
            assert [list(col.items()) for col in codec.columns(m)] == expected, order
        assert _largest_degree(m_shared) == _largest_degree(m_distinct) == 2


ENTRIES = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])

NONZERO_ENTRIES = st.one_of(st.sampled_from([1, -1, 2, 7, Fraction(1, 2), Fraction(-2, 3)]), WIDE_COEFFICIENTS)


@st.composite
def constant_left_factor(draw, spec, kinds=("permutation", "triangular", "dense")):
    """(C, codomain): an invertible ScalarMatrix that maps spec to codomain preserving degrees.

    A permutation, with codomain spec's basis permuted; or, with codomain
    spec, within each degree of spec, L @ U for L unit lower triangular and
    U upper triangular with a nonzero diagonal: "triangular" draws their
    entries from values that include zeros, "dense" from nonzero ones,
    wide ones too, so that C is dense in each degree block and every
    column of it packs into one int of many rows.
    """
    r, degrees = spec.rank, spec.basis_degrees
    kind = draw(st.sampled_from(kinds))
    if kind == "permutation":
        perm = draw(st.permutations(range(r)))
        rows = [[int(k == perm[i]) for k in range(r)] for i in range(r)]
        return ScalarMatrix(rows), FreeModuleSpec(spec.ring, [degrees[k] for k in perm])
    entries = ENTRIES if kind == "triangular" else NONZERO_ENTRIES
    rows = [[0] * r for _ in range(r)]
    for d in dict.fromkeys(degrees):
        block = [k for k in range(r) if degrees[k] == d]
        size = len(block)
        lower = [[1 if p == q else draw(entries) if q < p else 0 for q in range(size)] for p in range(size)]
        upper = [[draw(COEFFICIENTS) if p == q else draw(entries) if q > p else 0 for q in range(size)] for p in range(size)]
        for p, i in enumerate(block):
            for q, k in enumerate(block):
                rows[i][k] = sum(lower[p][m] * upper[m][q] for m in range(size))
    return ScalarMatrix(rows), spec


def assert_constant_product_matches_matmul(left, codomain, b, order):
    # the walk's rebase C^-1 @ d, with the columns of C^-1 packed as constant
    # terms into a codec sized for d alone
    expected = left.to_poly_matrix(codomain, b.codomain) @ b
    codec = _TermCodec(b.domain.ring, order, b.num_rows, _largest_degree(b))
    unit = unit_monomial(b.domain.ring.num_vars)
    packed_left = [{codec.term(unit, i): x for i, x in enumerate(col) if x} for col in zip(*left.rows)]
    product = codec.matrix(list(codec.product(packed_left, codec.columns(b))), codomain, b.domain)
    assert typed_matrix(product) == typed_matrix(expected)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), pair=composable_pair(), order=st.sampled_from(ALL_ORDERS))
def test_product_kernel_with_a_constant_left_factor_matches_matmul(data, pair, order):
    _, b = pair
    assert_constant_product_matches_matmul(*data.draw(constant_left_factor(b.codomain)), b, order)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), label=st.sampled_from(["d2", "d3", "d4"]), order=st.sampled_from(ALL_ORDERS))
def check_dense_rebase_of_the_generic_koszul_complex(data, label, order):
    d = load_problem(fixture_path("generic_koszul_complex.json")).matrices[label]
    assert_constant_product_matches_matmul(*data.draw(constant_left_factor(d.codomain, ("dense",))), d, order)


def test_product_kernel_rebases_the_generic_koszul_complex_by_dense_constant_matrices():
    # F_1, F_2 and F_3 of the complex lie in one degree each, so a dense C^-1
    # packs each of its columns into one int of 4 or 6 rows
    with kernel_paths() as taken:
        check_dense_rebase_of_the_generic_koszul_complex()
    assert "packed" in taken


@pytest.mark.parametrize("order", ALL_ORDERS, ids=lambda order: order.kind)
def test_generic_koszul_composites_vanish_on_packed_rows(order):
    # a column of d_k holds k generic linear forms, so each of its monomials
    # sits in k rows: d2, d3 and d4 pack 2, 3 and 4 rows per int
    problem = load_problem(fixture_path("generic_koszul_complex.json"))
    differentials = [problem.matrices[label] for label in problem.resolution]
    with kernel_paths() as taken:
        assert _nonzero_composite(*_packed_chain(differentials, order)) is None
    assert taken == ["dict", "packed", "packed"]
    for a, b in zip(differentials, differentials[1:]):
        assert_product_matches_matmul(a, b, order)


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
        [[1, 0, Fraction(1, 2)], [0, -2, 3], [Fraction(-2, 3), 1, 0]],
    ],
    ids=["permutation", "dense"],
)
@pytest.mark.parametrize("order", ALL_ORDERS, ids=lambda order: order.kind)
def test_product_kernel_rebases_the_koszul_map_by_a_constant_matrix(rows, order):
    d2 = load_problem(fixture_path("koszul.json")).matrices["d2"]
    assert_constant_product_matches_matmul(ScalarMatrix(rows), d2.codomain, d2, order)


def end_slot_pair(ring, row, perturbed, c):
    """(a, b) whose product cancels in every row, or is nonzero in row `row` only.

    a has four rows: each is c, 2, -3 and 5 times (x1, x2), and row `row`
    has x3 in a third column besides.  b's column is c * (x2 e_1 - x1 e_2),
    plus x3 e_3 when perturbed, so the product is zero in every row, or
    x3^2 in row `row` alone.  Under *-up orders row 0 is the lowest slot of
    the kernel's packed rows and row 3 the highest; *-down orders reverse
    them.
    """
    x1, x2, x3 = (ring.variable(i) for i in range(3))
    multipliers = [c, 2, -3, 5]
    entries = [[x1.scale(m), x2.scale(m), x3 if i == row else Polynomial()] for i, m in enumerate(multipliers)]
    a = PolyMatrix(FreeModuleSpec(ring, [[0]] * 4), FreeModuleSpec(ring, [[1]] * 3), entries)
    column = [x2.scale(c), x1.scale(-c), x3 if perturbed else Polynomial()]
    b = PolyMatrix(a.domain, FreeModuleSpec(ring, [[2]]), [[p] for p in column])
    return a, b


# (c, whether the products of end_slot_pair fit 64-bit slots)
END_SLOT_COEFFICIENTS = [
    (1, True),
    (-(2**20), True),
    (Fraction(7, 2**13 - 1), True),
    (-(2**200), False),
    (2**200 - 1, False),
    (Fraction(7, 2**61 - 1), False),
]


@pytest.mark.parametrize("c, fits", END_SLOT_COEFFICIENTS, ids=["1", "-2^20", "7/8191", "-2^200", "2^200-1", "7/(2^61-1)"])
@pytest.mark.parametrize("path", ["dict", "packed"])
@pytest.mark.parametrize("row", [0, 3], ids=["row0", "row3"])
def test_products_cancelling_in_an_end_slot_and_their_perturbations(row, path, c, fits):
    # wide coefficients take the dict loop whichever path is asked for
    ring = std_ring(3)
    for order in ALL_ORDERS:
        for perturbed in (False, True):
            a, b = end_slot_pair(ring, row, perturbed, c)
            expected = a @ b
            assert expected.is_zero != perturbed
            assert not perturbed or [i for i, entries in enumerate(expected.entries) if not entries[0].is_zero] == [row]
            with kernel_paths(path) as taken:
                assert_product_matches_matmul(a, b, order)
            assert set(taken) == {path if fits else "dict"}


@pytest.mark.parametrize(
    "a_value, b_value, n, path",
    [(7, 7, 3, "packed"), (2**28 - 1, 2**28 - 1, 127, "packed"), (2**28 - 1, 2**29 - 1, 127, "dict")],
    ids=["2-byte", "8-byte", "65-bit"],
)
def test_products_at_the_slot_bound_read_out_exactly(a_value, b_value, n, path):
    # n terms of b, each b_value, meet one term of a, a_value, in each of 3
    # rows: every slot sums to +-n * a_value * b_value.  The slot width is
    # the bit lengths of a_value, of b_value and of n, plus one for the
    # sign.  3 * 7 * 7 = 147 needs 3 + 3 + 2 + 1 = 9 bits, so 2-byte slots;
    # one bit less would give 1-byte slots, and 147 would wrap.  28 + 28 + 7
    # + 1 = 64 bits is the widest slot, and one bit more takes the dict
    # loop.  The rows alternate in sign, so that a spill would show.
    ring = std_ring(2)
    x1 = ring.variable(0)
    a = PolyMatrix(
        FreeModuleSpec(ring, [[0]] * 3),
        FreeModuleSpec(ring, [[0]] * n),
        [[ring.one().scale(s * a_value) for _ in range(n)] for s in (1, -1, 1)],
    )
    b = PolyMatrix(a.domain, FreeModuleSpec(ring, [[1]]), [[x1.scale(-b_value)] for _ in range(n)])
    for order in ALL_ORDERS:
        with kernel_paths() as taken:
            assert_product_matches_matmul(a, b, order)
        assert set(taken) == {path}
    assert (a @ b).entries[1][0].terms == {(1, 0): n * a_value * b_value}


@pytest.mark.parametrize("path", ["dict", "packed"])
@pytest.mark.parametrize("order", ALL_ORDERS, ids=lambda order: order.kind)
def test_product_kernel_takes_fractions_of_denominator_one(order, path):
    # the dict loop keeps the types it multiplies, so Fraction(1, 2) * 2
    # stays a Fraction; the walk hands such columns on as the next product's
    # A, and the packed rows must scale them like any other non-int
    for perturbed in (False, True):
        a, b = end_slot_pair(std_ring(3), 3, perturbed, 3)
        codec = _TermCodec(a.domain.ring, order, 4, 2)
        packed_a, packed_b = (
            [{t: Fraction(c) for t, c in col.items()} for col in codec.columns(m)] for m in (a, b)
        )
        with kernel_paths(path) as taken:
            columns = list(codec.product(packed_a, packed_b))
        assert taken == [path]
        assert codec.matrix(columns, a.codomain, b.domain) == a @ b


def test_packed_walk_rebases_onto_fractions_of_denominator_one():
    # C^-1 of the step onto F_1 is 2 times a permutation, which the dict loop
    # multiplies onto d2's halves: the rebased d2 has Fraction(+-1, 1)
    # coefficients, two rows per monomial, and G = M @ C packs them
    ring = std_ring(3)
    x, y, z = (ring.variable(i) for i in range(3))
    half = Fraction(1, 2)
    f0, f1, f2 = (FreeModuleSpec(ring, [[k]] * rank) for k, rank in enumerate((1, 3, 1)))
    d1 = PolyMatrix(f0, f1, [[x.scale(2), y.scale(2), z.scale(2)]])
    d2 = PolyMatrix(f1, f2, [[(y + z).scale(half)], [(z - x).scale(half)], [(x + y).scale(-half)]])
    assert (d1 @ d2).is_zero
    with kernel_paths() as taken:
        assert_walks_agree([d1, d2], weights_for([d1, d2]))
    assert {"dict", "packed"} <= set(taken)


def test_composite_that_would_alias_under_the_first_field_width_is_caught():
    # x1 has degree 256, so x2^128 * x2^128 - x1 * 1 is a homogeneous nonzero
    # composite.  Under lex with first-width fields, x2^128 packs to the
    # guard bit of x2's field and the sum of two carries into x1's field:
    # x2^256 would pack like x1 and the two terms would cancel.
    ring = RingSpec(["x1", "x2"], [[256], [1]], [[1, 0], [0, 1]], "lex")
    x1 = ring.variable(0)
    power = Polynomial({(0, 128): 1})
    d1 = PolyMatrix(FreeModuleSpec(ring, [[0]]), FreeModuleSpec(ring, [[128], [256]]), [[power, x1]])
    d2 = PolyMatrix(d1.domain, FreeModuleSpec(ring, [[256]]), [[power], [ring.one().scale(-1)]])
    assert not (d1 @ d2).is_zero
    first_width = _TermCodec(ring, ModuleTermOrder(), 2, FIRST_CAPACITY)
    packed = [first_width.columns(d) for d in (d1, d2)]
    assert not any(first_width.product(*packed))  # the alias the sized codec avoids
    with pytest.raises(InputError, match="differentials 1 and 2 do not compose to zero"):
        check_chain([d1, d2])
    with pytest.raises(InputError, match="differentials 1 and 2 do not compose to zero"):
        propagate_resolution([d1, d2], 0, [(0, 0)], ModuleTermOrder())


def chain_failing_in_one_row(row):
    """d1, d2, d3 with d1 @ d2 = 0 and d2 @ d3 nonzero in row `row` (0 or 2) of F_1 only.

    Row i of d2 is m_i * (x1, x2) for m = (1, 2, 3), with x3 in a third
    column at row `row`; d1 = w * a for a row a with a . m = 0 and a zero at
    `row`, and d3 = (x2, -x1, x3), so d2 @ d3 is x3^2 at `row` alone.  Each
    monomial of d2's first two columns sits in all three rows, so the
    kernel packs them.  Under top-up row 2 is the highest slot.
    """
    ring = std_ring(4)
    x1, x2, x3, w = (ring.variable(i) for i in range(4))
    multipliers = (1, 2, 3)
    a = (-2, 1, 0) if row == 2 else (0, 3, -2)
    f0, f1, f2, f3 = (FreeModuleSpec(ring, [[k]] * rank) for k, rank in enumerate((1, 3, 3, 1)))
    d1 = PolyMatrix(f0, f1, [[w.scale(c) for c in a]])
    d2 = PolyMatrix(
        f1, f2, [[x1.scale(m), x2.scale(m), x3 if i == row else Polynomial()] for i, m in enumerate(multipliers)]
    )
    d3 = PolyMatrix(f2, f3, [[x2], [x1.scale(-1)], [x3]])
    return d1, d2, d3


@contextlib.contextmanager
def product_coefficient_types():
    """For each `_TermCodec.product` call inside the block, the set of its operands' coefficient types."""
    seen = []
    product = _TermCodec.product

    def spy(self, a, b):
        seen.append({type(x) for col in itertools.chain(a, b) for x in col.values()})
        return product(self, a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_TermCodec, "product", spy)
        yield seen


def scaled(differentials, factor):
    return [PolyMatrix(d.codomain, d.domain, [[p.scale(factor) for p in row] for row in d.entries]) for d in differentials]


@pytest.mark.parametrize("path", ["dict", "packed"])
def test_a_rational_complex_is_checked_on_ints(path):
    # A @ B = 0 exactly when sA @ tB = 0, so the chain check multiplies each
    # map scaled to ints, on either kernel path, and a third of the generic
    # Koszul complex on four forms passes it as the complex does
    problem = load_problem(fixture_path("generic_koszul_complex.json"))
    third = scaled([problem.matrices[d] for d in problem.resolution], Fraction(1, 3))
    with kernel_paths(path) as taken, product_coefficient_types() as seen:
        check_chain(third)
    assert seen == [{int}] * 3
    assert path in taken


@pytest.mark.parametrize(
    "row, path, factor",
    [
        # the integral cases keep their ids; the chain scaled by 1/3 adds "-third"
        pytest.param(row, path, factor, id=name + "-" + path + suffix)
        for factor, suffix in ((1, ""), (Fraction(1, 3), "-third"))
        for path in ("dict", "packed")
        for row, name in ((2, "top-row"), (0, "bottom-row"))
    ],
)
def test_chain_failing_in_one_end_row_slot_is_caught_on_both_kernel_paths(row, path, factor):
    d1, d2, d3 = scaled(chain_failing_in_one_row(row), factor)
    assert (d1 @ d2).is_zero
    assert [i for i, entries in enumerate((d2 @ d3).entries) if not entries[0].is_zero] == [row]
    message = "differentials 2 and 3 do not compose to zero"
    with kernel_paths(path) as taken, product_coefficient_types() as seen:
        with pytest.raises(InputError, match=message):
            check_chain([d1, d2, d3])
    assert taken == ["dict", path]
    assert seen == [{int}] * 2
    for order in ALL_ORDERS:
        with kernel_paths(path) as taken:
            with pytest.raises(InputError, match=message):
                propagate_resolution([d1, d2, d3], 0, [(0, 0, 0, 0)], order)
        assert taken == ["dict", path], order


# ---------- the signed-slot layout ----------


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), bits=st.integers(0, 200), count=st.integers(0, 40))
def test_slots_pack_add_and_widen_exactly(data, bits, count):
    # bit bounds up to 200 reach slots of 1 to 8 bytes, which struct reads,
    # and the wider ones that int.from_bytes reads; entries include both
    # ends of a slot's range
    slots = _Slots(bits, count)
    width, half = slots.width, slots.half
    assert width >= 8 and width & (width - 1) == 0
    assert 1 << bits <= half and (width == 8 or bits >= width // 2)
    entries = st.one_of(st.sampled_from([-half, half - 1, 0]), st.integers(-half, half - 1))
    xs, ys = (data.draw(st.lists(entries, min_size=count, max_size=count)) for _ in range(2))
    v, w = slots.pack(xs), slots.pack(ys)
    assert v == sum(x << width * j for j, x in enumerate(xs))
    assert slots.unpack(v) == tuple(xs)
    # packed ints add slotwise while the sums fit; halved entries always do
    halves = [x // 2 for x in xs], [y // 2 for y in ys]
    assert slots.unpack(sum(map(slots.pack, halves))) == tuple(map(sum, zip(*halves)))
    sums = tuple(map(sum, zip(xs, ys)))
    if all(-half <= x < half for x in sums):
        assert slots.unpack(v + w) == sums
        assert (v + w == 0) == (not any(sums))
    wider = _Slots(data.draw(st.integers(bits, 400)), count)
    assert wider.width >= width
    assert wider.unpack(wider.pack(slots.unpack(v))) == tuple(xs)


# ---------- the packed transpose against dual_map ----------


def transpose_cases():
    """Every fixture map, the differentials computed from each, and maps with no rows or no columns."""
    for name in PROBLEMS:
        problem = load_problem(fixture_path(name + ".json"))
        for label, m in problem.matrices.items():
            yield pytest.param(m, id="%s-%s" % (name, label))
        for label, m in problem.matrices.items():
            differentials = minimal_resolution(m, problem.module_order).differentials
            for k, d in enumerate(differentials[1:], 2):
                yield pytest.param(d, id="%s-%s-computed-d%d" % (name, label, k))
    ring = std_ring(2)
    two = FreeModuleSpec(ring, [[0], [1]])
    none = FreeModuleSpec(ring, [])
    yield pytest.param(PolyMatrix(none, two, []), id="no-rows")
    yield pytest.param(PolyMatrix(two, none, [[], []]), id="no-columns")
    yield pytest.param(PolyMatrix(none, none, []), id="empty")


@pytest.mark.parametrize("m", transpose_cases())
def test_transposed_columns_are_the_packed_dual_map(m):
    # the forward walk's dual columns, re-tagged from the map's own, against
    # the dual map packed by the flipped codec: same layout, same terms and
    # the same insertion order in every column
    for order in ALL_ORDERS:
        codec = _TermCodec(m.domain.ring, order, max(m.num_rows, m.num_cols), _largest_degree(m))
        flipped, columns = codec.transposed(codec.columns(m), m.num_rows)
        assert (flipped.order, flipped.indices, flipped.bits) == (order.flipped(), codec.indices, codec.bits)
        expected = flipped.columns(dual_map(m))
        assert [list(col.items()) for col in columns] == [list(col.items()) for col in expected], order
        assert flipped.matrix(columns, m.domain.dual(), m.codomain.dual()) == dual_map(m)


def test_every_empty_cell_of_an_unpacked_map_is_one_shared_zero():
    # Gr(2,6)'s differentials are mostly empty cells; unpacking shares one
    # zero Polynomial among them, and every other cell is its own
    differentials = minimal_resolution(plucker_presentation(6), ModuleTermOrder("top-up")).differentials[1:]
    zeros, others, cells = set(), [], 0
    for d in differentials:
        for row in d.entries:
            for p in row:
                cells += 1
                if p.terms:
                    others.append(p)
                else:
                    zeros.add(id(p))
                    assert p == Polynomial() and p.is_zero
    assert len(zeros) == 1 and len(others) < cells // 2
    assert len({id(p) for p in others}) == len(others)


# ---------- the packed walk against the tuple walk ----------


# The tuple walk, as it was before the walk ran on packed terms.


def _propagate(matrix, weights, order):
    """propagate without checks: the weights are validated, and the map is
    minimal or has its columns in one degree (the elimination checks those).

    Row j of one elimination is column j's coefficients over the image's
    terms, in decreasing order, then the j-th unit vector.  Each row of the
    reduced echelon form holds a column of G, pivoting at its leading term,
    and the matching column of C; a pivot in the unit part means dependent
    columns.  G is the identity at the pivots, so C^-1[k][j] is column j's
    coefficient at G_k's pivot.  Degrees share no term: they reduce apart.
    """
    ring = matrix.domain.ring
    columns = matrix.columns()
    degree_of = {t: d for col, d in zip(columns, matrix.domain.basis_degrees) for t, _ in col.support()}
    terms = sorted(degree_of, key=order.sort_key(ring), reverse=True)
    index = {t: i for i, t in enumerate(terms)}
    n = len(terms)
    ech = Echelon()
    for j, col in enumerate(columns):
        vec = {index[term]: coeff for term, coeff in col.support()}
        vec[n + j] = 1
        ech.add(_dense_primitive(vec, range(n + len(columns))))
    if any(pos >= n for pos in ech.pivots):
        raise MinimalityError(_NOT_MINIMAL)
    rows = ech.reduced_rows()

    classes = {d: k for k, d in enumerate(dict.fromkeys(matrix.domain.basis_degrees))}
    sign = -1 if order.is_position_up else 1
    pivots = sorted(rows, key=lambda pos: (classes[degree_of[terms[pos]]], sign * pos))
    g_columns = []
    for pos in pivots:
        entries = [{} for _ in range(matrix.num_rows)]
        for p, coeff in rows[pos].items():
            if p < n:
                term = terms[p]
                entries[term.index][term.monomial] = coeff
        g_columns.append(ModuleElement(matrix.codomain, [Polynomial(e) for e in entries]))
    leads = [terms[pos] for pos in pivots]
    rebased = FreeModuleSpec(ring, [degree_of[t] for t in leads])
    change_of_basis = ScalarMatrix([[rows[pos].get(n + j, 0) for pos in pivots] for j in range(len(columns))])
    sorted_matrix = PolyMatrix._unchecked(matrix.codomain, rebased, _column_rows(g_columns, matrix.num_rows))
    inverse = ScalarMatrix([[col.entries[t.index].terms.get(t.monomial, 0) for col in columns] for t in leads])
    return PropagationResult(
        lambda: inverse,
        tuple(vector_add(ring.monomial_weight(t.monomial), weights[t.index]) for t in leads),
        rebased,
        lambda inverse: change_of_basis,
        lambda change: sorted_matrix,
    )


def _combine(coeffs, polys):
    """sum(c * p for c, p in zip(coeffs, polys)), accumulated in one term dict."""
    terms = {}
    for c, p in zip(coeffs, polys):
        if c:
            for mono, x in p.terms.items():
                s = terms.get(mono, 0) + c * x
                if s:
                    terms[mono] = s
                else:
                    del terms[mono]
    return Polynomial._from_exact(terms)


def _walk(steps, weights):
    """Backward propagation along consecutive maps of a complex, unchecked.

    Takes the steps of the packed walk, (codomain, domain, codec, packed
    columns) per map, and unpacks each map as its step is taken; from there
    on all is tuples, under codec's order.  Rebases each map after the first
    onto the previous step's rebased module (new row i is sum_k C^-1[i][k]
    times row k) and yields (function returning the rebased map,
    PropagationResult) per step, drawing each map from steps only when its
    step is taken.
    """
    inverse = None
    for codomain, domain, codec, packed in steps:
        matrix, order = codec.matrix(packed, codomain, domain), codec.order
        if inverse is not None:
            columns = list(zip(*matrix.entries))
            rows = [[_combine(coeffs, col) for col in columns] for coeffs in inverse.rows]
            matrix = PolyMatrix._unchecked(spec, matrix.domain, rows)
        result = _propagate(matrix, weights, order)
        yield (lambda matrix=matrix: matrix), result
        weights, inverse, spec = result.weights, result.inverse_change_of_basis, result.rebased_module



def outcome(differentials, start_index, weights, order):
    """Every weight list and step record, typed, or what the ResolutionStepError carried."""
    try:
        result = propagate_resolution(differentials, start_index, weights, order)
    except ResolutionStepError as exc:
        return ("error", str(exc), exc.step, exc.partial, str(exc.__cause__))
    steps = {}
    for target, step in result.steps.items():
        r = step.result
        steps[target] = (
            step.module_index,
            typed_matrix(step.matrix),
            typed_scalars(r.change_of_basis),
            typed_scalars(r.inverse_change_of_basis),
            r.weights,
            typed_matrix(r.sorted_matrix),
            r.rebased_module,
        )
    return result.per_module, steps


def assert_walks_agree(differentials, start_weights):
    """At every start index and under every order, the packed walk is the tuple walk.

    start_weights(k) is a valid weight list for F_k.
    """
    # the package's `propagate` attribute is the function, not the module
    module = importlib.import_module("torusweights.propagate")
    for order in ALL_ORDERS:
        for start in range(len(differentials) + 1):
            weights = start_weights(start)
            packed = outcome(differentials, start, weights, order)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(module, "_walk", _walk)
                reference = outcome(differentials, start, weights, order)
            assert packed == reference, (order, start)


def koszul_complex(ring, forms):
    """The differentials of the Koszul complex on homogeneous forms.

    F_k has one basis element e_I per k-subset I, in the sum of the forms'
    degrees, and d_k(e_I) = sum_t (-1)^t f_{I[t]} e_{I without I[t]}.
    """
    n = len(forms)
    degrees = [ring.poly_degree(f) for f in forms]
    subsets = [list(itertools.combinations(range(n), k)) for k in range(n + 1)]
    modules = []
    for level in subsets:
        zero = (0,) * ring.degree_length
        modules.append(FreeModuleSpec(ring, [sum_degrees([degrees[i] for i in s], zero) for s in level]))
    differentials = []
    for k in range(1, n + 1):
        row_of = {s: i for i, s in enumerate(subsets[k - 1])}
        entries = [[Polynomial() for _ in subsets[k]] for _ in subsets[k - 1]]
        for j, subset in enumerate(subsets[k]):
            for t, var in enumerate(subset):
                entries[row_of[subset[:t] + subset[t + 1:]]][j] = forms[var] if t % 2 == 0 else -forms[var]
        differentials.append(PolyMatrix(modules[k - 1], modules[k], entries))
    return differentials


def sum_degrees(degrees, zero):
    total = zero
    for d in degrees:
        total = vector_add(total, d)
    return total


def weights_for(differentials):
    """start_weights for assert_walks_agree: small distinct weights per basis element."""
    modules = [differentials[0].codomain] + [d.domain for d in differentials]
    length = modules[0].ring.weight_length

    def start_weights(k):
        return [tuple((i + j) % 3 - 1 for j in range(length)) for i in range(modules[k].rank)]

    return start_weights


@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_packed_walk_matches_the_tuple_walk_on_generic_koszul_complexes(data):
    n = data.draw(st.integers(3, 5))
    ring = std_ring(n, data.draw(st.sampled_from(["grevlex", "lex"])))
    coefficients = st.lists(st.integers(-9, 9).filter(bool), min_size=n, max_size=n)
    rows = [data.draw(coefficients) for _ in range(n)]
    assume(rank([[Fraction(c) for c in row] for row in rows]) == n)
    forms = [Polynomial({tuple(int(i == j) for i in range(n)): c for j, c in enumerate(row)}) for row in rows]
    differentials = koszul_complex(ring, forms)
    assert_walks_agree(differentials, weights_for(differentials))


@pytest.mark.parametrize("name", ["koszul", "grassmannian"])
def test_packed_walk_matches_the_tuple_walk_on_the_fixture_resolutions(name):
    problem = load_problem(fixture_path(name + ".json"))
    differentials = [problem.matrices[d] for d in problem.resolution]
    assert_walks_agree(differentials, weights_for(differentials))


@pytest.mark.parametrize("name, presentation", [("bigraded", "m"), ("mixed_sign", "m"), ("high_degree", "m")])
def test_packed_walk_matches_the_tuple_walk_on_computed_resolutions(name, presentation):
    problem = load_problem(fixture_path(name + ".json"))
    differentials = minimal_resolution(problem.matrices[presentation], problem.module_order).differentials
    assert_walks_agree(differentials, weights_for(differentials))


def test_packed_walk_matches_the_tuple_walk_above_the_first_field_width():
    ring = std_ring(3)
    forms = [
        Polynomial({(130, 0, 0): 1, (0, 130, 0): 3}),
        Polynomial({(0, 131, 0): 1, (0, 0, 131): -2}),
        Polynomial({(0, 0, 129): 1, (64, 65, 0): Fraction(1, 2)}),
    ]
    differentials = koszul_complex(ring, forms)
    assert max(map(_largest_degree, differentials)) > FIRST_CAPACITY
    assert_walks_agree(differentials, weights_for(differentials))


def test_packed_walk_matches_the_tuple_walk_where_c_inverse_spans_several_degree_blocks(monkeypatch):
    # two linear and two quadratic forms, every coefficient nonzero: F_1, F_2 and F_3 each hold two or
    # three degrees, so a rebase can pack a C^-1 of several degree blocks into its row slots
    ring = std_ring(4)
    forms = []
    for degree, seed in ((1, 0), (1, 1), (2, 2), (2, 3)):
        monomials = [m for m in itertools.product(range(degree + 1), repeat=4) if sum(m) == degree]
        forms.append(Polynomial({m: (seed + 5 * k) % 7 - 3 or 4 for k, m in enumerate(monomials)}))
    differentials = koszul_complex(ring, forms)
    rebased, blocks = _TermCodec.rebased, []

    def spy(codec, inverse, scale, b):
        out = rebased(codec, inverse, scale, b)
        blocks.append((len(inverse), type(out) is packed._RowPacked))
        return out

    monkeypatch.setattr(_TermCodec, "rebased", spy)
    assert_walks_agree(differentials, weights_for(differentials))
    assert (2, True) in blocks and (3, True) in blocks
