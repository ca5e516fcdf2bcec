"""Randomized property suites over small instances.

Each suite runs at least 100 generated cases (hypothesis profile below).
"""

import contextlib
import importlib
import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from torusweights import (
    FreeModuleSpec,
    ModuleTermOrder,
    PolyMatrix,
    RingSpec,
    ScalarMatrix,
    buchberger,
    enumerate_terms,
    is_minimal_map,
    minimal_resolution,
    normal_form,
    propagate,
    propagate_forward,
    propagate_graded_components,
    propagate_resolution,
    sort_gb_columns,
    standard_monomials,
    syzygies,
)
from torusweights.errors import InputError, MinimalityError, ResolutionStepError
from torusweights import schreyer
from torusweights.groebner import _buchberger_run, _nakayama_kept, _packed_chain
from torusweights.linalg import Echelon, _primitive, _Slots, pivot_scan, rank
from torusweights.modules import ModuleElement, ModuleTerm, dual_map
from torusweights.packed import _FIELD_BITS, _integral, _TermCodec, _largest_degree
from torusweights.parsing import parse_polynomial, polynomial_to_string
from torusweights.problemfile import load_problem
from torusweights.rings import (
    Polynomial,
    exact,
    monomial_div,
    monomial_divides,
    unit_monomial,
    vector_add,
    vector_sub,
)

from conftest import WIDE_WEIGHT_RING, entries_as_text, fixture_path, matrix, std_ring
from reference import (
    ReferenceEchelon,
    _term_divides,
    reference_pseudo_divide,
    reference_standard_monomials,
    with_s_polynomials,
)
from test_groebner import (
    S_POLYNOMIAL_MAPS,
    assert_primitive_integer_columns,
    assert_resolution_matches_the_syzygies_loop,
    s_polynomial_map,
    tracked_run,
    with_redundant_columns,
)
from test_invariants import assert_euler_characteristic

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)

TOP_UP = ModuleTermOrder("top-up")
POT_UP = ModuleTermOrder("pot-up")
ALL_ORDERS = [ModuleTermOrder(kind) for kind in ModuleTermOrder.KINDS]


def bigraded_ring():
    return RingSpec(
        ["x1", "x2", "y1", "y2"],
        [[1, 0], [1, 0], [0, 1], [0, 1]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    )


monomials3 = st.tuples(*(st.integers(0, 4) for _ in range(3)))


# ---------- term order axioms ----------


@SETTINGS
@given(a=monomials3, b=monomials3, c=monomials3, order=st.sampled_from(["grevlex", "lex"]))
def test_term_order_axioms(a, b, c, order):
    ring = std_ring(3, order)
    cmp_ab = ring.compare_monomials(a, b)
    # totality and consistency with equality
    assert cmp_ab in (-1, 0, 1)
    assert (cmp_ab == 0) == (a == b)
    assert cmp_ab == -ring.compare_monomials(b, a)
    # multiplicative
    ac = tuple(x + y for x, y in zip(a, c))
    bc = tuple(x + y for x, y in zip(b, c))
    assert ring.compare_monomials(ac, bc) == cmp_ab
    # the unit monomial is minimal
    assert ring.compare_monomials((0, 0, 0), a) <= 0


@SETTINGS
@given(s=monomials3, t=monomials3)
def test_weight_additivity(s, t):
    ring = RingSpec(
        ["a", "b", "c"], [[1]] * 3, [[2, -1], [0, 3], [1, 1]]
    )
    st_prod = tuple(x + y for x, y in zip(s, t))
    assert ring.monomial_weight(st_prod) == tuple(
        x + y for x, y in zip(ring.monomial_weight(s), ring.monomial_weight(t))
    )


# ---------- echelon against sympy ----------


nonzero_rationals = st.builds(
    Fraction,
    st.integers(-9, 9).filter(bool),
    st.sampled_from([1, 1, 2, 3, 4, 6]),
)


@st.composite
def rational_rows(draw):
    """Sparse rational rows, plus zero, repeated and rescaled copies."""
    num_cols = draw(st.integers(1, 6))
    entry = st.one_of(st.just(Fraction(0)), nonzero_rationals)
    rows = draw(st.lists(st.lists(entry, min_size=num_cols, max_size=num_cols), max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "repeat", "scale"]))
        if kind == "zero" or not rows:
            rows.append([Fraction(0)] * num_cols)
            continue
        source = rows[draw(st.integers(0, len(rows) - 1))]
        factor = 1 if kind == "repeat" else draw(nonzero_rationals)
        rows.insert(draw(st.integers(0, len(rows))), [factor * x for x in source])
    return num_cols, rows


@SETTINGS
@given(case=rational_rows())
def test_echelon_matches_sympy_rref(case):
    sympy = __import__("sympy")
    num_cols, rows = case
    ech = Echelon()
    flags = []
    for row in rows:
        # the row as the mapping of its nonzero entries, keyed by position
        flags.append(ech.add({j: x for j, x in enumerate(row) if x}))

    def reference(prefix):
        return sympy.Matrix(len(prefix), num_cols, [sympy.Rational(x) for r in prefix for x in r]).rref()

    matrix, pivots = reference(rows)
    assert ech.rank == rank(rows) == len(pivots)
    assert sorted(ech.pivots) == list(pivots)
    assert flags == [
        len(reference(rows[: k + 1])[1]) > len(reference(rows[:k])[1]) for k in range(len(rows))
    ]
    expected = {
        pos: {
            j: Fraction(int(matrix[r, j].p), int(matrix[r, j].q))
            for j in range(num_cols)
            if matrix[r, j]
        }
        for r, pos in enumerate(pivots)
    }
    reduced = ech.reduced_rows()
    assert reduced == expected
    assert list(reduced) == sorted(reduced)
    assert all(list(row) == sorted(row) for row in reduced.values())


# entries of either sign up to 2**200, Fractions among them with small and
# large denominators
WIDE_ENTRIES = st.one_of(
    st.integers(-9, 9),
    st.integers(-(2**200), 2**200),
    st.sampled_from([2**200, -(2**200), 2**64 + 1, 3**120]),
    nonzero_rationals,
    st.builds(Fraction, st.integers(-(2**200), 2**200).filter(bool), st.sampled_from([7, 2**61 - 1, 3**90])),
)


@st.composite
def echelon_cases(draw):
    """Rows for an Echelon: all int or with Fractions, plus zero, repeated and rescaled copies.

    Most entries are nonzero, so that a row meets several pivots and its
    working row grows between stores; rescaled copies take factors up to
    2**200, so that a row's content is large.
    """
    num_cols = draw(st.integers(1, 7))
    entries = draw(st.sampled_from([st.integers(-9, 9), st.integers(-(2**200), 2**200), WIDE_ENTRIES]))
    rows = draw(st.lists(st.lists(entries, min_size=num_cols, max_size=num_cols), max_size=6))
    factors = st.one_of(st.integers(-(2**200), 2**200).filter(bool), nonzero_rationals, st.just(2**200))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "repeat", "scale"]))
        if kind == "zero" or not rows:
            rows.append([0] * num_cols)
            continue
        source = rows[draw(st.integers(0, len(rows) - 1))]
        factor = 1 if kind == "repeat" else draw(factors)
        rows.insert(draw(st.integers(0, len(rows))), [factor * x for x in source])
    return num_cols, rows


def typed_rows(reduced):
    return [(pos, [(k, type(x).__name__, x) for k, x in row.items()]) for pos, row in reduced.items()]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=echelon_cases())
def test_deferred_content_division_matches_per_step_division(case):
    # Echelon divides a row by its content only when it stores it, and
    # reduces it only at its lead; the reference divides after every step
    # and reduces at every pivot, so the stored rows share their leads, in
    # the order they were stored, and each is a primitive integer row
    num_cols, rows = case
    ech, reference = Echelon(), ReferenceEchelon()
    for row in rows:
        vec = {j: x for j, x in enumerate(row) if x}
        assert ech.add(vec) == reference.add(row)
        assert list(ech.pivots) == list(reference.pivots)
        assert all(type(x) is int for stored in ech.pivots.values() for x in stored.values())
        assert all(min(stored) == pos and gcd(*stored.values()) == 1 for pos, stored in ech.pivots.items())
    assert ech.rank == reference.rank
    assert typed_rows(ech.reduced_rows()) == typed_rows(reference.reduced_rows())


@st.composite
def sparse_echelon_cases(draw):
    """Rows for the sparse Echelon, dicts of their nonzeros over a few int keys, plus zero, repeated and rescaled rows.

    Keys are ints of either sign, as positions and negated packed terms
    are.  The rows of one case are all sparse (at most three keys each) or
    all dense (every key), with small ints, Fractions or the wide entries
    above; zero rows are empty dicts, and rescaled copies take rational or
    integer factors up to 2**200.
    """
    keys = sorted(draw(st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=8, unique=True)))
    entries = draw(st.sampled_from([st.integers(-9, 9), nonzero_rationals, WIDE_ENTRIES])).filter(bool)
    dense = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        support = keys if dense else draw(st.lists(st.sampled_from(keys), max_size=3, unique=True))
        rows.append({k: draw(entries) for k in support})
    factors = st.one_of(nonzero_rationals, st.integers(-(2**200), 2**200).filter(bool))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "repeat", "scale"]))
        if kind == "zero" or not rows:
            rows.insert(draw(st.integers(0, len(rows))), {})
            continue
        source = rows[draw(st.integers(0, len(rows) - 1))]
        factor = 1 if kind == "repeat" else draw(factors)
        rows.insert(draw(st.integers(0, len(rows))), {k: factor * x for k, x in source.items()})
    return keys, rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=sparse_echelon_cases())
def test_sparse_echelon_matches_the_dense_reference_and_sympy(case):
    # the reference takes each row laid out densely over the sorted keys, so
    # that position j stands for keys[j]; sympy's rref is the third opinion
    sympy = __import__("sympy")
    keys, rows = case
    ech, reference = Echelon(), ReferenceEchelon()
    flags = []
    for row in rows:
        flags.append(ech.add(row))
        assert flags[-1] == reference.add([row.get(k, 0) for k in keys])
    assert list(ech.pivots) == [keys[pos] for pos in reference.pivots]
    assert ech.rank == reference.rank
    assert all(type(x) is int for stored in ech.pivots.values() for x in stored.values())
    expected = {keys[pos]: {keys[j]: x for j, x in row.items()} for pos, row in reference.reduced_rows().items()}
    reduced = ech.reduced_rows()
    assert typed_rows(reduced) == typed_rows(expected)

    def rref(prefix):
        cells = [sympy.Rational(row.get(k, 0)) for row in prefix for k in keys]
        return sympy.Matrix(len(prefix), len(keys), cells).rref()

    matrix, pivots = rref(rows)
    assert sorted(ech.pivots) == [keys[j] for j in pivots]
    assert flags == [len(rref(rows[: k + 1])[1]) > len(rref(rows[:k])[1]) for k in range(len(rows))]
    assert reduced == {
        keys[j]: {keys[c]: Fraction(int(matrix[r, c].p), int(matrix[r, c].q)) for c in range(len(keys)) if matrix[r, c]}
        for r, j in enumerate(pivots)
    }


# mappings {key: rational} mixing ints and Fractions of either sign, with a
# common factor, and sometimes empty
@st.composite
def rational_mappings(draw):
    entry = st.one_of(st.integers(-30, 30).filter(bool), nonzero_rationals)
    values = draw(st.lists(entry, max_size=6))
    factor = draw(st.sampled_from([1, 1, 2, 6, 35, 2**70]))
    return {3 * k + 1: v * factor for k, v in enumerate(values)}


@SETTINGS
@given(vec=rational_mappings())
def test_primitive_divides_out_the_positive_content(vec):
    out, c = _primitive(vec)
    assert c > 0
    assert type(c) is int or c.denominator != 1
    assert list(out) == list(vec)
    assert all(type(x) is int for x in out.values())
    if vec:
        assert gcd(*out.values()) == 1
    else:
        assert c == 1
    assert all((x > 0) == (v > 0) for x, v in zip(out.values(), vec.values()))
    assert all(v == c * out[k] for k, v in vec.items())


# ---------- the pivot scan against Echelon ----------


propagate_module = importlib.import_module("torusweights.propagate")
packed_module = importlib.import_module("torusweights.packed")


@st.composite
def degree_blocks(draw):
    """Packed columns of one degree block, dense or sparse, plus zero, repeated, rescaled, combined and non-primitive copies.

    Keys are ints, as packed terms are.  Entries are small ints, ints of
    up to 24 bits, whose working vectors outgrow the first slots of the
    pivot scan within a few steps, or ints and Fractions up to 2**200.
    A combined column is one column plus a small multiple of another, so
    that a dependent block need not repeat a column's support.
    Non-primitive columns are one or two columns times one integer factor
    of up to 2**70, which they then share, as the product kernel's scaled
    ints can.
    """
    keys = draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=12, unique=True))
    entries = draw(st.sampled_from([st.integers(-9, 9), st.integers(-(2**24), 2**24), WIDE_ENTRIES])).filter(bool)
    dense = draw(st.booleans())
    block = []
    for _ in range(draw(st.integers(1, 8))):
        support = keys if dense else draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))
        block.append({k: draw(entries) for k in support})
    factors = st.one_of(st.integers(-(2**200), 2**200).filter(bool), nonzero_rationals)
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["zero", "repeat", "scale", "shared", "combined"]))
        i, j = (draw(st.integers(0, len(block) - 1)) for _ in range(2))
        if kind == "combined":
            c = draw(st.integers(-3, 3))
            combined = {k: block[i].get(k, 0) + c * block[j].get(k, 0) for k in block[i].keys() | block[j].keys()}
            block.insert(draw(st.integers(0, len(block))), {k: x for k, x in combined.items() if x})
            continue
        if kind == "shared":
            factor = draw(st.integers(2, 2**70))
            for k in {i, j}:
                block[k] = {key: factor * x for key, x in block[k].items()}
            continue
        factor = 0 if kind == "zero" else 1 if kind == "repeat" else draw(factors)
        block.insert(draw(st.integers(0, len(block))), {k: factor * x for k, x in block[i].items() if factor})
    return block


def row_packed(block):
    """The int columns of block as the row-packed kernel holds them: one int of eight row slots per monomial.

    A key's low three bits are its row tag and the rest its monomial, so
    that monomial plus tag is the key again and orders like it.
    """
    bits = max(abs(x) for col in block for x in col.values()).bit_length() if any(block) else 0
    slots = _Slots(bits, 8)
    columns = []
    for col in block:
        digits = {}
        for key, x in col.items():
            digits.setdefault(key - (key & 7), [0] * 8)[key & 7] = x
        columns.append({m: slots.pack(xs) for m, xs in digits.items()})
    return packed_module._RowPacked(columns, slots, list(range(8)), 1)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(block=degree_blocks())
def test_the_pivot_scan_finds_echelons_pivots(block):
    terms = sorted({t for col in block for t in col}, reverse=True)
    index = {t: i for i, t in enumerate(terms)}
    ech = Echelon()
    for col in block:
        ech.add({index[t]: x for t, x in col.items()})
    pivots = [terms[pos] for pos in sorted(ech.pivots)]
    # the walk's ints: the block times the lcm of its denominators, not made primitive
    ints = _integral(block)[0]
    vectors = [tuple(col.get(t, 0) for col in ints) for t in terms]
    # the scan keeps Echelon's pivots, in decreasing order, whether or not the block is dependent
    assert [terms[k] for k in pivot_scan(vectors, len(block))] == pivots
    # _propagate's blocks, sparse, dense and dependent alike: on Echelon as packed dicts and on the
    # scan as row slots, each pivot with its term vector as a dict of its nonzeros
    for found in (
        lambda: propagate_module._block_leads(ints, range(len(ints))),
        lambda: propagate_module._row_block_leads(row_packed(ints), range(len(ints))),
    ):
        if len(pivots) < len(block):
            with pytest.raises(MinimalityError):
                found()
            continue
        leads = found()
        assert all(type(v) is dict and all(v.values()) for _, v in leads)
        dense = [(t, tuple(v.get(i, 0) for i in range(len(block)))) for t, v in leads]
        assert dense == [(t, vectors[index[t]]) for t in pivots]


def route_spies(monkeypatch):
    """(the column counts `pivot_scan` is called on by the walk, the rows `Echelon.add` takes), from now on."""
    scans, adds = [], []
    scan, add = propagate_module.pivot_scan, Echelon.add
    monkeypatch.setattr(
        propagate_module, "pivot_scan", lambda vectors, count: scans.append(count) or scan(vectors, count)
    )
    monkeypatch.setattr(Echelon, "add", lambda self, vec: adds.append(vec) or add(self, vec))
    return scans, adds


@pytest.mark.parametrize("order", ALL_ORDERS, ids=lambda o: o.kind)
def test_a_dense_block_of_packed_dicts_takes_echelon(monkeypatch, order):
    # 21 generic linear forms in seven variables, one per column of a rank-7
    # module: one degree block, every one of its 49 terms nonzero in every
    # column, which comes as packed dicts and so never reaches the scan
    ring = RingSpec(["x%d" % k for k in range(1, 8)], [[1]] * 7, [[int(j == k) for j in range(7)] for k in range(7)])
    variables = [tuple(int(j == k) for j in range(7)) for k in range(7)]
    draw = partial(random.Random(1).choice, [-9, -5, -2, -1, 1, 3, 4, 7])
    entries = [[Polynomial({v: draw() for v in variables}) for _ in range(21)] for _ in range(7)]
    matrix = PolyMatrix(FreeModuleSpec(ring, [[0]] * 7), FreeModuleSpec(ring, [[1]] * 21), entries)
    weights = [(k,) * 7 for k in range(7)]
    scans, adds = route_spies(monkeypatch)
    result = propagate(matrix, weights, order)
    assert scans == [] and len(adds) == 21 and all(len(row) == 49 for row in adds)
    # generic columns gain rank at each of the 21 largest terms
    terms = sorted((ModuleTerm(v, i) for i in range(7) for v in variables), key=order.sort_key(ring), reverse=True)
    leads = terms[:21][::-1] if order.is_position_up else terms[:21]
    assert result.weights == tuple(vector_add(ring.monomial_weight(t.monomial), weights[t.index]) for t in leads)


def test_a_sparse_block_in_row_slots_takes_the_scan(monkeypatch):
    # four columns of one or two terms over five terms, a fifth nonzero: in
    # row slots, as a rebase by a dense C^-1 hands a block on, it goes to the
    # scan and builds no Echelon
    block = [{8: 1}, {17: 2, 41: -1}, {26: 3}, {33: 5}]
    scans, adds = route_spies(monkeypatch)
    leads = propagate_module._row_block_leads(row_packed(block), range(4))
    assert (scans, adds) == ([4], [])
    assert leads == [(41, {1: -1}), (33, {3: 5}), (26, {2: 3}), (8, {0: 1})]


# ---------- exact coefficients: int when integral, else Fraction ----------


# every kind of scalar the library takes, zero included: ints, Fractions that
# are and are not integral, bools and floats that Fraction converts exactly
exact_scalars = st.one_of(
    st.integers(-6, 6),
    nonzero_rationals,
    st.integers(-6, 6).map(Fraction),
    st.booleans(),
    st.sampled_from([0.5, -2.0, 3.0, -0.25]),
)


def assert_exact(coefficients):
    """Each coefficient is an int when integral and a Fraction otherwise; never a float or a bool."""
    for c in coefficients:
        assert type(c) in (int, Fraction), repr(c)
        assert (type(c) is int) == (Fraction(c).denominator == 1), repr(c)


@st.composite
def mixed_polynomials(draw, ring, degree=None):
    """A polynomial built from exact_scalars; homogeneous of the degree when one is given."""
    if degree is None:
        monos = draw(st.lists(st.tuples(*(st.integers(0, 2) for _ in range(ring.num_vars))), max_size=4))
    else:
        monos = ring.monomials_of_degree(degree)
    coefficients = draw(st.lists(exact_scalars, min_size=len(monos), max_size=len(monos)))
    return Polynomial(dict(zip(monos, coefficients)))


@SETTINGS
@given(data=st.data())
def test_coefficients_are_int_exactly_when_integral(data):
    ring = std_ring(2)
    p, q = data.draw(mixed_polynomials(ring)), data.draw(mixed_polynomials(ring))
    scalar = data.draw(exact_scalars)
    mono = data.draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
    for r in [p, p + q, p - q, p * q, -p, p.scale(scalar), p.multiply_term(mono, scalar), scalar * p, p * scalar]:
        assert_exact(r.terms.values())
    # parsing: a printed polynomial, and rational literals that may be integral
    assert_exact(parse_polynomial(ring, polynomial_to_string(ring, p)).terms.values())
    num, den = data.draw(st.integers(-8, 8)), data.draw(st.integers(1, 4))
    assert_exact(parse_polynomial(ring, "%d/%d*x1+%d/%d*x2^2" % (num, den, den, den)).terms.values())
    # a Fraction-coefficient polynomial equals and hashes like its int twin
    twin = Polynomial({m: Fraction(c) for m, c in p.terms.items()})
    assert twin == p and hash(twin) == hash(p)
    assert twin.terms == p.terms and [type(c) for c in twin.terms.values()] == [type(c) for c in p.terms.values()]


@SETTINGS
@given(data=st.data())
def test_matrix_entries_are_int_exactly_when_integral(data):
    ring = std_ring(2)
    row = [data.draw(mixed_polynomials(ring, (1,))) for _ in range(2)]
    col = [data.draw(mixed_polynomials(ring, (1,))) for _ in range(2)]
    a = PolyMatrix(FreeModuleSpec(ring, [[0]]), FreeModuleSpec(ring, [[1], [1]]), [row])
    b = PolyMatrix(FreeModuleSpec(ring, [[1], [1]]), FreeModuleSpec(ring, [[2]]), [[e] for e in col])
    assert_exact(c for entry in (a @ b).entries[0] for c in entry.terms.values())
    rows = data.draw(st.lists(st.lists(exact_scalars, min_size=2, max_size=2), min_size=2, max_size=2))
    scalars = ScalarMatrix(rows)
    assert scalars == ScalarMatrix([[Fraction(x) for x in r] for r in rows])
    for matrix in (scalars, scalars @ scalars, scalars.transpose()):
        assert_exact(x for r in matrix.rows for x in r)
    # the transpose trusts exact entries and skips the constructor's checks
    assert scalars.transpose() == ScalarMatrix(list(zip(*rows))) and scalars.transpose().transpose() == scalars


# ---------- random homogeneous matrices ----------


@st.composite
def homogeneous_row_matrix(draw, ring=None, max_cols=3, max_degree=3, coefficients=None):
    """A one-row matrix of homogeneous polynomials over a small ring.

    Coefficients are drawn from coefficients, by default integers -3..3.
    """
    ring = ring or std_ring(2)
    if coefficients is None:
        coefficients = st.integers(-3, 3)
    num_cols = draw(st.integers(1, max_cols))
    columns = []
    degrees = []
    for _ in range(num_cols):
        if ring.degree_length == 1:
            degree = (draw(st.integers(1, max_degree)),)
        else:
            degree = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
            assume(any(degree))
        monos = ring.monomials_of_degree(degree)
        assume(monos)
        coeffs = draw(
            st.lists(coefficients, min_size=len(monos), max_size=len(monos))
        )
        poly = Polynomial(dict(zip(monos, coeffs)))
        assume(not poly.is_zero)
        columns.append(poly)
        degrees.append(degree)
    cod = FreeModuleSpec(ring, [[0] * ring.degree_length])
    dom = FreeModuleSpec(ring, degrees)
    return PolyMatrix(cod, dom, [columns])


@st.composite
def degree_preserving_mixing(draw, matrix):
    """Invertible scalar matrix mixing only equal-degree columns."""
    degrees = matrix.domain.basis_degrees
    n = len(degrees)
    u = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    ops = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2)), max_size=6))
    for i, j, c in ops:
        if i == j or degrees[i] != degrees[j]:
            continue
        # column j += c * column i
        for k in range(n):
            u[k][j] += c * u[k][i]
    scale = draw(st.lists(st.sampled_from([1, -1, 2]), min_size=n, max_size=n))
    for j, s in enumerate(scale):
        for k in range(n):
            u[k][j] *= s
    perm = draw(st.permutations(range(n)))
    permuted = [[u[k][perm[j]] for j in range(n)] for k in range(n)]
    return ScalarMatrix(permuted), perm


@SETTINGS
@given(data=st.data())
def test_gb_canonical_under_column_mixing(data):
    m = data.draw(homogeneous_row_matrix())
    u, perm = data.draw(degree_preserving_mixing(m))
    new_domain = FreeModuleSpec(
        m.domain.ring, [m.domain.basis_degrees[perm[j]] for j in range(m.num_cols)]
    )
    mixed = m @ u.to_poly_matrix(m.domain, new_domain)
    basis, mixed_basis = buchberger(m, TOP_UP), buchberger(mixed, TOP_UP)
    assert basis.elements == mixed_basis.elements
    assert basis == mixed_basis


def assert_gb_matches_sympy(m, order):
    """buchberger's reduced basis of a one-row matrix over std_ring(2, order) is sympy's."""
    sympy = __import__("sympy")
    basis = buchberger(m, TOP_UP)
    mine = {frozenset(g.entries[0].terms.items()) for g in basis.elements}

    syms = sympy.symbols("x1 x2")
    exprs = []
    for col in m.columns():
        expr = sympy.Integer(0)
        for mono, coeff in col.entries[0].terms.items():
            term = sympy.Rational(coeff.numerator, coeff.denominator)
            for s, e in zip(syms, mono):
                term *= s ** e
            expr += term
        exprs.append(expr)
    reference = sympy.groebner(exprs, *syms, order=order, field=True)
    theirs = set()
    for poly in reference.polys:
        theirs.add(
            frozenset(
                (mono, Fraction(int(c.numerator), int(c.denominator)))
                for mono, c in poly.terms()
            )
        )
    assert mine == theirs


@SETTINGS
@given(data=st.data(), order=st.sampled_from(["grevlex", "lex"]))
def test_gb_matches_independent_implementation(data, order):
    # cross-check the ideal case against sympy's reduced Groebner bases
    m = data.draw(homogeneous_row_matrix(ring=std_ring(2, order)))
    assert_gb_matches_sympy(m, order)


# zero or a rational other than 1 and -1, so that leading coefficients are
# not units of the integers, and most coefficients are not integers
non_unit_rationals = st.one_of(
    st.just(0), nonzero_rationals.filter(lambda c: abs(c) != 1)
)


@SETTINGS
@given(data=st.data(), order=st.sampled_from(["grevlex", "lex"]))
def test_gb_matches_sympy_on_non_integer_coefficients(data, order):
    # the Fraction steps of the division and the scaling of non-integer
    # generators to primitive integer basis elements
    m = data.draw(homogeneous_row_matrix(ring=std_ring(2, order), coefficients=non_unit_rationals))
    assert_gb_matches_sympy(m, order)


@SETTINGS
@given(data=st.data())
def test_gb_membership_soundness(data):
    m = data.draw(homogeneous_row_matrix())
    basis = buchberger(m, TOP_UP)
    divisors = list(basis.elements)
    cols = m.columns()
    coeffs = data.draw(
        st.lists(st.integers(-2, 2), min_size=len(cols), max_size=len(cols))
    )
    monos = data.draw(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
            min_size=len(cols),
            max_size=len(cols),
        )
    )
    combo = m.codomain.zero_element()
    for col, c, mono in zip(cols, coeffs, monos):
        combo = combo + col.multiply_term(mono, c)
    assert normal_form(combo, divisors, TOP_UP).remainder.is_zero


# ---------- division with remainder against a reference ----------


def _reference_term_divides(a, b):
    return a.index == b.index and monomial_divides(a.monomial, b.monomial)


def reference_normal_form(element, divisors, order):
    """The ModuleElement-based division that `normal_form` replaced, kept verbatim."""
    module = element.module
    lts = [g.leading_term(order) for g in divisors]
    quotients = [Polynomial() for _ in divisors]
    remainder = module.zero_element()
    work = element
    while not work.is_zero:
        term, coeff = work.leading_term(order)
        for k, (g_term, g_coeff) in enumerate(lts):
            if _reference_term_divides(g_term, term):
                q_mono = monomial_div(term.monomial, g_term.monomial)
                q_coeff = coeff / g_coeff
                quotients[k] = quotients[k] + Polynomial({q_mono: q_coeff})
                work = work - divisors[k].multiply_term(q_mono, q_coeff)
                break
        else:
            single = Polynomial({term.monomial: coeff})
            remainder = remainder + module.basis_element(term.index, single)
            work = work - module.basis_element(term.index, single)
    return quotients, remainder


@st.composite
def module_elements(draw, module, max_terms=3, max_exponent=2):
    """An element with up to max_terms terms per entry; not homogeneous, maybe zero."""
    mono = st.tuples(*(st.integers(0, max_exponent) for _ in range(module.ring.num_vars)))
    entries = []
    for _ in range(module.rank):
        monos = draw(st.lists(mono, max_size=max_terms))
        coeffs = draw(st.lists(nonzero_rationals, min_size=len(monos), max_size=len(monos)))
        entries.append(Polynomial(dict(zip(monos, coeffs))))
    return ModuleElement(module, entries)


@st.composite
def division_case(draw):
    """(element, divisors) over a rank-1 or rank-2 module.

    The divisors are random, so not a Groebner basis; some are repeated
    (maybe rescaled), some sit in one row only, and the list may be empty.
    The element is a combination of the divisors plus a random element, so
    that the division has work to do.
    """
    ring = std_ring(draw(st.integers(2, 3)), draw(st.sampled_from(["grevlex", "lex"])))
    rank = draw(st.integers(1, 2))
    module = FreeModuleSpec(ring, [(draw(st.integers(0, 1)),) for _ in range(rank)])
    nonzero = module_elements(module).filter(lambda e: not e.is_zero)
    divisors = draw(st.lists(nonzero, max_size=3))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["repeat", "one-row"]))
        if kind == "repeat" and divisors:
            source = divisors[draw(st.integers(0, len(divisors) - 1))]
            copy = source.scale(draw(st.sampled_from([1, 1, -2, Fraction(1, 3)])))
            divisors.insert(draw(st.integers(0, len(divisors))), copy)
        else:
            row = draw(st.integers(0, rank - 1))
            entry = draw(module_elements(FreeModuleSpec(ring, [(0,)]))).entries[0]
            assume(not entry.is_zero)
            divisors.append(module.basis_element(row, entry))
    element = draw(module_elements(module))
    for g in divisors:
        mono = draw(st.tuples(*(st.integers(0, 1) for _ in range(ring.num_vars))))
        element = element + g.multiply_term(mono, draw(st.integers(-2, 2)))
    return element, divisors


@SETTINGS
@given(case=division_case(), order=st.sampled_from(ALL_ORDERS))
def test_normal_form_matches_the_reference_division(case, order):
    element, divisors = case
    result = normal_form(element, divisors, order)
    quotients, remainder = reference_normal_form(element, divisors, order)
    assert result.quotients == quotients
    assert result.remainder == remainder
    total = result.remainder
    for q, g in zip(result.quotients, divisors):
        total = total + g.multiply(q)
    assert total == element


@SETTINGS
@given(data=st.data(), order=st.sampled_from(["grevlex", "lex"]))
def test_normal_form_remainder_matches_sympy_reduced(data, order):
    # the remainder modulo a Groebner basis is unique, whatever the division
    sympy = __import__("sympy")
    ring = std_ring(3, order)
    m = data.draw(homogeneous_row_matrix(ring=ring, max_degree=2))
    divisors = list(buchberger(m, TOP_UP).elements)
    element = data.draw(module_elements(m.codomain, max_terms=4, max_exponent=3))
    remainder = normal_form(element, divisors, TOP_UP).remainder

    syms = sympy.symbols("x1 x2 x3")

    def to_sympy(poly):
        expr = sympy.Integer(0)
        for mono, coeff in poly.terms.items():
            term = sympy.Rational(coeff.numerator, coeff.denominator)
            for s, e in zip(syms, mono):
                term *= s ** e
            expr += term
        return expr

    _, theirs = sympy.reduced(
        to_sympy(element.entries[0]), [to_sympy(g.entries[0]) for g in divisors], *syms, order=order
    )
    theirs = sympy.Poly(theirs, *syms)
    expected = {
        mono: Fraction(int(c.numerator), int(c.denominator)) for mono, c in theirs.terms() if c
    }
    assert remainder.entries[0].terms == expected


@SETTINGS
@given(data=st.data())
def test_hilbert_function_of_leading_term_module(data):
    m = data.draw(homogeneous_row_matrix(max_cols=2, max_degree=2))
    ring = m.domain.ring
    basis = buchberger(m, TOP_UP)
    module = m.codomain
    for total in range(0, 4):
        degree = (total,)
        terms = enumerate_terms(module, degree)
        index = {t: i for i, t in enumerate(terms)}
        ech = Echelon()
        for j, col in enumerate(m.columns()):
            gap = total - m.domain.basis_degrees[j][0]
            if gap < 0:
                continue
            for mono in ring.monomials_of_degree((gap,)):
                shifted = col.multiply_term(mono, 1)
                ech.add({index[t]: c for t, c in shifted.support()})
        image_dim = ech.rank
        standard = standard_monomials(basis, degree)
        assert len(standard) == len(terms) - image_dim


# ---------- packed module terms against the tuple code ----------

# The largest total degree a codec of the initial field width holds.
INITIAL_CAPACITY = (1 << _FIELD_BITS) - 1


@st.composite
def packed_term_case(draw):
    """(ring, order, rank, terms, multiplier): terms over 1-10 variables and rank indices.

    Exponents reach up to, and some cases across, the initial field width;
    each term is followed by its multiple by multiplier (so that some pairs
    divide), and the codec is sized for the largest total degree.
    """
    n = draw(st.integers(1, 10))
    ring = std_ring(n, draw(st.sampled_from(["grevlex", "lex"])))
    order = draw(st.sampled_from(ALL_ORDERS))
    rank = draw(st.integers(1, 5))
    top = draw(st.sampled_from([3, INITIAL_CAPACITY, 3 * INITIAL_CAPACITY]))
    monomials = st.tuples(*(st.integers(0, top) for _ in range(n)))
    multiplier = draw(st.tuples(*(st.integers(0, 2) for _ in range(n))))
    terms = []
    for mono, index in draw(st.lists(st.tuples(monomials, st.integers(0, rank - 1)), min_size=1, max_size=5)):
        terms.append(ModuleTerm(mono, index))
        terms.append(ModuleTerm(vector_add(mono, multiplier), index))
    return ring, order, rank, terms, multiplier


def _codec(ring, order, indices, terms):
    return _TermCodec(ring, order, indices, max(sum(t.monomial) for t in terms))


@SETTINGS
@given(case=packed_term_case())
def test_packed_terms_order_like_the_sort_key(case):
    ring, order, rank, terms, _ = case
    codec = _codec(ring, order, rank, terms)
    key = order.sort_key(ring)
    for a, b in itertools.product(terms, repeat=2):
        pa, pb = codec.term(*a), codec.term(*b)
        assert (pa > pb) - (pa < pb) == (key(a) > key(b)) - (key(a) < key(b))


@SETTINGS
@given(case=packed_term_case())
def test_packed_divides_agrees_with_term_divides(case):
    ring, order, rank, terms, multiplier = case
    codec = _codec(ring, order, rank, terms)
    for a, b in itertools.product(terms, repeat=2):
        assert codec.divides(codec.term(*a), codec.term(*b)) == _term_divides(a, b)
    # a term times a monomial packs to the sum, and is divisible by it
    shift = codec.term(multiplier, 0) - codec.term((0,) * ring.num_vars, 0)
    for a, b in zip(terms[::2], terms[1::2]):
        assert codec.term(*a) + shift == codec.term(*b)
        assert codec.divides(codec.term(*a), codec.term(*b))


@SETTINGS
@given(case=packed_term_case())
def test_packed_terms_unpack_to_themselves(case):
    ring, order, rank, terms, _ = case
    codec = _codec(ring, order, rank, terms)
    packed = [codec.term(*t) for t in terms]
    assert [codec.unpack(p) for p in packed] == terms
    assert not any(p & codec.guards for p in packed)
    # widening keeps the layout: repacked terms unpack to the same terms
    wide = codec.widened(codec.capacity + 1)
    assert wide.bits >= 2 * codec.bits
    assert [wide.unpack(p) for p in wide.repacked(codec, dict.fromkeys(packed))] == list(dict.fromkeys(terms))


# ---------- syzygies against the kernel dimension ----------


KERNEL_RINGS = [
    std_ring(2),
    std_ring(2, "lex"),
    RingSpec(["x1", "x2", "y"], [[1, 0], [1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
]


@st.composite
def homogeneous_matrix(draw, ring, offsets=None, coefficients=None):
    """A homogeneous matrix with one or two rows, sometimes with a redundant column.

    Column degrees lie above the highest row degree by a draw from offsets
    (by default, a vector of integers 0..2), and coefficients are drawn
    from coefficients (by default, integers -2..2).  The redundant column
    repeats a column, multiplies one by a variable, or is zero, so the
    columns need not generate their image minimally.
    """
    m = ring.degree_length
    if coefficients is None:
        coefficients = st.integers(-2, 2)

    def offset():
        if offsets is None:
            return tuple(draw(st.integers(0, 2)) for _ in range(m))
        return draw(offsets)

    units = [tuple(int(i == k) for i in range(m)) for k in range(m)]
    row_degrees = [draw(st.sampled_from([(0,) * m] + units)) for _ in range(draw(st.integers(1, 2)))]
    lowest = tuple(map(max, zip(*row_degrees)))
    column_degrees = []
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        degree = vector_add(lowest, offset())
        entries = []
        for r in row_degrees:
            monos = ring.monomials_of_degree(vector_sub(degree, r))
            coeffs = draw(st.lists(coefficients, min_size=len(monos), max_size=len(monos)))
            entries.append(Polynomial(dict(zip(monos, coeffs))))
        assume(any(not e.is_zero for e in entries))
        column_degrees.append(degree)
        columns.append(entries)
    extra = draw(st.sampled_from([None, None, None, "repeat", "multiple", "zero"]))
    if extra == "repeat":
        j = draw(st.integers(0, len(columns) - 1))
        column_degrees.append(column_degrees[j])
        columns.append(columns[j])
    elif extra == "multiple":
        j = draw(st.integers(0, len(columns) - 1))
        var = draw(st.integers(0, ring.num_vars - 1))
        column_degrees.append(vector_add(column_degrees[j], ring.var_degrees[var]))
        columns.append([e * ring.variable(var) for e in columns[j]])
    elif extra == "zero":
        column_degrees.append(vector_add(lowest, offset()))
        columns.append([Polynomial() for _ in row_degrees])
    cod = FreeModuleSpec(ring, row_degrees)
    dom = FreeModuleSpec(ring, column_degrees)
    rows = [[col[i] for col in columns] for i in range(len(row_degrees))]
    return PolyMatrix(cod, dom, rows)


def coordinates(element, index):
    vec = [Fraction(0)] * len(index)
    for term, coeff in element.support():
        vec[index[term]] = coeff
    return vec


def assert_syzygies_span_the_kernel(m, s, top):
    """In every degree d <= top, the degree-d part of the image of s is ker(m)_d."""
    ring = m.domain.ring
    assert (m @ s).is_zero
    assert is_minimal_map(s)
    for d in itertools.product(*(range(t + 1) for t in top)):
        domain_terms = enumerate_terms(m.domain, d)
        if not domain_terms:
            continue
        domain_index = {t: i for i, t in enumerate(domain_terms)}
        codomain_index = {t: i for i, t in enumerate(enumerate_terms(m.codomain, d))}
        image_rank = rank(
            [coordinates(m.column(t.index).multiply_term(t.monomial, 1), codomain_index) for t in domain_terms]
        )
        multiples = [
            coordinates(s.column(k).multiply_term(mono, 1), domain_index)
            for k, degree in enumerate(s.domain.basis_degrees)
            if min(vector_sub(d, degree)) >= 0
            for mono in ring.monomials_of_degree(vector_sub(d, degree))
        ]
        assert rank(multiples) == len(domain_terms) - image_rank, d


@SETTINGS
@given(data=st.data(), ring=st.sampled_from(KERNEL_RINGS), order=st.sampled_from(ALL_ORDERS))
def test_syzygies_span_the_kernel_in_each_degree(data, ring, order):
    m = data.draw(homogeneous_matrix(ring))
    s = syzygies(m, order)
    # the sum of the column degrees is at least the degree of any two entries' Koszul relation
    top = tuple(map(sum, zip(*m.domain.basis_degrees)))
    assert_syzygies_span_the_kernel(m, s, top)


@SETTINGS
@given(data=st.data(), ring=st.sampled_from(KERNEL_RINGS), order=st.sampled_from(ALL_ORDERS))
def test_syzygies_span_the_kernel_on_non_integer_coefficients(data, ring, order):
    m = data.draw(homogeneous_matrix(ring, coefficients=non_unit_rationals))
    s = syzygies(m, order)
    top = tuple(map(sum, zip(*m.domain.basis_degrees)))
    assert_syzygies_span_the_kernel(m, s, top)


def test_syzygies_of_a_row_with_repeated_multiple_and_zero_entries():
    ring = std_ring(2)
    row = [parse_polynomial(ring, t) for t in ["x1", "x1", "x1^2", "0"]]
    m = PolyMatrix(FreeModuleSpec(ring, [[0]]), FreeModuleSpec(ring, [[1], [1], [2], [3]]), [row])
    s = syzygies(m, TOP_UP)
    assert s.num_cols == 3
    assert sorted(s.domain.basis_degrees) == [(1,), (2,), (3,)]
    assert_syzygies_span_the_kernel(m, s, (7,))


def sympy_syzygy_module(m):
    """sympy's syzygy module of m's columns, and the submodule of the same free module that a matrix's columns span."""
    sympy = __import__("sympy")
    ring = m.domain.ring
    syms = sympy.symbols(ring.var_names)
    over = sympy.QQ.old_poly_ring(*syms)

    def expr(p):
        out = sympy.Integer(0)
        for mono, coeff in p.terms.items():
            term = sympy.Rational(coeff.numerator, coeff.denominator)
            for sym, e in zip(syms, mono):
                term *= sym ** e
            out += term
        return out

    def span(k):
        return over.free_module(k.num_rows).submodule(*[[expr(p) for p in col.entries] for col in k.columns()])

    return span(m).syzygy_module(), span


@SETTINGS
@given(
    data=st.data(),
    ring=st.sampled_from(KERNEL_RINGS),
    order=st.sampled_from(ALL_ORDERS),
    coefficients=st.sampled_from([None, non_unit_rationals]),
)
def test_syzygies_span_sympys_syzygy_module(data, ring, order, coefficients):
    # an independent oracle: sympy's module Groebner machinery, on maps
    # with repeated, multiple and zero columns among the draws
    m = data.draw(homogeneous_matrix(ring, coefficients=coefficients))
    s = syzygies(m, order)
    expected, span = sympy_syzygy_module(m)
    assert span(s) == expected


@pytest.mark.parametrize("name", sorted(S_POLYNOMIAL_MAPS))
def test_s_polynomial_syzygies_generate_sympys_syzygy_module(name):
    # the pinned syzygies of maps whose S-polynomial columns join G in the
    # frame's run (see S_POLYNOMIAL_SYZYGY_DIGESTS): they generate sympy's
    # syzygy module, and none lies in the span of the others, which for
    # homogeneous generators means that they generate it minimally; each
    # map and its syzygies are checked once, whichever orders give them
    seen = set()
    for order in ALL_ORDERS:
        m = s_polynomial_map(name, order)
        s = syzygies(m, order)
        key = repr((entries_as_text(m), s.domain.basis_degrees, entries_as_text(s)))
        if key in seen:
            continue
        seen.add(key)
        expected, span = sympy_syzygy_module(m)

        def spanned(keep):
            degrees = [d for k, d in enumerate(s.domain.basis_degrees) if keep(k)]
            columns = [c for k, c in enumerate(s.columns()) if keep(k)]
            return span(PolyMatrix.from_columns(s.codomain, FreeModuleSpec(m.domain.ring, degrees), columns))

        assert spanned(lambda k: True) == expected, order
        for j in range(s.num_cols):
            (column,) = spanned(lambda k: k == j).gens
            assert not spanned(lambda k: k != j).contains(column), (order, j)


@SETTINGS
@given(data=st.data(), ring=st.sampled_from(KERNEL_RINGS), order=st.sampled_from(ALL_ORDERS))
def test_syzygy_columns_are_primitive_multiples_of_the_relations(data, ring, order):
    # the frame divides each relation, and each column of a differential
    # wherever it changes, by its content (`linalg._primitive`, as
    # `schreyer` imports it); where it only clears denominators instead,
    # each column still comes out a positive multiple of the one
    # `syzygies` returns, which is a primitive integer vector
    m = data.draw(homogeneous_matrix(ring))
    s = syzygies(m, order)

    def integral(element):
        scale = lcm(*(Fraction(c).denominator for c in element.values()))
        return {t: exact(c * scale) for t, c in element.items()}, Fraction(1, scale)

    with mock.patch("torusweights.schreyer._primitive", integral):
        relations = syzygies(m, order)
    assert s.domain == relations.domain
    for col, relation in zip(s.columns(), relations.columns()):
        coefficients = [c for _, c in col.support()]
        assert all(type(c) is int for c in coefficients)
        assert gcd(*coefficients) == 1
        term, c = next(relation.support())
        ratio = Fraction(col.entries[term.index].terms[term.monomial]) / c
        assert ratio > 0
        assert col == relation.scale(ratio)


@SETTINGS
@given(data=st.data(), ring=st.sampled_from(KERNEL_RINGS), order=st.sampled_from(ALL_ORDERS))
def test_resolution_differentials_are_primitive_integer_columns(data, ring, order):
    # pruning divides each column by its content whenever it changes
    m = data.draw(homogeneous_matrix(ring, coefficients=st.one_of(st.integers(-2, 2), non_unit_rationals)))
    assume(is_minimal_map(m))
    for d in minimal_resolution(m, order).differentials[1:]:
        assert_primitive_integer_columns(d)


def basis_image(module, elements, vector):
    """The combination of the basis elements, in module, with vector's entries as coefficients."""
    image = module.zero_element()
    for g, entry in zip(elements, vector.entries):
        image = image + g.multiply(entry)
    return image


def held_elements(module, elements, records, degree):
    """The run's elements as it held them while it took the items of degree.

    elements are the ones the run returns; each element of that degree that
    the degree's back-substitution changed is given as it was before:
    content * g'_i = tail . G, tail = M * e_i less the later elements'
    quotients, so g_i = (content * g'_i - (tail - M * e_i) . G) / M.
    """
    held = list(elements)
    unit = (0,) * module.ring.num_vars
    for tail, d, payload, content, i in records:
        if payload is None and d == degree:
            entries = list(tail.entries)
            multiplier = entries[i].terms[unit]
            entries[i] = Polynomial()
            rest = basis_image(module, elements, ModuleElement(tail.module, entries))
            held[i] = (elements[i].scale(content) + rest.scale(-1)).scale(Fraction(1, multiplier))
    return held


@SETTINGS
@given(data=st.data(), ring=st.sampled_from(KERNEL_RINGS), order=st.sampled_from(ALL_ORDERS))
def test_buchberger_elements_are_primitive_integer_vectors(data, ring, order):
    # on integer input the run is fraction-free: every element it adds is a
    # primitive integer vector with a positive leading coefficient, and each
    # column's record says how the column is made of them: its relation is
    # tail - content * e_t, where M * c = content * g_t - tail . G for the
    # division's multiplier M and a nonzero rational content (0 if the
    # column reduced to zero)
    m = data.draw(homogeneous_matrix(ring))
    columns = m.columns()
    elements, records = tracked_run(m, order)
    assert elements
    for element in elements:
        coefficients = [c for _, c in element.support()]
        assert all(type(c) is int for c in coefficients)
        assert gcd(*coefficients) == 1
        assert element.leading_term(order)[1] > 0
    unit = (0,) * ring.num_vars
    for relation, degree, payload, multiplier, t in records:
        if type(payload) is not int:
            continue
        held = held_elements(m.codomain, elements, records, degree)
        entries = list(relation.entries)
        content = 0
        if t is not None:
            content = -entries[t].terms[unit]
            assert entries[t].terms == {unit: -content}
            entries[t] = Polynomial()
        tail = ModuleElement(relation.module, entries)
        expected = m.codomain.zero_element()
        if t is not None:
            expected = held[t].scale(content)
        assert columns[payload].scale(multiplier) + basis_image(m.codomain, held, tail) == expected


@SETTINGS
@pytest.mark.parametrize("coefficients", [None, non_unit_rationals], ids=["integers", "non-unit-rationals"])
@given(data=st.data(), ring=st.sampled_from(KERNEL_RINGS), order=st.sampled_from(ALL_ORDERS))
def test_buchberger_relations_are_homogeneous_syzygies(coefficients, data, ring, order):
    # every relation the run records lies in the degree recorded with it,
    # and each S-pair's relation over the basis is annihilated by the basis
    m = data.draw(homogeneous_matrix(ring, coefficients=coefficients))
    elements, records = tracked_run(m, order)
    for relation, degree, payload, _, _ in records:
        if not relation.is_zero:
            assert relation.homogeneous_degree() == degree
        if type(payload) is tuple:
            assert basis_image(m.codomain, held_elements(m.codomain, elements, records, degree), relation).is_zero


def frame_run_bases(call):
    """(codec, basis) of each frame run that call() makes, the basis as the run returns it."""
    real, runs = schreyer._buchberger_run, []

    def recorded(*args):
        out = real(*args)
        runs.append((out[0], out[2]))
        return out

    with mock.patch.object(schreyer, "_buchberger_run", recorded):
        call()
    return runs


def assert_reduced_basis(codec, basis):
    # no term of an element but its leading one is divisible by another
    # element's leading term
    leads = [max(work) for work, _ in basis]
    for i, (work, _) in enumerate(basis):
        for t in work:
            if t != leads[i]:
                assert not any(codec.divides(lead, t) for j, lead in enumerate(leads) if j != i)


@SETTINGS
@given(data=st.data(), ring=st.sampled_from(KERNEL_RINGS), order=st.sampled_from(ALL_ORDERS))
def test_the_frames_run_leaves_a_reduced_basis(data, ring, order):
    m = data.draw(homogeneous_matrix(ring))
    calls = [lambda: syzygies(m, order)]
    if is_minimal_map(m):
        calls.append(lambda: minimal_resolution(m, order))
    for call in calls:
        for codec, basis in frame_run_bases(call):
            assert_reduced_basis(codec, basis)


# under top-up the degree-3 S-pair adds an element whose leading term is a
# term of the degree-3 column's element, which the run took first, so that
# column-born element is reduced by an S-pair-born one of its degree
S_BORN_REDUCES_A_COLUMN = ["x1^2-x3^2-x1*x2", "2*x1^2+2*x2^2+x1*x2", "2*x1*x2*x3+2*x1^3"]


def test_an_s_pair_born_element_reduces_a_column_born_one_of_its_degree():
    ring = RingSpec(["x1", "x2", "x3"], [[1]] * 3, [[1]] * 3)
    m = matrix(ring, [[0]], [[2], [2], [3]], [S_BORN_REDUCES_A_COLUMN])
    elements, records = tracked_run(m, TOP_UP)
    s_born = {t for _, _, payload, _, t in records if type(payload) is tuple and t is not None}
    column_born = {t for _, _, payload, _, t in records if type(payload) is int and t is not None}
    assert any(
        payload is None and i in column_born and any(not tail.entries[j].is_zero for j in s_born)
        for tail, _, payload, _, i in records
    )
    for order in ALL_ORDERS:
        for call in (minimal_resolution, syzygies):
            runs = frame_run_bases(lambda: call(m, order))
            assert runs
            for codec, basis in runs:
                assert_reduced_basis(codec, basis)
        resolution = minimal_resolution(m, order)
        assert resolution.ranks == [1, 3, 3, 1]
        maps = resolution.differentials
        assert all((a @ b).is_zero for a, b in zip(maps, maps[1:]))
        assert maps[1] == syzygies(m, order)
        result = propagate_resolution(resolution, 0, [(0,)], order)
        assert [sorted(ws) for ws in result.per_module] == [[(0,)], [(2,), (2,), (3,)], [(4,), (5,), (5,)], [(7,)]]


# ---------- graded components from the bounded run ----------


# deg y = (1, -2) has a negative component sum, so ordering degrees by
# component sum is not monotone under multiplication; the bounded run and
# the queue compare degrees through the positive functional.  With w in
# degree (2, -4) as well, unbounded runs depend on that order to finish.
NEGATIVE_SUM_RING = RingSpec(
    ["x", "y", "z"], [[1, 0], [1, -2], [2, -2]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "lex"
)
MIXED_SIGN_RING = RingSpec(
    ["w", "x", "y", "z"],
    [[2, -4], [1, 0], [1, -2], [2, -2]],
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "lex",
)
COMPONENT_RINGS = [std_ring(3), bigraded_ring(), NEGATIVE_SUM_RING, MIXED_SIGN_RING]


def monomial_degrees(ring, top):
    """Degrees of the monomials with every exponent at most top."""
    exponents = st.tuples(*(st.integers(0, top) for _ in range(ring.num_vars)))
    return exponents.map(ring.monomial_degree)


def reference_nakayama_kept(vectors, degrees, ring):
    """The all-vectors formulation that `_nakayama_kept` replaced, kept verbatim but for the term index."""
    kept = [False] * len(vectors)
    for d in dict.fromkeys(degrees):
        products = []
        for v, vd in zip(vectors, degrees):
            gap = vector_sub(d, vd)
            if not any(gap):
                continue
            for mono in ring.monomials_of_degree(gap):
                if any(mono):
                    products.append(v.multiply_term(mono, 1))
        members = [i for i, vd in enumerate(degrees) if vd == d]
        terms = sorted({t for e in products + [vectors[i] for i in members] for t, _ in e.support()})
        index = {t: i for i, t in enumerate(terms)}
        ech = Echelon()
        for p in products:
            ech.add({index[t]: c for t, c in p.support()})
        for i in members:
            kept[i] = ech.add({index[t]: c for t, c in vectors[i].support()})
    return kept


@SETTINGS
@given(
    data=st.data(),
    ring=st.sampled_from(KERNEL_RINGS + [MIXED_SIGN_RING]),
    order=st.sampled_from(ALL_ORDERS),
    coefficients=st.sampled_from([None, non_unit_rationals]),
)
def test_nakayama_flags_match_the_all_vectors_formulation(data, ring, order, coefficients):
    # columns plus redundant combinations of monomial multiples of them, in
    # a shuffled order, so that some degree classes hold dependent vectors;
    # the flags come from a run on the packed vectors, under any order, on
    # integer or non-integer coefficients
    offsets = monomial_degrees(ring, 1) if ring is MIXED_SIGN_RING else None
    m = data.draw(homogeneous_matrix(ring, offsets=offsets, coefficients=coefficients))
    vectors, degrees = m.columns(), list(m.domain.basis_degrees)
    for _ in range(data.draw(st.integers(0, 3))):
        j = data.draw(st.integers(0, len(vectors) - 1))
        var = data.draw(st.integers(0, ring.num_vars - 1))
        mono = tuple(int(i == var) for i in range(ring.num_vars))
        degree = vector_add(degrees[j], ring.var_degrees[var])
        combo = vectors[j].multiply_term(mono, data.draw(st.integers(1, 2)))
        for v, vd in zip(list(vectors), list(degrees)):
            gap = vector_sub(degree, vd)
            if vd != degree and data.draw(st.booleans()):
                for other in ring.monomials_of_degree(gap)[:1]:
                    combo = combo + v.multiply_term(other, data.draw(st.integers(-2, 2)))
        vectors.append(combo)
        degrees.append(degree)
    perm = data.draw(st.permutations(range(len(vectors))))
    vectors, degrees = [vectors[i] for i in perm], [degrees[i] for i in perm]
    bound = max((sum(t.monomial) for v in vectors for t, _ in v.support()), default=0)
    codec = _TermCodec(ring, order, m.num_rows, bound)
    packed = [codec.packed(v) for v in vectors]
    assert _nakayama_kept(codec, m.codomain, packed, degrees) == reference_nakayama_kept(vectors, degrees, ring)


@st.composite
def single_degree_vectors(draw, ring, coefficients):
    """(module, vectors, degree): one to four vectors of one degree, plus zero, repeated, rescaled and
    combined ones, shuffled, so that some are dependent on those before them."""
    m = ring.degree_length
    units = [tuple(int(i == k) for i in range(m)) for k in range(m)]
    row_degrees = [draw(st.sampled_from([(0,) * m] + units)) for _ in range(draw(st.integers(1, 2)))]
    degree = vector_add(tuple(map(max, zip(*row_degrees))), draw(monomial_degrees(ring, 2)))
    module = FreeModuleSpec(ring, row_degrees)
    monos = [ring.monomials_of_degree(vector_sub(degree, r)) for r in row_degrees]
    assume(any(monos))

    def vector():
        return ModuleElement(
            module, [Polynomial(dict(zip(ms, draw(st.lists(coefficients, min_size=len(ms), max_size=len(ms)))))) for ms in monos]
        )

    vectors = [vector() for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "repeat", "scale", "combination"]))
        a, b = (vectors[draw(st.integers(0, len(vectors) - 1))] for _ in range(2))
        if kind == "zero":
            vectors.append(ModuleElement(module, [Polynomial() for _ in row_degrees]))
        elif kind == "repeat":
            vectors.append(a)
        elif kind == "scale":
            vectors.append(a.scale(draw(nonzero_rationals)))
        else:
            vectors.append(a.scale(draw(nonzero_rationals)) + b.scale(draw(nonzero_rationals)))
    perm = draw(st.permutations(range(len(vectors))))
    return module, [vectors[i] for i in perm], degree


@SETTINGS
@given(
    data=st.data(),
    ring=st.sampled_from(KERNEL_RINGS + [MIXED_SIGN_RING]),
    order=st.sampled_from(ALL_ORDERS),
    coefficients=st.sampled_from([st.integers(-2, 2), non_unit_rationals]),
)
def test_single_degree_nakayama_flags_match_the_run_and_sympy(data, ring, order, coefficients):
    # vectors of one degree are decided by one elimination; the reference is
    # the bounded run without tails that decides every other case, with no
    # `Echelon` in it, and all of them are kept iff sympy finds full rank
    sympy = __import__("sympy")
    module, vectors, degree = data.draw(single_degree_vectors(ring, coefficients))
    degrees = [degree] * len(vectors)
    bound = max((sum(t.monomial) for v in vectors for t, _ in v.support()), default=0)
    codec = _TermCodec(ring, order, module.rank, bound)
    packed = [codec.packed(v) for v in vectors]
    flags = _nakayama_kept(codec, module, packed, degrees)
    assert flags == _buchberger_run(codec, packed, degrees, module, degree, False)[4]
    terms = sorted({t for v in vectors for t, _ in v.support()})
    coefficients = [dict(v.support()) for v in vectors]
    cells = [Fraction(c.get(t, 0)) for c in coefficients for t in terms]
    matrix = sympy.Matrix(len(vectors), len(terms), [sympy.Rational(x.numerator, x.denominator) for x in cells])
    assert all(flags) == (matrix.rank() == len(vectors))


# ---------- minimality read off the frame's run ----------


@st.composite
def maps_with_redundant_columns(draw, ring, order):
    """A `homogeneous_matrix`, or its image's reduced Groebner basis, with S-polynomial (see `with_s_polynomials`),
    repeated, multiple and zero columns added, in a shuffled order, so that its columns need not generate their
    image minimally.  No column of a reduced basis reduces to zero in the frame's run, so its rank test alone finds
    the redundant ones there."""
    m = draw(homogeneous_matrix(ring))
    if draw(st.booleans()):
        m = sort_gb_columns(buchberger(m, order))
    if not any(c.is_zero for c in m.columns()) and draw(st.booleans()):
        m = with_s_polynomials(m, order)
    columns, degrees = m.columns(), list(m.domain.basis_degrees)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        kind, j = draw(st.sampled_from(["repeat", "multiple", "zero"])), draw(st.integers(0, len(columns) - 1))
        if kind == "multiple":
            var = draw(st.integers(0, ring.num_vars - 1))
            columns.append(columns[j].multiply(ring.variable(var)))
            degrees.append(vector_add(degrees[j], ring.var_degrees[var]))
        else:
            columns.append(columns[j] if kind == "repeat" else m.codomain.zero_element())
            degrees.append(degrees[j])
    perm = draw(st.permutations(range(len(columns))))
    return PolyMatrix.from_columns(m.codomain, FreeModuleSpec(ring, [degrees[i] for i in perm]), [columns[i] for i in perm])


@SETTINGS
@given(data=st.data(), ring=st.sampled_from(KERNEL_RINGS), order=st.sampled_from(ALL_ORDERS))
def test_the_frames_run_decides_minimality(data, ring, order):
    # minimal_resolution rejects exactly the maps whose columns graded
    # Nakayama does not all keep, and the syzygies of any of them are those
    # of the kept columns plus one minimal generator per redundant column,
    # in that column's degree
    m = data.draw(maps_with_redundant_columns(ring, order))
    columns, degrees = m.columns(), list(m.domain.basis_degrees)
    kept = reference_nakayama_kept(columns, degrees, ring)
    for max_length in (None, 1, 2):
        if all(kept):
            assert minimal_resolution(m, order, max_length=max_length).differentials[0] is m
        else:
            with pytest.raises(MinimalityError) as info:
                minimal_resolution(m, order, max_length=max_length)
            assert str(info.value) == "presentation matrix is not a minimal map"
    s = syzygies(m, order)
    assert (m @ s).is_zero
    assert is_minimal_map(s)
    m_k = PolyMatrix.from_columns(
        m.codomain, FreeModuleSpec(ring, [d for d, k in zip(degrees, kept) if k]), [c for c, k in zip(columns, kept) if k]
    )
    expected = list(syzygies(m_k, order).domain.basis_degrees) + [d for d, k in zip(degrees, kept) if not k]
    assert sorted(s.domain.basis_degrees) == sorted(expected)


# ---------- top reduction in runs without tails ----------


def redundant_nakayama_inputs(matrix, order):
    """minimal_resolution(matrix, order), and the (module, vectors, degrees) of each of its differentials with two
    redundant columns appended (see `with_redundant_columns`)."""
    resolution = minimal_resolution(matrix, order)
    inputs = []
    for d in resolution.differentials:
        if d.num_cols:
            w = with_redundant_columns(d)
            inputs.append((w.codomain, w.columns(), list(w.domain.basis_degrees)))
    return resolution, inputs


def assert_flags_match_the_reference(module, vectors, degrees, expected):
    ring = module.ring
    bound = max((sum(t.monomial) for v in vectors for t, _ in v.support()), default=0)
    for order in ALL_ORDERS:
        codec = _TermCodec(ring, order, module.rank, bound)
        assert _nakayama_kept(codec, module, [codec.packed(v) for v in vectors], degrees) == expected, order


@pytest.mark.parametrize("name", ["mixed_sign", "high_degree", "high_degree_3var", "bigraded", "grassmannian"])
def test_top_reduced_runs_keep_the_nakayama_flags_on_the_fixtures(name):
    # each map, its dual and the differentials minimal_resolution computes
    # from it under every order, and those differentials with redundant
    # columns appended, which it does not keep
    problem = load_problem(fixture_path(name + ".json"))
    maps, runs = [], []
    for m in problem.matrices.values():
        maps += [m, dual_map(m)]
        for order in ALL_ORDERS:
            resolution, calls = redundant_nakayama_inputs(m, order)
            maps += resolution.differentials[1:]
            runs += calls
    for k in maps:
        degrees = list(k.domain.basis_degrees)
        expected = reference_nakayama_kept(k.columns(), degrees, k.domain.ring)
        assert is_minimal_map(k) == all(expected)
        assert_flags_match_the_reference(k.codomain, k.columns(), degrees, expected)
    flags = [reference_nakayama_kept(vectors, degrees, module.ring) for module, vectors, degrees in runs]
    assert runs and not any(map(all, flags))
    for (module, vectors, degrees), expected in zip(runs, flags):
        assert_flags_match_the_reference(module, vectors, degrees, expected)


def flags_under_every_order(m):
    """`_nakayama_kept`'s flags on m's columns, packed as `propagate_resolution` packs them, per order."""
    flags = []
    for order in ALL_ORDERS:
        codec = _TermCodec(m.domain.ring, order, max(m.num_rows, m.num_cols), _largest_degree(m))
        flags.append(_nakayama_kept(codec, m.codomain, codec.columns(m), m.domain.basis_degrees))
    return flags


@pytest.mark.parametrize(
    "name",
    ["bigraded", "generic_koszul", "grassmannian", "high_degree", "high_degree_3var", "koszul", "mixed_sign",
     "three_squares", "two_variables"],
)
def test_nakayama_flags_do_not_depend_on_the_order_on_the_fixtures(name):
    # the chain and dual checks run under the caller's order: each fixture
    # map, its dual and the differentials computed from it
    problem = load_problem(fixture_path(name + ".json"))
    maps = []
    for m in problem.matrices.values():
        maps += [m, dual_map(m)]
        if is_minimal_map(m):
            maps += minimal_resolution(m, problem.module_order).differentials[1:]
    for m in maps:
        flags = flags_under_every_order(m)
        assert flags == [flags[0]] * len(ALL_ORDERS)


@SETTINGS
@given(data=st.data(), ring=st.sampled_from(KERNEL_RINGS + [MIXED_SIGN_RING]), dual=st.booleans())
def test_nakayama_flags_do_not_depend_on_the_order(data, ring, dual):
    offsets = monomial_degrees(ring, 1) if ring is MIXED_SIGN_RING else None
    m = data.draw(homogeneous_matrix(ring, offsets=offsets))
    if dual:
        m = dual_map(m)
    flags = flags_under_every_order(m)
    assert flags == [flags[0]] * len(ALL_ORDERS)


# ---------- the frame's bucketed division against the list scan ----------


@contextlib.contextmanager
def frame_divisions_against_the_list_scan():
    """Check every division of a Schreyer frame level by the reference list scan; yields the list of checked counts.

    `_next_level` hands `_pseudo_divide` its divisors by chain, as
    `_FrameLayout.buckets` groups them; the spy on `buckets` keeps the list
    each grouping came from, and the reference scans that list, testing the
    chain itself: a key divides another when their chains are equal and
    their F_0 terms divide.  The work, the tail, in insertion order, and
    the multiplier must agree.
    """
    lists, checked = {}, []
    buckets, divide = schreyer._FrameLayout.buckets, schreyer._pseudo_divide

    def recorded(layout, divisors):
        out = buckets(layout, divisors)
        lists[id(out)] = (out, list(divisors))
        return out

    def compared(work, tail, divisors, codec):
        if type(codec) is not schreyer._FrameLayout:
            return divide(work, tail, divisors, codec)
        # the F_0 terms divide, and the chains are equal
        divmask = codec.codec.divmask << codec.width | ((1 << codec.width) - 1)
        expected_work, expected_tail = dict(work), dict(tail)
        expected = reference_pseudo_divide(expected_work, expected_tail, lists[id(divisors)][1], divmask, codec.guards)
        multiplier = divide(work, tail, divisors, codec)
        assert multiplier == expected
        assert list(work.items()) == list(expected_work.items())
        assert list(tail.items()) == list(expected_tail.items())
        checked.append(len(lists[id(divisors)][1]))
        return multiplier

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schreyer._FrameLayout, "buckets", recorded)
        patch.setattr(schreyer, "_pseudo_divide", compared)
        yield checked


@pytest.mark.parametrize("name", ["bigraded", "generic_koszul", "grassmannian", "koszul", "mixed_sign"])
def test_bucketed_frame_division_matches_the_list_scan_on_the_fixtures(name):
    problem = load_problem(fixture_path(name + ".json"))
    with frame_divisions_against_the_list_scan() as checked:
        for m in problem.matrices.values():
            if is_minimal_map(m) and m.num_cols:
                for order in ALL_ORDERS:
                    minimal_resolution(m, order)
    assert checked


@SETTINGS
@given(data=st.data(), ring=st.sampled_from(COMPONENT_RINGS), order=st.sampled_from(ALL_ORDERS))
def test_bucketed_frame_division_matches_the_list_scan(data, ring, order):
    m = data.draw(homogeneous_matrix(ring, offsets=monomial_degrees(ring, 1)))
    assume(is_minimal_map(m))
    with frame_divisions_against_the_list_scan():
        minimal_resolution(m, order)


def test_a_top_reduced_element_keeps_a_reducible_tail_that_an_s_pair_meets():
    # over grevlex x > y, b = x^2+x*y+y^2 joins after a = x*y with its tail
    # term x*y, which a divides, left unreduced; the degree-3 S-pair
    # x*a - y*b = -x*y^2 - y^3 meets that term and reduces to -y^3, as it
    # does with b fully reduced to x^2+y^2, so the generator y^3 is redundant
    ring = RingSpec(["x", "y"], [[1], [1]], [[1, 0], [0, 1]])
    row = [parse_polynomial(ring, t) for t in ("x*y", "x^2+x*y+y^2", "y^3")]
    m = PolyMatrix(FreeModuleSpec(ring, [[0]]), FreeModuleSpec(ring, [[2], [2], [3]]), [row])
    degrees = list(m.domain.basis_degrees)
    expected = reference_nakayama_kept(m.columns(), degrees, ring)
    assert expected == [True, True, False]
    for order in ALL_ORDERS:
        codec = _TermCodec(ring, order, 1, 3)
        _, _, basis, _, joined = _buchberger_run(codec, codec.columns(m), degrees, m.codomain, (3,), False)
        assert joined == expected
        assert codec.term((1, 1), 0) in basis[1][0]
        assert basis[2][0] == {codec.term((0, 3), 0): 1}
        elements = buchberger(m, order).elements
        assert [polynomial_to_string(ring, g.entries[0]) for g in elements] == ["x*y", "x^2+y^2", "y^3"]
    assert_flags_match_the_reference(m.codomain, m.columns(), degrees, expected)
    assert not is_minimal_map(m)


# The search carries weights in signed slots sized from the largest
# weights: variable weights that are negative and wider than 64 bits
# (conftest's WIDE_WEIGHT_RING), and no weights at all, are its edges.
WEIGHTLESS_RING = RingSpec(["x", "y"], [[1], [1]], [[], []])


@SETTINGS
@given(
    data=st.data(),
    ring=st.sampled_from(COMPONENT_RINGS + [WIDE_WEIGHT_RING, WEIGHTLESS_RING]),
    order=st.sampled_from(ALL_ORDERS),
    weight_values=st.sampled_from([st.integers(-2, 2), st.integers(-(2**70), 2**70)]),
)
def test_graded_components_match_the_unbounded_basis(data, ring, order, weight_values):
    m = data.draw(homogeneous_matrix(ring, offsets=monomial_degrees(ring, 1)))
    weights = [tuple(data.draw(weight_values) for _ in ring.var_weights[0]) for _ in range(m.codomain.rank)]
    basis = buchberger(m, order)
    lowest = tuple(map(max, zip(*m.codomain.basis_degrees)))
    degrees = data.draw(st.lists(monomial_degrees(ring, 2), min_size=1, max_size=4))
    for degree in [vector_add(lowest, d) for d in degrees]:
        terms = standard_monomials(basis, degree)
        if order.is_position_up:
            terms.reverse()
        expected = tuple(vector_add(ring.monomial_weight(t.monomial), weights[t.index]) for t in terms)
        assert propagate_graded_components(degree, m, weights, order) == expected, degree


@SETTINGS
@given(data=st.data(), ring=st.sampled_from(COMPONENT_RINGS), order=st.sampled_from(ALL_ORDERS))
def test_the_bounded_run_has_the_leading_terms_of_the_reduced_basis(data, ring, order):
    # graded components read the leading terms off the run without tails,
    # which only top-reduces and is neither made monic nor inter-reduced
    m = data.draw(homogeneous_matrix(ring, offsets=monomial_degrees(ring, 1)))
    lowest = tuple(map(max, zip(*m.codomain.basis_degrees)))
    bound = vector_add(lowest, data.draw(monomial_degrees(ring, 2)))
    codec, (columns,) = _packed_chain([m], order)
    codec, _, basis, _, _ = _buchberger_run(codec, columns, m.domain.basis_degrees, m.codomain, bound, False)
    leads = [codec.unpack(max(work)) for work, _ in basis]
    assert set(leads) == set(buchberger(m, order, bound=bound).leading_terms())


# ---------- standard monomials against the filtered term list ----------


# A ring whose last variable has degree 2, so that no exponent of it fills an odd rest.
DEGREE_TWO_RING = RingSpec(["x", "y", "z"], [[1], [1], [2]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


@SETTINGS
@given(
    data=st.data(),
    ring=st.sampled_from(KERNEL_RINGS + [MIXED_SIGN_RING, DEGREE_TWO_RING]),
    order=st.sampled_from(ALL_ORDERS),
)
def test_standard_monomials_match_the_filtered_terms(data, ring, order):
    # the pruned search on packed terms against every degree-d term filtered
    # by divisibility on tuples, for a basis bounded at d, the unbounded one
    # (leading terms above d) and, with a constant column, one with a unit
    # leading term, which empties its row; a degree below every row's has none
    offsets = monomial_degrees(ring, 1) if ring is MIXED_SIGN_RING else None
    m = data.draw(homogeneous_matrix(ring, offsets=offsets))
    rows = m.codomain.basis_degrees
    unit_row = data.draw(st.sampled_from([None, None] + list(range(len(rows)))))
    if unit_row is not None:
        one = Polynomial({unit_monomial(ring.num_vars): 1})
        entries = [list(row) + [one if i == unit_row else Polynomial()] for i, row in enumerate(m.entries)]
        m = PolyMatrix(m.codomain, FreeModuleSpec(ring, list(m.domain.basis_degrees) + [rows[unit_row]]), entries)
    basis = buchberger(m, order)
    lowest = tuple(map(max, zip(*rows)))
    below = vector_sub(min(rows, key=ring._functional), ring.var_degrees[data.draw(st.integers(0, ring.num_vars - 1))])
    degrees = [vector_add(lowest, d) for d in data.draw(st.lists(monomial_degrees(ring, 3), min_size=1, max_size=3))]
    for degree in degrees + [below]:
        expected = reference_standard_monomials(basis, degree)
        assert standard_monomials(basis, degree) == expected, degree
        assert standard_monomials(buchberger(m, order, bound=degree), degree) == expected, degree
        if unit_row is not None:
            assert all(t.index != unit_row for t in expected), degree
    assert reference_standard_monomials(basis, below) == []
    width = ring.degree_length
    for malformed in [(1,) * (width + 1), 2, (1.5,) * width, ("2",) * width]:
        with pytest.raises(InputError) as raised:
            standard_monomials(basis, malformed)
        with pytest.raises(InputError) as reference:
            enumerate_terms(basis.module, malformed, order)
        assert str(raised.value) == str(reference.value)


# ---------- equivariant Euler characteristic ----------


def degrees_as_weights_ring(degrees, order="grevlex"):
    """A ring whose torus weights are its degrees: every homogeneous map is equivariant."""
    return RingSpec(["x%d" % (i + 1) for i in range(len(degrees))], degrees, degrees, order)


EQUIVARIANT_RINGS = [
    degrees_as_weights_ring([[1], [1]]),
    degrees_as_weights_ring([[1], [1], [1]], "lex"),
    degrees_as_weights_ring([[1, 0], [1, 0], [0, 1]]),
]


@SETTINGS
@given(data=st.data(), ring=st.sampled_from(EQUIVARIANT_RINGS), order=st.sampled_from(ALL_ORDERS))
def test_resolution_character_matches_graded_components(data, ring, order):
    m = data.draw(homogeneous_row_matrix(ring=ring, max_degree=2))
    assume(is_minimal_map(m))
    diffs = list(minimal_resolution(m, order).differentials)
    start_index = data.draw(st.integers(0, len(diffs)))
    start_module = ([m.codomain] + [d.domain for d in diffs])[start_index]
    top = max(sum(d) for d in m.domain.basis_degrees) + 1
    degrees = [d for d in itertools.product(range(top + 1), repeat=ring.degree_length) if sum(d) <= top]
    try:
        assert_euler_characteristic(diffs, start_index, start_module.basis_degrees, degrees, order)
    except ResolutionStepError:
        # the dual of some differential is not minimal: no forward propagation
        assume(False)


FINE_TORUS_RING = RingSpec(["x1", "x2", "x3"], [[1]] * 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


@st.composite
def torus_stable_matrix(draw):
    """A minimal map of one or two rows over FINE_TORUS_RING whose columns each have a single weight, and F_0's weights.

    The torus weight of a term is its exponent vector.  Row i has the weight
    u_i, a column the weight w, and its entry in row i is c * x^(w - u_i) or
    0, so each column, and so the map, is torus-stable.  No column's weight
    is at most another's, so no column lies in the submodule the others
    generate: the map is minimal.
    """
    row_weights = [(0, 0, 0)]
    if draw(st.booleans()):
        row_weights.append(draw(st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)])))
    pool = draw(st.lists(st.tuples(*(st.integers(0, 2) for _ in range(3))).filter(any), min_size=1, max_size=5))
    kept = []
    for w in pool:
        if not any(monomial_divides(other, w) for other in kept):
            kept = [other for other in kept if not monomial_divides(w, other)] + [w]
    columns = []
    for w in kept:
        rows = [i for i, u in enumerate(row_weights) if min(vector_sub(w, u)) >= 0]
        chosen = draw(st.lists(st.sampled_from(rows), min_size=1, unique=True))
        columns.append([
            Polynomial({vector_sub(w, u): draw(st.sampled_from([-2, -1, 1, 2, 3]))}) if i in chosen else Polynomial({})
            for i, u in enumerate(row_weights)
        ])
    cod = FreeModuleSpec(FINE_TORUS_RING, [[sum(u)] for u in row_weights])
    dom = FreeModuleSpec(FINE_TORUS_RING, [[sum(w)] for w in kept])
    return PolyMatrix(cod, dom, [list(row) for row in zip(*columns)]), row_weights


@SETTINGS
@given(data=st.data(), order=st.sampled_from(ALL_ORDERS))
def test_minimal_resolution_matches_the_syzygies_loop_on_torus_stable_maps(data, order):
    # weight multisets are invariants of a torus-stable map only, so only
    # such maps are compared
    m, weights = data.draw(torus_stable_matrix())
    assert_resolution_matches_the_syzygies_loop(m, [weights], order)


@SETTINGS
@given(data=st.data(), order=st.sampled_from(ALL_ORDERS))
def test_monomial_resolution_character_under_the_fine_torus(data, order):
    # the ring weights are the exponent vectors, so weights tell terms of one degree apart
    m = data.draw(monomial_antichain_matrix(FINE_TORUS_RING))
    diffs = list(minimal_resolution(m, order).differentials)
    top = max(sum(d) for d in m.domain.basis_degrees) + 1
    assert_euler_characteristic(diffs, 0, [(0, 0, 0)], [(d,) for d in range(top + 1)], order)


# ---------- minimal monomial matrices and propagation invariants ----------


@st.composite
def monomial_antichain_matrix(draw, ring):
    """Row matrix of monomials, none dividing another (a minimal map)."""
    n = ring.num_vars
    pool = draw(
        st.lists(
            st.tuples(*(st.integers(0, 2) for _ in range(n))),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    kept = []
    for mono in pool:
        if any(monomial_divides(other, mono) for other in kept):
            continue
        kept = [other for other in kept if not monomial_divides(mono, other)]
        kept.append(mono)
    assume(kept)
    cod = FreeModuleSpec(ring, [[0] * ring.degree_length])
    dom = FreeModuleSpec(ring, [ring.monomial_degree(m) for m in kept])
    return PolyMatrix(cod, dom, [[Polynomial({m: 1}) for m in kept]])


def assert_support_weights(result, codomain_weights, ring):
    # every support term of every sorted-basis column shares the column weight
    g = result.sorted_matrix
    for j in range(g.num_cols):
        for term, _ in g.column(j).support():
            combined = tuple(
                a + b
                for a, b in zip(ring.monomial_weight(term.monomial), codomain_weights[term.index])
            )
            assert combined == result.weights[j]


@SETTINGS
@given(data=st.data())
def test_propagation_exactness_and_invertibility(data):
    ring = bigraded_ring()
    m = data.draw(monomial_antichain_matrix(ring))
    weights = [(0, 0, 0, 0)]
    result = propagate(m, weights, TOP_UP)
    c = result.change_of_basis
    # G = M C exactly, and C is invertible
    rebased = m @ c.to_poly_matrix(m.domain, result.rebased_module)
    assert rebased == result.sorted_matrix
    assert c @ c.inverse() == ScalarMatrix.identity(m.num_cols)
    assert c @ result.inverse_change_of_basis == ScalarMatrix.identity(m.num_cols)
    assert result.inverse_change_of_basis == c.inverse()
    assert_support_weights(result, weights, ring)
    # the bigrading is a linear function of the torus weights here
    for v, degree in zip(result.weights, result.rebased_module.basis_degrees):
        assert (v[0] + v[1], v[2] + v[3]) == degree


@SETTINGS
@given(data=st.data())
def test_weight_multiset_agrees_across_position_up_orders(data):
    ring = bigraded_ring()
    m = data.draw(monomial_antichain_matrix(ring))
    weights = [(0, 0, 0, 0)]
    top = propagate(m, weights, TOP_UP)
    pot = propagate(m, weights, POT_UP)
    assert Counter(top.weights) == Counter(pot.weights)


@st.composite
def koszul_first_differential(draw):
    """Linear forms spanning the variables: a mixed regular sequence."""
    n = draw(st.integers(2, 3))
    ring = std_ring(n)
    u = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i, j, c in draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2)), max_size=5)
    ):
        if i != j:
            for k in range(n):
                u[k][j] += c * u[k][i]
    variables = PolyMatrix(
        FreeModuleSpec(ring, [[0]]),
        FreeModuleSpec(ring, [[1]] * n),
        [[ring.variable(i) for i in range(n)]],
    )
    mixing = ScalarMatrix(u).to_poly_matrix(variables.domain, variables.domain)
    w0 = tuple(draw(st.integers(-2, 2)) for _ in range(n))
    return variables @ mixing, (w0,)


@SETTINGS
@given(data=st.data())
def test_round_trip_on_koszul_first_differential(data):
    d1, w0 = data.draw(koszul_first_differential())
    back = propagate(d1, w0, TOP_UP)
    forward = propagate_forward(back.sorted_matrix, back.weights, TOP_UP)
    assert Counter(forward.weights) == Counter(w0)


def test_support_weights_on_worked_fixtures(koszul, bigraded):
    # non-monomial sorted bases keep weight-consistent supports
    diffs = [koszul.matrices[n] for n in koszul.resolution]
    result = propagate_resolution_fixture(diffs, koszul.weightlists["W0"])
    ring = koszul.ring
    for idx in (1, 2, 3):
        step = result.steps[idx]
        assert_support_weights(step.result, result.per_module[idx - 1], ring)


def propagate_resolution_fixture(diffs, weights):
    from torusweights import propagate_resolution

    return propagate_resolution(diffs, 0, weights, TOP_UP)
