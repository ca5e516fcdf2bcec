"""Packed terms outside the Groebner engine, against the tuple code they replaced.

`_TermCodec.product` must give `PolyMatrix.__matmul__`'s product, entry for
entry, also for the constant left factor C^-1 by which the walk rebases a
map, and its zero test must agree with `(a @ b).is_zero`.  The packed
propagation walk must give, step by step, what the tuple walk gave: the
functions `_combine`, `_propagate` and `_walk` below are the tuple versions,
kept as the reference; they compute C, G and each step's map eagerly and
hand them over as functions of no argument, as the records take them.
Hypothesis runs derandomized, as in test_properties.
"""

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
from torusweights.linalg import Echelon, rank
from torusweights.modules import ModuleElement, _column_rows, dual_map
from torusweights.packed import _FIELD_BITS, _TermCodec, _largest_degree
from torusweights.problemfile import load_problem
from torusweights.propagate import _NOT_MINIMAL, PropagationResult
from torusweights.rings import Polynomial, unit_monomial, vector_add

from conftest import PROBLEMS, fixture_path, std_ring

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


@st.composite
def monomial_of_degree(draw, n, degree):
    cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=n - 1, max_size=n - 1)))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))


@st.composite
def homogeneous_poly(draw, n, degree, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        terms[draw(monomial_of_degree(n, degree))] = draw(COEFFICIENTS)
    return Polynomial(terms)


@st.composite
def composable_pair(draw):
    """(a, b) with a @ b defined, over 1-3 variables under lex or grevlex.

    Half the pairs compose to zero by construction: the rows of a are
    scalar multiples of one row (f_1, ..., f_r), and each column of b is
    h * (f_j e_i - f_i e_j).  Some of those have one entry of b perturbed by
    a term, so that the composite is (most likely) nonzero.  The other half
    have random entries.  Entry degrees reach across the first field width,
    and products of them further.
    """
    n = draw(st.integers(1, 3))
    ring = std_ring(n, draw(st.sampled_from(["grevlex", "lex"])))
    scale = draw(st.sampled_from([3, 100, 150]))
    r = draw(st.integers(1, 3))
    e_degrees = [draw(st.integers(1, scale)) for _ in range(r)]
    if draw(st.booleans()):
        f = [draw(homogeneous_poly(n, d)) for d in e_degrees]
        multipliers = draw(st.lists(COEFFICIENTS, min_size=1, max_size=3))
        a = PolyMatrix(
            FreeModuleSpec(ring, [[0]] * len(multipliers)),
            FreeModuleSpec(ring, [[d] for d in e_degrees]),
            [[p.scale(c) for p in f] for c in multipliers],
        )
        columns, d_degrees = [], []
        for i, j in itertools.combinations(range(r), 2):
            gap = draw(st.integers(0, scale))
            h = draw(homogeneous_poly(n, gap, 2))
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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pair=composable_pair(), order=st.sampled_from(ALL_ORDERS))
def test_product_kernel_matches_matmul(pair, order):
    a, b = pair
    expected = a @ b
    codec = _TermCodec(a.domain.ring, order, max(a.num_rows, b.num_rows), _largest_degree(a) + _largest_degree(b))
    packed_a, packed_b = codec.columns(a), codec.columns(b)
    product = codec.matrix(list(codec.product(packed_a, packed_b)), a.codomain, b.domain)
    assert typed_matrix(product) == typed_matrix(expected)
    assert (not any(codec.product(packed_a, packed_b))) == expected.is_zero
    assert (_nonzero_composite(*_packed_chain([a, b], order)) is None) == expected.is_zero


ENTRIES = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def constant_left_factor(draw, spec):
    """(C, codomain): an invertible ScalarMatrix that maps spec to codomain preserving degrees.

    Either a permutation, with codomain spec's basis permuted, or, within
    each degree of spec, L @ U for L unit lower triangular and U upper
    triangular with a nonzero diagonal, whose entries include zeros and
    Fractions, with codomain spec.
    """
    r, degrees = spec.rank, spec.basis_degrees
    if draw(st.booleans()):
        perm = draw(st.permutations(range(r)))
        rows = [[int(k == perm[i]) for k in range(r)] for i in range(r)]
        return ScalarMatrix(rows), FreeModuleSpec(spec.ring, [degrees[k] for k in perm])
    rows = [[0] * r for _ in range(r)]
    for d in dict.fromkeys(degrees):
        block = [k for k in range(r) if degrees[k] == d]
        size = len(block)
        lower = [[1 if p == q else draw(ENTRIES) if q < p else 0 for q in range(size)] for p in range(size)]
        upper = [[draw(COEFFICIENTS) if p == q else draw(ENTRIES) if q > p else 0 for q in range(size)] for p in range(size)]
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
    ech = Echelon(n + len(columns))
    for j, col in enumerate(columns):
        vec = {index[term]: coeff for term, coeff in col.support()}
        vec[n + j] = 1
        ech.add(vec)
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
    return PropagationResult(
        ScalarMatrix([[col.entries[t.index].terms.get(t.monomial, 0) for col in columns] for t in leads]),
        tuple(vector_add(ring.monomial_weight(t.monomial), weights[t.index]) for t in leads),
        rebased,
        lambda: change_of_basis,
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
