"""Groebner machinery for graded submodules of free modules.

Division with remainder, Buchberger's algorithm (optionally truncated at a
degree bound), reduced-basis normalization, minimal free resolutions (pruned
from a Schreyer frame: one Buchberger run, then one division per S-pair at
each level, then the frame's units cancelled), syzygies (the second
differential of that pruned frame), standard monomials and graded Nakayama
minimality checks.
`change_of_basis` solves G = M @ C as a linear system; propagation does
not use it, and the tests keep it as an independent check.  All
arithmetic is exact.  Coefficients are ints where they are integral (see
`rings`), so coefficients are divided with `exact_quotient`, never with
`/`, which would make a float of two ints.  Syzygy columns come out as
primitive integer vectors.

One engine, `_buchberger_run`, computes Groebner bases, minimality and the
first two levels of the frame behind resolutions and syzygies, and every
run queues only the S-pairs `_minimal_pairs` keeps.  Its run with unit
tails back-substitutes each degree it finishes, so its basis is reduced:
`buchberger` returns that basis, sorted and made monic, and the frame is
built on it (La Scala and Stillman, JSC 1998) and decides minimality from
its relations (see `schreyer._frame`).  The bounded run without tails
behind `is_minimal_map` reads graded Nakayama off: a vector is needed
exactly when it joins.  Vectors that all lie in one degree are decided
without a run, by the engine's one sparse elimination, `linalg.Echelon`
(see `_nakayama_kept`).  No monomial multiple of a vector is formed.

Division, Buchberger, the back-substitution and the search for standard
monomials run on packed terms (see `packed`): a module term is one int that
is its own order key, a product is one add and a divisibility test one
subtraction and one mask.  The boundary does not move: `Polynomial`,
`ModuleTerm`, `ModuleElement` and every public or printed value keep
exponent tuples.  Columns are packed once on entry,
every map by `_packed_chain` (a single map is a chain of one), and basis
elements are unpacked once on exit, differentials when first read.  The
search for standard monomials (`_standard_search`) carries each term's
torus weight as one int beside it, one signed slot per component in the
one slot layout, `linalg._Slots`, so graded components unpack no
standard monomial, and `standard_monomials` unpacks each once.  The
checks that maps compose to zero multiply packed columns too
(`_nonzero_composite`), by the one product kernel, the dict loop of
`packed._TermCodec.product`: the chain check reads each map's cells once
(`packed._Cells`) and packs each map once, by one codec for the whole
chain (`_packed_chain`), and `propagate_resolution` reuses those columns
for its minimality runs and its walk.  The chain check first sums each
composite formally over the maps' distinct entries up to a scalar
(`_entry_forms`, `_uncancelled`) and multiplies only the columns that do
not cancel so, and every column from the second that does not;
`schreyer._pruned`'s guard multiplies every column.  `minimal_resolution`
and `syzygies` pack their input once, keep the frame's levels in the keys
of `schreyer._FrameLayout` from the run on, and check the composites of
the pruned differentials, packed by one codec.  `minimal_resolution`'s
chain keeps that codec and those packed columns (see `_MinimalChain`),
which `propagate_resolution` walks under the chain's own order, or
re-keyed under another, and its differentials are unpacked when first read.

The field widths come from a bound the run proves.  Every variable's degree
has positive functional (see `rings`), so a term of degree d at an index of
basis degree b has total degree at most (functional(d) - functional(b)) /
(the least functional of a variable).  A Buchberger run starts from a codec
that holds its columns, and before it takes an item whose degree would
exceed its fields it widens them and repacks its columns, basis and
relations.
`normal_form` divides elements that need not be homogeneous, where no such
bound holds: it sizes the fields for its inputs' largest total degree, and
if a term outgrows them it widens them and divides again.

One routine, `packed._pseudo_divide`, does all division.  It reduces an
element dict and a tail dict, and every divisor carries its own tail
through the division: in the run and the levels of a Schreyer frame the
unit vector of the divisor's own basis element, in `normal_form` the
negated unit vector -e_k, which collects M times the quotient q_k.  When
the division ends the two dicts hold M * input - sum(q_k * (g_k |
tail_k)), so the remainder, the quotients and each relation over the
divisors (Moeller, Mora and Traverso, ISSAC 1992) are read straight off
them.  A run that needs leading terms alone, the one behind
`_nakayama_kept` and `propagate_graded_components`, gives its columns empty
tails, so its divisors carry none, and it only top-reduces each item: the
division stops at the first term that no leading term divides, which is
the leading term full reduction would leave.  So whether an item joins the
basis, and with what leading term, does not change, nor does any later
S-pair's degree; `normal_form` and the runs with unit tails, `buchberger`'s
among them, reduce fully.  Where the coefficient
to cancel and the divisor's leading coefficient are ints the division is
fraction-free, as `linalg.Echelon`'s top-reduction of sparse integer rows
is (Bareiss, Math. Comp. 1968).
Buchberger keeps its basis elements as primitive integer vectors with
positive leading coefficients, so on integer input its run makes no
fractions; each element and each relation is a
positive multiple of what a run with monic elements gives, so the supports,
the divisor choices and the outputs are the same.  `buchberger` divides
each element by its leading coefficient once, when it unpacks the basis.

Generators and S-pairs are processed in increasing order of the ring's
positive functional of their degrees, a linear form that is positive on
every variable's degree, so that multiplying by a monomial never lowers it
(ties go to the lexicographically smaller degree).  The same functional
bounds a truncated run, which therefore keeps everything a degree within the
bound depends on, and orders the queue monotonically even where a variable's
degree has a negative component sum.  Each queue item carries its degree, so
no element's degree is recomputed from its terms.
"""

import heapq
import itertools
import logging
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DependentColumnsError, InputError, MinimalityError
from .linalg import Echelon, _Slots, _primitive, solve
from .modules import (
    FreeModuleSpec,
    ModuleElement,
    ModuleTerm,
    ModuleTermOrder,
    PolyMatrix,
    ScalarMatrix,
    _column_rows,
)
from .packed import (
    _Cells,
    _FieldOverflow,
    _TermCodec,
    _divisor,
    _integral,
    _largest_degree,
    _pseudo_divide,
    _shifted_difference,
)
from .rings import (
    _int_vector,
    monomial_lcm,
    unit_monomial,
    vector_add,
    vector_sub,
)

log = logging.getLogger(__name__)

@dataclass
class DivisionResult:
    """Outcome of dividing an element by an ordered list of divisors.

    input = sum(quotients[k] * divisors[k]) + remainder, and no term of the
    remainder is divisible by any divisor's leading term.
    """

    quotients: list
    remainder: ModuleElement


def normal_form(element, divisors, order):
    """Divide element by the divisors, reducing the leading term first.

    At each step the first divisor (in list order) whose leading term divides
    the current leading term is used; irreducible leading terms move to the
    remainder.  Deterministic, and complete: no remainder term is divisible
    by any divisor's leading term.

    The division is `_pseudo_divide`'s, on packed terms and fraction-free on
    integer coefficients.  Divisor k carries the tail -e_k, so the tail the
    division leaves at index k is M * q_k; the quotients and the remainder
    are each divided once, exactly, by the multiplier M.  The inputs need
    not be homogeneous, so a division (under lex) can reach total degrees
    above all of theirs; the fields start at their largest total degree and
    are widened, and the division run again, when a term outgrows them.

    Raises InputError unless order is a ModuleTermOrder and every divisor
    is nonzero and lives in the element's module.
    """
    check_order(order)
    divisors = tuple(divisors)
    module = element.module
    for k, g in enumerate(divisors):
        if g.module is not module and g.module != module:
            raise InputError("divisor %d lives in another module than the element" % k)
        if g.is_zero:
            raise InputError("divisor %d is zero" % k)
    ring = module.ring
    unit = unit_monomial(ring.num_vars)
    bound = max((sum(t.monomial) for g in (element,) + divisors for t, _ in g.support()), default=0)
    codec = _TermCodec(ring, order, max(module.rank, len(divisors)), bound)
    while True:
        work, tail = codec.packed(element), {}
        tailed = [_divisor(codec.packed(g), {codec.term(unit, k): -1}) for k, g in enumerate(divisors)]
        try:
            multiplier = _pseudo_divide(work, tail, tailed, codec)
        except _FieldOverflow:
            codec = codec.widened(codec.capacity + 1)
            log.debug("normal form: widened exponent fields to %d bits", codec.bits)
            continue
        quotients = codec.entries(tail, len(divisors), multiplier)
        return DivisionResult(quotients, ModuleElement(module, codec.entries(work, module.rank, multiplier)))


@dataclass
class GroebnerBasis:
    """Reduced monic Groebner basis, elements sorted by increasing leading term.

    With a truncation bound, contains exactly the elements of the
    (reduced) basis whose degree does not exceed the bound under the
    ring's positive functional, the one order the Buchberger queue follows,
    not only those componentwise below it.
    """

    module: FreeModuleSpec
    order: object
    elements: tuple

    def leading_terms(self):
        return [g.leading_term(self.order)[0] for g in self.elements]


def _buchberger_run(codec, columns, degrees, module, bound, tails):
    """Core Buchberger loop on packed terms; returns (codec, columns, basis, records, joined).

    columns are packed dicts, packed by codec, of elements of module, column
    j of degree degrees[j]; the run copies them and leaves them as they are.
    codec has indices for module.  tails says whether the run carries unit
    tails (`buchberger` and the frame of `minimal_resolution` and
    `syzygies`) or none (`_nakayama_kept` and `propagate_graded_components`,
    which need leading terms alone).  Generators and S-pairs are processed
    in increasing order of the ring's positive functional of their degrees,
    ties broken by the degrees themselves (normal selection strategy);
    items whose functional exceeds the bound's are dropped.  joined holds
    one flag per column: whether it joined the basis.  Only the S-pairs
    `_minimal_pairs` keeps are queued, which still completes the basis.

    Within a degree the columns go, in index order, before the S-pairs with
    unit tails, as `resolve`'s output needs, and after them without.  A new
    element's S-pairs lie in strictly higher degrees, so in a run without
    tails, when column j's turn comes the basis is a Groebner basis, up to
    j's degree, of the submodule the columns before j generate, and column
    j joins exactly when it is not in that submodule: graded Nakayama's
    test of whether it is needed to generate (see `_nakayama_kept`).  Such
    a run only top-reduces each item (see `_pseudo_divide`): the division
    stops at the first popped term that no divisor's leading term divides.
    Up to there its steps are those of full reduction, so the item reduces
    to zero, or joins with that leading term, exactly as it would under
    full reduction by the same basis.  The element's lower terms may stay
    reducible, and a later S-pair of it then differs from full reduction's
    by an element of the submodule the basis generates; the leading terms
    the basis reaches in each degree, and so the S-pair degrees and the
    generators that join, depend only on that submodule.  With unit tails a
    redundant column may join, and the frame reads minimality off the
    relations (see `schreyer._frame`).

    With unit tails, element t of the basis carries the unit vector e_t over
    the basis as its divisor tail, and every item enters with an empty
    tail, so the division, a full one, leaves minus the quotients over the
    basis behind the remainder.  Each item gives a relation over the basis:
    its tail if it reduced to zero, its tail less content * e_t if it joined
    as element t (its remainder being content times the element).  An
    S-pair's relation is the one Schreyer's frame takes; a column's, with
    the multiplier M of its division, says how the column, times M, is made
    of the basis.  The codec's index field must then also hold the basis,
    and it is widened when the basis fills it.

    Before an item whose degree admits a larger total degree than the
    codec's fields hold is taken, the codec is widened and the columns, the
    basis and the records are repacked; codec is the last one, and
    everything returned is packed by it, the columns too.  An S-pair waits in
    the queue as two indices and an lcm tuple, a generator as its column's
    index.

    The run is fraction-free on integer columns.  basis lists the (work,
    tail) packed dicts of the elements in the order they were added, tail
    {e_t: 1} with unit tails and empty without:
    each element is a primitive integer vector with a positive leading
    coefficient, a positive multiple of the monic element a run with monic
    elements would add at that point: an item that joins is divided by its
    content (`linalg._primitive`) and negated if its leading coefficient is
    negative, which gives the signed content above.  The S-pair of elements
    with leading coefficients alpha and beta is (beta / g) * m_a * a -
    (alpha / g) * m_b * b, g = gcd(alpha, beta), taken on element and tail
    at once; the leading terms cancel, so it is formed from the divisor
    bodies.

    With unit tails, once the run has taken every item of a degree, it
    reduces that degree's elements by the later ones of the same degree
    (`_back_substitute`), the only reduction that its full divisions leave:
    the change of basis is constant and unitriangular within the degree,
    and every S-pair of a higher degree is formed from, and divided by, the
    reduced elements, so the finished basis is reduced, the basis
    `buchberger` returns.  A run without tails is not touched.

    records is empty without tails.  With unit tails it holds (relation,
    degree, payload, M, t) for every item taken, in the order taken: payload
    is the column index or the S-pair (i, t', lcm), M the division's
    multiplier and t the index the item joined the basis at, None if it
    reduced to zero; a zero column gives ({}, its degree, j, 1, None).  An
    item's relation is over the basis as the run held it then: each element
    of the item's degree before, and each of a lower degree after, its
    degree's back-substitution.  After a degree's items come its
    back-substitutions, the last element first, each (tail, degree, None,
    content, i) for an element i that changed: content * g'_i = tail . G,
    tail being M * e_i, e_i the element before, less the quotients of the
    later elements, which are reduced.
    """
    joined = [False] * len(columns)
    ring = codec.ring
    functional = ring._functional
    limit = functional(bound) if bound is not None else None
    # a term of an item of degree d at element index i has degree d, so its
    # monomial has degree d - deg e_i; with unit tails, at tail index t,
    # d - deg g_t, which is at least a column's degree
    base = min(map(functional, itertools.chain(module.basis_degrees, degrees)), default=0)
    step = min(functional(d) for d in ring.var_degrees)
    unit = unit_monomial(ring.num_vars)
    heap = []
    seq = itertools.count()
    records = []

    def push(degree, waits, payload):
        value = functional(degree)
        if limit is None or value <= limit:
            heapq.heappush(heap, (value, degree, waits, next(seq), payload))

    for j, (col, degree) in enumerate(zip(columns, degrees)):
        if col:
            push(degree, not tails, j)
        elif tails:
            records.append(({}, degree, j, 1, None))

    basis = []
    divisors = []
    leads = []
    start, degree = 0, None  # the first element of the degree being taken, and that degree

    while heap:
        if tails and heap[0][1] != degree:
            _back_substitute(codec, basis, divisors, records, start, degree)
            start = len(basis)
        # the largest total degree of a term of the next item; a run with
        # unit tails also needs an index for the element it may add
        needed = max(0, (heap[0][0] - base) // step)
        if needed > codec.capacity or (tails and len(basis) >= codec.indices):
            old, codec = codec, codec.widened(needed, 2 * len(basis) if tails else 0)
            if codec.bits > old.bits:
                log.debug("buchberger: widened exponent fields to %d bits for degree %s", codec.bits, heap[0][1])
            columns = [codec.repacked(old, c) for c in columns]
            basis = [(codec.repacked(old, w), codec.repacked(old, t)) for w, t in basis]
            divisors = [_divisor(w, t) for w, t in basis]
            records = [(codec.repacked(old, t), *rest) for t, *rest in records]
        _, degree, _, _, payload = heapq.heappop(heap)
        if type(payload) is int:
            work, tail = dict(columns[payload]), {}
        else:
            i, j, lcm_mono = payload
            work, tail = _s_pair(divisors[i], divisors[j], codec.term(lcm_mono, leads[j].index))
        multiplier = _pseudo_divide(work, tail if tails else None, divisors, codec)
        t = len(basis)
        if not work:
            if tails:
                records.append((tail, degree, payload, multiplier, None))
            continue
        if type(payload) is int:
            joined[payload] = True
        lead = max(work)
        work, content = _primitive(work)
        if work[lead] < 0:
            work = {s: -c for s, c in work.items()}
            content = -content
        if tails:
            # work is content times the new element, so the item's relation
            # is its tail less content times the element's unit
            own = codec.term(unit, t)
            tail[own] = -content
            records.append((tail, degree, payload, multiplier, t))
            tail = {own: 1}
        basis.append((work, tail))
        divisors.append(_divisor(work, tail))
        new = codec.unpack(lead)
        leads.append(new)
        log.debug("basis element %d with leading term %s", t, new)
        pairs = [(i, monomial_lcm(leads[i].monomial, new.monomial)) for i in range(t) if leads[i].index == new.index]
        # each lcm packed once; an exponent of an lcm of two leads is within
        # the capacity, and a grevlex sum within twice it, which its field
        # holds with its guard bit, so `divides` stays exact
        packed = [(n, codec.term(m, new.index)) for n, (_, m) in enumerate(pairs)]
        pairs = [pairs[n] for n, _ in _minimal_pairs(packed, codec.divides)]
        for i, lcm_mono in pairs:
            pair_degree = vector_add(ring.monomial_degree(lcm_mono), module.basis_degrees[new.index])
            push(pair_degree, False, (i, t, lcm_mono))

    if tails:
        _back_substitute(codec, basis, divisors, records, start, degree)
    return codec, columns, basis, records, joined


def _back_substitute(codec, basis, divisors, records, start, degree):
    """Reduce the run's elements of one degree, from start on, by the later ones; record each change.

    On a positive grading only a later element of the same degree can
    divide a term of an element, and only a term equal to its leading
    term, so each element needs one pass over its terms, the last element
    first: g_i is divided by the elements whose leading terms it holds,
    already reduced, which adds no such term.  A changed element is made
    primitive and its divisor rebuilt; its record (tail, degree, None,
    content, i) says content * g'_i = tail . G, tail being M * e_i less the
    quotients of the later elements, g_i the element before.
    """
    later = {}
    for i in range(len(basis) - 1, start - 1, -1):
        work, own = basis[i]
        hits = [divisors[later[t]] for t in work if t in later]
        later[divisors[i][0]] = i
        if hits:
            work, tail = dict(work), dict(own)
            _pseudo_divide(work, tail, hits, codec)
            work, content = _primitive(work)
            records.append((tail, degree, None, content, i))
            basis[i] = work, own
            divisors[i] = _divisor(work, own)


def _s_pair(a, b, lcm_term):
    """The S-pair of the `_pseudo_divide` divisors a and b at the packed term lcm_term, with its tail.

    With leading coefficients alpha and beta and g = gcd(alpha, beta), it is
    (beta / g) * m_a * a - (alpha / g) * m_b * b, on element and tail at
    once; the leading terms cancel, so it is formed from the bodies.
    """
    a_lead, alpha, a_body, a_tail = a
    b_lead, beta, b_body, b_tail = b
    g = gcd(alpha, beta)
    mx, my = lcm_term - a_lead, lcm_term - b_lead
    return (
        _shifted_difference(a_body, mx, beta // g, b_body, my, alpha // g),
        _shifted_difference(a_tail, mx, beta // g, b_tail, my, alpha // g),
    )


def _minimal_pairs(pairs, divides):
    """The pairs (i, lcm) whose lcm no other pair's lcm divides, the first of equal lcms kept.

    The pairs are those of one element with the elements i before it whose
    leading terms share its basis element, lcm the lcm of the two leading
    terms, and divides(a, b) tells whether lcm a divides lcm b.  In the
    order a Schreyer frame induces, ties going to the larger index, the
    relation of pair i has its leading term at the later element, times its
    lcm over that element's leading term.  A dropped pair's leading term is
    a multiple of a kept one's, and the difference of the two binomial
    relations of the leading terms is a relation among earlier elements, so
    the kept pairs' relations of the leading terms still generate all of
    them: the kept S-pairs complete a Groebner basis (Buchberger's
    criterion), and their relations are a Groebner basis of its syzygies
    (Schreyer's theorem; La Scala and Stillman, JSC 1998).  The argument
    reads only leading terms, so it holds for every run, with tails or
    without; the relation that drops a pair lies in the pair's degree or
    below, so a run that takes the degrees in turn, or stops at a bound,
    has taken what it needs when it needs it (Gebauer and Moeller, JSC
    1988).
    """
    return [
        (i, m)
        for n, (i, m) in enumerate(pairs)
        if not any(k != n and divides(o, m) and (k < n or o != m) for k, (_, o) in enumerate(pairs))
    ]


def check_order(order):
    """Raise InputError unless order is a ModuleTermOrder."""
    if not isinstance(order, ModuleTermOrder):
        raise InputError("order must be a ModuleTermOrder")


def buchberger(matrix, order, bound=None):
    """Reduced monic Groebner basis of the column span of a homogeneous matrix.

    Generators and S-pairs are processed in increasing order of the ring's
    positive functional of their degrees.  With a degree bound, S-pairs
    beyond the bound under that functional are never processed and only
    basis elements within it are returned (on a multigraded ring, not only
    those componentwise below it);
    the degree-d elements of a bounded run at bound d form a basis of the
    degree-d component of the column span.  The basis is that of the run
    with unit tails behind the Schreyer frame, which back-substitutes each
    degree it finishes and so leaves it reduced (see `_buchberger_run`);
    its primitive integer elements are sorted by leading term and each is
    divided once by its leading coefficient.  The elements are canonical:
    they do not depend on the column order or on invertible scalar mixing
    of equal-degree columns.
    Propagation along a map needs no run: in the columns' own degree the
    basis is a reduced echelon form.
    """
    check_order(order)
    ring = matrix.domain.ring
    if bound is not None:
        bound = _int_vector(bound, "degree bound", ring.degree_length)
    codec, (columns,) = _packed_chain([matrix], order)
    codec, _, basis, _, _ = _buchberger_run(codec, columns, matrix.domain.basis_degrees, matrix.codomain, bound, True)
    module = matrix.codomain
    works = sorted((work for work, _ in basis), key=max)
    elements = tuple(ModuleElement(module, codec.entries(work, module.rank, work[max(work)])) for work in works)
    return GroebnerBasis(module, order, elements)


def sort_gb_columns(basis):
    """Arrange the basis elements as matrix columns sorted by leading term.

    Strictly increasing under a position-up ordering of the basis, strictly
    decreasing under a position-down one.  Reducedness guarantees strictness.
    The elements of a `GroebnerBasis` already come sorted by increasing
    leading term, so they are taken as they are, or reversed.  Each column's
    degree is its element's leading-term degree.
    """
    elements = basis.elements if basis.order.is_position_up else basis.elements[::-1]
    degrees = [g.term_degree(g.leading_term(basis.order)[0]) for g in elements]
    domain = FreeModuleSpec._unchecked(basis.module.ring, degrees)
    return PolyMatrix._unchecked(basis.module, domain, _column_rows(elements, basis.module.rank))


def change_of_basis(matrix, sorted_basis_matrix):
    """The unique scalar C with sorted_basis_matrix = matrix @ C.

    Both matrices must have all columns in one common degree; the columns of
    `matrix` must be linearly independent (a minimal map restricted to a
    single degree), otherwise a MinimalityError is raised.
    """
    if matrix.codomain.basis_degrees != sorted_basis_matrix.codomain.basis_degrees:
        raise InputError("matrices do not share a codomain")
    degrees = set(matrix.domain.basis_degrees) | set(sorted_basis_matrix.domain.basis_degrees)
    if len(degrees) > 1:
        raise InputError("change of basis needs all columns in a single degree")
    m_cols = matrix.columns()
    g_cols = sorted_basis_matrix.columns()
    index = {term: i for i, term in enumerate(sorted({t for e in m_cols + g_cols for t, _ in e.support()}))}

    def rows(cols):
        dense = [[Fraction(0)] * len(cols) for _ in index]
        for j, col in enumerate(cols):
            for term, coeff in col.support():
                dense[index[term]][j] = coeff
        return dense

    try:
        x = solve(rows(m_cols), rows(g_cols))
    except DependentColumnsError as exc:
        raise MinimalityError("matrix columns are linearly dependent; map is not minimal") from exc
    return ScalarMatrix(x)


def enumerate_terms(module, degree, order=None):
    """All module terms of the given multidegree, in decreasing term order.

    Finiteness comes from the positivity of the grading.
    """
    if order is None:
        order = ModuleTermOrder("top-up")
    check_order(order)
    ring = module.ring
    degree = _int_vector(degree, "degree", ring.degree_length)
    terms = []
    for idx in range(module.rank):
        remaining = vector_sub(degree, module.basis_degrees[idx])
        for mono in ring.monomials_of_degree(remaining):
            terms.append(ModuleTerm(mono, idx))
    terms.sort(key=order.sort_key(ring), reverse=True)
    return terms


def standard_monomials(basis, degree):
    """Degree-d terms of the basis's module not divisible by any leading term.

    By Macaulay's basis theorem their residues form a basis of the degree-d
    component of the quotient by the submodule the basis generates.
    Returned in decreasing module term order.  The terms are found by
    `_standard_search`, whose codec holds the basis's largest leading term
    too, so a basis need not be bounded at d; each kept term is unpacked
    once.
    """
    module, order = basis.module, basis.order
    check_order(order)
    ring = module.ring
    degree = _int_vector(degree, "degree", ring.degree_length)
    zero = (0,) * ring.weight_length
    codec, terms, _ = _standard_search(module, order, basis.leading_terms(), degree, [zero] * module.rank)
    return [codec.unpack(t) for t in terms]


def _standard_search(module, order, lts, degree, weights):
    """(codec, the degree-d terms of module that no term of lts divides, their weights).

    lts are ModuleTerms of module, and weights holds one weight vector per
    basis element of module; a term's weight is its monomial's plus its
    basis element's.  The terms come packed by codec, in decreasing order,
    and their weights as tuples, in the same order, from a generator that
    reads each off when it is iterated.

    The search runs on packed terms (see `packed`), by one codec whose
    fields hold both the largest total degree of a degree-d term and the
    largest term of lts.  For each basis index whose degree lies within d
    under the ring's positive functional, a depth-first search over the
    variables adds one unit per exponent step to the partial term, whose
    later exponents are 0; the last exponent is the one that fills the
    degree, if any does.  A term of lts can first divide a partial term
    only at the step of its last variable, so it is tested there and
    nowhere else, and a constant one empties its index.  Exponents only
    grow along a branch, so a divisible partial term ends its exponent loop
    and the branch with it.

    Each partial term carries its weight as one int beside it, packed by
    `linalg._Slots`, one slot per component, so that adding two such ints
    adds the vectors: a branch starts at its index's weight and adds one
    packed variable weight per exponent step.  A slot holds the largest
    |variable weight component| times the codec's bound, or times 1 where
    the bound is 0 so that the packed variable weights fit too, plus the
    largest |index weight component|, which bounds every component a term
    of the search reaches, so no slot spills into the next.
    """
    ring = module.ring
    n, functional, degs = ring.num_vars, ring._functional, ring.var_degrees
    steps = [functional(d) for d in degs]
    rests = [vector_sub(degree, b) for b in module.basis_degrees]
    bound = max([0] + [functional(r) // min(steps) for r in rests] + [sum(t.monomial) for t in lts])
    codec = _TermCodec(ring, order, module.rank, bound)
    divmask, units, found = codec.divmask, [codec.unit(k) for k in range(n)], {}
    largest = max(map(abs, itertools.chain(*ring.var_weights)), default=0) * max(bound, 1)
    largest += max(map(abs, itertools.chain(*weights)), default=0)
    slots = _Slots(largest.bit_length(), ring.weight_length)
    moves = [slots.pack(w) for w in ring.var_weights]
    # tests[i][k]: the packed terms of lts at index i whose last variable
    # is k; a constant one sits at k = -1, the extra last slot
    tests = [[[] for _ in range(n + 1)] for _ in rests]
    for t in lts:
        last = max((k for k, e in enumerate(t.monomial) if e), default=-1)
        tests[t.index][last].append(codec.term(t.monomial, t.index))

    def divided(t, leads):
        for s in leads:
            if not (t - s) & divmask:
                return True
        return False

    def search(k, t, w, budget, rest, leads):
        if k == n - 1:
            e = budget // steps[k]
            t += e * units[k]
            if rest == tuple(e * x for x in degs[k]) and not divided(t, leads[k]):
                found[t] = w + e * moves[k]
            return
        while True:
            search(k + 1, t, w, budget, rest, leads)
            budget -= steps[k]
            if budget < 0:
                return
            t += units[k]
            w += moves[k]
            rest = vector_sub(rest, degs[k])
            if divided(t, leads[k]):
                return

    for i, (rest, leads) in enumerate(zip(rests, tests)):
        budget = functional(rest)
        if budget >= 0 and not leads[-1]:
            search(0, codec.term(unit_monomial(n), i), slots.pack(weights[i]), budget, rest, leads)
    terms = sorted(found, reverse=True)
    return codec, terms, (slots.unpack(found[t]) for t in terms)


def _nakayama_kept(codec, module, vectors, degrees):
    """Graded Nakayama selection: one keep-flag per homogeneous vector.

    vectors are packed dicts, packed by codec, of elements of module, vector
    i of degree degrees[i]; vectors in one degree may come in other
    coordinates (see below).  Taken in increasing order of the ring's
    positive functional of their degrees (ties by degree), then in index
    order, a vector is kept iff it is not in the submodule the vectors
    before it generate.  The kept vectors minimally generate the submodule
    all the vectors generate: in each degree d, a degree-d vector is kept
    iff it is independent modulo the positive-degree monomial multiples of
    the vectors that land in degree d plus the kept degree-d vectors before
    it.

    The flags are the "joined the basis" flags of one Buchberger run
    without tails, bounded at the largest degree, which takes the S-pairs
    of each degree before its generators and top-reduces each item (see
    `_buchberger_run`).  No monomial multiple of a vector is formed.

    Vectors in one degree d (or none) need no run: no positive-degree
    monomial multiple of a vector lands in d, so a vector is kept iff it is
    linearly independent of the vectors before it.  One `linalg.Echelon`
    decides that, keeping a vector iff adding it enlarges the span, which
    is the run's flag there, in any coordinates that an injective linear
    map takes to the vectors; its rows key them by first appearance.
    `propagate_resolution` hands such a map whose entries are independent
    up to a scalar in one coordinate per nonzero cell (see
    `propagate._check_minimal`); every other caller hands packed columns.
    """
    if len(set(degrees)) <= 1:
        index = {t: i for i, t in enumerate(dict.fromkeys(t for v in vectors for t in v))}
        ech = Echelon()
        return [ech.add({index[t]: x for t, x in v.items()}) for v in vectors]
    functional = codec.ring._functional
    bound = max(degrees, key=lambda d: (functional(d), d))
    return _buchberger_run(codec, vectors, degrees, module, bound, False)[4]


def is_minimal_map(matrix):
    """Whether the columns minimally generate the image.

    Graded Nakayama: for each degree d occurring among the column degrees,
    the degree-d columns must stay linearly independent modulo the degree-d
    part of (irrelevant ideal) * image.  Decided by `_nakayama_kept` on the
    packed columns, under top-up, by a bounded run or, for columns in one
    degree, by one elimination; the flags do not depend on the order, so
    `propagate` and `propagate_resolution` run it on the columns they packed
    under theirs.  `syzygies` and `minimal_resolution` read the answer off
    their frame's run instead (see `schreyer._frame`).
    """
    codec, (columns,) = _packed_chain([matrix], ModuleTermOrder())
    return all(_nakayama_kept(codec, matrix.codomain, columns, matrix.domain.basis_degrees))


def syzygies(matrix, order):
    """A minimal generating set for the syzygies of the matrix columns.

    Read off the pruned Schreyer frame that `minimal_resolution` builds
    (see `schreyer`) over every column of M = matrix.  A column c_j that
    the frame's run reduces to zero gives s * c_j = v_j . G for a positive
    integer s and its Groebner basis G, and so the relation s * e_j - v_j,
    with v_j written over the input columns as the frame's second
    differential is; no other relation has a term at e_j, so it is needed.
    A redundant column that joins G instead stays a row of the frame, and
    pruning the frame's third differential drops the relations that the
    others generate, so the pruned second differential and these relations
    together generate the syzygies minimally.  On a minimal map no column
    reduces to zero, and the result is exactly `minimal_resolution(matrix,
    order, max_length=2)`'s second differential, or a zero-column matrix
    where the resolution has none.  Where every column is zero (so also
    where the map has no rows) each relation is e_j, and the frame gives
    the identity.

    Every column is a primitive integer vector (integer coefficients with
    gcd 1).  The claim matrix @ S = 0 is checked once, on packed columns,
    before S is unpacked; an InternalError says it failed.
    """
    check_order(order)
    codec, (columns,) = _packed_chain([matrix], order)
    from .schreyer import _frame, _pruned

    _, _, differentials = _pruned(_frame(codec, columns, matrix), matrix, 2)
    if len(differentials) == 2:
        return differentials[1]
    return codec.matrix([], matrix.domain, FreeModuleSpec(codec.ring, []))


def _packed_chain(differentials, order):
    """`_chain_codec` for a nonempty chain of maps, and each map's packed columns."""
    cells = list(map(_Cells, differentials))
    codec = _chain_codec(differentials, order, cells)
    return codec, list(map(codec.columns, cells))


def _chain_codec(differentials, order, cells):
    """One codec under order for a nonempty chain of maps, sized from their `_Cells`.

    Its fields hold a product of neighbours, its index field any map's transpose.
    """
    degrees = list(map(_largest_degree, cells))
    bound = max(map(operator.add, degrees, degrees[1:]), default=degrees[0])
    indices = max(max(d.num_rows, d.num_cols) for d in differentials)
    return _TermCodec(differentials[0].domain.ring, order, indices, bound)


def _nonzero_composite(codec, packed, kept=None):
    """The first k with packed[k] @ packed[k + 1] nonzero, or None.

    packed are the packed columns, by codec, of maps that chain, and codec
    holds the total degree of every consecutive product.  Each composite is
    multiplied by `_TermCodec.product` until its first nonzero column.
    kept, where given, lists for each k the columns of packed[k + 1] to
    multiply, the others' products being known to vanish; a composite with
    none kept multiplies nothing.
    """
    for k in range(len(packed) - 1):
        b = packed[k + 1] if kept is None else [packed[k + 1][j] for j in kept[k]]
        if b and any(codec.product(packed[k], b)):
            return k
    return None


def _entry_forms(cells):
    """The maps' entries numbered up to a scalar, from their `_Cells`: (forms, polynomials).

    forms[m] lists map m's columns as lists of (row, p, scalar): the entry
    there is scalar times polynomials[p], a terms dict.  The numbered
    polynomials are primitive integer ones with a positive coefficient at
    their largest exponent tuple, numbered as the maps, and their rows,
    first meet them, so entries equal up to a scalar share a number however
    they are written.  Each distinct entry object is normalised once.
    """
    numbers, seen, polynomials, forms = {}, {}, [], []
    for c in cells:
        numbered = []
        for p in c.entries:
            form = seen.get(id(p))
            if form is None:
                if len(p.terms) == 1:
                    # a term is its coefficient times its monomial, keyed by itself
                    ((key, scalar),) = p.terms.items()
                    terms = {key: 1}
                else:
                    terms, scalar = _primitive(p.terms)
                    if terms[max(terms)] < 0:
                        terms, scalar = {m: -x for m, x in terms.items()}, -scalar
                    key = frozenset(terms.items())
                number = numbers.setdefault(key, len(numbers))
                if number == len(polynomials):
                    polynomials.append(terms)
                form = seen[id(p)] = number, scalar
            numbered.append(form)
        forms.append([[(i, *numbered[k]) for i, k in col] for col in c.columns])
    return forms, polynomials


def _uncancelled(a, b):
    """The columns j of A @ B to multiply, from A's and B's `_entry_forms`.

    Entry (r, j) of A @ B is the sum of c * p * q over the unordered pairs
    {p, q} of numbered polynomials, where c adds up x * y over the k with
    A[r][k] = x * p and B[k][j] = y * q, or p and q swapped.  A column whose
    every such c is 0 is zero; any other may still be, and is multiplied.
    The formal sums stop at the second column that does not cancel: a
    composite that two columns fail to cancel so vanishes, if it does, as
    polynomials, and every column from there on is multiplied.
    """
    kept = []
    for j, col in enumerate(b):
        formal = {}
        for k, q, y in col:
            for r, p, x in a[k]:
                key = (r, p, q) if p < q else (r, q, p)
                formal[key] = formal.get(key, 0) + x * y
        if any(formal.values()):
            if kept:
                return kept + list(range(j, len(b)))
            kept.append(j)
    return kept


def _checked_chain(differentials, order):
    """`check_chain` under order: `_chain_codec`'s codec, each map packed or as cells, and `_entry_forms`' output.

    The differentials must be nonempty.  The shapes are checked before
    anything is read, so a chain over several rings fails there.  Each
    map's cells are read once (`_Cells`) and numbered.  Each composite is
    first summed formally over its distinct entries up to a scalar
    (`_uncancelled`), and only the columns that do not cancel so, and
    every column from the second of them on, are multiplied out, in full;
    an explicit Koszul-type complex, whose composites cancel as f_a * f_b -
    f_b * f_a, multiplies none, and packs no map: only maps multiplied are
    packed, and every other is returned as its cells.
    """
    for k in range(1, len(differentials)):
        previous, d = differentials[k - 1].domain, differentials[k].codomain
        if d.basis_degrees != previous.basis_degrees or d.ring != previous.ring:
            raise InputError("chain-shape mismatch between differentials %d and %d" % (k, k + 1))
    cells = list(map(_Cells, differentials))
    codec = _chain_codec(differentials, order, cells)
    forms, polynomials = _entry_forms(cells)
    kept = list(map(_uncancelled, forms, forms[1:]))
    read = [any(kept[max(i - 1, 0):i + 1]) for i in range(len(cells))]
    packed = [codec.columns(c) if r else c for c, r in zip(cells, read)]
    # A @ B = 0 exactly when sA @ tB = 0, so a map that a composite
    # multiplies is tested on ints; the walk gets the columns as they are
    k = _nonzero_composite(codec, [_integral(c)[0] if r else c for c, r in zip(packed, read)], kept)
    if k is not None:
        raise InputError("differentials %d and %d do not compose to zero" % (k + 1, k + 2))
    return codec, packed, forms, polynomials


def check_chain(differentials):
    """Raise InputError unless the differentials form a complex.

    Each differential after the first must map into the domain of the one
    before it, and consecutive composites must vanish.  A composite's
    columns are first summed formally over the maps' distinct entries up to
    a scalar, and a column that cancels so is zero; the first column that
    does not, and every column from the second on, is multiplied out on
    packed terms, each map packed once and scaled to integers (see
    `_checked_chain` and `_nonzero_composite`), not as PolyMatrix products.
    Any order serves a zero test, and top-up is used.
    `propagate_resolution` runs the same checks under its own order and
    keeps the packed columns, unscaled, or cells, and the numbered entries
    for its minimality checks and its walk.  Messages number the
    differentials from 1.
    """
    if differentials:
        _checked_chain(differentials, ModuleTermOrder())


class _MinimalChain(tuple):
    """Differentials that `minimal_resolution` proved to be a minimal chain, with their packed columns.

    Only `minimal_resolution` builds one, after its input passed the
    graded Nakayama test, every consecutive composite of the pruned frame
    was checked to vanish, and no differential after the first was left
    with a constant entry: the maps chain, consecutive composites vanish
    and every map is minimal.  The tuple is immutable and so, by convention, is
    each PolyMatrix, so the proof cannot go stale; `propagate_resolution`
    trusts it.  Copies, slices and concatenations are plain tuples or lists
    and carry no proof.

    codec and packed are the codec and the packed columns of each map that
    the proof ran on (None and () for the empty chain).  Like
    `_packed_chain`'s, codec's fields hold every consecutive product and its
    index field the largest module rank, so `propagate_resolution` walks
    those columns under codec's order without packing anything, and under
    another order re-keys them into a codec of the same fields.  They are
    immutable by convention too: the walk reads them and never changes them.
    """

    def __new__(cls, maps=(), codec=None, packed=()):
        chain = super().__new__(cls, maps)
        chain.codec, chain.packed = codec, tuple(packed)
        return chain


class Resolution:
    """Minimal free resolution: base module and the chain of differentials.

    Holds the output of `minimal_resolution`: differentials[0] maps
    F_1 -> F_0, consecutive composites vanish and every differential is
    minimal, which `minimal_resolution` checked before it returned them.  The
    constructor checks nothing.  `propagate_resolution` takes a Resolution or
    its differentials and trusts the chain only when it is the tuple
    `minimal_resolution` built, which also carries the chain packed, so that
    a walk under the resolution's order starts from those packed columns
    and its differentials from d_2 on are unpacked only when first read; it
    checks any other chain in full, also one inside a Resolution built by
    hand.
    """

    def __init__(self, base_module, differentials):
        self.base_module = base_module
        if type(differentials) is not _MinimalChain:
            differentials = tuple(differentials)
        self.differentials = differentials

    @property
    def length(self):
        return len(self.differentials)

    @property
    def modules(self):
        return [self.base_module] + [d.domain for d in self.differentials]

    @property
    def ranks(self):
        return [m.rank for m in self.modules]


def minimal_resolution(matrix, order, max_length=None):
    """Minimal free resolution of the cokernel of a minimal presentation.

    The resolution is pruned from a Schreyer frame (see `schreyer`): one
    Buchberger run with unit tails gives the Groebner basis G of the image
    and the relations of its S-pairs, and each further level costs one
    division per S-pair.  The frame is a free resolution of the cokernel,
    through G, but not a minimal one; `schreyer._pruned` cancels its units
    and writes the second differential over the input columns, so that the
    first differential is the input itself.  The input must be a minimal
    map, which the frame's run decides before any level beyond 2 is built
    (see `schreyer._frame`), or `_nakayama_kept` where max_length is 1 and
    no frame is built; a zero-column presentation resolves a free module
    and gives a length-zero resolution, and one with columns into the
    rank-zero module is not minimal.  max_length, when given, must be an
    integer of at least 1, and at most max_length differentials are
    returned; the frame is then built only one level beyond them.

    The differentials come as a `_MinimalChain`: the input passed the
    minimality test, each consecutive composite was checked to vanish
    on packed columns, and no differential after the first has a nonzero
    constant entry, which, since the pruned frame stays exact, makes every
    map minimal.  So `propagate_resolution` does not prove the chain or its
    minimality again.  The chain keeps those packed columns and their codec,
    on which `propagate_resolution` walks it under order, with no packing;
    the differentials from d_2 on are PolyMatrices whose entries are
    unpacked from them when first read.
    """
    check_order(order)
    if max_length is not None:
        try:
            max_length = operator.index(max_length)
        except TypeError:
            raise InputError("max_length must be an integer, got %r" % (max_length,)) from None
        if max_length < 1:
            raise InputError("max_length must be at least 1, got %r" % (max_length,))
    codec, (columns,) = _packed_chain([matrix], order)
    if matrix.num_cols == 0:
        return Resolution(matrix.codomain, _MinimalChain())
    if max_length == 1:
        if not all(_nakayama_kept(codec, matrix.codomain, columns, matrix.domain.basis_degrees)):
            raise MinimalityError("presentation matrix is not a minimal map")
        return Resolution(matrix.codomain, _MinimalChain([matrix], codec, [columns]))
    # only resolutions need the frame: a process that never resolves does
    # not load its module
    from .schreyer import _frame, _pruned

    frame = _frame(codec, columns, matrix)
    if not frame.minimal:
        raise MinimalityError("presentation matrix is not a minimal map")
    codec, packed, maps = _pruned(frame, matrix, max_length)
    return Resolution(matrix.codomain, _MinimalChain(maps, codec, packed))
