"""Groebner machinery for graded submodules of free modules.

Division with remainder, Buchberger's algorithm (optionally truncated at a
degree bound), reduced-basis normalization, Schreyer syzygies (read off the
relations that the zero reductions of one Buchberger run leave behind),
minimal free resolutions, standard monomials and Nakayama-style minimality
checks.  `change_of_basis` solves G = M @ C as a linear system; propagation
does not use it, and the tests keep it as an independent check.  All
arithmetic is exact.  Coefficients are ints where they are integral (see
`rings`), so coefficients are divided with `exact_quotient`, never with
`/`, which would make a float of two ints.  Syzygy columns come out as
primitive integer vectors.

One routine, `_pseudo_divide`, does all division.  It reduces one mutable
{ModuleTerm: coefficient} dict that holds the element at the indices below
the module's rank and a tail at the indices from the rank on, and every
divisor carries its own tail through the division: in Buchberger the tail is
the cofactor over the input columns, in `normal_form` the negated unit
vector -e_k, which collects M times the quotient q_k.  When the division
ends the dict is M * input - sum(q_k * (g_k | tail_k)), so the remainder,
the quotients, each relation (Moeller, Mora and Traverso, ISSAC 1992) and
each new element's cofactor are read straight off it.  Division pops each
leading term off a sorted list instead of searching for it, and every
ModuleElement caches its leading term per module term order, so a divisor's
leading term is found once, not once per division.  Where the coefficient to
cancel and the divisor's leading coefficient are ints it pseudo-divides: it
multiplies the work by the divisor's leading coefficient over their gcd
instead of dividing by it, as fraction-free elimination does (Bareiss,
Math. Comp. 1968; `linalg.Echelon` works the same way on vectors).  Buchberger
keeps its basis elements as primitive integer vectors with positive leading
coefficients, so on integer input its run makes no fractions; each element
and each relation is a positive multiple of what a run with monic elements
gives, so the supports, the divisor choices and the outputs are the same.
`buchberger` makes the basis monic once, before inter-reducing it.

Generators and S-pairs are processed in increasing order of the ring's
positive functional of their degrees, a linear form that is positive on
every variable's degree, so that multiplying by a monomial never lowers it
(ties go to the lexicographically smaller degree).  The same functional
bounds a truncated run, which therefore keeps everything a degree within the
bound depends on, and orders the queue monotonically even where a variable's
degree has a negative component sum.  Each queue item carries its degree, so
no element's degree is recomputed from its terms.
"""

import bisect
import heapq
import itertools
import logging
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DependentColumnsError, InputError, InternalError, MinimalityError
from .linalg import Echelon, _quotient, solve
from .modules import (
    FreeModuleSpec,
    ModuleElement,
    ModuleTerm,
    ModuleTermOrder,
    PolyMatrix,
    ScalarMatrix,
    _column_rows,
)
from .rings import (
    Polynomial,
    _int_vector,
    exact_quotient,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    unit_monomial,
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


def _term_divides(a, b):
    return a.index == b.index and monomial_divides(a.monomial, b.monomial)


def _pseudo_divide(work, divisors, order, module):
    """Fraction-free division of the {ModuleTerm: coefficient} dict work, in place.

    Terms at indices below module.rank form the element to divide; terms at
    module.rank and above form its tail.  Each divisor is a pair (g_k,
    body_k): g_k a nonzero element of module, and body_k the (monomial,
    index, coefficient) triples of every term of g_k | tail_k but g_k's
    leading term, tail_k again at module.rank and above.  Returns a positive
    int M; work then is M * input - sum(q_k * (g_k | tail_k)), where q_k are
    the quotients of the division scaled by M.  Its terms below module.rank
    are M times the remainder, and its tail is M times the input's tail
    minus the quotient-weighted tails of the divisors.

    At each step the first divisor (in list order) whose leading term
    divides the current leading term is used; irreducible leading terms stay
    in work as remainder terms.  When the current coefficient c and the
    divisor's leading coefficient a are both ints, the step is a
    pseudo-division: with g = gcd(a, c), the whole of work is multiplied by
    |a| / g and sign(a) * c / g times the divisor is subtracted, so no
    fraction arises.  Otherwise it subtracts c / a times the divisor and M
    stays.  Scaling changes no term's support, so the steps, and the
    quotients and remainder up to the positive factor M, are those of plain
    division.

    The element's terms wait in a list sorted by the order's key, so the
    leading term is popped, not searched for; tail terms never lead.  A
    reduction step only adds terms below the one it cancels, so a popped
    term never comes back; a term that cancels to zero leaves the dict and
    its stale list entry is skipped.  Each divisor's leading term comes from
    its element's cache.
    """
    key = order.sort_key(module.ring)
    rank = module.rank
    leads = [g.leading_term(order) for g, _ in divisors]
    pending = sorted((key(term), term) for term in work if term.index < rank)
    multiplier = 1
    while pending:
        term = pending.pop()[1]
        coeff = work.get(term)
        if coeff is None:
            continue
        for k, (g_term, g_coeff) in enumerate(leads):
            if _term_divides(g_term, term):
                del work[term]
                if type(coeff) is int and type(g_coeff) is int:
                    g = gcd(g_coeff, coeff)
                    q_coeff = coeff // g if g_coeff > 0 else -(coeff // g)
                    factor = abs(g_coeff) // g
                    if factor != 1:
                        multiplier *= factor
                        for t, c in work.items():
                            work[t] = c * factor
                else:
                    q_coeff = exact_quotient(coeff, g_coeff)
                q_mono = monomial_div(term.monomial, g_term.monomial)
                for mono, index, c in divisors[k][1]:
                    t = ModuleTerm(monomial_mul(mono, q_mono), index)
                    value = work.get(t, 0) - c * q_coeff
                    if value:
                        if t not in work and index < rank:
                            bisect.insort(pending, (key(t), t))
                        work[t] = value
                    else:
                        del work[t]
                break
    return multiplier


def _divisor(element, order, tail=()):
    """element as a `_pseudo_divide` divisor: (element, body).

    body lists (monomial, index, coefficient) for each term of element but
    its leading term, then the triples of tail.
    """
    lead = element.leading_term(order)[0]
    body = [(t.monomial, t.index, c) for t, c in element.support() if t != lead]
    body.extend(tail)
    return element, body


def _polynomials(terms, size, scalar=1):
    """The {ModuleTerm: coefficient} dict terms divided by scalar, as one Polynomial per index below size."""
    entries = [{} for _ in range(size)]
    for t, c in terms.items():
        entries[t.index][t.monomial] = c if scalar == 1 else exact_quotient(c, scalar)
    return [Polynomial._from_exact(e) for e in entries]


def normal_form(element, divisors, order):
    """Divide element by the divisors, reducing the leading term first.

    At each step the first divisor (in list order) whose leading term divides
    the current leading term is used; irreducible leading terms move to the
    remainder.  Deterministic, and complete: no remainder term is divisible
    by any divisor's leading term.

    The division is `_pseudo_divide`'s, fraction-free on integer
    coefficients.  Divisor k carries the tail -e_k, so the tail the division
    leaves at index k is M * q_k; the quotients and the remainder are each
    divided once, exactly, by the multiplier M.

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
    rank = module.rank
    unit = unit_monomial(module.ring.num_vars)
    work = dict(element.support())
    tailed = [_divisor(g, order, [(unit, rank + k, -1)]) for k, g in enumerate(divisors)]
    entries = _polynomials(work, rank + len(divisors), _pseudo_divide(work, tailed, order, module))
    return DivisionResult(entries[rank:], ModuleElement(module, entries[:rank]))


@dataclass
class GroebnerBasis:
    """Reduced monic Groebner basis, elements sorted by increasing leading term.

    With a truncation bound, contains exactly the elements of the
    (inter-reduced) basis whose degree does not exceed the bound under the
    ring's positive functional, the one order the Buchberger queue follows,
    not only those componentwise below it.
    """

    module: FreeModuleSpec
    order: object
    elements: tuple

    def leading_terms(self):
        return [g.leading_term(self.order)[0] for g in self.elements]


class _Tracked:
    """Basis element together with its cofactor over the original generators.

    The element is a primitive integer vector (integer coefficients with gcd
    1) with a positive leading coefficient, and columns @ cofactor equals
    it; the cofactor may have non-integer coefficients.
    """

    __slots__ = ("element", "cofactor")

    def __init__(self, element, cofactor):
        self.element = element
        self.cofactor = cofactor


def _shifted_difference(x, mx, cx, y, my, cy):
    """cx * mx * x - cy * my * y for divisor bodies x and y, as a {ModuleTerm: coefficient} dict."""
    out = {}
    for mono, i, c in x:
        out[ModuleTerm(monomial_mul(mono, mx), i)] = cx * c
    for mono, i, c in y:
        t = ModuleTerm(monomial_mul(mono, my), i)
        value = out.get(t, 0) - cy * c
        if value:
            out[t] = value
        else:
            del out[t]
    return out


def _content(element):
    """gcd(n_i) / lcm(d_i) over the nonzero coefficients n_i / d_i (in lowest terms).

    A positive rational; element / content is a primitive integer vector.
    """
    coefficients = [c for p in element.entries for c in p.terms.values()]
    return _quotient(gcd(*(c.numerator for c in coefficients)), lcm(*(c.denominator for c in coefficients)))


def _divided(element, scalar):
    """element / scalar, exactly."""
    if scalar == 1:
        return element
    entries = [{m: exact_quotient(c, scalar) for m, c in p.terms.items()} for p in element.entries]
    return ModuleElement(element.module, [Polynomial._from_exact(e) for e in entries])


def _buchberger_tracked(columns, cofactor_module, order, bound):
    """Core Buchberger loop; returns (basis, reductions).

    Column j has degree cofactor_module.basis_degrees[j].  Generators and
    S-pairs are processed in increasing order of the ring's positive
    functional of their degrees, ties broken by the degrees themselves
    (normal selection strategy); items whose functional exceeds the bound's
    are dropped.

    Every item is divided together with its cofactor over the columns, as a
    tail at the indices from the columns' rank on: column j enters as
    col_j | e_j, and each basis element carries its own cofactor as its
    divisor tail.  The division therefore leaves M * cofactor -
    sum(q_k * cofactor_k) behind the remainder: the relation of a zero
    reduction, or the cofactor of a new basis element.

    The run is fraction-free on integer columns.  basis lists the _Tracked
    elements in the order they were added, not yet inter-reduced: each is a
    primitive integer vector with a positive leading coefficient, a positive
    multiple of the monic element a run with monic elements would add at
    that point.  The S-pair of elements with leading coefficients alpha and
    beta is (beta / g) * m_a * a - (alpha / g) * m_b * b, g = gcd(alpha,
    beta), taken on element and cofactor at once; the leading terms cancel,
    so it is formed from the divisor bodies.

    reductions holds (relation, degree) for every generator or S-pair of
    that degree that reduced to zero, the relation being the tail the
    division left, and (e_j, degree of column j) for a zero column j.  Each
    relation is a syzygy of the columns in that degree, a positive multiple
    of the monic run's relation.  Without a bound these relations generate
    all syzygies.
    """
    ring = cofactor_module.ring
    functional = ring._functional
    limit = functional(bound) if bound is not None else None
    module = columns[0].module if columns else None
    rank = module.rank if columns else 0
    size = rank + cofactor_module.rank
    unit = unit_monomial(ring.num_vars)

    heap = []
    seq = itertools.count()
    reductions = []

    def push(degree, payload):
        value = functional(degree)
        if limit is None or value <= limit:
            heapq.heappush(heap, (value, degree, next(seq), payload))

    for j, (col, degree) in enumerate(zip(columns, cofactor_module.basis_degrees)):
        work = dict(col.support())
        work[ModuleTerm(unit, rank + j)] = 1
        if col.is_zero:
            reductions.append((ModuleElement(cofactor_module, _polynomials(work, size)[rank:]), degree))
        else:
            push(degree, ("gen", work))

    basis = []
    divisors = []

    def s_pair(i, j):
        (a, a_body), (b, b_body) = divisors[i], divisors[j]
        a_term, alpha = a.leading_term(order)
        b_term, beta = b.leading_term(order)
        lcm_mono = monomial_lcm(a_term.monomial, b_term.monomial)
        g = gcd(alpha, beta)
        return _shifted_difference(
            a_body, monomial_div(lcm_mono, a_term.monomial), beta // g,
            b_body, monomial_div(lcm_mono, b_term.monomial), alpha // g,
        )

    while heap:
        _, degree, _, payload = heapq.heappop(heap)
        work = payload[1] if payload[0] == "gen" else s_pair(payload[1], payload[2])
        _pseudo_divide(work, divisors, order, module)
        entries = _polynomials(work, size)
        remainder = ModuleElement(module, entries[:rank])
        if remainder.is_zero:
            reductions.append((ModuleElement(cofactor_module, entries[rank:]), degree))
            continue
        lead, lead_coeff = remainder.leading_term(order)
        content = _content(remainder)
        if lead_coeff < 0:
            content = -content
        if content != 1:
            work = {t: exact_quotient(c, content) for t, c in work.items()}
            entries = _polynomials(work, size)
        new = _Tracked(ModuleElement(module, entries[:rank]), ModuleElement(cofactor_module, entries[rank:]))
        t = len(basis)
        basis.append(new)
        divisors.append((new.element, [(term.monomial, term.index, c) for term, c in work.items() if term != lead]))
        log.debug("basis element %d with leading term %s", t, lead)
        for i in range(t):
            other = basis[i].element.leading_term(order)[0]
            if other.index == lead.index:
                lcm_mono = monomial_lcm(other.monomial, lead.monomial)
                push(new.element.term_degree(ModuleTerm(lcm_mono, lead.index)), ("pair", i, t))

    return basis, reductions


def _reduce_basis(elements, order):
    """Inter-reduce monic elements: drop redundant leading terms, reduce tails.

    Returns the reduced basis sorted by increasing leading term.  Reducing
    a tail does not change its leading term, so the sort is done once.
    """
    if not elements:
        return []
    module = elements[0].module
    term_key = order.sort_key(module.ring)
    leads = sorted(((g.leading_term(order)[0], g) for g in elements), key=lambda pair: term_key(pair[0]))
    kept = []
    for lead, g in leads:
        if not any(_term_divides(other, lead) for other, _ in kept):
            kept.append((lead, g))
    kept = [_divisor(g, order) for _, g in kept]
    reduced = []
    for pos, (g, _) in enumerate(kept):
        work = dict(g.support())
        multiplier = _pseudo_divide(work, kept[:pos] + kept[pos + 1:], order, module)
        reduced.append(ModuleElement(module, _polynomials(work, module.rank, multiplier)))
    return reduced


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
    degree-d component of the column span.  The run keeps primitive integer
    elements; they are made monic once, before the inter-reduction.  The
    elements are canonical: they do not depend on the column order or on
    invertible scalar mixing of equal-degree columns.  Propagation along a
    map needs no run: in the columns' own degree the basis is a reduced
    echelon form.
    """
    check_order(order)
    ring = matrix.domain.ring
    if bound is not None:
        bound = _int_vector(bound, "degree bound", ring.degree_length)
    cof_module = FreeModuleSpec(ring, matrix.domain.basis_degrees)
    basis, _ = _buchberger_tracked(matrix.columns(), cof_module, order, bound)
    monic = [_divided(item.element, item.element.leading_term(order)[1]) for item in basis]
    elements = _reduce_basis(monic, order)
    return GroebnerBasis(matrix.codomain, order, tuple(elements))


def sort_gb_columns(basis):
    """Arrange the basis elements as matrix columns sorted by leading term.

    Strictly increasing under a position-up ordering of the basis, strictly
    decreasing under a position-down one.  Reducedness guarantees strictness.
    Each column's degree is its element's leading-term degree.
    """
    ring = basis.module.ring
    term_key = basis.order.sort_key(ring)
    elements = sorted(
        basis.elements, key=lambda g: term_key(g.leading_term(basis.order)[0]),
        reverse=not basis.order.is_position_up,
    )
    domain = FreeModuleSpec(ring, [g.term_degree(g.leading_term(basis.order)[0]) for g in elements])
    return PolyMatrix._unchecked(basis.module, domain, _column_rows(elements, basis.module.rank))


def _coordinate_index(elements):
    terms = set()
    for e in elements:
        for term, _ in e.support():
            terms.add(term)
    return {term: i for i, term in enumerate(sorted(terms))}


def _coordinates(element, index):
    vec = [Fraction(0)] * len(index)
    for term, coeff in element.support():
        vec[index[term]] = coeff
    return vec


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
    if matrix.num_cols == 0 and sorted_basis_matrix.num_cols == 0:
        return ScalarMatrix([])
    m_cols = matrix.columns()
    g_cols = sorted_basis_matrix.columns()
    index = _coordinate_index(m_cols + g_cols)
    a_rows = [[Fraction(0)] * len(m_cols) for _ in index]
    for j, col in enumerate(m_cols):
        for pos, value in enumerate(_coordinates(col, index)):
            a_rows[pos][j] = value
    b_rows = [[Fraction(0)] * len(g_cols) for _ in index]
    for j, col in enumerate(g_cols):
        for pos, value in enumerate(_coordinates(col, index)):
            b_rows[pos][j] = value
    try:
        x = solve(a_rows, b_rows)
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
    Returned in decreasing module term order.
    """
    lts = basis.leading_terms()
    return [
        t
        for t in enumerate_terms(basis.module, degree, basis.order)
        if not any(_term_divides(lt, t) for lt in lts)
    ]


def _nakayama_kept(vectors, degrees, ring):
    """Graded Nakayama selection: one keep-flag per homogeneous vector.

    Per degree class d, a degree-d vector is kept iff it is independent
    modulo the span of all positive-degree monomial multiples of the vectors
    that land in degree d plus the previously kept degree-d vectors.  The
    kept vectors minimally generate the submodule all the vectors generate.

    The classes are visited in increasing order of the ring's positive
    functional (ties by degree), and only the vectors already kept are
    multiplied: the kept vectors of the classes before d generate the same
    submodule as all of their vectors, so their multiples span the same
    degree-d subspace.  A class of equal functional but another degree
    contributes no multiples, since a nonconstant monomial has positive
    functional.
    """
    kept = [False] * len(vectors)
    generators = []
    for d in sorted(set(degrees), key=lambda d: (ring._functional(d), d)):
        products = [
            v.multiply_term(mono, 1)
            for v, vd in generators
            for mono in ring.monomials_of_degree(vector_sub(d, vd))
        ]
        members = [i for i, vd in enumerate(degrees) if vd == d]
        index = _coordinate_index(products + [vectors[i] for i in members])
        ech = Echelon()
        for p in products:
            ech.add({index[t]: c for t, c in p.support()})
        for i in members:
            kept[i] = ech.add({index[t]: c for t, c in vectors[i].support()})
            if kept[i]:
                generators.append((vectors[i], d))
    return kept


def is_minimal_map(matrix):
    """Whether the columns minimally generate the image.

    Nakayama reduction: for each degree d occurring among the column degrees,
    the degree-d columns must stay linearly independent modulo the degree-d
    part of (irrelevant ideal) * image, which is spanned by the products of
    the columns with monomials of positive degree.
    """
    return all(_nakayama_kept(matrix.columns(), matrix.domain.basis_degrees, matrix.domain.ring))


def _primitive_column(element):
    """The primitive integer vector (content 1) on the ray of a nonzero element."""
    return _divided(element, _content(element))


def syzygies(matrix, order):
    """A minimal generating set for the syzygies of the matrix columns.

    Schreyer's theorem on standard representations (Moeller, Mora and
    Traverso, ISSAC 1992), read off one unbounded Buchberger run: every
    generator or S-pair that reduces to zero gives a relation, its cofactor
    minus the quotient-weighted cofactors of the basis elements.  For an
    S-pair this is the pair's standard representation taken to the frame of
    the columns; for column j it is the discrepancy e_j - sum(q_k * cof_k),
    and a zero column gives e_j itself.  A pair that added a basis element
    maps to zero through the cofactors and needs no relation.  Each relation
    lies in the degree its item was queued at, and the relations are then
    minimized degreewise by `_nakayama_kept`.  The result S satisfies
    matrix @ S = 0 and its image is the full syzygy module; S is one minimal
    generating set of it, not a canonical one.  Each relation is scaled by a
    positive rational to a primitive integer vector (integer coefficients
    with gcd 1), which changes no degree and no Nakayama selection.
    """
    check_order(order)
    ring = matrix.domain.ring
    frame = FreeModuleSpec(ring, matrix.domain.basis_degrees)
    _, reductions = _buchberger_tracked(matrix.columns(), frame, order, bound=None)
    candidates, degrees = [], []
    for relation, degree in reductions:
        if not relation.is_zero:
            candidates.append(_primitive_column(relation))
            degrees.append(degree)
    kept = _nakayama_kept(candidates, degrees, ring)
    minimal = [c for c, keep in zip(candidates, kept) if keep]
    domain = FreeModuleSpec(ring, [d for d, keep in zip(degrees, kept) if keep])
    result = PolyMatrix._unchecked(frame, domain, _column_rows(minimal, frame.rank))
    if not (matrix @ result).is_zero:
        raise InternalError("syzygy matrix does not annihilate the input")
    return result


def check_chain(differentials):
    """Raise InputError unless the differentials form a complex.

    Each differential after the first must map into the domain of the one
    before it, and consecutive composites must vanish.  Messages number the
    differentials from 1.
    """
    for k in range(1, len(differentials)):
        previous, d = differentials[k - 1].domain, differentials[k].codomain
        if d.basis_degrees != previous.basis_degrees or d.ring != previous.ring:
            raise InputError("chain-shape mismatch between differentials %d and %d" % (k, k + 1))
    for k in range(1, len(differentials)):
        if not (differentials[k - 1] @ differentials[k]).is_zero:
            raise InputError("differentials %d and %d do not compose to zero" % (k, k + 1))


class _MinimalChain(tuple):
    """Differentials that `minimal_resolution` proved to be a minimal chain.

    Only `minimal_resolution` builds one, after its input passed
    `is_minimal_map` and each syzygy matrix passed the `matrix @ result`
    check in `syzygies`: the maps chain, consecutive composites vanish and
    every map is minimal.  The tuple is immutable and so, by convention, is
    each PolyMatrix, so the proof cannot go stale; `propagate_resolution`
    trusts it.  Copies, slices and concatenations are plain tuples or lists
    and carry no proof.
    """

    __slots__ = ()


class Resolution:
    """Minimal free resolution: base module and the chain of differentials.

    Holds the output of `minimal_resolution`: differentials[0] maps
    F_1 -> F_0, consecutive composites vanish, which `syzygies` proved for
    each one as it computed it, and every differential is minimal.  The
    constructor checks nothing.  `propagate_resolution` takes a Resolution or
    its differentials and trusts the chain only when it is the tuple
    `minimal_resolution` built; it checks any other chain in full, also one
    inside a Resolution built by hand.
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

    Iterates minimized syzygy computation until the syzygies vanish (or
    max_length differentials have been produced).  The input must be a
    minimal map; a zero-column presentation resolves a free module and gives
    a length-zero resolution.  max_length, when given, must be an integer of at
    least 1.  The differentials come as a `_MinimalChain`: the input passed
    `is_minimal_map` and each syzygy matrix passed its check in `syzygies`,
    so `propagate_resolution` does not prove the chain or its minimality
    again.
    """
    check_order(order)
    if max_length is not None:
        try:
            max_length = operator.index(max_length)
        except TypeError:
            raise InputError("max_length must be an integer, got %r" % (max_length,)) from None
        if max_length < 1:
            raise InputError("max_length must be at least 1, got %r" % (max_length,))
    if not is_minimal_map(matrix):
        raise MinimalityError("presentation matrix is not a minimal map")
    if matrix.num_cols == 0:
        return Resolution(matrix.codomain, _MinimalChain())
    differentials = [matrix]
    while max_length is None or len(differentials) < max_length:
        step = syzygies(differentials[-1], order)
        if step.num_cols == 0:
            break
        differentials.append(step)
        log.debug("resolution step %d: rank %d", len(differentials), step.num_cols)
    return Resolution(matrix.codomain, _MinimalChain(differentials))
