"""Groebner machinery for graded submodules of free modules.

Division with remainder, Buchberger's algorithm (optionally truncated at a
degree bound), reduced-basis normalization, change of basis onto a Groebner
basis, Schreyer-style syzygies, minimal free resolutions, standard monomials
and Nakayama-style minimality checks.  All arithmetic is exact.

Degrees in Z^m are compared through a fixed total refinement of the
componentwise order (component sum first, then lexicographic); S-pairs are
processed in increasing refinement order, which makes degree-truncated runs
well defined.
"""

import heapq
import itertools
import logging
from dataclasses import dataclass
from fractions import Fraction

from .errors import DependentColumnsError, HomogeneityError, InputError, MinimalityError
from .linalg import Echelon, solve
from .modules import (
    FreeModuleSpec,
    ModuleElement,
    ModuleTerm,
    ModuleTermOrder,
    PolyMatrix,
    ScalarMatrix,
)
from .rings import (
    Polynomial,
    degree_sort_key,
    monomial_div,
    monomial_divides,
    monomial_lcm,
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


def normal_form(element, divisors, order):
    """Divide element by the divisors, reducing the leading term first.

    At each step the first divisor (in list order) whose leading term divides
    the current leading term is used; irreducible leading terms move to the
    remainder.  Deterministic, and complete: no remainder term is divisible
    by any divisor's leading term.
    """
    module = element.module
    lts = [g.leading_term(order) for g in divisors]
    quotients = [Polynomial() for _ in divisors]
    remainder = module.zero_element()
    work = element
    while not work.is_zero:
        term, coeff = work.leading_term(order)
        for k, (g_term, g_coeff) in enumerate(lts):
            if _term_divides(g_term, term):
                q_mono = monomial_div(term.monomial, g_term.monomial)
                q_coeff = coeff / g_coeff
                quotients[k] = quotients[k] + Polynomial({q_mono: q_coeff})
                work = work - divisors[k].multiply_term(q_mono, q_coeff)
                break
        else:
            single = Polynomial({term.monomial: coeff})
            remainder = remainder + module.basis_element(term.index, single)
            work = work - module.basis_element(term.index, single)
    return DivisionResult(quotients, remainder)


@dataclass
class GroebnerBasis:
    """Reduced monic Groebner basis, elements sorted by increasing leading term.

    With a truncation bound, contains exactly the elements of the
    (inter-reduced) basis whose degree does not exceed the bound in the
    degree refinement order.
    """

    module: FreeModuleSpec
    order: object
    elements: tuple
    monic: bool = True

    def leading_terms(self):
        return [g.leading_term(self.order)[0] for g in self.elements]


class _Tracked:
    """Basis element together with its cofactor over the original generators."""

    __slots__ = ("element", "cofactor", "lead")

    def __init__(self, element, cofactor, order):
        self.element = element
        self.cofactor = cofactor
        self.lead = element.leading_term(order)


def _combine_cofactor(cofactor, quotients, basis):
    for q, item in zip(quotients, basis):
        if not q.is_zero:
            cofactor = cofactor - item.cofactor.multiply(q)
    return cofactor


def _buchberger_tracked(columns, cofactor_module, order, bound):
    """Core Buchberger loop; returns the reduced basis as _Tracked items.

    Generators and S-pairs are processed in increasing refinement order of
    their degrees (normal selection strategy); items beyond the bound are
    dropped.  The output is inter-reduced, monic, and sorted by leading term,
    hence canonical for the submodule and order.
    """
    ring = cofactor_module.ring
    bound_key = degree_sort_key(tuple(bound)) if bound is not None else None

    heap = []
    seq = itertools.count()

    def push(degree, payload):
        key = degree_sort_key(degree)
        if bound_key is not None and key > bound_key:
            return
        heapq.heappush(heap, (key, next(seq), payload))

    for j, col in enumerate(columns):
        if col.is_zero:
            continue
        degree = col.homogeneous_degree()
        if degree is None:
            raise HomogeneityError("generator %d is not homogeneous" % j)
        push(degree, ("gen", col, cofactor_module.basis_element(j)))

    basis = []

    def s_pair(a, b):
        lcm = monomial_lcm(a.lead[0].monomial, b.lead[0].monomial)
        ma = monomial_div(lcm, a.lead[0].monomial)
        mb = monomial_div(lcm, b.lead[0].monomial)
        elem = a.element.multiply_term(ma, 1) - b.element.multiply_term(mb, 1)
        cof = a.cofactor.multiply_term(ma, 1) - b.cofactor.multiply_term(mb, 1)
        return elem, cof

    while heap:
        _, _, payload = heapq.heappop(heap)
        if payload[0] == "gen":
            _, elem, cof = payload
        else:
            _, i, j = payload
            elem, cof = s_pair(basis[i], basis[j])
        result = normal_form(elem, [item.element for item in basis], order)
        if result.remainder.is_zero:
            continue
        cof = _combine_cofactor(cof, result.quotients, basis)
        lead_coeff = result.remainder.leading_term(order)[1]
        inv = Fraction(1) / lead_coeff
        new = _Tracked(result.remainder.scale(inv), cof.scale(inv), order)
        t = len(basis)
        basis.append(new)
        log.debug("basis element %d with leading term %s", t, new.lead[0])
        cod_degrees = new.element.module.basis_degrees
        for i in range(t):
            if basis[i].lead[0].index == new.lead[0].index:
                lcm = monomial_lcm(basis[i].lead[0].monomial, new.lead[0].monomial)
                degree = tuple(
                    a + b
                    for a, b in zip(ring.monomial_degree(lcm), cod_degrees[new.lead[0].index])
                )
                push(degree, ("pair", i, t))

    return _reduce_basis(basis, order)


def _reduce_basis(basis, order):
    """Inter-reduce a monic basis: drop redundant leading terms, reduce tails."""
    if not basis:
        return []
    ring = basis[0].element.module.ring
    term_key = order.sort_key(ring)
    basis = sorted(basis, key=lambda item: term_key(item.lead[0]))
    kept = []
    for item in basis:
        if not any(_term_divides(other.lead[0], item.lead[0]) for other in kept):
            kept.append(item)
    reduced = []
    for pos, item in enumerate(kept):
        others = [other for k, other in enumerate(kept) if k != pos]
        result = normal_form(item.element, [o.element for o in others], order)
        cof = item.cofactor
        for q, other in zip(result.quotients, others):
            if not q.is_zero:
                cof = cof - other.cofactor.multiply(q)
        reduced.append(_Tracked(result.remainder, cof, order))
    reduced.sort(key=lambda item: term_key(item.lead[0]))
    return reduced


def buchberger(matrix, order, bound=None):
    """Reduced monic Groebner basis of the column span of a homogeneous matrix.

    With a degree bound, S-pairs beyond the bound (in the refinement order)
    are never processed and only basis elements within the bound are
    returned; the degree-d elements of a bounded run at bound d form a basis
    of the degree-d component of the column span.  The output is canonical:
    it does not depend on the column order or on invertible scalar mixing of
    equal-degree columns.
    """
    cof_module = FreeModuleSpec(matrix.domain.ring, matrix.domain.basis_degrees)
    tracked = _buchberger_tracked(matrix.columns(), cof_module, order, bound)
    return GroebnerBasis(matrix.codomain, order, tuple(item.element for item in tracked))


def sort_gb_columns(basis, direction="up"):
    """Arrange the basis elements as matrix columns sorted by leading term.

    direction "up" sorts strictly increasing (for position-up orderings),
    "down" strictly decreasing.  Reducedness guarantees strictness.
    """
    if direction not in ("up", "down"):
        raise InputError("direction must be 'up' or 'down'")
    ring = basis.module.ring
    term_key = basis.order.sort_key(ring)
    elements = sorted(
        basis.elements, key=lambda g: term_key(g.leading_term(basis.order)[0]),
        reverse=(direction == "down"),
    )
    degrees = []
    for g in elements:
        d = g.homogeneous_degree()
        if d is None:
            raise HomogeneityError("basis element is not homogeneous")
        degrees.append(d)
    domain = FreeModuleSpec(ring, degrees)
    return PolyMatrix.from_columns(basis.module, domain, elements)


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
    order = order or ModuleTermOrder("top-up")
    ring = module.ring
    degree = tuple(degree)
    terms = []
    for idx in range(module.rank):
        remaining = vector_sub(degree, module.basis_degrees[idx])
        for mono in ring.monomials_of_degree(remaining):
            terms.append(ModuleTerm(mono, idx))
    terms.sort(key=order.sort_key(ring), reverse=True)
    return terms


def standard_monomials(basis, degree, module):
    """Degree-d module terms not divisible by any basis leading term.

    By Macaulay's basis theorem their residues form a basis of the degree-d
    component of the quotient by the submodule the basis generates.
    Returned in decreasing module term order.
    """
    lts = basis.leading_terms()
    return [
        t
        for t in enumerate_terms(module, degree, basis.order)
        if not any(_term_divides(lt, t) for lt in lts)
    ]


def is_minimal_map(matrix):
    """Whether the columns minimally generate the image.

    Nakayama reduction: for each degree d occurring among the column degrees,
    the degree-d columns must stay linearly independent modulo the degree-d
    part of (irrelevant ideal) * image, which is spanned by the products of
    the columns with monomials of positive degree.
    """
    ring = matrix.domain.ring
    col_degrees = matrix.domain.basis_degrees
    columns = matrix.columns()
    for d in dict.fromkeys(col_degrees):
        vectors = []
        for j, col in enumerate(columns):
            gap = vector_sub(d, col_degrees[j])
            if not any(gap):
                continue
            for mono in ring.monomials_of_degree(gap):
                if any(mono):
                    vectors.append(col.multiply_term(mono, 1))
        same_degree = [col for j, col in enumerate(columns) if col_degrees[j] == d]
        index = _coordinate_index(vectors + same_degree)
        ech = Echelon()
        for v in vectors:
            ech.add(_coordinates(v, index))
        for col in same_degree:
            if not ech.add(_coordinates(col, index)):
                return False
    return True


def _minimize_generators(candidates, module):
    """Select a minimal generating subset of homogeneous candidates.

    Per degree class, a candidate is kept iff it is independent modulo the
    span of all positive-degree monomial multiples of the candidates plus
    the previously kept same-degree candidates (graded Nakayama).  Returns
    the kept candidates in their original order.
    """
    ring = module.ring
    degrees = []
    for c in candidates:
        d = c.homogeneous_degree()
        if d is None:
            raise HomogeneityError("syzygy candidate is not homogeneous")
        degrees.append(d)
    kept = [False] * len(candidates)
    for d in dict.fromkeys(degrees):
        products = []
        for c, cd in zip(candidates, degrees):
            gap = vector_sub(d, cd)
            if not any(gap):
                continue
            for mono in ring.monomials_of_degree(gap):
                if any(mono):
                    products.append(c.multiply_term(mono, 1))
        members = [i for i, cd in enumerate(degrees) if cd == d]
        index = _coordinate_index(products + [candidates[i] for i in members])
        ech = Echelon()
        for v in products:
            ech.add(_coordinates(v, index))
        for i in members:
            if ech.add(_coordinates(candidates[i], index)):
                kept[i] = True
    return [c for c, keep in zip(candidates, kept) if keep]


def syzygies(matrix, order):
    """A minimal generating set for the syzygies of the matrix columns.

    Schreyer lifting: every S-pair of the reduced Groebner basis reduces to
    zero and the recorded quotients give a syzygy in the basis frame; the
    tracked cofactors convert these back to the original generator frame,
    together with the discrepancy columns of (identity - cofactors * division
    quotients).  The generating set is then minimized degreewise.  The result
    S satisfies matrix @ S = 0 and its image is the full syzygy module.
    """
    ring = matrix.domain.ring
    frame = FreeModuleSpec(ring, matrix.domain.basis_degrees)
    columns = matrix.columns()
    tracked = _buchberger_tracked(columns, frame, order, bound=None)
    elements = [item.element for item in tracked]

    candidates = []
    pair_queue = []
    for i in range(len(tracked)):
        for j in range(i + 1, len(tracked)):
            if tracked[i].lead[0].index != tracked[j].lead[0].index:
                continue
            lcm = monomial_lcm(tracked[i].lead[0].monomial, tracked[j].lead[0].monomial)
            degree = tuple(
                a + b
                for a, b in zip(
                    ring.monomial_degree(lcm),
                    matrix.codomain.basis_degrees[tracked[i].lead[0].index],
                )
            )
            pair_queue.append((degree_sort_key(degree), i, j, lcm))
    pair_queue.sort()

    for _, i, j, lcm in pair_queue:
        mi = monomial_div(lcm, tracked[i].lead[0].monomial)
        mj = monomial_div(lcm, tracked[j].lead[0].monomial)
        elem = tracked[i].element.multiply_term(mi, 1) - tracked[j].element.multiply_term(mj, 1)
        result = normal_form(elem, elements, order)
        if not result.remainder.is_zero:
            raise InputError("internal error: S-pair did not reduce to zero over its basis")
        syz = tracked[i].cofactor.multiply_term(mi, 1) - tracked[j].cofactor.multiply_term(mj, 1)
        syz = _combine_cofactor(syz, result.quotients, tracked)
        if not syz.is_zero:
            candidates.append(syz)

    for j, col in enumerate(columns):
        result = normal_form(col, elements, order)
        if not result.remainder.is_zero:
            raise InputError("internal error: generator did not reduce to zero over its basis")
        discrepancy = _combine_cofactor(frame.basis_element(j), result.quotients, tracked)
        if not discrepancy.is_zero:
            candidates.append(discrepancy)

    minimal = _minimize_generators(candidates, frame)
    degrees = [s.homogeneous_degree() for s in minimal]
    domain = FreeModuleSpec(ring, degrees)
    result = PolyMatrix.from_columns(frame, domain, minimal)
    if not (matrix @ result).is_zero:
        raise InputError("internal error: syzygy matrix does not annihilate the input")
    return result


class Resolution:
    """Minimal free resolution: base module and the chain of differentials.

    differentials[0] maps F_1 -> F_0, and consecutive composites vanish.
    """

    def __init__(self, base_module, differentials):
        differentials = tuple(differentials)
        previous = base_module
        for k, d in enumerate(differentials):
            if d.codomain.basis_degrees != previous.basis_degrees or d.codomain.ring != previous.ring:
                raise InputError("differential %d does not chain with the previous module" % (k + 1))
            previous = d.domain
        for a, b in zip(differentials, differentials[1:]):
            if not (a @ b).is_zero:
                raise InputError("consecutive differentials do not compose to zero")
        self.base_module = base_module
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
    a length-zero resolution.
    """
    if not is_minimal_map(matrix):
        raise MinimalityError("presentation matrix is not a minimal map")
    if matrix.num_cols == 0:
        return Resolution(matrix.codomain, [])
    differentials = [matrix]
    while max_length is None or len(differentials) < max_length:
        step = syzygies(differentials[-1], order)
        if step.num_cols == 0:
            break
        differentials.append(step)
        log.debug("resolution step %d: rank %d", len(differentials), step.num_cols)
    return Resolution(matrix.codomain, differentials)
