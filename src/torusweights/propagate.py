"""Propagation of torus weights along maps, resolutions and graded components.

The central operation takes a homogeneous minimal map together with the
weights attached to the codomain basis, replaces the columns by the sorted
degree-truncated reduced Groebner basis of the image (a scalar change of
basis in the domain) and reads each new column's weight off its leading
term: weight of the leading monomial plus the weight attached to the leading
term's row.  The change of basis is not solved for: its columns are the
cofactors Buchberger's algorithm tracks, which write each basis element in
the original columns.  Forward propagation runs the same procedure on the
dual map with negated weights and a flipped (up <-> down) ordering, and
resolutions chain these steps with the accumulated changes of basis.

Each public function checks its preconditions once, on its own input:
`propagate` runs the Nakayama minimality check on the whole map,
`propagate_forward` on the dual map, and `propagate_resolution` checks the
chain and every differential.  The steps inside do not check again, since
rebasing a minimal map by an invertible scalar matrix keeps it minimal.  For
a block of columns in a single degree, minimal means linearly independent,
which the Groebner basis count checks: the truncated basis has as many
elements in that degree as the block has independent columns.

The triangularity assumption connecting the codomain basis to a basis of
weight vectors is a trusted caller contract: it cannot be verified from the
matrix alone and is not checked here.
"""

import logging
from dataclasses import dataclass, field

from .errors import InputError, MinimalityError, ResolutionStepError
from .groebner import (
    buchberger,
    check_chain,
    check_order,
    is_minimal_map,
    standard_monomials,
)
from .modules import FreeModuleSpec, PolyMatrix, ScalarMatrix, dual_map, split_by_column_degree
from .rings import _int_vector, unit_monomial, vector_add, vector_neg

log = logging.getLogger(__name__)


def negate_weights(weights):
    return tuple(vector_neg(w) for w in weights)


@dataclass
class PropagationResult:
    """Change of basis plus the propagated weight list.

    `sorted_matrix` is the rebased matrix whose columns realize the weights
    (for forward propagation: the sorted basis matrix of the dual run), and
    `rebased_module` is the module whose basis the change of basis produces,
    with its degrees in the new order.
    """

    change_of_basis: ScalarMatrix
    weights: tuple
    sorted_matrix: PolyMatrix
    rebased_module: FreeModuleSpec


@dataclass
class ResolutionStep:
    """One propagation step along a resolution."""

    module_index: int
    matrix: PolyMatrix
    result: PropagationResult


@dataclass
class ResolutionWeights:
    """Weight lists for every free module of a resolution, plus step records."""

    per_module: tuple
    steps: dict = field(default_factory=dict)


def _validate_weights(weights, rank, ring, role):
    weights = tuple(_int_vector(w, "weight", ring.weight_length) for w in weights)
    if len(weights) != rank:
        raise InputError("%s has %d weights but the module has rank %d" % (role, len(weights), rank))
    return weights


_NOT_MINIMAL = "map is not minimal; its columns do not minimally generate the image"


def propagate_single_degree(matrix, weights, order):
    """Weight propagation along a minimal map whose domain sits in one degree.

    Computes the degree-truncated reduced Groebner basis of the image,
    arranges it into a matrix G sorted by leading term (increasing for
    position-up orderings, decreasing for position-down), takes the scalar
    C with G = matrix @ C from the cofactors the Groebner run tracks, and
    attaches to each column of G the weight of its leading monomial plus the
    weight of the row holding the leading term.
    With all columns in one degree, minimal means linearly independent; a
    MinimalityError is raised when the basis has fewer elements than the
    matrix has columns.
    """
    ring = matrix.domain.ring
    weights = _validate_weights(weights, matrix.codomain.rank, ring, "codomain weight list")
    check_order(order)
    degrees = set(matrix.domain.basis_degrees)
    if len(degrees) != 1:
        raise InputError("columns do not share a single degree")
    return _propagate_block(matrix, weights, order, degrees.pop())


def _propagate_block(matrix, weights, order, degree):
    """propagate_single_degree on a block whose columns all have `degree`.

    The degree-`degree` elements of the run bounded at `degree` form a basis
    of the block's span, sorted by increasing leading term, and each one's
    cofactor is a vector of constants: its column of C.  Elements of other
    degrees are dropped; the run reaches them only on gradings where a
    variable's degree has a negative component sum, which the degree
    refinement order sorts below `degree`.
    """
    ring = matrix.domain.ring
    basis = buchberger(matrix, order, bound=degree)
    pairs = [
        (g, cof)
        for g, cof in zip(basis.elements, basis.cofactors)
        if g.homogeneous_degree() == degree
    ]
    if len(pairs) != matrix.num_cols:
        raise MinimalityError(_NOT_MINIMAL)
    if not order.is_position_up:
        pairs.reverse()
    unit = unit_monomial(ring.num_vars)
    c = ScalarMatrix(
        [[cof.entries[j].terms.get(unit, 0) for _, cof in pairs] for j in range(matrix.num_cols)]
    )
    sorted_matrix = PolyMatrix.from_columns(matrix.codomain, matrix.domain, [g for g, _ in pairs])

    new_weights = []
    for g, _ in pairs:
        term, _ = g.leading_term(order)
        new_weights.append(vector_add(ring.monomial_weight(term.monomial), weights[term.index]))
    return PropagationResult(c, tuple(new_weights), sorted_matrix, sorted_matrix.domain)


def propagate(matrix, weights, order):
    """Weight propagation along a minimal map (domain in any degrees).

    Splits the columns into blocks of equal degree (classes ordered by first
    occurrence), propagates each block separately, and reassembles the change
    of basis from the block-diagonal C_1 + ... + C_l by moving each of its
    rows back to the position of the column it belongs to, and the weights
    as the ordered concatenation of the block weight lists.  The whole map
    is checked for minimality first.
    """
    ring = matrix.domain.ring
    weights = _validate_weights(weights, matrix.codomain.rank, ring, "codomain weight list")
    check_order(order)
    if not is_minimal_map(matrix):
        raise MinimalityError(_NOT_MINIMAL)
    return _propagate(matrix, weights, order)


def _propagate(matrix, weights, order):
    """propagate without checks: the weights are validated and the map is minimal."""
    ring = matrix.domain.ring
    if matrix.num_cols == 0:
        empty = FreeModuleSpec(ring, [])
        g = PolyMatrix.from_columns(matrix.codomain, empty, [])
        return PropagationResult(ScalarMatrix([]), (), g, empty)

    perm, blocks, degrees = split_by_column_degree(matrix)
    results = [_propagate_block(b, weights, order, d) for b, d in zip(blocks, degrees)]

    diagonal = ScalarMatrix.block_diagonal([r.change_of_basis for r in results])
    rows = [None] * len(perm)
    for k, orig in enumerate(perm):
        rows[orig] = diagonal.rows[k]
    c = ScalarMatrix(rows)
    combined_weights = tuple(w for r in results for w in r.weights)
    columns = [col for r in results for col in r.sorted_matrix.columns()]
    degrees = [d for r in results for d in r.sorted_matrix.domain.basis_degrees]
    rebased = FreeModuleSpec(ring, degrees)
    g = PolyMatrix.from_columns(matrix.codomain, rebased, columns)
    return PropagationResult(c, combined_weights, g, rebased)


def propagate_forward(matrix, weights, order):
    """Weight propagation from the domain to the codomain of a map.

    Requires the dual map to be minimal.  Runs backward propagation on the
    transpose with negated weights under the flipped (up <-> down) ordering,
    then transposes the change of basis and negates the weights back.
    """
    ring = matrix.domain.ring
    weights = _validate_weights(weights, matrix.domain.rank, ring, "domain weight list")
    check_order(order)
    dual = dual_map(matrix)
    if not is_minimal_map(dual):
        raise MinimalityError("dual map is not minimal; cannot propagate forward")
    inner = _propagate(dual, negate_weights(weights), order.flipped())
    rebased = FreeModuleSpec(ring, [vector_neg(d) for d in inner.rebased_module.basis_degrees])
    return PropagationResult(
        inner.change_of_basis.transpose(),
        negate_weights(inner.weights),
        inner.sorted_matrix,
        rebased,
    )


def propagate_resolution(differentials, start_index, start_weights, order):
    """Weight propagation along an entire minimal free resolution.

    `differentials` lists the maps d_1 ... d_m of a minimal free resolution,
    `start_index` names the free module whose basis-of-weight-vectors list
    `start_weights` is known.  Weights move backward along the later
    differentials and forward (through duals) along the earlier ones, with
    each step's change of basis folded into the next matrix.  Returns the
    weight lists for all modules F_0 ... F_m.

    If a forward step hits a non-minimal dual mid-resolution, a
    ResolutionStepError is raised carrying the weight lists computed so far.
    """
    differentials = list(differentials)
    m = len(differentials)
    if not differentials:
        raise InputError("resolution has no differentials")
    if not 0 <= start_index <= m:
        raise InputError("start index %d outside 0..%d" % (start_index, m))
    check_order(order)
    check_chain(differentials[0].codomain, differentials)
    for k, d in enumerate(differentials):
        if not is_minimal_map(d):
            raise MinimalityError("differential %d is not a minimal map" % (k + 1))

    modules = [differentials[0].codomain] + [d.domain for d in differentials]
    ring = modules[0].ring
    start_weights = _validate_weights(start_weights, modules[start_index].rank, ring, "starting weight list")

    per_module = [None] * (m + 1)
    per_module[start_index] = start_weights
    steps = {}

    def partial():
        return tuple(per_module)

    current_c = ScalarMatrix.identity(modules[start_index].rank)
    current_spec = modules[start_index]
    for i in range(1, m - start_index + 1):
        diff = differentials[start_index + i - 1]
        rebase = current_c.inverse().to_poly_matrix(current_spec, diff.codomain)
        matrix = rebase @ diff
        log.debug("backward step onto module %d", start_index + i)
        result = _propagate(matrix, per_module[start_index + i - 1], order)
        per_module[start_index + i] = result.weights
        steps[start_index + i] = ResolutionStep(start_index + i, matrix, result)
        current_c = result.change_of_basis
        current_spec = result.rebased_module

    current_c = ScalarMatrix.identity(modules[start_index].rank)
    current_spec = modules[start_index]
    for i in range(1, start_index + 1):
        target = start_index - i
        diff = differentials[target]
        rebase = current_c.inverse().to_poly_matrix(diff.domain, current_spec)
        matrix = diff @ rebase
        log.debug("forward step onto module %d", target)
        try:
            result = propagate_forward(matrix, per_module[target + 1], order)
        except MinimalityError as exc:
            raise ResolutionStepError(
                "forward propagation failed at module %d: %s" % (target, exc),
                step=target,
                partial=partial(),
            ) from exc
        per_module[target] = result.weights
        steps[target] = ResolutionStep(target, matrix, result)
        current_c = result.change_of_basis
        current_spec = result.rebased_module

    return ResolutionWeights(tuple(per_module), steps)


def propagate_graded_components(degree, matrix, weights, order, gb_bound=None):
    """Weights of one graded component of the cokernel of a presentation.

    Computes a Groebner basis of the image (complete by default; `gb_bound`
    optionally truncates it when the caller knows a sufficient degree) and
    the standard monomials of the requested degree.  By Macaulay's basis
    theorem their residues form a basis of the component; each is a single
    module term, so its weight is the weight of its monomial plus the weight
    attached to its row.  Returns these weights sorted by term, increasing
    for position-up orderings and decreasing for position-down, which is the
    order `propagate` gives on the matrix of standard monomials.
    """
    ring = matrix.domain.ring
    degree = _int_vector(degree, "degree", ring.degree_length)
    weights = _validate_weights(weights, matrix.codomain.rank, ring, "codomain weight list")
    check_order(order)
    basis = buchberger(matrix, order, bound=gb_bound)
    terms = standard_monomials(basis, degree, matrix.codomain)
    if order.is_position_up:
        terms.reverse()
    return tuple(vector_add(ring.monomial_weight(t.monomial), weights[t.index]) for t in terms)
