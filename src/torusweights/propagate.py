"""Propagation of torus weights along maps, resolutions and graded components.

The central operation takes a homogeneous minimal map together with the
weights attached to the codomain basis, replaces the columns by the sorted
degree-truncated reduced Groebner basis of the image (a scalar change of
basis in the domain) and reads each new column's weight off its leading
term: weight of the leading monomial plus the weight attached to the leading
term's row.  Forward propagation runs the same procedure on the dual map
with negated weights and a flipped (up <-> down) ordering, and resolutions
chain these steps with the accumulated changes of basis.

The triangularity assumption connecting the codomain basis to a basis of
weight vectors is a trusted caller contract: it cannot be verified from the
matrix alone and is not checked here.
"""

import logging
from dataclasses import dataclass, field

from .errors import InputError, MinimalityError, ResolutionStepError
from .groebner import (
    GroebnerBasis,
    buchberger,
    change_of_basis,
    is_minimal_map,
    sort_gb_columns,
    standard_monomials,
)
from .modules import FreeModuleSpec, ModuleTermOrder, PolyMatrix, ScalarMatrix, dual_map, split_by_column_degree
from .rings import vector_add, vector_neg

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
    weights = tuple(tuple(int(x) for x in w) for w in weights)
    if len(weights) != rank:
        raise InputError("%s has %d weights but the module has rank %d" % (role, len(weights), rank))
    for w in weights:
        if len(w) != ring.weight_length:
            raise InputError("weight %r has wrong length" % (w,))
    return weights


def propagate_single_degree(matrix, weights, order):
    """Weight propagation along a minimal map whose domain sits in one degree.

    Computes the degree-truncated reduced Groebner basis of the image,
    arranges it into a matrix G sorted by leading term (increasing for
    position-up orderings, decreasing for position-down), solves
    G = matrix @ C, and attaches to each column of G the weight of its
    leading monomial plus the weight of the row holding the leading term.
    """
    ring = matrix.domain.ring
    weights = _validate_weights(weights, matrix.codomain.rank, ring, "codomain weight list")
    degrees = set(matrix.domain.basis_degrees)
    if len(degrees) != 1:
        raise InputError("columns do not share a single degree")
    if not is_minimal_map(matrix):
        raise MinimalityError("map is not minimal; its columns do not minimally generate the image")
    degree = degrees.pop()

    basis = buchberger(matrix, order, bound=degree)
    in_degree = [g for g in basis.elements if g.homogeneous_degree() == degree]
    kept = GroebnerBasis(basis.module, basis.order, tuple(in_degree))
    sorted_matrix = sort_gb_columns(kept, "up" if order.is_position_up else "down")
    if sorted_matrix.num_cols != matrix.num_cols:
        raise InputError("internal error: truncated basis size differs from the column count")
    c = change_of_basis(matrix, sorted_matrix)

    new_weights = []
    for j in range(sorted_matrix.num_cols):
        term, _ = sorted_matrix.column(j).leading_term(order)
        new_weights.append(vector_add(ring.monomial_weight(term.monomial), weights[term.index]))
    return PropagationResult(c, tuple(new_weights), sorted_matrix, sorted_matrix.domain)


def propagate(matrix, weights, order):
    """Weight propagation along a minimal map (domain in any degrees).

    Splits the columns into blocks of equal degree (classes ordered by first
    occurrence), propagates each block separately, and reassembles the change
    of basis from the block-diagonal C_1 + ... + C_l by moving each of its
    rows back to the position of the column it belongs to, and the weights
    as the ordered concatenation of the block weight lists.
    """
    ring = matrix.domain.ring
    weights = _validate_weights(weights, matrix.codomain.rank, ring, "codomain weight list")
    if not isinstance(order, ModuleTermOrder):
        raise InputError("order must be a ModuleTermOrder")
    if matrix.num_cols == 0:
        empty = FreeModuleSpec(ring, [])
        g = PolyMatrix.from_columns(matrix.codomain, empty, [])
        return PropagationResult(ScalarMatrix([]), (), g, empty)

    perm, blocks, _ = split_by_column_degree(matrix)
    results = [propagate_single_degree(block, weights, order) for block in blocks]

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
    dual = dual_map(matrix)
    if not is_minimal_map(dual):
        raise MinimalityError("dual map is not minimal; cannot propagate forward")
    inner = propagate(dual, negate_weights(weights), order.flipped())
    rebased = FreeModuleSpec(ring, [vector_neg(d) for d in inner.rebased_module.basis_degrees])
    return PropagationResult(
        inner.change_of_basis.transpose(),
        negate_weights(inner.weights),
        inner.sorted_matrix,
        rebased,
    )


def _validate_chain(differentials):
    for k in range(1, len(differentials)):
        a, b = differentials[k - 1], differentials[k]
        if a.domain.basis_degrees != b.codomain.basis_degrees or a.domain.ring != b.codomain.ring:
            raise InputError("chain-shape mismatch between differentials %d and %d" % (k, k + 1))
        if not (a @ b).is_zero:
            raise InputError("differentials %d and %d do not compose to zero" % (k, k + 1))


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
    _validate_chain(differentials)
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
        result = propagate(matrix, per_module[start_index + i - 1], order)
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
    degree = tuple(int(x) for x in degree)
    ring = matrix.domain.ring
    weights = _validate_weights(weights, matrix.codomain.rank, ring, "codomain weight list")
    if not isinstance(order, ModuleTermOrder):
        raise InputError("order must be a ModuleTermOrder")
    basis = buchberger(matrix, order, bound=gb_bound)
    terms = standard_monomials(basis, degree, matrix.codomain)
    if order.is_position_up:
        terms.reverse()
    return tuple(vector_add(ring.monomial_weight(t.monomial), weights[t.index]) for t in terms)
