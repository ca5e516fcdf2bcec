"""Propagation of torus weights along maps, resolutions and graded components.

The central operation takes a homogeneous minimal map together with the
weights attached to the codomain basis, replaces the columns by the sorted
reduced Groebner basis of the image in the columns' own degrees (a scalar
change of basis in the domain) and reads each new column's weight off its
leading term: weight of the leading monomial plus the weight attached to
the leading term's row.  Every S-pair lies above its columns' degree, so
that basis is the reduced row echelon form of the columns, and one
elimination per degree of the columns yields it and C^-1 with no Groebner
run.  The weights and C^-1 need only the eliminations' pivots, which a
dense degree block finds by `linalg.pivot_scan` and a sparse one by
`linalg.Echelon` (see `_propagate`), and row k of C^-1 is the term vector
of G_k's pivot, the coefficients the columns have there.  The walk
reads none of C^-1, C and G as a matrix: C^-1 as a ScalarMatrix is built
on first read from those term vectors (`_inverse_matrix`), C by inverting
C^-1 one degree block at a time (`_inverted`), and G as the product M @ C
with that C (`_sorted_matrix`).  Forward propagation
runs the same procedure on the dual map with negated weights and a flipped
(up <-> down) ordering, and resolutions rebase each differential d as the
product C^-1 @ d with the previous step's C^-1.

Each fact about the input is proved once, by the code that establishes it,
and private functions do not check it again.  For columns in at most one
degree, minimal means linearly independent, and `_propagate`'s elimination
raises MinimalityError when a column reduces to zero; the Nakayama check
(`_fails_nakayama`) runs only on maps whose columns span more than one
degree.
`propagate` validates the weights and the order and leaves the rest to that
rule; `propagate_single_degree` checks only that the columns share one
degree and calls it.  Resolutions take one walk: `_walk` propagates
backward along consecutive maps, rebasing each map d as C^-1 @ d with the
previous step's C^-1, and `_walk_forward` runs it on the dual complex;
`propagate_forward` is its one-step case.  `propagate_resolution` validates its start, and
checks the chain and every differential once unless `minimal_resolution`
built them and so has proved both already.  A backward step is not checked
again, since rebasing a minimal map by an invertible scalar matrix keeps it
minimal; a forward step checks its dual map by the same rule as
`propagate`, since the dual of a minimal map need not be minimal.

Each step runs on packed terms (see `packed`).  Every public call packs each
map at most once, under the order it propagates under: `propagate_resolution`
packs the chain by one codec (`groebner._packed_chain`), whose fields hold a
product of consecutive maps and whose index field holds max(rows, cols),
and the same packed columns serve the test that the maps compose to zero,
each differential's minimality run and the walk, which lets each map's
columns go once it has passed it.  A chain that `minimal_resolution`
proved is walked on the packed columns its pruning already built and
checked, with a codec sized the same way, so nothing is packed, and its
matrices are unpacked only when first read; under any other order than its
own each term is re-keyed (`_TermCodec.repacked`) into a codec of the same
fields and indices under that order.  The walk takes (codomain, domain,
codec, columns) steps, no PolyMatrix, and rebases each map as the product
C^-1 @ d through `_TermCodec.rebased`, the product kernel with C^-1's
columns packed as constant terms straight from its term vectors, over one
common denominator: a constant factor adds no degree, so the map's own
codec holds every term of the product and the fields never need
widening.  A dense C^-1 takes the kernel's row-packed path, and the
rebased map stays in its row slots (`packed._RowPacked`), one int per
monomial of a column, one slot per row: a dense degree block unpacks
each int once and transposes the digits into the term vectors its scan
takes, in decreasing term order (`_row_block_leads`), so a dense step
goes from rebase to pivots to the next rebase in ints, with no dict and
no Fraction.  A sparse block's `Echelon` takes each column as the
packed dict it is, each term keyed by its negation, and reduces a row
only at its current largest term, so a row holds only its nonzeros and
no term of the block is laid out.  The forward walk packs each
dual map by re-tagging the map's packed columns under the flipped order
(`_TermCodec.transposed`), so no dual PolyMatrix is built until a step's
map is read.  A packed term is its own order key, so the elimination
sorts the image's terms as plain ints.
The walk unpacks only the leading terms of G.  C^-1, G, C and each step's
rebased map are built on first read (see `PropagationResult` and `ResolutionStep`),
and G and the maps are unpacked by `_TermCodec.matrix` only when their
entries are read, a rebased map held in row slots into packed dicts first;
every returned value keeps exponent tuples.

Graded components (`propagate_graded_components`) need only the leading
terms of a Groebner basis bounded at the degree and the weight of each
standard monomial.  The bounded run without tails gives those leading
terms, with no monic pass and no inter-reduction, and the standard-monomial
search (`groebner._standard_search`) carries each term's weight as it goes,
so that only the leading terms are unpacked.

The triangularity assumption connecting the codomain basis to a basis of
weight vectors is a trusted caller contract: it cannot be verified from the
matrix alone and is not checked here.
"""

import logging
import operator
from dataclasses import dataclass, field
from functools import cached_property, partial
from math import gcd

from .errors import InputError, MinimalityError, ResolutionStepError
# buchberger is not called here, but perfbench's tracer test reads propagate.buchberger
from .groebner import (
    Resolution,
    _buchberger_run,
    _checked_chain,
    _MinimalChain,
    _nakayama_kept,
    _packed_chain,
    _standard_search,
    buchberger,
    check_order,
)
from .linalg import Echelon, _quotient, pivot_scan
from .modules import FreeModuleSpec, ScalarMatrix, dual_map
from .packed import _integral, _RowPacked, _TermCodec
from .rings import _int_vector, unit_monomial, vector_add, vector_neg

log = logging.getLogger(__name__)


def negate_weights(weights):
    return tuple(vector_neg(w) for w in weights)


class PropagationResult:
    """Change of basis plus the propagated weight list.

    `sorted_matrix` is the rebased matrix whose columns realize the weights
    (for forward propagation: the sorted basis matrix of the dual run), and
    `rebased_module` is the module whose basis the change of basis produces,
    with its degrees in the new order.  `inverse_change_of_basis` is C^-1,
    read off the same elimination; resolutions rebase with it.

    `weights` and `rebased_module` are computed with the result.
    `inverse_change_of_basis`, `change_of_basis` and `sorted_matrix` are
    built on first read and cached, since propagation and the resolution
    walk read none of them as matrices: C^-1 by the function of no argument
    the result is made with, C by the function of one argument, C^-1, and G
    by the function of one argument, C, each from the cached field before
    it, so that reading all three inverts C^-1 once.  Results are equal when
    all five fields are.
    """

    def __init__(
        self, build_inverse_change_of_basis, weights, rebased_module, build_change_of_basis, build_sorted_matrix
    ):
        self.weights = weights
        self.rebased_module = rebased_module
        self._build_inverse_change_of_basis = build_inverse_change_of_basis
        self._build_change_of_basis = build_change_of_basis
        self._build_sorted_matrix = build_sorted_matrix

    @cached_property
    def inverse_change_of_basis(self):
        return self._build_inverse_change_of_basis()

    @cached_property
    def change_of_basis(self):
        return self._build_change_of_basis(self.inverse_change_of_basis)

    @cached_property
    def sorted_matrix(self):
        return self._build_sorted_matrix(self.change_of_basis)

    def _fields(self):
        return (
            self.change_of_basis,
            self.inverse_change_of_basis,
            self.weights,
            self.sorted_matrix,
            self.rebased_module,
        )

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()


class ResolutionStep:
    """One propagation step along a resolution.

    `matrix` is the map the step propagated along, in the bases the walk had
    reached: the differential itself for the first step from the start, and
    after it the differential rebased by the previous step's C^-1.  It is
    built on first read, by the function of no argument the step is made
    with, and cached, since the walk holds the map packed.  Steps are equal
    when `module_index`, `matrix` and `result` are.
    """

    def __init__(self, module_index, build_matrix, result):
        self.module_index = module_index
        self._build_matrix = build_matrix
        self.result = result

    @cached_property
    def matrix(self):
        return self._build_matrix()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.module_index, self.matrix, self.result) == (other.module_index, other.matrix, other.result)


@dataclass
class ResolutionWeights:
    """Weight lists for every free module of a resolution, plus step records."""

    per_module: tuple
    steps: dict = field(default_factory=dict)


def _validate_weights(weights, rank, ring, role):
    try:
        weights = tuple(weights)
    except TypeError:
        raise InputError("%s must be a sequence of weight vectors" % role) from None
    weights = tuple(_int_vector(w, "weight", ring.weight_length) for w in weights)
    if len(weights) != rank:
        raise InputError("%s has %d weights but the module has rank %d" % (role, len(weights), rank))
    return weights


_NOT_MINIMAL = "map is not minimal; its columns do not minimally generate the image"


def _fails_nakayama(codomain, domain, codec, columns):
    """Whether a packed map fails the Nakayama check, run only where `_propagate` cannot decide.

    columns are the map's packed columns, packed by codec.  With the
    columns in at most one degree, minimal means linearly independent (see
    `_nakayama_kept`), the check does not run, and `_propagate`'s
    elimination raises MinimalityError when they are not.  With columns in
    several degrees `_nakayama_kept` runs its bounded Buchberger run; its
    flags do not depend on codec's order.
    """
    degrees = domain.basis_degrees
    return len(set(degrees)) > 1 and not all(_nakayama_kept(codec, codomain, columns, degrees))


def propagate_single_degree(matrix, weights, order):
    """Weight propagation along a minimal map whose domain sits in one degree.

    Checks that the columns share one degree and returns `propagate`'s
    result, which for such a map runs no Nakayama check: minimal means
    linearly independent, and the elimination raises MinimalityError when
    the columns are not.
    """
    if len(set(matrix.domain.basis_degrees)) != 1:
        raise InputError("columns do not share a single degree")
    return propagate(matrix, weights, order)


def propagate(matrix, weights, order):
    """Weight propagation along a minimal map (domain in any degrees).

    A map whose columns span more than one degree is checked for minimality
    first; otherwise minimal means linearly independent, and the elimination
    raises MinimalityError when the columns are not.  The map is packed
    once, and the check and the elimination share its packed columns.  The
    columns of the rebased matrix come grouped by degree, the classes in
    order of first occurrence among the columns; within a class they are
    sorted by leading term, increasing for position-up orderings and
    decreasing for position-down.
    """
    ring = matrix.domain.ring
    weights = _validate_weights(weights, matrix.codomain.rank, ring, "codomain weight list")
    check_order(order)
    codec, (columns,) = _packed_chain([matrix], order)
    if _fails_nakayama(matrix.codomain, matrix.domain, codec, columns):
        raise MinimalityError(_NOT_MINIMAL)
    return _propagate(matrix.codomain, matrix.domain, weights, codec, columns)[0]


def _propagate(codomain, domain, weights, codec, columns):
    """propagate without checks: the weights are validated, and the map is
    minimal or has its columns in one degree (the elimination checks those).

    columns are the columns, packed by codec, of a map from domain to
    codomain: packed dicts, or a rebase's `packed._RowPacked`; codec's order
    is the one propagated under.  A packed term is its own order key, so
    the image's terms sort as plain ints.  Degrees share no term, so each
    degree class of columns is eliminated on its own, over that class's
    terms only, in decreasing order (see `_block_leads` and
    `_row_block_leads`).  The pivots of the echelon forms are the leading
    terms of G, whose columns are the rows of the reduced echelon forms,
    and fewer pivots than columns mean dependent columns.  G is the
    identity at the pivots, so C^-1[k][j] is column j's coefficient at G_k's
    pivot, and neither C^-1 nor the weights need the back-substitution:
    row k of C^-1 is the term vector of G_k's pivot, the coefficients the
    class's columns have there, over the common denominator the columns
    were scaled to ints by, reduced by the gcd of that denominator and every
    vector entry.  Only the leading terms of G are unpacked.  Returns
    (result, (C^-1's rows by class, as `_TermCodec.rebased` takes them, and
    their denominator)).  The ScalarMatrix C^-1 (see `_inverse_matrix`), C
    (see `_inverted`) and G = M @ C (see `_sorted_matrix`) are built on
    first read, so the result keeps no elimination.
    """
    ring = domain.ring
    classes = {}
    for j, d in enumerate(domain.basis_degrees):
        classes.setdefault(d, []).append(j)
    packed_rows = isinstance(columns, _RowPacked)
    if packed_rows:
        scale = columns.scale
    else:
        integral, scale = _integral(columns)
    up = codec.order.is_position_up
    leads, degrees, inverse = [], [], []
    for d, cols in classes.items():
        if packed_rows:
            pivots = _row_block_leads(columns, cols)
        else:
            pivots = _block_leads([integral[j] for j in cols])
        keys, vectors = zip(*pivots)
        if up:
            keys, vectors = keys[::-1], vectors[::-1]
        leads += keys
        degrees += [d] * len(cols)
        inverse.append((cols, vectors))
    if scale != 1:
        g = gcd(scale, *(x for _, vectors in inverse for v in vectors for x in v.values()))
        if g > 1:
            inverse = [(cols, [{i: x // g for i, x in v.items()} for v in vectors]) for cols, vectors in inverse]
            scale //= g

    rebased = FreeModuleSpec(ring, degrees)
    return PropagationResult(
        partial(_inverse_matrix, inverse, scale),
        tuple(
            vector_add(ring.monomial_weight(t.monomial), weights[t.index])
            for t in map(codec.unpack, leads)
        ),
        rebased,
        lambda inverse: _inverted(inverse, degrees, domain.basis_degrees),
        partial(_sorted_matrix, codec, columns, codomain, rebased),
    ), (inverse, scale)


# The density, nonzeros over columns times terms, from which a degree block
# takes `pivot_scan` rather than `Echelon`.  Measured on the blocks of the
# benchmark's walks: the blocks of 6 to 35 columns of the Koszul duals
# that `forward` walks are at least 0.94 dense (seeds 1-12), and the scan
# took a third of Echelon's time on them (the 33 such blocks of seeds 1-3,
# best of 5 passes: 45 ms against 132 ms); the blocks of 8 to 35 columns
# that `resolve` walks are 0.13-0.31 dense, and the scan took six times
# Echelon's time (the 21 such blocks of seeds 1-3, best of 10 passes: 33
# ms against 5.7 ms).  Smaller blocks cost little either way.
_DENSE = 0.5


def _block_leads(block):
    """The pivots of one degree block's packed dict columns of ints, with their term vectors.

    The pivot terms are those at which the block's coefficient matrix,
    over its terms in decreasing order, gains rank; a term's vector holds
    the coefficients the columns have there, as a dict {column position:
    nonzero coefficient}.  A block at least `_DENSE` nonzero finds them by
    `pivot_scan` over the term vectors (`_scanned`), and any other by
    `Echelon` over the columns, each term keyed by its negation so that
    the largest term leads.  Returns the (pivot term, term vector) pairs in
    decreasing term order.  Raises MinimalityError when the columns are
    dependent.
    """
    terms = {t for col in block for t in col}
    if sum(map(len, block)) >= _DENSE * len(block) * len(terms):
        terms = sorted(terms, reverse=True)
        return _scanned([(t, tuple([col.get(t, 0) for col in block])) for t in terms], len(block))
    ech = Echelon()
    for col in block:
        ech.add({-t: x for t, x in col.items()})
    if ech.rank < len(block):
        raise MinimalityError(_NOT_MINIMAL)
    keys = [-k for k in sorted(ech.pivots)]
    return list(zip(keys, _term_vectors(block, keys)))


def _scanned(vectors, count):
    """`_block_leads` by `pivot_scan`, over count columns given as (term, tuple term vector) pairs, terms decreasing."""
    kept = pivot_scan([v for _, v in vectors], count)
    if len(kept) < count:
        raise MinimalityError(_NOT_MINIMAL)
    return [(vectors[k][0], {i: x for i, x in enumerate(vectors[k][1]) if x}) for k in kept]


def _term_vectors(block, keys):
    """The term vectors of the block's packed dict columns at keys, as dicts {column position: nonzero coefficient}."""
    at = {t: k for k, t in enumerate(keys)}
    vectors = [{} for _ in keys]
    for i, col in enumerate(block):
        for t, x in col.items():
            if t in at:
                vectors[at[t]][i] = x
    return vectors


def _row_block_leads(rows, cols):
    """`_block_leads` of the columns cols of a rebased map held in row slots (a `packed._RowPacked`).

    Each nonzero int is unpacked once, and the block is transposed: a term
    vector is one row of the unpacked ints that the columns have at one
    packed monomial, zeros where a column has none, and its term is that
    monomial plus the row's index field.  That gives the block's count of
    terms and, if the block is dense enough, the term vectors `pivot_scan`
    takes in decreasing term order; a sparser block takes `_block_leads`'
    `Echelon` route on its unpacked dicts.
    """
    unpack, tags, count = rows.slots.unpack, rows.tags, rows.slots.count
    unpacked = [{m: unpack(v) for m, v in rows.columns[j].items() if v} for j in cols]
    zero = (0,) * count
    vectors = [
        (m + tag, v)
        for m in set().union(*unpacked)
        for tag, v in zip(tags, zip(*[col.get(m, zero) for col in unpacked]))
        if any(v)
    ]
    if sum(count - d.count(0) for col in unpacked for d in col.values()) >= _DENSE * len(cols) * len(vectors):
        vectors.sort(reverse=True)
        return _scanned(vectors, len(cols))
    return _block_leads([{m + tag: x for m, d in col.items() for tag, x in zip(tags, d) if x} for col in unpacked])


def _inverse_matrix(inverse, scale):
    """C^-1 as a ScalarMatrix, from its rows by degree class over the denominator scale (see `_propagate`)."""
    n = sum(len(cols) for cols, _ in inverse)
    rows = []
    for cols, vectors in inverse:
        for vec in vectors:
            row = [0] * n
            for i, x in vec.items():
                row[cols[i]] = x if scale == 1 else _quotient(x, scale)
            rows.append(row)
    return ScalarMatrix._unchecked(rows)


def _sorted_matrix(codec, columns, codomain, rebased, change):
    """G, the sorted basis matrix from codomain to rebased, as M @ C.

    columns are the packed columns of M, packed by codec, and change is C,
    which is multiplied in by `_TermCodec.product` with its columns packed
    as constant terms.
    """
    return codec.matrix(list(codec.product(columns, _constant_columns(codec, change))), codomain, rebased)


def _constant_columns(codec, scalars):
    """The columns of the ScalarMatrix scalars packed by codec as constant terms, entry i at index i.

    A constant factor adds no degree, so a codec that holds a map holds
    its product with a matrix packed as constant terms.
    """
    unit = unit_monomial(codec.ring.num_vars)
    constants = [codec.term(unit, i) for i in range(scalars.num_rows)]
    return [{t: x for t, x in zip(constants, col) if x} for col in zip(*scalars.rows)]


def _inverted(inverse, row_degrees, column_degrees):
    """C from C^-1: the inverse of the invertible scalar matrix `inverse`, one `Echelon` per degree block.

    Row r of inverse lies in degree row_degrees[r] and column j in
    column_degrees[j], and inverse is zero between degrees, so each degree's
    block of rows and columns is square and inverts on its own.  Within a
    block M of size n, row j of [M^T | I] is the nonzeros of column j of M
    at positions 0 to n - 1 and the unit vector e_j at position n + j, and
    the reduced echelon form is [I | (M^T)^-1], whose row r holds
    M^-1[j][r] at position n + j.  Entries are ints where they are
    integral, as everywhere.
    """
    out = [[0] * inverse.num_rows for _ in range(inverse.num_rows)]
    for d in dict.fromkeys(column_degrees):
        rows = [r for r, e in enumerate(row_degrees) if e == d]
        cols = [j for j, e in enumerate(column_degrees) if e == d]
        n = len(cols)
        ech = Echelon()
        for k, j in enumerate(cols):
            vec = {i: x for i, r in enumerate(rows) if (x := inverse.rows[r][j])}
            vec[n + k] = 1
            ech.add(vec)
        for i, row in ech.reduced_rows().items():
            for pos, x in row.items():
                if pos >= n:
                    out[cols[pos - n]][rows[i]] = x
    return ScalarMatrix._unchecked(out)


def propagate_forward(matrix, weights, order):
    """Weight propagation from the domain to the codomain of a map.

    Requires the dual map to be minimal.  Checks the weights and the order,
    packs the map once and takes the one step of `_walk_forward`, which
    checks the dual map and runs backward propagation on it with negated
    weights under the flipped (up <-> down) ordering.
    """
    weights = _validate_weights(weights, matrix.domain.rank, matrix.domain.ring, "domain weight list")
    check_order(order)
    codec, (columns,) = _packed_chain([matrix], order)
    ((_, result),) = _walk_forward([(matrix.codomain, matrix.domain, codec, columns)], weights)
    return result


def _walk(steps, weights):
    """Backward propagation along consecutive maps of a complex, unchecked.

    steps yields one (codomain, domain, codec, columns) per map: its
    modules, and its packed columns with the codec that packed them, under
    the order propagated under; the codecs of consecutive maps share one
    layout.  The walk rebases each map d after the first onto the previous
    step's rebased module as the product C^-1 @ d with that step's C^-1,
    through `_TermCodec.rebased` with C^-1 as `_propagate` hands it on, its
    pivots' term vectors over one denominator, and yields (build,
    PropagationResult) per step, drawing each map from steps only when its
    step is taken.  build is a function of no argument that gives the
    step's rebased map, by `_TermCodec.matrix`; the walk itself never calls
    it, nor builds any ScalarMatrix.
    """
    inverse = None
    for codomain, domain, codec, columns in steps:
        if inverse is not None:
            columns = codec.rebased(*inverse, columns)
            codomain = spec
        result, inverse = _propagate(codomain, domain, weights, codec, columns)
        yield partial(codec.matrix, columns, codomain, domain), result
        weights, spec = result.weights, result.rebased_module


def _walk_forward(steps, weights):
    """Forward propagation along the maps of steps: `_walk` on the dual complex.

    steps are as for `_walk`; the walk runs under the flipped order.  Each
    dual map is packed by re-tagging its map's packed columns into a codec
    of the same layout under the flipped order (`_TermCodec.transposed`),
    so no dual PolyMatrix is built until a step's map is read.  Each step on
    a dual is read back (see `_read_back`) by transposing C and C^-1,
    negating the weights and dualizing the modules.  Each dual map is
    checked by the rule of `propagate`: a dual whose columns span more than
    one degree goes through the Nakayama check, as given, before its step,
    and any other is left to its step's elimination, which runs on the
    rebased dual.  The rebased dual differs from the dual by an automorphism
    of the codomain (an invertible degree-preserving scalar matrix), so both
    are minimal or neither is.  Either way the MinimalityError says that the
    dual map is not minimal.
    """

    def duals():
        for codomain, domain, codec, columns in steps:
            dual_codec, dual_columns = codec.transposed(columns, codomain.rank)
            dual_codomain, dual_domain = domain.dual(), codomain.dual()
            if _fails_nakayama(dual_codomain, dual_domain, dual_codec, dual_columns):
                raise MinimalityError(_NOT_MINIMAL)
            yield dual_codomain, dual_domain, dual_codec, dual_columns

    try:
        for build, inner in _walk(duals(), negate_weights(weights)):
            yield _read_back(build, inner)
    except MinimalityError:
        raise MinimalityError("dual map is not minimal; cannot propagate forward") from None


def _read_back(build, inner):
    """A step of `_walk` on a dual map, as (build, PropagationResult) of the forward step.

    The step's map, the dual of the rebased dual, and C and C^-1, the
    transposes of the dual run's, are built on first read, like the dual
    run's own.
    """
    return (lambda: dual_map(build())), PropagationResult(
        lambda: inner.inverse_change_of_basis.transpose(),
        negate_weights(inner.weights),
        inner.rebased_module.dual(),
        lambda inverse: inner.change_of_basis.transpose(),
        lambda change: inner.sorted_matrix,
    )


def propagate_resolution(differentials, start_index, start_weights, order):
    """Weight propagation along an entire minimal free resolution.

    `differentials` is a `Resolution` or a sequence of the maps d_1 ... d_m
    of a minimal free resolution, and `start_index` names the free module
    whose basis-of-weight-vectors list `start_weights` is known.  Weights
    move backward along the later differentials and forward (through duals)
    along the earlier ones, with each step's change of basis folded into the
    next matrix.  Returns the
    weight lists for all modules F_0 ... F_m.  per_module[start_index] is
    `start_weights` in the input basis; every other per_module[i] lists the
    weights of the rebased basis of F_i, steps[i].result.rebased_module (the
    sorted Groebner basis columns of that step), not of the input basis, so
    it is in general not a start weight list for the input differentials at i.

    The differentials are checked once: they must chain, compose to zero and
    each be minimal.  Each is packed once, under order, and the checks and
    the walk share its packed columns.  The differentials of a Resolution from
    `minimal_resolution`, passed as that Resolution or as its `differentials`
    tuple, were proved all that as they were computed and are not checked
    again; a copy, a slice or any other sequence, also inside a Resolution
    built by hand, is checked in full.  Under the order it was built
    under, such a chain is walked on the packed columns of its pruning,
    which the walk only reads; under another order on those columns
    re-keyed under it.  Either way no map is packed or unpacked.

    If a forward step hits a non-minimal dual mid-resolution, a
    ResolutionStepError is raised carrying the weight lists computed so far.
    """
    chain = differentials.differentials if isinstance(differentials, Resolution) else differentials
    differentials = list(chain)
    m = len(differentials)
    if not differentials:
        raise InputError("resolution has no differentials")
    try:
        start_index = operator.index(start_index)
    except TypeError:
        raise InputError("start index must be an integer, got %r" % (start_index,)) from None
    if not 0 <= start_index <= m:
        raise InputError("start index %d outside 0..%d" % (start_index, m))
    modules = [differentials[0].codomain] + [d.domain for d in differentials]
    ring = modules[0].ring
    start_weights = _validate_weights(start_weights, modules[start_index].rank, ring, "starting weight list")
    check_order(order)
    if type(chain) is not _MinimalChain:
        codec, packed = _checked_chain(differentials, order)
        for k, (d, columns) in enumerate(zip(differentials, packed)):
            if not all(_nakayama_kept(codec, d.codomain, columns, d.domain.basis_degrees)):
                raise MinimalityError("differential %d is not a minimal map" % (k + 1))
    elif chain.codec.order == order:
        # a copy of the chain's list: the walk lets each map's columns go
        codec, packed = chain.codec, list(chain.packed)
    else:
        # the same fields and indices under order: each term is re-keyed
        old = chain.codec
        codec = _TermCodec(ring, order, old.indices, old.capacity)
        packed = [[codec.repacked(old, column) for column in columns] for columns in chain.packed]

    def walked(ks):
        for k in ks:
            d = differentials[k]
            yield d.codomain, d.domain, codec, packed[k]
            # the walk has passed map k: let its packed columns go
            packed[k] = None

    per_module = [None] * (m + 1)
    per_module[start_index] = start_weights
    steps = {}

    backward = _walk(walked(range(start_index, m)), start_weights)
    for target, (build, result) in enumerate(backward, start_index + 1):
        log.debug("backward step onto module %d", target)
        per_module[target] = result.weights
        steps[target] = ResolutionStep(target, build, result)

    forward = _walk_forward(walked(reversed(range(start_index))), start_weights)
    for target in reversed(range(start_index)):
        log.debug("forward step onto module %d", target)
        try:
            build, result = next(forward)
        except MinimalityError as exc:
            raise ResolutionStepError(
                "forward propagation failed at module %d: %s" % (target, exc),
                step=target,
                partial=tuple(per_module),
            ) from exc
        per_module[target] = result.weights
        steps[target] = ResolutionStep(target, build, result)

    return ResolutionWeights(tuple(per_module), steps)


def propagate_graded_components(degree, matrix, weights, order):
    """Weights of one graded component of the cokernel of a presentation.

    Runs Buchberger on the image, stopped at the requested degree (a
    leading term dividing a degree-d term lies at or below d under the
    ring's positive functional), and finds the standard monomials of that
    degree.  By Macaulay's basis theorem their residues form a basis of the
    component; each is a single module term, so its weight is the weight of
    its monomial plus the weight attached to its row.  Returns these weights
    sorted by term, increasing for position-up orderings and decreasing for
    position-down, which is the order `propagate` gives on the matrix of
    standard monomials.

    Checks the degree, the weights and the order, then packs the map once.
    Only the leading terms matter, so the run carries no tails and its
    basis is neither made monic nor inter-reduced: it top-reduces each item,
    so no leading term it adds is divisible by an earlier one, and a later
    one, of no smaller functional, divides an earlier one only if the two
    are equal.  So its leading terms are those of the reduced basis
    `buchberger` returns.  The search (`groebner._standard_search`) carries
    each term's weight as it goes, so no standard monomial is unpacked.
    """
    ring = matrix.domain.ring
    degree = _int_vector(degree, "degree", ring.degree_length)
    weights = _validate_weights(weights, matrix.codomain.rank, ring, "codomain weight list")
    check_order(order)
    codec, (columns,) = _packed_chain([matrix], order)
    codec, _, basis, _, _ = _buchberger_run(codec, columns, matrix.domain.basis_degrees, matrix.codomain, degree, False)
    lts = [codec.unpack(max(work)) for work, _ in basis]
    _, _, found = _standard_search(matrix.codomain, order, lts, degree, weights)
    found = tuple(found)
    return found[::-1] if order.is_position_up else found
