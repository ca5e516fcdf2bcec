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
degree block finds by the elimination that suits the form its map comes
in (see below), and row k of C^-1 is the term vector
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
built them and so has proved both already; a map in one degree whose
entries are independent up to a scalar is checked on one coordinate per
nonzero cell (see `_check_minimal`).  A backward step is not checked
again, since rebasing a minimal map by an invertible scalar matrix keeps it
minimal; a forward step checks its dual map by the same rule as
`propagate`, since the dual of a minimal map need not be minimal.

Each step runs on packed terms (see `packed`).  Every public call packs each
map at most once, under the order it propagates under: `propagate_resolution`
reads each map's cells once (`packed._Cells`), sizes one codec for the
chain from them (`groebner._chain_codec`), whose fields hold a product of
consecutive maps and whose index field holds max(rows, cols), and numbers
the distinct entries up to a scalar.  A map is packed by its first
reader, the test that the maps compose to zero, a minimality run or the
walk, which lets each map go once it has passed it.  That test sums each
composite formally over the numbered entries (`groebner._checked_chain`),
so an explicit Koszul-type complex, whose composites cancel as f_a * f_b -
f_b * f_a, is checked without packing or multiplying a term.  A chain that
`minimal_resolution` proved is walked on the packed columns its pruning
already built and checked, with a codec sized the same way, so nothing is
packed, and its matrices are unpacked only when first read; under any
other order than its own each term is re-keyed (`_TermCodec.repacked`)
into a codec of the same fields and indices under that order.  The walk
takes (codomain, domain, codec, columns) steps, no PolyMatrix, and rebases
each map as the product C^-1 @ d through `_TermCodec.rebased`, which packs
C^-1's columns as constant terms straight from its term vectors, over one
common denominator: a constant factor adds no degree, so the map's own
codec holds every term of the product and the fields never need widening.
The forward walk packs each dual map from the map's cells or re-tags its
packed columns (`_TermCodec.transposed`), so no dual PolyMatrix is built
until a step's map is read.

The rebase decides once which elimination each of its degree blocks
takes, by the form it hands the map on in.  A dense C^-1 takes the
rebase's row-packed path (`packed._row_slots`), and the rebased map
stays in its row slots (`packed._RowPacked`), one int per monomial of a
column, one slot per row: each block's term vectors, in decreasing term
order, come from those ints a group at a time (`packed._RowPacked.term_groups`)
to `linalg.pivot_scan` (`_row_block_leads`), which reads no group past
full rank, so such a step goes from rebase to pivots to the next rebase
in ints, with no dict and no Fraction.  A map in packed dicts, the first
step's or a rebase's by a sparse C^-1, takes `linalg.Echelon` on every
block (`_block_leads`), each column as the packed dict it is.  Both
top-reduce: the scan a term vector at its lowest nonzero slot, `Echelon`
a row at its smallest key.  No block measures its density again: on the
benchmark's walks (seed 1) 9 dict blocks of `resolve` and 4 of
`forward`, none wider than 7 columns, are at least half nonzero, and 2
row-packed blocks of `resolve`, of 15 and 21 columns, are less.  A
packed term is its own order key, so either elimination sorts the
image's terms as plain ints.

The walk unpacks only the leading terms of G.  C^-1, G, C and each step's
rebased map are built on first read (see `PropagationResult` and `ResolutionStep`),
and G and the maps are unpacked by `_TermCodec.matrix` only when their
entries are read, a rebased map held in row slots into packed dicts first;
every returned value keeps exponent tuples.

Graded components (`propagate_graded_components`) need only the leading
terms of a Groebner basis bounded at the degree and the weight of each
standard monomial.  The bounded run without tails gives those leading
terms, with no monic pass and no back-substitution, and the
standard-monomial search (`groebner._standard_search`) carries each term's
weight as it goes, so that only the leading terms are unpacked.

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
    _chain_codec,
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
from .packed import _Cells, _integral, _RowPacked, _TermCodec
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
    terms only, in decreasing order: by `Echelon` on packed dicts
    (`_block_leads`) and by `pivot_scan` on row slots
    (`_row_block_leads`).  The pivots of the echelon forms are the leading
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
    held, scale = (columns, columns.scale) if packed_rows else _integral(columns)
    block_leads = _row_block_leads if packed_rows else _block_leads
    up = codec.order.is_position_up
    leads, degrees, inverse = [], [], []
    for d, cols in classes.items():
        keys, vectors = zip(*block_leads(held, cols))
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

    rebased = FreeModuleSpec._unchecked(ring, degrees)
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


def _block_leads(columns, cols):
    """The pivots of the degree block cols of packed dict columns of ints, with their term vectors, by `Echelon`.

    The pivot terms are those at which the block's coefficient matrix,
    over its terms in decreasing order, gains rank; a term's vector holds
    the coefficients the block's columns have there, as a dict {position
    in cols: nonzero coefficient}.  `Echelon` takes each column as the
    packed dict it is, each term keyed by its negation so that the largest
    term leads.  Returns the (pivot term, term vector) pairs in decreasing
    term order.  Raises MinimalityError when the columns are dependent.
    """
    block = [columns[j] for j in cols]
    ech = Echelon()
    for col in block:
        ech.add({-t: x for t, x in col.items()})
    if ech.rank < len(block):
        raise MinimalityError(_NOT_MINIMAL)
    at = {-k: i for i, k in enumerate(sorted(ech.pivots))}
    vectors = [{} for _ in at]
    for i, col in enumerate(block):
        for t, x in col.items():
            if t in at:
                vectors[at[t]][i] = x
    return list(zip(at, vectors))


def _row_block_leads(rows, cols):
    """`_block_leads` of the columns cols of a `packed._RowPacked`, by `pivot_scan` over its term vectors.

    `packed._RowPacked.term_groups` gives them in the groups the scan
    takes, and the kept terms are the pivots.
    """
    kept = pivot_scan(rows.term_groups(cols), len(cols))
    if len(kept) < len(cols):
        raise MinimalityError(_NOT_MINIMAL)
    return [(t, {i: x for i, x in enumerate(v) if x}) for t, v in kept]


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
    reads its cells and takes the one step of `_walk_forward`, which packs
    the dual map from them, checks it and runs backward propagation on it
    with negated weights under the flipped (up <-> down) ordering.
    """
    weights = _validate_weights(weights, matrix.domain.rank, matrix.domain.ring, "domain weight list")
    check_order(order)
    cells = _Cells(matrix)
    codec = _chain_codec([matrix], order, [cells])
    ((_, result),) = _walk_forward([(matrix.codomain, matrix.domain, codec, cells)], weights)
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

    steps are as for `_walk`, except that columns may be `packed._Cells`; the
    walk runs under the flipped order.  Each dual map is packed from the
    map's cells, transposed, or re-tagged from its packed columns
    (`_TermCodec.transposed`), so no dual PolyMatrix is built until a step's
    map is read.  Each step on a dual is read back (see `_read_back`) by
    transposing C and C^-1, negating the weights and dualizing the modules.
    Each dual map is checked by the rule of `propagate`: a dual whose
    columns span more than one degree goes through the Nakayama check, as
    given, before its step, and any other is left to its step's elimination,
    which runs on the rebased dual.  The rebased dual differs from the dual
    by an automorphism of the codomain (an invertible degree-preserving
    scalar matrix), so both are minimal or neither is.  Either way the
    MinimalityError says that the dual map is not minimal.
    """

    def duals():
        for codomain, domain, codec, columns in steps:
            if type(columns) is _Cells:
                dual_codec = codec.flipped()
                dual_columns = dual_codec.columns(columns.transposed())
            else:
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


def _check_minimal(differentials, codec, packed, forms, polynomials):
    """Raise MinimalityError naming the first differential that is not a minimal map.

    packed, forms and polynomials are `groebner._checked_chain`'s.  Once
    some map has its columns in one degree, one `Echelon` adds the
    numbered polynomials f_p in turn and stops at the first that depends
    on those before it.  A map in one degree whose entries are all
    numbered below that one is handed to `_nakayama_kept` as the vectors
    {(row, p): scalar}: (row, p) -> f_p * e_row is injective, so the
    keep-flags are those of the packed columns, which every other map is
    handed, packing those the chain check left as cells into packed.
    """
    independent = None
    for k, (d, columns, form) in enumerate(zip(differentials, packed, forms)):
        degrees = d.domain.basis_degrees
        if len(set(degrees)) <= 1:
            if independent is None:
                ech = Echelon()
                independent = next((p for p, f in enumerate(polynomials) if not ech.add(f)), len(polynomials))
            if all(p < independent for col in form for _, p, _ in col):
                columns = [{(r, p): x for r, p, x in col} for col in form]
        if type(columns) is _Cells:
            columns = packed[k] = codec.columns(columns)
        if not all(_nakayama_kept(codec, d.codomain, columns, degrees)):
            raise MinimalityError("differential %d is not a minimal map" % (k + 1))


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
    each be minimal.  Each is packed once, under order, by its first reader, a
    check or the walk (as its dual on a forward step), and later readers share
    it (see `_check_minimal` for the minimality checks).  The differentials of
    a Resolution from `minimal_resolution`, passed as that Resolution or as
    its `differentials` tuple, were proved all that as they were computed and
    are not checked again; a copy, a slice or any other sequence, also inside
    a Resolution built by hand, is checked in full.  Under the order it was
    built under, such a chain is walked on the packed columns of its pruning,
    which the walk only reads; under another order on those columns re-keyed
    under it.  Either way no map is packed or unpacked.

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
        codec, packed, forms, polynomials = _checked_chain(differentials, order)
        _check_minimal(differentials, codec, packed, forms, polynomials)
        del forms, polynomials
    elif chain.codec.order == order:
        # a copy of the chain's list: the walk lets each map's columns go
        codec, packed = chain.codec, list(chain.packed)
    else:
        # the same fields and indices under order: each term is re-keyed
        old = chain.codec
        codec = _TermCodec(ring, order, old.indices, old.capacity)
        packed = [[codec.repacked(old, column) for column in columns] for columns in chain.packed]

    def walked(ks, pack):
        for k in ks:
            d, columns = differentials[k], packed[k]
            yield d.codomain, d.domain, codec, codec.columns(columns) if pack and type(columns) is _Cells else columns
            # the walk has passed map k: let its cells or packed columns go
            packed[k] = None

    per_module = [None] * (m + 1)
    per_module[start_index] = start_weights
    steps = {}

    backward = _walk(walked(range(start_index, m), True), start_weights)
    for target, (build, result) in enumerate(backward, start_index + 1):
        log.debug("backward step onto module %d", target)
        per_module[target] = result.weights
        steps[target] = ResolutionStep(target, build, result)

    forward = _walk_forward(walked(reversed(range(start_index)), False), start_weights)
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
    basis is neither made monic nor back-substituted: it top-reduces each
    item, so no leading term it adds is divisible by an earlier one, and a
    later one, of no smaller functional, divides an earlier one only if the
    two are equal.  So its leading terms are those of the reduced basis
    that `buchberger` takes from the run with unit tails, at the same
    bound.  The search (`groebner._standard_search`) carries
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
