"""Packed module terms: the int format of the Groebner engine, the walk and the chain checks.

A module term, a monomial with a basis index, is one Python int (Monagan
and Pearce, "Sparse polynomial division using a heap", JSC 2011, and "POLY:
a new polynomial data structure for Maple 17", 2013) inside `groebner`'s
division, Buchberger and back-substitution, inside the propagation walk of
`propagate`, inside the tests that consecutive maps compose to zero, and
inside `groebner._standard_search`, whose search over the variables
grows a partial term by one add per exponent step and cuts it at the first
leading term that divides it.  A `_TermCodec`, built once per run, gives
every exponent a fixed-width field with a guard bit on top and the basis
index a field of its own, placed so that the int itself is the order key
of `ModuleTermOrder.sort_key`.
Multiplying a term by a monomial is one int add, and "same index and
divides" is one subtraction and one mask test on the guard bits.  Under
grevlex the fields above the exponents hold their prefix sums e_1 + ... +
e_k, which order exactly like `RingSpec.monomial_key`; they are stored, not
recomputed by a multiply and a mask per comparison, so the int is the key
under lex and grevlex alike.

A codec holds every term whose total degree is within its capacity; the
caller proves that bound, or lets `_pseudo_divide` find a term that
outgrew it: a popped term with a guard bit set raises `_FieldOverflow`, so
no field overflows silently.  `_TermCodec.widened` gives the same layout
with wider fields, to which the caller repacks what it holds.  Outside the
division, one kernel multiplies packed matrices: `_TermCodec.product`
computes A @ B on packed columns by adding packed terms, one dict update
per pair of terms that meet.  It serves the chain checks, the composite
guard of `schreyer._pruned` and G = M @ C.  `_TermCodec.rebased` gives the
walk's rebase, the product C^-1 @ d of a constant matrix and a map, whose
constant terms add no degree, so the map's own codec holds the product.
Where C^-1 is dense it packs the rows too, in the one layout of signed
slots, `linalg._Slots`: one int per monomial, one slot per row, each slot
wider than any sum it takes, so that an int is 0 exactly when every slot
is; elsewhere it runs `product`.  The rebase packs C^-1's columns straight
from the walk's term vectors and hands the product on in those ints, a
`_RowPacked`, whose degree blocks the walk reads without any dict and
which is unpacked into dicts only when the map or G is read.  The
standard-monomial search carries a torus weight in the same layout, one
slot per component, and the walk's pivot scan a term's coefficients in a
degree block, one slot per column (`linalg.pivot_scan`), a group of terms
at a time (`_RowPacked.term_groups`).  A map's cells are read once per
public call (`_Cells`), and it is packed at most once, by its first
reader, each distinct nonzero entry and monomial once, for every reader of
that call: the test that consecutive maps compose to zero, the minimality
run and the walk; a chain from `groebner.minimal_resolution` keeps its
pruning's packed columns for the walk.  The forward walk runs on the
transpose, which the `flipped` codec packs from the transposed cells, or
`_TermCodec.transposed` re-tags from packed columns.  Only this module
knows the bit layout; `schreyer._FrameLayout` stacks chains of basis
indices below a codec's packed terms, and sees those only as ints whose
sums multiply and whose differences `divmask` tests.
Everything else, `Polynomial`, `ModuleTerm`, `ModuleElement`, `PolyMatrix`
and every value the library returns or prints, keeps exponent tuples: a
codec packs its inputs on entry and unpacks what it returns, through a memo
of the distinct terms it has met; a map (`_TermCodec.matrix`, the one
route to a PolyMatrix) is unpacked only when its entries are first read.
"""

import bisect
import operator
from itertools import chain
from math import gcd, lcm

from .errors import InternalError
from .linalg import _Slots, _quotient
from .modules import ModuleTerm, PolyMatrix
from .rings import Polynomial, exact, exact_quotient, monomial_lcm

# Value bits of an exponent field in a fresh codec: total degrees up to 127.
_FIELD_BITS = 7


# The zero entry that every empty cell of an unpacked map shares.
_ZERO = Polynomial._from_exact({})


class _FieldOverflow(InternalError):
    """A packed term outgrew its exponent fields."""


class _TermCodec:
    """Packs the module terms of one run into single ints.

    A term is a monomial over ring with an index below `indices`: an index
    of the module a run divides in, or of the tail it carries along, or a
    row of the matrices it packs, which share one layout, so that one packed
    monomial shifts any of them.  Each
    exponent field holds `bits` value bits under a guard bit, so every term
    of total degree up to `capacity` = 2**bits - 1 packs, and capacity is
    at least the bound the codec is built for.  From the least significant
    bit up: the index field for top-* orders; the exponents, e_n lowest;
    under grevlex the prefix sums e_1 + ... + e_k, k = 1 lowest and the
    total degree highest; the index field for pot-* orders.  The index
    field holds the index under *-up and indices - 1 - index under *-down,
    and has a guard bit too.

    So the packed term is the order key: a > b exactly when the term a is
    bigger under order.sort_key(ring).  A term times a monomial packs to the
    sum of their packings while the product's total degree is within
    capacity.  b - a has no bit of `divmask` set exactly when a and b have
    the same index and a's monomial divides b's, and a sum of packings has a
    bit of `guards` set exactly when a field has overflowed.  `unpack`
    memoizes, so each distinct term is unpacked once per codec.
    """

    __slots__ = (
        "ring", "order", "indices", "bits", "capacity", "divmask", "guards",
        "_units", "_shifts", "_low", "_index_shift", "_index_mask", "_down", "_terms",
    )

    # `_pseudo_divide` looks a term's divisors up by term & bucketmask: a
    # codec keeps them all in one bucket
    bucketmask = 0

    def __init__(self, ring, order, indices, bound):
        n = ring.num_vars
        self.ring, self.order, self.indices = ring, order, indices
        self.bits = bits = max(_FIELD_BITS, bound.bit_length())
        self.capacity = (1 << bits) - 1
        width = bits + 1
        fields = 2 * n if ring.term_order == "grevlex" else n
        index_width = max(indices, 1).bit_length() + 1
        position_first = order.kind.startswith("pot")
        self._low = low = 0 if position_first else index_width
        self._index_shift = fields * width if position_first else 0
        self._index_mask = (1 << index_width) - 1
        self._down = not order.is_position_up
        self._shifts = [low + (n - 1 - i) * width for i in range(n)]
        units = []
        for i, shift in enumerate(self._shifts):
            unit = 1 << shift
            if fields > n:
                for k in range(i, n):
                    unit |= 1 << (low + (n + k) * width)
            units.append(unit)
        self._units = units
        guards = [1 << (low + f * width + bits) for f in range(fields)]
        self.guards = sum(guards)
        self.divmask = sum(guards[:n]) | (self._index_mask << self._index_shift)
        self._terms = {}

    def widened(self, bound, indices=0):
        """A codec of the same layout holding bound, with at least max(indices, self.indices) indices.

        When bound exceeds the capacity, the fields take at least twice the bits.
        """
        if bound > self.capacity:
            bound = max(bound, (1 << (2 * self.bits)) - 1)
        return _TermCodec(self.ring, self.order, max(self.indices, indices), max(bound, self.capacity))

    def _tag(self, index):
        """The index field of a term at index, in place."""
        return (self.indices - 1 - index if self._down else index) << self._index_shift

    def unit(self, k):
        """The packed monomial x_k: what a packed term gains per unit step of its k-th exponent."""
        return self._units[k]

    def field_shift(self, old):
        """How far right a packed monomial of codec old, of this ring, order and bits, moves to fit this codec."""
        return old._low - self._low

    def term(self, mono, index):
        """The term (mono, index) packed."""
        return sum(map(operator.mul, mono, self._units)) | self._tag(index)

    def packed(self, element):
        """The terms of a ModuleElement as a packed dict, in support order."""
        return {self.term(t.monomial, t.index): c for t, c in element.support()}

    def columns(self, cells):
        """The columns of a map as packed dicts, entry i at index i, from its `_Cells`.

        Each distinct nonzero entry object is packed once, since a loaded
        matrix shares its equal entries, and each distinct monomial once,
        since an unpacked one does not; each nonzero cell then tags the
        packed terms of its entry with its row.
        """
        units = self._units
        monomials, entries = {}, []
        for p in cells.entries:
            terms = []
            for mono, c in p.terms.items():
                t = monomials.get(mono)
                if t is None:
                    t = monomials[mono] = sum(map(operator.mul, mono, units))
                terms.append((t, c))
            entries.append(terms)
        tags = [self._tag(i) for i in range(cells.rows)]
        return [{t | tags[i]: c for i, k in col for t, c in entries[k]} for col in cells.columns]

    def flipped(self):
        """The codec of this layout under the flipped order, which packs a map's transpose (`modules.dual_map`)."""
        return _TermCodec(self.ring, self.order.flipped(), self.indices, self.capacity)

    def transposed(self, columns, rows):
        """The `flipped` codec, and the transpose's packed columns, as it packs `_Cells.transposed`.

        columns are the packed columns of a map with `rows` rows, and the
        result's dicts come in the same insertion order as `columns` gives.
        The flipped order changes only how an index is tagged, so each term
        keeps its packed monomial and takes its column's index as its own.
        The codec must index max(rows, columns) for both to fit.
        """
        flipped = self.flipped()
        field = self._index_mask << self._index_shift
        out = {self._tag(i): {} for i in range(rows)}
        for j, col in enumerate(columns):
            tag = flipped._tag(j)
            for t, c in col.items():
                old = t & field
                out[old][t - old | tag] = c
        return flipped, list(out.values())

    def product(self, a, b):
        """The columns of A @ B as packed dicts, one at a time.

        a and b are the packed columns of A and B.  The term of B's column j
        at index k, stripped of its index field, is a packed monomial, so it
        shifts every term of A's column k by one add, and each pair of terms
        that meet updates one dict entry; only nonzero entries meet, and the
        coefficients are multiplied as they come.  The columns come lazily,
        so a caller testing the product for zero stops at the first nonzero
        one.  The codec must hold every product's total degree: the largest
        in A plus the largest in B.
        """
        by_tag = {self._tag(k): list(col.items()) for k, col in enumerate(a)}
        for out in _accumulated(by_tag, b, self._index_mask << self._index_shift):
            yield {s: value for s, value in out.items() if value}

    def rebased(self, inverse, scale, b):
        """The columns of C^-1 @ B, the walk's rebase of the map B by the previous step's C^-1.

        inverse lists the rows of C^-1, k = 0, 1, ..., by degree block: a
        block (cols, vectors) holds one row per term vector, a dict of its
        nonzero entries, whose entry i is the row's entry in column cols[i]
        times scale; the row is 0 in every other column.  Each column of
        C^-1 is one constant term per nonzero entry, at one packed monomial,
        so where C^-1 is dense enough (`_row_slots`) it packs the rows too,
        in the one layout of signed slots, `linalg._Slots`: each column of
        C^-1 is packed by `linalg._Slots.pack`, row k in slot k, each term
        of B then costs one int multiply-add, and the product is returned as
        the accumulated ints, a `_RowPacked`.  Otherwise it is the list of
        `product`'s packed dict columns.
        """
        rows = [v for _, vectors in inverse for v in vectors]
        n = len(rows)
        layout = _row_slots(rows, scale, b)
        tags = [self._tag(k) for k in range(n)]
        start = 0
        if layout is None:
            columns = [{} for _ in range(n)]
            for cols, vectors in inverse:
                for t, v in zip(tags[start:], vectors):
                    for i, x in v.items():
                        columns[cols[i]][t] = x if scale == 1 else _quotient(x, scale)
                start += len(vectors)
            return list(self.product(columns, b))
        slots, b, scale = layout
        by_tag, zeros, field = {}, [0] * n, self._index_mask << self._index_shift
        for cols, vectors in inverse:
            column = zeros[:]
            for i, j in enumerate(cols):
                for k, v in enumerate(vectors, start):
                    column[k] = v.get(i, 0)
                by_tag[tags[j]] = slots.pack(column)
            start += len(vectors)
        out = []
        for col in b:
            acc = {}
            get = acc.get
            for t, c in col.items():
                tag = t & field
                t -= tag
                acc[t] = get(t, 0) + by_tag[tag] * c
            out.append(acc)
        return _RowPacked(out, slots, tags, scale)

    def divides(self, a, b):
        """Whether packed term a has b's index and divides it."""
        return not (b - a) & self.divmask

    def unpack(self, t):
        """The packed term t as a ModuleTerm."""
        term = self._terms.get(t)
        if term is None:
            mono = tuple([(t >> s) & self.capacity for s in self._shifts])
            index = (t >> self._index_shift) & self._index_mask
            term = self._terms[t] = ModuleTerm(mono, self.indices - 1 - index if self._down else index)
        return term

    def split(self, t):
        """(the packed monomial of the packed term t, its index): t less its index field, and the index."""
        field = t >> self._index_shift & self._index_mask
        return t - (field << self._index_shift), self.indices - 1 - field if self._down else field

    def exponents(self, monomial):
        """The exponent tuple of a packed monomial, a term less its index field."""
        return self.unpack(monomial + self._tag(0)).monomial

    def lcm(self, a, b):
        """The packed term lcm(a, b) of two packed terms at one index."""
        mono, index = self.unpack(a)
        return self.term(monomial_lcm(mono, self.unpack(b).monomial), index)

    def entries(self, terms, size, scalar=1):
        """The packed dict terms divided by scalar, as one Polynomial per index below size.

        Every index without a term gets the one shared zero Polynomial.
        """
        entries = {}
        for t, c in terms.items():
            mono, index = self.unpack(t)
            entry = entries.get(index)
            if entry is None:
                entry = entries[index] = {}
            entry[mono] = c if scalar == 1 else exact_quotient(c, scalar)
        out = [_ZERO] * size
        for index, entry in entries.items():
            out[index] = Polynomial._from_exact(entry)
        return out

    def matrix(self, columns, codomain, domain):
        """The PolyMatrix from domain to codomain whose columns are the packed dicts, unpacked when first read.

        The caller guarantees that the columns fit the modules, as for
        `PolyMatrix._unchecked`, and does not change them; see `_PackedMatrix`.
        """
        return _PackedMatrix(self, columns, codomain, domain)

    def repacked(self, old, terms):
        """The dict terms, packed by codec old, packed by this codec."""
        return {self.term(*old.unpack(t)): c for t, c in terms.items()}


class _PackedMatrix(PolyMatrix):
    """A PolyMatrix held as packed columns, its entries unpacked on first read and cached.

    columns are packed by codec: a pruned differential, which
    `groebner._MinimalChain` keeps for the walk, a walk step's rebased map,
    also a `_RowPacked` one, or G = M @ C, so a map that is only walked is
    never unpacked.  `entries`
    is PolyMatrix's own slot, filled by `__getattr__` when it is first read,
    so every later read is a plain slot read and the matrix compares,
    hashes, dualizes and prints as a PolyMatrix of the same entries.
    """

    __slots__ = ("_codec", "_columns")

    def __init__(self, codec, columns, codomain, domain):
        self.codomain, self.domain, self._codec, self._columns = codomain, domain, codec, columns

    def __getattr__(self, name):
        if name != "entries":
            raise AttributeError("%r object has no attribute %r" % (type(self).__name__, name))
        rank = self.codomain.rank
        columns = [self._codec.entries(col, rank) for col in self._columns]
        self.entries = entries = tuple(tuple(col[i] for col in columns) for i in range(rank))
        return entries


# The most bytes of packed int per coefficient it holds at which
# `_TermCodec.rebased` still packs C^-1's rows: measured on the benchmark's
# calls, wider or emptier ints cost more than the dict loop saves.  On the
# benchmark's walks only the rule of two nonzero entries per row declines.
_BYTES_PER_ROW = 20


def _row_slots(rows, scale, b):
    """The row slots of `_TermCodec.rebased` for C^-1 @ B: (slots, b, scale), or None.

    rows are C^-1's rows as dicts of their nonzero entries, ints times
    scale.  None, for the dict loop, where they hold fewer than two nonzero
    entries per row on average, a slot would need more than 64 bits, or a
    packed int would take more than `_BYTES_PER_ROW` bytes per row it
    holds.  Otherwise slots is the `linalg._Slots` of one slot per row, sized for
    the bit lengths of max|C^-1|, of max|B| and of the longest column of B,
    and b comes scaled to ints (`_integral`), by scale in all.
    """
    n, terms = len(rows), sum(map(len, rows))
    if not terms or terms < 2 * n:
        return None
    b, scale_b = _integral(b)
    bits = _largest(rows).bit_length() + _largest(b).bit_length() + max(map(len, b), default=0).bit_length()
    slots = _Slots(bits, n)
    if slots.width > 64 or slots.nbytes * n > _BYTES_PER_ROW * terms:
        return None
    return slots, b, scale * scale_b


def _integral(columns):
    """(the packed columns times s, in ints; s, the lcm of their denominators)."""
    values = list(chain.from_iterable(map(dict.values, columns)))
    if set(map(type, values)) <= {int}:
        return columns, 1
    s = lcm(*{x.denominator for x in values})
    return [{t: x.numerator * (s // x.denominator) for t, x in col.items()} for col in columns], s


def _largest(columns):
    """The largest |value| of the dicts columns, 0 if none."""
    return max(map(abs, chain.from_iterable(map(dict.values, columns))), default=0)


def _accumulated(by_tag, b, field):
    """For each column of B, the dict {packed term: coefficient} of A @ B, zeros left in.

    by_tag maps the index field of each column k of A to its (packed term,
    coefficient) pairs; a term of B at index k, less its index field,
    shifts each of them by one add.
    """
    for col in b:
        out = {}
        get = out.get
        for t, c in col.items():
            tag = t & field
            t -= tag
            for s, x in by_tag[tag]:
                s += t
                out[s] = get(s, 0) + x * c
        yield out


class _RowPacked:
    """The columns of a walk's rebased map, C^-1 @ d, as `_TermCodec.rebased` accumulated them in row slots.

    columns[j] maps each packed monomial of column j to one int of `slots`,
    whose slot r holds the coefficient, times scale, of the term at that
    monomial whose index field is tags[r]; an int may be 0 where terms
    cancelled.  Iterating gives the packed dict columns, unpacked by
    `dicts` on first use and kept, for the step's map and G = M @ C, and
    a degree block's coefficients are read by `term_groups`.
    """

    __slots__ = ("columns", "slots", "tags", "scale", "_dicts")

    def __init__(self, columns, slots, tags, scale):
        self.columns, self.slots, self.tags, self.scale = columns, slots, tags, scale
        self._dicts = None

    def term_groups(self, cols):
        """The (term, coefficient tuple) pairs of the columns cols, terms decreasing, in groups each unpacked when read.

        A term is a packed monomial plus a row's tag, and its tuple holds
        the coefficients, times scale, of the columns cols there, in turn;
        only terms at which some column is nonzero are given.  A group ends
        where all its terms lie above the next monomial's: it is one
        monomial's terms under top-* orders and all terms under pot-*.
        """
        unpack, tags, block = self.slots.unpack, self.tags, [self.columns[j] for j in cols]
        zero, low, high = (0,) * self.slots.count, min(tags), max(tags)
        groups = []
        for m in sorted({m for col in block for m, v in col.items() if v}, reverse=True):
            if groups and groups[-1][-1] + low <= m + high:
                groups[-1].append(m)
            else:
                groups.append([m])
        for group in groups:
            vectors = []
            for m in group:
                digits = [unpack(x) if (x := col.get(m)) else zero for col in block]
                vectors += [(m + tag, v) for tag, v in zip(tags, zip(*digits)) if any(v)]
            vectors.sort(reverse=True)
            yield vectors

    def dicts(self):
        """The packed dict columns: each nonzero slot, divided by scale, at its monomial plus its row's tag."""
        if self._dicts is None:
            unpack, tags, scale = self.slots.unpack, self.tags, self.scale
            self._dicts = [
                {
                    m + tag: d if scale == 1 else _quotient(d, scale)
                    for m, value in column.items() if value
                    for tag, d in zip(tags, unpack(value)) if d
                }
                for column in self.columns
            ]
        return self._dicts

    def __iter__(self):
        return iter(self.dicts())


class _Cells:
    """A PolyMatrix's nonzero cells, read in one pass over its entries.

    entries lists its distinct nonzero entry objects, in the order the
    rows first meet them, and columns[j] lists column j's nonzero cells as
    (row, k), rows increasing, entry k sitting at that row; rows is the
    number of rows.  A codec is sized (`_largest_degree`), the map or its
    `transposed` packed (`_TermCodec.columns`) and its entries numbered
    (`groebner._entry_forms`) from these alone.
    """

    __slots__ = ("rows", "entries", "columns")

    def __init__(self, matrix):
        index, entries = {}, []
        columns = [[] for _ in range(matrix.num_cols)]
        for i, row in enumerate(matrix.entries):
            for col, p in zip(columns, row):
                if p.terms:
                    k = index.get(id(p))
                    if k is None:
                        k = index[id(p)] = len(entries)
                        entries.append(p)
                    col.append((i, k))
        self.rows, self.entries, self.columns = matrix.num_rows, entries, columns

    def transposed(self):
        """The cells of the transpose, with the same entries, numbered the same."""
        cells = _Cells.__new__(_Cells)
        cells.rows, cells.entries, cells.columns = len(self.columns), self.entries, [[] for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, k in col:
                cells.columns[i].append((j, k))
        return cells


def _largest_degree(cells):
    """The largest total degree of a monomial in a map's distinct nonzero entries, from its `_Cells`; 0 if none."""
    return max((sum(mono) for p in cells.entries for mono in p.terms), default=0)


def _pseudo_divide(work, tail, divisors, codec):
    """Fraction-free division of the packed element dict work, in place.

    work maps the packed terms of an element to their coefficients, tail
    those of its tail.  Each divisor is a tuple (lead, lead_coeff, body,
    body_tail) from `_divisor`: the packed leading term and leading
    coefficient of a nonzero element g_k, and the (packed term, coefficient)
    pairs of the rest of g_k and of its tail tail_k.  Returns a positive int
    M; work | tail then is M * input - sum(q_k * (g_k | tail_k)), where q_k
    are the quotients of the division scaled by M.  work holds M times the
    remainder, and tail holds M times the input's tail minus the
    quotient-weighted tails of the divisors.  A divisor's tail is its unit
    vector e_k in the Buchberger run and levels of a Schreyer frame (the
    tail collects a relation over the divisors), -e_k in `normal_form`.

    At each step the first divisor (in list order) whose leading term
    divides the current leading term is used; irreducible leading terms stay
    in work as remainder terms.  Only the divisors in the term's bucket are
    tried: the bucket key of a term is term & codec.bucketmask, and a term
    is divisible only by leading terms of its own key.  A `_TermCodec`'s
    mask is 0, and divisors is a list, its one bucket; a
    `schreyer._FrameLayout` keys a term by its chain, and divisors is a dict
    from key to the divisors of that key, in list order (see
    `_FrameLayout.buckets`).  A tail of None marks an item of a
    Buchberger run without tails: its divisors carry none either, and the
    division top-reduces, stopping at the first popped term that no divisor
    divides.  work then holds M times an element with that leading term,
    whose lower terms are left as they are.  When the current coefficient c
    and the divisor's leading coefficient a are both ints, the step is a
    pseudo-division: with g = gcd(a, c), work and tail are multiplied by
    |a| / g and sign(a) * c / g times the divisor is subtracted, so no
    fraction arises.  Otherwise it subtracts c / a times the divisor and M
    stays.  Scaling changes no term's support, so the steps, and the
    quotients and remainder up to the positive factor M, are those of plain
    division.

    The element's packed terms wait in a sorted list, so the leading term is
    the last one and is popped, not searched for.  The quotient's monomial
    is the difference of two packed terms and shifts each body term by one
    add.  A reduction step only adds terms below the one it cancels, so a
    popped term never comes back; a term that cancels to zero leaves work
    and its stale list entry is skipped.  A popped term with a guard bit set
    has overflowed its field, and the division raises _FieldOverflow.
    """
    divmask, guards, mask = codec.divmask, codec.guards, codec.bucketmask
    buckets = divisors if mask else {0: divisors}
    pending = sorted(work)
    multiplier = 1
    while pending:
        term = pending.pop()
        coeff = work.get(term)
        if coeff is None:
            continue
        if term & guards:
            raise _FieldOverflow("a packed exponent outgrew its %d-bit field" % codec.bits)
        for lead, g_coeff, body, body_tail in buckets.get(term & mask, ()):
            if not (term - lead) & divmask:
                break
        else:
            if tail is None:
                return multiplier
            continue
        del work[term]
        if type(coeff) is int and type(g_coeff) is int:
            g = gcd(g_coeff, coeff)
            q_coeff = coeff // g if g_coeff > 0 else -(coeff // g)
            factor = abs(g_coeff) // g
            if factor != 1:
                multiplier *= factor
                for t, c in work.items():
                    work[t] = c * factor
                if tail:
                    for t, c in tail.items():
                        tail[t] = c * factor
        else:
            q_coeff = exact_quotient(coeff, g_coeff)
        shift = term - lead
        for t, c in body:
            t += shift
            value = work.get(t, 0) - c * q_coeff
            if value:
                if t not in work:
                    bisect.insort(pending, t)
                work[t] = value
            else:
                del work[t]
        for t, c in body_tail:
            t += shift
            value = tail.get(t, 0) - c * q_coeff
            if value:
                tail[t] = value
            else:
                del tail[t]
    return multiplier


def _divisor(work, tail):
    """The nonzero packed element dict work, with its tail dict, as a `_pseudo_divide` divisor.

    Its leading term is work's largest packed term.  Its leading coefficient
    is made exact, as a ModuleElement's are, so that an integral Fraction
    left by a division is an int and the division by it stays
    fraction-free; the body's coefficients are taken as they are.
    """
    lead = max(work)
    body = [(t, c) for t, c in work.items() if t != lead]
    return lead, exact(work[lead]), body, list(tail.items()) if tail else []


def _shifted_difference(x, mx, cx, y, my, cy):
    """cx * mx * x - cy * my * y for lists x, y of (packed term, coefficient) pairs, as a dict.

    mx and my are packed monomials.
    """
    out = {t + mx: cx * c for t, c in x}
    for t, c in y:
        t += my
        value = out.get(t, 0) - cy * c
        if value:
            out[t] = value
        else:
            del out[t]
    return out
