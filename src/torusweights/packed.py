"""Packed module terms: the int format of the Groebner engine, the walk and the chain checks.

A module term, a monomial with a basis index, is one Python int (Monagan
and Pearce, "Sparse polynomial division using a heap", JSC 2011, and "POLY:
a new polynomial data structure for Maple 17", 2013) inside `groebner`'s
division, Buchberger and inter-reduction, inside the propagation walk of
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
computes A @ B on packed columns by adding packed terms.  It serves the
chain checks, the walk's rebase, the product C^-1 @ d of a constant
matrix and a map, whose constant terms add no degree, so the map's own
codec holds the product, and G = M @ C.  Where A repeats a monomial across
rows, which the one pass that groups A's terms finds, it packs the rows too
(Kronecker substitution on the row index; Harvey, JSC 2009): one int per
monomial, one signed slot per row, each slot wider than any sum it takes,
so that an int is 0 exactly when every slot is; the standard-monomial
search carries a torus weight the same way, one signed slot per component,
and both read their slots off with `_signed_slots`.  A map is packed at most
once per public call, each distinct nonzero entry and monomial once, and
its packed columns serve every reader of that call: the test that consecutive
maps compose to zero, the minimality run and the walk; a chain from
`groebner.minimal_resolution` keeps its pruning's packed columns for the
walk.
`_TermCodec.transposed` gives the packed columns of the transpose, the
dual map the forward walk runs on, by re-tagging each term's index under
the flipped order; the monomial fields do not move.  Only this module
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
import struct
from itertools import chain
from math import gcd, lcm

from .errors import InternalError
from .linalg import _quotient
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

    def term(self, mono, index):
        """The term (mono, index) packed."""
        return sum(map(operator.mul, mono, self._units)) | self._tag(index)

    def packed(self, element):
        """The terms of a ModuleElement as a packed dict, in support order."""
        return {self.term(t.monomial, t.index): c for t, c in element.support()}

    def columns(self, matrix):
        """The columns of a PolyMatrix as packed dicts, entry i at index i.

        Each distinct nonzero entry object is packed once, since a loaded
        matrix shares its equal entries, and each distinct monomial once,
        since an unpacked one does not.
        """
        units = self._units
        entries, monomials = {}, {}
        columns = [{} for _ in range(matrix.num_cols)]
        for i, row in enumerate(matrix.entries):
            tag = self._tag(i)
            for col, p in zip(columns, row):
                if not p.terms:
                    continue
                terms = entries.get(id(p))
                if terms is None:
                    terms = entries[id(p)] = []
                    for mono, c in p.terms.items():
                        t = monomials.get(mono)
                        if t is None:
                            t = monomials[mono] = sum(map(operator.mul, mono, units))
                        terms.append((t, c))
                for t, c in terms:
                    col[t | tag] = c
        return columns

    def transposed(self, columns, rows):
        """A codec of this layout under the flipped order, and the transpose's packed columns.

        columns are the packed columns of a map with `rows` rows; the result
        packs the columns of its transpose (`modules.dual_map`), as that
        codec's `columns` would, dicts in the same insertion order.  The
        flipped order changes only how an index is tagged, so each term keeps
        its packed monomial and takes its column's index as its own.  The
        codec must index max(rows, columns) for both to fit.
        """
        flipped = _TermCodec(self.ring, self.order.flipped(), self.indices, self.capacity)
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
        shifts every term of A's column k by one add; only nonzero entries
        meet.  The columns come lazily, so a caller testing the product for
        zero stops at the first nonzero one.  The codec must hold every
        product's total degree: the largest in A plus the largest in B.

        Where `_row_slots` finds it cheaper, from the one pass that groups
        each column of A by packed monomial, the rows are packed too: the
        terms one packed monomial has in a column of A become one int whose
        slot r, `width` bits wide, holds the coefficient at the r-th index
        field value from A's lowest as a signed digit, once A and B are
        scaled to integers by the lcms of their denominators.  A term of B
        then costs one int multiply-add per monomial of A's column, not one
        dict update per term.  width is at least the sum of the bit lengths
        of max|A|, of max|B| and of the longest column of B, plus 1: a slot
        sums at most that many products, so it stays below 2**(width - 1) in
        absolute value, no slot borrows from the next, and an int is 0
        exactly when every slot is; a product column is zero exactly when
        all its ints are.  Only nonzero ints are read out: adding 2**(width
        - 1) to every slot and XOR-ing it off again leaves each digit in
        two's complement, zero exactly on the zero slots, and each nonzero
        digit, divided by the scales, is a coefficient.  A slot takes 1, 2, 4
        or 8 bytes; where it would need more, the dict loop takes the
        product.  Every coefficient that is scaled or not an int, a Fraction
        of denominator 1 too, is made an int on entry.  Otherwise each term
        of B updates one dict entry per term of A's column.  The product is
        the same either way; the terms' insertion order is not.
        """
        shift = self._index_shift
        field = self._index_mask << shift
        groups, tags = [], set()
        add = tags.add
        for col in a:
            group = {}
            for s in col:
                tag = s & field
                add(tag)
                group[s - tag] = 0
            groups.append(group)
        layout = _row_slots(a, b, groups, tags, shift)
        if layout is None:
            by_tag = {self._tag(k): list(col.items()) for k, col in enumerate(a)}
        else:
            size, low, slots, a, b, scale = layout
            width, nbytes = 8 * size, size * slots
            row_tags = [low + (r << shift) for r in range(slots)]
            offset, digits = _signed_slots(size, slots)
            by_tag = {}
            for k, (col, group) in enumerate(zip(a, groups)):
                for s, x in col.items():
                    tag = s & field
                    group[s - tag] += x << ((tag - low) >> shift) * width
                by_tag[self._tag(k)] = list(group.items())
        del groups  # a product is consumed lazily, and its B loop needs no group dict
        for col in b:
            out = {}
            get = out.get
            for t, c in col.items():
                tag = t & field
                t -= tag
                for s, x in by_tag[tag]:
                    s += t
                    out[s] = get(s, 0) + x * c
            if layout is None:
                yield {s: value for s, value in out.items() if value}
            else:
                yield {
                    s + tag: d if scale == 1 else _quotient(d, scale)
                    for s, value in out.items() if value
                    for tag, d in zip(row_tags, digits(((value + offset) ^ offset).to_bytes(nbytes, "little"))) if d
                }

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
        index = self.unpack(t).index
        return t - self._tag(index), index

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
    `groebner._MinimalChain` keeps for the walk, a walk step's rebased map
    or G = M @ C, so a map that is only walked is never unpacked.  `entries`
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
# `_TermCodec.product` still packs rows: measured on the benchmark's calls,
# wider or emptier ints cost more than the dict loop saves.
_BYTES_PER_ROW = 20


def _row_slots(a, b, groups, tags, shift):
    """The row slots of `_TermCodec.product` for A @ B: (size, low, slots, a, b, scale), or None.

    groups and tags, from the product's grouping pass, are A's columns keyed
    by packed monomial and A's index fields.  None, for the dict loop, where
    A has fewer than two rows per packed monomial of a column, a slot would
    need more than 64 bits, or a packed int would take more than
    `_BYTES_PER_ROW` bytes per row it holds.  Otherwise slot r, for r below
    slots, holds the row whose index field is low + (r << shift) in size
    bytes, 1, 2, 4 or 8, and a and b come scaled to ints (`_integral`), by
    scale in all.
    """
    terms = sum(map(len, a))
    count = sum(map(len, groups))
    if not terms or terms < 2 * count:
        return None
    low = min(tags)
    slots = ((max(tags) - low) >> shift) + 1
    a, scale_a, big_a = _integral(a)
    b, scale_b, big_b = _integral(b)
    size = (big_a.bit_length() + big_b.bit_length() + max(map(len, b), default=0).bit_length() + 8) // 8
    if size > 8:
        return None
    size = 1 << (size - 1).bit_length()
    if slots * size * count > _BYTES_PER_ROW * terms:
        return None
    return size, low, slots, a, b, scale_a * scale_b


def _signed_slots(size, slots):
    """(offset, digits), which read `slots` signed slots of size bytes, a power of two, off one int.

    Let v be the sum of x_r << (8 * size * r) over r, with each x_r at
    least -h and below h = 2**(8 * size - 1).  Then
    digits(((v + offset) ^ offset).to_bytes(size * slots, "little")) is
    (x_0, x_1, ...): adding offset, h in every slot, makes each slot a
    digit from 0 to 2h - 1, so that none borrows from the next, and XOR-ing
    offset off again leaves each digit in two's complement.  Slots of more
    than 8 bytes are read by `int.from_bytes`.
    """
    offset = int.from_bytes((bytes(size - 1) + b"\x80") * slots, "little")
    if size <= 8:
        return offset, struct.Struct("<%d%s" % (slots, "bhiq"[size.bit_length() - 1])).unpack
    starts = range(0, size * slots, size)
    return offset, lambda b: tuple(int.from_bytes(b[i:i + size], "little", signed=True) for i in starts)


def _integral(columns):
    """(the packed columns times s, in ints; s, the lcm of their denominators; s * their largest |coefficient|)."""
    values = list(chain.from_iterable(map(dict.values, columns)))
    if set(map(type, values)) <= {int}:
        return columns, 1, max(max(values, default=0), -min(values, default=0))
    s = lcm(*{x.denominator for x in values})
    scaled = [{t: x.numerator * (s // x.denominator) for t, x in col.items()} for col in columns]
    return scaled, s, int(max(map(abs, values)) * s)


def _largest_degree(matrix):
    """The largest total degree of a monomial in the distinct nonzero entries of a PolyMatrix, 0 if none."""
    entries = {id(p): p for row in matrix.entries for p in row if p.terms}.values()
    return max((sum(mono) for p in entries for mono in p.terms), default=0)


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


def _divisor(work, tail=None):
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
