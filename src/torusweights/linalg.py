"""Exact Gaussian elimination over the rationals.

`_primitive` is the engine's one routine for its fraction-free rule: it
divides a mapping {key: rational} by its content, leaving a primitive
integer vector with the same signs, and `Echelon`,
`groebner._buchberger_run` and the Schreyer frame and its pruning apply it
wherever a vector changes.  There are two eliminations, one sparse and one
packed.  `Echelon` is the sparse one: a row is a dict of its nonzeros over
keys that order themselves, its lead is its smallest key, and `add`
reduces a row by fraction-free steps only at its lead, until the lead is
no stored row's lead, then divides it by its content once and stores it.
Its callers key their rows as the order of the elimination needs: the
walk's degree blocks that come as packed dicts by packed term, each
negated so that the largest term leads (see `propagate._block_leads`),
`groebner._nakayama_kept`, for the keep-flags of vectors of one degree,
by the order in which the terms first appear, and C from C^-1
(`propagate._inverted`, by `reduced_rows`) and `rank` by position.  Fractions appear only in
`reduced_rows`, and there only for entries that are not integers.
`pivot_scan` finds only the pivots, for the walk's degree blocks in row
slots (see `propagate._row_block_leads`): it takes the matrix position by
position, each position's column a tuple of ints, a term vector, which it
packs into one int with one signed slot per row, reduces it by whole-int
fraction-free steps, and stops at full rank; the rows need not be
primitive, so the walk hands it the product kernel's scaled ints as they
are.  `_Slots` is the one layout of signed slots packed into an int, and
the only code that sizes, packs or reads them: the scan's columns, the
rows of `packed`'s product kernel and the weights of
`groebner._standard_search` all use it.
`solve` and `invert` stay dense, on lists of Fraction; the tests keep
them as references independent of `Echelon`.
"""

import logging
import struct
from fractions import Fraction
from math import gcd, lcm

from .errors import DependentColumnsError, InputError, SingularMatrixError

log = logging.getLogger(__name__)


def _quotient(a, b):
    """a / b for ints: an int when b divides a, otherwise a Fraction."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def _primitive(vec):
    """(vec / c, c), c the content of the {key: rational} mapping vec.

    c is the positive rational gcd(numerators) / lcm(denominators) of the
    entries, so vec / c is a primitive integer vector with vec's signs; c is
    an int when it is integral.  vec itself comes back when c is 1, and an
    empty or zero vec gives c = 1.
    """
    values = vec.values()
    if set(map(type, values)) <= {int}:
        c = gcd(*values)
        if c > 1:
            return {k: v // c for k, v in vec.items()}, c
        return vec, 1
    den = lcm(*(v.denominator for v in values))
    num = gcd(*(v.numerator for v in values)) or den
    return {k: v.numerator * (den // v.denominator) // num for k, v in vec.items()}, _quotient(num, den)


def _top_step(row, pivot_row, key):
    """a * row - b * pivot_row for the dict rows, a > 0 and b in lowest terms, so that key cancels; content left in."""
    g = gcd(pivot_row[key], row[key])
    a, b = pivot_row[key] // g, row[key] // g
    if a < 0:
        a, b = -a, -b
    out = {k: a * x for k, x in row.items()} if a != 1 else dict(row)
    for k, x in pivot_row.items():
        y = out.get(k, 0) - b * x
        if y:
            out[k] = y
        else:
            del out[k]
    return out


class Echelon:
    """Incremental echelon form of sparse rational vectors, reduced only at their leads.

    A row is a dict {key: rational} of its nonzeros, over keys of one
    total order, and its lead is its smallest key.  `add` makes a row a
    primitive integer vector (`_primitive`) and top-reduces it: while its
    lead is the lead of a stored row, one fraction-free step a * r - b * p
    cancels that lead, and the row is divided by its content once, when it
    is stored (Faugere and Lachartre, PASCO 2010, reduce the rows of their
    top block the same way).  So the stored rows have distinct leads and
    span what the added rows span, and their leads are the pivots of any
    echelon form of that span.  `pivots` maps each lead to its stored row,
    in the order the rows were added; a stored row is a primitive integer
    vector, and a row no step changed is the caller's dict as given.
    """

    def __init__(self):
        self.pivots = {}

    def add(self, vec):
        """Top-reduce the {key: rational} mapping of nonzeros vec and absorb it; return True if it enlarged the span.

        vec is not modified, but may be stored as it is.
        """
        row = reduced = _primitive(vec)[0]
        pivots = self.pivots
        while reduced:
            lead = min(reduced)
            pivot_row = pivots.get(lead)
            if pivot_row is None:
                pivots[lead] = reduced if reduced is row else _primitive(reduced)[0]
                return True
            reduced = _top_step(reduced, pivot_row, lead)
        return False

    def reduced_rows(self):
        """Reduced row echelon form: {pivot: {key: rational}}, pivots and each row's keys increasing.

        Back-substitution in integers from the largest lead to the
        smallest: each stored row is reduced at its keys that are leads of
        rows already reduced, which are zero at each other's leads, so a
        step brings in no other lead, and a row a step changed is divided
        by its content once.  Each row is then divided by its lead
        entry, an int where the division is exact and a Fraction otherwise.
        """
        rows = {}
        for lead in sorted(self.pivots, reverse=True):
            row = self.pivots[lead]
            hits = [k for k in row if k in rows]
            for k in hits:
                row = _top_step(row, rows[k], k)
            rows[lead] = _primitive(row)[0] if hits else row
        return {
            lead: {k: _quotient(x, row[lead]) for k, x in sorted(row.items())} for lead, row in sorted(rows.items())
        }

    @property
    def rank(self):
        return len(self.pivots)


class _Slots:
    """count signed slots in one int, the engine's one layout of integer vectors packed into an int.

    A slot is `width` bits, the fewest whole power-of-two bytes that hold,
    with a sign bit, every |x| of at most `bits` bits.  pack(xs) is the sum
    of x_j << width * j, for entries from -half to half - 1, half =
    2**(width - 1) (Kronecker substitution, Harvey, JSC 2009).  Packed ints
    add slotwise while every sum stays in that range: no slot borrows from
    the next, and an int is 0 exactly when every slot is.  unpack adds
    `offset`, half in every slot, which makes each slot a digit from 0 to
    2 * half - 1, and XORs it off again, which leaves each digit in two's
    complement for `struct`, or `int.from_bytes` above 8 bytes, to read.
    """

    def __init__(self, bits, count):
        size = 1 << (bits // 8).bit_length()
        self.count, self.nbytes = count, size * count
        self.width = width = 8 * size
        self.half, self.mask, self.window = 1 << width - 1, (1 << width) - 1, (1 << width + 1) - 1
        self.offset = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
        if size <= 8:
            layout = struct.Struct("<%d%s" % (count, "bhiq"[size.bit_length() - 1]))
            self._bytes, self._digits = layout.pack, layout.unpack
        else:
            starts = range(0, self.nbytes, size)
            self._bytes = lambda *xs: b"".join(x.to_bytes(size, "little", signed=True) for x in xs)
            self._digits = lambda b: tuple(int.from_bytes(b[i:i + size], "little", signed=True) for i in starts)

    def pack(self, xs):
        """The int whose slot j holds xs[j], for count entries: their two's complement, each top bit flipped twice."""
        return (int.from_bytes(self._bytes(*xs), "little") ^ self.offset) - self.offset

    def unpack(self, v):
        """The count entries of the packed int v, slot 0 first."""
        return self._digits(((v + self.offset) ^ self.offset).to_bytes(self.nbytes, "little"))


def _content_bits(digits):
    """(content, bit length of the largest |entry| divided by it) of unpacked digits."""
    c = gcd(*digits)
    return c, (max(max(digits), -min(digits)) // c).bit_length()


def pivot_scan(vectors, count):
    """The positions at which a matrix gains rank, found by a scan over its columns that stops at full rank.

    vectors are the columns of an integer matrix of `count` rows, each a
    tuple of count ints, in the order of Echelon's positions: the walk's
    term vectors, one per term of a degree block in row slots, terms
    decreasing, holding the coefficients the block's columns have there.
    Position k is a pivot of the `Echelon` form of the rows exactly when
    vectors[k] is independent of the vectors before it, and no row needs
    to be primitive for that.  The scan takes the vectors in order and
    packs each into one int R by `_Slots`, entry j in slot j + 1; slot 0
    stays zero, so that every slot read has a slot below it to take its
    borrow from.  It reduces R fraction-free against the vectors it kept,
    each with its lowest nonzero slot as its pivot slot, by whole-int steps
    a * R - b * P that clear P's pivot slot in R.  Slot s of R is read by
    one shift and mask: the bits of slot s and the top bit of slot s - 1,
    which is set exactly when the slots below s sum to a negative number
    and so have borrowed one from slot s, which adding it back returns.  A
    nonzero R is kept, divided by its content.  The scan stops once it has
    kept count positions; fewer mean that the rows are dependent.  Returns
    the kept positions in order.

    The first slots are sized from the largest |entry| of the vectors, and
    every slot of R and of each kept vector has a bit bound: a step leaves
    R's below 2**(max(bits of a + R's bound, bits of b + P's bound) + 1).
    Where that would not fit a slot, R is divided by its content first,
    and if it still does not fit, R and every kept vector are unpacked and
    packed again into slots at least twice as wide.
    """
    bits = max(max(map(max, vectors), default=0), -min(map(min, vectors), default=0)).bit_length()
    slots = _Slots(2 * bits + 8, count + 1)
    kept, rows = [], []  # rows: [packed vector, pivot slot, pivot entry, bit bound]
    for k, vec in enumerate(vectors):
        r, rb = slots.pack((0, *vec)), bits
        for row in rows:
            p, s, x0, pb = row
            x = (((r >> s * slots.width - 1 & slots.window) + 1 >> 1) + slots.half & slots.mask) - slots.half
            if not x:
                continue
            g = gcd(x0, x)
            a, b = x0 // g, x // g
            bound = max(a.bit_length() + rb, b.bit_length() + pb) + 1
            if bound >= slots.width:
                c, rb = _content_bits(slots.unpack(r))
                r, x = r // c, x // c
                g = gcd(x0, x)
                a, b = x0 // g, x // g
                bound = max(a.bit_length() + rb, b.bit_length() + pb) + 1
                if bound >= slots.width:
                    wider = _Slots(max(2 * slots.width - 1, bound), count + 1)
                    log.debug("walk: widened pivot-scan slots to %d bits", wider.width)
                    for other in rows:
                        other[0] = wider.pack(slots.unpack(other[0]))
                    r, p, slots = wider.pack(slots.unpack(r)), row[0], wider
            r = a * r - b * p
            rb = bound
        if not r:
            continue
        kept.append(k)
        if len(kept) == count:
            break
        digits = slots.unpack(r)
        c, pb = _content_bits(digits)
        low = next(j for j, x in enumerate(digits) if x)
        rows.append([r // c, low, digits[low] // c, pb])
    return kept


def rank(rows):
    """Rank of a matrix given as a list of dense rows."""
    ech = Echelon()
    for row in rows:
        ech.add({j: x for j, x in enumerate(row) if x})
    return ech.rank


def solve(a_rows, b_rows):
    """Solve A X = B exactly, A an n-by-r matrix of full column rank.

    Raises DependentColumnsError when the columns of A are linearly
    dependent, and InputError when the system is inconsistent.
    """
    n = len(a_rows)
    r = len(a_rows[0]) if n else 0
    k = len(b_rows[0]) if b_rows else 0
    aug = [list(a_rows[i]) + list(b_rows[i]) for i in range(n)]

    pivot_rows = []
    row = 0
    for col in range(r):
        src = next((i for i in range(row, n) if aug[i][col]), None)
        if src is None:
            raise DependentColumnsError("columns of the coefficient matrix are linearly dependent")
        aug[row], aug[src] = aug[src], aug[row]
        inv = Fraction(1) / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for i in range(n):
            if i != row and aug[i][col]:
                c = aug[i][col]
                aug[i] = [x - c * y for x, y in zip(aug[i], aug[row])]
        pivot_rows.append((row, col))
        row += 1

    for i in range(row, n):
        if any(aug[i][r:]):
            raise InputError("inconsistent linear system (right-hand side outside the span)")

    x = [[Fraction(0)] * k for _ in range(r)]
    for i, col in pivot_rows:
        x[col] = aug[i][r:]
    return x


def invert(rows):
    """Exact inverse of a square rational matrix."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise InputError("matrix is not square")
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    try:
        return solve(rows, ident)
    except DependentColumnsError:
        raise SingularMatrixError("matrix is singular") from None
