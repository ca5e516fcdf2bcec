"""Exact Gaussian elimination over the rationals.

`_primitive` is the engine's one routine for its fraction-free rule: it
divides a mapping {key: rational} by its content, leaving a primitive
integer vector with the same signs, and `Echelon`'s callers,
`groebner._buchberger_run` and the Schreyer frame and its pruning apply it
wherever a vector changes.  There are two eliminations, one per row form.
`Echelon` takes dense primitive integer rows, lists of one length, and
keeps its rows in echelon form, for the callers that need more than the
pivots: the reduced rows of `propagate._inverted`, the keep-flags of
`groebner._nakayama_kept` and `rank`; the walk's sparse degree blocks take
it too.  A list comprehension per step costs less than dict passes on
rows whose entries stay small.  Its callers lay their vectors out as such
lists through `_dense_primitive`, which divides each by its content while
it is still a sparse mapping and clears any Fractions.  A row that
elimination changes is divided by its content once, when it is stored,
not after every step.  Fractions appear only in `reduced_rows`, and there
only for entries that are not integers.  `pivot_scan` finds only the
pivots, for the walk's dense degree blocks (see `propagate._propagate`):
it takes the matrix position by position, each position's column packed
into one int with one signed slot per row, reduces it by whole-int
fraction-free steps, and stops at full rank.  `_Slots` is the one layout
of signed slots packed into an int, and the only code that sizes, packs
or reads them: the scan's columns, the rows of `packed`'s product kernel
and the weights of `groebner._standard_search` all use it.
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


def _dense_primitive(vec, index):
    """The {key: rational} mapping vec, divided by its content, as the dense row `Echelon.add` takes.

    index maps each key of vec to its position, and the row has len(index)
    entries: a dict over the terms of one degree, or range(width) when the
    keys are positions already.
    """
    row = [0] * len(index)
    for key, x in _primitive(vec)[0].items():
        row[index[key]] = x
    return row


def _eliminate(row, pivot_row, pos):
    """Integer combination of the dense rows row and pivot_row that is zero at pos, its content left in."""
    g = gcd(pivot_row[pos], row[pos])
    a, b = pivot_row[pos] // g, row[pos] // g
    if a == 1:
        return [u - b * v for u, v in zip(row, pivot_row)]
    return [a * u - b * v for u, v in zip(row, pivot_row)]


def _divided(row):
    """The dense integer row divided by its content; a zero row as it is."""
    c = gcd(*row)
    return [v // c for v in row] if c > 1 else row


class Echelon:
    """Incremental row echelon form of rational vectors of one length.

    A vector is a dense primitive integer row, a list of ints as
    `_dense_primitive` lays out a vector of rationals; its pivot is its
    first (smallest) nonzero position.  A row is reduced by fraction-free
    steps and, if any step changed it, divided by its content once, when
    it is stored.  Each step keeps the row a positive multiple of the one
    that dividing after every step would give, so the stored rows are
    those primitive rows, and only the working rows grow.  `pivots` maps
    each pivot position to its stored row, in the order the rows were
    added.  Each stored row is zero at the pivots of the rows before it,
    and every row is zero before its own pivot.
    """

    def __init__(self):
        self.pivots = {}

    def add(self, row):
        """Reduce the primitive integer row and absorb it; return True if it enlarged the span.

        Rows are taken in the order they were added: a later row is zero at
        the earlier pivots, so it cannot bring back an entry cleared before.
        row is not modified, but may be stored as it is.
        """
        reduced = row
        for pos, pivot_row in self.pivots.items():
            if reduced[pos]:
                reduced = _eliminate(reduced, pivot_row, pos)
        if reduced is not row:
            reduced = _divided(reduced)
        if not any(reduced):
            return False
        self.pivots[next(pos for pos, x in enumerate(reduced) if x)] = reduced
        return True

    def reduced_rows(self):
        """Reduced row echelon form: {pivot: {position: rational}}, by position.

        Back-substitution in integers from the last pivot up: each row is
        reduced against the rows after it, which are reduced already and
        zero at each other's pivots, and divided by its content once, as
        `add` does.  Each row is then divided by its pivot entry; zero
        entries are left out.  An entry is an int when the division is
        exact, a Fraction otherwise.
        """
        rows = {}
        for pos, row in sorted(self.pivots.items(), reverse=True):
            for other, done in rows.items():
                if row[other]:
                    row = _eliminate(row, done, other)
            rows[pos] = _divided(row)
        return {
            pos: {k: _quotient(x, row[pos]) for k, x in enumerate(row) if x} for pos, row in reversed(rows.items())
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


def pivot_scan(vectors, keys):
    """The pivots of `Echelon` rows, found by a scan over their keys that stops at full rank.

    vectors are primitive integer mappings {key: int}, and keys lists
    every key they use, in the order of Echelon's positions.  Position k of
    the matrix whose rows are vectors is a pivot exactly when its column,
    (vec[k] for vec in vectors), is independent of the columns at the keys
    before it.  The scan takes the keys in order and packs each column into
    one int R by `_Slots`, vector j in slot j + 1; slot 0 stays zero, so
    that every slot read has a slot below it to take its borrow from.  It
    reduces R fraction-free against the columns it kept, each with its
    lowest nonzero slot as its pivot slot, by whole-int steps a * R - b * P
    that clear P's pivot slot in R.  Slot s of R is read by one shift and
    mask: the bits of slot s and the top bit of slot s - 1, which is set
    exactly when the slots below s sum to a negative number and so have
    borrowed one from slot s, which adding it back returns.  A nonzero R
    is kept, divided by its content.  The scan stops once it has kept
    len(vectors) keys; fewer mean that the vectors are dependent.  Returns
    the kept keys in order.

    The first slots are sized from the largest |entry| of the vectors, and
    every slot of R and of each kept column has a bit bound: a step leaves
    R's below 2**(max(bits of a + R's bound, bits of b + P's bound) + 1).
    Where that would not fit a slot, R is divided by its content first,
    and if it still does not fit, R and every kept column are unpacked and
    packed again into slots at least twice as wide.
    """
    count = len(vectors)
    bits = max((max(map(abs, vec.values()), default=0) for vec in vectors), default=0).bit_length()
    slots = _Slots(2 * bits + 8, count + 1)
    kept, rows = [], []  # rows: [packed column, pivot slot, pivot entry, bit bound]
    for key in keys:
        r, rb = slots.pack([0] + [vec.get(key, 0) for vec in vectors]), bits
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
        kept.append(key)
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
        ech.add(_dense_primitive(dict(enumerate(row)), range(len(row))))
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
