"""Exact Gaussian elimination over the rationals.

`_primitive` is the engine's one routine for its fraction-free rule: it
divides a mapping {key: rational} by its content, leaving a primitive
integer vector with the same signs, and `Echelon`'s callers,
`groebner._buchberger_run` and the Schreyer frame and its pruning apply it
wherever a vector changes.  `Echelon` is the engine's one elimination.  It
takes dense primitive integer rows, lists of one length, since the vectors
it takes (the columns of a map over the terms of one degree, a block of
C^-1 beside the identity) are mostly nonzero and their entries stay small:
a list comprehension per step costs less than dict passes.  Its callers
lay their vectors out as such lists through `_dense_primitive`, which
divides each by its content while it is still a sparse mapping and
clears any Fractions.  A row that elimination changes is divided by its
content once, when it is stored, not after every step.  Fractions appear
only in `reduced_rows`, and there only for
entries that are not integers.  `rank` is a caller like any other.  `solve` and `invert`
stay dense, on lists of Fraction; the tests keep them as references
independent of `Echelon`.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import DependentColumnsError, InputError, SingularMatrixError


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
