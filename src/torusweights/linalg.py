"""Exact Gaussian elimination over the rationals.

Vectors are lists of Fraction; everything here is small and dense.
"""

from fractions import Fraction

from .errors import DependentColumnsError, InputError, SingularMatrixError


class Echelon:
    """Incremental row-echelon accumulator for rank and RREF."""

    def __init__(self):
        self.pivots = {}  # pivot position -> normalized row

    def reduce(self, vec):
        """Return a copy of vec reduced against the stored pivot rows."""
        vec = list(vec)
        for pos, row in self.pivots.items():
            c = vec[pos]
            if c:
                for i, r in enumerate(row):
                    if r:
                        vec[i] -= c * r
        return vec

    def add(self, vec):
        """Reduce vec and absorb it; return True if it enlarged the span."""
        vec = self.reduce(vec)
        for pos, c in enumerate(vec):
            if c:
                inv = Fraction(1) / c
                self.pivots[pos] = [x * inv for x in vec]
                return True
        return False

    def reduced_rows(self):
        """Reduced row echelon form: pivot position -> row, by position.

        Back-substitution from the last pivot up: a row is zero before its pivot.
        """
        rows = dict(sorted(self.pivots.items()))
        for pos in reversed(rows):
            row = rows[pos]
            for other, vec in rows.items():
                c = vec[pos]
                if other != pos and c:
                    rows[other] = [x - c * y for x, y in zip(vec, row)]
        return rows

    @property
    def rank(self):
        return len(self.pivots)


def rank(rows):
    """Rank of a matrix given as a list of rows."""
    ech = Echelon()
    for row in rows:
        ech.add(row)
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
