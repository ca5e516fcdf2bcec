"""Test-only oracles: plain reference versions of what the library computes another way.

They stay independent of `packed`, `linalg.Echelon` and `schreyer`, so that
a test comparing the library against them checks the packed engine against
exponent tuples, the elimination against the one it replaced, and the
division that looks divisors up by bucket against the list scan.
"""

import bisect
from fractions import Fraction
from math import gcd, lcm

from torusweights import enumerate_terms
from torusweights.rings import monomial_divides


def _term_divides(a, b):
    """Whether the ModuleTerm a has b's index and its monomial divides b's."""
    return a.index == b.index and monomial_divides(a.monomial, b.monomial)


def reference_standard_monomials(basis, degree):
    """The filter `standard_monomials` replaced: every degree-d term that no leading term divides."""
    lts = basis.leading_terms()
    return [t for t in enumerate_terms(basis.module, degree, basis.order) if not any(_term_divides(lt, t) for lt in lts)]


def _primitive_row(row):
    """The row of rationals divided by its content: the primitive integer row with its signs; zeros stay."""
    den = lcm(*(Fraction(x).denominator for x in row))
    ints = [int(Fraction(x) * den) for x in row]
    c = gcd(*ints)
    return [v // c for v in ints] if c > 1 else ints


class ReferenceEchelon:
    """The elimination `linalg.Echelon` ran before it deferred content division.

    `add` takes a row of rationals and makes it a primitive integer row, as
    the row layout did, and every elimination step makes its row primitive
    again, so each working row is primitive.  `pivots`, `rank` and
    `reduced_rows` are as `linalg.Echelon`'s.
    """

    def __init__(self):
        self.pivots = {}

    @staticmethod
    def _eliminate(row, pivot_row, pos):
        g = gcd(pivot_row[pos], row[pos])
        a, b = pivot_row[pos] // g, row[pos] // g
        return _primitive_row([a * u - b * v for u, v in zip(row, pivot_row)])

    def add(self, row):
        row = _primitive_row(row)
        for pos, pivot_row in self.pivots.items():
            if row[pos]:
                row = self._eliminate(row, pivot_row, pos)
        if not any(row):
            return False
        self.pivots[next(pos for pos, x in enumerate(row) if x)] = row
        return True

    def reduced_rows(self):
        rows = dict(sorted(self.pivots.items()))
        for pos in reversed(rows):
            row = rows[pos]
            for other, vec in rows.items():
                if other >= pos:
                    break
                if vec[pos]:
                    rows[other] = self._eliminate(vec, row, pos)
        out = {}
        for pos, row in rows.items():
            quotients = (Fraction(x, row[pos]) for x in row)
            out[pos] = {k: q.numerator if q.denominator == 1 else q for k, q in enumerate(quotients) if q}
        return out

    @property
    def rank(self):
        return len(self.pivots)


def reference_pseudo_divide(work, tail, divisors, divmask, guards):
    """The list scan `packed._pseudo_divide` ran before it looked divisors up by bucket.

    work, tail and divisors are as `_pseudo_divide` takes them, divisors a
    plain list; a divisor's leading term divides a term t exactly when
    (t - lead) & divmask is 0, and a popped term with a bit of guards set
    has overflowed.  Each step tries every divisor in list order and takes
    the first that divides.  Returns the multiplier; work and tail change
    in place, as `_pseudo_divide` leaves them.
    """
    pending = sorted(work)
    multiplier = 1
    while pending:
        term = pending.pop()
        coeff = work.get(term)
        if coeff is None:
            continue
        if term & guards:
            raise OverflowError("a packed exponent outgrew its field")
        for lead, g_coeff, body, body_tail in divisors:
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
            q_coeff = Fraction(coeff) / g_coeff
            q_coeff = q_coeff.numerator if q_coeff.denominator == 1 else q_coeff
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
