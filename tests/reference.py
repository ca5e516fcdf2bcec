"""Test-only oracles: plain reference versions of what the library computes another way.

They stay independent of `packed`, `linalg.Echelon` and `schreyer`, so that
a test comparing the library against them checks the packed engine against
exponent tuples, the sparse elimination against a dense one, and the
division that looks divisors up by bucket against the list scan.
`generic_minors` builds determinantal inputs, and `eagon_northcott_weights`
is a closed form, which no walk computes, for the weights of their
resolutions.
"""

import bisect
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import gcd, lcm

from torusweights import FreeModuleSpec, PolyMatrix, RingSpec, enumerate_terms
from torusweights.rings import Polynomial, monomial_divides


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
    """A dense elimination that reduces every row fully, the oracle for the sparse `linalg.Echelon`.

    `add` takes a dense row of rationals, a list over positions 0, 1, ...,
    and makes it a primitive integer row; it reduces the row at every
    pivot of the rows before it, and every step makes the row primitive
    again.  A row's pivot is its first nonzero position, as a sparse row's
    lead is its smallest key, so `pivots` has `linalg.Echelon`'s keys in
    its order, and `rank`, the keep-flags of `add` and `reduced_rows` are
    as `linalg.Echelon`'s.
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


def generic_minors(p, n, k):
    """The k x k minors of the generic p x n matrix, as a one-row PolyMatrix with one column per minor.

    The variable x_ij (row i, column j) has degree 1 and torus weight
    e_i + f_j in Z^(p + n), and the ring's term order is grevlex; each
    minor lies in degree k.  The minors come by row subset, then column subset,
    both in lexicographic order, each the signed sum over permutations.
    """
    cells = [(i, j) for i in range(p) for j in range(n)]
    weights = [[int(a == i) for a in range(p)] + [int(b == j) for b in range(n)] for i, j in cells]
    ring = RingSpec(["x%d_%d" % (i + 1, j + 1) for i, j in cells], [[1]] * len(cells), weights, "grevlex")
    minors = []
    for rows in combinations(range(p), k):
        for cols in combinations(range(n), k):
            terms = {}
            for perm in permutations(range(k)):
                inversions = sum(perm[a] > perm[b] for a, b in combinations(range(k), 2))
                exponents = [0] * len(cells)
                for i, c in zip(rows, perm):
                    exponents[i * n + cols[c]] = 1
                terms[tuple(exponents)] = (-1) ** inversions
            minors.append(Polynomial(terms))
    return PolyMatrix(FreeModuleSpec(ring, [[0]]), FreeModuleSpec(ring, [[k]] * len(minors)), [minors])


def eagon_northcott_weights(p, n):
    """The weights of the Eagon-Northcott resolution of the maximal minors of `generic_minors(p, n, p)`.

    One Counter per module F_0, ..., F_(n - p + 1): F_0 has the weight 0,
    and F_i (i >= 1) the weights (e_1 + ... + e_p) + e_alpha + f_S, over
    the multisets alpha of size i - 1 in {1..p} and the subsets S of size
    p + i - 1 of {1..n} (Eagon and Northcott, Proc. Roy. Soc. A 1962;
    Eisenbud, "The Geometry of Syzygies", appendix A2).
    """
    modules = [Counter([(0,) * (p + n)])]
    for i in range(1, n - p + 2):
        weights = Counter()
        for alpha in combinations_with_replacement(range(p), i - 1):
            for subset in combinations(range(n), p + i - 1):
                weights[tuple([1 + alpha.count(a) for a in range(p)] + [int(b in subset) for b in range(n)])] += 1
        modules.append(weights)
    return modules


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
