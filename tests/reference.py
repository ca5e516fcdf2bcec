"""Test-only oracles: plain reference versions of what the library computes another way.

They stay independent of `packed`, `linalg.Echelon` and `schreyer`, so that
a test comparing the library against them checks the packed engine against
exponent tuples.
"""

from torusweights import enumerate_terms
from torusweights.rings import monomial_divides


def _term_divides(a, b):
    """Whether the ModuleTerm a has b's index and its monomial divides b's."""
    return a.index == b.index and monomial_divides(a.monomial, b.monomial)


def reference_standard_monomials(basis, degree):
    """The filter `standard_monomials` replaced: every degree-d term that no leading term divides."""
    lts = basis.leading_terms()
    return [t for t in enumerate_terms(basis.module, degree, basis.order) if not any(_term_divides(lt, t) for lt in lts)]
