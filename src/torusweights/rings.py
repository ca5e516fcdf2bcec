"""Positively multigraded polynomial rings whose variables carry torus weights.

Monomials are bare exponent tuples.  A RingSpec fixes the variable names,
their multidegrees (vectors in Z^m defining a positive grading), their torus
weights (vectors in Z^k), and a term order (lex or grevlex, with variable
precedence given by declaration order).  Polynomial is a sparse map from
exponent tuples to nonzero exact rationals, each stored as an int when it is
integral and as a Fraction only when it is not (see `exact`), so inputs with
integer coefficients run on int arithmetic.  The two types mix exactly, and
an integral Fraction equals, hashes and prints like its int, so the split
shows only in speed.  True division is the one trap, since int / int is a
float; `exact_quotient` divides exactly.
"""

import operator
import re
from fractions import Fraction

from .errors import InputError
from .linalg import _quotient, rank

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def monomial_mul(a, b):
    return tuple(map(operator.add, a, b))


def monomial_divides(a, b):
    """True when a divides b, i.e. componentwise a <= b."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a, b):
    """Quotient a / b; caller guarantees divisibility."""
    return tuple(map(operator.sub, a, b))


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def unit_monomial(num_vars):
    return (0,) * num_vars


def vector_add(a, b):
    return tuple(map(operator.add, a, b))


def vector_sub(a, b):
    return tuple(map(operator.sub, a, b))


def vector_neg(a):
    return tuple(-x for x in a)


def exact(value):
    """value as an int when it is integral, otherwise as a Fraction.

    Takes anything Fraction takes (int, Fraction, a float, a rational
    string); a bool becomes a plain int.
    """
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def exact_quotient(a, b):
    """a / b as an exact rational, an int when it is integral."""
    if type(a) is int and type(b) is int:
        return _quotient(a, b)
    return exact(Fraction(a) / b)


def _int_vector(value, what, length=None):
    """value as a tuple of ints, optionally of a required length.

    Accepts only true integers (anything operator.index takes): a float or a
    scalar where a vector belongs raises InputError instead of being
    truncated.
    """
    try:
        vec = tuple(operator.index(x) for x in value)
    except TypeError:
        raise InputError("%s must be a sequence of integers" % what) from None
    if length is not None and len(vec) != length:
        raise InputError("%s %r has wrong length" % (what, vec))
    return vec


class Polynomial:
    """Sparse polynomial: exponent tuple -> nonzero int or Fraction.

    A coefficient is an int exactly when it is integral, a Fraction
    otherwise; construction, `scale`, `multiply_term` and the arithmetic
    operators all keep that rule.  Values are immutable by convention; all
    arithmetic returns fresh objects.  Loaded problem files share one
    Polynomial between equal entry strings, so nothing may write to
    `.terms`.  The empty term map is the zero polynomial.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = exact(coeff)
                if coeff:
                    clean[tuple(mono)] = coeff
        self.terms = clean

    @classmethod
    def _from_exact(cls, terms):
        """Adopt a dict of nonzero int or Fraction coefficients, made exact in place.

        A sum or product of exact coefficients can be an integral Fraction;
        it becomes an int here.  The dict must not be shared.
        """
        for mono, coeff in terms.items():
            if type(coeff) is Fraction and coeff.denominator == 1:
                terms[mono] = coeff.numerator
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        out = Polynomial.__new__(Polynomial)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __add__(self, other):
        merged = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = merged.get(mono, 0) + coeff
            if s:
                merged[mono] = s
            else:
                merged.pop(mono, None)
        return Polynomial._from_exact(merged)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            prod = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    mono = monomial_mul(m1, m2)
                    s = prod.get(mono, 0) + c1 * c2
                    if s:
                        prod[mono] = s
                    else:
                        prod.pop(mono, None)
            return Polynomial._from_exact(prod)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, scalar):
        scalar = exact(scalar)
        if not scalar:
            return Polynomial()
        return Polynomial._from_exact({m: c * scalar for m, c in self.terms.items()})

    def multiply_term(self, mono, coeff):
        """Multiply by the single term coeff * x^mono."""
        coeff = exact(coeff)
        if not coeff or self.is_zero:
            return Polynomial()
        return Polynomial._from_exact({monomial_mul(m, mono): c * coeff for m, c in self.terms.items()})

    def __repr__(self):
        return "Polynomial(%r)" % (self.terms,)


class RingSpec:
    """Ambient ring: variable names, multidegrees, torus weights, term order."""

    TERM_ORDERS = ("grevlex", "lex")

    def __init__(self, var_names, var_degrees, var_weights, term_order="grevlex"):
        self.var_names = tuple(str(v) for v in var_names)
        if not self.var_names:
            raise InputError("a ring needs at least one variable")
        if len(set(self.var_names)) != len(self.var_names):
            raise InputError("variable names must be distinct")
        for name in self.var_names:
            if not _NAME_RE.match(name):
                raise InputError("invalid variable name %r" % name)

        n = len(self.var_names)
        self.var_degrees = tuple(_int_vector(d, "variable degree") for d in var_degrees)
        self.var_weights = tuple(_int_vector(w, "variable weight") for w in var_weights)
        if len(self.var_degrees) != n or len(self.var_weights) != n:
            raise InputError("need one degree vector and one weight vector per variable")

        lengths = {len(d) for d in self.var_degrees}
        if len(lengths) != 1:
            raise InputError("all degree vectors must have equal length")
        self.degree_length = lengths.pop()
        if self.degree_length < 1:
            raise InputError("degree vectors must be nonempty")

        wlengths = {len(w) for w in self.var_weights}
        if len(wlengths) != 1:
            raise InputError("all weight vectors must have equal length")
        self.weight_length = wlengths.pop()

        self._check_positive_grading()

        if term_order not in self.TERM_ORDERS:
            raise InputError("unknown term order %r" % (term_order,))
        self.term_order = term_order
        self._var_index = {name: i for i, name in enumerate(self.var_names)}

    def _check_positive_grading(self):
        m = self.degree_length
        for name, deg in zip(self.var_names, self.var_degrees):
            nonzero = [x for x in deg if x]
            if not nonzero:
                raise InputError("degree of %s is zero; grading not positive" % name)
            if nonzero[0] < 0:
                raise InputError(
                    "degree of %s has negative first nonzero component; grading not positive" % name
                )
        degree_rows = [[Fraction(d[i]) for d in self.var_degrees] for i in range(m)]
        if rank(degree_rows) != m:
            raise InputError("degree matrix rows are linearly dependent; grading not positive")
        # Lex-dominant functional with value > 0 on every variable degree, so
        # multiplying by a monomial never lowers it.  It is the one degree
        # order of the library: it orders Buchberger's queue, bounds
        # truncated runs and bounds exponent searches in monomials_of_degree.
        biggest = max(abs(x) for d in self.var_degrees for x in d)
        base = m * biggest + 1
        self._positive_functional = tuple(base ** (m - 1 - i) for i in range(m))
        for deg in self.var_degrees:
            if self._functional(deg) <= 0:
                raise InputError("grading is not positive")

    def _functional(self, degree):
        return sum(a * b for a, b in zip(self._positive_functional, degree))

    @property
    def num_vars(self):
        return len(self.var_names)

    def __eq__(self, other):
        return (
            isinstance(other, RingSpec)
            and self.var_names == other.var_names
            and self.var_degrees == other.var_degrees
            and self.var_weights == other.var_weights
            and self.term_order == other.term_order
        )

    def __hash__(self):
        return hash((self.var_names, self.var_degrees, self.var_weights, self.term_order))

    def __repr__(self):
        return "RingSpec(vars=%r, order=%s)" % (list(self.var_names), self.term_order)

    # ----- monomial data -----

    def variable(self, which):
        """The variable (by index or name) as a Polynomial."""
        i = self._var_index[which] if isinstance(which, str) else which
        expo = [0] * self.num_vars
        expo[i] = 1
        return Polynomial({tuple(expo): 1})

    def one(self):
        return Polynomial({unit_monomial(self.num_vars): 1})

    def _check_monomial(self, mono):
        if len(mono) != self.num_vars:
            raise InputError("monomial has %d exponents, expected %d" % (len(mono), self.num_vars))

    def monomial_degree(self, mono):
        self._check_monomial(mono)
        deg = [0] * self.degree_length
        for e, d in zip(mono, self.var_degrees):
            if e:
                for i, x in enumerate(d):
                    deg[i] += e * x
        return tuple(deg)

    def monomial_weight(self, mono):
        self._check_monomial(mono)
        wt = [0] * self.weight_length
        for e, w in zip(mono, self.var_weights):
            if e:
                for i, x in enumerate(w):
                    wt[i] += e * x
        return tuple(wt)

    def monomial_key(self, mono):
        """Sort key realizing the term order (bigger key = bigger monomial)."""
        if self.term_order == "lex":
            return mono
        # grevlex: exponent sum first, ties broken by the last differing
        # variable in precedence order, smaller exponent winning.
        return (sum(mono), tuple(-e for e in reversed(mono)))

    def compare_monomials(self, a, b):
        """Three-way comparison under the term order: -1, 0 or 1."""
        self._check_monomial(a)
        self._check_monomial(b)
        ka, kb = self.monomial_key(a), self.monomial_key(b)
        return (ka > kb) - (ka < kb)

    def monomials_of_degree(self, degree):
        """All monomials of the given multidegree, decreasing in the term order.

        Finite because the grading is positive.
        """
        degree = tuple(degree)
        if len(degree) != self.degree_length:
            raise InputError("degree vector has wrong length")
        n = self.num_vars
        found = []
        weights = [self._functional(d) for d in self.var_degrees]

        def search(i, remaining, budget, expo):
            if i == n:
                if not any(remaining):
                    found.append(tuple(expo))
                return
            top = budget // weights[i]
            for e in range(top + 1):
                expo[i] = e
                search(
                    i + 1,
                    tuple(r - e * d for r, d in zip(remaining, self.var_degrees[i])),
                    budget - e * weights[i],
                    expo,
                )
            expo[i] = 0

        budget = self._functional(degree)
        if budget >= 0:
            search(0, degree, budget, [0] * n)
        found.sort(key=self.monomial_key, reverse=True)
        return found

    # ----- polynomial data -----

    def poly_degree(self, p):
        """Common multidegree of all terms of p, or None if inhomogeneous.

        Raises InputError for the zero polynomial, whose degree is undefined.
        """
        if p.is_zero:
            raise InputError("the zero polynomial has no degree")
        degrees = {self.monomial_degree(m) for m in p.terms}
        if len(degrees) > 1:
            return None
        return degrees.pop()

