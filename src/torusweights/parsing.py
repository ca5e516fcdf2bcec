"""Polynomial expression parser and canonical printer.

Grammar: integer literals, rational literals `a/b`, variable names from the
ring, `^` with a nonnegative integer exponent of at most MAX_EXPONENT (and
a result within MAX_POWER_TERMS and MAX_POWER_BITS), `*`,
`+`, binary and unary `-`, and parentheses.  Implicit multiplication is not
allowed.  The canonical printed form (terms in decreasing term order,
explicit `*` and `^`) parses back to the same polynomial.
"""

import re
import sys
from fractions import Fraction
from math import comb

from .errors import InputError, PolynomialSyntaxError
from .rings import Polynomial, unit_monomial

# The largest exponent `^` accepts.  A larger one is a PolynomialSyntaxError,
# raised before any power is computed.  A power of one variable alone, such
# as x1^10000000, is only an exponent tuple and stays cheap.
MAX_EXPONENT = 10_000_000

# Caps on the estimated size of a power, checked before it is computed,
# since powering a coefficient or a sum of terms costs time that grows with
# the result.  A base of t terms to the power e has at most
# C(e + t - 1, t - 1) terms, and each coefficient of it has at most about e
# times (the largest ceil(log2) of a coefficient's numerator plus that of
# its denominator, plus ceil(log2 t)) bits, the last for the multinomial
# coefficients.  A power above either cap is a PolynomialSyntaxError.
MAX_POWER_TERMS = 500
MAX_POWER_BITS = 10_000

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<int>\d+)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>[-+*/^()])
    )""",
    re.VERBOSE,
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise PolynomialSyntaxError(
                "unexpected character %r" % stripped[0], len(text) - len(stripped)
            )
        if match.lastgroup == "int":
            try:
                value = int(match.group("int"))
            except ValueError:
                # more digits than int() converts (sys.get_int_max_str_digits)
                raise PolynomialSyntaxError("integer literal is too long", match.start("int")) from None
            tokens.append(("int", value, match.start("int")))
        elif match.lastgroup == "name":
            tokens.append(("name", match.group("name"), match.start("name")))
        else:
            tokens.append(("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, ring, text):
        self.ring = ring
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise PolynomialSyntaxError(message, tok[2])

    def parse(self):
        try:
            poly = self.expr()
        except RecursionError:
            self.fail("nesting is deeper than the recursion limit", self.tokens[self.i - 1])
        kind, value, _ = self.peek()
        if kind != "end":
            self.fail("unexpected %r" % (value,))
        return poly

    def expr(self):
        """A sum of products of factors: a level of parentheses costs this frame and `factor`'s."""
        poly, sign = None, "+"
        while True:
            product = self.factor()
            kind, value, _ = self.peek()
            while kind == "op" and value == "*":
                self.advance()
                product = product * self.factor()
                kind, value, _ = self.peek()
            poly = product if poly is None else poly + product if sign == "+" else poly - product
            if not (kind == "op" and value in "+-"):
                return poly
            self.advance()
            sign = value

    def exponent(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.fail("negative exponent")
        if kind != "int":
            self.fail("expected integer exponent")
        if value > MAX_EXPONENT:
            self.fail("exponent %d is above the cap of %d" % (value, MAX_EXPONENT))
        self.advance()
        return value

    def factor(self):
        """A number, a variable or a parenthesised sum, with any power, after unary minuses counted in a loop."""
        negate = False
        kind, value, pos = self.advance()
        while kind == "op" and value == "-":
            negate = not negate
            kind, value, pos = self.advance()
        if kind == "int":
            nxt_kind, nxt_value, _ = self.peek()
            if nxt_kind == "op" and nxt_value == "/":
                self.advance()
                den_kind, den_value, den_pos = self.advance()
                if den_kind != "int":
                    raise PolynomialSyntaxError("expected integer denominator", den_pos)
                if den_value == 0:
                    raise PolynomialSyntaxError("zero denominator", den_pos)
                coeff = Fraction(value, den_value)
            else:
                coeff = Fraction(value)
            poly = Polynomial({unit_monomial(self.ring.num_vars): coeff})
        elif kind == "name":
            if value not in self.ring._var_index:
                raise PolynomialSyntaxError("unknown identifier %r" % value, pos)
            poly = self.maybe_power(self.ring.variable(value))
        elif kind == "op" and value == "(":
            poly = self.expr()
            close_kind, close_value, close_pos = self.advance()
            if not (close_kind == "op" and close_value == ")"):
                raise PolynomialSyntaxError("expected ')'", close_pos)
            poly = self.maybe_power(poly)
        else:
            self.fail("unexpected %s" % ("end of input" if kind == "end" else repr(value)), (kind, value, pos))
        return -poly if negate else poly

    def maybe_power(self, poly):
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            tok = self.peek()
            e = self.exponent()
            if e > 1 and poly.terms:
                self.check_power_size(poly, e, tok)
            one = Polynomial({unit_monomial(self.ring.num_vars): 1})
            if len(poly.terms) == 1:
                # one term: scale its exponents instead of multiplying e times
                ((mono, coeff),) = poly.terms.items()
                return Polynomial({tuple(x * e for x in mono): coeff ** e})
            if poly.is_zero:
                return poly if e else one
            result = one
            for _ in range(e):
                result = result * poly
            return result
        return poly


    def check_power_size(self, poly, e, tok):
        """Raise PolynomialSyntaxError, at tok, if poly^e is estimated above a cap."""
        t = len(poly.terms)
        # for e >= 1 the count is at least t; testing t first keeps comb small
        if t > MAX_POWER_TERMS or comb(e + t - 1, t - 1) > MAX_POWER_TERMS:
            self.fail("power of a %d-term base to %d would have more than MAX_POWER_TERMS = %d terms"
                      % (t, e, MAX_POWER_TERMS), tok)
        growth = max(
            (abs(c.numerator) - 1).bit_length() + (c.denominator - 1).bit_length() for c in poly.terms.values()
        )
        bits = e * (growth + (t - 1).bit_length())
        if bits > MAX_POWER_BITS:
            self.fail("power to %d would have coefficients of up to about %d bits, above MAX_POWER_BITS = %d"
                      % (e, bits, MAX_POWER_BITS), tok)


def parse_polynomial(ring, text):
    """Parse text into a Polynomial over the given ring."""
    return _Parser(ring, text).parse()


def _monomial_string(ring, mono):
    parts = []
    for name, e in zip(ring.var_names, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts)


def number_to_string(value):
    """str of an int or a Fraction.

    Raises InputError if a numerator or denominator has more decimal digits
    than Python converts to text (sys.get_int_max_str_digits).
    """
    try:
        return str(value)
    except ValueError:
        raise InputError(
            "a coefficient has more than %d decimal digits, the most Python prints "
            "(see sys.set_int_max_str_digits)" % sys.get_int_max_str_digits()
        ) from None


def polynomial_to_string(ring, poly):
    """Canonical text form: terms in decreasing term order, explicit * and ^.

    Raises InputError on a coefficient too long to print (see `number_to_string`).
    """
    if poly.is_zero:
        return "0"
    pieces = []
    for mono in sorted(poly.terms, key=ring.monomial_key, reverse=True):
        coeff = poly.terms[mono]
        sign = "-" if coeff < 0 else "+"
        mag = -coeff if coeff < 0 else coeff
        var_part = _monomial_string(ring, mono)
        if not var_part:
            body = number_to_string(mag)
        elif mag == 1:
            body = var_part
        else:
            body = "%s*%s" % (number_to_string(mag), var_part)
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        text += sign + body
    return text
