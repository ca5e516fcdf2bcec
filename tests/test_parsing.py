from fractions import Fraction
from math import comb

import pytest

from torusweights import Polynomial, PolynomialSyntaxError, RingSpec
from torusweights.parsing import (
    MAX_EXPONENT,
    MAX_POWER_BITS,
    MAX_POWER_TERMS,
    parse_polynomial,
    polynomial_to_string,
)


@pytest.fixture
def ring():
    return RingSpec(["x1", "x2", "x3"], [[1]] * 3, [[0]] * 3)


def test_basic_terms(ring):
    p = parse_polynomial(ring, "x1*x2 - 2*x3^2")
    assert p.terms == {(1, 1, 0): 1, (0, 0, 2): -2}


def test_plucker_relation_string():
    names = ["p_13", "p_14", "p_15", "p_34", "p_35", "p_45"]
    ring = RingSpec(names, [[1]] * 6, [[0]] * 6)
    p = parse_polynomial(ring, "-p_34*p_15+p_14*p_35-p_13*p_45")
    v = {n: i for i, n in enumerate(names)}

    def mono(a, b):
        e = [0] * 6
        e[v[a]] += 1
        e[v[b]] += 1
        return tuple(e)

    assert p.terms == {
        mono("p_34", "p_15"): -1,
        mono("p_14", "p_35"): 1,
        mono("p_13", "p_45"): -1,
    }


def test_power_zero_is_one(ring):
    assert parse_polynomial(ring, "x1^0") == ring.one()


def test_power_of_one_term_scales_its_exponents(ring):
    assert parse_polynomial(ring, "x1^10000000").terms == {(10000000, 0, 0): 1}
    assert parse_polynomial(ring, "(-2/3*x1*x2^2)^3").terms == {(3, 6, 0): Fraction(-8, 27)}
    assert parse_polynomial(ring, "(x1 - x1)^10000000").is_zero
    assert parse_polynomial(ring, "(x1 - x1)^0") == ring.one()


def test_rationals_and_parentheses(ring):
    p = parse_polynomial(ring, "1/2*(x1 + x2)^2 - 1/2*x1^2")
    q = parse_polynomial(ring, "x1*x2 + 1/2*x2^2")
    assert p == q


def test_unary_minus_stacking(ring):
    assert parse_polynomial(ring, "--x1") == ring.variable(0)
    assert parse_polynomial(ring, "-x1+x1").is_zero


def test_nesting_past_the_recursion_limit_is_a_syntax_error(ring):
    for text in ["(" * 250 + "x1" + ")" * 250, "-" * 5000 + "x1"]:
        with pytest.raises(PolynomialSyntaxError, match="recursion limit") as info:
            parse_polynomial(ring, text)
        # the position of the last token the parser took, within the nesting
        assert info.value.position <= text.index("x1")


def test_unknown_identifier(ring):
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_polynomial(ring, "x1 + zz")
    assert info.value.position == 5


def test_negative_exponent(ring):
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial(ring, "x1^-2")


def test_exponent_cap(ring):
    assert parse_polynomial(ring, "x1^%d" % MAX_EXPONENT).terms == {(MAX_EXPONENT, 0, 0): 1}
    text = "2*(x1 + x2)^%d" % (MAX_EXPONENT + 1)
    with pytest.raises(PolynomialSyntaxError, match="cap of %d" % MAX_EXPONENT) as info:
        parse_polynomial(ring, text)
    assert info.value.position == text.index("^") + 1


def test_power_term_cap(ring):
    # (x1 + x2 + x3)^e has C(e + 2, 2) terms
    e = max(e for e in range(MAX_POWER_TERMS) if comb(e + 2, 2) <= MAX_POWER_TERMS)
    assert len(parse_polynomial(ring, "(x1 + x2 + x3)^%d" % e).terms) == comb(e + 2, 2)
    text = "(x1 + x2 + x3)^%d" % (e + 1)
    with pytest.raises(PolynomialSyntaxError, match="MAX_POWER_TERMS = %d" % MAX_POWER_TERMS) as info:
        parse_polynomial(ring, text)
    assert info.value.position == text.index("^") + 1


def test_power_coefficient_cap(ring):
    # 2^e has e + 1 bits; the estimate counts ceil(log2 2) = 1 per factor
    assert parse_polynomial(ring, "(2*x1)^%d" % MAX_POWER_BITS).terms == {(MAX_POWER_BITS, 0, 0): 2**MAX_POWER_BITS}
    text = "(2*x1)^%d" % (MAX_POWER_BITS + 1)
    with pytest.raises(PolynomialSyntaxError, match="MAX_POWER_BITS = %d" % MAX_POWER_BITS) as info:
        parse_polynomial(ring, text)
    assert info.value.position == text.index("^") + 1
    # a coefficient of 1, -1 or 1/2 grows by at most one bit per factor or none
    assert parse_polynomial(ring, "(-x1)^%d" % MAX_EXPONENT).terms == {(MAX_EXPONENT, 0, 0): 1}
    assert parse_polynomial(ring, "(1/2*x1)^%d" % MAX_POWER_BITS).terms == {
        (MAX_POWER_BITS, 0, 0): Fraction(1, 2**MAX_POWER_BITS)
    }


def test_implicit_multiplication_rejected(ring):
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial(ring, "2 x1")
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial(ring, "x1 x2")


def test_malformed(ring):
    for bad in ["", "x1 +", "(x1", "x1 ^ x2", "*x1", "x1 // 2", "3/0"]:
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial(ring, bad)


def test_bad_character_position(ring):
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_polynomial(ring, "x1 + $")
    assert info.value.position == 5


def test_print_parse_round_trip(ring):
    samples = [
        "0",
        "1",
        "-1",
        "x1",
        "-x1",
        "x1*x2-2*x3^2",
        "1/2*x1^3-5*x2+7",
        "x1^4*x2^2*x3-1/3",
    ]
    for text in samples:
        p = parse_polynomial(ring, text)
        printed = polynomial_to_string(ring, p)
        assert parse_polynomial(ring, printed) == p
        # canonical form is a fixed point of print(parse(.))
        assert polynomial_to_string(ring, parse_polynomial(ring, printed)) == printed


def test_print_orders_terms_decreasing(ring):
    p = parse_polynomial(ring, "x3 + x1 + x2")
    assert polynomial_to_string(ring, p) == "x1+x2+x3"
    q = parse_polynomial(ring, "x2^2 + x1*x3")
    # grevlex: x2^2 > x1*x3 (same total degree, last differing exponent smaller wins)
    assert polynomial_to_string(ring, q) == "x2^2+x1*x3"


def test_print_zero(ring):
    assert polynomial_to_string(ring, Polynomial()) == "0"
