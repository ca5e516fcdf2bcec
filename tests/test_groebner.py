import hashlib
import importlib
import logging
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

import pytest

from torusweights import (
    DependentColumnsError,
    FreeModuleSpec,
    InputError,
    MinimalityError,
    ModuleTerm,
    ModuleTermOrder,
    PolyMatrix,
    Polynomial,
    RingSpec,
    ScalarMatrix,
    SingularMatrixError,
    buchberger,
    change_of_basis,
    enumerate_terms,
    is_minimal_map,
    minimal_resolution,
    normal_form,
    propagate_graded_components,
    propagate_resolution,
    sort_gb_columns,
    standard_monomials,
    syzygies,
)
from torusweights.errors import InternalError
from torusweights.groebner import _buchberger_run, check_chain
from torusweights.linalg import invert, solve
from torusweights.modules import ModuleElement
from torusweights.packed import _FIELD_BITS, _TermCodec, _largest_degree
from torusweights.parsing import parse_polynomial, polynomial_to_string
from torusweights.problemfile import load_problem
from torusweights.rings import monomial_div, monomial_lcm, vector_add

from conftest import (
    PROBLEMS,
    WIDE_WEIGHT_RING,
    entries_as_text,
    fixture_path,
    koszul_presentation,
    matrix,
    std_ring,
)
from reference import reference_standard_monomials

TOP_UP = ModuleTermOrder("top-up")


def row_matrix(ring, degs, texts):
    return matrix(ring, [[0] * ring.degree_length], [list(d) for d in degs], [texts])


def tracked_run(m, order):
    """The unbounded Buchberger run with unit tails on m's columns, unpacked.

    Returns the elements g_t the run added, in order, and its records
    (relation, degree, payload, multiplier, t), each relation a
    ModuleElement of the free module over those elements.
    """
    ring = m.domain.ring
    codec = _TermCodec(ring, order, max(m.num_rows, m.num_cols), _largest_degree(m))
    codec, _, basis, records, _ = _buchberger_run(
        codec, codec.columns(m), m.domain.basis_degrees, m.codomain, None, [True] * m.num_cols
    )
    elements = [ModuleElement(m.codomain, codec.entries(work, m.num_rows)) for work, _ in basis]
    over = FreeModuleSpec(ring, [g.term_degree(g.leading_term(order)[0]) for g in elements])
    return elements, [
        (ModuleElement(over, codec.entries(relation, over.rank)), *rest) for relation, *rest in records
    ]


@pytest.fixture
def std3():
    return RingSpec(["x1", "x2", "x3"], [[1]] * 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


# ---------- division ----------


def test_normal_form_self_reduces_to_zero(std3):
    module = FreeModuleSpec(std3, [[0]])
    e = module.basis_element(0, parse_polynomial(std3, "x2"))
    result = normal_form(e, [e], TOP_UP)
    assert result.remainder.is_zero
    assert result.quotients[0] == std3.one()


def test_normal_form_already_reduced(bigraded):
    ring = bigraded.ring
    basis = buchberger(bigraded.matrices["m"], TOP_UP)
    module = bigraded.matrices["m"].codomain
    y1 = module.basis_element(0, parse_polynomial(ring, "y1"))
    result = normal_form(y1, list(basis.elements), TOP_UP)
    assert result.remainder == y1


def test_normal_form_membership(std3):
    # x1*(x1+x2) - x1*x1 = x1*x2 lies in the ideal of the three generators
    module = FreeModuleSpec(std3, [[0]])
    gens = [
        module.basis_element(0, parse_polynomial(std3, t))
        for t in ["x1", "x1+x2", "x1+x3"]
    ]
    e = module.basis_element(0, parse_polynomial(std3, "x1*(x1+x2)-x1*x1"))
    assert normal_form(e, gens, TOP_UP).remainder.is_zero
    e2 = module.basis_element(0, parse_polynomial(std3, "x2*(x1+x3)-x3*(x1+x2)"))
    result = normal_form(e2, gens, TOP_UP)
    assert result.remainder.is_zero
    recombined = module.zero_element()
    for q, g in zip(result.quotients, gens):
        recombined = recombined + g.multiply(q)
    assert recombined == e2


def test_normal_form_divides_integer_coefficients_exactly(std3):
    # the divisors' leading coefficients are not units, so int / int would
    # give a float: 0.5 for 2, and an inexact 0.333... for 3
    module = FreeModuleSpec(std3, [[0]])
    cases = [("x1", "2*x1-x2", Fraction(1, 2)), ("x1", "3*x1-x2", Fraction(1, 3)), ("3*x1", "3*x1-x2", 1)]
    for text, divisor, q in cases:
        e = module.basis_element(0, parse_polynomial(std3, text))
        g = module.basis_element(0, parse_polynomial(std3, divisor))
        result = normal_form(e, [g], TOP_UP)
        assert result.quotients == [Polynomial({(0, 0, 0): q})]
        assert result.remainder == module.basis_element(0, Polynomial({(0, 1, 0): q}))
        coefficients = [c for p in result.quotients for c in p.terms.values()]
        coefficients += [c for _, c in result.remainder.support()]
        assert [type(c) for c in coefficients] == [type(q)] * 2


def test_normal_form_takes_a_one_shot_iterable_of_divisors(std3):
    # the divisors are checked and then divided by, so an iterator that the
    # checks use up must not leave the division without divisors
    module = FreeModuleSpec(std3, [[0]])
    e = module.basis_element(0, parse_polynomial(std3, "x1^2+x1*x2"))
    g = module.basis_element(0, parse_polynomial(std3, "x1"))
    result = normal_form(e, iter([g]), TOP_UP)
    assert result.remainder.is_zero
    assert result.quotients == [parse_polynomial(std3, "x1+x2")]


def test_normal_form_rejects_an_order_that_is_not_a_module_term_order(std3):
    module = FreeModuleSpec(std3, [[0]])
    e = module.basis_element(0, parse_polynomial(std3, "x1"))
    with pytest.raises(InputError, match="ModuleTermOrder"):
        normal_form(e, [e], "top-up")


def test_normal_form_rejects_a_zero_divisor(std3):
    module = FreeModuleSpec(std3, [[0]])
    e = module.basis_element(0, parse_polynomial(std3, "x1"))
    with pytest.raises(InputError, match="divisor 1 is zero"):
        normal_form(e, [e, module.zero_element()], TOP_UP)


def test_normal_form_rejects_a_divisor_from_another_module(std3):
    # a divisor from another module must not "divide" the element and return a quotient
    line = FreeModuleSpec(std3, [[0]])
    plane = FreeModuleSpec(std3, [[0], [0]])
    e = line.basis_element(0, parse_polynomial(std3, "x1"))
    with pytest.raises(InputError, match="divisor 0 lives in another module"):
        normal_form(e, [plane.basis_element(0, parse_polynomial(std3, "x1"))], TOP_UP)
    shifted = FreeModuleSpec(std3, [[1]])
    with pytest.raises(InputError, match="divisor 0 lives in another module"):
        normal_form(e, [shifted.basis_element(0, parse_polynomial(std3, "x1"))], TOP_UP)


def test_normal_form_widens_its_fields_when_a_lex_division_outgrows_them(caplog):
    # under lex, dividing x^30 by the inhomogeneous x - y^5 leaves y^150:
    # total degree 150, above the fields sized for the inputs (degree 30)
    ring = RingSpec(["x", "y"], [[1], [1]], [[1, 0], [0, 1]], "lex")
    module = FreeModuleSpec(ring, [[0]])
    element = module.basis_element(0, parse_polynomial(ring, "x^30"))
    divisor = module.basis_element(0, parse_polynomial(ring, "x - y^5"))
    caplog.set_level(logging.DEBUG, logger="torusweights.groebner")
    result = normal_form(element, [divisor], TOP_UP)
    assert result.remainder == module.basis_element(0, parse_polynomial(ring, "y^150"))
    assert result.quotients == [parse_polynomial(ring, "+".join("x^%d*y^%d" % (29 - k, 5 * k) for k in range(30)))]
    assert "normal form: widened exponent fields" in caplog.text


# ---------- buchberger ----------


def test_gb_of_linear_forms(std3, koszul):
    basis = buchberger(koszul.matrices["d1"], TOP_UP)
    ring = koszul.ring
    texts = [polynomial_to_string(ring, g.entries[0]) for g in basis.elements]
    assert texts == ["x3", "x2", "x1"]
    g = sort_gb_columns(basis)
    assert entries_as_text(g) == [["x3", "x2", "x1"]]


def test_gb_single_column_is_itself(koszul):
    ring = koszul.ring
    m = matrix(ring, [[2]] * 3, [[3]], [["x1"], ["-x2"], ["x3"]])
    basis = buchberger(m, TOP_UP)
    assert len(basis.elements) == 1
    assert entries_as_text(sort_gb_columns(basis)) == [["x1"], ["-x2"], ["x3"]]


def fixture_matrices():
    for name in PROBLEMS:
        for label, m in load_problem(fixture_path(name + ".json")).matrices.items():
            yield pytest.param(m, id="%s-%s" % (name, label))


@pytest.mark.parametrize("m", fixture_matrices())
def test_sorted_gb_columns_are_the_elements_sorted_by_leading_term(m):
    # sort_gb_columns keeps buchberger's element order, or reverses it: the
    # leading terms must still be strictly monotone under the order's key,
    # and the matrix the one a sort by leading term gives
    ring = m.domain.ring
    for order in [ModuleTermOrder(kind) for kind in ModuleTermOrder.KINDS]:
        basis = buchberger(m, order)
        g = sort_gb_columns(basis)
        key = order.sort_key(ring)
        leads = [key(col.leading_term(order)[0]) for col in g.columns()]
        if order.is_position_up:
            assert all(a < b for a, b in zip(leads, leads[1:])), order
        else:
            assert all(a > b for a, b in zip(leads, leads[1:])), order
        by_lead = sorted(
            basis.elements, key=lambda e: key(e.leading_term(order)[0]), reverse=not order.is_position_up
        )
        domain = FreeModuleSpec(ring, [e.term_degree(e.leading_term(order)[0]) for e in by_lead])
        assert g == PolyMatrix.from_columns(basis.module, domain, by_lead), order


def test_gb_of_first_syzygy_middle_block(bigraded):
    ring = bigraded.ring
    cod = FreeModuleSpec(ring, [(1, 0), (1, 0), (0, 2), (0, 2), (0, 2)])
    block = matrix(
        ring,
        [(1, 0), (1, 0), (0, 2), (0, 2), (0, 2)],
        [(1, 2)] * 6,
        [
            ["0", "-y1^2", "0", "-y1*y2", "0", "-y2^2"],
            ["-y1^2", "0", "-y1*y2", "0", "-y2^2", "0"],
            ["0", "0", "0", "0", "x1", "x2"],
            ["0", "0", "x1", "x2", "0", "0"],
            ["x1", "x2", "0", "0", "0", "0"],
        ],
    )
    basis = buchberger(block, TOP_UP, bound=(1, 2))
    g = sort_gb_columns(basis)
    assert entries_as_text(g) == [
        ["y2^2", "0", "y1*y2", "0", "y1^2", "0"],
        ["0", "y2^2", "0", "y1*y2", "0", "y1^2"],
        ["-x2", "-x1", "0", "0", "0", "0"],
        ["0", "0", "-x2", "-x1", "0", "0"],
        ["0", "0", "0", "0", "-x2", "-x1"],
    ]


def test_gb_canonical_under_column_mixing(koszul):
    d1 = koszul.matrices["d1"]
    ring = koszul.ring
    mixed = matrix(ring, [[0]], [[1]] * 3, [["x1+x3", "7*x1", "x1+x2-x3"]])
    assert buchberger(d1, TOP_UP).elements == buchberger(mixed, TOP_UP).elements


def test_gb_monomial_ideal(bigraded):
    basis = buchberger(bigraded.matrices["m"], TOP_UP)
    ring = bigraded.ring
    texts = [polynomial_to_string(ring, g.entries[0]) for g in basis.elements]
    assert texts == ["x2", "x1", "y2^2", "y1*y2", "y1^2"]


def test_gb_plucker_relations_already_reduced(grassmannian):
    d1 = grassmannian.matrices["d1"]
    basis = buchberger(d1, TOP_UP)
    assert len(basis.elements) == 5
    ring = grassmannian.ring
    lts = [lt.monomial for lt in basis.leading_terms()]
    names = {n: i for i, n in enumerate(ring.var_names)}

    def mono(a, b):
        e = [0] * 10
        e[names[a]] += 1
        e[names[b]] += 1
        return tuple(e)

    assert set(lts) == {
        mono("p_23", "p_14"),
        mono("p_23", "p_15"),
        mono("p_24", "p_15"),
        mono("p_34", "p_15"),
        mono("p_34", "p_25"),
    }


def test_gb_truncation_bound(std3):
    # bound below the S-pair degrees: only the inter-reduced generators survive
    m = row_matrix(std3, [[2], [2]], ["x1*x2", "x2^2-x1*x3"])
    full = buchberger(m, TOP_UP)
    truncated = buchberger(m, TOP_UP, bound=(2,))
    assert {g.homogeneous_degree() for g in truncated.elements} == {(2,)}
    assert len(full.elements) > len(truncated.elements)
    full_lts_deg2 = [g for g in full.elements if g.homogeneous_degree() == (2,)]
    assert full_lts_deg2 == list(truncated.elements)


def test_gb_truncation_bound_must_be_an_integer_degree_of_the_ring(std3):
    m = row_matrix(std3, [[1]], ["x1"])
    for bad in [(1, 2), (1.5,), 1]:
        with pytest.raises(InputError):
            buchberger(m, TOP_UP, bound=bad)


def test_buchberger_queue_follows_the_positive_functional():
    # deg w = (2, -4) and deg y = (1, -2) have negative component sums.  By
    # component sum, x^2*y + x*z in degree (3, -2) would be queued before x^2
    # in degree (2, 0) and join the basis with leading term x^2*y, which x^2
    # then makes redundant; under the functional x^2 comes first and reduces
    # the second column to x*z
    degrees = [[2, -4], [1, 0], [1, -2], [2, -2]]
    ring = RingSpec(["w", "x", "y", "z"], degrees, degrees, "lex")
    m = row_matrix(ring, [[2, 0], [3, -2]], ["x^2", "x^2*y+x*z"])
    elements, _ = tracked_run(m, TOP_UP)
    assert [polynomial_to_string(ring, element.entries[0]) for element in elements] == ["x^2", "x*z"]
    values = [ring._functional(g.term_degree(g.leading_term(TOP_UP)[0])) for g in elements]
    assert values == sorted(values)


def test_groebner_entry_points_reject_bad_order(koszul):
    d1 = koszul.matrices["d1"]
    for call in (buchberger, syzygies, minimal_resolution):
        with pytest.raises(InputError):
            call(d1, "top-up")


# ---------- change of basis ----------


def test_change_of_basis_exa1(two_variables):
    m = two_variables.matrices["m"]
    basis = buchberger(m, TOP_UP, bound=(1,))
    g = sort_gb_columns(basis)
    c = change_of_basis(m, g)
    assert c == ScalarMatrix([[0, 1], [1, 0]])


def test_change_of_basis_identity(two_variables):
    m = two_variables.matrices["m"]
    assert change_of_basis(m, m) == ScalarMatrix.identity(2)


def test_change_of_basis_koszul_first_map(koszul):
    m = koszul.matrices["d1"]
    g = sort_gb_columns(buchberger(m, TOP_UP, bound=(1,)))
    assert change_of_basis(m, g) == ScalarMatrix([[-1, -1, 1], [0, 1, 0], [1, 0, 0]])


def test_change_of_basis_rejects_dependent_columns():
    ring = RingSpec(["x"], [[1]], [[1]])
    m = row_matrix(ring, [[1], [1]], ["x", "x"])
    with pytest.raises(MinimalityError):
        change_of_basis(m, m)


def test_solve_raises_typed_error_for_dependent_columns():
    with pytest.raises(DependentColumnsError):
        solve([[1, 2], [2, 4], [0, 0]], [[1], [2], [0]])
    # an inconsistent system with independent columns is a plain InputError
    with pytest.raises(InputError) as info:
        solve([[1], [0]], [[0], [1]])
    assert not isinstance(info.value, DependentColumnsError)
    with pytest.raises(SingularMatrixError):
        invert([[1, 2], [2, 4]])


def test_change_of_basis_rejects_outside_span(std3):
    m = row_matrix(std3, [[1]], ["x1"])
    g = row_matrix(std3, [[1]], ["x2"])
    with pytest.raises(InputError):
        change_of_basis(m, g)


def test_change_of_basis_rejects_mixed_degrees(bigraded):
    m = bigraded.matrices["m"]
    with pytest.raises(InputError):
        change_of_basis(m, m)


# ---------- enumerate / standard monomials ----------


def test_enumerate_terms_standard():
    ring = RingSpec(["x", "y"], [[1], [1]], [[0], [0]])
    module = FreeModuleSpec(ring, [[0]])
    terms = enumerate_terms(module, (2,))
    assert terms == [ModuleTerm((2, 0), 0), ModuleTerm((1, 1), 0), ModuleTerm((0, 2), 0)]


def test_enumerate_terms_bigraded(bigraded):
    module = FreeModuleSpec(bigraded.ring, [[0, 0]])
    terms = enumerate_terms(module, (1, 1))
    assert len(terms) == 4
    assert enumerate_terms(module, (0, 2)) == [
        ModuleTerm((0, 0, 2, 0), 0),
        ModuleTerm((0, 0, 1, 1), 0),
        ModuleTerm((0, 0, 0, 2), 0),
    ]


def test_enumerate_terms_empty_degree():
    ring = RingSpec(["x", "y"], [[1], [1]], [[0], [0]])
    module = FreeModuleSpec(ring, [[0]])
    assert enumerate_terms(module, (-1,)) == []


@pytest.mark.parametrize("degree", [(2, 3), (), 2, (1.5,), ("2",)])
def test_enumerate_terms_rejects_a_malformed_degree(degree):
    # (2, 3) must not be truncated to (2,), nor 2 or (1.5,) end in a bare TypeError
    ring = RingSpec(["x", "y"], [[1], [1]], [[0], [0]])
    module = FreeModuleSpec(ring, [[0]])
    with pytest.raises(InputError, match="degree"):
        enumerate_terms(module, degree)


def test_enumerate_terms_rejects_an_order_that_is_not_a_module_term_order():
    ring = RingSpec(["x", "y"], [[1], [1]], [[0], [0]])
    module = FreeModuleSpec(ring, [[0]])
    with pytest.raises(InputError, match="ModuleTermOrder"):
        enumerate_terms(module, (1,), "top-up")


def test_standard_monomials_rejects_a_malformed_degree(grassmannian):
    basis = buchberger(grassmannian.matrices["d1"], TOP_UP)
    for degree in [(2, 3), 2, (1.5,)]:
        with pytest.raises(InputError, match="degree"):
            standard_monomials(basis, degree)


def test_standard_monomials_small_bigraded(bigraded):
    basis = buchberger(bigraded.matrices["m"], TOP_UP)
    terms = standard_monomials(basis, (0, 1))
    assert terms == [ModuleTerm((0, 0, 1, 0), 0), ModuleTerm((0, 0, 0, 1), 0)]
    assert standard_monomials(basis, (2, 0)) == []


def test_standard_monomials_gr2_count(grassmannian):
    basis = buchberger(grassmannian.matrices["d1"], TOP_UP)
    terms = standard_monomials(basis, (2,))
    assert len(terms) == 50


@pytest.mark.parametrize(
    "n, entries, degrees",
    [
        (2, ["x1^200", "x2^3", "x1^130*x2^2"], (0, 5, 127, 128, 132, 200, 201, 260)),
        (3, ["x1^150", "x2^2*x3", "x3^140"], (0, 5, 20, 30)),
    ],
)
def test_standard_monomials_beyond_the_initial_fields(n, entries, degrees):
    # leading terms of total degree above what a fresh codec's fields hold,
    # at degrees below, at and above them, under every order
    ring = std_ring(n)
    polys = [parse_polynomial(ring, e) for e in entries]
    m = matrix(ring, [[0]], [[sum(next(iter(p.terms)))] for p in polys], [entries])
    assert max(map(sum, (mono for p in polys for mono in p.terms))) > (1 << _FIELD_BITS) - 1
    for order in ALL_ORDERS:
        basis = buchberger(m, order)
        for d in degrees:
            expected = reference_standard_monomials(basis, (d,))
            assert standard_monomials(basis, (d,)) == expected, (order, d)
            assert standard_monomials(buchberger(m, order, bound=(d,)), (d,)) == expected, (order, d)


def test_the_search_at_the_rows_own_degree_packs_the_variable_weights_too():
    # at the rows' own degree the search is bounded at total degree 0 and
    # takes no exponent step, but it packs the variable weights, up to
    # 2**70 here, beside index weights of 0 all the same, so its slots must
    # hold them too
    ring = WIDE_WEIGHT_RING
    m = matrix(ring, [[0], [0]], [[2], [1]], [["x*y", "z"], ["z^2", "0"]])
    assert max(abs(w) for ws in ring.var_weights for w in ws) >= 2**70
    for order in ALL_ORDERS:
        basis = buchberger(m, order, bound=(0,))
        assert basis.leading_terms() == []
        assert standard_monomials(basis, (0,)) == sorted(
            [ModuleTerm((0, 0, 0), 0), ModuleTerm((0, 0, 0), 1)], key=order.sort_key(ring), reverse=True
        )
        assert propagate_graded_components((0,), m, [(0, 0), (0, 0)], order) == ((0, 0), (0, 0))


# ---------- minimality ----------


def test_is_minimal_map_examples():
    ring = RingSpec(["x"], [[1]], [[1]])
    tall = matrix(ring, [[0], [0]], [[1]], [["x"], ["x"]])
    assert is_minimal_map(tall)
    wide = row_matrix(ring, [[1], [1]], ["x", "x"])
    assert not is_minimal_map(wide)


def test_is_minimal_map_identity_column():
    # {1} minimally generates the free module, so the identity is a minimal map
    ring = RingSpec(["x"], [[1]], [[1]])
    ident = matrix(ring, [[0]], [[0]], [["1"]])
    assert is_minimal_map(ident)


def test_is_minimal_map_nakayama_mixed_degrees():
    ring = RingSpec(["x", "y"], [[1], [1]], [[0], [0]])
    # second column is x times the first: fails minimality through the ideal
    m = row_matrix(ring, [[1], [2]], ["x", "x^2"])
    assert not is_minimal_map(m)
    m2 = row_matrix(ring, [[1], [2]], ["x", "y^2"])
    assert is_minimal_map(m2)


def test_is_minimal_map_sees_a_generator_that_only_an_s_pair_gives():
    # over grevlex x > y, with a = x*y and b = x^2+y^2, y^3 = y*b - x*a: the
    # degree-3 S-pair of a and b reduces to y^3, so y^3 is redundant, but
    # only a run that takes that S-pair before the degree-3 generator sees it
    ring = RingSpec(["x", "y"], [[1], [1]], [[1, 0], [0, 1]])
    m = row_matrix(ring, [[2], [2], [3]], ["x*y", "x^2+y^2", "y^3"])
    assert not is_minimal_map(m)
    assert is_minimal_map(row_matrix(ring, [[2], [2]], ["x*y", "x^2+y^2"]))


def test_is_minimal_map_zero_column(std3):
    m = row_matrix(std3, [[1], [1]], ["x1", "0"])
    assert not is_minimal_map(m)


def test_minimal_presentations_are_minimal(bigraded, koszul, grassmannian):
    assert is_minimal_map(bigraded.matrices["m"])
    for name in ["d1", "d2", "d3"]:
        assert is_minimal_map(koszul.matrices[name])
        assert is_minimal_map(grassmannian.matrices[name])


# ---------- syzygies and resolutions ----------


def mutual_reduction_image_equal(a, b, order):
    basis_a = buchberger(a, order)
    basis_b = buchberger(b, order)
    for col in a.columns():
        if not normal_form(col, list(basis_b.elements), order).remainder.is_zero:
            return False
    for col in b.columns():
        if not normal_form(col, list(basis_a.elements), order).remainder.is_zero:
            return False
    return True


def test_syzygies_of_variables_match_koszul(std3, koszul):
    m = row_matrix(std3, [[1]] * 3, ["x1", "x2", "x3"])
    s = syzygies(m, TOP_UP)
    assert (m @ s).is_zero
    assert s.num_cols == 3
    koszul_d2 = matrix(
        std3,
        [[1]] * 3,
        [[2]] * 3,
        [
            ["-x2", "-x3", "0"],
            ["x1", "0", "-x3"],
            ["0", "x1", "x2"],
        ],
    )
    assert mutual_reduction_image_equal(s, koszul_d2, TOP_UP)


def test_syzygies_of_regular_sequence_start_empty():
    ring = RingSpec(["x", "y"], [[1], [1]], [[0], [0]])
    m = row_matrix(ring, [[1], [1]], ["x", "y"])
    s = syzygies(m, TOP_UP)
    assert s.num_cols == 1  # the single Koszul relation
    deeper = syzygies(s, TOP_UP)
    assert deeper.num_cols == 0


def test_syzygies_of_zero_columns_are_the_identity(std3):
    # every column is redundant: the syzygies are the whole domain, one unit per column
    m = matrix(std3, [[0], [1]], [[2], [3]], [["0", "0"], ["0", "0"]])
    s = syzygies(m, TOP_UP)
    assert (s.codomain, s.domain) == (m.domain, m.domain)
    assert entries_as_text(s) == [["1", "0"], ["0", "1"]]


def test_buchberger_of_a_map_without_columns_is_empty(std3):
    m = matrix(std3, [[0], [1]], [], [[], []])
    for order in (TOP_UP, ModuleTermOrder("pot-down")):
        basis = buchberger(m, order)
        assert (basis.module, basis.elements) == (m.codomain, ())


def test_syzygies_of_exa3_presentation(bigraded):
    m = bigraded.matrices["m"]
    s = syzygies(m, TOP_UP)
    assert (m @ s).is_zero
    assert Counter(s.domain.basis_degrees) == Counter(
        {(2, 0): 1, (1, 2): 6, (0, 3): 2}
    )


def test_syzygies_of_a_high_degree_row_in_three_variables_are_fast():
    # a minimality check by monomial products did not finish in 25 s here:
    # it multiplied relations by every monomial of gaps of 40 to 100 degrees
    m = load_problem(fixture_path("high_degree_3var.json")).matrices["m"]
    start = time.perf_counter()
    s = syzygies(m, ModuleTermOrder("top-down"))
    assert time.perf_counter() - start < 2
    assert [d for (d,) in s.domain.basis_degrees] == [182, 200, 200]


def test_syzygies_of_generic_rational_cubics_are_fast(std3):
    # four cubic columns over rows in degrees 0 and 1, with coefficients
    # n/d, |n| <= 5, d in {1, 2, 3, 4, 6}: the relations' integer
    # coefficients grow large; with a minimality check by monomial products
    # this call took 6-7 s on a 2-vCPU container, and from the pruned frame,
    # with each column made primitive as soon as a cancellation changes it,
    # it takes 0.5-0.75 s there (best of three, five runs)
    rng = random.Random(1)

    def form(degree):
        monos = std3.monomials_of_degree((degree,))
        return Polynomial({mono: Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 4, 6])) for mono in monos})

    rows = [[form(3) for _ in range(4)], [form(2) for _ in range(4)]]
    m = PolyMatrix(FreeModuleSpec(std3, [[0], [1]]), FreeModuleSpec(std3, [[3]] * 4), rows)
    start = time.perf_counter()
    s = syzygies(m, TOP_UP)
    assert time.perf_counter() - start < 5
    assert s.domain.basis_degrees == ((8,),) * 4


ALL_ORDERS = [ModuleTermOrder(kind) for kind in ModuleTermOrder.KINDS]


def with_redundant_columns(m):
    """m with two redundant columns appended: its first column again, and its last one times the first variable."""
    ring = m.domain.ring
    columns = m.columns()
    degrees = list(m.domain.basis_degrees)
    degrees += [degrees[0], vector_add(degrees[-1], ring.var_degrees[0])]
    extra = [columns[0], columns[-1].multiply(ring.variable(0))]
    return PolyMatrix.from_columns(m.codomain, FreeModuleSpec(ring, degrees), columns + extra)


def with_s_polynomials(m, order):
    """m with the S-polynomials under order of its pairs of columns placed before its columns.

    Only pairs whose leading terms share a row give one, and zero ones are
    left out.  Each lies in the span of its pair's columns, in the pair's
    S-pair degree, so where that S-pair adds an element of G, the frame's
    run reduces its column to zero only once the element has joined.
    """
    ring = m.domain.ring
    columns = list(zip(m.columns(), m.domain.basis_degrees))
    extra = []
    for n, (a, a_degree) in enumerate(columns):
        for b, _ in columns[n + 1:]:
            (ta, ca), (tb, cb) = a.leading_term(order), b.leading_term(order)
            if ta.index != tb.index:
                continue
            lcm = monomial_lcm(ta.monomial, tb.monomial)
            ma, mb = monomial_div(lcm, ta.monomial), monomial_div(lcm, tb.monomial)
            s = a.multiply_term(ma, cb) - b.multiply_term(mb, ca)
            if s:
                extra.append((s, vector_add(a_degree, ring.monomial_degree(ma))))
    return PolyMatrix.from_columns(
        m.codomain, FreeModuleSpec(ring, [d for _, d in extra + columns]), [c for c, _ in extra + columns]
    )


# A fixture's map, and the level of its resolution whose differential, with
# S-polynomial columns prepended (`with_s_polynomials`), has columns that
# vanish in the frame's run only after an S-pair of their own degree: a run
# that queued them with the kept columns fails its keep-flag check, on
# mixed_sign and high_degree_3var under every order, on bigraded under
# top-up and top-down.  bigraded's own columns are monomials.
S_POLYNOMIAL_MAPS = {
    "mixed_sign": ("m", 1), "bigraded": ("m", 3), "grassmannian": ("d1", 2), "high_degree_3var": ("m", 1),
}


def s_polynomial_map(name, order):
    presentation, level = S_POLYNOMIAL_MAPS[name]
    m = load_problem(fixture_path(name + ".json")).matrices[presentation]
    return with_s_polynomials(minimal_resolution(m, order, max_length=level).differentials[level - 1], order)


# SHA-256 digests of `syzygies` (its domain degrees and entries) on each
# S_POLYNOMIAL_MAPS map, per order, recorded while the frame's run took
# the kept columns only and the redundant ones were divided after it.
S_POLYNOMIAL_SYZYGY_DIGESTS = {
    "bigraded": {"top-up": "773181436dc17b9c", "pot-up": "2785251751e04c3f", "top-down": "773181436dc17b9c",
                 "pot-down": "796f6ce60a027bd4"},
    "grassmannian": {"top-up": "a259568fd5ab5651", "pot-up": "a259568fd5ab5651", "top-down": "a259568fd5ab5651",
                     "pot-down": "3ebbd00a528ecb19"},
    "high_degree_3var": {"top-up": "440485a76811b532", "pot-up": "440485a76811b532", "top-down": "440485a76811b532",
                         "pot-down": "440485a76811b532"},
    "mixed_sign": {"top-up": "8a58fcbd1b3bc777", "pot-up": "8a58fcbd1b3bc777", "top-down": "8a58fcbd1b3bc777",
                   "pot-down": "8a58fcbd1b3bc777"},
}


@pytest.mark.parametrize("name", sorted(S_POLYNOMIAL_MAPS))
def test_syzygies_of_s_polynomial_columns_match_their_digests(name):
    digests = {}
    for order in ALL_ORDERS:
        s = syzygies(s_polynomial_map(name, order), order)
        text = repr((s.domain.basis_degrees, entries_as_text(s)))
        digests[order.kind] = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digests == S_POLYNOMIAL_SYZYGY_DIGESTS[name]


@pytest.mark.parametrize(
    "name, presentation, widens, redundant",
    [
        ("koszul", "d1", False, False),
        ("bigraded", "m", False, False),
        ("grassmannian", "d1", False, False),
        ("mixed_sign", "m", False, False),
        # the frames of these widen their fields before the guard reads them
        ("high_degree", "m", True, False),
        ("high_degree_3var", "m", True, False),
        # maps that are not minimal: only the redundant columns' relations
        # are perturbed
        ("grassmannian", "d1", False, True),
        ("high_degree", "m", True, True),
        # S-polynomial columns (see S_POLYNOMIAL_MAPS), built under each order
        ("mixed_sign", "m", False, "s-pairs"),
        ("bigraded", "m", False, "s-pairs"),
        ("grassmannian", "d1", False, "s-pairs"),
        ("high_degree_3var", "m", True, "s-pairs"),
    ],
)
def test_the_syzygy_guard_rejects_a_relation_that_does_not_annihilate(
    monkeypatch, name, presentation, widens, redundant
):
    schreyer = importlib.import_module("torusweights.schreyer")
    m = load_problem(fixture_path(name + ".json")).matrices[presentation]
    if redundant is True:
        m = with_redundant_columns(m)
    real_coordinates, real_composite = schreyer._input_coordinates, schreyer._nonzero_composite
    guard_bits = []

    def composite(codec, packed):
        guard_bits.append(codec.bits)
        return real_composite(codec, packed)

    def doubled(frame):
        # double one coefficient of each relation that reaches the guard as
        # it is, up to multiples of the pivots: the redundant columns'
        # relations, which come last, or else every level-2 element that is
        # no pivot of pruning; each then no longer maps to zero, and pruning
        # the third differential removes only some level-2 elements
        vectors, scales = real_coordinates(frame)
        vectors = [dict(v) for v in vectors]
        if redundant:
            targets = range(len(vectors) - len(frame.redundant), len(vectors))
        else:
            targets = set(range(len(vectors))) - set(frame.creators.values())
        for k in targets:
            vectors[k][next(iter(vectors[k]))] *= 2
        return vectors, scales

    monkeypatch.setattr(schreyer, "_nonzero_composite", composite)
    for order in ALL_ORDERS:
        if redundant == "s-pairs":
            m = s_polynomial_map(name, order)
        guard_bits.clear()
        s = syzygies(m, order)
        assert (m @ s).is_zero
        assert s.num_cols > 0
        assert len(guard_bits) == 1 and (guard_bits[0] > _FIELD_BITS) == widens, order
        guard_bits.clear()
        with monkeypatch.context() as patch:
            patch.setattr(schreyer, "_input_coordinates", doubled)
            with pytest.raises(InternalError) as info:
                syzygies(m, order)
        assert str(info.value) == "differentials 1 and 2 of the resolution do not compose to zero"
        assert len(guard_bits) == 1


def test_the_frame_rejects_keep_flags_that_its_run_does_not_join(monkeypatch):
    # with every column flagged kept, the repeated first column is queued
    # with the kept ones and reduces to zero: it does not join
    groebner = importlib.import_module("torusweights.groebner")
    m = with_redundant_columns(load_problem(fixture_path("koszul.json")).matrices["d1"])
    monkeypatch.setattr(groebner, "_nakayama_kept", lambda codec, module, vectors, degrees: [True] * len(vectors))
    with pytest.raises(InternalError, match="the frame's run joined other columns than Nakayama keeps"):
        syzygies(m, TOP_UP)


def test_minimal_resolution_koszul_shape(koszul):
    res = minimal_resolution(koszul.matrices["d1"], TOP_UP)
    assert res.ranks == [1, 3, 3, 1]
    degrees = [sorted(m.basis_degrees) for m in res.modules]
    assert degrees == [[(0,)], [(1,)] * 3, [(2,)] * 3, [(3,)]]
    for a, b in zip(res.differentials, res.differentials[1:]):
        assert (a @ b).is_zero


def test_minimal_resolution_four_variables_binomial_ranks():
    # regular sequence of n variables: ranks are the binomial coefficients
    ring = RingSpec(["a", "b", "c", "d"], [[1]] * 4, [[0]] * 4)
    m = row_matrix(ring, [[1]] * 4, ["a", "b", "c", "d"])
    res = minimal_resolution(m, TOP_UP)
    assert res.ranks == [1, 4, 6, 4, 1]
    for k, d in enumerate(res.differentials):
        assert set(d.domain.basis_degrees) == {(k + 1,)}


def test_minimal_resolution_complete_intersection_of_quadrics():
    ring = RingSpec(["x", "y"], [[1], [1]], [[0], [0]])
    m = row_matrix(ring, [[2], [2]], ["x^2", "y^2"])
    res = minimal_resolution(m, TOP_UP)
    assert res.ranks == [1, 2, 1]
    assert res.differentials[1].domain.basis_degrees == ((4,),)


def test_minimal_resolution_non_saturated_monomial_ideal():
    # (x^2, x*y) = x*(x, y) has a linear first syzygy
    ring = RingSpec(["x", "y"], [[1], [1]], [[0], [0]])
    m = row_matrix(ring, [[2], [2]], ["x^2", "x*y"])
    res = minimal_resolution(m, TOP_UP)
    assert res.ranks == [1, 2, 1]
    assert res.differentials[1].domain.basis_degrees == ((3,),)


def test_minimal_resolution_respects_max_length(koszul):
    res = minimal_resolution(koszul.matrices["d1"], TOP_UP, max_length=2)
    assert res.length == 2


def test_minimal_resolution_rejects_max_length_below_one(koszul):
    for bad in (0, -1, 1.5, "2"):
        with pytest.raises(InputError):
            minimal_resolution(koszul.matrices["d1"], TOP_UP, max_length=bad)


def test_minimal_resolution_of_free_module(std3):
    m = PolyMatrix(FreeModuleSpec(std3, [[0]]), FreeModuleSpec(std3, []), [[]])
    res = minimal_resolution(m, TOP_UP)
    assert res.length == 0
    assert res.ranks == [1]


def test_minimal_resolution_rejects_non_minimal():
    ring = RingSpec(["x"], [[1]], [[1]])
    wide = row_matrix(ring, [[1], [1]], ["x", "x"])
    with pytest.raises(MinimalityError):
        minimal_resolution(wide, TOP_UP)


def test_resolution_differentials_have_no_constant_entries(bigraded):
    res = minimal_resolution(bigraded.matrices["m"], TOP_UP)
    for d in res.differentials:
        for row in d.entries:
            for p in row:
                for mono in p.terms:
                    assert any(mono)


# ---------- the Schreyer frame against a loop over `syzygies` ----------


def syzygies_loop(m, order):
    """The resolution that iterating the public `syzygies` gives: the reference for `minimal_resolution`."""
    diffs = [m]
    while True:
        s = syzygies(diffs[-1], order)
        if s.num_cols == 0:
            return diffs
        diffs.append(s)


def resolution_invariants(diffs, weightlists, order):
    """Ranks, degree multisets and, per start weight list at F_0, the propagated weight multisets."""
    ranks = [diffs[0].num_rows] + [d.num_cols for d in diffs]
    degrees = [Counter(d.domain.basis_degrees) for d in diffs]
    weights = [
        [Counter(map(tuple, ws)) for ws in propagate_resolution(list(diffs), 0, w, order).per_module]
        for w in weightlists
    ]
    return ranks, degrees, weights


def assert_resolution_matches_the_syzygies_loop(m, weightlists, order):
    resolution = minimal_resolution(m, order)
    diffs = resolution.differentials
    assert diffs[0] is m
    check_chain(list(diffs))
    assert all(is_minimal_map(d) for d in diffs)
    reference = syzygies_loop(m, order)
    assert resolution_invariants(diffs, weightlists, order) == resolution_invariants(reference, weightlists, order)
    return resolution


def assert_primitive_integer_columns(m):
    """Every column of the PolyMatrix m has int coefficients with gcd 1."""
    for col in m.columns():
        coefficients = [c for _, c in col.support()]
        assert all(type(c) is int for c in coefficients)
        assert gcd(*coefficients) == 1


def minimal_fixture_maps():
    """(problem, matrix name) of every minimal map among the fixtures."""
    out = []
    for name in PROBLEMS:
        problem = load_problem(fixture_path(name + ".json"))
        out += [(name, key) for key, m in problem.matrices.items() if is_minimal_map(m)]
    return out


@pytest.mark.parametrize("order", [ModuleTermOrder(kind) for kind in ModuleTermOrder.KINDS], ids=lambda o: o.kind)
@pytest.mark.parametrize("name, presentation", minimal_fixture_maps())
def test_minimal_resolution_matches_the_syzygies_loop_on_the_fixtures(name, presentation, order):
    problem = load_problem(fixture_path(name + ".json"))
    m = problem.matrices[presentation]
    weightlists = [w for w in problem.weightlists.values() if len(w) == m.num_rows]
    assert_resolution_matches_the_syzygies_loop(m, weightlists, order)


@pytest.mark.parametrize("order", ALL_ORDERS, ids=lambda o: o.kind)
@pytest.mark.parametrize("name, presentation", minimal_fixture_maps())
def test_syzygies_of_a_minimal_map_are_the_resolutions_second_differential(name, presentation, order):
    m = load_problem(fixture_path(name + ".json")).matrices[presentation]
    s = syzygies(m, order)
    differentials = minimal_resolution(m, order, max_length=2).differentials
    if len(differentials) == 2:
        assert s == differentials[1]
    else:
        assert (s.codomain, s.domain.rank) == (m.domain, 0)


@pytest.mark.parametrize("order", ALL_ORDERS, ids=lambda o: o.kind)
@pytest.mark.parametrize("name, presentation", minimal_fixture_maps())
def test_resolution_differentials_of_the_fixtures_are_primitive_integer_columns(name, presentation, order):
    m = load_problem(fixture_path(name + ".json")).matrices[presentation]
    for d in minimal_resolution(m, order).differentials[1:]:
        assert_primitive_integer_columns(d)


def frame_log(caplog, m, order):
    """The per-level lines `minimal_resolution` logs on m, and its ranks."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="torusweights.schreyer"):
        ranks = minimal_resolution(m, order).ranks
    return [r.getMessage() for r in caplog.records if r.getMessage().startswith("resolution level")], ranks


def test_the_frame_logs_each_level(caplog, grassmannian):
    # Gr(2,5): the five Pluecker quadrics are a Groebner basis, six of their
    # ten S-pairs give the frame's level 2, and one unit between levels 2
    # and 3 is pruned
    lines, ranks = frame_log(caplog, grassmannian.matrices["d1"], TOP_UP)
    assert ranks == [1, 5, 5, 1]
    assert lines == [
        "resolution level 1: frame rank 5, 6 S-pairs divided, 0 units pruned, minimal rank 5",
        "resolution level 2: frame rank 6, 2 S-pairs divided, 1 units pruned, minimal rank 5",
        "resolution level 3: frame rank 2, 0 S-pairs divided, 1 units pruned, minimal rank 1",
    ]


@pytest.mark.parametrize("order", [ModuleTermOrder(kind) for kind in ModuleTermOrder.KINDS], ids=lambda o: o.kind)
def test_the_frame_prunes_the_basis_elements_s_pairs_added(caplog, grassmannian, order):
    # d2 as a presentation: its Groebner basis has 12 elements for 5
    # columns, and the 7 that S-pairs added go with the units of the
    # relations that added them
    m = grassmannian.matrices["d2"]
    lines, ranks = frame_log(caplog, m, order)
    assert ranks == [5, 5, 1]
    assert lines[0].startswith("resolution level 1: frame rank 12,")
    assert lines[0].endswith(", 7 units pruned, minimal rank 5")
    weightlists = [w for w in grassmannian.weightlists.values() if len(w) == m.num_rows]
    assert_resolution_matches_the_syzygies_loop(m, weightlists, order)


@pytest.mark.parametrize("name, row", [
    # the S-pairs' lcms (degrees 159 and 160) outgrow the first fields, so
    # the frame's run widens them
    ("high_degree", None),
    ("high_degree_3var", None),
    # no S-pair outgrows them (degree 100), but the frame's third level
    # lies in degree 150, so the frame widens them before it packs level 2
    (None, ["x1^50", "x2^50", "x3^50"]),
])
def test_the_frame_widens_its_fields(caplog, std3, name, row):
    if name is None:
        m, message, weightlists = row_matrix(std3, [[50]] * 3, row), "frame: widened exponent fields", [[(0, 0, 0)]]
    else:
        problem = load_problem(fixture_path(name + ".json"))
        m, message, weightlists = problem.matrices["m"], "buchberger: widened exponent fields", problem.weightlists.values()
    for order in ALL_ORDERS:
        caplog.clear()
        with caplog.at_level(logging.DEBUG):
            resolution = assert_resolution_matches_the_syzygies_loop(m, weightlists, order)
        assert message in caplog.text, order
    if name is None:
        assert resolution.ranks == [1, 3, 3, 1]
        assert [d.domain.basis_degrees for d in resolution.differentials] == [((50,),) * 3, ((100,),) * 3, ((150,),)]


def test_max_length_keeps_a_prefix_of_the_resolution():
    # the frame is built one level beyond the last differential returned,
    # so each of them is the one the whole resolution has
    for name, presentation in minimal_fixture_maps():
        m = load_problem(fixture_path(name + ".json")).matrices[presentation]
        for order in ALL_ORDERS:
            full = minimal_resolution(m, order).differentials
            for length in range(1, len(full) + 2):
                cut = minimal_resolution(m, order, max_length=length).differentials
                assert list(cut) == list(full[:length]), (name, presentation, order, length)


def test_the_resolution_guard_rejects_differentials_that_do_not_compose(monkeypatch, koszul, grassmannian):
    schreyer = importlib.import_module("torusweights.schreyer")
    real = schreyer._input_coordinates

    def doubled(frame):
        # double one coefficient of the first relation: it stays
        # homogeneous, but no longer maps to zero
        elements, scales = real(frame)
        elements = [dict(e) for e in elements]
        key = next(iter(elements[0]))
        elements[0][key] *= 2
        return elements, scales

    monkeypatch.setattr(schreyer, "_input_coordinates", doubled)
    with pytest.raises(InternalError) as info:
        minimal_resolution(koszul.matrices["d1"], TOP_UP)
    assert str(info.value) == "differentials 1 and 2 of the resolution do not compose to zero"
    monkeypatch.undo()
    real_frame = schreyer._frame

    def without_creators(*args):
        # forget which relations added the elements of G that S-pairs added
        frame = real_frame(*args)
        frame.creators.clear()
        return frame

    monkeypatch.setattr(schreyer, "_frame", without_creators)
    with pytest.raises(InternalError) as info:
        minimal_resolution(grassmannian.matrices["d2"], TOP_UP)
    assert str(info.value) == "a unit survived pruning differential 2 of the frame"


# d2 of the generic Koszul fixture's resolution under top-up, from the frame
# over the reduced basis x1, ..., x4: column (i, j) is the Koszul relation
# x_j * e_i - x_i * e_j written over the input forms, each column a
# primitive integer vector; checked in sympy to be C * A for the Koszul
# relations C of the forms and an invertible constant A, under every order
GENERIC_KOSZUL_RATIONAL_D2 = [
    ["-688*x1-228*x2", "130*x1-228*x3", "130*x2+688*x3", "278*x1-228*x4", "278*x2+688*x4", "278*x3-130*x4"],
    ["322*x1+246*x2", "210*x1+246*x3", "210*x2-322*x3", "-370*x1+246*x4", "-370*x2-322*x4", "-370*x3-210*x4"],
    ["59*x1-112*x2", "-193*x1-112*x3", "-193*x2-59*x3", "-167*x1-112*x4", "-167*x2-59*x4", "-167*x3+193*x4"],
    ["-33*x1+198*x2", "-253*x1+198*x3", "-253*x2+33*x3", "319*x1+198*x4", "319*x2+33*x4", "319*x3+253*x4"],
]


def test_syzygies_of_generic_forms_are_primitive_integer_columns():
    problem = load_problem(fixture_path("generic_koszul.json"))
    m = problem.matrices["d1"]
    s = syzygies(m, TOP_UP)
    assert s == minimal_resolution(m, TOP_UP, max_length=2).differentials[1]
    rational = matrix(m.domain.ring, [[1]] * 4, [[2]] * 6, GENERIC_KOSZUL_RATIONAL_D2)
    assert s.domain == rational.domain
    assert_primitive_integer_columns(s)
    for col, old in zip(s.columns(), rational.columns()):
        term, c = next(old.support())
        ratio = Fraction(col.entries[term.index].terms[term.monomial]) / c
        assert ratio > 0
        assert col == old.scale(ratio)


def test_the_level_2_vectors_handed_to_pruning_have_int_entries(monkeypatch):
    # the column-born elements of generic forms are rational combinations
    # of the input columns; each substituted vector comes scaled to ints
    schreyer = importlib.import_module("torusweights.schreyer")
    real = schreyer._input_coordinates
    seen = []

    def recorded(frame):
        vectors, scales = real(frame)
        seen.append((vectors, scales))
        return vectors, scales

    monkeypatch.setattr(schreyer, "_input_coordinates", recorded)
    maps = [load_problem(fixture_path("generic_koszul.json")).matrices["d1"]]
    maps += [koszul_presentation(n, seed) for n in (6, 7) for seed in (1, 2, 3)]
    for m in maps:
        for order in ALL_ORDERS:
            seen.clear()
            minimal_resolution(m, order)
            [(vectors, scales)] = seen
            assert vectors and len(scales) == len(vectors)
            assert all(type(c) is int for v in vectors for c in v.values())
            assert all(type(s) is int and s > 0 for s in scales)
            assert any(s > 1 for s in scales)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_generic_linear_forms_resolve_to_the_monomial_koszul_complex_from_d3_on(n):
    # the frame is built on the reduced basis x_1, ..., x_n, so from level 3
    # on it is the Koszul complex on the variables, which pruning leaves as
    # it is: every column of d_k, k >= 3, holds k single-term entries
    weights = [Counter(tuple(int(i in s) for i in range(n)) for s in combinations(range(n), k)) for k in range(n + 1)]
    for seed in (1, 2):
        m = koszul_presentation(n, seed)
        for order in ALL_ORDERS:
            resolution = minimal_resolution(m, order)
            assert resolution.ranks == [comb(n, k) for k in range(n + 1)]
            for k, d in enumerate(resolution.differentials[2:], start=3):
                for col in d.columns():
                    assert sorted(len(e.terms) for e in col.entries if e.terms) == [1] * k, (seed, order, k)
            result = propagate_resolution(resolution, 0, [(0,) * n], order)
            assert [Counter(map(tuple, ws)) for ws in result.per_module] == weights


@pytest.mark.parametrize("name, presentation", [("mixed_sign", "m"), ("generic_koszul", "d1")])
def test_resolutions_of_rewritten_frames_are_minimal_complexes_in_sympy(name, presentation):
    # the two fixture presentations whose frames back-substitution rewrites: sympy
    # multiplies each consecutive pair of differentials out, and no
    # differential after the first has a nonzero constant entry
    sympy = __import__("sympy")
    m = load_problem(fixture_path(name + ".json")).matrices[presentation]
    ring = m.domain.ring
    symbols = {v: sympy.Symbol(v) for v in ring.var_names}

    def as_sympy(d):
        rows = [[sympy.parse_expr(t.replace("^", "**"), local_dict=symbols) for t in row] for row in entries_as_text(d)]
        return sympy.Matrix(d.num_rows, d.num_cols, [x for row in rows for x in row])

    for order in ALL_ORDERS:
        maps = [as_sympy(d) for d in minimal_resolution(m, order).differentials]
        assert len(maps) >= 2
        for a, b in zip(maps, maps[1:]):
            assert (a * b).expand().is_zero_matrix, order
        for d in maps[1:]:
            assert all(sympy.Poly(x, *symbols.values()).coeff_monomial(1) == 0 for x in d if x != 0), order
