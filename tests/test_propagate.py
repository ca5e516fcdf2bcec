import hashlib
import importlib
import json
import logging
from collections import Counter
from itertools import combinations, combinations_with_replacement
from fractions import Fraction

import pytest

from torusweights import (
    FreeModuleSpec,
    InputError,
    MinimalityError,
    ModuleTermOrder,
    Polynomial,
    PolyMatrix,
    Resolution,
    ResolutionStepError,
    RingSpec,
    ScalarMatrix,
    buchberger,
    change_of_basis,
    is_minimal_map,
    minimal_resolution,
    negate_weights,
    propagate,
    propagate_forward,
    propagate_graded_components,
    propagate_resolution,
    propagate_single_degree,
    split_by_column_degree,
    standard_monomials,
)
from torusweights.groebner import check_chain
from torusweights.modules import ModuleTerm, dual_map, permute_columns
from torusweights.packed import _TermCodec
from torusweights.parsing import parse_polynomial, polynomial_to_string
from torusweights.problemfile import load_problem
from torusweights.propagate import _inverted
from torusweights.rings import vector_add

from conftest import entries_as_text, fixture_path, koszul_complex, matrix, plucker_presentation
from reference import eagon_northcott_weights, generic_minors

TOP_UP = ModuleTermOrder("top-up")
ALL_ORDERS = [ModuleTermOrder(kind) for kind in ModuleTermOrder.KINDS]


def scal(rows):
    return ScalarMatrix(rows)


# ---------- single degree ----------


def test_two_variables(two_variables):
    result = propagate_single_degree(two_variables.matrices["m"], two_variables.weightlists["W"], TOP_UP)
    assert result.change_of_basis == scal([[0, 1], [1, 0]])
    assert result.weights == ((0, 1), (1, 0))
    assert entries_as_text(result.sorted_matrix) == [["x2", "x1"]]


def test_squares(three_squares):
    result = propagate_single_degree(three_squares.matrices["m"], three_squares.weightlists["W"], TOP_UP)
    assert result.change_of_basis == scal([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert result.weights == ((0, 2), (1, 1), (2, 0))
    assert entries_as_text(result.sorted_matrix) == [["y2^2", "y1*y2", "y1^2"]]


def test_single_degree_rejects_mixed_columns(bigraded):
    with pytest.raises(InputError):
        propagate_single_degree(bigraded.matrices["m"], bigraded.weightlists["W"], TOP_UP)


def test_single_degree_rejects_non_minimal():
    ring = RingSpec(["x"], [[1]], [[1]])
    m = matrix(ring, [[0], [0]], [[1], [1]], [["x", "x"], ["x", "x"]])
    with pytest.raises(MinimalityError):
        propagate_single_degree(m, [(0,), (0,)], TOP_UP)


def test_propagate_rejects_non_minimal_mixed_degrees():
    # x^2 = x * x: each equal-degree block is minimal, the whole map is not
    ring = RingSpec(["x", "y"], [[1], [1]], [[1], [0]])
    m = matrix(ring, [[0]], [[1], [2]], [["x", "x^2"]])
    with pytest.raises(MinimalityError):
        propagate(m, [(0,)], TOP_UP)


def test_weight_list_length_checked(two_variables):
    with pytest.raises(InputError):
        propagate_single_degree(two_variables.matrices["m"], [(0, 0), (0, 0)], TOP_UP)


def test_weights_must_be_integer_vectors(two_variables):
    m = two_variables.matrices["m"]
    for bad in ([(0.9, 0)], [5], [(0,)], 5):
        with pytest.raises(InputError):
            propagate(m, bad, TOP_UP)
    with pytest.raises(InputError):
        propagate_forward(m, 5, TOP_UP)
    with pytest.raises(InputError):
        propagate_graded_components((1,), m, 5, TOP_UP)


def test_block_drops_basis_elements_of_other_degrees():
    # deg y = (1, -2) has a negative component sum; the S-pair y^2 * f1 - w * f2
    # in degree (5, -8) has the smaller component sum, but its positive
    # functional, which orders and bounds the run, lies beyond the bound's
    ring = RingSpec(
        ["w", "x", "y", "z"],
        [[2, -4], [1, 0], [1, -2], [2, -2]],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        "lex",
    )
    m = matrix(ring, [[0, 0]], [[3, -4], [3, -4]], [["x*w + y*z", "x*y^2 + y*z"]])
    bounded = buchberger(m, TOP_UP, bound=(3, -4))
    assert {g.homogeneous_degree() for g in bounded.elements} == {(3, -4)}
    result = propagate(m, [(0, 0, 0, 0)], TOP_UP)
    assert result.weights == ((0, 1, 2, 0), (1, 1, 0, 0))
    assert result.change_of_basis == change_of_basis(m, result.sorted_matrix)


def test_bound_keeps_generators_with_negative_component_sum():
    # y lies in degree (1, -2), whose component sum -1 exceeds that of the
    # bound (2, -4), yet y * y = y^2 is the only monomial of degree (2, -4);
    # the run compares degrees through the positive functional, not the sum
    ring = RingSpec(["x", "y"], [[1, 0], [1, -2]], [[1, 0], [0, 1]])
    m = matrix(ring, [[0, 0]], [[1, -2]], [["y"]])
    bounded = buchberger(m, TOP_UP, bound=(2, -4))
    assert [polynomial_to_string(ring, g.entries[0]) for g in bounded.elements] == ["y"]
    assert propagate_graded_components((2, -4), m, [(0, 0)], TOP_UP) == ()


def test_graded_component_degree_must_fit_the_ring(two_variables):
    m, w = two_variables.matrices["m"], two_variables.weightlists["W"]
    for bad in [(1, 2), (1.5,), 2]:
        with pytest.raises(InputError):
            propagate_graded_components(bad, m, w, TOP_UP)


# ---------- multiple degrees ----------


def test_bigraded_presentation(bigraded):
    result = propagate(bigraded.matrices["m"], bigraded.weightlists["W"], TOP_UP)
    assert result.change_of_basis == scal(
        [
            [0, 1, 0, 0, 0],
            [1, 0, 0, 0, 0],
            [0, 0, 0, 0, 1],
            [0, 0, 0, 1, 0],
            [0, 0, 1, 0, 0],
        ]
    )
    assert result.weights == (
        (0, 1, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 0, 2),
        (0, 0, 1, 1),
        (0, 0, 2, 0),
    )
    assert result.rebased_module.basis_degrees == ((1, 0), (1, 0), (0, 2), (0, 2), (0, 2))


def test_single_degree_input_matches_block_version(three_squares):
    a = propagate(three_squares.matrices["m"], three_squares.weightlists["W"], TOP_UP)
    b = propagate_single_degree(three_squares.matrices["m"], three_squares.weightlists["W"], TOP_UP)
    assert a.change_of_basis == b.change_of_basis
    assert a.weights == b.weights


def first_syzygy_input_matrix(ring):
    return matrix(
        ring,
        [(1, 0), (1, 0), (0, 2), (0, 2), (0, 2)],
        [(2, 0), (1, 2), (1, 2), (1, 2), (1, 2), (0, 3), (1, 2), (1, 2), (0, 3)],
        [
            ["x1", "0", "-y1^2", "0", "-y1*y2", "0", "0", "-y2^2", "0"],
            ["-x2", "-y1^2", "0", "-y1*y2", "0", "0", "-y2^2", "0", "0"],
            ["0", "0", "0", "0", "0", "0", "x1", "x2", "y1"],
            ["0", "0", "0", "x1", "x2", "y1", "0", "0", "-y2"],
            ["0", "x1", "x2", "0", "0", "-y2", "0", "0", "0"],
        ],
    )


FIRST_SYZYGY_WEIGHTS = (
    (1, 1, 0, 0),
    (0, 1, 0, 2),
    (1, 0, 0, 2),
    (0, 1, 1, 1),
    (1, 0, 1, 1),
    (0, 1, 2, 0),
    (1, 0, 2, 0),
    (0, 0, 1, 2),
    (0, 0, 2, 1),
)

FIRST_SYZYGY_C = [
    [1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, -1, 0, 0],
    [0, 0, 0, 0, 0, -1, 0, 0, 0],
    [0, 0, 0, 0, -1, 0, 0, 0, 0],
    [0, 0, 0, -1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
    [0, 0, -1, 0, 0, 0, 0, 0, 0],
    [0, -1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 1, 0],
]


FIRST_SYZYGY_CODOMAIN_WEIGHTS = (
    (0, 1, 0, 0),
    (1, 0, 0, 0),
    (0, 0, 0, 2),
    (0, 0, 1, 1),
    (0, 0, 2, 0),
)


def test_first_syzygy_step(bigraded):
    result = propagate(first_syzygy_input_matrix(bigraded.ring), FIRST_SYZYGY_CODOMAIN_WEIGHTS, TOP_UP)
    assert result.weights == FIRST_SYZYGY_WEIGHTS
    assert result.change_of_basis == scal(FIRST_SYZYGY_C)


@pytest.mark.parametrize("order", ALL_ORDERS, ids=lambda o: o.kind)
def test_change_of_basis_equals_permutation_product(bigraded, order):
    # oracle: P @ (C_1 + C_2 + C_3), with P the permutation matrix of the split
    m = first_syzygy_input_matrix(bigraded.ring)
    w = FIRST_SYZYGY_CODOMAIN_WEIGHTS
    perm, blocks, _ = split_by_column_degree(m)
    p = [[0] * len(perm) for _ in perm]
    for new, orig in enumerate(perm):
        p[orig][new] = 1
    diagonal = ScalarMatrix.block_diagonal(
        [propagate_single_degree(b, w, order).change_of_basis for b in blocks]
    )
    assert propagate(m, w, order).change_of_basis == scal(p) @ diagonal


@pytest.mark.parametrize("order", ALL_ORDERS, ids=lambda o: o.kind)
def test_block_change_of_basis_matches_linear_solve(bigraded, order):
    # oracle: the C read off the echelon form is the unique solution of
    # sorted_matrix = block @ C
    ring = RingSpec(["x", "y"], [[1], [1]], [[1, 0], [0, 1]])
    quadrics = matrix(ring, [[0]], [[2]] * 3, [["x^2 + x*y", "x*y + y^2", "x^2"]])
    cases = [(quadrics, [(0, 0)])]
    _, blocks, _ = split_by_column_degree(first_syzygy_input_matrix(bigraded.ring))
    cases += [(b, FIRST_SYZYGY_CODOMAIN_WEIGHTS) for b in blocks]
    for block, weights in cases:
        result = propagate_single_degree(block, weights, order)
        assert result.change_of_basis == change_of_basis(block, result.sorted_matrix)
        c = result.change_of_basis.to_poly_matrix(block.domain, result.rebased_module)
        assert block @ c == result.sorted_matrix


def second_syzygy_input_matrix(ring):
    return matrix(
        ring,
        [(2, 0), (1, 2), (1, 2), (1, 2), (1, 2), (1, 2), (1, 2), (0, 3), (0, 3)],
        [(2, 2), (2, 2), (1, 3), (1, 3), (2, 2), (1, 3), (1, 3)],
        [
            ["y1^2", "y1*y2", "0", "0", "y2^2", "0", "0"],
            ["0", "0", "0", "0", "-x1", "0", "y1"],
            ["0", "0", "0", "0", "x2", "y1", "0"],
            ["0", "-x1", "0", "y1", "0", "0", "-y2"],
            ["0", "x2", "y1", "0", "0", "-y2", "0"],
            ["-x1", "0", "0", "-y2", "0", "0", "0"],
            ["x2", "0", "-y2", "0", "0", "0", "0"],
            ["0", "0", "0", "0", "0", "x1", "x2"],
            ["0", "0", "x1", "x2", "0", "0", "0"],
        ],
    )


SECOND_SYZYGY_WEIGHTS = (
    (1, 1, 0, 2),
    (1, 1, 1, 1),
    (1, 1, 2, 0),
    (0, 1, 1, 2),
    (0, 1, 2, 1),
    (1, 0, 1, 2),
    (1, 0, 2, 1),
)

SECOND_SYZYGY_C = [
    [0, 0, 1, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 1, 0, 0],
    [1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 1, 0, 0, 0],
]


def test_second_syzygy_step(bigraded):
    result = propagate(second_syzygy_input_matrix(bigraded.ring), FIRST_SYZYGY_WEIGHTS, TOP_UP)
    assert result.weights == SECOND_SYZYGY_WEIGHTS
    assert result.change_of_basis == scal(SECOND_SYZYGY_C)
    # sorted basis matrix concatenates the two displayed degree blocks
    g = entries_as_text(result.sorted_matrix)
    assert [row[:3] for row in g] == [
        ["y2^2", "y1*y2", "y1^2"],
        ["-x1", "0", "0"],
        ["x2", "0", "0"],
        ["0", "-x1", "0"],
        ["0", "x2", "0"],
        ["0", "0", "-x1"],
        ["0", "0", "x2"],
        ["0", "0", "0"],
        ["0", "0", "0"],
    ]
    assert [row[3:] for row in g] == [
        ["0", "0", "0", "0"],
        ["y1", "0", "0", "0"],
        ["0", "0", "y1", "0"],
        ["-y2", "y1", "0", "0"],
        ["0", "0", "-y2", "y1"],
        ["0", "-y2", "0", "0"],
        ["0", "0", "0", "-y2"],
        ["x2", "0", "x1", "0"],
        ["0", "x2", "0", "x1"],
    ]


def test_third_syzygy_step(bigraded):
    m = matrix(
        bigraded.ring,
        [(2, 2), (2, 2), (2, 2), (1, 3), (1, 3), (1, 3), (1, 3)],
        [(2, 3), (2, 3)],
        [
            ["0", "y1"],
            ["y1", "-y2"],
            ["-y2", "0"],
            ["0", "x1"],
            ["x1", "0"],
            ["0", "-x2"],
            ["-x2", "0"],
        ],
    )
    result = propagate(m, SECOND_SYZYGY_WEIGHTS, TOP_UP)
    assert result.change_of_basis == scal([[0, 1], [1, 0]])
    assert result.weights == ((1, 1, 1, 2), (1, 1, 2, 1))
    assert entries_as_text(result.sorted_matrix) == [
        ["y1", "0"],
        ["-y2", "y1"],
        ["0", "-y2"],
        ["x1", "0"],
        ["0", "x1"],
        ["-x2", "0"],
        ["0", "-x2"],
    ]


def test_each_ordering_through_full_pipeline():
    # shifted codomain degrees let position- and term-dominant orders disagree
    ring = RingSpec(["x", "y"], [[1], [1]], [[1, 0], [0, 1]])
    cod = FreeModuleSpec(ring, [[0], [1]])
    dom = FreeModuleSpec(ring, [[2]])
    m = PolyMatrix(
        cod,
        dom,
        [[parse_polynomial(ring, "x^2")], [parse_polynomial(ring, "y")]],
    )
    w = [(0, 0), (0, 1)]
    expected = {
        "top-up": ((2, 0),),    # leading term x^2*f1
        "pot-up": ((0, 2),),    # leading term y*f2
        "top-down": ((2, 0),),
        "pot-down": ((2, 0),),
    }
    for kind, weights in expected.items():
        result = propagate(m, w, ModuleTermOrder(kind))
        assert result.weights == weights
        assert result.change_of_basis == scal([[1]])


def test_koszul_of_plain_variables_under_lex():
    ring = RingSpec(
        ["x1", "x2", "x3"], [[1]] * 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "lex"
    )
    F0 = FreeModuleSpec(ring, [[0]])
    F1 = FreeModuleSpec(ring, [[1]] * 3)
    F2 = FreeModuleSpec(ring, [[2]] * 3)
    F3 = FreeModuleSpec(ring, [[3]])
    d1 = matrix(ring, [[0]], [[1]] * 3, [["x1", "x2", "x3"]])
    d2 = matrix(
        ring,
        [[1]] * 3,
        [[2]] * 3,
        [["-x2", "-x3", "0"], ["x1", "0", "-x3"], ["0", "x1", "x2"]],
    )
    d3 = matrix(ring, [[2]] * 3, [[3]], [["x3"], ["-x2"], ["x1"]])
    result = propagate_resolution([d1, d2, d3], 0, [(0, 0, 0)], TOP_UP)
    assert result.per_module == (
        ((0, 0, 0),),
        ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
        ((0, 1, 1), (1, 0, 1), (1, 1, 0)),
        ((1, 1, 1),),
    )


def test_position_down_sorts_decreasing(two_variables):
    # descending sort puts x1 first: identity change of basis, weights reversed
    result = propagate(two_variables.matrices["m"], two_variables.weightlists["W"], ModuleTermOrder("top-down"))
    assert entries_as_text(result.sorted_matrix) == [["x1", "x2"]]
    assert result.change_of_basis == scal([[1, 0], [0, 1]])
    assert result.weights == ((1, 0), (0, 1))


# ---------- forward ----------


def test_forward_single_variable_column():
    ring = RingSpec(["x1", "x2", "x3"], [[1]] * 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    m = matrix(ring, [[0]], [[1]], [["x1"]])
    result = propagate_forward(m, [(1, 0, 0)], TOP_UP)
    assert result.weights == ((0, 0, 0),)
    assert result.change_of_basis == scal([[1]])


def test_forward_rejects_non_minimal_dual():
    ring = RingSpec(["x"], [[1]], [[1]])
    m = matrix(ring, [[0], [0]], [[1]], [["x"], ["x"]])
    with pytest.raises(MinimalityError) as info:
        propagate_forward(m, [(1,)], TOP_UP)
    assert "dual" in str(info.value)


def test_forward_round_trip_on_regular_sequence(koszul):
    d1 = koszul.matrices["d1"]
    back = propagate(d1, koszul.weightlists["W0"], TOP_UP)
    forward = propagate_forward(back.sorted_matrix, back.weights, TOP_UP)
    assert Counter(forward.weights) == Counter(koszul.weightlists["W0"])


# ---------- resolutions ----------


def test_koszul_resolution(koszul):
    diffs = [koszul.matrices[n] for n in koszul.resolution]
    # backward from F_0, and forward from F_3 (whose C are not symmetric)
    for start_index, weights in ((0, koszul.weightlists["W0"]), (3, [(1, 1, 1)])):
        result = propagate_resolution(diffs, start_index, weights, TOP_UP)
        assert result.per_module == (
            ((0, 0, 0),),
            ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
            ((0, 1, 1), (1, 0, 1), (1, 1, 0)),
            ((1, 1, 1),),
        )
        assert_steps_carry_inverses(result, diffs, start_index)


def assert_steps_carry_inverses(result, diffs, start_index):
    # oracles: ScalarMatrix.inverse of each step's change of basis, and each
    # step's matrix as the differential times the previous step's C^-1 taken
    # as a matrix of constants (on the left going backward, on the right
    # going forward)
    for index, step in result.steps.items():
        c, inverse = step.result.change_of_basis, step.result.inverse_change_of_basis
        assert c @ inverse == ScalarMatrix.identity(c.num_rows)
        assert inverse == c.inverse()
        backward = index > start_index
        diff = diffs[index - 1] if backward else diffs[index]
        previous = result.steps.get(index - 1 if backward else index + 1)
        if previous is None:
            assert step.matrix == diff
            continue
        inverse, spec = previous.result.inverse_change_of_basis, previous.result.rebased_module
        if backward:
            assert step.matrix == inverse.to_poly_matrix(spec, diff.codomain) @ diff
        else:
            assert step.matrix == diff @ inverse.to_poly_matrix(diff.domain, spec)


@pytest.mark.parametrize("order", ALL_ORDERS, ids=lambda o: o.kind)
@pytest.mark.parametrize(
    "name, start_index, weights",
    [("grassmannian", 0, "W0"), ("grassmannian", 3, "V3"), ("koszul", 0, "W0")],
)
def test_each_step_is_the_single_map_call_on_its_matrix(request, name, start_index, weights, order):
    problem = request.getfixturevalue(name)
    diffs = [problem.matrices[n] for n in problem.resolution]
    result = propagate_resolution(diffs, start_index, problem.weightlists[weights], order)
    assert set(result.steps) == set(range(len(diffs) + 1)) - {start_index}
    for index, step in result.steps.items():
        if index > start_index:
            expected = propagate(step.matrix, result.per_module[index - 1], order)
        else:
            expected = propagate_forward(step.matrix, result.per_module[index + 1], order)
        assert step.result == expected


def test_koszul_intermediate_matrices(koszul):
    ring = koszul.ring
    diffs = [koszul.matrices[n] for n in koszul.resolution]
    result = propagate_resolution(diffs, 0, koszul.weightlists["W0"], TOP_UP)
    step1 = result.steps[1].result
    assert entries_as_text(step1.sorted_matrix) == [["x3", "x2", "x1"]]
    assert step1.change_of_basis == scal([[-1, -1, 1], [0, 1, 0], [1, 0, 0]])
    step2 = result.steps[2]
    assert entries_as_text(step2.matrix) == [
        ["0", "x1", "x1+x2"],
        ["x1", "0", "-x1-x3"],
        ["-x2", "-x3", "x2-x3"],
    ]
    assert entries_as_text(step2.result.sorted_matrix) == [
        ["x2", "x1", "0"],
        ["-x3", "0", "x1"],
        ["0", "-x3", "-x2"],
    ]
    assert step2.result.change_of_basis == scal([[1, 0, 1], [-1, 1, 0], [1, 0, 0]])
    step3 = result.steps[3]
    assert entries_as_text(step3.matrix) == [["x1"], ["-x2"], ["x3"]]


def test_grassmannian_backward_from_top(grassmannian):
    diffs = [grassmannian.matrices[n] for n in grassmannian.resolution]
    result = propagate_resolution(diffs, 3, grassmannian.weightlists["V3"], TOP_UP)
    assert result.per_module[3] == ((2, 2, 2, 2, 2),)
    assert result.per_module[2] == (
        (1, 1, 1, 1, 2),
        (1, 1, 1, 2, 1),
        (1, 1, 2, 1, 1),
        (1, 2, 1, 1, 1),
        (2, 1, 1, 1, 1),
    )
    assert result.per_module[1] == (
        (0, 1, 1, 1, 1),
        (1, 0, 1, 1, 1),
        (1, 1, 0, 1, 1),
        (1, 1, 1, 0, 1),
        (1, 1, 1, 1, 0),
    )
    assert result.per_module[0] == ((0, 0, 0, 0, 0),)
    assert_steps_carry_inverses(result, diffs, 3)


def test_grassmannian_intermediate_bases(grassmannian):
    ring = grassmannian.ring
    diffs = [grassmannian.matrices[n] for n in grassmannian.resolution]
    result = propagate_resolution(diffs, 3, grassmannian.weightlists["V3"], TOP_UP)
    # step onto module 2: the dual run arranges the five quadratic relations
    g2 = entries_as_text(result.steps[2].result.sorted_matrix)
    assert g2 == [[
        "p_23*p_14-p_13*p_24+p_12*p_34",
        "p_23*p_15-p_13*p_25+p_12*p_35",
        "p_24*p_15-p_14*p_25+p_12*p_45",
        "p_34*p_15-p_14*p_35+p_13*p_45",
        "p_34*p_25-p_24*p_35+p_23*p_45",
    ]]
    assert result.steps[2].result.change_of_basis == scal(
        [
            [0, 0, 0, 0, -1],
            [0, 0, 0, -1, 0],
            [0, 0, 1, 0, 0],
            [0, -1, 0, 0, 0],
            [-1, 0, 0, 0, 0],
        ]
    )
    g1 = entries_as_text(result.steps[1].result.sorted_matrix)
    assert g1 == [
        ["-p_15", "-p_25", "-p_35", "-p_45", "0"],
        ["p_14", "p_24", "p_34", "0", "-p_45"],
        ["-p_13", "-p_23", "0", "p_34", "p_35"],
        ["p_12", "0", "-p_23", "-p_24", "-p_25"],
        ["0", "p_12", "p_13", "p_14", "p_15"],
    ]
    assert result.steps[1].result.change_of_basis == scal(
        [
            [0, 0, 0, 0, 1],
            [0, 0, 0, -1, 0],
            [0, 0, 1, 0, 0],
            [0, -1, 0, 0, 0],
            [1, 0, 0, 0, 0],
        ]
    )
    g0 = entries_as_text(result.steps[0].result.sorted_matrix)
    assert g0 == [
        ["p_34*p_25-p_24*p_35+p_23*p_45"],
        ["-p_34*p_15+p_14*p_35-p_13*p_45"],
        ["p_24*p_15-p_14*p_25+p_12*p_45"],
        ["-p_23*p_15+p_13*p_25-p_12*p_35"],
        ["p_23*p_14-p_13*p_24+p_12*p_34"],
    ]


def test_resolution_validates_chain(koszul):
    diffs = [koszul.matrices["d1"], koszul.matrices["d3"]]
    with pytest.raises(InputError):
        propagate_resolution(diffs, 0, koszul.weightlists["W0"], TOP_UP)


def test_resolution_validates_composites(koszul):
    ring = koszul.ring
    bad_d2 = matrix(
        ring,
        [[1]] * 3,
        [[2]] * 3,
        [
            ["x1", "0", "0"],
            ["0", "x1", "0"],
            ["0", "0", "x1"],
        ],
    )
    with pytest.raises(InputError) as info:
        propagate_resolution([koszul.matrices["d1"], bad_d2], 0, koszul.weightlists["W0"], TOP_UP)
    assert str(info.value) == "differentials 1 and 2 do not compose to zero"


def test_resolution_checks_the_start_weights_before_the_chain(koszul):
    ring = koszul.ring
    bad_d2 = matrix(ring, [[1]] * 3, [[2]] * 3, [["x1", "0", "0"], ["0", "x1", "0"], ["0", "0", "x1"]])
    with pytest.raises(InputError, match="starting weight list has 2 weights"):
        propagate_resolution([koszul.matrices["d1"], bad_d2], 0, [(0, 0, 0)] * 2, TOP_UP)


def test_resolution_start_index_range(koszul):
    diffs = [koszul.matrices[n] for n in koszul.resolution]
    for bad in (4, 1.5):
        with pytest.raises(InputError):
            propagate_resolution(diffs, bad, koszul.weightlists["W0"], TOP_UP)


def test_resolution_reports_non_minimal_dual_with_partial():
    # resolution of A/(x) + A: the dual of the only differential is not minimal
    ring = RingSpec(["x"], [[1]], [[1]])
    d1 = matrix(ring, [[0], [0]], [[1]], [["x"], ["x"]])
    with pytest.raises(ResolutionStepError) as info:
        propagate_resolution([d1], 1, [(1,)], TOP_UP)
    assert str(info.value) == (
        "forward propagation failed at module 0: dual map is not minimal; cannot propagate forward"
    )
    assert info.value.step == 0
    assert info.value.partial == (None, ((1,),))


def test_resolution_partial_keeps_the_forward_steps_before_the_failure():
    # the dual of d2 is minimal, that of d1 is not: its two rows are equal
    ring = RingSpec(["x", "y"], [[1], [1]], [[1, 0], [0, 1]])
    d1 = matrix(ring, [[0], [0]], [[1], [1]], [["x", "y"], ["x", "y"]])
    d2 = matrix(ring, [[1], [1]], [[2]], [["-y"], ["x"]])
    with pytest.raises(ResolutionStepError) as info:
        propagate_resolution([d1, d2], 2, [(1, 1)], TOP_UP)
    assert info.value.step == 0
    assert info.value.partial == (None, ((0, 1), (1, 0)), ((1, 1),))


def test_generic_koszul_complex_matches_its_goldens():
    # the Koszul complex on four generic forms, with dense duals; every
    # step's C^-1 (ints as ints, Fractions as "p/q"), rebased degrees and
    # the weights, walked from the top and from F_0 under each order
    problem = load_problem(fixture_path("generic_koszul_complex.json"))
    diffs = [problem.matrices[name] for name in problem.resolution]
    goldens = json.loads(fixture_path("generic_koszul_complex_propagated.json").read_text())
    for order in ALL_ORDERS:
        for start_index in (len(diffs), 0):
            result = propagate_resolution(diffs, start_index, problem.weightlists["VN"], order)
            steps = {
                str(index): {
                    "inverse_change_of_basis": [
                        [x if type(x) is int else str(x) for x in row]
                        for row in step.result.inverse_change_of_basis.rows
                    ],
                    "rebased_degrees": [list(d) for d in step.result.rebased_module.basis_degrees],
                }
                for index, step in result.steps.items()
            }
            weights = [[list(w) for w in ws] for ws in result.per_module]
            key = "%s from %d" % (order.kind, start_index)
            assert {"weights": weights, "steps": steps} == goldens[key], key


# ---------- resolutions from minimal_resolution ----------

PRESENTATIONS = [
    ("bigraded", "m", "W"),
    ("generic_koszul", "d1", "W0"),
    ("grassmannian", "d1", "W0"),
    ("koszul", "d1", "W0"),
    ("mixed_sign", "m", "W0"),
    ("three_squares", "m", "W"),
    ("two_variables", "m", "W"),
]


def outcome(differentials, start_index, weights, order):
    """The weights and step records, or what the ResolutionStepError carried."""
    try:
        result = propagate_resolution(differentials, start_index, weights, order)
    except ResolutionStepError as exc:
        return ("error", str(exc), exc.step, exc.partial, str(exc.__cause__))
    return (result.per_module, result.steps)


@pytest.mark.parametrize("order", ALL_ORDERS, ids=lambda o: o.kind)
@pytest.mark.parametrize("name, presentation, weights", PRESENTATIONS, ids=lambda v: v)
def test_proven_chain_propagates_like_a_checked_copy(name, presentation, weights, order):
    # start weights at F_i: the weights the backward walk from F_0 gives there
    problem = load_problem(fixture_path(name + ".json"))
    resolution = minimal_resolution(problem.matrices[presentation], order)
    diffs = resolution.differentials
    backward = propagate_resolution(diffs, 0, problem.weightlists[weights], order).per_module
    for start_index, weights in enumerate(backward):
        proven = outcome(diffs, start_index, weights, order)
        assert proven == outcome(list(diffs), start_index, weights, order)
        assert proven == outcome(resolution, start_index, weights, order)


class Spy:
    """Counts the calls of one function of torusweights.propagate, or of one method of owner, and keeps their arguments."""

    def __init__(self, monkeypatch, name, owner=None):
        # the package's `propagate` attribute is the function, not the module
        if owner is None:
            owner = importlib.import_module("torusweights.propagate")
        self.calls, self.args = 0, []
        wrapped = getattr(owner, name)

        def spy(*args):
            self.calls += 1
            self.args.append(args)
            return wrapped(*args)

        monkeypatch.setattr(owner, name, spy)


def test_only_the_proven_chain_skips_the_checks(monkeypatch, grassmannian):
    resolution = minimal_resolution(grassmannian.matrices["d1"], TOP_UP)
    diffs = resolution.differentials
    weights = grassmannian.weightlists["W0"]
    expected = propagate_resolution(list(diffs), 0, weights, TOP_UP).per_module
    # one composite test for the chain and one minimality run per differential
    groebner = importlib.import_module("torusweights.groebner")
    chain, minimal = Spy(monkeypatch, "_nonzero_composite", groebner), Spy(monkeypatch, "_nakayama_kept")
    for proven in (diffs, resolution):
        assert propagate_resolution(proven, 0, weights, TOP_UP).per_module == expected
        assert (chain.calls, minimal.calls) == (0, 0)
    copies = [
        (list(diffs), len(diffs)),
        (diffs[:2], 2),
        (tuple(diffs), len(diffs)),
        (Resolution(resolution.base_module, list(diffs)), len(diffs)),
    ]
    for copy, length in copies:
        chain.calls = minimal.calls = 0
        propagate_resolution(copy, 0, weights, TOP_UP)
        assert (chain.calls, minimal.calls) == (1, length)


def key_types(spy):
    """For each `_nakayama_kept` call spy saw, the set of the types of the keys of the vectors it was handed."""
    return [{type(t) for v in vectors for t in v} for _, _, vectors, _ in spy.args]


def test_one_degree_maps_of_independent_entries_take_one_coordinate_per_cell(monkeypatch):
    # the Koszul complex on four generic forms: every entry is +-f_a, the
    # forms are independent, so each map is handed {(row, a): +-1}
    koszul = koszul_complex(4, 1)
    spy = Spy(monkeypatch, "_nakayama_kept")
    propagate_resolution(koszul, 4, [(1,) * 4], TOP_UP)
    assert key_types(spy) == [{tuple}] * 4
    cells = [sum(bool(p.terms) for row in d.entries for p in row) for d in koszul]
    assert [sum(map(len, vectors)) for _, _, vectors, _ in spy.args] == cells


def test_a_chain_with_dependent_entries_takes_the_packed_terms(monkeypatch):
    # x + y depends on x and y, so the map takes its packed columns; its
    # columns are independent all the same
    ring = RingSpec(["x", "y"], [[1], [1]], [[1, 0], [0, 1]])
    d = matrix(ring, [[0]] * 2, [[1]] * 2, [["x", "y"], ["y", "x + y"]])
    spy = Spy(monkeypatch, "_nakayama_kept")
    propagate_resolution([d], 0, [(0, 0)] * 2, TOP_UP)
    assert key_types(spy) == [{int}]
    # the Koszul complex on four generic forms, in another basis of F_2:
    # d_2's and d_3's entries are sums of two forms, dependent on the
    # forms d_1 numbers first, while d_1 and d_4 keep one coordinate per cell
    koszul = koszul_complex(4, 1)
    d2, d3 = koszul[1], koszul[2]
    p = ScalarMatrix([[int(i == j or i == j + 1) for j in range(d2.num_cols)] for i in range(d2.num_cols)])
    moved = [
        koszul[0],
        d2 @ p.to_poly_matrix(d2.domain, d2.domain),
        p.inverse().to_poly_matrix(d3.codomain, d3.codomain) @ d3,
        koszul[3],
    ]
    spy.args.clear()
    result = propagate_resolution(moved, 4, [(1,) * 4], TOP_UP)
    assert key_types(spy) == [{tuple}, {int}, {int}, {tuple}]
    expected = propagate_resolution(koszul, 4, [(1,) * 4], TOP_UP)
    assert list(map(Counter, result.per_module)) == list(map(Counter, expected.per_module))
    # a dependent column is named as the packed columns name it
    bad = matrix(ring, [[0]] * 2, [[1]] * 3, [["x", "y", "x + y"], ["y", "x", "x + y"]])
    with pytest.raises(MinimalityError, match="differential 1 is not a minimal map"):
        propagate_resolution([bad], 0, [(0, 0)] * 2, TOP_UP)


def packing_spies(monkeypatch):
    """Spies on `_TermCodec.columns` and on `packed._largest_degree`, wherever it was imported."""
    packed, groebner = (importlib.import_module("torusweights." + name) for name in ("packed", "groebner"))
    columns, degree = Spy(monkeypatch, "columns", _TermCodec), Spy(monkeypatch, "_largest_degree", packed)
    monkeypatch.setattr(groebner, "_largest_degree", packed._largest_degree)
    return columns, degree


@pytest.mark.parametrize("name", ["koszul", "grassmannian"])
def test_each_map_is_packed_once_per_call(monkeypatch, name):
    # a proven chain is walked on its pruning's packed columns, re-keyed
    # under any other order than its own, and packs nothing; a forward step
    # re-tags a map that the chain check packed, and every map of a proven
    # chain, and packs any other map's dual from its cells
    problem = load_problem(fixture_path(name + ".json"))
    explicit = [problem.matrices[d] for d in problem.resolution]
    proven = minimal_resolution(explicit[0], TOP_UP).differentials
    columns, degree = packing_spies(monkeypatch)
    transposed = Spy(monkeypatch, "transposed", _TermCodec)
    check_chain(explicit)
    checked = {(cells.rows, len(cells.columns)) for _, cells in columns.args}
    assert checked == (set() if name == "koszul" else {(d.num_rows, d.num_cols) for d in explicit})
    for diffs in (explicit, proven):
        modules = [diffs[0].codomain] + [d.domain for d in diffs]
        for order in ALL_ORDERS:
            packs = 0 if diffs is proven else len(diffs)
            for start in range(len(diffs) + 1):
                columns.calls = degree.calls = 0
                transposed.args.clear()
                propagate_resolution(diffs, start, small_weights(modules[start]), order)
                assert (columns.calls, degree.calls) == (packs, packs), (order, start)
                forward = [(d.num_rows, d.num_cols) for d in reversed(diffs[:start])]
                retagged = [(rows, len(cols)) for _, cols, rows in transposed.args]
                assert retagged == (forward if diffs is proven else [s for s in forward if s in checked]), (order, start)
    # propagate_forward packs the dual from the map's cells
    for m in explicit:
        for run, weights in ((propagate, small_weights(m.codomain)), (propagate_forward, small_weights(m.domain))):
            columns.calls = degree.calls = transposed.calls = 0
            run(m, weights, TOP_UP)
            assert (columns.calls, degree.calls) == (1, 1), run
            assert transposed.calls == 0, run


@pytest.mark.parametrize("name", ["koszul", "generic_koszul"])
def test_minimal_resolution_packs_each_level_once(monkeypatch, name):
    # the input once, for the minimality check and the frame's run; every
    # other level is packed as the frame computes it, and the guard
    # repacks the run's columns rather than the input
    m = load_problem(fixture_path(name + ".json")).matrices["d1"]
    columns, degree = packing_spies(monkeypatch)
    resolution = minimal_resolution(m, TOP_UP)
    assert resolution.length == m.num_cols
    assert (columns.calls, degree.calls) == (1, 1)


# ---------- the packed chain handed from minimal_resolution to the walk ----------

HAND_OFF = [("grassmannian", "d1", "W0"), ("bigraded", "m", "W"), ("generic_koszul", "d1", "W0")]


def packed_snapshot(chain):
    """The chain's packed columns as lists of (term, coefficient), in insertion order."""
    return [[list(column.items()) for column in columns] for columns in chain.packed]


def walk_both_ways(walked, weights, order):
    """propagate_resolution of a Resolution or its maps from F_0 with weights, and from the top with small weights."""
    maps = walked.differentials if isinstance(walked, Resolution) else walked
    return (
        propagate_resolution(walked, 0, weights, order),
        propagate_resolution(walked, len(maps), small_weights(maps[-1].domain), order),
    )


@pytest.mark.parametrize("name, presentation, weights", HAND_OFF, ids=lambda v: v)
def test_hand_off_never_changes_the_chain(name, presentation, weights):
    problem = load_problem(fixture_path(name + ".json"))
    for order in ALL_ORDERS:
        resolution = minimal_resolution(problem.matrices[presentation], order)
        chain = resolution.differentials
        assert chain.codec.order == order and len(chain.packed) == len(chain)
        snapshot = packed_snapshot(chain)
        first = walk_both_ways(resolution, problem.weightlists[weights], order)
        assert packed_snapshot(chain) == snapshot, order
        assert walk_both_ways(resolution, problem.weightlists[weights], order) == first, order
        assert packed_snapshot(chain) == snapshot, order


@pytest.mark.parametrize("name, presentation, weights", HAND_OFF, ids=lambda v: v)
def test_hand_off_under_another_order_walks_like_a_checked_copy(monkeypatch, name, presentation, weights):
    # the chain's own order walks its packed columns; any other order
    # re-keys each packed column once per walk, and neither packs a map
    problem = load_problem(fixture_path(name + ".json"))
    columns, degree = packing_spies(monkeypatch)
    rekeyed = Spy(monkeypatch, "repacked", _TermCodec)
    for build in ALL_ORDERS:
        resolution = minimal_resolution(problem.matrices[presentation], build)
        diffs = resolution.differentials
        for order in ALL_ORDERS:
            columns.calls = degree.calls = rekeyed.calls = 0
            handed = walk_both_ways(resolution, problem.weightlists[weights], order)
            assert (columns.calls, degree.calls) == (0, 0), (build, order)
            rekeys = 0 if order == build else sum(d.num_cols for d in diffs)
            assert rekeyed.calls == 2 * rekeys, (build, order)
            assert handed == walk_both_ways(list(diffs), problem.weightlists[weights], order), (build, order)


@pytest.mark.parametrize("name, presentation, weights", HAND_OFF, ids=lambda v: v)
def test_hand_off_differentials_unpack_on_first_read(monkeypatch, name, presentation, weights):
    problem = load_problem(fixture_path(name + ".json"))
    m, start = problem.matrices[presentation], problem.weightlists[weights]
    unpack = Spy(monkeypatch, "entries", _TermCodec)
    walked = propagate_resolution(minimal_resolution(m, TOP_UP), 0, start, TOP_UP)
    # neither the resolution nor a walk that reads only the weights unpacks a map
    assert unpack.calls == 0
    chain = minimal_resolution(m, TOP_UP).differentials
    for d in chain:
        d.entries
    assert propagate_resolution(chain, 0, start, TOP_UP) == walked
    for k, d in enumerate(chain):
        expected = chain.codec.matrix(chain.packed[k], d.codomain, d.domain)
        assert d == expected and expected == d and hash(d) == hash(expected), k
    # each reader, as the first read of a fresh map, sees the unpacked matrix
    readers = [
        lambda d: d.is_zero,
        lambda d: dual_map(d),
        lambda d: [d.column(j) for j in range(d.num_cols)],
        entries_as_text,
    ]
    for read in readers:
        fresh = minimal_resolution(m, TOP_UP).differentials
        for k, d in enumerate(fresh):
            assert read(d) == read(chain.codec.matrix(chain.packed[k], d.codomain, d.domain)), k


# Gr(2,6) cancels units at four levels of its frame, so its pruning runs
# the row index of the cancellation and the re-keying of every differential
# for the walk.  Per order, the first 16 hex digits of the SHA-256 of the
# repr of: the typed differentials, the weight lists of the walk from F_0
# with weight 0, and that walk's C^-1, C and G, step by step.  Recorded
# before the pruning indexed its rows or re-keyed by a shift.
GR_2_6_DIGESTS = {
    "top-up": ("0d7cdcfe779d3441", "6f526f6be2aef26c", "31863390b9536eb8", "0051d0d7264fdfe0", "ab37777b3d490f3e"),
    "pot-up": ("0d7cdcfe779d3441", "0602bcbb2a12195b", "10c8b133aca52c16", "1673224b0519c188", "4d60cb0c8c33ca2d"),
    "top-down": ("0d7cdcfe779d3441", "076c7b4430f21275", "53685231ee5ac5d9", "9ff5f395e0222784", "0295c9cc75480e76"),
    "pot-down": ("0d7cdcfe779d3441", "be141c57b7a04238", "aee379f63c3a847a", "feff2af3966b2e8e", "12f2d48821a42679"),
}


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def named_matrix(m):
    """The degrees of a PolyMatrix's modules and its entries' sorted terms, with coefficient type names."""
    return (
        m.codomain.basis_degrees,
        m.domain.basis_degrees,
        [[sorted((mono, type(c).__name__, c) for mono, c in p.terms.items()) for p in row] for row in m.entries],
    )


def named_scalars(s):
    return [[(type(x).__name__, x) for x in row] for row in s.rows]


@pytest.mark.parametrize("order", ALL_ORDERS, ids=lambda o: o.kind)
def test_hand_off_of_the_gr_2_6_pruning_matches_its_goldens(order):
    resolution = minimal_resolution(plucker_presentation(6), order)
    assert resolution.ranks == [1, 15, 35, 42, 35, 15, 1]
    walked = propagate_resolution(resolution, 0, [(0,) * 6], order)
    results = [walked.steps[k].result for k in sorted(walked.steps)]
    assert (
        digest([named_matrix(d) for d in resolution.differentials]),
        digest(walked.per_module),
        digest([named_scalars(r.inverse_change_of_basis) for r in results]),
        digest([named_scalars(r.change_of_basis) for r in results]),
        digest([named_matrix(r.sorted_matrix) for r in results]),
    ) == GR_2_6_DIGESTS[order.kind]


# The Koszul complex on seven generic forms (conftest's koszul_complex(7, 7))
# walked from its top and from F_0: per order, per start, SHA-256 digests of
# the weights and of every step's C^-1, C and G, recorded before the dense
# blocks took the pivot scan.
DENSE_WALK_DIGESTS = {
    "top-up": [
        ("8b7ad6f9e64bf1bf", "6283f86551570175", "89f1aceca82201f3", "cac5a5b93cbaf708"),
        ("8b7ad6f9e64bf1bf", "0ad310909a150342", "58c0db2acbf07aa1", "eb939c463a6318bd"),
    ],
    "pot-up": [
        ("8b7ad6f9e64bf1bf", "7146a67b9cac31f2", "4e0a386b21bea7b8", "a86b201c9d6007fe"),
        ("8b7ad6f9e64bf1bf", "a4a57cf5e4407853", "b18efc1087e97fdb", "153e3aa127ffa2c6"),
    ],
    "top-down": [
        ("43474bda16c36ccc", "f041e612afa8082f", "65c4950e57ffeed4", "1fb6ac2b3b8883b3"),
        ("43474bda16c36ccc", "ba87ea575583d8a9", "be1bd8690144110a", "acffbdfbe22a4c5c"),
    ],
    "pot-down": [
        ("43474bda16c36ccc", "8651c0904dad242a", "d6a372428daa8b3b", "d533049e54d928d7"),
        ("43474bda16c36ccc", "f361fa90b6f2f8d6", "a9424989d98ac620", "1c385f676317dc48"),
    ],
}


@pytest.mark.parametrize("order", ALL_ORDERS, ids=lambda o: o.kind)
def test_dense_walk_matches_its_goldens(order):
    # every block of the walk from the top is dense, and its pivot scans widen their slots
    differentials = koszul_complex(7, 7)
    found = []
    for start, weights in ((7, [(1,) * 7]), (0, [(0,) * 7])):
        walked = propagate_resolution(differentials, start, weights, order)
        results = [walked.steps[k].result for k in sorted(walked.steps)]
        found.append((
            digest(walked.per_module),
            digest([named_scalars(r.inverse_change_of_basis) for r in results]),
            digest([named_scalars(r.change_of_basis) for r in results]),
            digest([named_matrix(r.sorted_matrix) for r in results]),
        ))
    assert found == DENSE_WALK_DIGESTS[order.kind]


# The Koszul complexes on seven and eight generic forms walked from their
# tops: the scan widens its slots whenever a step's bit bound outgrows
# them, and on eight forms past 8 bytes, to 128-bit slots, which `_Slots`
# reads with int.from_bytes, not struct.
def test_the_dense_walk_widens_its_pivot_scan_slots(caplog):
    for n, seed, widths in ((7, 7, (64, 64)), (8, 1, (64, 64, 128, 128, 128))):
        differentials = koszul_complex(n, seed)
        subsets = [
            Counter(tuple(int(i in s) for i in range(n)) for s in combinations(range(n), k)) for k in range(n + 1)
        ]
        for order in ALL_ORDERS:
            caplog.clear()
            with caplog.at_level(logging.DEBUG):
                walked = propagate_resolution(differentials, n, [(1,) * n], order)
            widened = [r.getMessage() for r in caplog.records if "pivot-scan" in r.getMessage()]
            assert widened == ["walk: widened pivot-scan slots to %d bits" % w for w in widths], (n, order)
            assert [Counter(ws) for ws in walked.per_module] == subsets, (n, order)


# The Koszul complex on seven generic forms (conftest's koszul_complex(7, 1))
# walked from its top: per block in row slots, its column count and how many
# of its groups of term vectors the scan reads, of the 7 it has under a
# term-first order, one per monomial; under a position-first order a block
# is one group.
DENSE_WALK_GROUPS_READ = [(21, 6), (35, 5), (35, 4), (21, 3), (7, 2), (1, 1)]


def test_the_dense_walk_scan_reads_no_group_past_full_rank(monkeypatch):
    # each group is unpacked only when the scan asks for it, and the scan
    # stops at full rank before it asks for another
    packed = importlib.import_module("torusweights.packed")
    term_groups, blocks = packed._RowPacked.term_groups, []

    def counted(self, cols):
        blocks.append([self, cols, 0])
        for group in term_groups(self, cols):
            blocks[-1][2] += 1
            yield group

    monkeypatch.setattr(packed._RowPacked, "term_groups", counted)
    # the ints each block unpacks: the block's own slots' unpack calls, keyed
    # by the slots themselves, which the counter keeps alive
    slots, unpacked = importlib.import_module("torusweights.linalg")._Slots, Counter()
    unpack = slots.unpack
    monkeypatch.setattr(slots, "unpack", lambda self, v: unpacked.update([self]) or unpack(self, v))

    def ints(rows, cols):
        """(the ints the walk unpacked for the block cols of rows, the nonzero ints it holds)."""
        return unpacked[rows.slots], sum(1 for j in cols for v in rows.columns[j].values() if v)

    differentials = koszul_complex(7, 1)
    # d_6 with its first row repeated still composes to zero with d_7 and
    # is minimal, but its dual's columns are dependent: the walk from F_2
    # rebases that dual in row slots, its scan reads every group of the one
    # block, and the step raises
    d6, d7 = differentials[5], differentials[6]
    repeated = PolyMatrix(
        FreeModuleSpec(d6.codomain.ring, list(d6.codomain.basis_degrees) + [d6.codomain.basis_degrees[0]]),
        d6.domain,
        list(d6.entries) + [d6.entries[0]],
    )
    for order in ALL_ORDERS:
        groups = 7 if order.kind.startswith("top") else 1
        blocks.clear()
        unpacked.clear()
        walked = propagate_resolution(differentials, 7, [(1,) * 7], order)
        assert len(walked.per_module) == 8
        for rows, cols, _ in blocks:
            read, held = ints(rows, cols)
            assert read < held if groups > 1 else read == held, (order, len(cols))
        assert [(len(cols), read) for _, cols, read in blocks] == [
            (n, read if groups > 1 else 1) for n, read in DENSE_WALK_GROUPS_READ
        ], order
        assert [len(list(term_groups(rows, cols))) for rows, cols, _ in blocks] == [groups] * 6, order
        blocks.clear()
        unpacked.clear()
        with pytest.raises(ResolutionStepError, match="dual map is not minimal") as caught:
            propagate_resolution([repeated, d7], 2, [(1,) * 7], order)
        assert type(caught.value.__cause__) is MinimalityError
        assert [(len(cols), read) for _, cols, read in blocks] == [(22, groups)], order
        read, held = ints(*blocks[0][:2])
        assert read == held, order


def test_the_dense_walk_builds_no_module_through_the_validating_constructor(monkeypatch):
    # the walk's modules, each dual and each rebased domain, come from
    # degrees that are already checked, so none is checked again
    differentials = koszul_complex(7, 7)
    built = []
    init = FreeModuleSpec.__init__
    monkeypatch.setattr(FreeModuleSpec, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    for order in ALL_ORDERS:
        walked = propagate_resolution(differentials, 7, [(1,) * 7], order)
        assert len(walked.per_module) == 8 and built == [], order


def scaled_map(d, factor):
    return PolyMatrix(d.codomain, d.domain, [[p.scale(factor) for p in row] for row in d.entries])


@pytest.mark.parametrize("order", ALL_ORDERS, ids=lambda o: o.kind)
def test_the_rational_dense_walk_carries_its_denominators_through_c_inverse(order):
    # every map of the complex a third of the integral one: the walk from the
    # top rebases each dual by a C^-1 over a denominator, a power of 3, which
    # the next product's row slots scale by, and reads the same pivots
    differentials = koszul_complex(7, 7)
    integral = propagate_resolution(differentials, 7, [(1,) * 7], order)
    third = propagate_resolution([scaled_map(d, Fraction(1, 3)) for d in differentials], 7, [(1,) * 7], order)
    assert third.per_module == integral.per_module
    for k, step in integral.steps.items():
        rational = third.steps[k].result
        assert rational.sorted_matrix == step.result.sorted_matrix, k
        expected = [[Fraction(x, 3 ** (7 - k)) for x in row] for row in step.result.inverse_change_of_basis.rows]
        assert named_scalars(rational.inverse_change_of_basis) == named_scalars(ScalarMatrix(expected)), k


def test_the_dense_walk_builds_nothing_before_it_is_read(monkeypatch):
    # the walk carries each rebased map in row slots and C^-1 as term
    # vectors: no packed dict, no ScalarMatrix is made until it is read
    packed = importlib.import_module("torusweights.packed")
    built = []
    dicts, unchecked = packed._RowPacked.dicts, ScalarMatrix._unchecked.__func__
    monkeypatch.setattr(packed._RowPacked, "dicts", lambda self: built.append("dicts") or dicts(self))
    monkeypatch.setattr(
        ScalarMatrix, "_unchecked", classmethod(lambda cls, rows: built.append("scalars") or unchecked(cls, rows))
    )
    differentials = koszul_complex(7, 7)
    for order in ALL_ORDERS:
        found = []
        for start, weights in ((7, [(1,) * 7]), (0, [(0,) * 7])):
            built.clear()
            walked = propagate_resolution(differentials, start, weights, order)
            assert len(walked.per_module) == 8 and built == [], (order, start)
            steps = [walked.steps[k] for k in sorted(walked.steps)]
            sorted_matrices = [named_matrix(step.result.sorted_matrix) for step in steps]
            changes = [named_scalars(step.result.change_of_basis) for step in steps]
            inverses = [named_scalars(step.result.inverse_change_of_basis) for step in steps]
            maps = [named_matrix(step.matrix) for step in steps]
            assert {"scalars", "dicts"} <= set(built), (order, start)
            found.append((digest(walked.per_module), digest(inverses), digest(changes), digest(sorted_matrices)))
            again = propagate_resolution(differentials, start, weights, order)
            assert maps == [named_matrix(again.steps[k].matrix) for k in sorted(again.steps)], (order, start)
        assert found == DENSE_WALK_DIGESTS[order.kind], order


def chain_faults(koszul):
    """(chain, expected error) for explicit Koszul chains that fail the checks, in the checks' precedence."""
    d1, d2, d3 = (koszul.matrices[name] for name in koszul.resolution)
    ring = koszul.ring
    bad_d2 = matrix(ring, [[1]] * 3, [[2]] * 3, [["x1", "0", "0"], ["0", "x1", "0"], ["0", "0", "x1"]])
    # d3 with its column repeated: still composes to zero, but not minimal
    doubled_d3 = PolyMatrix(d3.codomain, FreeModuleSpec(ring, [[3], [3]]), [row * 2 for row in d3.entries])
    not_composing = "differentials 1 and 2 do not compose to zero"
    return [
        ([d1, d3], InputError, "chain-shape mismatch between differentials 1 and 2"),
        ([d1, bad_d2, d1], InputError, "chain-shape mismatch between differentials 2 and 3"),
        ([d1, bad_d2], InputError, not_composing),
        ([d1, bad_d2, d3], InputError, not_composing),
        ([d1, d2, doubled_d3], MinimalityError, "differential 3 is not a minimal map"),
        ([doubled_d3], MinimalityError, "differential 1 is not a minimal map"),
    ]


@pytest.mark.parametrize("order", ALL_ORDERS, ids=lambda o: o.kind)
def test_chain_faults_are_reported_alike_under_every_order(koszul, order):
    for chain, error, message in chain_faults(koszul):
        modules = [chain[0].codomain] + [d.domain for d in chain]
        for start in range(len(chain) + 1):
            with pytest.raises(error) as info:
                propagate_resolution(chain, start, small_weights(modules[start]), order)
            assert type(info.value) is error and str(info.value) == message, (message, start)


def test_hand_built_resolution_is_checked(koszul):
    base = koszul.matrices["d1"].codomain
    not_a_chain = Resolution(base, [koszul.matrices["d1"], koszul.matrices["d3"]])
    with pytest.raises(InputError, match="chain-shape mismatch"):
        propagate_resolution(not_a_chain, 0, koszul.weightlists["W0"], TOP_UP)
    not_minimal = Resolution(base, [matrix(koszul.ring, [[0]], [[1], [2]], [["x1", "x1*x2"]])])
    with pytest.raises(MinimalityError, match="differential 1 is not a minimal map"):
        propagate_resolution(not_minimal, 0, koszul.weightlists["W0"], TOP_UP)


def test_the_empty_resolution_of_a_free_module_is_rejected():
    # a presentation without columns resolves to a chain of no differentials
    ring = RingSpec(["x", "y"], [[1], [1]], [[1, 0], [0, 1]])
    resolution = minimal_resolution(matrix(ring, [[0], [1]], [], [[], []]), TOP_UP)
    assert resolution.differentials == ()
    for chain in (resolution, resolution.differentials, []):
        with pytest.raises(InputError) as info:
            propagate_resolution(chain, 0, [(0, 0), (1, 0)], TOP_UP)
        assert str(info.value) == "resolution has no differentials"


def test_single_degree_non_minimal_dual_is_left_to_the_elimination(monkeypatch):
    # both rows of d1 sit in degree 0, so its dual's columns share one degree
    ring = RingSpec(["x"], [[1]], [[1]])
    d1 = matrix(ring, [[0], [0]], [[1]], [["x"], ["x"]])
    minimal = Spy(monkeypatch, "_nakayama_kept")
    with pytest.raises(ResolutionStepError) as info:
        propagate_resolution([d1], 1, [(1,)], TOP_UP)
    assert str(info.value) == (
        "forward propagation failed at module 0: dual map is not minimal; cannot propagate forward"
    )
    assert (info.value.step, info.value.partial) == (0, (None, ((1,),)))
    assert isinstance(info.value.__cause__, MinimalityError)
    with pytest.raises(MinimalityError) as info:
        propagate_forward(d1, [(1,)], TOP_UP)
    assert str(info.value) == "dual map is not minimal; cannot propagate forward"
    with pytest.raises(MinimalityError) as info:
        propagate(matrix(ring, [[0]], [[1], [1]], [["x", "x"]]), [(0,)], TOP_UP)
    assert str(info.value) == "map is not minimal; its columns do not minimally generate the image"
    # one check for the resolution's differential, none for the duals or propagate's map
    assert minimal.calls == 1


def test_mixed_degree_non_minimal_dual_is_rejected():
    # the dual's columns x^2 and x lie in two degrees and x^2 = x * x: each
    # degree alone is independent, so only the Nakayama check can see it
    ring = RingSpec(["x"], [[1]], [[1]])
    d1 = matrix(ring, [[0], [1]], [[2]], [["x^2"], ["x"]])
    with pytest.raises(MinimalityError) as info:
        propagate_forward(d1, [(2,)], TOP_UP)
    assert str(info.value) == "dual map is not minimal; cannot propagate forward"
    with pytest.raises(ResolutionStepError) as info:
        propagate_resolution([d1], 1, [(2,)], TOP_UP)
    assert (info.value.step, info.value.partial) == (0, (None, ((2,),)))


# ---------- fields built on first read ----------


def test_the_forward_walk_builds_only_what_is_read(monkeypatch):
    # the Koszul complex on four generic forms, explicit, walked from the top
    problem = load_problem(fixture_path("generic_koszul.json"))
    diffs = list(minimal_resolution(problem.matrices["d1"], TOP_UP).differentials)
    n = len(diffs)
    # the differentials unpack on first read: read them before the spies,
    # so that only the walk's own unpacking is counted
    for d in diffs:
        d.entries
    unpack = Spy(monkeypatch, "matrix", _TermCodec)
    dual = Spy(monkeypatch, "dual_map")
    invert = Spy(monkeypatch, "_inverted")
    result = propagate_resolution(diffs, n, [(1,) * 4], TOP_UP)
    assert result.per_module[0] == ((0, 0, 0, 0),)
    # the walk transposes packed columns: no dual map is built before a read
    assert (unpack.calls, dual.calls, invert.calls) == (0, 0, 0)
    for index, step in result.steps.items():
        # G is built from the cached C, so C is read first for its count
        reads = [(step, "matrix", unpack), (step.result, "change_of_basis", invert), (step.result, "sorted_matrix", unpack)]
        for owner, name, spy in reads:
            calls = spy.calls
            first = getattr(owner, name)
            assert getattr(owner, name) is first
            assert spy.calls == calls + 1, (index, name)
    # one dual per forward step, for the read of its map
    assert dual.calls == n


def typed_rows(scalars):
    return [[(type(x), x) for x in row] for row in scalars.rows]


def test_the_inverter_matches_the_dense_inverse():
    # C^-1 is zero between degrees; in these its degree blocks interleave in
    # index order, rows in degrees a, b, a, b and columns in a, b, a, b, then
    # in b, a, a, b, so the blocks must be kept apart, whether they are
    # inverted one degree at a time or as one block of a single degree
    cases = [
        ([], "", ""),
        ([[3]], "a", "a"),
        ([[Fraction(2, 3)]], "a", "a"),
        ([[2, 0, 1, 0], [0, 1, 0, 5], [1, 0, 1, 0], [0, 3, 0, 4]], "abab", "abab"),
        ([[0, 2, 1, 0], [1, 0, 0, 1], [0, 1, 1, 0], [3, 0, 0, -1]], "abab", "baab"),
        ([[Fraction(1, 2), 0, -1, 0], [0, 0, 0, 7], [4, 0, 2, 0], [0, Fraction(-3, 5), 0, 0]], "abab", "abab"),
    ]
    for rows, row_degrees, column_degrees in cases:
        inverse = ScalarMatrix(rows)
        expected = typed_rows(inverse.inverse())
        assert typed_rows(_inverted(inverse, row_degrees, column_degrees)) == expected, rows
        one = "a" * len(rows)
        assert typed_rows(_inverted(inverse, one, one)) == expected, rows


@pytest.mark.parametrize("forward", [False, True])
def test_reading_c_and_g_inverts_once(monkeypatch, forward):
    # G = M @ C is built from the result's cached C, in either order of reads
    problem = load_problem(fixture_path("generic_koszul_complex.json"))
    m = problem.matrices["d2"]
    run, weights = (propagate_forward, small_weights(m.domain)) if forward else (propagate, small_weights(m.codomain))
    invert = Spy(monkeypatch, "_inverted")
    for names in (("change_of_basis", "sorted_matrix"), ("sorted_matrix", "change_of_basis")):
        invert.calls = 0
        result = run(m, weights, TOP_UP)
        for name in names:
            getattr(result, name)
        assert invert.calls == 1, names
        assert result == run(m, weights, TOP_UP)


def solved_change_of_basis(matrix, sorted_matrix):
    """The C with sorted_matrix = matrix @ C, solved one column degree at a time by `change_of_basis`."""
    c = [[0] * sorted_matrix.num_cols for _ in range(matrix.num_cols)]
    for d in set(matrix.domain.basis_degrees):
        js = [j for j, e in enumerate(matrix.domain.basis_degrees) if e == d]
        ks = [k for k, e in enumerate(sorted_matrix.domain.basis_degrees) if e == d]
        block = change_of_basis(permute_columns(matrix, js), permute_columns(sorted_matrix, ks))
        for j, row in zip(js, block.rows):
            for k, x in zip(ks, row):
                c[j][k] = x
    return ScalarMatrix(c)


def assert_change_of_basis_is_solved(matrix, result, forward):
    """C, built on first read, against the solved system G = M @ C, with coefficient types.

    A forward result's C is the transpose of the one its dual run solves
    for, on the dual map.
    """
    c = result.change_of_basis
    if forward:
        expected = solved_change_of_basis(dual_map(matrix), result.sorted_matrix).transpose()
    else:
        expected = solved_change_of_basis(matrix, result.sorted_matrix)
    assert typed_rows(c) == typed_rows(expected)
    assert c @ result.inverse_change_of_basis == ScalarMatrix.identity(c.num_rows)


PROBLEM_FIXTURES = [
    "bigraded",
    "generic_koszul",
    "grassmannian",
    "high_degree",
    "high_degree_3var",
    "koszul",
    "mixed_sign",
    "three_squares",
    "two_variables",
]


def fixture_maps():
    for name in PROBLEM_FIXTURES:
        problem = load_problem(fixture_path(name + ".json"))
        for label, m in problem.matrices.items():
            yield pytest.param(problem, m, id="%s-%s" % (name, label))


def small_weights(module):
    length = module.ring.weight_length
    return [tuple((i + j) % 3 - 1 for j in range(length)) for i in range(module.rank)]


@pytest.mark.parametrize("order", ALL_ORDERS, ids=lambda o: o.kind)
@pytest.mark.parametrize("problem, m", fixture_maps())
def test_change_of_basis_built_on_read_is_the_solved_one(problem, m, order):
    for run, weights, forward in (
        (propagate, small_weights(m.codomain), False),
        (propagate_forward, small_weights(m.domain), True),
    ):
        try:
            result = run(m, weights, order)
        except MinimalityError:
            continue
        assert_change_of_basis_is_solved(m, result, forward)
    # the file's resolution, once, and the one computed from m
    resolutions = []
    if problem.resolution and m is problem.matrices[problem.resolution[0]]:
        resolutions.append([problem.matrices[name] for name in problem.resolution])
    if is_minimal_map(m):
        resolutions.append(minimal_resolution(m, order).differentials)
    for diffs in resolutions:
        modules = [diffs[0].codomain] + [d.domain for d in diffs]
        for start_index, module in enumerate(modules):
            try:
                result = propagate_resolution(diffs, start_index, small_weights(module), order)
            except ResolutionStepError:
                continue
            for index, step in result.steps.items():
                assert_change_of_basis_is_solved(step.matrix, step.result, index < start_index)


# ---------- graded components ----------


def test_graded_component_small(bigraded):
    v = propagate_graded_components((0, 1), bigraded.matrices["m"], bigraded.weightlists["W"], TOP_UP)
    assert v == ((0, 0, 0, 1), (0, 0, 1, 0))


def test_graded_component_empty(bigraded):
    for order in ALL_ORDERS:
        v = propagate_graded_components((2, 0), bigraded.matrices["m"], bigraded.weightlists["W"], order)
        assert v == ()


def standard_monomial_matrix(degree, matrix, order):
    """The standard monomials of one degree of coker(matrix) as matrix columns."""
    terms = standard_monomials(buchberger(matrix, order), degree)
    columns = [matrix.codomain.basis_element(t.index, Polynomial({t.monomial: 1})) for t in terms]
    domain = FreeModuleSpec(matrix.domain.ring, [degree] * len(terms))
    return PolyMatrix.from_columns(matrix.codomain, domain, columns)


def grassmannian_case(grassmannian, which, order):
    d1, w0 = grassmannian.matrices["d1"], grassmannian.weightlists["W0"]
    if which == "d1":
        return d1, w0
    # coker of d2 rewritten in the basis of F1 that propagation along d1 produces
    diffs = [grassmannian.matrices[n] for n in grassmannian.resolution]
    result = propagate_resolution(diffs, 0, w0, order)
    return result.steps[2].matrix, result.per_module[1]


@pytest.mark.parametrize("order", ALL_ORDERS, ids=lambda o: o.kind)
@pytest.mark.parametrize(
    "which, degree",
    [
        pytest.param(which, (d,), id="%s-degree%d" % (which, d))
        for which, d in [("d1", 1), ("d1", 2), ("d1", 3), ("d2_rebased", 2), ("d2_rebased", 3)]
    ],
)
def test_graded_component_matches_propagation_oracle(grassmannian, which, degree, order):
    m, w = grassmannian_case(grassmannian, which, order)
    expected = propagate(standard_monomial_matrix(degree, m, order), w, order).weights
    assert expected
    assert propagate_graded_components(degree, m, w, order) == expected


@pytest.mark.parametrize("order", ALL_ORDERS, ids=lambda o: o.kind)
@pytest.mark.parametrize("degree", [(0, 1), (2, 0), (1, 2)], ids=str)
def test_bigraded_component_matches_propagation_oracle(bigraded, degree, order):
    m, w = bigraded.matrices["m"], bigraded.weightlists["W"]
    expected = propagate(standard_monomial_matrix(degree, m, order), w, order).weights
    assert propagate_graded_components(degree, m, w, order) == expected


def test_graded_component_rejects_bad_order(bigraded):
    with pytest.raises(InputError):
        propagate_graded_components((0, 1), bigraded.matrices["m"], bigraded.weightlists["W"], "top-up")


def test_propagation_rejects_bad_order(koszul):
    d1, w0 = koszul.matrices["d1"], koszul.weightlists["W0"]
    diffs = [koszul.matrices[n] for n in koszul.resolution]
    calls = [
        lambda: propagate(d1, w0, "top-up"),
        lambda: propagate_single_degree(d1, w0, "top-up"),
        lambda: propagate_forward(koszul.matrices["d3"], [(1, 1, 1)], "top-up"),
        lambda: propagate_resolution(diffs, 0, w0, "top-up"),
        lambda: propagate_resolution(diffs, 3, [(1, 1, 1)], "top-up"),
    ]
    for call in calls:
        with pytest.raises(InputError):
            call()


def test_graded_component_plucker_samples(grassmannian):
    v = propagate_graded_components(
        (2,), grassmannian.matrices["d1"], grassmannian.weightlists["W0"], TOP_UP
    )
    assert len(v) == 50
    counts = Counter(v)
    assert counts[(2, 2, 0, 0, 0)] == 1
    assert counts[(2, 1, 1, 0, 0)] == 1
    assert counts[(1, 1, 1, 1, 0)] == 2


def test_graded_components_read_no_reduced_basis_and_no_term_weights(monkeypatch, grassmannian):
    # Gr(2,5) in degree 4: five leading terms, 490 standard monomials
    d1, w0 = grassmannian.matrices["d1"], grassmannian.weightlists["W0"]
    leads = len(buchberger(d1, TOP_UP, bound=(4,)).elements)
    expected = propagate(standard_monomial_matrix((4,), d1, TOP_UP), w0, TOP_UP).weights
    groebner = importlib.import_module("torusweights.groebner")
    reduce = Spy(monkeypatch, "_back_substitute", groebner)
    weigh = Spy(monkeypatch, "monomial_weight", RingSpec)
    unpack = Spy(monkeypatch, "unpack", _TermCodec)
    assert propagate_graded_components((4,), d1, w0, TOP_UP) == expected
    assert (len(expected), leads) == (490, 5)
    assert (reduce.calls, weigh.calls) == (0, 0)
    # the run unpacks each leading term it adds, and the search reads each once more
    assert unpack.calls == 2 * leads


# ---------- sparse degree blocks ----------


# The maximal minors of a generic p x n matrix, x_ij of weight e_i + f_j,
# are resolved by the Eagon-Northcott complex, whose weights have a closed
# form (reference.eagon_northcott_weights) that no walk computes.  Every
# C^-1 of these walks is sparse enough that its rebase takes the dict loop,
# so every degree block comes as packed dicts and finds its pivots by the
# sparse `linalg.Echelon`.  The walk from F_0 rebases every module; its
# rebased maps (each step's sorted_matrix) form a chain whose top module
# has per_module[top] as its weight list, so the walk from the top starts
# there: the top module has rank > 1 and no known weight list in the
# resolution's own basis.
@pytest.mark.parametrize("size", [(2, 3), (2, 4), (2, 5), (3, 5), (2, 7), (3, 6)], ids=lambda s: "%dx%d" % s)
@pytest.mark.parametrize("order", ALL_ORDERS, ids=lambda o: o.kind)
def test_eagon_northcott_walk_matches_the_closed_form(order, size):
    p, n = size
    resolution = minimal_resolution(generic_minors(p, n, p), order)
    walked = propagate_resolution(resolution, 0, [(0,) * (p + n)], order)
    assert [Counter(ws) for ws in walked.per_module] == eagon_northcott_weights(p, n)
    top = resolution.length
    rebased = [walked.steps[k].result.sorted_matrix for k in range(1, top + 1)]
    from_top = propagate_resolution(rebased, top, walked.per_module[top], order)
    assert [Counter(ws) for ws in from_top.per_module] == eagon_northcott_weights(p, n)


def symmetric_power_weights(d, k):
    """The weights of Sym^d(C^k) under the diagonal torus: the exponent vectors of the degree-d monomials in k letters."""
    return [tuple(Counter(letters)[i] for i in range(k)) for letters in combinations_with_replacement(range(k), d)]


# The 2 x 2 minors of a generic p x n matrix cut out the Segre embedding of
# P^(p-1) x P^(n-1), whose coordinate ring in degree d is Sym^d(C^p) (x)
# Sym^d(C^n): its character is the product of the two characters, which
# is enumerated here.
@pytest.mark.parametrize("size", [(3, 3), (3, 4)], ids=lambda s: "%dx%d" % s)
@pytest.mark.parametrize("order", ALL_ORDERS, ids=lambda o: o.kind)
def test_segre_components_are_products_of_symmetric_powers(order, size):
    p, n = size
    m = generic_minors(p, n, 2)
    for d in range(1, 5):
        expected = Counter(a + b for a in symmetric_power_weights(d, p) for b in symmetric_power_weights(d, n))
        assert Counter(propagate_graded_components((d,), m, [(0,) * (p + n)], order)) == expected, d


def segre_monomial_weights(p, n, k):
    """The weights of the degree-k monomials in the variables x_ij of weight e_i + f_j, with multiplicity."""
    cells = [(i, j) for i in range(p) for j in range(n)]
    return Counter(
        tuple(Counter(i for i, _ in c)[a] for a in range(p)) + tuple(Counter(j for _, j in c)[b] for b in range(n))
        for c in combinations_with_replacement(cells, k)
    )


# Through the walk from F_0, the same character is an Euler
# characteristic: sum_i (-1)^i sum_{e in F_i} w(e) char(S_{d - deg e}),
# each F_i's degrees those of the basis its weights belong to.
@pytest.mark.parametrize("size", [(3, 3), (3, 4)], ids=lambda s: "%dx%d" % s)
@pytest.mark.parametrize("order", ALL_ORDERS, ids=lambda o: o.kind)
def test_segre_characters_are_euler_characteristics_of_the_walk(order, size):
    p, n = size
    resolution = minimal_resolution(generic_minors(p, n, 2), order)
    walked = propagate_resolution(resolution, 0, [(0,) * (p + n)], order)
    degrees = [resolution.modules[0].basis_degrees]
    degrees += [walked.steps[i].result.rebased_module.basis_degrees for i in range(1, resolution.length + 1)]
    for d in range(1, 5):
        character = Counter()
        for i, (weights, module_degrees) in enumerate(zip(walked.per_module, degrees)):
            for w, (e,) in zip(weights, module_degrees):
                for v, count in segre_monomial_weights(p, n, d - e).items() if e <= d else ():
                    character[vector_add(w, v)] += (-1) ** i * count
        expected = Counter(a + b for a in symmetric_power_weights(d, p) for b in symmetric_power_weights(d, n))
        assert {v: c for v, c in character.items() if c} == expected, d


def test_single_term_columns_are_stored_as_their_nonzeros(monkeypatch):
    # a 2 x 924 map whose columns are the single terms m * e_i, m every
    # monomial of degree 6 in six variables: one sparse degree block, whose
    # every column is stored as it comes, one nonzero each, and whose
    # weights are those of the columns' own terms in the order's sort
    ring = RingSpec(["x%d" % k for k in range(1, 7)], [[1]] * 6, [[int(j == k) for j in range(6)] for k in range(6)])
    monomials = ring.monomials_of_degree((6,))
    codomain, domain = FreeModuleSpec(ring, [[0], [0]]), FreeModuleSpec(ring, [[6]] * (2 * len(monomials)))
    entries = [[Polynomial({m: 1}) if i == row else Polynomial() for i in (0, 1) for m in monomials] for row in (0, 1)]
    weights = [(0,) * 6, (1, 2, 3, 4, 5, 6)]
    echelons = []
    propagate_module = importlib.import_module("torusweights.propagate")

    class Recorded(propagate_module.Echelon):
        def __init__(self):
            super().__init__()
            echelons.append(self)

    monkeypatch.setattr(propagate_module, "Echelon", Recorded)
    for order in ALL_ORDERS:
        echelons.clear()
        result = propagate(PolyMatrix(codomain, domain, entries), weights, order)
        (ech,) = echelons
        assert ech.rank == 924 and all(len(row) == 1 and all(row.values()) for row in ech.pivots.values())
        terms = [ModuleTerm(m, i) for i in (0, 1) for m in monomials]
        terms.sort(key=order.sort_key(ring), reverse=not order.is_position_up)
        assert result.weights == tuple(vector_add(ring.monomial_weight(t.monomial), weights[t.index]) for t in terms)
