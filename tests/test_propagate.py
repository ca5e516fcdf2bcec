from collections import Counter

import pytest

from torusweights import (
    FreeModuleSpec,
    InputError,
    MinimalityError,
    ModuleTermOrder,
    Polynomial,
    PolyMatrix,
    ResolutionStepError,
    RingSpec,
    ScalarMatrix,
    buchberger,
    negate_weights,
    propagate,
    propagate_forward,
    propagate_graded_components,
    propagate_resolution,
    propagate_single_degree,
    split_by_column_degree,
    standard_monomials,
)
from torusweights.parsing import parse_polynomial, polynomial_to_string

TOP_UP = ModuleTermOrder("top-up")
ALL_ORDERS = [ModuleTermOrder(kind) for kind in ModuleTermOrder.KINDS]


def matrix(ring, cod_degs, dom_degs, rows):
    cod = FreeModuleSpec(ring, cod_degs)
    dom = FreeModuleSpec(ring, dom_degs)
    return PolyMatrix(cod, dom, [[parse_polynomial(ring, t) for t in row] for row in rows])


def entries_as_text(m):
    ring = m.domain.ring
    return [[polynomial_to_string(ring, p) for p in row] for row in m.entries]


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


def test_weight_list_length_checked(two_variables):
    with pytest.raises(InputError):
        propagate_single_degree(two_variables.matrices["m"], [(0, 0), (0, 0)], TOP_UP)


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
    result = propagate_resolution(diffs, 0, koszul.weightlists["W0"], TOP_UP)
    assert result.per_module == (
        ((0, 0, 0),),
        ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
        ((0, 1, 1), (1, 0, 1), (1, 1, 0)),
        ((1, 1, 1),),
    )


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
    with pytest.raises(InputError):
        propagate_resolution([koszul.matrices["d1"], bad_d2], 0, koszul.weightlists["W0"], TOP_UP)


def test_resolution_start_index_range(koszul):
    diffs = [koszul.matrices[n] for n in koszul.resolution]
    with pytest.raises(InputError):
        propagate_resolution(diffs, 4, koszul.weightlists["W0"], TOP_UP)


def test_resolution_reports_non_minimal_dual_with_partial():
    # resolution of A/(x) + A: the dual of the only differential is not minimal
    ring = RingSpec(["x"], [[1]], [[1]])
    d1 = matrix(ring, [[0], [0]], [[1]], [["x"], ["x"]])
    with pytest.raises(ResolutionStepError) as info:
        propagate_resolution([d1], 1, [(1,)], TOP_UP)
    assert info.value.step == 0
    assert info.value.partial == (None, ((1,),))


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
    terms = standard_monomials(buchberger(matrix, order), degree, matrix.codomain)
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


def test_graded_component_plucker_samples(grassmannian):
    v = propagate_graded_components(
        (2,), grassmannian.matrices["d1"], grassmannian.weightlists["W0"], TOP_UP
    )
    assert len(v) == 50
    counts = Counter(v)
    assert counts[(2, 2, 0, 0, 0)] == 1
    assert counts[(2, 1, 1, 0, 0)] == 1
    assert counts[(1, 1, 1, 1, 0)] == 2
