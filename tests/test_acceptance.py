"""Acceptance suite: one test per criterion, each printing a pass/fail line,
and the Gr(2,5) component in degree 10 against its tableau oracle.

All comparisons are bit-exact (exact rational arithmetic throughout); run
with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json
from collections import Counter

import pytest

from torusweights import (
    HomogeneityError,
    MinimalityError,
    ModuleTermOrder,
    RingSpec,
    ScalarMatrix,
    buchberger,
    is_minimal_map,
    minimal_resolution,
    normal_form,
    propagate,
    propagate_forward,
    propagate_graded_components,
    propagate_resolution,
)
from torusweights.problemfile import problem_from_dict

from conftest import entries_as_text, fixture_path, matrix

TOP_UP = ModuleTermOrder("top-up")


def report(number, description):
    def hook(outcome):
        print("criterion %d: %s - %s" % (number, outcome, description))

    return hook


def run_criterion(number, description, body):
    hook = report(number, description)
    try:
        body()
    except BaseException:
        hook("FAIL")
        raise
    hook("PASS")


def test_criterion_1(koszul):
    def body():
        diffs = [koszul.matrices[n] for n in koszul.resolution]
        result = propagate_resolution(diffs, 0, koszul.weightlists["W0"], TOP_UP)
        assert result.per_module == (
            ((0, 0, 0),),
            ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
            ((0, 1, 1), (1, 0, 1), (1, 1, 0)),
            ((1, 1, 1),),
        )
        step1, step2, step3 = result.steps[1], result.steps[2], result.steps[3]
        assert entries_as_text(step1.result.sorted_matrix) == [["x3", "x2", "x1"]]
        assert step1.result.change_of_basis == ScalarMatrix([[-1, -1, 1], [0, 1, 0], [1, 0, 0]])
        assert entries_as_text(step2.result.sorted_matrix) == [
            ["x2", "x1", "0"],
            ["-x3", "0", "x1"],
            ["0", "-x3", "-x2"],
        ]
        assert step2.result.change_of_basis == ScalarMatrix([[1, 0, 1], [-1, 1, 0], [1, 0, 0]])
        assert entries_as_text(step3.matrix) == [["x1"], ["-x2"], ["x3"]]

    run_criterion(1, "Koszul fixture: all weight lists and intermediate matrices exact", body)


def test_criterion_2(two_variables, three_squares, bigraded):
    def body():
        r1 = propagate(two_variables.matrices["m"], two_variables.weightlists["W"], TOP_UP)
        assert r1.change_of_basis == ScalarMatrix([[0, 1], [1, 0]])
        assert r1.weights == ((0, 1), (1, 0))

        r2 = propagate(three_squares.matrices["m"], three_squares.weightlists["W"], TOP_UP)
        assert r2.change_of_basis == ScalarMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        assert r2.weights == ((0, 2), (1, 1), (2, 0))

        r3 = propagate(bigraded.matrices["m"], bigraded.weightlists["W"], TOP_UP)
        assert r3.change_of_basis == ScalarMatrix(
            [
                [0, 1, 0, 0, 0],
                [1, 0, 0, 0, 0],
                [0, 0, 0, 0, 1],
                [0, 0, 0, 1, 0],
                [0, 0, 1, 0, 0],
            ]
        )
        assert r3.weights == (
            (0, 1, 0, 0),
            (1, 0, 0, 0),
            (0, 0, 0, 2),
            (0, 0, 1, 1),
            (0, 0, 2, 0),
        )

    run_criterion(2, "single presentations return the published C and V exactly", body)


def reference_first_syzygies(ring):
    return matrix(
        ring,
        [(1, 0), (1, 0), (0, 2), (0, 2), (0, 2)],
        [(2, 0), (1, 2), (1, 2), (1, 2), (1, 2), (0, 3), (1, 2), (1, 2), (0, 3)],
        [
            ["-x2", "-y1^2", "0", "-y1*y2", "0", "0", "-y2^2", "0", "0"],
            ["x1", "0", "-y1^2", "0", "-y1*y2", "0", "0", "-y2^2", "0"],
            ["0", "x1", "x2", "0", "0", "-y2", "0", "0", "0"],
            ["0", "0", "0", "x1", "x2", "y1", "0", "0", "-y2"],
            ["0", "0", "0", "0", "0", "0", "x1", "x2", "y1"],
        ],
    )


def images_agree(a, b, order):
    basis_a = buchberger(a, order)
    basis_b = buchberger(b, order)
    return all(
        normal_form(col, list(basis_b.elements), order).remainder.is_zero for col in a.columns()
    ) and all(
        normal_form(col, list(basis_a.elements), order).remainder.is_zero for col in b.columns()
    )


def test_criterion_3(bigraded):
    def body():
        presentation = bigraded.matrices["m"]
        resolution = minimal_resolution(presentation, TOP_UP)
        assert resolution.ranks == [1, 5, 9, 7, 2]
        multisets = [Counter(d.domain.basis_degrees) for d in resolution.differentials]
        assert multisets[0] == Counter({(1, 0): 2, (0, 2): 3})
        assert multisets[1] == Counter({(2, 0): 1, (1, 2): 6, (0, 3): 2})
        assert multisets[2] == Counter({(2, 2): 3, (1, 3): 4})
        assert multisets[3] == Counter({(2, 3): 2})
        # image equality with the published first-syzygy matrix
        assert images_agree(resolution.differentials[1], reference_first_syzygies(bigraded.ring), TOP_UP)

        result = propagate_resolution(
            resolution.differentials, 0, bigraded.weightlists["W"], TOP_UP
        )
        assert Counter(result.per_module[1]) == Counter(
            [(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 2), (0, 0, 1, 1), (0, 0, 2, 0)]
        )
        assert Counter(result.per_module[2]) == Counter(
            [
                (1, 1, 0, 0),
                (0, 1, 0, 2),
                (1, 0, 0, 2),
                (0, 1, 1, 1),
                (1, 0, 1, 1),
                (0, 1, 2, 0),
                (1, 0, 2, 0),
                (0, 0, 1, 2),
                (0, 0, 2, 1),
            ]
        )
        assert Counter(result.per_module[3]) == Counter(
            [
                (1, 1, 0, 2),
                (1, 1, 1, 1),
                (1, 1, 2, 0),
                (0, 1, 1, 2),
                (0, 1, 2, 1),
                (1, 0, 1, 2),
                (1, 0, 2, 1),
            ]
        )
        assert Counter(result.per_module[4]) == Counter([(1, 1, 1, 2), (1, 1, 2, 1)])

    run_criterion(3, "computed resolution has the published shape and weight multisets", body)


def test_criterion_4(grassmannian):
    def body():
        diffs = [grassmannian.matrices[n] for n in grassmannian.resolution]
        result = propagate_resolution(diffs, 3, grassmannian.weightlists["V3"], TOP_UP)
        assert result.per_module == (
            ((0, 0, 0, 0, 0),),
            (
                (0, 1, 1, 1, 1),
                (1, 0, 1, 1, 1),
                (1, 1, 0, 1, 1),
                (1, 1, 1, 0, 1),
                (1, 1, 1, 1, 0),
            ),
            (
                (1, 1, 1, 1, 2),
                (1, 1, 1, 2, 1),
                (1, 1, 2, 1, 1),
                (1, 2, 1, 1, 1),
                (2, 1, 1, 1, 1),
            ),
            ((2, 2, 2, 2, 2),),
        )
        g2 = entries_as_text(result.steps[2].result.sorted_matrix)
        assert g2 == [[
            "p_23*p_14-p_13*p_24+p_12*p_34",
            "p_23*p_15-p_13*p_25+p_12*p_35",
            "p_24*p_15-p_14*p_25+p_12*p_45",
            "p_34*p_15-p_14*p_35+p_13*p_45",
            "p_34*p_25-p_24*p_35+p_23*p_45",
        ]]
        g1 = entries_as_text(result.steps[1].result.sorted_matrix)
        assert g1 == [
            ["-p_15", "-p_25", "-p_35", "-p_45", "0"],
            ["p_14", "p_24", "p_34", "0", "-p_45"],
            ["-p_13", "-p_23", "0", "p_34", "p_35"],
            ["p_12", "0", "-p_23", "-p_24", "-p_25"],
            ["0", "p_12", "p_13", "p_14", "p_15"],
        ]
        g0 = entries_as_text(result.steps[0].result.sorted_matrix)
        assert g0 == [
            ["p_34*p_25-p_24*p_35+p_23*p_45"],
            ["-p_34*p_15+p_14*p_35-p_13*p_45"],
            ["p_24*p_15-p_14*p_25+p_12*p_45"],
            ["-p_23*p_15+p_13*p_25-p_12*p_35"],
            ["p_23*p_14-p_13*p_24+p_12*p_34"],
        ]

    run_criterion(4, "Grassmannian: forward propagation from the top matches exactly", body)


def ssyt_two_row_contents(d, letters=5):
    """The contents of the semistandard tableaux of shape (d, d) on letters 1..letters.

    A tableau is a run of d columns (a, b), a < b, in which both rows weakly
    increase; its content counts each letter's entries.
    """
    contents = []

    def extend(length, top, bottom, content):
        if length == d:
            contents.append(tuple(content))
            return
        for a in range(top, letters):
            for b in range(max(a + 1, bottom), letters + 1):
                content[a - 1] += 1
                content[b - 1] += 1
                extend(length + 1, a, b, content)
                content[a - 1] -= 1
                content[b - 1] -= 1

    extend(0, 1, 2, [0] * letters)
    return contents


def test_criterion_5(bigraded, grassmannian):
    def body():
        small = propagate_graded_components(
            (0, 1), bigraded.matrices["m"], bigraded.weightlists["W"], TOP_UP
        )
        assert small == ((0, 0, 0, 1), (0, 0, 1, 0))

        big = propagate_graded_components(
            (2,), grassmannian.matrices["d1"], grassmannian.weightlists["W0"], TOP_UP
        )
        assert len(big) == 50
        with open(fixture_path("plucker_degree2_weights.json"), "r", encoding="utf-8") as handle:
            frozen = [tuple(w) for w in json.load(handle)]
        assert Counter(big) == Counter(frozen)
        counts = Counter(big)
        assert counts[(2, 2, 0, 0, 0)] == 1
        assert counts[(2, 1, 1, 0, 0)] == 1
        assert counts[(1, 1, 1, 1, 0)] == 2
        # the multiset is that of the tableau contents of shape (2, 2) in 5 letters
        assert Counter(big) == Counter(ssyt_two_row_contents(2))

    run_criterion(5, "graded components: small bigraded case and the frozen 50-weight multiset", body)


def test_grassmannian_degree_ten_component_is_the_tableau_contents(grassmannian):
    # the degree-d part of the Pluecker coordinate ring of Gr(2, 5) has one
    # weight per semistandard tableau of shape (d, d) on 5 letters, its
    # content; their number is the Hilbert function
    d = 10
    weights = propagate_graded_components(
        (d,), grassmannian.matrices["d1"], grassmannian.weightlists["W0"], TOP_UP
    )
    assert len(weights) == (d + 1) * (d + 2) ** 2 * (d + 3) ** 2 * (d + 4) // 144 == 26026
    assert Counter(weights) == Counter(ssyt_two_row_contents(d))


def test_criterion_6():
    from test_properties import (
        test_gb_canonical_under_column_mixing,
        test_gb_matches_independent_implementation,
        test_gb_membership_soundness,
        test_hilbert_function_of_leading_term_module,
        test_propagation_exactness_and_invertibility,
        test_round_trip_on_koszul_first_differential,
        test_term_order_axioms,
        test_weight_additivity,
        test_weight_multiset_agrees_across_position_up_orders,
    )

    suites = [
        test_term_order_axioms,
        test_weight_additivity,
        test_gb_canonical_under_column_mixing,
        test_gb_matches_independent_implementation,
        test_gb_membership_soundness,
        test_hilbert_function_of_leading_term_module,
        test_propagation_exactness_and_invertibility,
        test_weight_multiset_agrees_across_position_up_orders,
        test_round_trip_on_koszul_first_differential,
    ]

    def body():
        for suite in suites:
            suite()

    run_criterion(6, "property suites pass on 120 randomized instances each", body)


def test_criterion_7():
    def body():
        ring = RingSpec(["x"], [[1]], [[1]])
        wide = matrix(ring, [[0]], [[1], [1]], [["x", "x"]])
        assert not is_minimal_map(wide)
        with pytest.raises(MinimalityError):
            propagate(wide, [(0,)], TOP_UP)

        tall = matrix(ring, [[0], [0]], [[1]], [["x"], ["x"]])
        with pytest.raises(MinimalityError) as info:
            propagate_forward(tall, [(1,)], TOP_UP)
        assert "dual" in str(info.value)

        with pytest.raises(HomogeneityError):
            matrix(ring, [[0]], [[2]], [["x"]])
        with pytest.raises(HomogeneityError):
            problem_from_dict(
                {
                    "ring": {"vars": ["x"], "degrees": [[1]], "weights": [[1]]},
                    "modules": {"F0": {"degrees": [[0]]}, "E": {"degrees": [[2]]}},
                    "matrices": {"m": {"rows": "F0", "cols": "E", "entries": [["x"]]}},
                }
            )

    run_criterion(7, "negative cases: non-minimal maps and inhomogeneous input rejected", body)
