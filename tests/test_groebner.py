from collections import Counter
from fractions import Fraction

import pytest

from torusweights import (
    DependentColumnsError,
    FreeModuleSpec,
    HomogeneityError,
    InputError,
    MinimalityError,
    ModuleTerm,
    ModuleTermOrder,
    PolyMatrix,
    RingSpec,
    ScalarMatrix,
    SingularMatrixError,
    buchberger,
    change_of_basis,
    enumerate_terms,
    is_minimal_map,
    minimal_resolution,
    normal_form,
    sort_gb_columns,
    standard_monomials,
    syzygies,
)
from torusweights.linalg import invert, solve
from torusweights.parsing import parse_polynomial, polynomial_to_string

TOP_UP = ModuleTermOrder("top-up")


def matrix(ring, cod_degs, dom_degs, rows):
    cod = FreeModuleSpec(ring, cod_degs)
    dom = FreeModuleSpec(ring, dom_degs)
    return PolyMatrix(cod, dom, [[parse_polynomial(ring, t) for t in row] for row in rows])


def row_matrix(ring, degs, texts):
    return matrix(ring, [[0] * ring.degree_length], [list(d) for d in degs], [texts])


def entries_as_text(m):
    ring = m.domain.ring
    return [[polynomial_to_string(ring, p) for p in row] for row in m.entries]


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


# ---------- buchberger ----------


def test_gb_of_linear_forms(std3, koszul):
    basis = buchberger(koszul.matrices["d1"], TOP_UP)
    ring = koszul.ring
    texts = [polynomial_to_string(ring, g.entries[0]) for g in basis.elements]
    assert texts == ["x3", "x2", "x1"]
    g = sort_gb_columns(basis, "up")
    assert entries_as_text(g) == [["x3", "x2", "x1"]]


def test_gb_single_column_is_itself(koszul):
    ring = koszul.ring
    m = matrix(ring, [[2]] * 3, [[3]], [["x1"], ["-x2"], ["x3"]])
    basis = buchberger(m, TOP_UP)
    assert len(basis.elements) == 1
    assert entries_as_text(sort_gb_columns(basis, "up")) == [["x1"], ["-x2"], ["x3"]]


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
    g = sort_gb_columns(basis, "up")
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


def test_gb_rejects_inhomogeneous_generator(std3):
    module = FreeModuleSpec(std3, [[0]])
    # bypass matrix validation by calling with a handmade inhomogeneous column
    bad = module.basis_element(0, parse_polynomial(std3, "x1+1"))
    from torusweights.groebner import _buchberger_tracked

    with pytest.raises(HomogeneityError):
        _buchberger_tracked([bad], module, TOP_UP, None)


# ---------- change of basis ----------


def test_change_of_basis_exa1(two_variables):
    m = two_variables.matrices["m"]
    basis = buchberger(m, TOP_UP, bound=(1,))
    g = sort_gb_columns(basis, "up")
    c = change_of_basis(m, g)
    assert c == ScalarMatrix([[0, 1], [1, 0]])


def test_change_of_basis_identity(two_variables):
    m = two_variables.matrices["m"]
    assert change_of_basis(m, m) == ScalarMatrix.identity(2)


def test_change_of_basis_koszul_first_map(koszul):
    m = koszul.matrices["d1"]
    g = sort_gb_columns(buchberger(m, TOP_UP, bound=(1,)), "up")
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


def test_standard_monomials_small_bigraded(bigraded):
    basis = buchberger(bigraded.matrices["m"], TOP_UP)
    module = bigraded.matrices["m"].codomain
    terms = standard_monomials(basis, (0, 1), module)
    assert terms == [ModuleTerm((0, 0, 1, 0), 0), ModuleTerm((0, 0, 0, 1), 0)]
    assert standard_monomials(basis, (2, 0), module) == []


def test_standard_monomials_gr2_count(grassmannian):
    basis = buchberger(grassmannian.matrices["d1"], TOP_UP)
    module = grassmannian.matrices["d1"].codomain
    terms = standard_monomials(basis, (2,), module)
    assert len(terms) == 50


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


def test_syzygies_of_exa3_presentation(bigraded):
    m = bigraded.matrices["m"]
    s = syzygies(m, TOP_UP)
    assert (m @ s).is_zero
    assert Counter(s.domain.basis_degrees) == Counter(
        {(2, 0): 1, (1, 2): 6, (0, 3): 2}
    )


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
