from fractions import Fraction

import pytest

from torusweights import (
    FreeModuleSpec,
    HomogeneityError,
    InputError,
    ModuleElement,
    ModuleTerm,
    ModuleTermOrder,
    PolyMatrix,
    RingSpec,
    ScalarMatrix,
    dual_map,
    permute_columns,
    split_by_column_degree,
)
from torusweights.parsing import parse_polynomial

from conftest import matrix


def ring_xy():
    return RingSpec(["x", "y"], [[1], [1]], [[1, 0], [0, 1]])


def elem(module, texts):
    ring = module.ring
    return ModuleElement(module, [parse_polynomial(ring, t) for t in texts])


def test_basis_degrees_must_be_integer_vectors_of_the_ring_length():
    ring = ring_xy()
    for bad in ([[1.7]], [[1, 2]], [1]):
        with pytest.raises(InputError):
            FreeModuleSpec(ring, bad)


def test_four_orderings_leading_terms():
    # f = y f1 + x f2 + x f3 + y f4 picks a different leading term per ordering
    ring = ring_xy()
    module = FreeModuleSpec(ring, [[1]] * 4)
    f = elem(module, ["y", "x", "x", "y"])
    expected = {
        "top-up": ModuleTerm((1, 0), 2),
        "pot-up": ModuleTerm((0, 1), 3),
        "top-down": ModuleTerm((1, 0), 1),
        "pot-down": ModuleTerm((0, 1), 0),
    }
    for kind, term in expected.items():
        lt, coeff = f.leading_term(ModuleTermOrder(kind))
        assert lt == term
        assert coeff == 1


def test_order_restrictions():
    # fixed index: agrees with the monomial order; fixed monomial: index order or its reverse
    ring = ring_xy()
    monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    for kind in ModuleTermOrder.KINDS:
        order = ModuleTermOrder(kind)
        for a in monos:
            for b in monos:
                got = order.compare(ring, ModuleTerm(a, 1), ModuleTerm(b, 1))
                assert got == ring.compare_monomials(a, b)
        up = kind.endswith("up")
        got = order.compare(ring, ModuleTerm((1, 0), 0), ModuleTerm((1, 0), 2))
        assert got == (-1 if up else 1)


def test_flipped():
    assert ModuleTermOrder("top-up").flipped() == ModuleTermOrder("top-down")
    assert ModuleTermOrder("pot-down").flipped() == ModuleTermOrder("pot-up")


def test_leading_term_of_matrix_column():
    # all columns lead with x1 in the third row under top-up
    ring = RingSpec(["x1", "x2", "x3"], [[1]] * 3, [[0]] * 3)
    m = matrix(ring, [[1]] * 3, [[2]] * 3, [
        ["-x2+x3", "-x2-x3", "-x3"],
        ["x1", "x1", "-x3"],
        ["-x1", "x1", "x1+x2"],
    ])
    order = ModuleTermOrder("top-up")
    for j in range(3):
        lt, _ = m.column(j).leading_term(order)
        assert lt == ModuleTerm((1, 0, 0), 2)


def test_leading_term_rebased_koszul_column():
    # last column of the rebased middle Koszul map leads with -x1 in row 2
    ring = RingSpec(["x1", "x2", "x3"], [[1]] * 3, [[0]] * 3)
    module = FreeModuleSpec(ring, [[1]] * 3)
    col = elem(module, ["x1+x2", "-x1-x3", "x2-x3"])
    lt, coeff = col.leading_term(ModuleTermOrder("top-up"))
    assert lt == ModuleTerm((1, 0, 0), 1)
    assert coeff == -1


def test_single_term_is_its_own_leading_term():
    ring = ring_xy()
    module = FreeModuleSpec(ring, [[0], [0]])
    e = module.basis_element(0, parse_polynomial(ring, "y"))
    for kind in ModuleTermOrder.KINDS:
        lt, coeff = e.leading_term(ModuleTermOrder(kind))
        assert lt == ModuleTerm((0, 1), 0)
        assert coeff == 1


def test_zero_element_has_no_leading_term():
    ring = ring_xy()
    module = FreeModuleSpec(ring, [[0]])
    with pytest.raises(InputError):
        module.zero_element().leading_term(ModuleTermOrder())


def test_homogeneity_enforced():
    ring = ring_xy()
    with pytest.raises(HomogeneityError):
        matrix(ring, [[0]], [[1]], [["x+1"]])
    with pytest.raises(HomogeneityError):
        matrix(ring, [[0]], [[2]], [["x"]])
    # zero entries are exempt
    matrix(ring, [[0]], [[5]], [["0"]])


def test_matmul_and_identity():
    ring = RingSpec(["x1", "x2", "x3"], [[1]] * 3, [[0]] * 3)
    d2 = matrix(ring, [[1]] * 3, [[2]] * 3, [
        ["-x1-x2", "-x1-x3", "0"],
        ["x1", "0", "-x1-x3"],
        ["0", "x1", "x1+x2"],
    ])
    c1_inv = ScalarMatrix([[0, 0, 1], [0, 1, 0], [1, 1, 1]])
    rebased = c1_inv.to_poly_matrix(d2.codomain, d2.codomain) @ d2
    expected = matrix(ring, [[1]] * 3, [[2]] * 3, [
        ["0", "x1", "x1+x2"],
        ["x1", "0", "-x1-x3"],
        ["-x2", "-x3", "x2-x3"],
    ])
    assert rebased == expected
    ident = ScalarMatrix.identity(3).to_poly_matrix(d2.codomain, d2.codomain)
    assert ident @ d2 == d2


def test_matrix_shape_mismatch_is_input_error():
    ring = ring_xy()
    cod = FreeModuleSpec(ring, [[0], [0]])
    dom = FreeModuleSpec(ring, [[1]])
    with pytest.raises(InputError):
        PolyMatrix(cod, dom, [[parse_polynomial(ring, "x")]])
    with pytest.raises(InputError):
        PolyMatrix(cod, dom, [[parse_polynomial(ring, "x")], []])


def test_matmul_shape_mismatch():
    ring = ring_xy()
    a = matrix(ring, [[0]], [[1]], [["x"]])
    b = matrix(ring, [[0]], [[1]], [["y"]])
    with pytest.raises(InputError):
        a @ b


def test_scalar_inverse():
    c1 = ScalarMatrix([[-1, -1, 1], [0, 1, 0], [1, 0, 0]])
    assert c1.inverse() == ScalarMatrix([[0, 0, 1], [0, 1, 0], [1, 1, 1]])
    ident = ScalarMatrix.identity(4)
    assert ident.inverse() == ident
    anti = ScalarMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert anti @ anti == ScalarMatrix.identity(3)
    assert anti.inverse() == anti


def test_scalar_inverse_singular():
    from torusweights import SingularMatrixError

    with pytest.raises(SingularMatrixError):
        ScalarMatrix([[1, 2], [2, 4]]).inverse()


def test_dual_map():
    ring = RingSpec(["x"], [[1]], [[1]])
    m = matrix(ring, [[0], [0]], [[1]], [["x"], ["x"]])
    d = dual_map(m)
    assert d.codomain.basis_degrees == ((-1,),)
    assert d.domain.basis_degrees == ((0,), (0,))
    assert d.entries[0][0] == m.entries[0][0]
    assert dual_map(d) == m


def test_library_built_matrices_pass_the_homogeneity_check(bigraded):
    # dual maps, products, sorted Groebner bases, syzygies and the rebased
    # maps and sorted matrices of a propagated resolution skip the
    # constructor's check; the public constructor accepts each of them
    from torusweights import buchberger, minimal_resolution, propagate_resolution, sort_gb_columns, syzygies

    m = bigraded.matrices["m"]
    order = ModuleTermOrder("top-up")
    resolution = minimal_resolution(m, order)
    built = [dual_map(m), sort_gb_columns(buchberger(m, order)), syzygies(m, order)]
    built += [a @ b for a, b in zip(resolution.differentials, resolution.differentials[1:])]
    for start in (0, resolution.length):
        weights = [(0, 0, 0, 0)] * resolution.modules[start].rank
        for step in propagate_resolution(resolution.differentials, start, weights, order).steps.values():
            built += [step.matrix, step.result.sorted_matrix]
    for m_built in built:
        assert PolyMatrix(m_built.codomain, m_built.domain, m_built.entries) == m_built
    # the public constructor still checks: the transpose between the undualized modules is not homogeneous
    with pytest.raises(HomogeneityError):
        PolyMatrix(m.domain, m.codomain, dual_map(m).entries)


def test_dual_involution_on_presentation(bigraded):
    m = bigraded.matrices["m"]
    assert dual_map(dual_map(m)) == m


def test_dual_of_empty():
    ring = ring_xy()
    zero = PolyMatrix(FreeModuleSpec(ring, []), FreeModuleSpec(ring, []), [])
    assert dual_map(zero).num_rows == 0


def test_split_by_column_degree(bigraded):
    m = bigraded.matrices["m"]
    perm, blocks, degrees = split_by_column_degree(m)
    assert degrees == [(1, 0), (0, 2)]
    assert [b.num_cols for b in blocks] == [2, 3]
    assert perm == list(range(5))
    ring = m.domain.ring
    assert blocks[0].entries[0] == (m.entries[0][0], m.entries[0][1])


def test_split_reorders_and_permutation_recovers():
    ring = RingSpec(["x", "y"], [[1, 0], [0, 1]], [[0], [0]])
    m = matrix(ring, [[0, 0]], [[1, 0], [0, 1], [1, 0]], [["x", "y", "2*x"]])
    perm, blocks, degrees = split_by_column_degree(m)
    assert degrees == [(1, 0), (0, 1)]
    assert [b.num_cols for b in blocks] == [2, 1]
    assert perm == [0, 2, 1]
    # reassembled blocks equal the columns of M in the order perm
    reassembled = [col for b in blocks for col in b.columns()]
    permuted = permute_columns(m, perm)
    assert permuted.columns() == reassembled
    assert permuted.domain == FreeModuleSpec(ring, [(1, 0), (1, 0), (0, 1)])
    # applying the inverse permutation recovers the original matrix
    inverse = [perm.index(j) for j in range(len(perm))]
    assert permute_columns(permuted, inverse) == m


def test_block_split_single_degree_single_block(two_variables):
    m = two_variables.matrices["m"]
    perm, blocks, degrees = split_by_column_degree(m)
    assert len(blocks) == 1 and blocks[0] == m
    assert perm == [0, 1]


def test_exa4_split_blocks(bigraded):
    # nine columns regroup as blocks of widths 1, 6, 2
    ring = bigraded.ring
    cod = FreeModuleSpec(ring, [(1, 0), (1, 0), (0, 2), (0, 2), (0, 2)])
    dom = FreeModuleSpec(
        ring,
        [(2, 0), (1, 2), (1, 2), (1, 2), (1, 2), (0, 3), (1, 2), (1, 2), (0, 3)],
    )
    rows = [
        ["x1", "0", "-y1^2", "0", "-y1*y2", "0", "0", "-y2^2", "0"],
        ["-x2", "-y1^2", "0", "-y1*y2", "0", "0", "-y2^2", "0", "0"],
        ["0", "0", "0", "0", "0", "0", "x1", "x2", "y1"],
        ["0", "0", "0", "x1", "x2", "y1", "0", "0", "-y2"],
        ["0", "x1", "x2", "0", "0", "-y2", "0", "0", "0"],
    ]
    m = PolyMatrix(cod, dom, [[parse_polynomial(ring, t) for t in row] for row in rows])
    perm, blocks, degrees = split_by_column_degree(m)
    assert degrees == [(2, 0), (1, 2), (0, 3)]
    assert [b.num_cols for b in blocks] == [1, 6, 2]
    assert perm == [0, 1, 2, 3, 4, 6, 7, 5, 8]
    assert [col for b in blocks for col in b.columns()] == permute_columns(m, perm).columns()


def test_permute_columns():
    ring = ring_xy()
    m = matrix(ring, [[0]], [[1], [2]], [["x", "x*y"]])
    swapped = permute_columns(m, [1, 0])
    assert swapped.domain.basis_degrees == ((2,), (1,))
    assert swapped.entries[0] == (m.entries[0][1], m.entries[0][0])


def test_scalar_to_poly_degree_guard():
    ring = ring_xy()
    a = FreeModuleSpec(ring, [[1]])
    b = FreeModuleSpec(ring, [[2]])
    with pytest.raises(HomogeneityError):
        ScalarMatrix([[1]]).to_poly_matrix(a, b)
    # zero entries are fine across degrees
    ScalarMatrix([[0]]).to_poly_matrix(a, b)
