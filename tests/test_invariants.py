"""Cross-cutting invariants: division identity, reducedness, Euler
characteristic bookkeeping, and determinism under concurrency."""

from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from torusweights import (
    FreeModuleSpec,
    ModuleTermOrder,
    PolyMatrix,
    RingSpec,
    buchberger,
    enumerate_terms,
    minimal_resolution,
    normal_form,
    propagate,
    propagate_graded_components,
    propagate_resolution,
    standard_monomials,
)
from torusweights.parsing import parse_polynomial
from torusweights.rings import vector_add, vector_sub

from reference import _term_divides

TOP_UP = ModuleTermOrder("top-up")


def test_division_identity_with_nonzero_remainder():
    ring = RingSpec(["x", "y"], [[1], [1]], [[1, 0], [0, 1]])
    module = FreeModuleSpec(ring, [[0]])
    divisors = [
        module.basis_element(0, parse_polynomial(ring, "x^2-y^2")),
        module.basis_element(0, parse_polynomial(ring, "x*y+y^2")),
    ]
    e = module.basis_element(0, parse_polynomial(ring, "x^3+x*y^2+y^3+x+y"))
    result = normal_form(e, divisors, TOP_UP)
    recombined = result.remainder
    for q, g in zip(result.quotients, divisors):
        recombined = recombined + g.multiply(q)
    assert recombined == e
    lts = [g.leading_term(TOP_UP)[0] for g in divisors]
    for term, _ in result.remainder.support():
        assert not any(_term_divides(lt, term) for lt in lts)


def test_reduced_basis_invariants(bigraded, grassmannian):
    for problem, name in [(bigraded, "m"), (grassmannian, "d1")]:
        basis = buchberger(problem.matrices[name], TOP_UP)
        lts = [g.leading_term(TOP_UP) for g in basis.elements]
        # monic with pairwise distinct leading terms
        assert all(coeff == 1 for _, coeff in lts)
        assert len({t for t, _ in lts}) == len(lts)
        # no term of any element is divisible by another element's leading term
        for i, g in enumerate(basis.elements):
            for term, _ in g.support():
                for j, (lt, _) in enumerate(lts):
                    if i != j:
                        assert not _term_divides(lt, term)


def resolution_character(result, start_module, d):
    """Signed weight multiset of the degree-d parts of the resolution's modules.

    Sums, with sign (-1)^i, the weights w(mono) + w(g) over the basis elements
    g of each F_i and the monomials of degree d - deg g; zero multiplicities
    are dropped.
    """
    ring = start_module.ring
    character = Counter()
    for i, weights in enumerate(result.per_module):
        step = result.steps.get(i)
        module = step.result.rebased_module if step else start_module
        for degree, w in zip(module.basis_degrees, weights):
            for mono in ring.monomials_of_degree(vector_sub(d, degree)):
                character[vector_add(ring.monomial_weight(mono), w)] += (-1) ** i
    return {weight: count for weight, count in character.items() if count}


def assert_euler_characteristic(diffs, start_index, start_weights, degrees, order=TOP_UP):
    # an equivariant resolution is exact in each degree as a sequence of torus
    # representations: the alternating sum of the modules' characters is the
    # character of the cokernel, read off its standard monomials
    result = propagate_resolution(diffs, start_index, start_weights, order)
    modules = [diffs[0].codomain] + [d.domain for d in diffs]
    for d in degrees:
        expected = Counter(propagate_graded_components(d, diffs[0], result.per_module[0], order))
        assert resolution_character(result, modules[start_index], d) == dict(expected)


def test_resolution_euler_characteristic(bigraded, grassmannian):
    # quotient dimensions equal the alternating sum of module dimensions
    resolution = minimal_resolution(bigraded.matrices["m"], TOP_UP)
    basis = buchberger(bigraded.matrices["m"], TOP_UP)
    degrees = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3)]
    for d in degrees:
        quotient_dim = len(standard_monomials(basis, d))
        euler = sum(
            (-1) ** i * len(enumerate_terms(module, d))
            for i, module in enumerate(resolution.modules)
        )
        assert quotient_dim == euler
    # and so do the weight multisets
    assert_euler_characteristic(resolution.differentials, 0, bigraded.weightlists["W"], degrees)
    diffs = [grassmannian.matrices[n] for n in grassmannian.resolution]
    for start_index, weights in ((0, grassmannian.weightlists["W0"]), (3, grassmannian.weightlists["V3"])):
        assert_euler_characteristic(diffs, start_index, weights, [(1,), (2,), (3,)])


@pytest.mark.parametrize("kind", ModuleTermOrder.KINDS)
def test_mixed_sign_resolution_euler_characteristic(mixed_sign, kind):
    # deg w = (2, -4) and deg y = (1, -2) have negative component sums, so
    # only a queue ordered by the positive functional resolves this in time
    order = ModuleTermOrder(kind)
    resolution = minimal_resolution(mixed_sign.matrices["m"], order)
    assert resolution.ranks == [1, 4, 7, 5, 1]
    degrees = sorted({d for module in resolution.modules for d in module.basis_degrees})
    assert_euler_characteristic(resolution.differentials, 0, mixed_sign.weightlists["W0"], degrees, order)


def test_concurrent_runs_are_bit_identical(bigraded, koszul):
    matrices = [bigraded.matrices["m"]] * 4 + [koszul.matrices["d1"]] * 4
    weight_lists = [bigraded.weightlists["W"]] * 4 + [koszul.weightlists["W0"]] * 4
    sequential = [
        propagate(m, w, TOP_UP) for m, w in zip(matrices, weight_lists)
    ]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(lambda mw: propagate(mw[0], mw[1], TOP_UP), zip(matrices, weight_lists)))
    for a, b in zip(sequential, concurrent):
        assert a.change_of_basis == b.change_of_basis
        assert a.weights == b.weights
        assert a.sorted_matrix == b.sorted_matrix


def test_enumeration_terminates_on_nonstandard_positive_grading():
    # first nonzero component positive, later entries negative: still finite
    ring = RingSpec(["u", "v"], [[1, -1], [0, 1]], [[1], [0]])
    assert ring.monomials_of_degree((0, 0)) == [(0, 0)]
    found = ring.monomials_of_degree((2, -1))
    assert found == [(2, 1)]
    assert ring.monomials_of_degree((0, 5)) == [(0, 5)]
