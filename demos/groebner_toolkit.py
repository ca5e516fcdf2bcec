"""Tour of the underlying exact computer-algebra layer.

Polynomials parse from plain text and print back canonically; free modules
carry four term orderings; reduced Groebner bases, normal forms, standard
monomials and minimality checks are all available directly.
"""

from torusweights import (
    FreeModuleSpec,
    ModuleTermOrder,
    PolyMatrix,
    RingSpec,
    buchberger,
    enumerate_terms,
    is_minimal_map,
    normal_form,
    parse_polynomial,
    polynomial_to_string,
    sort_gb_columns,
    standard_monomials,
)

print(__doc__)

ring = RingSpec(["x", "y"], [[1], [1]], [[1, 0], [0, 1]])
p = parse_polynomial(ring, "1/2*(x + y)^2 - 1/2*x^2")
print("parsed and reprinted:", polynomial_to_string(ring, p))

# the four orderings pick four different leading terms of one element
module = FreeModuleSpec(ring, [[1]] * 4)
element = module.zero_element()
for i, text in enumerate(["y", "x", "x", "y"]):
    element = element + module.basis_element(i, parse_polynomial(ring, text))
print("\nleading term of y*f1 + x*f2 + x*f3 + y*f4 under each ordering:")
for kind in ModuleTermOrder.KINDS:
    term, _ = element.leading_term(ModuleTermOrder(kind))
    mono = polynomial_to_string(ring, parse_polynomial(ring, "x") if term.monomial == (1, 0) else parse_polynomial(ring, "y"))
    print("  %-9s -> %s*f%d" % (kind, mono, term.index + 1))

# Groebner basis of an ideal, normal forms, and the staircase of a quotient
order = ModuleTermOrder("top-up")
F0 = FreeModuleSpec(ring, [[0]])
E = FreeModuleSpec(ring, [[2], [2]])
ideal = PolyMatrix(F0, E, [[parse_polynomial(ring, "x^2-y^2"), parse_polynomial(ring, "x*y")]])
basis = buchberger(ideal, order)
g = sort_gb_columns(basis)
print("\nreduced Groebner basis of (x^2 - y^2, x*y):")
print("  ", [polynomial_to_string(ring, e) for e in g.entries[0]])

probe = F0.basis_element(0, parse_polynomial(ring, "x^3"))
remainder = normal_form(probe, list(basis.elements), order).remainder
print("normal form of x^3:", polynomial_to_string(ring, remainder.entries[0]))

for d in range(0, 5):
    terms = standard_monomials(basis, (d,))
    total = len(enumerate_terms(F0, (d,)))
    print("degree %d: %d of %d monomials survive in the quotient" % (d, len(terms), total))

# minimality is checked, not repaired
redundant = PolyMatrix(
    F0,
    FreeModuleSpec(ring, [[1], [2]]),
    [[parse_polynomial(ring, "x"), parse_polynomial(ring, "x^2")]],
)
print("\n(x, x^2) minimally generates its image:", is_minimal_map(redundant))
