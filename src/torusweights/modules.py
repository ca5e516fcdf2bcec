"""Graded free modules, module terms and their orderings, and homogeneous matrices.

A free module is described by its ring and the multidegrees of its basis
elements.  A module term is a pair (monomial, basis index); the four module
term orderings extend the ring's term order by breaking (or dominating) ties
with the basis position.  A PolyMatrix is a homogeneous map between free
modules written with respect to their bases: a nonzero entry in row i, column
j must be homogeneous of degree domain[j] - codomain[i].
"""

from typing import NamedTuple

from .errors import HomogeneityError, InputError
from .linalg import invert
from .rings import Polynomial, _int_vector, exact, monomial_mul, vector_neg, vector_sub


class FreeModuleSpec:
    """A free module: ambient ring plus ordered basis multidegrees."""

    def __init__(self, ring, basis_degrees):
        self.ring = ring
        self.basis_degrees = tuple(
            _int_vector(d, "basis degree", ring.degree_length) for d in basis_degrees
        )

    @classmethod
    def _unchecked(cls, ring, basis_degrees):
        """The constructor without `_int_vector`, for degrees that are already tuples of ints of the ring's length."""
        out = cls.__new__(cls)
        out.ring, out.basis_degrees = ring, tuple(basis_degrees)
        return out

    @property
    def rank(self):
        return len(self.basis_degrees)

    def dual(self):
        """The dual module: same rank, negated basis degrees."""
        return FreeModuleSpec._unchecked(self.ring, map(vector_neg, self.basis_degrees))

    def zero_element(self):
        return ModuleElement(self, (Polynomial(),) * self.rank)

    def basis_element(self, index, poly=None):
        """poly * f_index as a ModuleElement (poly defaults to 1)."""
        entries = [Polynomial() for _ in range(self.rank)]
        entries[index] = poly if poly is not None else self.ring.one()
        return ModuleElement(self, entries)

    def __eq__(self, other):
        return (
            isinstance(other, FreeModuleSpec)
            and self.ring == other.ring
            and self.basis_degrees == other.basis_degrees
        )

    def __hash__(self):
        return hash((self.ring, self.basis_degrees))

    def __repr__(self):
        return "FreeModuleSpec(rank=%d, degrees=%r)" % (self.rank, list(self.basis_degrees))


class ModuleTerm(NamedTuple):
    monomial: tuple
    index: int


class ModuleTermOrder:
    """One of the four orderings on module terms.

    `top` compares the monomial first and breaks ties by position; `pot`
    compares the position first.  In the `up` variants a larger basis index
    wins, in the `down` variants a smaller one does.
    """

    KINDS = ("top-up", "pot-up", "top-down", "pot-down")

    def __init__(self, kind="top-up"):
        if kind not in self.KINDS:
            raise InputError("unknown module term order %r" % (kind,))
        self.kind = kind

    @property
    def is_position_up(self):
        return self.kind.endswith("-up")

    def flipped(self):
        """Swap up and down; used on dual modules."""
        base, direction = self.kind.split("-")
        return ModuleTermOrder("%s-%s" % (base, "down" if direction == "up" else "up"))

    def sort_key(self, ring):
        """Key function on ModuleTerm; bigger key means bigger term."""
        mono_key = ring.monomial_key
        if self.kind == "top-up":
            return lambda t: (mono_key(t.monomial), t.index)
        if self.kind == "top-down":
            return lambda t: (mono_key(t.monomial), -t.index)
        if self.kind == "pot-up":
            return lambda t: (t.index, mono_key(t.monomial))
        return lambda t: (-t.index, mono_key(t.monomial))

    def compare(self, ring, a, b):
        key = self.sort_key(ring)
        ka, kb = key(a), key(b)
        return (ka > kb) - (ka < kb)

    def __eq__(self, other):
        return isinstance(other, ModuleTermOrder) and self.kind == other.kind

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return "ModuleTermOrder(%r)" % self.kind


class ModuleElement:
    """Element of a free module: one Polynomial per basis position.

    Immutable by convention, like its entries.
    """

    __slots__ = ("module", "entries")

    def __init__(self, module, entries):
        entries = tuple(entries)
        if len(entries) != module.rank:
            raise InputError("element has %d entries, module has rank %d" % (len(entries), module.rank))
        self.module = module
        self.entries = entries

    @property
    def is_zero(self):
        return all(p.is_zero for p in self.entries)

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        return (
            isinstance(other, ModuleElement)
            and self.module == other.module
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.module, self.entries))

    def __neg__(self):
        return ModuleElement(self.module, tuple(-p for p in self.entries))

    def __add__(self, other):
        return ModuleElement(self.module, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other):
        return ModuleElement(self.module, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def scale(self, scalar):
        return ModuleElement(self.module, tuple(p.scale(scalar) for p in self.entries))

    def multiply(self, poly):
        return ModuleElement(self.module, tuple(poly * p for p in self.entries))

    def multiply_term(self, mono, coeff):
        return ModuleElement(self.module, tuple(p.multiply_term(mono, coeff) for p in self.entries))

    def support(self):
        """All (ModuleTerm, coefficient) pairs with nonzero coefficient."""
        for i, poly in enumerate(self.entries):
            for mono, coeff in poly.terms.items():
                yield ModuleTerm(mono, i), coeff

    def leading_term(self, order):
        """Largest support term under the module term order, with coefficient."""
        if self.is_zero:
            raise InputError("the zero element has no leading term")
        best = max((t for t, _ in self.support()), key=order.sort_key(self.module.ring))
        return best, self.entries[best.index].terms[best.monomial]

    def term_degree(self, term):
        """Multidegree of the module term t*f_i inside this module."""
        ring = self.module.ring
        return tuple(
            a + b
            for a, b in zip(ring.monomial_degree(term.monomial), self.module.basis_degrees[term.index])
        )

    def homogeneous_degree(self):
        """Common multidegree of the support, or None if inhomogeneous."""
        if self.is_zero:
            raise InputError("the zero element has no degree")
        degrees = {self.term_degree(t) for t, _ in self.support()}
        if len(degrees) > 1:
            return None
        return degrees.pop()

    def __repr__(self):
        return "ModuleElement(%r)" % (list(self.entries),)


class ScalarMatrix:
    """Dense matrix of exact rationals (change-of-basis bookkeeping).

    Entries follow the Polynomial coefficient rule: an int when integral, a
    Fraction otherwise.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(exact(x) for x in row) for row in rows)
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise InputError("ragged scalar matrix")

    @classmethod
    def _unchecked(cls, rows):
        """The constructor without `exact` and the width check, for exact rows of one length."""
        out = cls.__new__(cls)
        out.rows = tuple(map(tuple, rows))
        return out

    @classmethod
    def identity(cls, n):
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def block_diagonal(cls, blocks):
        total = sum(b.num_rows for b in blocks)
        rows = [[0] * total for _ in range(total)]
        offset = 0
        for b in blocks:
            if b.num_rows != b.num_cols:
                raise InputError("block-diagonal assembly needs square blocks")
            for i in range(b.num_rows):
                for j in range(b.num_cols):
                    rows[offset + i][offset + j] = b.rows[i][j]
            offset += b.num_rows
        return cls(rows)

    @property
    def num_rows(self):
        return len(self.rows)

    @property
    def num_cols(self):
        return len(self.rows[0]) if self.rows else 0

    def __eq__(self, other):
        return isinstance(other, ScalarMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __matmul__(self, other):
        if self.num_cols != other.num_rows:
            raise InputError("scalar matrix shapes do not compose")
        return ScalarMatrix(
            [
                [
                    sum(self.rows[i][k] * other.rows[k][j] for k in range(self.num_cols))
                    for j in range(other.num_cols)
                ]
                for i in range(self.num_rows)
            ]
        )

    def transpose(self):
        return ScalarMatrix._unchecked(zip(*self.rows))

    def inverse(self):
        return ScalarMatrix(invert([list(r) for r in self.rows]))

    def to_poly_matrix(self, codomain, domain):
        """Reinterpret as a PolyMatrix of constants between the given modules."""
        if self.num_rows != codomain.rank or self.num_cols != domain.rank:
            raise InputError("scalar matrix shape does not match the module ranks")
        unit = codomain.ring.one()
        entries = [
            [unit.scale(self.rows[i][j]) for j in range(self.num_cols)]
            for i in range(self.num_rows)
        ]
        return PolyMatrix(codomain, domain, entries)

    def __repr__(self):
        return "ScalarMatrix(%r)" % ([[str(x) for x in row] for row in self.rows],)


class PolyMatrix:
    """Homogeneous matrix of a map between graded free modules.

    Rows are indexed by the codomain basis, columns by the domain basis.
    Construction verifies that every nonzero entry is a homogeneous
    polynomial of degree domain[j] - codomain[i].  Matrices the library
    builds from homogeneous ones (products, transposes, rebased maps,
    Groebner and syzygy columns) skip that check through `_unchecked`.
    """

    __slots__ = ("codomain", "domain", "entries")

    def __init__(self, codomain, domain, entries):
        if codomain.ring != domain.ring:
            raise InputError("matrix domain and codomain live over different rings")
        if len(entries) != codomain.rank or any(len(r) != domain.rank for r in entries):
            raise InputError(
                "matrix shape %dx%d does not match module ranks %dx%d"
                % (len(entries), len(entries[0]) if entries else 0, codomain.rank, domain.rank)
            )
        rows = tuple(tuple(entries[i][j] for j in range(domain.rank)) for i in range(codomain.rank))
        ring = codomain.ring
        degrees = {}  # id of an entry -> its degree; loaded matrices share equal entries
        for i in range(codomain.rank):
            for j in range(domain.rank):
                p = rows[i][j]
                if p.is_zero:
                    continue
                expected = vector_sub(domain.basis_degrees[j], codomain.basis_degrees[i])
                key = id(p)
                actual = degrees[key] if key in degrees else degrees.setdefault(key, ring.poly_degree(p))
                if actual != expected:
                    raise HomogeneityError(
                        "entry (%d, %d) is not homogeneous of degree %r" % (i, j, expected)
                    )
        self.codomain = codomain
        self.domain = domain
        self.entries = rows

    @classmethod
    def _unchecked(cls, codomain, domain, entries):
        """The constructor without its checks, for entries known to fit the modules.

        The caller guarantees the shape and that every nonzero entry (i, j)
        is homogeneous of degree domain[j] - codomain[i].
        """
        out = cls.__new__(cls)
        out.codomain = codomain
        out.domain = domain
        out.entries = tuple(tuple(row) for row in entries)
        return out

    @classmethod
    def from_columns(cls, codomain, domain, columns):
        return cls(codomain, domain, _column_rows(columns, codomain.rank))

    @property
    def num_rows(self):
        return self.codomain.rank

    @property
    def num_cols(self):
        return self.domain.rank

    @property
    def is_zero(self):
        return all(p.is_zero for row in self.entries for p in row)

    def column(self, j):
        return ModuleElement(self.codomain, tuple(self.entries[i][j] for i in range(self.num_rows)))

    def columns(self):
        return [self.column(j) for j in range(self.num_cols)]

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.codomain == other.codomain
            and self.domain == other.domain
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.codomain, self.domain, self.entries))

    def __matmul__(self, other):
        """Composition: self is E -> F, other is D -> E, result is D -> F."""
        if isinstance(other, ScalarMatrix):
            raise InputError("convert the scalar matrix with to_poly_matrix first")
        if self.domain.basis_degrees != other.codomain.basis_degrees or self.domain.ring != other.codomain.ring:
            raise InputError("matrix shapes do not compose")
        columns = list(zip(*other.entries))
        entries = [[_dot(row, col) for col in columns] for row in self.entries]
        return PolyMatrix._unchecked(self.codomain, other.domain, entries)

    def __repr__(self):
        return "PolyMatrix(%dx%d)" % (self.num_rows, self.num_cols)


def _column_rows(columns, rank):
    """The rows of the matrix whose columns are the given rank-`rank` elements."""
    return [[col.entries[i] for col in columns] for i in range(rank)]


def _dot(row, col):
    """sum(a * b for a, b in zip(row, col)), skipping zero factors, in one term dict."""
    terms = {}
    for a, b in zip(row, col):
        if a.terms and b.terms:
            for m1, c1 in a.terms.items():
                for m2, c2 in b.terms.items():
                    mono = monomial_mul(m1, m2)
                    s = terms.get(mono, 0) + c1 * c2
                    if s:
                        terms[mono] = s
                    else:
                        del terms[mono]
    return Polynomial._from_exact(terms)


def dual_map(matrix):
    """Transpose of a homogeneous matrix, between the dual modules.

    The dual domain is the original codomain with negated basis degrees, and
    vice versa; homogeneity carries over to the result.
    """
    new_codomain = matrix.domain.dual()
    new_domain = matrix.codomain.dual()
    entries = [
        [matrix.entries[i][j] for i in range(matrix.num_rows)] for j in range(matrix.num_cols)
    ]
    return PolyMatrix._unchecked(new_codomain, new_domain, entries)


def split_by_column_degree(matrix):
    """Group columns into blocks of equal degree.

    Returns (perm, blocks, degrees): degree classes are ordered by first
    occurrence and stable within each class, perm lists the original column
    indices in block order, so that permute_columns(M, perm) equals
    (blocks[0] | blocks[1] | ...), and degrees[i] is the common column
    degree of blocks[i].
    """
    col_degrees = list(matrix.domain.basis_degrees)
    classes = []
    seen = {}
    for j, d in enumerate(col_degrees):
        if d not in seen:
            seen[d] = len(classes)
            classes.append((d, []))
        classes[seen[d]][1].append(j)

    perm = [j for _, js in classes for j in js]
    blocks = []
    for d, js in classes:
        block_domain = FreeModuleSpec(matrix.domain.ring, [d] * len(js))
        blocks.append(
            PolyMatrix.from_columns(matrix.codomain, block_domain, [matrix.column(j) for j in js])
        )
    return perm, blocks, [d for d, _ in classes]


def permute_columns(matrix, perm):
    """Matrix whose new column k is the old column perm[k]."""
    new_domain = FreeModuleSpec(matrix.domain.ring, [matrix.domain.basis_degrees[j] for j in perm])
    return PolyMatrix.from_columns(matrix.codomain, new_domain, [matrix.column(j) for j in perm])
