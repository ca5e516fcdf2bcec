"""Minimal free resolutions pruned from a Schreyer frame.

`groebner.minimal_resolution` and `groebner.syzygies` build the frame here
(`_frame`): one Buchberger run with unit tails (see `groebner._buchberger_run`)
decides whether the input is minimal and gives the reduced Groebner basis G
of the image, each degree back-substituted once the run has taken it, and
the relations of the S-pairs it took, rewritten over the reduced elements;
on generic linear forms G is the variables, and the frame from level 3 on
is their monomial Koszul complex.  Each further level costs one
division per S-pair, whose leading term Schreyer's theorem gives (La Scala
and Stillman, "Strategies for computing minimal free resolutions", JSC
1998; Erocal, Motsak, Schreyer and Steenpass, "Refined algorithms to
compute syzygies", JSC 2016).  The frame's terms are ints laid out by
`_FrameLayout`, so the division is `packed`'s, and it tries on each term
only the divisors whose leading terms lie on the term's chain, the only
ones that can divide it.  `_pruned` cancels the frame's units, visiting
for each cancelled row only the columns that hold a term there, and
returns the differentials of the minimal resolution packed by one codec
with the frame codec's fields, into which a frame term moves by one shift,
with the PolyMatrices of `_TermCodec.matrix`, unpacked when first read.
"""

import logging
from collections import defaultdict
from dataclasses import dataclass
from math import gcd, lcm

from .errors import InternalError
from .groebner import (
    _buchberger_run,
    _minimal_pairs,
    _nonzero_composite,
    _s_pair,
)
from .linalg import Echelon, _primitive
from .modules import FreeModuleSpec
from .packed import _TermCodec, _divisor, _pseudo_divide
from .rings import exact, exact_quotient, monomial_lcm, unit_monomial, vector_add

log = logging.getLogger(__name__)


class _FrameLayout:
    """Packed terms of the free modules F_1, F_2, ... of a Schreyer frame.

    A basis element e_p of F_k has a leading term m_p * e_q in F_{k-1}, q
    has one in F_{k-2}, and so on down to F_0; the chain of indices and the
    product of the monomials, times the F_0 basis element the chain ends at,
    stand for e_p.  A term m * e_p of F_k packs as the packed F_0 term (by
    `codec`) of m times that product, shifted left by `width` bits, OR the
    chain: one field per level, level 1 highest.  Comparing keys compares
    the F_0 terms first and then the chains from level 1 down, which is the
    order Schreyer's frame induces (La Scala and Stillman, JSC 1998), with
    ties between basis elements going to the larger index.  Multiplying a
    term by a monomial adds the packed monomial shifted by `width`, at every
    level.  Of two terms on one chain, one divides the other exactly when
    their F_0 terms do: one subtraction and one mask test on `divmask`,
    which leaves the chain test to the caller.  A layout serves
    `_pseudo_divide` as its codec, which tries on a term only the divisors
    on its chain (`bucketmask`, `buckets`), and `_minimal_pairs` compares
    leading terms of one chain.

    A layout with the fields `widths` holds chains of len(widths) levels, a
    term of F_k with k < len(widths) leaving the fields below level k zero.
    `appended` adds a field at the bottom; a key moves to it shifted left by
    the new field's width, `shift`.
    """

    __slots__ = ("codec", "widths", "width", "shift", "offsets", "divmask", "guards", "bits", "bucketmask")

    def __init__(self, codec, widths):
        self.codec, self.widths = codec, widths
        self.width = width = sum(widths)
        self.shift = widths[-1]
        self.offsets = [width - sum(widths[:k + 1]) for k in range(len(widths))]
        self.divmask = codec.divmask << width
        self.guards = codec.guards << width
        self.bits = codec.bits
        self.bucketmask = (1 << width) - 1

    def appended(self, count):
        """This layout with one more field, at the bottom, for indices below count."""
        return _FrameLayout(self.codec, self.widths + (max(count, 1).bit_length(),))

    def key(self, term, chain):
        """The key of the packed F_0 term times the chain's basis element, chain listed from level 1."""
        return term << self.width | sum(p << o for p, o in zip(chain, self.offsets))

    def lifted(self, unit, monomial):
        """The key of the packed monomial times the term whose key is unit."""
        return unit + (monomial << self.width)

    def field(self, level):
        """(offset, mask) of the field of level `level` (from 1): a key's index there is key >> offset & mask."""
        return self.offsets[level - 1], (1 << self.widths[level - 1]) - 1

    def chain(self, key):
        return key & self.bucketmask

    def buckets(self, divisors):
        """The `_pseudo_divide` divisors by the chain of their leading terms, in list order within a chain."""
        out = {}
        for divisor in divisors:
            out.setdefault(divisor[0] & self.bucketmask, []).append(divisor)
        return out

    def lcm(self, a, b):
        """The lcm of two keys with one chain."""
        return self.codec.lcm(a >> self.width, b >> self.width) << self.width | self.chain(a)

    def divides(self, a, b):
        """Whether key a divides key b, two keys on one chain."""
        return not (b - a) & self.divmask

    def exponents(self, key, unit):
        """The exponents of the monomial m with key = m * unit."""
        return self.codec.exponents((key - unit) >> self.width)


@dataclass
class _FrameLevel:
    """The elements of one level of a Schreyer frame.

    layout packs the level's keys (see `_FrameLayout`) and has a
    field for the level's own indices, at the bottom.  elements are the
    packed dicts of the elements, vectors over the level below (None at
    level 1, whose elements are those of G), leads the keys of their
    leading terms, with the level's own field zero, so that leads[p] | p is
    the key of the basis element e_p itself, and degrees their degrees.
    """

    layout: object
    elements: list
    leads: list
    degrees: list


@dataclass
class _Frame:
    """A Schreyer frame over a map, as `_frame` builds it and `_pruned` grows it.

    levels[k - 1] is level k.  codec packs the F_0 terms of every level and
    the input's columns (columns), and holds the total degree of every
    frame term.  born[t] is the input column that joined the
    Groebner basis G as its element t, None if an S-pair added t.  joins
    lists (t, tail, M, content) for each column-born t, in the run's order,
    packed by level 2's layout, each saying content * g_t = M * c + tail . G
    for t's column c: first its join, tail and content from the relation
    that its division left, then, if its degree's back-substitution changed
    it, that record, with M = 0 and e_t in tail standing for g_t as it was
    joined.  creators[t] is, for an S-pair-born t, the level-2 element of
    the S-pair that added it.  redundant lists the (relation, degree) of
    each column that the run reduced to zero, in index order, packed by
    level 2's layout; level 1 gives each a row after G's, with lead 0.
    minimal says whether the columns minimally generate the image.
    """

    codec: object
    columns: list
    levels: list
    born: list
    joins: dict
    creators: dict
    redundant: list
    minimal: bool = True


def _frame(codec, columns, matrix):
    """Levels 1 and 2 of the Schreyer frame (a `_Frame`) over matrix, whose columns codec packed.

    Level 1 is the Groebner basis G of the image that one Buchberger run
    with unit tails builds (see `_buchberger_run`), level 2 the relations
    of its S-pairs, by Schreyer's theorem a Groebner basis of G's syzygies
    under the order of its keys (see `_FrameLayout`).  The run takes each
    column before its degree's S-pairs, and a column c_j that reduces to
    zero gives M * c_j = v_j . G, so the relation M * e_j - v_j, e_j the
    column's own row of level 1.  The run's records of each degree are over
    that degree's elements as they were before its back-substitution: each
    S-pair's relation and each such column's is rewritten over the reduced
    elements (a relation times a positive integer, e_i = (content * e'_i +
    M * e_i - tail) / M), and the columns' joins are left to
    `_input_coordinates` with the back-substitutions.

    The columns minimally generate the image (graded Nakayama) exactly when
    none reduces to zero and, in each degree d, the constant parts of the
    S-pairs' relations have rank the number of elements that S-pairs added:
    G's degree-d elements less that rank is the number of minimal
    generators of degree d (La Scala and Stillman, JSC 1998), and the
    relation of each S-pair that added an element has a constant there and
    none at later elements.  One `linalg.Echelon` over every degree, keyed
    S-pair-born elements first, shows a larger rank as a row led by a
    column-born element.

    The run fits its fields to the items it takes.  A frame term has the
    degree of its element's leading term, whose F_0 monomial divides the
    lcm of G's leading monomials at its index; the codec is widened, once,
    to hold the largest such degree before level 2 is packed.  Over a
    rank-zero codomain G is empty and every column is redundant.
    """
    module = matrix.codomain
    ring = module.ring
    degrees = matrix.domain.basis_degrees
    codec, packed, basis, records, _ = _buchberger_run(codec, columns, degrees, module, None, True)
    redundant = sorted(payload for _, _, payload, _, t in records if type(payload) is int and t is None)
    lcms = {}
    for work, _ in basis:
        mono, index = codec.unpack(max(work))
        lcms[index] = monomial_lcm(lcms.get(index, mono), mono)
    functional = ring._functional
    base = min(map(functional, module.basis_degrees), default=0)
    tops = [functional(vector_add(ring.monomial_degree(m), module.basis_degrees[i])) for i, m in lcms.items()]
    bound = (max(tops, default=base) - base) // min(map(functional, ring.var_degrees))
    if bound > codec.capacity:
        old, codec = codec, codec.widened(bound)
        log.debug("frame: widened exponent fields to %d bits", codec.bits)
        packed = [codec.repacked(old, c) for c in packed]
        basis = [(codec.repacked(old, w), codec.repacked(old, t)) for w, t in basis]
        records = [(codec.repacked(old, r), *rest) for r, *rest in records]
    g_leads = [max(w) for w, _ in basis]
    first = _FrameLayout(codec, (max(len(basis) + len(redundant), 1).bit_length(),))
    # a redundant column's row has no leading term: its key is its chain
    level1 = _FrameLevel(first, None, [first.key(lead, ()) for lead in g_leads] + [0] * len(redundant), [])
    for mono, index in map(codec.unpack, g_leads):
        level1.degrees.append(vector_add(ring.monomial_degree(mono), module.basis_degrees[index]))
    level1.degrees += [degrees[j] for j in redundant]
    frame = _Frame(codec, packed, [level1], [None] * len(basis) + redundant, [], {}, [])
    layout = first.appended(sum(type(payload) is tuple for _, _, payload, _, _ in records))
    level2 = _FrameLevel(layout, [], [], [])
    units = [layout.key(lead, (p,)) for p, lead in enumerate(g_leads)]
    one = unit_monomial(ring.num_vars)
    constants = {codec.term(one, p): p for p in range(len(basis))}

    def lifted(relation):
        # the run's tail term m * e_p packs as the F_0 term of m at index p
        out = {}
        for t, c in relation.items():
            monomial, p = codec.split(t)
            out[layout.lifted(units[p], monomial)] = c
        return out

    # the back-substitution of element i: the run's key of e_i -> (tail,
    # content), content * g'_i = tail . G, tail holding M * e_i
    reduced = {codec.term(one, i): (tail, content) for tail, _, payload, content, i in records if payload is None}

    def rewritten(relation):
        # a relation over the elements as its degree's run left them, times
        # s > 0, over the reduced ones: e_i = (content * e'_i + M * e_i -
        # tail) / M, only a constant e_i being of the relation's degree
        hits = [(key, c) for key, c in relation.items() if key in reduced]
        if not hits:
            return relation, 1
        quotients = [exact_quotient(c, reduced[key][0][key]) for key, c in hits]
        s = lcm(*(x.denominator for x in quotients if type(x) is not int))
        out = {key: c * s for key, c in relation.items()}
        for (key, _), x in zip(hits, quotients):
            tail, content = reduced[key]
            x = exact(x * s)
            out[key] += x * content
            for t, y in tail.items():
                out[t] = out.get(t, 0) - x * y
        return {key: c for key, c in out.items() if c}, s

    relations = {}  # redundant column j -> the tail and multiplier M of its division
    ranks = Echelon()  # the constant parts of the S-pairs' relations
    for relation, degree, payload, multiplier, t in records:
        if payload is None:
            if frame.born[t] is not None:
                frame.joins.append((t, lifted(relation), 0, multiplier))
            continue
        if type(payload) is int:
            if t is None:
                relation, s = rewritten(relation)
                relations[payload] = (relation, s * multiplier)
            else:
                # each column comes before its degree's S-pairs, so its
                # tail holds no element of its degree that an S-pair added
                frame.born[t] = payload
                tail = lifted(relation)
                content = -tail.pop(units[t])
                frame.joins.append((t, tail, multiplier, content))
            continue
        ranks.add({(frame.born[p] is not None, p): c for key, c in relation.items() if key in constants
                   for p in (constants[key],)})
        if t is not None:
            frame.creators[t] = len(level2.elements)
        _, j, lcm_mono = payload
        level2.elements.append(_primitive(lifted(rewritten(relation)[0]))[0])
        level2.leads.append(layout.key(codec.term(lcm_mono, codec.unpack(g_leads[j]).index), (j,)))
        level2.degrees.append(degree)
    for r, j in enumerate(redundant, start=len(basis)):
        tail, multiplier = relations[j]
        relation = lifted(tail)
        relation[layout.key(0, (r,))] = multiplier
        frame.redundant.append((relation, degrees[j]))
    frame.levels.append(level2)
    frame.minimal = not redundant and not any(column_born for column_born, _ in ranks.pivots)
    return frame


def _next_level(level):
    """The frame level of the relations of level's S-pairs, each one S-polynomial divided by level's elements.

    The relation of an S-pair has its leading term at the pair's later
    element, times the lcm over that element's leading term.  The new
    elements are primitive integer vectors, in increasing order of the
    ring's positive functional of their degrees (ties by degree).
    """
    layout = level.layout
    ring = layout.codec.ring
    divisors = []
    for p, (element, lead) in enumerate(zip(level.elements, level.leads)):
        divisors.append(_divisor(element, {lead | p: 1}))
        if divisors[-1][0] != lead:
            raise InternalError("a frame element's leading term is not the one Schreyer's theorem gives")
    groups = {}
    for p, lead in enumerate(level.leads):
        groups.setdefault(layout.chain(lead), []).append(p)
    pairs = []
    for members in groups.values():
        for n, j in enumerate(members):
            lead = level.leads[j]
            lcms = [(i, layout.lcm(level.leads[i], lead)) for i in members[:n]]
            for i, lcm_key in _minimal_pairs(lcms, layout.divides):
                degree = vector_add(level.degrees[j], ring.monomial_degree(layout.exponents(lcm_key, lead)))
                pairs.append((degree, i, j, lcm_key))
    functional = ring._functional
    pairs.sort(key=lambda pair: (functional(pair[0]), pair[0]))
    below = layout.appended(len(pairs))
    out = _FrameLevel(below, [], [], [])
    buckets = layout.buckets(divisors)
    for degree, i, j, lcm_key in pairs:
        work, tail = _s_pair(divisors[i], divisors[j], lcm_key)
        _pseudo_divide(work, tail, buckets, layout)
        if work:
            raise InternalError("an S-polynomial of the frame did not reduce to zero")
        relation = _primitive(tail)[0]
        out.elements.append({t << below.shift: c for t, c in relation.items()})
        out.leads.append((lcm_key | j) << below.shift)
        out.degrees.append(degree)
    return out


def _input_coordinates(frame):
    """Level 2 of the frame and the redundant columns' relations over the input columns: (vectors, scales).

    Vector k is scales[k] times relation k written over the input columns
    and G's S-pair-born elements, in ints.  The run divides input column c,
    which joins G as element t, by unit tails: it leaves M * c = content *
    g_t - tail . G, and records the relation tail - content * e_t.  So g_t
    is (M * c + tail . G) / content, and substituting that for every
    column-born e_t writes a vector over G over the columns and the
    S-pair-born elements.  A tail involves only elements before t, so each
    substitution is built from the earlier ones.  The back-substitution of
    a column-born t at the end of its degree (see
    `groebner._back_substitute`) then gives content * g'_t = tail . G, in
    which e_t is the element that its column's substitution gave, and each
    later element of the degree is reduced, a later column's already
    substituted; so the joins and back-substitutions, in the run's order,
    are one triangular system per degree.  Keys stay those of level 2's
    layout, the key of e_t standing for the input column of element t; a
    column that joined as it was (M = content, empty tail) needs no
    substitution, nor does a redundant column's row.  A substitution is kept
    as an int vector and its denominator, and each vector is scaled by the
    lcm of the denominators it meets, so no Fraction arises.
    """
    level1, level2 = frame.levels[0], frame.levels[1]
    layout = level2.layout
    units = [(lead | p) << layout.shift for p, lead in enumerate(level1.leads)]
    offset, mask = layout.field(1)
    cofactors = {}  # row p -> (int vector, denominator) of its element over the input columns

    def substituted(vector):
        scale = 1
        for key, c in vector.items():
            p = key >> offset & mask
            if p in cofactors:
                x = exact_quotient(c, cofactors[p][1])
                if type(x) is not int:
                    scale = lcm(scale, x.denominator)
        out = {}
        for key, c in vector.items():
            p = key >> offset & mask
            if p not in cofactors:
                out[key] = out.get(key, 0) + c * scale
                continue
            terms, den = cofactors[p]
            x, move = exact_quotient(c * scale, den), key - units[p]
            for t, y in terms:
                t += move
                out[t] = out.get(t, 0) + x * y
        return {key: c for key, c in out.items() if c}, scale

    for t, tail, multiplier, content in frame.joins:
        if tail or multiplier != content:
            tail, scale = substituted(tail)
            if multiplier:
                tail[units[t]] = tail.get(units[t], 0) + multiplier * scale
            den = content * scale
            g = gcd(den, *tail.values()) if {type(den), *map(type, tail.values())} == {int} else 1
            cofactors[t] = [(key, exact_quotient(c, g)) for key, c in tail.items()], exact_quotient(den, g)
    vectors = level2.elements + [relation for relation, _ in frame.redundant]
    if not cofactors:
        return vectors, [1] * len(vectors)
    pairs = [substituted(e) for e in vectors]
    return [v for v, _ in pairs], [s for _, s in pairs]


def _pruned(frame, matrix, max_length):
    """The differentials of the minimal resolution that pruning the frame's units leaves, packed.

    Returns (codec, packed, maps): the codec and the packed columns of
    every differential, d_1 = matrix first, that the check below ran on,
    and the differentials as PolyMatrices, matrix itself and then
    `codec.matrix` of each later one, unpacked when first read.  The frame,
    grown by `_next_level` to a level beyond max_length or with no S-pair,
    is spent: the pruning works on its own dicts.

    A nonzero constant entry of differential d_k (frame level k over level
    k - 1) at row a and column b splits off a trivial complex (Eisenbud,
    "The Geometry of Syzygies", ch. 1): the other columns are cleared of
    row a by multiples of column b, then row a and column b go, with column
    a of d_{k-1} and row b of d_{k+1}.  Levels are pruned from d_2 up.  The
    second differential is first written over the input columns (see
    `_input_coordinates`), and there only the rows of S-pair-born elements
    of G are cancelled, by the relations of the S-pairs that added them,
    the last first, each at its highest unit on such a row.  Without
    back-substitution that row is its own element t: the relation has the
    constant -content at t and involves no later element.  With it, the
    relations' constants on those rows of one degree are the old ones
    times an invertible triangular matrix, so each relation still has a
    unit on a row that no earlier cancellation took, and what is left of
    level 1 is the input columns.  Higher differentials
    cancel whatever constant entries they have, column by column, each at
    its lowest row; a constant entry is a key equal to its row's unit, found
    by one lookup per key.  Each differential ends with an exact check that
    no constant entry is left, an InternalError otherwise; the cancellations
    keep the frame exact, so the result is minimal.  Over a map that is not
    minimal, d_2 may keep constants on input columns' rows, as do the
    relations of the columns that reduced to zero, which follow level 2's
    elements with no pivots (see `groebner.syzygies`).

    The cancellation is fraction-free: each differential's columns start
    as primitive integer vectors, a column whose rows' factors have
    denominators being scaled by their lcm first, and clearing a row scales a column by a
    positive integer instead of dividing by the pivot.  Right after, the
    column is divided by its content (`linalg._primitive`, signs kept), so
    every column stays a primitive integer vector as it goes, and the net
    scaling of a column by s divides the next differential's row by s.  A
    differential whose rows all survive unscaled takes the frame level's
    elements as its columns, untouched.  Clearing row a visits only the
    columns that may hold a term there, in index order: an index from each
    row to those columns is built at the differential's first cancellation,
    and a cleared column joins the rows of the pivot's terms.

    All differentials are packed by one codec, with the frame codec's
    fields, and checked to compose to zero (an InternalError says a pair
    did not).  A frame key of m * e_a less the key of e_a is m's packed
    monomial shifted left by the layout's width, so it becomes the term of
    m at e_a's row by one shift and the row's index field.  The codec's
    fields hold every consecutive product and its index field the largest
    module rank, all that a codec of `groebner._packed_chain` provides for
    the walk.  At most max_length differentials are kept (all if None), and
    none from the first level that pruning empties.
    """
    levels = frame.levels
    while levels[-1].elements and (max_length is None or len(levels) <= max_length):
        levels.append(_next_level(levels[-1]))
    steps = []  # per differential d_k, k >= 2: (layout, units of its rows, columns, alive columns, pruned rows)
    dead, factors = set(), {}
    for k in range(2, len(levels) + 1):
        layout, below = levels[k - 1].layout, levels[k - 2]
        # a key's row is its level k - 1 index
        offset, mask = layout.field(k - 1)
        units = [(lead | a) << layout.shift for a, lead in enumerate(below.leads)]
        unit_rows = {unit: a for a, unit in enumerate(units)}
        # each column comes as scales[c] times the relation, in ints on
        # integral input: a row's factor n / d is applied as n * (s / d),
        # s the lcm of the d of the column's rows
        elements, scales = _input_coordinates(frame) if k == 2 else (levels[k - 1].elements, None)
        if dead or factors:
            columns, scales = [], []
            for element in elements:
                rows = {key >> offset & mask for key in element}
                scale = lcm(*(factors[a].denominator for a in rows if a in factors))
                scaled = {a: factors[a].numerator * (scale // factors[a].denominator) for a in rows if a in factors}
                column = {}
                for key, c in element.items():
                    a = key >> offset & mask
                    if a not in dead:
                        column[key] = c * scaled[a] if a in scaled else c * scale
                columns.append(column)
                scales.append(scale)
        else:
            columns = list(elements)
        # what the next differential's rows are multiplied by: 1 / s for
        # each scaling of the column by s
        next_factors = [1] * len(columns)
        for c, column in enumerate(columns):
            columns[c], next_factors[c] = _primitive(column)
        if scales:
            next_factors = [f if s == 1 else exact_quotient(f, s) for f, s in zip(next_factors, scales)]
        live = [True] * len(columns)
        pruned = set()
        holders = None  # row -> the columns that may hold a term at it

        def cancel(a, b):
            # fraction-free: a column with entries x at row a becomes
            # (|p| / g) * column - sum((sign(p) * x / g) * m_x * pivot)
            nonlocal holders
            if holders is None:
                holders = defaultdict(set)
                for c, column in enumerate(columns):
                    for row in {key >> offset & mask for key in column}:
                        holders[row].add(c)
            unit, pivot = units[a], list(columns[b].items())
            p = columns[b][unit]
            live[b] = False
            pruned.add(a)
            spread = {t >> offset & mask for t, _ in pivot}
            for c in sorted(holders.pop(a)):
                if not live[c]:
                    continue
                column = columns[c]
                hits = [(key, x) for key, x in column.items() if key >> offset & mask == a]
                if not hits:
                    continue
                g = gcd(p, *(x for _, x in hits))
                scale, sign = abs(p) // g, 1 if p > 0 else -1
                if scale != 1:
                    for key in column:
                        column[key] *= scale
                for key, x in hits:
                    q, move = sign * x // g, key - unit
                    for t, y in pivot:
                        t += move
                        value = column.get(t, 0) - q * y
                        if value:
                            column[t] = value
                        else:
                            del column[t]
                columns[c], content = _primitive(column)
                next_factors[c] = exact_quotient(next_factors[c] * content, scale)
                for row in spread:
                    holders[row].add(c)

        def constant_rows(column):
            return [unit_rows[key] for key in column if key in unit_rows]

        if k == 2:
            # each creator cancels its highest unit at a row that stands
            # for no input column and is not pruned: its own, unless
            # back-substitution moved the constants of its degree
            for t in sorted(frame.creators, reverse=True):
                b = frame.creators[t]
                free = [a for key in columns[b] if key in unit_rows
                        for a in (unit_rows[key],) if frame.born[a] is None and a not in pruned]
                if free:
                    cancel(max(free), b)
        else:
            for b in range(len(columns)):
                rows = constant_rows(columns[b])
                if rows:
                    cancel(min(rows), b)
        alive = [c for c in range(len(columns)) if live[c]]
        allowed = {a for a, c in enumerate(frame.born) if c is not None} if k == 2 and not frame.minimal else ()
        if any(a not in allowed for c in alive if c < len(levels[k - 1].elements) for a in constant_rows(columns[c])):
            raise InternalError("a unit survived pruning differential %d of the frame" % k)
        factors = {c: next_factors[c] for c in alive if next_factors[c] != 1}
        dead = {c for c in range(len(columns)) if not live[c]}
        steps.append((layout, units, columns, alive, pruned))
    # what survives of each level: G's column-born elements and the
    # redundant columns at level 1, and at level k the columns of d_k not
    # cancelled as rows of d_{k+1}
    survivors = [[t for t, c in enumerate(frame.born) if c is not None]]
    for k, (_, _, _, alive, _) in enumerate(steps, start=2):
        removed = steps[k - 1][4] if k - 1 < len(steps) else ()
        survivors.append([c for c in alive if c not in removed])
    # a level's minimal rank is known once the differential above it is pruned
    known = len(levels) if not levels[-1].elements or max_length is None else len(levels) - 1
    for k in range(1, known + 1):
        if levels[k - 1].degrees:
            log.debug(
                "resolution level %d: frame rank %d, %d S-pairs divided, %d units pruned, minimal rank %d",
                k, len(levels[k - 1].degrees), len(levels[k].degrees) if k < len(levels) else 0,
                len(levels[k - 1].degrees) - len(survivors[k - 1]), len(survivors[k - 1]),
            )
    length = 1
    while length < len(survivors) and survivors[length] and (max_length is None or length < max_length):
        length += 1
    ring = matrix.domain.ring
    modules = [matrix.codomain, matrix.domain]
    degrees = [level.degrees for level in levels]
    degrees[1] = degrees[1] + [degree for _, degree in frame.redundant]
    for k in range(2, length + 1):
        modules.append(FreeModuleSpec._unchecked(ring, [degrees[k - 1][c] for c in survivors[k - 1]]))
    old = frame.codec
    codec = _TermCodec(ring, old.order, max(m.rank for m in modules), old.capacity)
    packed = [[codec.repacked(old, c) for c in frame.columns]]
    one = unit_monomial(ring.num_vars)
    for k in range(2, length + 1):
        layout, units, columns, _, _ = steps[k - 2]
        offset, mask = layout.field(k - 1)
        rows = {a: frame.born[a] for a in survivors[0]} if k == 2 else {a: n for n, a in enumerate(survivors[k - 2])}
        tags = {a: codec.term(one, row) for a, row in rows.items()}
        # the packed monomial moves from the frame codec's fields to the
        # walk codec's: by down bits right, or -down bits left
        down = layout.width + codec.field_shift(old)
        up, down = max(-down, 0), max(down, 0)
        packed.append([
            {
                (key - units[a] << up >> down) | tags[a]: c
                for key, c in columns[b].items()
                for a in (key >> offset & mask,)
            }
            for b in survivors[k - 1]
        ])
    failed = _nonzero_composite(codec, packed)
    if failed is not None:
        raise InternalError("differentials %d and %d of the resolution do not compose to zero" % (failed + 1, failed + 2))
    maps = [matrix] + [codec.matrix(packed[k], modules[k], modules[k + 1]) for k in range(1, length)]
    return codec, packed, maps
