"""The S-construction on a proto-abelian instance, truncated to degree <= 3.

A degree-n object is the full triangular diagram: entries A_ij (skeletal
objects of the instance) for 0 <= i < j <= n, monos along rows, epis down
columns, every square bicartesian (boundary squares with a zero corner are
the exactness conditions).  Faces delete a row and column, composing the
maps across the gap; degeneracies duplicate, inserting zero entries and
identity maps.  This full model makes the simplicial identities strict.

Level n is the groupoid of these triangles and componentwise isomorphisms.
Because the entries are skeletal, such an isomorphism is a family
(phi_ij) in the product of the entries' automorphism groups, and it sends
each row mono m: A_ij >-> A_i,j+1 to phi_i,j+1 m phi_ij^-1 and each column
epi likewise.  So level n is an action groupoid: one group prod Aut(A_ij)
per tuple of entries, acting on the triangles with those entries, and a
morphism is a token (phis, source index).  The search for intertwining iso
families that this replaces is kept in the tests, as the oracle that the
action's hom-sets are checked against.  Two equivalent models are test
oracles as well (`tests/oracles/sconstruction.py`): the flags of monos
alone, and for level 1 the skeletal core of the instance.

A face or degeneracy sends entry (a, b) of a triangle to an entry of its
image, or to a zero entry, so on morphisms it selects coordinates of phis,
filling a zero entry's slot with the identity of 0.  Each is a GMap: the
index table of the triangles' images plus that selection, so the
simplicial identities and the Segal comparisons are decided on tables, as
for the Hecke-Waldhausen levels.
"""

from functools import cache
from math import prod

from .. import BudgetExceededError, UsageError
from ..groupoid import ActionGroupoid, GMap
from ..groups import tuple_group
from ..protoab.base import ProtoAbelianInstance
from .simplicial import TruncatedSimplicialGroupoid

DEFAULT_TRIANGLE_BUDGET = 200_000


@cache
def _layout(n):
    """Positions (i, j) of the entries, row monos and column epis of a
    degree-n triangle, in lexicographic order."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n + 1)]
    return (pairs, [(i, j) for i, j in pairs if j < n],
            [(i, j) for i, j in pairs if i + 1 < j])


def _pairs(n):
    return _layout(n)[0]


class Triangle(tuple):
    """Immutable triangle diagram, stored as its encoding
    (n, entries, row monos, column epis) with each part in `_layout(n)`
    order; `entries`, `rmono` and `cepi` are dict views keyed by (i, j):
    A_ij, the mono A_ij -> A_i,j+1 (j < n), the epi A_ij -> A_i+1,j
    (i+1 < j)."""

    __slots__ = ()

    def __new__(cls, n, entries, rmono, cepi):
        pairs, rkeys, ckeys = _layout(n)
        return super().__new__(cls, (n, tuple(entries[p] for p in pairs),
                                     tuple(rmono[p] for p in rkeys),
                                     tuple(cepi[p] for p in ckeys)))

    @property
    def n(self):
        return self[0]

    @property
    def entries(self):
        return dict(zip(_layout(self[0])[0], self[1]))

    @property
    def rmono(self):
        return dict(zip(_layout(self[0])[1], self[2]))

    @property
    def cepi(self):
        return dict(zip(_layout(self[0])[2], self[3]))

    def __repr__(self):
        return f"Triangle(n={self.n}, {self.entries})"


def _classes(inst, bound):
    classes = inst.iso_classes()
    if bound is None:
        return classes
    return [c for c in classes if inst.size_of(c) <= bound]


def _unique(maps, what):
    if len(maps) != 1:
        raise ValueError(f"expected exactly one {what}, found {len(maps)}")
    return maps[0]


def _epi_to_zero(inst, x):
    return _unique(inst.epis(x, inst.zero_key()), f"epi {x} ->> 0")


def _mono_from_zero(inst, x):
    return _unique(inst.monos(inst.zero_key(), x), f"mono 0 >-> {x}")


def _square_ok(inst, entries, rmono, cepi, i, j):
    """Bicartesian check for the square between rows i,i+1 and cols j-1,j
    (j >= i+2); the j-1 == i+1 boundary uses the zero corner."""
    m = rmono[(i, j - 1)]
    q = cepi[(i, j)]
    if j - 1 == i + 1:
        p = _epi_to_zero(inst, entries[(i, j - 1)])
        jm = _mono_from_zero(inst, entries[(i + 1, j)])
    else:
        p = cepi[(i, j - 1)]
        jm = rmono[(i + 1, j - 1)]
    return inst.square_bicartesian(m, p, q, jm)


def enumerate_triangles(inst: ProtoAbelianInstance, n: int, bound=None,
                        budget=DEFAULT_TRIANGLE_BUDGET):
    """All valid degree-n triangles with size(A_0n) <= bound."""
    classes = _classes(inst, bound)
    if n == 0:
        return [Triangle(0, {}, {}, {})]

    def over_budget(count, what):
        return BudgetExceededError(
            f"level S_{n}({inst.family}): triangle enumeration reached "
            f"{count} {what}, over the budget of {budget}")

    # first rows: chains of monos A_01 -> ... -> A_0n
    rows0 = [({(0, 1): c}, {}) for c in classes]
    for j in range(2, n + 1):
        new = []
        for entries, rmono in rows0:
            prev = entries[(0, j - 1)]
            for c in classes:
                for m in inst.monos(prev, c):
                    e2 = dict(entries)
                    e2[(0, j)] = c
                    r2 = dict(rmono)
                    r2[(0, j - 1)] = m
                    new.append((e2, r2))
        rows0 = new

    out = []
    for entries0, rmono0 in rows0:
        stack = [(entries0, rmono0, {})]
        for i in range(1, n):
            new_stack = []
            for entries, rmono, cepi in stack:
                # choose A_{i,i+1} with epi from A_{i-1,i+1}, exactness at
                # the zero-corner square
                grown = []
                src = entries[(i - 1, i + 1)]
                im_first = inst.image_sub(rmono[(i - 1, i)])
                for c in classes:
                    for e in inst.epis(src, c):
                        if inst.preimage_sub(e, inst.zero_sub(c)) != im_first:
                            continue
                        e2 = dict(entries)
                        e2[(i, i + 1)] = c
                        c2 = dict(cepi)
                        c2[(i - 1, i + 1)] = e
                        grown.append((e2, rmono, c2))
                # extend along the row, enforcing commutativity; the
                # bicartesian condition is checked once the triangle closes
                for j in range(i + 2, n + 1):
                    grown2 = []
                    for e2, rm, c2 in grown:
                        src_epi = e2[(i - 1, j)]
                        left = e2[(i, j - 1)]
                        for c in classes:
                            for e in inst.epis(src_epi, c):
                                lhs = inst.compose(e, rm[(i - 1, j - 1)])
                                for m2 in inst.monos(left, c):
                                    if lhs != inst.compose(
                                            m2, c2[(i - 1, j - 1)]):
                                        continue
                                    e3 = dict(e2)
                                    e3[(i, j)] = c
                                    rm3 = dict(rm)
                                    rm3[(i, j - 1)] = m2
                                    c3 = dict(c2)
                                    c3[(i - 1, j)] = e
                                    grown2.append((e3, rm3, c3))
                    grown = grown2
                new_stack.extend(grown)
            stack = new_stack
            if len(stack) > budget:
                raise over_budget(len(stack), f"partial triangles at row {i}")
        for entries, rmono, cepi in stack:
            if all(_square_ok(inst, entries, rmono, cepi, i, j)
                   for i in range(n - 1) for j in range(i + 2, n + 1)):
                out.append(Triangle(n, entries, rmono, cepi))
        if len(out) > budget:
            raise over_budget(len(out), "triangles")
    return out


class TriangleGroupoid(ActionGroupoid):
    """Level n of the S-construction: triangles and componentwise isos, as
    the action of prod Aut(A_ij) (factors in `_pairs(n)` order) by
    `transport`, one group per tuple of entries.  Every group's order is
    checked against the budget before any group is built."""

    def __init__(self, inst, n, bound=None, budget=DEFAULT_TRIANGLE_BUDGET):
        self.inst = inst
        self.level = n
        pairs, rkeys, ckeys = _layout(n)
        pos = {p: k for k, p in enumerate(pairs)}
        # each map's (target entry, source entry) positions, in layout order
        self._rpos = [(pos[a, b + 1], pos[a, b]) for a, b in rkeys]
        self._cpos = [(pos[a + 1, b], pos[a, b]) for a, b in ckeys]
        name = f"S_{n}({inst.family})"
        super().__init__(None, enumerate_triangles(inst, n, bound=bound,
                                                   budget=budget),
                         self.transport, name=name, check=False)
        buckets = dict.fromkeys(t[1] for t in self.objects)  # entries tuples
        aut_order = {c: inst.aut_order(c) for e in buckets for c in e}
        for entries in buckets:
            order = prod(aut_order[c] for c in entries)
            if order > budget:
                raise BudgetExceededError(
                    f"level {name}: the automorphism group of the entries "
                    f"{entries} has order {order}, over the budget of "
                    f"{budget}")
        auts = {c: inst.aut_group(c) for c in aut_order}
        groups = {e: tuple_group([auts[c] for c in e], f"Aut{e}")
                  for e in buckets}
        self._group_of = [groups[t[1]] for t in self.objects]

    def group_at(self, i):
        return self._group_of[i]

    def transport(self, phis, i):
        """The triangle phis . x: m: A_p -> A_q becomes phi_q m phi_p^-1."""
        n, entries, rmono, cepi = self.objects[i]
        inv = self._group_of[i].inv(phis)
        c = self.inst.compose
        rmono = tuple([c(c(phis[t], m), inv[s])
                       for m, (t, s) in zip(rmono, self._rpos)])
        cepi = tuple([c(c(phis[t], e), inv[s])
                      for e, (t, s) in zip(cepi, self._cpos)])
        return self.obj_index((n, entries, rmono, cepi))


def _face_triangle(inst, tri: Triangle, k: int) -> Triangle:
    """Delete row and column k."""
    n, ent, rm, ce = tri.n, tri.entries, tri.rmono, tri.cepi
    keep = [x for x in range(n + 1) if x != k]
    s = {new: old for new, old in enumerate(keep)}
    entries, rmono, cepi = {}, {}, {}
    for i in range(n):
        for j in range(i + 1, n):
            entries[(i, j)] = ent[(s[i], s[j])]
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            si, sj, sj1 = s[i], s[j], s[j + 1]
            if sj1 == sj + 1:
                rmono[(i, j)] = rm[(si, sj)]
            else:
                rmono[(i, j)] = inst.compose(rm[(si, sj + 1)],
                                             rm[(si, sj)])
    for i in range(n - 2):
        for j in range(i + 2, n):
            si, si1, sj = s[i], s[i + 1], s[j]
            if si1 == si + 1:
                cepi[(i, j)] = ce[(si, sj)]
            else:
                cepi[(i, j)] = inst.compose(ce[(si + 1, sj)],
                                            ce[(si, sj)])
    return Triangle(n - 1, entries, rmono, cepi)


def _degeneracy_triangle(inst, tri: Triangle, k: int) -> Triangle:
    """Duplicate index k, inserting zero entries and identity maps."""
    n, ent, rm, ce = tri.n, tri.entries, tri.rmono, tri.cepi
    t = lambda x: x if x <= k else x - 1
    zero = inst.zero_key()
    entries, rmono, cepi = {}, {}, {}
    for i in range(n + 1):
        for j in range(i + 1, n + 2):
            entries[(i, j)] = (zero if t(i) == t(j)
                               else ent[(t(i), t(j))])
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            a, b = entries[(i, j)], entries[(i, j + 1)]
            if t(i) == t(j):                  # zero entry source
                rmono[(i, j)] = _mono_from_zero(inst, b)
            elif t(j + 1) == t(j):            # duplicated column
                rmono[(i, j)] = inst.identity(a)
            else:
                rmono[(i, j)] = rm[(t(i), t(j))]
    for i in range(n):
        for j in range(i + 2, n + 2):
            a, b = entries[(i, j)], entries[(i + 1, j)]
            if t(i + 1) == t(i):              # duplicated row
                cepi[(i, j)] = inst.identity(a)
            elif t(i + 1) == t(j):            # target is a zero entry
                cepi[(i, j)] = _epi_to_zero(inst, a)
            else:
                cepi[(i, j)] = ce[(t(i), t(j))]
    return Triangle(n + 1, entries, rmono, cepi)


def _simplicial_map(inst, src, tgt, k, is_face):
    """Face d_k or degeneracy s_k as a G-map of levels: the index table of
    the triangles' images, and entry (a, b) of an image's automorphism
    taken from entry (t(a), t(b)) of the source's, where t skips k (face)
    or repeats it (degeneracy), or the zero entry's identity when
    t(a) == t(b)."""
    if is_face:
        image, t, name = _face_triangle, lambda x: x + (x >= k), "d"
    else:
        image, t, name = _degeneracy_triangle, lambda x: x - (x > k), "s"
    src_pos = {p: i for i, p in enumerate(_pairs(src.level))}
    sel = [None if t(a) == t(b) else src_pos[(t(a), t(b))]
           for a, b in _pairs(tgt.level)]
    table = [tgt.obj_index(image(inst, tri, k)) for tri in src.objects]
    return GMap(src, tgt, table, name=f"{name}_{k}^{src.level}", sel=sel,
                fill=inst.identity(inst.zero_key()))


def s_construction(inst: ProtoAbelianInstance, depth: int = 3, bound=None,
                   budget=DEFAULT_TRIANGLE_BUDGET) -> TruncatedSimplicialGroupoid:
    """Levels 0..depth of the flag simplicial groupoid of the instance."""
    if not 0 <= depth <= 3:
        raise UsageError(f"S-construction depth {depth} is outside 0..3")
    levels = [TriangleGroupoid(inst, n, bound=bound, budget=budget)
              for n in range(depth + 1)]
    faces = {(n, k): _simplicial_map(inst, levels[n], levels[n - 1], k, True)
             for n in range(1, depth + 1) for k in range(n + 1)}
    degens = {(n, k): _simplicial_map(inst, levels[n], levels[n + 1], k,
                                      False)
              for n in range(depth) for k in range(n + 1)}
    return TruncatedSimplicialGroupoid(levels, faces, degens,
                                       name=f"S({inst.family})")

