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
per tuple of entries, acting on the triangles with those entries by
`transport`, and a morphism is a token (phis, source index).

Triangles of integers.  The levels read the instance through its
numbering (`protoab/base.py`): a triangle holds its maps as map ids, each
Aut(A) is the instance's group on 0..|Aut A|-1, and every composite and
square test is a lookup in the instance's tables, which its token methods
fill.  A level keeps each triangle as the flat tuple of its map ids, which
is also its index key, and decodes `objects[i]` from it when read; the
oracles decode the maps to tokens.  Transport moves each map
m: A_p -> A_q to phi_q m phi_p^-1 by two lookups, in the rows of m's
composites with the automorphisms of its ends.

First rows, then one free orbit per component.  A triangle is determined
by its first row r = (A_01 >-> ... >-> A_0n) up to a unique isomorphism
that fixes row 0: A_ij is the cokernel of A_0i >-> A_0j, each square being
a pushout.  So the triangles over r are one free orbit of
K+(r) = prod_{1 <= i < j <= n} Aut(A_ij), and level n has the closed count
sum_r prod_{i < j} |Aut(A_0j / A_0i)| of objects.  Row 0's automorphisms
commute with K+(r), so they carry the block of triangles over a first row
onto the block over the moved row, and a component of the level is the
union of the blocks of one orbit of first rows.  A level counts its first
rows from the instance's `mono_count` and refuses them over the budget
before it lists any mono, lists them, walks them once under the
generators of row 0's factors, reads the entries once per component,
checks the closed count against the budget before it builds any
completion, completes one first row per component by a search that checks
every square as it closes, and transports that completion by every
element of K+(r).  Every other row's block is its parent's in the walk,
moved by one generator of row 0, and the walk gives pi0.  Each group
prod Aut(A_ij) is taken from its factors, unlisted; each factor Aut(A) is
listed, and its order must be the closed `aut_order` that the budget
read.

Faces and degeneracies by position plans.  A face or degeneracy sends
entry (a, b) of a triangle to an entry of its image, or to a zero entry,
so on morphisms it selects coordinates of phis, filling a zero entry's
slot with the identity of 0.  Each is a GMap: the index table of the
triangles' images plus that selection, so the simplicial identities and
the Segal comparisons are decided on tables.  The image of a triangle is
read off a plan over the flat map ids, computed once per face or
degeneracy: where each entry comes from, which map each map copies or
which two it composes, and which map fills each zero slot.  The module
holds no cache, so that it may load on first use (see `hallalg`).

The search over all diagrams, the build that completes every first row
and searches the blocks of first rows for pi0, and the
triangle-by-triangle faces and degeneracies that these replace are test
oracles (`tests/oracles/sconstruction.py`), with two equivalent models:
the flags of monos alone, and for level 1 the skeletal core of the
instance.
"""

from collections import Counter
from collections.abc import Sequence
from itertools import count, product as iproduct
from math import prod
from operator import itemgetter

from .. import BudgetExceededError, UsageError
from ..groupoid import ActionGroupoid, Component, GMap
from ..groups import TupleGroup
from ..protoab.base import ProtoAbelianInstance
from .simplicial import TruncatedSimplicialGroupoid

DEFAULT_TRIANGLE_BUDGET = 200_000


class TriangleCompletionError(ValueError):
    """The triangles over a first row are not one free orbit: no map closes
    some square, or two automorphisms give the same triangle; or the closed
    count of a class's automorphisms is not the order of its listed group.
    None of these happens in a proto-abelian category."""


def _layout(n):
    """Positions (i, j) of the entries, row monos and column epis of a
    degree-n triangle, in lexicographic order."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n + 1)]
    return (pairs, [(i, j) for i, j in pairs if j < n],
            [(i, j) for i, j in pairs if i + 1 < j])


class Triangle(tuple):
    """Immutable triangle diagram, stored as its encoding
    (n, entries, row monos, column epis), each part a tuple in `_layout(n)`
    order: the entries are class keys, the maps the instance's map ids (or
    map tokens, in the tests' oracles).  `entries`, `rmono` and `cepi` are
    dict views keyed by (i, j): A_ij, the mono A_ij -> A_i,j+1 (j < n), the
    epi A_ij -> A_i+1,j (i+1 < j)."""

    __slots__ = ()

    def __new__(cls, n, entries, rmono, cepi):
        return super().__new__(cls, (n, entries, rmono, cepi))

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


def _unique(maps, what):
    if len(maps) != 1:
        raise ValueError(f"expected exactly one {what}, found {len(maps)}")
    return maps[0]


def _epi_to_zero(inst, x):
    return _unique(inst.epi_ids(x, inst.zero_key()), f"epi {x} ->> 0")


def _mono_from_zero(inst, x):
    return _unique(inst.mono_ids(inst.zero_key(), x), f"mono 0 >-> {x}")


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
    return inst.squares[m, p, q, jm]


def _first_rows(inst, n, budget, name):
    """The chains A_01 >-> ... >-> A_0n of monos between the instance's
    classes, as (entries, mono ids).  Each row has at least one triangle,
    so partial rows more than the budget are refused.  The rows up to each
    A_0j are counted by class from `mono_count`, for every j, before any
    mono is listed; those up to A_01, one per class, first.  Each pair of
    classes joined by a mono adds at least one row, so a count that meets
    more such pairs than both the budget and the classes stops there,
    over the budget, and no count runs over too many pairs of classes."""
    classes = inst.iso_classes()
    if n >= 2 and len(classes) > budget:
        raise BudgetExceededError(
            f"level {name}: {len(classes)} first rows up to A_01 already "
            f"exceed the budget of {budget} triangles")
    ending, limit = dict.fromkeys(classes, 1), max(budget, len(classes))
    for j in range(2, n + 1):
        rows, pairs = dict.fromkeys(classes, 0), 0
        for a, k in ending.items():
            for c in classes:
                m = inst.mono_count(a, c)
                if m:
                    rows[c] += k * m
                    pairs += 1
                    if pairs > limit:
                        raise BudgetExceededError(
                            f"level {name}: more than {budget} first rows "
                            f"up to A_0{j}, over the budget of {budget} "
                            f"triangles")
        ending = rows
        count = sum(ending.values())
        if count > budget:
            raise BudgetExceededError(
                f"level {name}: {count} first rows up to A_0{j} already "
                f"exceed the budget of {budget} triangles")
    rows = [((), ())] if n == 0 else [((c,), ()) for c in classes]
    for _ in range(2, n + 1):
        rows = [(ent + (c,), monos + (m,)) for ent, monos in rows
                for c in classes for m in inst.mono_ids(ent[-1], c)]
    return rows


def _entries(inst, row):
    """The entries of the triangles over a first row, in `_layout` order:
    row 0, then for 1 <= i < j the class of A_0j / A_0i, the cokernel of
    the composite mono A_0i >-> A_0j, composed in the instance's table and
    classified by its memoised token methods."""
    classes, monos = row
    out = list(classes)
    for i in range(1, len(classes)):
        rep = None
        for m in monos[i - 1:]:
            rep = m if rep is None else inst.composites[m, rep]
            f = inst.tokens[rep]
            out.append(inst.classify_quot(f[1], inst.image_sub(f)))
    return tuple(out)


def _complete(inst, n, entries, monos, name):
    """The map ids, row monos then column epis in `_layout` order, of one
    triangle with the given entries and first-row monos.  Rows 1..n-1 are
    filled left to right; at entry (i, j) the first epi from A_i-1,j (and,
    off the diagonal, the first mono from A_i,j-1) that makes the square
    at rows i-1, i and columns j-1, j bicartesian is taken.  Every filled
    square is a pushout, so the partial diagram is unique up to a unique
    isomorphism fixing row 0, and a first choice never leads to a dead
    end."""
    pairs, rkeys, ckeys = _layout(n)
    ent = dict(zip(pairs, entries))
    rmono = {(0, j): m for j, m in enumerate(monos, start=1)}
    cepi = {}
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            sides = ([None] if j == i + 1
                     else inst.mono_ids(ent[i, j - 1], ent[i, j]))
            if not any(_close(inst, ent, rmono, cepi, i, j, e, m)
                       for e in inst.epi_ids(ent[i - 1, j], ent[i, j])
                       for m in sides):
                raise TriangleCompletionError(
                    f"level {name}: no map closes the square at rows "
                    f"{i - 1}, {i} and columns {j - 1}, {j} over the first "
                    f"row {entries[:n]}")
    return (tuple([rmono[p] for p in rkeys])
            + tuple([cepi[p] for p in ckeys]))


def _close(inst, ent, rmono, cepi, i, j, e, m):
    """Place the epi e into (i, j), and the mono m unless it is None;
    whether the square they close is bicartesian."""
    cepi[i - 1, j] = e
    if m is not None:
        rmono[i, j - 1] = m
    return _square_ok(inst, ent, rmono, cepi, i - 1, j)


class _Triangles(Sequence):
    """The objects of a level, decoded from its index keys when read.  A
    key is the flat tuple of a triangle's map ids, row monos then column
    epis, which name its entries too; at levels 0 and 1, which have no
    maps, it is the entries."""

    def __init__(self, n, keys, groups, entries):
        self._n, self._keys, self._groups, self._entries = (n, keys, groups,
                                                            entries)
        self._nr = len(_layout(n)[1])

    def __len__(self):
        return len(self._keys)

    def __getitem__(self, i):
        key, n = self._keys[i], self._n
        if n < 2:
            return Triangle(n, key, (), ())
        return Triangle(n, self._entries[self._groups[i]], key[:self._nr],
                        key[self._nr:])

    def __iter__(self):
        return map(self.__getitem__, range(len(self._keys)))


def _walk(inst, rows):
    """The first rows' orbits under row 0's automorphisms, walked depth
    first under the generators of each Aut(A_0j).  A generator h of
    Aut(A_0j) moves only the monos into and out of A_0j: m -> h m and
    m -> m h^-1.  Returns, per row, its component; the first row of each
    component, in row order; per row, the step (parent row, j, h, h^-1)
    that carries the parent onto it, None at a first row; and the rows in
    the order reached, each after its parent.  A component of the level is
    the union of the blocks of one orbit."""
    lefts, rights = inst.left_rows, inst.right_rows
    where = {row: b for b, row in enumerate(rows)}
    comp, firsts, steps, order = [-1] * len(rows), [], [None] * len(rows), []
    for start in range(len(rows)):
        if comp[start] >= 0:
            continue
        comp[start], stack = len(firsts), [start]
        firsts.append(start)
        while stack:
            b = stack.pop()
            order.append(b)
            entries, monos = rows[b]
            for j, c in enumerate(entries):
                K = inst.aut_group(c)
                for h in K.generators():
                    h_inv, moved = K.inv(h), list(monos)
                    if j:
                        moved[j - 1] = lefts[monos[j - 1]][h]
                    if j < len(monos):
                        moved[j] = rights[monos[j]][h_inv]
                    to = where[entries, tuple(moved)]
                    if comp[to] < 0:
                        comp[to], steps[to] = comp[b], (b, j, h, h_inv)
                        stack.append(to)
    return comp, firsts, steps, order


class TriangleGroupoid(ActionGroupoid):
    """Level n of the S-construction: triangles and componentwise isos, as
    the action of prod Aut(A_ij) (factors in `_layout(n)[0]` order, each
    the instance's int `aut_group`) by `transport`, one group per tuple of
    entries, built from its factors without listing its elements.  The
    closed count of the triangles is checked against the budget before
    any completion is built; `closed_count` keeps the count.  The blocks
    of triangles over the first rows are runs of indices in row order,
    each written at its offset: at a component's first row `_orbit`, else
    its parent's in `_walk` moved by `_moved`.  The transversal is the
    first triangle of each component, which meets every orbit.  Each
    object is kept as its index key (see `_Triangles`) and its group,
    shared by the triangles with its entries (`_entries` maps each group
    to them); `group_at` reads the list of groups by index."""

    def __init__(self, inst, n, budget=DEFAULT_TRIANGLE_BUDGET):
        self.inst = inst
        self.level = n
        pairs, rkeys, ckeys = _layout(n)
        pos = {p: k for k, p in enumerate(pairs)}
        # each map's (target entry, source entry) positions, in key order
        self._pos = ([(pos[a, b + 1], pos[a, b]) for a, b in rkeys]
                     + [(pos[a + 1, b], pos[a, b]) for a, b in ckeys])
        name = f"S_{n}({inst.family})"
        rows = _first_rows(inst, n, budget, name)
        comp, firsts, steps, reached = _walk(inst, rows)
        entries = [_entries(inst, rows[b]) for b in firsts]
        aut_order = {c: inst.aut_order(c)
                     for c in {c for e in set(entries) for c in e}}
        # row 0 is fixed: its n entries are not in K+(r)
        size = [prod(aut_order[c] for c in e[n:]) for e in entries]
        self._offsets = offsets = [0]
        for c in comp:
            offsets.append(offsets[-1] + size[c])
        self.closed_count = offsets[-1]
        if self.closed_count > budget:
            raise BudgetExceededError(
                f"level {name}: {self.closed_count} triangles over "
                f"{len(rows)} first rows (the closed count), over the "
                f"budget of {budget}")
        for c, order in aut_order.items():
            listed = inst.aut_group(c).order
            if listed != order:
                raise TriangleCompletionError(
                    f"level {name}: Aut({c!r}) lists {listed} elements, but "
                    f"its closed count is {order}")
        groups = {e: TupleGroup([inst.aut_group(c) for c in e], f"Aut{e}")
                  for e in dict.fromkeys(entries)}
        self._entries = {group: e for e, group in groups.items()}
        self._group_of = []
        for c in comp:
            self._group_of += [groups[entries[c]]] * size[c]
        keys = [None] * self.closed_count
        triangles = _Triangles(n, keys, self._group_of, self._entries)
        self._keys, self._comp_rows = keys, comp
        for b in reached:
            if steps[b] is None:
                e = entries[comp[b]]
                block = self._orbit(
                    groups[e], _complete(inst, n, e, rows[b][1], name), e)
            else:
                a, *step = steps[b]
                block = self._moved(keys[offsets[a]:offsets[a + 1]], *step)
            keys[offsets[b]:offsets[b + 1]] = block
        self._index = index = dict(zip(keys, count()))
        if len(index) != len(keys):
            i = next(i for i, key in enumerate(keys) if index[key] != i)
            raise TriangleCompletionError(
                f"level {name}: {triangles[i]!r} is built twice, "
                f"so the first rows repeat or an orbit is not free")
        super().__init__(None, triangles, self.transport, name=name,
                         transversal=[offsets[b] for b in firsts])
        # the group at each object, read with no Python call
        self.group_at = self._group_of.__getitem__

    def _orbit(self, group, maps, e):
        """The keys of the triangles phis . t over the completion t (its
        map ids `maps`, entries e), for phis in K+(r) in product order:
        row 0's factors are fixed at the identity."""
        lefts, rights = self.inst.left_rows, self.inst.right_rows
        free = [(K.elements, [K.inv(x) for x in K.elements]) if i
                else ([K.identity],) * 2
                for (i, _), K in zip(_layout(self.level)[0], group.factors)]
        # each map m: A_p -> A_q as phi_q m psi, by phi_q and then psi,
        # for the phi_q that the orbit puts at A_q
        moves = [{a: rights[row[a]] for a in free[t][0]}
                 for row, (t, _) in zip(map(lefts.__getitem__, maps),
                                        self._pos)]
        orbit = zip(iproduct(*(es for es, _ in free)),
                    iproduct(*(invs for _, invs in free)))
        return [tuple([move[phis[t]][inv[s]] for move, (t, s)
                       in zip(moves, self._pos)]) or e
                for phis, inv in orbit]

    def _moved(self, block, j, h, h_inv):
        """The keys of phi . x for the keys x of a block, where phi is h at
        A_0j, the entry at position j, and the identity elsewhere: the maps
        into A_0j become h m and those out of it m h^-1, a column at a
        time.  The columns are read lazily off the block: a temporary per
        key would survive into the collector's oldest generation and make
        it run far more often on a large level."""
        lefts, rights, columns = self.inst.left_rows, self.inst.right_rows, []
        for k, (t, s) in enumerate(self._pos):
            column = map(itemgetter(k), block)
            if t == j:
                column = [lefts[m][h] for m in column]
            elif s == j:
                column = [rights[m][h_inv] for m in column]
            columns.append(column)
        return zip(*columns)

    def components(self):
        """pi0 from the walk of the first rows: a component is the union of
        the blocks of one orbit of first rows, and one orbit of the group
        at its objects.  Blocks are runs of indices, so the components come
        in the order of their smallest index, as a search over every object
        finds them."""
        if self._components is None:
            offsets = self._offsets
            self._comp_of = [c for c, lo, hi in zip(self._comp_rows, offsets,
                                                    offsets[1:])
                             for _ in range(lo, hi)]
            size = Counter(self._comp_of)
            self._components = [
                Component(c, x, size[c], self._aut_order(x, size[c]))
                for c, x in enumerate(self.transversal)]
        return self._components

    def obj_index(self, tri):
        """The index of the triangle tri, whose maps are map ids."""
        return self._index[tri[2] + tri[3] or tri[1]]

    def transport(self, phis, i):
        """The index of the triangle phis . x_i: each map m: A_p -> A_q
        becomes phi_q m phi_p^-1."""
        inv = self._group_of[i].inv(phis)
        lefts, rights = self.inst.left_rows, self.inst.right_rows
        key = self._keys[i]
        return self._index[tuple([rights[lefts[m][phis[t]]][inv[s]]
                                  for m, (t, s) in zip(key, self._pos)])
                           or key]


def _plan(n, k, is_face):
    """How d_k (is_face) or s_k builds the image of a degree-n triangle from
    its flat map ids (row monos, then column epis), as (entries, maps,
    fills):
    - entries: the source position of each entry of the image, or None for
      a zero entry; this is also the GMap's selection;
    - maps: for each map of the image, row monos then column epis, (a, None)
      to copy map a of the flat ids + fills, or (a, b) to compose map a
      after map b;
    - fills: (kind, source entry position) of each map that a zero entry
      or a repeated index puts in: the mono from 0, the epi to 0 or the
      identity of that entry.
    The index map t skips k (face) or repeats it (degeneracy)."""
    m = n - 1 if is_face else n + 1
    t = (lambda x: x + (x >= k)) if is_face else (lambda x: x - (x > k))
    pairs, rkeys, ckeys = _layout(n)
    pos = {p: i for i, p in enumerate(pairs)}
    rpos = {p: i for i, p in enumerate(rkeys)}
    cpos = {p: len(rkeys) + i for i, p in enumerate(ckeys)}
    fills = []

    def fill(kind, i, j):
        fills.append((kind, pos[t(i), t(j)]))
        return (len(rkeys) + len(ckeys) + len(fills) - 1, None)

    tpairs, trkeys, tckeys = _layout(m)
    entries = tuple(None if t(a) == t(b) else pos[t(a), t(b)]
                    for a, b in tpairs)
    maps = []
    for i, j in trkeys:             # the mono A_ij >-> A_i,j+1
        if t(i) == t(j):
            maps.append(fill("from_zero", i, j + 1))
        elif t(j + 1) == t(j):
            maps.append(fill("identity", i, j))
        elif t(j + 1) == t(j) + 1:
            maps.append((rpos[t(i), t(j)], None))
        else:
            maps.append((rpos[t(i), t(j) + 1], rpos[t(i), t(j)]))
    for i, j in tckeys:             # the epi A_ij ->> A_i+1,j
        if t(i + 1) == t(i):
            maps.append(fill("identity", i, j))
        elif t(i + 1) == t(j):
            maps.append(fill("to_zero", i, j))
        elif t(i + 1) == t(i) + 1:
            maps.append((cpos[t(i), t(j)], None))
        else:
            maps.append((cpos[t(i) + 1, t(j)], cpos[t(i), t(j)]))
    return entries, tuple(maps), tuple(fills)


_FILLS = {"from_zero": _mono_from_zero, "to_zero": _epi_to_zero,
          "identity": lambda inst, x: inst.ids[inst.identity(x)]}


def _simplicial_map(inst, src, tgt, k, is_face):
    """Face d_k or degeneracy s_k as a G-map of levels: the index table of
    the triangles' images, built by `_plan` a map at a time over all the
    source's triangles (a column of map ids each: a copy, the composites of
    two columns, or a fill read off each triangle's entries), and entry
    (a, b) of an image's automorphism taken from the source entry the plan
    names, or the zero entry's identity."""
    entries, maps, fills = _plan(src.level, k, is_face)
    zero, n_maps = inst.zero_key(), len(src._pos)
    # the image's entries and the fills depend only on the source's entries
    made = {group: (tuple([zero if p is None else ent[p] for p in entries]),
                    tuple([_FILLS[kind](inst, ent[p]) for kind, p in fills]))
            for group, ent in src._entries.items()}
    per_object = (list(map(made.__getitem__, src._group_of))
                  if fills or tgt.level < 2 else None)
    columns = {}

    def column(a):
        if a not in columns:
            columns[a] = (list(map(itemgetter(a), src._keys)) if a < n_maps
                          else [extra[a - n_maps] for _, extra in per_object])
        return columns[a]

    if tgt.level < 2:
        keys = [image_entries for image_entries, _ in per_object]
    else:
        keys = zip(*[column(a) if b is None else list(map(
            inst.composites.__getitem__, zip(column(a), column(b))))
                     for a, b in maps])
    table = list(map(tgt._index.__getitem__, keys))
    name = "d" if is_face else "s"
    return GMap(src, tgt, table, name=f"{name}_{k}^{src.level}", sel=entries,
                fill=inst.aut_group(zero).identity)


def s_construction(inst: ProtoAbelianInstance, depth: int = 3,
                   budget=DEFAULT_TRIANGLE_BUDGET) -> TruncatedSimplicialGroupoid:
    """Levels 0..depth of the flag simplicial groupoid of the instance, over
    all of its classes: the instance's own bound is the truncation.  The
    top level, the largest, is built first, so that its budget checks come
    before any completion."""
    if not 0 <= depth <= 3:
        raise UsageError(f"S-construction depth {depth} is outside 0..3")
    levels = [TriangleGroupoid(inst, n, budget=budget)
              for n in range(depth, -1, -1)][::-1]
    faces = {(n, k): _simplicial_map(inst, levels[n], levels[n - 1], k, True)
             for n in range(1, depth + 1) for k in range(n + 1)}
    degens = {(n, k): _simplicial_map(inst, levels[n], levels[n + 1], k,
                                      False)
              for n in range(depth) for k in range(n + 1)}
    return TruncatedSimplicialGroupoid(levels, faces, degens,
                                       name=f"S({inst.family})")
