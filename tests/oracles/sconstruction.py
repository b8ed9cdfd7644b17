"""Oracles for the S-construction levels, on map tokens.

- `enumerate_triangles`: every degree-n triangle, by a search over all
  classes, epis and monos at each entry, with every square checked by
  the token `square_bicartesian`;
- `face_triangle` and `degeneracy_triangle`: the image of one triangle,
  built entry by entry;
- `per_row_level`: a level built one first row at a time, on map ids,
  each row's entries read and its completion found and transported by
  K+(r), with pi0 by a block search over the first rows;
- two models equivalent to the levels: the flags 0 >-> A_1 >-> ... >-> A_n
  with no quotient data, acted on by the automorphism groups of map
  tokens (`token_aut_group`), and, for level 1, the skeletal core of the
  instance.  A comparison functor from the triangle levels to each must be
  an equivalence.

The levels hold map ids; `token_triangle` decodes them to the token
triangles these oracles build, and an automorphism of class c numbered a
is `inst.isos(c, c)[a]`."""

from itertools import product
from math import prod

from hallalg import BudgetExceededError
from hallalg.groupoid import ActionGroupoid, FnFunctor, b_group
from hallalg.groups import FiniteGroup, TupleGroup
from hallalg.waldhausen.sconstruction import (DEFAULT_TRIANGLE_BUDGET,
                                              Triangle, _complete, _entries,
                                              _first_rows, _layout)
from oracles.groupoid import DisjointUnion


def _unique(maps, what):
    if len(maps) != 1:
        raise ValueError(f"expected exactly one {what}, found {len(maps)}")
    return maps[0]


def epi_to_zero(inst, x):
    return _unique(inst.epis(x, inst.zero_key()), f"epi {x} ->> 0")


def mono_from_zero(inst, x):
    return _unique(inst.monos(inst.zero_key(), x), f"mono 0 >-> {x}")


def square_ok(inst, entries, rmono, cepi, i, j):
    """Bicartesian check, on tokens, for the square between rows i,i+1 and
    cols j-1,j (j >= i+2); the j-1 == i+1 boundary uses the zero
    corner."""
    m = rmono[(i, j - 1)]
    q = cepi[(i, j)]
    if j - 1 == i + 1:
        p = epi_to_zero(inst, entries[(i, j - 1)])
        jm = mono_from_zero(inst, entries[(i + 1, j)])
    else:
        p = cepi[(i, j - 1)]
        jm = rmono[(i + 1, j - 1)]
    return inst.square_bicartesian(m, p, q, jm)


def token_triangle(level, i):
    """Triangle i of the level with its map ids decoded to the instance's
    tokens."""
    n, entries, rmono, cepi = level.objects[i]
    token = level.inst.tokens.__getitem__
    return Triangle(n, entries, tuple(map(token, rmono)),
                    tuple(map(token, cepi)))


def token_aut_group(inst, c):
    """Aut(c) on the map tokens `inst.isos(c, c)`, composed by the token
    `compose`: the group the instance's int `aut_group(c)` numbers."""
    return FiniteGroup(inst.isos(c, c), inst.compose,
                       name=f"Aut({inst.family}:{c})", check=False)


def _triangle(n, entries, rmono, cepi):
    """The Triangle of dicts keyed by (i, j)."""
    pairs, rkeys, ckeys = _layout(n)
    return Triangle(n, tuple(entries[p] for p in pairs),
                    tuple(rmono[p] for p in rkeys),
                    tuple(cepi[p] for p in ckeys))


def enumerate_triangles(inst, n: int, budget=DEFAULT_TRIANGLE_BUDGET):
    """All valid degree-n triangles, by a search over every class, epi and
    mono at each entry, with every square checked once the triangle
    closes."""
    classes = inst.iso_classes()
    if n == 0:
        return [_triangle(0, {}, {}, {})]

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
                    zero_c = inst.image_sub(inst.monos(inst.zero_key(), c)[0])
                    for e in inst.epis(src, c):
                        if inst.preimage_sub(e, zero_c) != im_first:
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
            if all(square_ok(inst, entries, rmono, cepi, i, j)
                   for i in range(n - 1) for j in range(i + 2, n + 1)):
                out.append(_triangle(n, entries, rmono, cepi))
        if len(out) > budget:
            raise over_budget(len(out), "triangles")
    return out


def face_triangle(inst, tri, k: int):
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
    return _triangle(n - 1, entries, rmono, cepi)


def degeneracy_triangle(inst, tri, k: int):
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
                rmono[(i, j)] = mono_from_zero(inst, b)
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
                cepi[(i, j)] = epi_to_zero(inst, a)
            else:
                cepi[(i, j)] = ce[(t(i), t(j))]
    return _triangle(n + 1, entries, rmono, cepi)


class FlagGroupoid(ActionGroupoid):
    """Flags 0 >-> A_1 >-> ... >-> A_n of map tokens, with
    prod Aut(A_k) of token isos acting by m_k -> phi_k+1 m_k phi_k^-1, one
    group per tuple of entries."""

    def __init__(self, inst, n):
        self.inst = inst
        self.level = n
        classes = inst.iso_classes()
        flags = [((), ())] if n == 0 else [((c,), ()) for c in classes]
        for _ in range(n - 1):
            flags = [(entries + (c,), monos + (m,))
                     for entries, monos in flags for c in classes
                     for m in inst.monos(entries[-1], c)]
        super().__init__(None, flags, self.transport,
                         name=f"Flags_{n}({inst.family})")
        auts = {c: token_aut_group(inst, c) for c in classes}
        groups = {entries: TupleGroup([auts[c] for c in entries],
                                      f"Aut{entries}")
                  for entries, _ in flags}
        self._group_of = [groups[entries] for entries, _ in flags]

    def group_at(self, i):
        return self._group_of[i]

    def transport(self, phis, i):
        entries, monos = self.objects[i]
        inv = self._group_of[i].inv(phis)
        c = self.inst.compose
        return self.obj_index((entries, tuple(
            c(c(phis[k + 1], m), inv[k]) for k, m in enumerate(monos))))


def flag_comparison_functor(tri_level, flags: FlagGroupoid):
    """Project a triangle to its first row, decoded to tokens, and its
    automorphisms to the token isos of the first row's entries."""
    n, inst = tri_level.level, tri_level.inst

    def obj_map(i):
        tri = token_triangle(tri_level, i)
        ent, rm = tri.entries, tri.rmono
        entries = tuple(ent[(0, j)] for j in range(1, n + 1))
        monos = tuple(rm[(0, j)] for j in range(1, n))
        return flags.obj_index((entries, monos))

    pairs = _layout(n)[0]
    first_row = [pairs.index((0, j)) for j in range(1, n + 1)]

    def mor_map(m):
        phis, i = m
        entries = tri_level.objects[i][1]
        return (tuple(inst.isos(entries[k], entries[k])[phis[k]]
                      for k in first_row), obj_map(i))

    return FnFunctor(tri_level, flags, obj_map, mor_map, name="first-row")


def skeletal_core_groupoid(inst):
    """Disjoint union of B(Aut(c)) over iso classes: the instance's core."""
    classes = inst.iso_classes()
    parts = [b_group(inst.aut_group(c), name=f"B(Aut:{c})") for c in classes]
    return DisjointUnion(parts, name=f"core({inst.family})"), classes


def core_comparison_functor(x1):
    """X_[1] -> skeletal core, sending a triangle to its entry A_01."""
    inst = x1.inst
    core, classes = skeletal_core_groupoid(inst)
    cls_pos = {c: k for k, c in enumerate(classes)}

    def obj_map(i):
        tri = x1.objects[i]
        return core.offsets[cls_pos[tri.entries[(0, 1)]]]

    def mor_map(m):
        phis, i = m
        return (cls_pos[x1.objects[i].entries[(0, 1)]], (phis[0], 0))

    return FnFunctor(x1, core, obj_map, mor_map, name="to-core")


def per_row_level(inst, n: int, budget=DEFAULT_TRIANGLE_BUDGET):
    """Level n built one first row at a time: each row's entries
    (`_entries`) and completion (`_complete`), transported by every
    element of K+(r); and pi0 by a block search over the first rows, under
    the generators of row 0's factors.  Returns (rows, blocks,
    components): the first rows in `_first_rows` order, the set of
    triangle keys over each, and (rep, size, aut_order) per component,
    with the blocks numbered as runs of indices in row order."""
    name = f"S_{n}({inst.family})"
    pairs, rkeys, ckeys = _layout(n)
    pos = {p: k for k, p in enumerate(pairs)}
    maps_at = ([(pos[a, b + 1], pos[a, b]) for a, b in rkeys]
               + [(pos[a + 1, b], pos[a, b]) for a, b in ckeys])
    lefts, rights = inst.left_rows, inst.right_rows
    rows = _first_rows(inst, n, budget, name)
    blocks, offsets, orders = [], [0], []
    for entries, monos in rows:
        e = _entries(inst, (entries, monos))
        maps = _complete(inst, n, e, monos, name)
        groups = [inst.aut_group(c) for c in e]
        free = [K.elements if i else [K.identity]
                for (i, _), K in zip(pairs, groups)]
        block = set()
        for phis in product(*free):
            inv = [K.inv(x) for K, x in zip(groups, phis)]
            block.add(tuple(rights[lefts[m][phis[t]]][inv[s]]
                            for m, (t, s) in zip(maps, maps_at)) or e)
        blocks.append(block)
        offsets.append(offsets[-1] + len(block))
        orders.append(prod(K.order for K in groups))
    where = {row: b for b, row in enumerate(rows)}
    seen, components = set(), []
    for start in range(len(rows)):
        if start in seen:
            continue
        seen.add(start)
        stack, size = [start], 0
        while stack:
            b = stack.pop()
            size += len(blocks[b])
            entries, monos = rows[b]
            for j, c in enumerate(entries):
                K = inst.aut_group(c)
                for h in K.generators():
                    moved = list(monos)
                    if j:
                        moved[j - 1] = lefts[monos[j - 1]][h]
                    if j < len(monos):
                        moved[j] = rights[monos[j]][K.inv(h)]
                    to = where[entries, tuple(moved)]
                    if to not in seen:
                        seen.add(to)
                        stack.append(to)
        components.append((offsets[start], size, orders[start] // size))
    return rows, blocks, components
