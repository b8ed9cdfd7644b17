"""Two models equivalent to levels of the S-construction: the flags
0 >-> A_1 >-> ... >-> A_n with no quotient data, and, for level 1, the
skeletal core of the instance.  A comparison functor from the triangle
levels to each must be an equivalence."""

from hallalg.groupoid import (ActionGroupoid, DisjointUnion, FnFunctor,
                              b_group)
from hallalg.groups import tuple_group
from hallalg.waldhausen.sconstruction import _pairs


class FlagGroupoid(ActionGroupoid):
    """Flags 0 >-> A_1 >-> ... >-> A_n, with prod Aut(A_k) acting by
    m_k -> phi_k+1 m_k phi_k^-1, one group per tuple of entries."""

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
                         name=f"Flags_{n}({inst.family})", check=False)
        auts = {c: inst.aut_group(c) for c in classes}
        groups = {entries: tuple_group([auts[c] for c in entries],
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
    """Project a triangle to its first row."""
    n = tri_level.level

    def obj_map(i):
        tri = tri_level.objects[i]
        ent, rm = tri.entries, tri.rmono
        entries = tuple(ent[(0, j)] for j in range(1, n + 1))
        monos = tuple(rm[(0, j)] for j in range(1, n))
        return flags.obj_index((entries, monos))

    pairs = _pairs(n)
    first_row = [pairs.index((0, j)) for j in range(1, n + 1)]

    def mor_map(m):
        phis, i = m
        return (tuple(phis[k] for k in first_row), obj_map(i))

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
