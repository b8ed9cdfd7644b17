"""Finite groupoids with exact hom-sets.

Objects are indexed 0..n-1; morphisms are hashable tokens interpreted by the
owning groupoid (source/target/compose/inverse).  Hom-sets are enumerated
on demand (ActionGroupoid, fiber products), so exact bijection tests stay
decidable without materialising morphism tables.

pi0 is computed by BFS over a generating family of morphisms; components are
ordered by their smallest object index and carry the automorphism-group
order of a representative.  In an action groupoid a component is one orbit
of the group at its objects, so that order is |group| / |orbit|
(orbit-stabiliser), found with no scan of the group; a subclass may find
the same list another way (the Hecke-Waldhausen coset levels search only
the tuples that start at coset 0).
`from_rep` gives a morphism from the representative to any object, which is
how 2-fiber products locate objects on their skeleton.
"""

from dataclasses import dataclass
from fractions import Fraction

from ..groups import FiniteGroup, trivial_group

DEFAULT_OBJECT_BUDGET = 10 ** 6


@dataclass(frozen=True)
class Component:
    index: int
    rep: int          # object index of the representative; in a
                      # FiberSkeleton, the object (a, b, phi) itself
    size: int         # number of objects
    aut_order: int    # |Aut(rep)|


class Groupoid:
    """Base: subclasses define objects and the morphism token protocol."""

    objects: list

    def __init__(self, objects, name="X"):
        self.objects = list(objects)
        self.name = name
        self._obj_index = None
        self._components = None
        self._comp_of = None
        self._from_rep = None

    # -- object indexing ----------------------------------------------------

    @property
    def n_objects(self):
        return len(self.objects)

    def obj_index(self, obj):
        if self._obj_index is None:
            self._obj_index = {o: i for i, o in enumerate(self.objects)}
        return self._obj_index[obj]

    # -- morphism token protocol (subclass responsibility) ------------------

    def out(self, i):
        """All morphisms with source object index i."""
        raise NotImplementedError

    def gens_out(self, i):
        """A family of morphisms out of i sufficient to generate."""
        raise NotImplementedError

    def mor_src(self, m) -> int:
        raise NotImplementedError

    def mor_tgt(self, m) -> int:
        raise NotImplementedError

    def compose(self, m2, m1):
        """m2 after m1; requires mor_src(m2) == mor_tgt(m1)."""
        raise NotImplementedError

    def identity(self, i):
        raise NotImplementedError

    def inverse(self, m):
        raise NotImplementedError

    def hom(self, i, j) -> list:
        """All morphisms i -> j."""
        raise NotImplementedError

    def aut_size(self, i) -> int:
        """|Aut(i)|."""
        raise NotImplementedError

    def _aut_order(self, rep, size) -> int:
        """|Aut(rep)| for the component of `size` objects at `rep`."""
        return self.aut_size(rep)

    def neighbors(self, i):
        """Targets of generating morphisms out of i (for pi0 BFS)."""
        for m in self.gens_out(i):
            yield self.mor_tgt(m)

    # -- pi0 -----------------------------------------------------------------

    def components(self) -> list[Component]:
        if self._components is None:
            n = self.n_objects
            comp_of = [-1] * n
            comps = []
            for start in range(n):
                if comp_of[start] >= 0:
                    continue
                idx = len(comps)
                comp_of[start] = idx
                stack = [start]
                size = 1
                while stack:
                    x = stack.pop()
                    for t in self.neighbors(x):
                        if comp_of[t] < 0:
                            comp_of[t] = idx
                            stack.append(t)
                            size += 1
                comps.append(Component(idx, start, size,
                                       self._aut_order(start, size)))
            self._comp_of = comp_of
            self._components = comps
        return self._components

    def component_of(self, i) -> int:
        self.components()
        return self._comp_of[i]

    def from_rep(self, i):
        """A morphism from the representative of i's component to i; the
        tree of them is built once, by BFS over the generating morphisms."""
        if self._from_rep is None:
            tree = [None] * self.n_objects
            for c in self.components():
                tree[c.rep] = self.identity(c.rep)
                stack = [c.rep]
                while stack:
                    x = stack.pop()
                    for m in self.gens_out(x):
                        t = self.mor_tgt(m)
                        if tree[t] is None:
                            tree[t] = self.compose(m, tree[x])
                            stack.append(t)
            self._from_rep = tree
        return self._from_rep[i]

    def generating_morphisms(self):
        """A set of morphisms generating the groupoid under composition and
        inverses: BFS spanning-tree edges plus Aut(rep) per component.
        Functors agreeing here (and on objects) agree everywhere."""
        if getattr(self, "_genmors", None) is None:
            gens = []
            n = self.n_objects
            seen = [False] * n
            for start in range(n):
                if seen[start]:
                    continue
                seen[start] = True
                gens.extend(self.hom(start, start))
                stack = [start]
                while stack:
                    x = stack.pop()
                    for m in self.gens_out(x):
                        t = self.mor_tgt(m)
                        if not seen[t]:
                            seen[t] = True
                            gens.append(m)
                            stack.append(t)
            self._genmors = gens
        return self._genmors

    def cardinality(self) -> Fraction:
        """Groupoid cardinality: sum over components of 1/#Aut."""
        return sum((Fraction(1, c.aut_order) for c in self.components()),
                   Fraction(0))

    def __repr__(self):
        return f"{type(self).__name__}({self.name}, objects={self.n_objects})"


class ActionGroupoid(Groupoid):
    """Action groupoid of a finite group on a finite set.

    Morphism tokens are (g, src_index) with target act(g, src_index);
    composition is group multiplication.  The group acting at an object is
    looked up by `group_at`: `group` everywhere, unless a subclass splits
    the objects into blocks, each with its own group mapping it to itself.
    `act` is taken to be an action: every caller builds one by
    construction, and the tests check the axioms.
    """

    def __init__(self, group: FiniteGroup, objects, act, name="X//G"):
        super().__init__(objects, name=name)
        self.group = group
        self.act = act

    def group_at(self, i) -> FiniteGroup:
        """The group whose elements are the morphisms out of object i."""
        return self.group

    def out(self, i):
        return [(g, i) for g in self.group_at(i).elements]

    def gens_out(self, i):
        return [(g, i) for g in self.group_at(i).generators()]

    def mor_src(self, m):
        return m[1]

    def mor_tgt(self, m):
        return self.act(m[0], m[1])

    def compose(self, m2, m1):
        return (self.group_at(m1[1]).op(m2[0], m1[0]), m1[1])

    def identity(self, i):
        return (self.group_at(i).identity, i)

    def inverse(self, m):
        return (self.group_at(m[1]).inv(m[0]), self.mor_tgt(m))

    def hom(self, i, j):
        return [(g, i) for g in self.group_at(i).elements
                if self.act(g, i) == j]

    def aut_size(self, i):
        return sum(1 for g in self.group_at(i).elements
                   if self.act(g, i) == i)

    def _aut_order(self, rep, size):
        # a component is one orbit of the group at its objects
        return self.group_at(rep).order // size


def b_group(G: FiniteGroup, name=None) -> ActionGroupoid:
    """One object, morphisms G."""
    return ActionGroupoid(G, ["*"], lambda g, i: 0,
                          name=name or f"B({G.name})")


def point_groupoid() -> ActionGroupoid:
    return b_group(trivial_group(), name="pt")


def discrete_groupoid(labels, name="discrete") -> ActionGroupoid:
    return ActionGroupoid(trivial_group(), labels, lambda g, i: i, name=name)


def pi0(g: Groupoid) -> list[Component]:
    """Connected components with representative, size and Aut order."""
    return g.components()


class DisjointUnion(Groupoid):
    """Coproduct of groupoids; tokens are (part, inner token)."""

    def __init__(self, parts, name=None):
        self.parts = list(parts)
        self.offsets = []
        objs = []
        for p in self.parts:
            self.offsets.append(len(objs))
            objs.extend((len(self.offsets) - 1, o) for o in p.objects)
        super().__init__(objs,
                         name=name or "+".join(p.name for p in self.parts))

    def _locate(self, i):
        for k in range(len(self.parts) - 1, -1, -1):
            if i >= self.offsets[k]:
                return k, i - self.offsets[k]
        raise IndexError(i)

    def out(self, i):
        k, j = self._locate(i)
        return [(k, m) for m in self.parts[k].out(j)]

    def gens_out(self, i):
        k, j = self._locate(i)
        return [(k, m) for m in self.parts[k].gens_out(j)]

    def mor_src(self, m):
        k, t = m
        return self.offsets[k] + self.parts[k].mor_src(t)

    def mor_tgt(self, m):
        k, t = m
        return self.offsets[k] + self.parts[k].mor_tgt(t)

    def compose(self, m2, m1):
        if m2[0] != m1[0]:
            raise ValueError(f"{self.name}: morphisms of parts {m1[0]} and "
                             f"{m2[0]} do not compose")
        return (m1[0], self.parts[m1[0]].compose(m2[1], m1[1]))

    def identity(self, i):
        k, j = self._locate(i)
        return (k, self.parts[k].identity(j))

    def inverse(self, m):
        return (m[0], self.parts[m[0]].inverse(m[1]))

    def hom(self, i, j):
        ki, oi = self._locate(i)
        kj, oj = self._locate(j)
        if ki != kj:
            return []
        return [(ki, m) for m in self.parts[ki].hom(oi, oj)]

    def aut_size(self, i):
        k, j = self._locate(i)
        return self.parts[k].aut_size(j)


class FullSubgroupoid(Groupoid):
    """Full subcategory on a union of components of the ambient groupoid."""

    def __init__(self, ambient: Groupoid, object_indices, name=None):
        self.ambient = ambient
        self.inner = list(object_indices)
        self.to_sub = {o: i for i, o in enumerate(self.inner)}
        # must be closed under morphisms
        for o in self.inner:
            for t in ambient.neighbors(o):
                if t not in self.to_sub:
                    raise ValueError(f"the objects of {name or ambient.name} "
                                     f"are not a union of components: {o} "
                                     f"reaches {t}")
        super().__init__([ambient.objects[o] for o in self.inner],
                         name=name or f"sub({ambient.name})")

    def out(self, i):
        return self.ambient.out(self.inner[i])

    def gens_out(self, i):
        return self.ambient.gens_out(self.inner[i])

    def mor_src(self, m):
        return self.to_sub[self.ambient.mor_src(m)]

    def mor_tgt(self, m):
        return self.to_sub[self.ambient.mor_tgt(m)]

    def compose(self, m2, m1):
        return self.ambient.compose(m2, m1)

    def identity(self, i):
        return self.ambient.identity(self.inner[i])

    def inverse(self, m):
        return self.ambient.inverse(m)

    def hom(self, i, j):
        return self.ambient.hom(self.inner[i], self.inner[j])

    def aut_size(self, i):
        return self.ambient.aut_size(self.inner[i])
