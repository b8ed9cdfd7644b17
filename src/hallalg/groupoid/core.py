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
the tuples that start at coset 0).  The checks need only each
component's representative, size and automorphism order, never a morphism
from the representative to another object.
"""

from collections import namedtuple
from functools import cached_property
from fractions import Fraction

from ..groups import FiniteGroup, trivial_group

DEFAULT_OBJECT_BUDGET = 10 ** 6


# rep: the object index of the representative; size: its number of
# objects; aut_order: |Aut(rep)|
Component = namedtuple("Component", "index rep size aut_order")


class Groupoid:
    """Base: subclasses define objects and the morphism token protocol."""

    def __init__(self, objects, name="X"):
        # a sequence is kept, not copied: no groupoid changes its objects
        self.objects = objects
        self.name = name
        self._obj_index = None
        self._components = None
        self._comp_of = None

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
                    for m in self.gens_out(x):
                        t = self.mor_tgt(m)
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
    construction, and the tests check the axioms.  `transversal` is a
    sequence of object indices that meets every orbit, all of them unless
    the caller knows fewer (a triangle level: one triangle per
    component).
    """

    def __init__(self, group: FiniteGroup, objects, act, name="X//G",
                 transversal=None):
        super().__init__(objects, name=name)
        self.group = group
        self.act = act
        self.transversal = (range(len(objects)) if transversal is None
                            else transversal)

    def group_at(self, i) -> FiniteGroup:
        """The group whose elements are the morphisms out of object i."""
        return self.group

    @cached_property
    def indices(self):
        """list(range(n_objects)): index lists pulled into this groupoid
        (GMap.pull) slice it, so that they share its ints, and two of them
        compare entry by entry on identity."""
        return list(range(self.n_objects))

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


def pi0(g: Groupoid) -> list[Component]:
    """Connected components with representative, size and Aut order."""
    return g.components()
