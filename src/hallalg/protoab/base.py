"""Enumerable finitary proto-abelian categories: the shared surface.

Concrete objects are the canonical keys themselves (one skeletal object per
iso class); maps are hashable triples (src_key, tgt_key, data).  Each
instance supplies object/map enumeration, the closed counts of
automorphisms, monos and Hall constants (no count lists maps), images and
preimages of subobjects, and classification of quotients; this class only
declares them.  Short exact structure and bicartesian squares are derived
here uniformly:

A commuting square  A >-i-> B, epis A -p->> C, B -q->> D, mono C >-j-> D
is bicartesian iff im(i) = q^-1(im(j)); the boundary squares with C = 0
specialize to exactness im(i) = ker(q).

Listing and classifying subobjects is left to an instance that counts them
(`subobjects_with_type`), as F_1[G] does.
"""

from collections import Counter
from functools import cache

from ..groups import FiniteGroup


class ProtoAbelianInstance:
    family = "?"
    _cached = ()    # names of the methods each instance memoises, besides
                    # aut_group

    def __init__(self):
        self._sub_types = {}        # M -> Counter of (sub type, quot type)
        # one memo per instance, dropped with it; a cache on the class
        # would keep every instance alive
        for name in ("aut_group", *self._cached):
            setattr(self, name, cache(getattr(self, name)))

    # -- enumeration surface -------------------------------------------------

    def iso_classes(self) -> list:
        raise NotImplementedError

    def size_of(self, key) -> int:
        raise NotImplementedError

    def zero_key(self):
        raise NotImplementedError

    def aut_order(self, key) -> int:
        raise NotImplementedError

    def isos(self, x, y) -> list:
        raise NotImplementedError

    def monos(self, x, y) -> list:
        raise NotImplementedError

    def mono_count(self, x, y) -> int:
        """The number of monos x >-> y, from the family's closed form."""
        raise NotImplementedError

    def epis(self, x, y) -> list:
        raise NotImplementedError

    def compose(self, g, f):
        raise NotImplementedError

    def identity(self, x):
        raise NotImplementedError

    def subobjects(self, m) -> list:
        raise NotImplementedError

    def classify_sub(self, m, u):
        raise NotImplementedError

    def classify_quot(self, m, u):
        raise NotImplementedError

    def image_sub(self, f):
        raise NotImplementedError

    def preimage_sub(self, f, sub):
        raise NotImplementedError

    def hall_constant(self, n, l, m) -> int:
        """g^M_{N,L}, the number of subobjects U of M with U ~ L and
        M/U ~ N, from the family's closed form."""
        raise NotImplementedError

    # -- derived operations ---------------------------------------------------

    def subobjects_with_type(self, m, l, n) -> int:
        """Number of subobjects U of M with U ~ L and M/U ~ N, by
        enumeration: the oracle for `hall_constant`.  Each subobject of M is
        classified once, for all (L, N)."""
        types = self._sub_types.get(m)
        if types is None:
            types = self._sub_types[m] = Counter(
                (self.classify_sub(m, u), self.classify_quot(m, u))
                for u in self.subobjects(m))
        return types[l, n]

    def square_bicartesian(self, i, p, q, j) -> bool:
        """i: A->B, p: A->C, q: B->D, j: C->D; assumes mono/epi placement."""
        if not (i[0] == p[0] and i[1] == q[0] and p[1] == j[0]
                and q[1] == j[1]):
            raise ValueError("square_bicartesian: the maps do not form a "
                             "square A->B, A->C, B->D, C->D")
        if self.compose(q, i) != self.compose(j, p):
            return False
        return self.image_sub(i) == self.preimage_sub(q, self.image_sub(j))

    def aut_group(self, key) -> FiniteGroup:
        """Aut(key), one group per class and instance."""
        maps = self.isos(key, key)
        return FiniteGroup(maps, self.compose,
                           name=f"Aut({self.family}:{key})", check=False)
