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

The S-construction reads the category through one numbering per instance:
each map token it meets gets an int, in first-seen order (`ids[token]`,
decoded by `tokens[id]`); its isos, monos and epis are id lists in the
token lists' order.  The tables on those ints (`composites` on int pairs,
`squares`, the bicartesian test per square, and each map's rows of
composites with the automorphisms of its ends) are memoised on the
instance and filled when an entry is first read, so they die with it.  The
token methods are the definitions that fill the tables, and the tests'
oracles.
`aut_group(c)` is the group on 0..|Aut c|-1, numbered in `isos(c, c)`
order, whose product reads the memoised token `compose`.
"""

from collections import Counter
from functools import cache

from ..groups import FiniteGroup


class _Table(dict):
    """A table that computes a missing entry as fill(key) when first
    read."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


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
        # the numbering and its tables, each entry filled when first read
        self.tokens = []                          # map id -> token
        self.ids = _Table(self._number)           # token -> map id
        self.composites = _Table(self._compose)   # (g, f) -> id of g f
        self.squares = _Table(self._bicartesian)  # (i, p, q, j) -> bool
        self._lists = _Table(self._list)  # (isos/monos/epis, x, y) -> ids
        # map id m -> its row of composites phi m with the automorphisms
        # of its target (left) or m psi with those of its source (right),
        # by their numbers in `aut_group`: phi_q m phi_p^-1 is
        # right_rows[left_rows[m][q]][p^-1], two lookups
        self.left_rows = _Table(lambda m: self._row(m, True))
        self.right_rows = _Table(lambda m: self._row(m, False))

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

    # -- the numbering and its tables ----------------------------------------

    def _number(self, f):
        self.tokens.append(f)
        return len(self.tokens) - 1

    def _list(self, key):
        maps, x, y = key
        return list(map(self.ids.__getitem__, maps(x, y)))

    def iso_ids(self, x) -> list:
        """The map ids of `isos(x, x)`, in its order, and so numbered as
        `aut_group(x)` numbers them."""
        return self._lists[self.isos, x, x]

    def mono_ids(self, x, y) -> list:
        return self._lists[self.monos, x, y]

    def epi_ids(self, x, y) -> list:
        return self._lists[self.epis, x, y]

    def _compose(self, pair):
        g, f = pair
        return self.ids[self.compose(self.tokens[g], self.tokens[f])]

    def _bicartesian(self, square):
        return self.square_bicartesian(*map(self.tokens.__getitem__, square))

    def _row(self, m, left):
        """m's left or right row, which holds m at the identity."""
        end = self.tokens[m][1 if left else 0]
        isos, composites = self.iso_ids(end), self.composites
        row = _Table((lambda a: composites[isos[a], m]) if left
                     else (lambda a: composites[m, isos[a]]))
        row[self.aut_group(end).identity] = m
        return row

    def aut_group(self, key) -> FiniteGroup:
        """Aut(key) on 0..|Aut key|-1, numbered in `isos(key, key)` order,
        one group per class and instance."""
        isos, compose = self.isos(key, key), self.compose
        pos = {f: a for a, f in enumerate(isos)}
        return FiniteGroup(range(len(isos)),
                           lambda a, b: pos[compose(isos[a], isos[b])],
                           name=f"Aut({self.family}:{key})", check=False)
