"""Enumerable finitary proto-abelian categories: the shared surface.

Concrete objects are the canonical keys themselves (one skeletal object per
iso class); maps are hashable triples (src_key, tgt_key, data).  Each
instance supplies object/map enumeration, images and preimages of
subobjects, and classification of subobjects and quotients; short exact
structure and bicartesian squares are derived here uniformly:

A commuting square  A >-i-> B, epis A -p->> C, B -q->> D, mono C >-j-> D
is bicartesian iff im(i) = q^-1(im(j)); the boundary squares with C = 0
specialize to exactness im(i) = ker(q).
"""

from .. import BudgetExceededError
from ..groups import FiniteGroup


class ProtoAbelianInstance:
    family = "?"

    # -- enumeration surface -------------------------------------------------

    def iso_classes(self) -> list:
        raise NotImplementedError

    def size_of(self, key) -> int:
        raise NotImplementedError

    def zero_key(self):
        raise NotImplementedError

    def aut_order(self, key) -> int:
        return len(self.isos(key, key))

    def isos(self, x, y) -> list:
        raise NotImplementedError

    def monos(self, x, y) -> list:
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

    def zero_sub(self, x):
        raise NotImplementedError

    # -- derived operations ---------------------------------------------------

    def subobjects_with_type(self, m, l, n) -> int:
        """Number of subobjects U of M with U ~ L and M/U ~ N."""
        count = 0
        for u in self.subobjects(m):
            if self.classify_sub(m, u) == l and self.classify_quot(m, u) == n:
                count += 1
        return count

    def count_ses(self, l, m, n, budget: int = 500_000) -> int:
        """Number of pairs (mono L -> M, epi M -> N) with im = ker."""
        monos = self.monos(l, m)
        epis = self.epis(m, n)
        if len(monos) * len(epis) > budget:
            raise BudgetExceededError(
                f"count_ses({l},{m},{n}): {len(monos)}x{len(epis)} pairs")
        count = 0
        images = [self.image_sub(i) for i in monos]
        kernels = [self.preimage_sub(p, self.zero_sub(n)) for p in epis]
        for im in images:
            for ker in kernels:
                if im == ker:
                    count += 1
        return count

    def square_bicartesian(self, i, p, q, j) -> bool:
        """i: A->B, p: A->C, q: B->D, j: C->D; assumes mono/epi placement."""
        assert i[0] == p[0] and i[1] == q[0] and p[1] == j[0] and q[1] == j[1]
        if self.compose(q, i) != self.compose(j, p):
            return False
        return self.image_sub(i) == self.preimage_sub(q, self.image_sub(j))

    def aut_group(self, key) -> FiniteGroup:
        maps = self.isos(key, key)
        return FiniteGroup(maps, self.compose,
                           name=f"Aut({self.family}:{key})", check=False)

    def total_subobjects(self, m) -> int:
        return len(self.subobjects(m))
