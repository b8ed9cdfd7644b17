"""Free representations of a finite group G over F_1: finite pointed sets
with a free G-action and G-equivariant partial bijections.

Objects are ranks n (the skeletal object has basis orbits 1..n); a map is a
tuple over source orbits with entry None (killed) or (target orbit, twist),
meaning x_i -> g . y_t, injective on surviving orbits.  Kernels are the
killed orbits; cokernels drop the image; short exact sequences are wedge
decompositions into G-stable subsets.
"""

from functools import cache
from itertools import permutations

from .. import UsageError
from ..groups import FiniteGroup
from .base import ProtoAbelianInstance


class F1FreeG(ProtoAbelianInstance):
    family = "f1-free"

    def __init__(self, G: FiniteGroup, bound: int):
        if bound < 0:
            raise UsageError(f"f1-free: bound {bound} must be >= 0")
        self.G = G
        self.bound = bound

    def iso_classes(self):
        return list(range(self.bound + 1))

    def size_of(self, key):
        return key

    def zero_key(self):
        return 0

    def aut_order(self, key):
        from math import factorial
        return (self.G.order ** key) * factorial(key)

    @cache
    def _injections(self, x, y):
        """All (orbit injection, twists) maps x -> y with every orbit
        surviving."""
        out = []
        gl = self.G.elements
        for tgts in permutations(range(y), x):
            stack = [()]
            for t in tgts:
                stack = [s + ((t, g),) for s in stack for g in gl]
            out.extend((x, y, data) for data in stack)
        return out

    def isos(self, x, y):
        if x != y:
            return []
        return self._injections(x, x)

    def monos(self, x, y):
        if x > y:
            return []
        return self._injections(x, y)

    @cache
    def epis(self, x, y):
        if x < y:
            return []
        from itertools import combinations
        out = []
        for survivors in combinations(range(x), y):
            for (sx, sy, data) in self._injections(y, y):
                full = [None] * x
                for k, i in enumerate(survivors):
                    full[i] = data[k]
                out.append((x, y, tuple(full)))
        return out

    @cache
    def compose(self, g, f):
        assert f[1] == g[0]
        data = []
        for entry in f[2]:
            if entry is None:
                data.append(None)
                continue
            t, a = entry
            nxt = g[2][t]
            if nxt is None:
                data.append(None)
            else:
                u, b = nxt
                # x -> a.y_t, y_t -> b.z_u gives x -> (a b).z_u by equivariance
                data.append((u, self.G.op(a, b)))
        return (f[0], g[1], tuple(data))

    def identity(self, x):
        e = self.G.identity
        return (x, x, tuple((i, e) for i in range(x)))

    def subobjects(self, m):
        """G-stable pointed free subsets = subsets of basis orbits."""
        from itertools import combinations
        out = []
        for k in range(m + 1):
            out.extend(frozenset(c) for c in combinations(range(m), k))
        return out

    def classify_sub(self, m, u):
        return len(u)

    def classify_quot(self, m, u):
        return m - len(u)

    @cache
    def image_sub(self, f):
        return frozenset(entry[0] for entry in f[2] if entry is not None)

    @cache
    def preimage_sub(self, f, sub):
        return frozenset(i for i, entry in enumerate(f[2])
                         if entry is None or entry[0] in sub)

    def zero_sub(self, x):
        return frozenset()
