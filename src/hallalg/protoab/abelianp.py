"""Finite abelian p-groups, classified by partition type.

The object of type lam is prod_i Z/p^lam_i with elements stored as tuples;
a homomorphism is the tuple of images of the standard generators e_i (each
of order dividing p^lam_i).  Subgroups are enumerated by closure and
classified, together with their quotients, by counting p^k-torsion.
"""

from functools import cache
from itertools import product as iproduct
from math import log

from .. import UsageError
from ..exactmath.partitions import check_partition, conjugate, partitions_of
from .base import ProtoAbelianInstance


class AbelianPGroups(ProtoAbelianInstance):
    family = "ab-p-groups"

    def __init__(self, p: int, order_bound: int):
        if not (p >= 2 and all(p % k for k in range(2, p))):
            raise UsageError(f"ab-p-groups: p = {p} must be prime")
        if not 1 <= order_bound <= 64:
            raise UsageError(f"ab-p-groups: order bound {order_bound} is "
                             "outside 1..64")
        self.p = p
        self.order_bound = order_bound
        self.max_size = int(log(order_bound, p) + 1e-9)

    def iso_classes(self):
        out = []
        for n in range(self.max_size + 1):
            out.extend(partitions_of(n))
        return out

    def size_of(self, key):
        return sum(key)

    def zero_key(self):
        return ()

    @cache
    def elements(self, lam):
        lam = check_partition(lam)
        mods = [self.p ** part for part in lam]
        return [tuple(e) for e in iproduct(*(range(m) for m in mods))]

    def _mods(self, lam):
        return tuple(self.p ** part for part in lam)

    def add(self, lam, a, b):
        mods = self._mods(lam)
        return tuple((x + y) % m for x, y, m in zip(a, b, mods))

    def smul(self, lam, k, a):
        mods = self._mods(lam)
        return tuple((k * x) % m for x, m in zip(a, mods))

    def apply(self, f, a):
        src, dst, imgs = f
        out = tuple([0] * len(dst))
        for coeff, img in zip(a, imgs):
            out = self.add(dst, out, self.smul(dst, coeff, img))
        return out

    @cache
    def _homs(self, x, y):
        """All homomorphisms x -> y as generator-image tuples."""
        pools = []
        for part in x:
            ordbound = self.p ** part
            pool = [e for e in self.elements(y)
                    if self.smul(y, ordbound, e) == tuple([0] * len(y))]
            pools.append(pool)
        out = [()]
        for pool in pools:
            out = [s + (img,) for s in out for img in pool]
        return [(x, y, imgs) for imgs in out]

    def _image_size(self, f):
        return len({self.apply(f, a) for a in self.elements(f[0])})

    def isos(self, x, y):
        if x != y:
            return []
        full = self.p ** sum(x)
        return [f for f in self._homs(x, y) if self._image_size(f) == full]

    def monos(self, x, y):
        full = self.p ** sum(x)
        return [f for f in self._homs(x, y) if self._image_size(f) == full]

    def epis(self, x, y):
        full = self.p ** sum(y)
        return [f for f in self._homs(x, y) if self._image_size(f) == full]

    @cache
    def compose(self, g, f):
        assert f[1] == g[0]
        imgs = tuple(self.apply(g, img) for img in f[2])
        return (f[0], g[1], imgs)

    def identity(self, x):
        n = len(x)
        imgs = tuple(tuple(1 if i == j else 0 for j in range(n))
                     for i in range(n))
        return (x, x, imgs)

    @cache
    def subobjects(self, m):
        """All subgroups, by closure over added elements."""
        zero = frozenset([tuple([0] * len(m))])
        found = {zero}
        frontier = [zero]
        elems = self.elements(m)
        while frontier:
            s = frontier.pop()
            for v in elems:
                if v in s:
                    continue
                # s is a subgroup, so <s, v> = union of cosets s + k*v
                span = set()
                w = tuple([0] * len(m))
                while True:
                    span.update(self.add(m, u, w) for u in s)
                    w = self.add(m, w, v)
                    if w == tuple([0] * len(m)):
                        break
                fs = frozenset(span)
                if fs not in found:
                    found.add(fs)
                    frontier.append(fs)
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def _type_from_torsion_counts(self, counts):
        """counts[k] = #(p^k-torsion); the increments log_p(c_k/c_{k-1}) are
        the conjugate partition."""
        conj = []
        prev = 1
        for c in counts[1:]:
            step = 0
            while prev < c:
                prev_mult = prev * self.p
                step += 1
                prev = prev_mult
            if step == 0:
                break
            conj.append(step)
        assert all(conj[i] >= conj[i + 1] for i in range(len(conj) - 1))
        return conjugate(tuple(conj))

    def classify_sub(self, m, u):
        maxk = max(m) if m else 0
        counts = [len([x for x in u
                       if self.smul(m, self.p ** k, x) == tuple([0] * len(m))])
                  for k in range(maxk + 1)]
        return self._type_from_torsion_counts(counts)

    def classify_quot(self, m, u):
        maxk = max(m) if m else 0
        elems = self.elements(m)
        counts = []
        for k in range(maxk + 1):
            hits = sum(1 for x in elems
                       if self.smul(m, self.p ** k, x) in u)
            assert hits % len(u) == 0
            counts.append(hits // len(u))
        return self._type_from_torsion_counts(counts)

    @cache
    def image_sub(self, f):
        return frozenset(self.apply(f, a) for a in self.elements(f[0]))

    @cache
    def preimage_sub(self, f, sub):
        return frozenset(a for a in self.elements(f[0])
                         if self.apply(f, a) in sub)

    def zero_sub(self, x):
        return frozenset([tuple([0] * len(x))])
