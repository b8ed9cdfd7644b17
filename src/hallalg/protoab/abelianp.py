"""Finite abelian p-groups, classified by partition type.

The object of type lam is prod_i Z/p^lam_i with elements stored as tuples;
a homomorphism is the tuple of images of the standard generators e_i (each
of order dividing p^lam_i).  Hall constants are Hall polynomials
(`exactmath.halllittlewood`); subgroups are enumerated by closure and
classified, together with their quotients, by counting p^k-torsion, which is
the oracle for them.
"""

from collections import Counter
from itertools import accumulate, product as iproduct
from math import log

from .. import UsageError
from ..exactmath.partitions import check_partition, conjugate, partitions_of
from .base import ProtoAbelianInstance


class AbelianPGroups(ProtoAbelianInstance):
    family = "ab-p-groups"
    _cached = ("elements", "_homs", "compose", "subobjects", "image_sub",
               "preimage_sub", "_mods", "_torsion")

    def __init__(self, p: int, order_bound: int):
        if not (p >= 2 and all(p % k for k in range(2, p))):
            raise UsageError(f"ab-p-groups: p = {p} must be prime")
        if not 1 <= order_bound <= 64:
            raise UsageError(f"ab-p-groups: order bound {order_bound} is "
                             "outside 1..64")
        self.p = p
        self.order_bound = order_bound
        self.max_size = int(log(order_bound, p) + 1e-9)
        self._image_sizes = {}      # hom -> |image|, for isos/monos/epis
        self._hall = None           # HallPolynomials(p), made on first use
        super().__init__()

    def iso_classes(self):
        out = []
        for n in range(self.max_size + 1):
            out.extend(partitions_of(n))
        return out

    def size_of(self, key):
        return sum(key)

    def zero_key(self):
        return ()

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
        size = self._image_sizes.get(f)
        if size is None:
            size = self._image_sizes[f] = len(
                {self.apply(f, a) for a in self.elements(f[0])})
        return size

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

    def hall_constant(self, n, l, m):
        """The Hall polynomial g^M_{N,L}(p), from Hall-Littlewood
        P-functions at t = 1/p."""
        if sum(l) + sum(n) != sum(m):
            return 0
        if self._hall is None:
            # imported here so that `import hallalg` does not load it
            from ..exactmath.halllittlewood import HallPolynomials
            self._hall = HallPolynomials(self.p)
        return self._hall(m, n, l)

    def compose(self, g, f):
        if f[1] != g[0]:
            raise ValueError(f"compose: target {f[1]!r} is not source "
                             f"{g[0]!r}")
        imgs = tuple(self.apply(g, img) for img in f[2])
        return (f[0], g[1], imgs)

    def identity(self, x):
        n = len(x)
        imgs = tuple(tuple(1 if i == j else 0 for j in range(n))
                     for i in range(n))
        return (x, x, imgs)

    def subobjects(self, m):
        """All subgroups, by closure over added elements."""
        mods = self._mods(m)

        def add(a, b):
            return tuple((x + y) % k for x, y, k in zip(a, b, mods))

        zero = frozenset([tuple([0] * len(m))])
        found = {zero}
        frontier = [zero]
        elems = self.elements(m)
        while frontier:
            s = frontier.pop()
            seen = set(s)
            for v in elems:
                if v in seen:
                    continue
                # <s, v> depends only on the coset v + s
                seen.update(add(u, v) for u in s)
                # s is a subgroup, so <s, v> = union of cosets s + k*v
                span = set()
                w = tuple([0] * len(m))
                while True:
                    span.update(add(u, w) for u in s)
                    w = add(w, v)
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
        if any(conj[i] < conj[i + 1] for i in range(len(conj) - 1)):
            raise ValueError(f"torsion counts {counts} are not those of an "
                             f"abelian {self.p}-group")
        return conjugate(tuple(conj))

    def _torsion(self, m):
        """(order, height, kernel) for M of type m: order[x] is the least k
        with p^k x = 0, height[x] the largest k <= max(m) with x in p^k M,
        and kernel[k] = |M[p^k]| for k <= max(m).  The multiples p^k x of
        each element are computed once, for all k."""
        maxk = max(m) if m else 0
        zero = tuple([0] * len(m))
        elems = self.elements(m)
        order, height = {}, dict.fromkeys(elems, 0)
        for x in elems:
            y, k = x, 0
            while y != zero:
                y, k = self.smul(m, self.p, y), k + 1
                height[y] = max(height[y], k)
            order[x] = k
        height[zero] = maxk
        per = Counter(order.values())
        return order, height, list(accumulate(per[k]
                                              for k in range(maxk + 1)))

    def classify_sub(self, m, u):
        order, _, kernel = self._torsion(m)
        per = Counter(order[x] for x in u)
        counts = list(accumulate(per[k] for k in range(len(kernel))))
        return self._type_from_torsion_counts(counts)

    def classify_quot(self, m, u):
        # #{x : p^k x in u} = |M[p^k]| * |u meet p^k M|, since x -> p^k x
        # is a homomorphism onto p^k M
        _, height, kernel = self._torsion(m)
        per = Counter(height[y] for y in u)
        above = list(accumulate(per[k] for k in reversed(range(len(kernel)))))
        counts = []
        for k, size in enumerate(kernel):
            hits = size * above[-1 - k]
            if hits % len(u):
                raise ValueError(f"classify_quot: {sorted(u)} is not a "
                                 f"subgroup of type {m}")
            counts.append(hits // len(u))
        return self._type_from_torsion_counts(counts)

    def image_sub(self, f):
        return frozenset(self.apply(f, a) for a in self.elements(f[0]))

    def preimage_sub(self, f, sub):
        return frozenset(a for a in self.elements(f[0])
                         if self.apply(f, a) in sub)
