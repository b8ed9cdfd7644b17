"""Finite abelian p-groups, classified by partition type.

The object of type lam is prod_i Z/p^lam_i with elements stored as tuples;
a homomorphism is the tuple of images of the standard generators e_i (each
of order dividing p^lam_i).  Hall constants are Hall polynomials
(`exactmath.halllittlewood`); |Aut lam| and the number of monos mu >-> lam,
|Aut mu| times Birkhoff's count alpha_lam(mu; p) of the subgroups of type
mu, are closed forms (`exactmath.partitions`), so no count lists maps.  A
quotient M/U, which the S-construction's triangles use, is classified by
its p^k-torsion, #{x : p^k x in U} / |U| for each k; listing the
subgroups, the oracle for the Hall constants and the counts, is left to
the tests.  Monos and epis are found without applying any hom to an
element: f is injective iff the images of the socle's basis
p^(lam_i - 1) e_i are independent over F_p, and onto iff the images of
the e_i span y / p y (Frattini); the tests apply every hom to every
element as their oracle.

Every method reads the type of an object through `_type(key)` and names a
type through `_key(lam)`.  Both are the identity here; `VectFq` keys the
elementary abelian types (1^d) by d.
"""

from itertools import product as iproduct
from math import log
from operator import mul

from .. import UsageError
from ..exactmath.partitions import (automorphism_count, check_partition,
                                    conjugate, partitions_of, subgroup_count)
from .base import ProtoAbelianInstance


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, n))


class AbelianPGroups(ProtoAbelianInstance):
    family = "ab-p-groups"
    # aut_order, one entry per class, is read by every level's first rows
    # and closed count; mono_count is not memoised, since on a refused
    # input its memo would hold an entry per pair of classes counted
    _cached = ("elements", "_homs", "isos", "monos", "epis", "compose",
               "image_sub", "preimage_sub", "classify_quot", "_mods",
               "aut_order")

    def __init__(self, p: int, order_bound: int):
        if not is_prime(p):
            raise UsageError(f"ab-p-groups: p = {p} must be prime")
        if not 1 <= order_bound <= 64:
            raise UsageError(f"ab-p-groups: order bound {order_bound} is "
                             "outside 1..64")
        self.p = p
        self.order_bound = order_bound
        self.max_size = int(log(order_bound, p) + 1e-9)
        self._hall = None           # HallPolynomials(p), made on first use
        super().__init__()

    def _type(self, key):
        """The partition type of the object `key`."""
        return key

    def _key(self, lam):
        """The key of the object of type lam."""
        return lam

    def iso_classes(self):
        out = []
        for n in range(self.max_size + 1):
            out.extend(partitions_of(n))
        return out

    def size_of(self, key):
        return sum(key)

    def zero_key(self):
        return ()

    def elements(self, key):
        lam = check_partition(self._type(key))
        mods = [self.p ** part for part in lam]
        return [tuple(e) for e in iproduct(*(range(m) for m in mods))]

    def _mods(self, key):
        return tuple(self.p ** part for part in self._type(key))

    def apply(self, f, a):
        src, dst, imgs = f
        mods = self._mods(dst)
        # the rows of the matrix of f, whose columns are the images
        rows = zip(*imgs) if imgs else [()] * len(mods)
        return tuple([sum(map(mul, a, row)) % m
                      for row, m in zip(rows, mods)])

    def _homs(self, x, y, kind="all"):
        """The homomorphisms x -> y as generator-image tuples, in the
        lexicographic order of the images: all of them, or only the monos
        (kind "mono") or the epis ("epi").  These are found by a
        depth-first walk over the images of x's generators e_i that keeps
        the F_p span of their vectors so far, the socle images
        p^(lam_i - 1) f(e_i) for a mono, f(e_i) mod p for an epi, and
        leaves a prefix as soon as it cannot end independent (a mono) or
        spanning (an epi)."""
        p, lam, mods = self.p, self._type(x), self._mods(y)
        pools = [[e for e in self.elements(y)
                  if not any(p ** part * v % m for v, m in zip(e, mods))]
                 for part in lam]
        if kind == "all":
            return [(x, y, imgs) for imgs in iproduct(*pools)]
        mono = kind == "mono"
        if mono:
            # p^(part - 1) v is p^(mu_j - 1) c_j in coordinate j
            vecs = [[tuple([p ** (part - 1) * v % m // (m // p)
                            for v, m in zip(e, mods)]) for e in pool]
                    for part, pool in zip(lam, pools)]
        else:
            vecs = [[tuple([v % p for v in e]) for e in pool]
                    for pool in pools]
        need, last, out = len(lam) if mono else len(mods), len(lam) - 1, []

        def walk(i, imgs, span, rank):
            for e, v in zip(pools[i], vecs[i]):
                grows = v not in span
                if rank + grows + last - i < need:
                    continue            # too few images left to reach need
                if i == last:
                    out.append((x, y, imgs + (e,)))
                elif grows:
                    walk(i + 1, imgs + (e,),
                         {tuple([(a + c * b) % p for a, b in zip(u, v)])
                          for u in span for c in range(p)}, rank + 1)
                else:
                    walk(i + 1, imgs + (e,), span, rank)

        if not lam:
            return [(x, y, ())] if need == 0 else []
        walk(0, (), {(0,) * len(mods)}, 0)
        return out

    def aut_order(self, key):
        return automorphism_count(self._type(key), self.p)

    def mono_count(self, x, y):
        """|Aut x| times the number of subgroups of y of x's type."""
        return (self.aut_order(x)
                * subgroup_count(self._type(y), self._type(x), self.p))

    def isos(self, x, y):
        return self._homs(x, x, "mono") if x == y else []

    def monos(self, x, y):
        if self.size_of(x) > self.size_of(y):
            return []
        return self._homs(x, y, "mono")

    def epis(self, x, y):
        """The epis x -> y; those of x -> x are its monos, one list."""
        if self.size_of(y) > self.size_of(x):
            return []
        return self._homs(x, y, "mono" if x == y else "epi")

    def hall_constant(self, n, l, m):
        """The Hall polynomial g^M_{N,L}(p), from Hall-Littlewood
        P-functions at t = 1/p."""
        if sum(l) + sum(n) != sum(m):
            return 0
        if self._hall is None:
            # imported on the first Hall polynomial, so that loading this
            # layer, for the S-construction of this family or for another
            # family, does not compile the Hall-Littlewood module
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
        n = len(self._type(x))
        imgs = tuple(tuple(1 if i == j else 0 for j in range(n))
                     for i in range(n))
        return (x, x, imgs)

    def _type_from_torsion_counts(self, counts):
        """counts[k] = #(p^k-torsion); the increments log_p(c_k/c_{k-1}) are
        the conjugate partition."""
        conj = []
        prev = 1
        for c in counts[1:]:
            step, size = 0, prev
            while size < c:
                size, step = size * self.p, step + 1
            if size != c:
                raise ValueError(f"torsion counts {counts}: {c} is not "
                                 f"{prev} times a power of {self.p}")
            if step == 0:
                break
            conj.append(step)
            prev = c
        if any(conj[i] < conj[i + 1] for i in range(len(conj) - 1)):
            raise ValueError(f"torsion counts {counts} are not those of an "
                             f"abelian {self.p}-group")
        return conjugate(tuple(conj))

    def classify_quot(self, m, u):
        # counts[k] = #{x : p^k x in u} / |u|, the p^k-torsion of M/u
        lam, mods = self._type(m), self._mods(m)
        hits = [0] * ((max(lam) if lam else 0) + 1)
        for x in self.elements(m):
            for k in range(len(hits)):
                hits[k] += x in u
                x = tuple([self.p * v % n for v, n in zip(x, mods)])
        if any(h % len(u) for h in hits):
            raise ValueError(f"classify_quot: {sorted(u)} is not a "
                             f"subgroup of type {m}")
        counts = [h // len(u) for h in hits]
        return self._key(self._type_from_torsion_counts(counts))

    def image_sub(self, f):
        return frozenset(self.apply(f, a) for a in self.elements(f[0]))

    def preimage_sub(self, f, sub):
        return frozenset(a for a in self.elements(f[0])
                         if self.apply(f, a) in sub)
