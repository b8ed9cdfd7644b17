"""Finite dimensional vector spaces over F_q (q prime).

Objects are dimensions d <= bound; maps are matrices as row tuples acting on
column vectors; subobjects are subspaces stored as frozensets of vectors.
The sizes involved stay tiny, so everything is enumerated directly.
"""

from itertools import product as iproduct

from .. import UsageError
from ..exactmath.partitions import q_binomial
from .base import ProtoAbelianInstance


def _is_prime(q):
    return q >= 2 and all(q % k for k in range(2, q))


class VectFq(ProtoAbelianInstance):
    family = "vect-fq"
    _cached = ("vectors", "_all_matrices", "_maps", "compose", "subobjects",
               "image_sub", "preimage_sub")

    def __init__(self, q: int, bound: int):
        if not _is_prime(q):
            raise UsageError(f"vect-fq: q = {q} must be prime")
        if not 0 <= bound <= 4:
            raise UsageError(f"vect-fq: dimension bound {bound} is outside "
                             "0..4")
        self.q = q
        self.bound = bound
        super().__init__()

    # vectors of F_q^d as tuples
    def vectors(self, d):
        return [tuple(v) for v in iproduct(range(self.q), repeat=d)]

    def apply(self, mat, v):
        q = self.q
        return tuple(sum(row[j] * v[j] for j in range(len(v))) % q
                     for row in mat)

    def _all_matrices(self, dst, src):
        rows = self.vectors(src)
        return [mat for mat in iproduct(rows, repeat=dst)]

    def _rank(self, mat, src):
        vecs = {self.apply(mat, v) for v in self.vectors(src)}
        # |image| = q^rank
        r, size = 0, 1
        while size < len(vecs):
            size *= self.q
            r += 1
        return r

    def iso_classes(self):
        return list(range(self.bound + 1))

    def size_of(self, key):
        return key

    def zero_key(self):
        return 0

    def _maps(self, x, y, kind):
        out = []
        for mat in self._all_matrices(y, x):
            r = self._rank(mat, x)
            if kind == "mono" and r != x:
                continue
            if kind == "epi" and r != y:
                continue
            if kind == "iso" and (x != y or r != x):
                continue
            out.append((x, y, mat))
        return out

    def isos(self, x, y):
        return [] if x != y else self._maps(x, y, "iso")

    def monos(self, x, y):
        return [] if x > y else self._maps(x, y, "mono")

    def epis(self, x, y):
        return [] if x < y else self._maps(x, y, "epi")

    def hall_constant(self, n, l, m):
        """The Gaussian binomial [m choose l]_q."""
        return q_binomial(m, l, self.q) if l + n == m else 0

    def compose(self, g, f):
        if f[1] != g[0]:
            raise ValueError(f"compose: target {f[1]!r} is not source "
                             f"{g[0]!r}")
        src, mid, dst = f[0], f[1], g[1]
        q = self.q
        gm, fm = g[2], f[2]
        mat = tuple(tuple(sum(gm[i][k] * fm[k][j] for k in range(mid)) % q
                          for j in range(src)) for i in range(dst))
        return (src, dst, mat)

    def identity(self, x):
        mat = tuple(tuple(1 if i == j else 0 for j in range(x))
                    for i in range(x))
        return (x, x, mat)

    def subobjects(self, m):
        """All subspaces of F_q^m as frozensets of vectors."""
        q = self.q
        zero = frozenset([tuple([0] * m)])
        found = {zero}
        frontier = [zero]
        allv = self.vectors(m)
        while frontier:
            s = frontier.pop()
            seen = set(s)
            for v in allv:
                if v in seen:
                    continue
                # s is a subspace, so span(s + v) = union of cosets u + c*v
                fs = frozenset(tuple((u[i] + c * v[i]) % q for i in range(m))
                               for u in s for c in range(q))
                # every vector of fs outside s spans fs together with s
                seen |= fs
                if fs not in found:
                    found.add(fs)
                    frontier.append(fs)
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def _dim_of_size(self, size):
        d, s = 0, 1
        while s < size:
            s *= self.q
            d += 1
        if s != size:
            raise ValueError(f"vect-fq: {size} vectors is not a power of "
                             f"q = {self.q}")
        return d

    def classify_sub(self, m, u):
        return self._dim_of_size(len(u))

    def classify_quot(self, m, u):
        return m - self._dim_of_size(len(u))

    def image_sub(self, f):
        src, dst, _ = f
        return frozenset(self.apply(f[2], v) for v in self.vectors(src))

    def preimage_sub(self, f, sub):
        src, dst, _ = f
        return frozenset(v for v in self.vectors(src)
                         if self.apply(f[2], v) in sub)
