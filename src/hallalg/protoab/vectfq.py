"""Finite dimensional vector spaces over F_q (q prime).

F_q^d is the elementary abelian q-group of type (1^d), so this is the
`AbelianPGroups` implementation with p = q, its objects keyed by the
dimension d through the `_type` and `_key` hooks: maps are the tuples of
images of the standard basis vectors, and subobjects are subspaces stored as
frozensets of vectors.  The closed counts of automorphisms and monos,
|Aut (1^a)| and prod_{i<a} (q^b - q^i) at the types (1^a) and (1^b), are
ab-p-groups' too; only the classes and the Hall constants, Gaussian
binomials, are its own.
"""

from .. import UsageError
from ..exactmath.partitions import q_binomial
from .abelianp import AbelianPGroups, is_prime
from .base import ProtoAbelianInstance


class VectFq(AbelianPGroups):
    family = "vect-fq"

    def __init__(self, q: int, bound: int):
        if not is_prime(q):
            raise UsageError(f"vect-fq: q = {q} must be prime")
        if not 0 <= bound <= 4:
            raise UsageError(f"vect-fq: dimension bound {bound} is outside "
                             "0..4")
        self.p = self.q = q
        self.bound = bound
        # the dimension bound replaces ab-p-groups' order bound
        ProtoAbelianInstance.__init__(self)

    def _type(self, d):
        return (1,) * d

    def _key(self, lam):
        return len(lam)

    def iso_classes(self):
        return list(range(self.bound + 1))

    def size_of(self, key):
        return key

    def zero_key(self):
        return 0

    def hall_constant(self, n, l, m):
        """The Gaussian binomial [m choose l]_q."""
        return q_binomial(m, l, self.q) if l + n == m else 0
