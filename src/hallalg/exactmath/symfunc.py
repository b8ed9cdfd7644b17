"""Symmetric functions over a finite label set X in the Schur basis.

MultiSymElem is a finitely supported Q-combination of the basis elements
S_lambda = prod_x s_lambda(x); products expand componentwise through
Littlewood-Richardson coefficients.
"""

from fractions import Fraction
from itertools import product as iproduct
from math import prod

from .littlewood import schur_product
from .partitions import PartitionMap


class MultiSymElem:
    """Finitely supported map PartitionMap -> Fraction; all keys share one
    label set."""

    __slots__ = ("labels", "coords")

    def __init__(self, labels, coords=()):
        self.labels = tuple(labels)
        self.coords = {}
        for k, v in dict(coords).items():
            if not (isinstance(k, PartitionMap) and k.labels == self.labels):
                raise ValueError(f"key {k!r} is not a partition map on "
                                 f"{self.labels}")
            v = Fraction(v)
            if v:
                self.coords[k] = v

    @classmethod
    def basis(cls, pmap: PartitionMap):
        return cls(pmap.labels, {pmap: 1})

    def __add__(self, other):
        if self.labels != other.labels:
            raise ValueError(f"mismatched index sets: {self.labels!r} vs "
                             f"{other.labels!r}")
        out = dict(self.coords)
        for k, v in other.coords.items():
            out[k] = out.get(k, Fraction(0)) + v
        return MultiSymElem(self.labels, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return MultiSymElem(self.labels,
                            {k: v * Fraction(c) for k, v in self.coords.items()})

    def __eq__(self, other):
        return (isinstance(other, MultiSymElem)
                and self.labels == other.labels and self.coords == other.coords)

    def __repr__(self):
        if not self.coords:
            return "MultiSymElem(0)"
        terms = [f"{v}*S{k!r}" for k, v in
                 sorted(self.coords.items(), key=lambda kv: kv[0].sort_key())]
        return "MultiSymElem(" + " + ".join(terms) + ")"

    def to_json(self):
        items = sorted(self.coords.items(), key=lambda kv: kv[0].sort_key())
        return [[k.to_json(), str(v)] for k, v in items]


def lr_product(a, b) -> dict[tuple, int]:
    """S_a * S_b = sum_nu (prod_x c^{nu(x)}_{a(x) b(x)}) S_nu in integers,
    for the parts a and b of two partition maps on one label set, keyed by
    the parts of nu.  Each nu is one choice of a term of s_a(x) s_b(x) per
    label, so no two choices meet.  Each factor is `schur_product`, which
    keeps each partition pair's expansion once."""
    factors = [schur_product(*pair).items() for pair in zip(a, b)]
    return {tuple(nu for nu, _ in combo): prod(c for _, c in combo)
            for combo in iproduct(*factors)}


def multisym_mul(a: MultiSymElem, b: MultiSymElem) -> MultiSymElem:
    """Bilinear extension of the componentwise LR product."""
    if a.labels != b.labels:
        raise ValueError("mismatched index sets: %r vs %r" % (a.labels, b.labels))
    out = {}
    for ka, va in a.coords.items():
        for kb, vb in b.coords.items():
            for parts, c in lr_product(ka.parts, kb.parts).items():
                knu = PartitionMap(a.labels, parts)
                out[knu] = out.get(knu, Fraction(0)) + va * vb * c
    return MultiSymElem(a.labels, out)
