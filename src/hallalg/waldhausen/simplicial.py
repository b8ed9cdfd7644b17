"""Truncated simplicial groupoids and the strict simplicial-identity check.

Levels X_0..X_N with faces d_i: X_n -> X_{n-1} and degeneracies
s_i: X_n -> X_{n+1}.  All identities that type-check inside the truncation
are verified as strict equality of functors.  Both constructions give their
faces and degeneracies as GMaps, which compose and compare by index table
and coordinate selection; any other functor is compared on every object
and on a generating family of morphisms, which determines a functor.
"""

from .. import Record
from ..groupoid import (Functor, IdentityFunctor, compose_functors,
                        functors_equal)


class TruncatedSimplicialGroupoid(Record):
    _fields = ("levels", "faces", "degeneracies", "name")

    def __init__(self, levels, faces, degeneracies, name="X"):
        self.levels = levels               # X_0 .. X_N
        self.faces = faces                 # (n, i) -> Functor X_n -> X_{n-1}
        self.degeneracies = degeneracies   # (n, i) -> Functor X_n -> X_{n+1}
        self.name = name

    @property
    def depth(self):
        return len(self.levels) - 1

    def face(self, n, i) -> Functor:
        return self.faces[(n, i)]

    def degeneracy(self, n, i) -> Functor:
        return self.degeneracies[(n, i)]


class SimplicialVerdict(Record):
    _fields = ("ok", "violations")

    def __init__(self, ok: bool, violations=None):
        self.ok = ok
        self.violations = [] if violations is None else violations

    def __bool__(self):
        return self.ok

    def to_json(self):
        return {"pass": self.ok, "violations": self.violations}


def check_simplicial_identities(x: TruncatedSimplicialGroupoid) -> SimplicialVerdict:
    bad = []
    n_top = x.depth

    def eq(f, g, label):
        if not functors_equal(f, g):
            bad.append(label)

    for n in range(2, n_top + 1):
        for j in range(n + 1):
            for i in range(j):
                # d_i d_j = d_{j-1} d_i on X_n
                eq(compose_functors(x.face(n - 1, i), x.face(n, j)),
                   compose_functors(x.face(n - 1, j - 1), x.face(n, i)),
                   f"d_{i} d_{j} != d_{j-1} d_{i} at level {n}")
    for n in range(0, n_top):
        for j in range(n + 1):
            for i in range(n + 2):
                # d_i s_j on X_n
                lhs = compose_functors(x.face(n + 1, i), x.degeneracy(n, j))
                if i < j:
                    rhs = compose_functors(x.degeneracy(n - 1, j - 1),
                                           x.face(n, i)) if n >= 1 else None
                    label = f"d_{i} s_{j} != s_{j-1} d_{i} at level {n}"
                elif i in (j, j + 1):
                    if not functors_equal(lhs, IdentityFunctor(x.levels[n])):
                        bad.append(f"d_{i} s_{j} != id at level {n}")
                    continue
                else:
                    rhs = compose_functors(x.degeneracy(n - 1, j),
                                           x.face(n, i - 1)) if n >= 1 else None
                    label = f"d_{i} s_{j} != s_{j} d_{i-1} at level {n}"
                if rhs is not None:
                    eq(lhs, rhs, label)
    for n in range(0, n_top - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                # s_i s_j = s_{j+1} s_i on X_n
                eq(compose_functors(x.degeneracy(n + 1, i), x.degeneracy(n, j)),
                   compose_functors(x.degeneracy(n + 1, j + 1),
                                    x.degeneracy(n, i)),
                   f"s_{i} s_{j} != s_{j+1} s_{i} at level {n}")
    return SimplicialVerdict(not bad, bad)
