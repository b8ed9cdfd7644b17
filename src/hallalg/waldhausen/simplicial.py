"""Truncated simplicial groupoids and the strict simplicial-identity check.

Levels X_0..X_N with faces d_i: X_n -> X_{n-1} and degeneracies
s_i: X_n -> X_{n+1}.  All identities that type-check inside the truncation
are verified as strict equality of functors.  Both constructions give their
faces and degeneracies as GMaps, and each identity is decided by
composite_difference, which pulls both sides through the index tables and
builds no composite; a face or degeneracy that is not a G-map is a
ValueError.  The composites of each Segal square (waldhausen/segal.py)
form an identity, whose verdict the check takes from `compared`.
"""

from .. import Record
from ..groupoid import Functor, GMap, composite_difference


class TruncatedSimplicialGroupoid(Record):
    _fields = ("levels", "faces", "degeneracies", "name")

    def __init__(self, levels, faces, degeneracies, name="X"):
        self.levels = levels               # X_0 .. X_N
        self.faces = faces                 # (n, i) -> Functor X_n -> X_{n-1}
        self.degeneracies = degeneracies   # (n, i) -> Functor X_n -> X_{n+1}
        self.name = name
        self.compared = {}      # (lhs, rhs) -> equal, from the squares

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


def _identities(x: TruncatedSimplicialGroupoid):
    """(label, lhs, rhs) of every simplicial identity inside the
    truncation, in the order of the check; each side is the G-maps of a
    composite, outermost first, and () is the identity."""
    d, s, top = x.face, x.degeneracy, x.depth
    for n in range(2, top + 1):
        for j in range(n + 1):
            for i in range(j):
                yield (f"d_{i} d_{j} != d_{j-1} d_{i} at level {n}",
                       (d(n - 1, i), d(n, j)), (d(n - 1, j - 1), d(n, i)))
    for n in range(top):
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = (d(n + 1, i), s(n, j))
                if i < j:
                    yield (f"d_{i} s_{j} != s_{j-1} d_{i} at level {n}",
                           lhs, (s(n - 1, j - 1), d(n, i)))
                elif i > j + 1:
                    yield (f"d_{i} s_{j} != s_{j} d_{i-1} at level {n}",
                           lhs, (s(n - 1, j), d(n, i - 1)))
                else:
                    yield f"d_{i} s_{j} != id at level {n}", lhs, ()
    for n in range(top - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                yield (f"s_{i} s_{j} != s_{j+1} s_{i} at level {n}",
                       (s(n + 1, i), s(n, j)), (s(n + 1, j + 1), s(n, i)))


def check_simplicial_identities(x: TruncatedSimplicialGroupoid) -> SimplicialVerdict:
    if not all(isinstance(m, GMap)
               for m in (*x.faces.values(), *x.degeneracies.values())):
        raise ValueError(f"{x.name}: the faces and degeneracies must be "
                         f"G-maps")
    done = x.compared
    bad = [label for label, lhs, rhs in _identities(x)
           if (not done[lhs, rhs] if (lhs, rhs) in done
               else composite_difference(lhs, rhs) is not None)]
    return SimplicialVerdict(not bad, bad)
