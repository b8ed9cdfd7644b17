"""Classical Hall algebras of the proto-abelian instances.

g^M_{N,L} counts subobjects U <= M with U ~ L and M/U ~ N, so that
[N].[L] = sum_M g^M_{N,L} [M]; equivalently #{s.e.s. L >-> M ->> N} divided
by #Aut(L) #Aut(N).  The table takes each constant from its family's closed
form (`hall_constant`): binom(m, l) over F_1[G], the Gaussian binomial
[m choose l]_q over F_q, and the Hall polynomial for abelian p-groups.
Counting subobjects (`subobjects_with_type`) is the oracle for these in the
tests.  A second, independent route computes the same product by pull-push
through the degree-2 flag groupoids, reading the span's table in one pass
over X_2 (`pull_push_table`); both routes are compared in the tests and the
acceptance suite.
"""

from . import BudgetExceededError, UsageError
from .groupoid import pull_push_table
from .protoab import F1FreeG, ProtoAbelianInstance


class HallTable:
    """Basis of the instance's iso classes plus structure constants."""

    def __init__(self, inst: ProtoAbelianInstance):
        self.inst = inst
        self.basis = sorted(inst.iso_classes(),
                            key=lambda c: (inst.size_of(c), c))
        self.bound = max((inst.size_of(c) for c in self.basis), default=0)
        self.pos = {c: i for i, c in enumerate(self.basis)}
        self.constants = {}
        for m in self.basis:
            for l in self.basis:
                for n in self.basis:
                    if inst.size_of(l) + inst.size_of(n) != inst.size_of(m):
                        continue
                    g = inst.hall_constant(n, l, m)
                    if g:
                        self.constants[(n, l, m)] = g

    def constant(self, n, l, m) -> int:
        return self.constants.get((n, l, m), 0)

    def product(self, f: dict, g: dict) -> dict:
        """Bilinear extension of [N].[L] = sum g^M_{N,L} [M]."""
        for key in list(f) + list(g):
            if key not in self.pos:
                raise UsageError(f"class {key!r} outside the table basis")
        out = {}
        for n, cn in f.items():
            for l, cl in g.items():
                size = self.inst.size_of(n) + self.inst.size_of(l)
                if size > self.bound:
                    raise BudgetExceededError(
                        f"product of sizes {size} exceeds table bound")
                for m in self.basis:
                    if self.inst.size_of(m) != size:
                        continue
                    c = self.constant(n, l, m)
                    if c:
                        out[m] = out.get(m, 0) + cn * cl * c
        return {k: v for k, v in out.items() if v}

    def delta(self, key) -> dict:
        if key not in self.pos:
            raise UsageError(f"class {key!r} outside the table basis")
        return {key: 1}

    def to_json(self):
        return {
            "family": self.inst.family,
            "basis": [str(c) for c in self.basis],
            "constants": [{"N": str(n), "L": str(l), "M": str(m), "g": g}
                          for (n, l, m), g in sorted(
                              self.constants.items(),
                              key=lambda kv: (self.inst.size_of(kv[0][2]),
                                              kv[0]))],
        }


def hall_constants(inst: ProtoAbelianInstance) -> HallTable:
    return HallTable(inst)


def hall_product(table: HallTable, f: dict, g: dict) -> dict:
    return table.product(f, g)


def hall_product_via_span(inst: ProtoAbelianInstance, bound, f: dict,
                          g: dict, simplicial=None) -> dict:
    """The same product computed by pull-push along
    X_1 x X_1 <- X_2 -> X_1 in the degree-2 flag groupoid."""
    from .waldhausen.sconstruction import s_construction
    x = simplicial if simplicial is not None else \
        s_construction(inst, depth=2, bound=bound)
    x1 = x.levels[1]
    d0, d1, d2 = x.face(2, 0), x.face(2, 1), x.face(2, 2)
    # the class A_01 of each component of X_1, and its component
    keys = [x1.objects[c.rep].entries[(0, 1)] for c in x1.components()]
    comp = {key: i for i, key in enumerate(keys)}
    for key in list(f) + list(g):
        if key not in comp:
            raise UsageError(f"class {key!r} outside the flag groupoid X_1")
    top = max(map(inst.size_of, keys))
    for n in f:
        for l in g:
            size = inst.size_of(n) + inst.size_of(l)
            if size > top:
                raise BudgetExceededError(
                    f"product of sizes {size} exceeds the bound {top} of X_1")
    fa = {comp[k]: c for k, c in f.items()}
    gb = {comp[k]: c for k, c in g.items()}
    out = {}
    for (a, b), row in pull_push_table(d0, d2, d1).items():
        w = fa.get(a, 0) * gb.get(b, 0)
        for c, v in row.items():
            out[c] = out.get(c, 0) + w * v
    result = {}
    for comp_idx, v in sorted(out.items()):
        if not v:
            continue
        key = keys[comp_idx]
        if v.denominator != 1:
            raise ArithmeticError(f"non-integral Hall constant {v} at "
                                  f"class {key!r}")
        result[key] = int(v)
    return result


def check_associativity(table: HallTable):
    """(a.b).c = a.(b.c) on all basis triples inside the bound; returns
    (ok, counterexample)."""
    inst = table.inst
    for a in table.basis:
        for b in table.basis:
            if inst.size_of(a) + inst.size_of(b) > table.bound:
                continue
            ab = table.product(table.delta(a), table.delta(b))
            for c in table.basis:
                total = (inst.size_of(a) + inst.size_of(b)
                         + inst.size_of(c))
                if total > table.bound:
                    continue
                bc = table.product(table.delta(b), table.delta(c))
                lhs = table.product(ab, table.delta(c))
                rhs = table.product(table.delta(a), bc)
                if lhs != rhs:
                    return False, {"triple": (str(a), str(b), str(c)),
                                   "lhs": lhs, "rhs": rhs}
    zero = inst.zero_key()
    for a in table.basis:
        da = table.delta(a)
        if (table.product(table.delta(zero), da) != da
                or table.product(da, table.delta(zero)) != da):
            return False, {"unit_failure": str(a)}
    return True, None


def divided_powers_iso_check(G, bound: int):
    """delta_n . delta_m = C(n+m, n) delta_{n+m} in the f1-free Hall algebra,
    and the subobject counts of F_1[G] enumerated for this G are the
    G-independent binom(m, l); returns (ok, detail)."""
    from math import comb

    inst = F1FreeG(G, bound)
    table = hall_constants(inst)
    for n in range(bound + 1):
        for m in range(bound + 1 - n):
            got = table.product({n: 1}, {m: 1})
            want = {n + m: comb(n + m, n)} if comb(n + m, n) else {}
            if got != want:
                return False, {"n": n, "m": m, "got": got, "want": want}
    for m in range(bound + 1):
        for l in range(m + 1):
            for n in range(m + 1):
                got = inst.subobjects_with_type(m, l, n)
                want = comb(m, l) if l + n == m else 0
                if got != want:
                    return False, {"group": G.name, "M": m, "L": l, "N": n,
                                   "got": got, "want": want}
    return True, None
