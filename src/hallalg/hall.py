"""Classical Hall algebras of the proto-abelian instances.

g^M_{N,L} counts subobjects U <= M with U ~ L and M/U ~ N, so that
[N].[L] = sum_M g^M_{N,L} [M]; equivalently #{s.e.s. L >-> M ->> N} divided
by #Aut(L) #Aut(N).  The table takes each constant from its family's closed
form (`hall_constant`): binom(m, l) over F_1[G], the Gaussian binomial
[m choose l]_q over F_q, and the Hall polynomial for abelian p-groups.
Counting subobjects is the oracle for these in the tests (for F_1[G]
`subobjects_with_type`, which `divided_powers_iso_check` also reads; for
abelian p-groups a subgroup listing in `tests/oracles`).  A second,
independent route computes the same product by pull-push through the
degree-2 flag groupoids, reading the span's table in one pass over X_2
(`pull_push_table`), keyed by the classes of X_1; both routes are compared
in the tests and the acceptance suite.

Both tables are `StructureTable`s (`hallalg.structure`), as the Hecke
tables are, so their products, key checks and truncation errors, and the
associativity and unit check, are theirs.  Each has a row (N, L) exactly
when size N + size L is within the bound: a product past the bound has no
row, and the check skips a triple that needs one.  The check is Light's
test over the greedy spanning set, which is {u_(1^r)} for abelian p-groups
(Macdonald, Symmetric Functions and Hall Polynomials, ch. II-III), {[1]}
for vect-fq and {delta_1} for f1-free: n^2 |S| triples, not n^3.
"""

from bisect import bisect_right
from collections import Counter

from . import BudgetExceededError
from .groupoid import pull_push_table
from .groupoid.core import DEFAULT_OBJECT_BUDGET
from .protoab import F1FreeG, ProtoAbelianInstance
from .structure import StructureTable, check_algebra


class HallTable(StructureTable):
    """The instance's iso classes sorted by size, and a row
    [N].[L] = sum_M g^M_{N,L} [M] for each pair with size N + size L within
    the bound.  The triples (N, L, M) with size N + size L = size M, one
    `hall_constant` each, are counted by size first and refused over the
    budget.  Each pair of sizes whose sum is a size adds at least one
    triple, so a count that meets more such pairs than both the budget and
    the classes stops there, over the budget, before the basis is sorted."""

    def __init__(self, inst: ProtoAbelianInstance,
                 budget: int = DEFAULT_OBJECT_BUDGET):
        self.inst = inst
        size = inst.size_of
        classes = inst.iso_classes()
        per_size = Counter(map(size, classes))
        sizes, bound = sorted(per_size), max(per_size, default=0)
        rows, pairs, limit = [], 0, max(budget, len(classes))
        for i in sizes:
            rows.append((i, [j for j in sizes[:bisect_right(sizes, bound - i)]
                             if i + j in per_size]))
            pairs += len(rows[-1][1])
            if pairs > limit:
                raise BudgetExceededError(
                    f"the Hall table of {inst.family} has more than {budget} "
                    f"basis triples, over the budget of {budget}")
        count = sum(per_size[i] * per_size[j] * per_size[i + j]
                    for i, row in rows for j in row)
        if count > budget:
            raise BudgetExceededError(
                f"the Hall table of {inst.family} has {count} basis triples, "
                f"over the budget of {budget}")
        self.basis = sorted(classes, key=lambda c: (size(c), c))
        by_size = {}
        for c in self.basis:
            by_size.setdefault(size(c), []).append(c)
        super().__init__({
            (n, l): {m: g for m in by_size.get(size(n) + size(l), ())
                     if (g := inst.hall_constant(n, l, m))}
            for n in self.basis for l in self.basis
            if size(n) + size(l) <= bound})

    def to_json(self):
        flat = [(n, l, m, g) for (n, l), row in self.constants.items()
                for m, g in row.items()]
        return {
            "family": self.inst.family,
            "basis": [str(c) for c in self.basis],
            "constants": [{"N": str(n), "L": str(l), "M": str(m), "g": g}
                          for n, l, m, g in sorted(
                              flat, key=lambda t: (self.inst.size_of(t[2]),
                                                   t[:3]))],
        }


def hall_constants(inst: ProtoAbelianInstance,
                   budget: int = DEFAULT_OBJECT_BUDGET) -> HallTable:
    return HallTable(inst, budget)


def hall_product(table: HallTable, f: dict, g: dict) -> dict:
    return table.product(f, g)


def hall_product_via_span(inst: ProtoAbelianInstance, bound, f: dict,
                          g: dict, simplicial=None) -> dict:
    """The same product computed by pull-push along
    X_1 x X_1 <- X_2 -> X_1 in the degree-2 flag groupoid: the span's table,
    keyed by the class A_01 of each component of X_1 and truncated to the
    rows with size N + size L within `bound` as the HallTable is, is a
    StructureTable, and the product is its product."""
    from .waldhausen.sconstruction import s_construction
    x = simplicial if simplicial is not None else \
        s_construction(inst, depth=2)
    x1 = x.levels[1]
    keys = [x1.objects[c.rep].entries[(0, 1)] for c in x1.components()]
    size = inst.size_of
    table = StructureTable({
        (n, l): row for (n, l), row in pull_push_table(
            x.face(2, 0), x.face(2, 2), x.face(2, 1), (keys,) * 3).items()
        if size(n) + size(l) <= bound})
    result = table.product(f, g)
    for key, v in result.items():
        if v.denominator != 1:
            raise ArithmeticError(f"non-integral Hall constant {v} at "
                                  f"class {key!r}")
    return {key: int(v) for key, v in result.items()}


def check_associativity(table: HallTable):
    """Associative and unital on all basis triples inside the bound, by
    Light's test; returns (ok, counterexample), the first failing triple
    in row order."""
    return check_algebra(table, table.inst.zero_key())


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
