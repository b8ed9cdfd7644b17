"""Counting layer of the Schur-Weyl duality for wreath products.

For abelian G, rank-d free modules and degree n: the polynomial
representation attached to a label lam has dimension
prod_gamma s_{lam(gamma)}(1^d) and vanishes exactly when some lam(gamma)
has more than d rows.  Three exact identities are verified:

  sum_lam (dim R_lam)^2          = multiset(d^2 |G|, n)
  sum_lam dim X_lam . dim R_lam  = (d |G|)^n
  n <= d  =>  no R_lam vanishes

The report lists every label; their number is counted first and refused
over the budget before any label is built.  Each label's dimensions,
kernel flag and row are products of lookups in one table per report of
the partitions of size <= n; `irreducible_dimension` and `dim_R` compute
one label at a time, for the identity checks and as the tests' oracle of
those products.
"""

from math import factorial, prod

from . import BudgetExceededError, Record, UsageError

from .exactmath.partitions import (PartitionMap, count_partition_maps,
                                   multiset_number, partition_maps,
                                   partition_numbers, partitions_of)
from .exactmath.tableaux import schur_eval_ones, standard_tableaux_count
from .groups import FiniteGroup
from .wreath.chmap import irreducible_dimension

# labels; a `schurweyl` run costs about 0.07 ms and 3.6 KB of peak memory
# per label, so the default stops one at about 14 s and 0.75 GB
DEFAULT_SCHURWEYL_BUDGET = 200_000


def dim_R(lam: PartitionMap, d: int) -> int:
    """prod_gamma s_{lam(gamma)}(1^d); zero iff some part has > d rows."""
    out = 1
    for _, part in lam.items():
        out *= schur_eval_ones(part, d)
    return out


def _require_abelian(G):
    if not G.is_abelian():
        raise UsageError("the duality checks need an abelian group")


def check_sum_of_squares(G: FiniteGroup, n: int, d: int):
    """sum over labels of (dim R)^2 against multiset(d^2 |G|, n)."""
    _require_abelian(G)
    labels = partition_maps(n, tuple(range(G.order)))
    lhs = sum(dim_R(lam, d) ** 2 for lam in labels)
    rhs = multiset_number(d * d * G.order, n)
    return lhs == rhs, {"lhs": lhs, "rhs": rhs}


def check_total_dimension(G: FiniteGroup, n: int, d: int):
    """sum dim X_lam . dim R_lam against (d |G|)^n; wreath dimensions are
    the identity evaluation of the induced-character construction."""
    _require_abelian(G)
    labels = partition_maps(n, tuple(range(G.order)))
    lhs = sum(irreducible_dimension(G, lam) * dim_R(lam, d)
              for lam in labels)
    rhs = (d * G.order) ** n
    return lhs == rhs, {"lhs": lhs, "rhs": rhs}


class SchurWeylReport(Record):
    _fields = ("group", "n", "d", "rows", "sum_of_squares", "total_dimension",
               "kernel_free_when_n_le_d", "nonzero_count_matches")

    def __init__(self, group: str, n: int, d: int, rows=None,
                 sum_of_squares=False, total_dimension=False,
                 kernel_free_when_n_le_d=True, nonzero_count_matches=False):
        self.group, self.n, self.d = group, n, d
        self.rows = [] if rows is None else rows
        self.sum_of_squares = sum_of_squares
        self.total_dimension = total_dimension
        self.kernel_free_when_n_le_d = kernel_free_when_n_le_d
        self.nonzero_count_matches = nonzero_count_matches

    @property
    def ok(self):
        return (self.sum_of_squares and self.total_dimension
                and self.kernel_free_when_n_le_d
                and self.nonzero_count_matches)

    def to_json(self):
        return {
            "group": self.group, "n": self.n, "d": self.d,
            "rows": self.rows,
            "verdicts": {
                "sum_of_squares": self.sum_of_squares,
                "total_dimension": self.total_dimension,
                "kernel_free_when_n_le_d": self.kernel_free_when_n_le_d,
                "nonzero_count_matches": self.nonzero_count_matches,
            },
            "pass": self.ok,
        }


def schur_weyl_report(G: FiniteGroup, n: int, d: int,
                      budget: int = DEFAULT_SCHURWEYL_BUDGET) -> SchurWeylReport:
    _require_abelian(G)
    # a map sending all n to one class is a label, so there are at least
    # p(j) labels for every j <= n: a partition number over the budget
    # refuses n before the full count
    p = partition_numbers(n, budget)
    if p[-1] > budget:
        raise BudgetExceededError(f"{G.name} wr S_{n} has at least {p[-1]} "
                                  f"labels, over budget {budget}")
    count = count_partition_maps(n, G.order)
    if count > budget:
        raise BudgetExceededError(f"{G.name} wr S_{n} has {count} labels, "
                                  f"over budget {budget}")
    rep = SchurWeylReport(G.name, n, d, nonzero_count_matches=True)
    # a label's numbers are products over its partitions, each looked up
    # in a table of the partitions of size <= n: dim X_lam is
    # n! prod f^{lam(gamma)} / prod |lam(gamma)|! (`irreducible_dimension`)
    # and dim R_lam is prod s_{lam(gamma)}(1^d) (`dim_R`)
    shapes = [p for size in range(n + 1) for p in partitions_of(size)]
    tableaux = {p: standard_tableaux_count(p) for p in shapes}
    factorials = {p: factorial(sum(p)) for p in shapes}
    schur = {p: schur_eval_ones(p, d) for p in shapes}
    as_json = {p: list(p) for p in shapes}
    names = [str(c) for c in range(G.order)]
    top = factorial(n)
    kernel_count = squares = total = 0
    for lam in partition_maps(n, tuple(range(G.order))):
        parts = lam.parts
        dr = prod(map(schur.__getitem__, parts))
        dx = (top * prod(map(tableaux.__getitem__, parts))
              // prod(map(factorials.__getitem__, parts)))
        squares += dr * dr
        total += dx * dr
        kernel = dr == 0
        kernel_count += kernel
        # dim R_lam vanishes exactly when some lam(gamma) has > d rows
        if kernel != (max(map(len, parts)) > d):
            rep.nonzero_count_matches = False
        label = {name: as_json[p] for name, p in zip(names, parts) if p}
        rep.rows.append({"label": label, "dim_X": dx, "dim_R": dr,
                         "kernel": kernel})
    rep.sum_of_squares = squares == multiset_number(d * d * G.order, n)
    rep.total_dimension = total == (d * G.order) ** n
    rep.kernel_free_when_n_le_d = (n > d) or (kernel_count == 0)
    return rep
