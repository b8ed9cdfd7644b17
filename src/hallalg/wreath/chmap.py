"""Irreducible characters of G wr S_n for abelian G, the induction product,
and the characteristic map into products of Schur functions.

Classes and irreducibles are both labeled by partition-valued maps: a class
rho has a cycle (c, r) for each part r of rho(c), c the class in G of the
cycle product; X_lam has a partition lam(gamma) on each linear character
gamma.  ch sends X_lam to S_lam = prod_gamma s_{lam(gamma)} and the class
rho to prod_{(c, r)} sum_gamma gamma(c) p_r(gamma) (Macdonald, Symmetric
Functions and Hall Polynomials, Ch. I App. B).  So chi^lam(rho) is a sum
over the maps f from the cycles to the dual that send cycle lengths adding
up to |lam(gamma)| to each gamma, of prod f(c, r)(c) times
prod_gamma chi^{lam(gamma)}(lengths sent to gamma) by Murnaghan-Nakayama,
and the class rho has |W| / prod_c z_{rho(c)} |G|^{l(rho(c))} elements,
|W| = |G|^n n!.  No group element is built.  Tables are certified by exact
row and column orthogonality and by class sizes adding up to |W|;
induction multiplicities come from Frobenius reciprocity over class labels.
Summing over the elements of the group and of the Young subgroup is the
oracle in the tests.  On K_0, ch sends the induction product to the
componentwise Littlewood-Richardson product, which is what the acceptance
suite verifies.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from math import factorial, prod

from .. import UsageError
from ..exactmath.cyclotomic import Cyc
from ..exactmath.partitions import PartitionMap, partition_maps
from ..exactmath.symfunc import MultiSymElem
from ..exactmath.tableaux import standard_tableaux_count
from ..groups import FiniteGroup
from .characters import abelian_dual, murnaghan_nakayama
from .wreathgroup import DEFAULT_WREATH_BUDGET, wreath_order


def irreducible_dimension(G: FiniteGroup, lam: PartitionMap) -> int:
    """dim X_lam = multinomial(n; block sizes) * prod f^{lam(gamma)} (the
    induced character evaluated at the identity)."""
    n = lam.total
    dim = factorial(n)
    for _, part in lam.items():
        dim //= factorial(sum(part))
    for _, part in lam.items():
        dim *= standard_tableaux_count(part)
    return dim


def centralizer_order(k: int, rho: PartitionMap) -> int:
    """|W| / |class rho| in G wr S_n for abelian G of order k:
    prod_c z_{rho(c)} k^{l(rho(c))}."""
    out = 1
    for _, part in rho.items():
        for r, mult in Counter(part).items():
            out *= r ** mult * factorial(mult)
        out *= k ** len(part)
    return out


def character_value(chars, e: int, lam: PartitionMap,
                    rho: PartitionMap) -> Cyc:
    """chi^lam(rho) by the closed formula; chars[gamma][c] is the exponent
    of gamma on the class c of G over zeta_e."""
    cycles = sorted(((r, c) for c, part in rho.items() for r in part),
                    reverse=True)
    room = [sum(part) for part in lam.parts]
    sent = [[] for _ in room]
    acc = {}

    def assign(i, expo):
        if i == len(cycles):
            acc[expo] = acc.get(expo, 0) + prod(
                murnaghan_nakayama(part, tuple(lengths))
                for part, lengths in zip(lam.parts, sent))
            return
        r, c = cycles[i]
        for gamma, row in enumerate(chars):
            if room[gamma] >= r:
                room[gamma] -= r
                sent[gamma].append(r)
                assign(i + 1, (expo + row[c]) % e)
                sent[gamma].pop()
                room[gamma] += r

    assign(0, 0)
    return sum((Cyc.zeta(e, x) * c for x, c in acc.items()), Cyc.zero(e))


class WreathCharacterTable:
    """Exact character table of G wr S_n, G abelian."""

    def __init__(self, G: FiniteGroup, n: int,
                 budget: int = DEFAULT_WREATH_BUDGET):
        if not G.is_abelian():
            raise UsageError("wreath character tables need abelian G "
                             "(linear characters)")
        self.G, self.n = G, n
        self.e = G.exponent()
        self.order = wreath_order(G, n, budget)
        self.dual = abelian_dual(G)
        k = G.order
        reps = [G.index[cls[0]] for cls in G.conjugacy_classes()]
        chars = [[vec[i] for i in reps] for vec in self.dual]

        self.class_labels = partition_maps(n, tuple(range(k)))
        self.class_pos = {l: i for i, l in enumerate(self.class_labels)}
        self.class_sizes = [self.order // centralizer_order(k, rho)
                            for rho in self.class_labels]
        one = G.class_index_of(G.identity)
        self.identity_class = self.class_pos[PartitionMap(
            range(k), [(1,) * n if c == one else () for c in range(k)])]

        self.irr_labels = partition_maps(n, tuple(range(k)))
        self.irr_pos = {l: i for i, l in enumerate(self.irr_labels)}
        self.values = [[character_value(chars, self.e, lam, rho)
                        for rho in self.class_labels]
                       for lam in self.irr_labels]

    def dimension(self, lam: PartitionMap) -> int:
        v = self.values[self.irr_pos[lam]][self.identity_class]
        if not v.is_rational() or v.rational_value().denominator != 1:
            raise ArithmeticError(f"character {lam} has value {v!r} at the "
                                  f"identity, not a whole number")
        return int(v.rational_value())

    def _inner(self, f, g) -> Cyc:
        """Class-weighted inner product of two class functions."""
        tot = Cyc.zero(self.e)
        for a, b, size in zip(f, g, self.class_sizes):
            tot = tot + (a * b.conj()) * size
        return tot / self.order

    def inner(self, row_i: int, row_j: int) -> Fraction:
        """<chi_i, chi_j>."""
        tot = self._inner(self.values[row_i], self.values[row_j])
        if not tot.is_rational():
            raise ArithmeticError(f"inner product of rows {row_i} and "
                                  f"{row_j} is not rational: {tot!r}")
        return tot.rational_value()

    def check_orthogonality(self):
        if sum(self.class_sizes) != self.order:
            return False, ("class sizes", sum(self.class_sizes), self.order)
        nrows = len(self.irr_labels)
        for i in range(nrows):
            for j in range(i, nrows):
                want = Fraction(1 if i == j else 0)
                if self.inner(i, j) != want:
                    return False, ("row", i, j)
        ncols = len(self.class_labels)
        for c in range(ncols):
            for c2 in range(c, ncols):
                tot = Cyc.zero(self.e)
                for i in range(nrows):
                    tot = tot + self.values[i][c] * self.values[i][c2].conj()
                want = (Fraction(self.order, self.class_sizes[c])
                        if c == c2 else Fraction(0))
                if not tot.is_rational() or tot.rational_value() != want:
                    return False, ("column", c, c2)
        dims2 = sum(self.dimension(l) ** 2 for l in self.irr_labels)
        if dims2 != self.order:
            return False, ("sum of squares", dims2, self.order)
        return True, None

    def decompose(self, values_by_class) -> dict:
        """Coordinates of a class function in the irreducible basis;
        raises on non-integer multiplicities."""
        out = {}
        for lam, row in zip(self.irr_labels, self.values):
            tot = self._inner(values_by_class, row)
            if not tot.is_rational() or tot.rational_value().denominator != 1:
                raise UsageError("class function is not an integral "
                                 "combination of irreducibles")
            m = int(tot.rational_value())
            if m:
                out[lam] = m
        return out

    def to_json(self):
        return {
            "group": f"{self.G.name} wr S_{self.n}",
            "order": self.order,
            "class_labels": [l.to_json() for l in self.class_labels],
            "class_sizes": self.class_sizes,
            "irreducible_labels": [l.to_json() for l in self.irr_labels],
            "conductor": self.e,
            "values": [[v.to_string() for v in row] for row in self.values],
        }


@cache
def character_table(G: FiniteGroup, n: int,
                    budget: int = DEFAULT_WREATH_BUDGET):
    return WreathCharacterTable(G, n, budget=budget)


def wreath_character(G: FiniteGroup, lam: PartitionMap,
                     budget: int = DEFAULT_WREATH_BUDGET) -> dict:
    """The character of X_lam as a map class label -> Cyc."""
    tab = character_table(G, lam.total, budget)
    row = tab.values[tab.irr_pos[lam]]
    return dict(zip(tab.class_labels, row))


def induction_product(G: FiniteGroup, lam: PartitionMap, mu: PartitionMap,
                      budget: int = DEFAULT_WREATH_BUDGET) -> dict:
    """Decomposition of Ind_{G wr (S_n x S_m)}^{G wr S_{n+m}}
    (X_lam boxtimes X_mu) by Frobenius reciprocity:
    <Ind chi, chi_nu> = <chi, Res chi_nu>, a sum over pairs of classes
    (rho1, rho2) of the Young subgroup, which lies in the class
    rho1 + rho2 (partitions joined class by class) of the big group."""
    n, m = lam.total, mu.total
    big = character_table(G, n + m, budget)
    small_n = character_table(G, n, budget)
    small_m = character_table(G, m, budget)
    row_lam = small_n.values[small_n.irr_pos[lam]]
    row_mu = small_m.values[small_m.irr_pos[mu]]

    # the class function lam x mu summed over each class of the big group
    restricted = {}
    for a, rho1 in enumerate(small_n.class_labels):
        for b, rho2 in enumerate(small_m.class_labels):
            joined = big.class_pos[PartitionMap(rho1.labels, [
                tuple(sorted(p + q, reverse=True))
                for p, q in zip(rho1.parts, rho2.parts)])]
            val = (row_lam[a] * row_mu[b]
                   * (small_n.class_sizes[a] * small_m.class_sizes[b]))
            restricted[joined] = restricted.get(joined, 0) + val

    out = {}
    for nu, row in zip(big.irr_labels, big.values):
        tot = Cyc.zero(big.e)
        for c, val in restricted.items():
            tot = tot + val * row[c].conj()
        tot = tot / (small_n.order * small_m.order)
        q = tot.rational_value() if tot.is_rational() else None
        if q is None or q.denominator != 1 or q < 0:
            raise ArithmeticError(f"multiplicity of {nu} in the induction "
                                  f"product is not in N: {tot!r}")
        if q:
            out[nu] = int(q)
    return out


def ch(G: FiniteGroup, x_basis: dict) -> MultiSymElem:
    """Linear extension of X_lam -> S_lam = prod s_{lam(gamma)}."""
    labels = None
    coords = {}
    for lam, c in x_basis.items():
        if labels is None:
            labels = lam.labels
        assert lam.labels == labels, "mixed label sets"
        coords[lam] = c
    if labels is None:
        labels = tuple(range(G.order))
    return MultiSymElem(labels, coords)


def ch_ring_hom_check(G: FiniteGroup, max_total: int,
                      budget: int = DEFAULT_WREATH_BUDGET):
    """ch(Ind(X_lam boxtimes X_mu)) = S_lam . S_mu for all label pairs with
    total size <= max_total; returns (ok, failures)."""
    from ..exactmath.symfunc import multisym_mul
    k = G.order
    failures = []
    for n in range(0, max_total + 1):
        for m in range(0, max_total + 1 - n):
            for lam in partition_maps(n, tuple(range(k))):
                for mu in partition_maps(m, tuple(range(k))):
                    ind = induction_product(G, lam, mu, budget)
                    lhs = ch(G, ind)
                    rhs = multisym_mul(MultiSymElem.basis(lam),
                                       MultiSymElem.basis(mu))
                    if lhs != rhs:
                        failures.append({"lam": lam.to_json(),
                                         "mu": mu.to_json(),
                                         "lhs": lhs.to_json(),
                                         "rhs": rhs.to_json()})
    return (not failures), failures
