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
|W| = |G|^n n!.  No group element is built.  The maps from the cycles of
rho are walked once for all labels (`class_terms`): every map has one size
vector (|lam(gamma)|)_gamma, so the walk records the zeta exponents summed
for each way of sending lengths to characters, grouped by size vector, and
chi^lam(rho) reads the group of lam's sizes.  Classes and irreducibles
have the same labels, so one label list indexes both rows and columns.
Every value lies in Z[zeta_e], e the exponent of G, and is kept as its
integer coefficient vector in the power basis 1, zeta_e, ...,
zeta_e^(phi(e)-1) from the closed formula to the printed JSON
(`poly_string`).  The certificate and the induction multiplicities are
sums of weighted Hermitian products of these vectors on the integer kernel
of exactmath.cyclotomic, each reduced mod Phi_e once, and read `values`
afresh on every call, so a certificate is always of the printed values.
Tables are certified by class sizes adding up to |W|, row orthogonality
and the squared dimensions; the column relation follows from the rows
(`check_orthogonality`).  Induction multiplicities come from Frobenius
reciprocity over class labels, in one batch per size pair (n, m)
(`induction_products`).  The tests' oracles (`tests/oracles`) are the walk
per (lam, rho) and the sums over the elements of the group and of the
Young subgroup for the values, per-term cyclotomic arithmetic for the
certificates, and the class label of each element.  On K_0, ch sends the
induction product to the componentwise Littlewood-Richardson product,
which is what the acceptance suite verifies.  Tables are memoised on their
group (`character_table`), so they are dropped with it.
"""

import weakref
from collections import Counter
from fractions import Fraction
from math import factorial, prod

from .. import UsageError
from ..exactmath.cyclotomic import (conjugate, dot, euler_phi, planes,
                                    poly_string, reduce_poly)
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


def hermitian_gram(e: int, vectors, weights=None):
    """Yields ((i, j), sum_c w_c x_i(c) conj(x_j(c))) for i <= j over
    Z[zeta_e], each x_i a list of integer coefficient vectors, one per
    class; the weights w_c default to 1."""
    xs = [planes(x, weights) for x in vectors]
    bars = [planes(conjugate(e, v) for v in x) for x in vectors]
    for i, x in enumerate(xs):
        for j in range(i, len(bars)):
            yield (i, j), dot(e, x, bars[j])


def class_terms(chars, e: int, rho: PartitionMap) -> dict:
    """The maps f from the cycles of rho to the dual, walked once for all
    labels: sizes -> [(lengths, counts)], lengths[gamma] the cycle lengths
    that f sends to gamma (longest first), sizes[gamma] their sum and
    counts[x] the number of such f with prod f(c, r)(c) = zeta_e^x;
    chars[gamma][c] is the exponent of gamma on the class c of G.  Maps
    that agree on the lengths sent to each gamma are merged as they are
    walked."""
    cycles = sorted(((r, c) for c, part in rho.items() for r in part),
                    reverse=True)
    terms = {((),) * len(chars): (1,) + (0,) * (e - 1)}
    for r, c in cycles:
        walked = {}
        for sent, counts in terms.items():
            for gamma, row in enumerate(chars):
                key = sent[:gamma] + (sent[gamma] + (r,),) + sent[gamma + 1:]
                out = walked.setdefault(key, [0] * e)
                for x, count in enumerate(counts):
                    out[(x + row[c]) % e] += count
        terms = walked
    by_size = {}
    for sent, counts in terms.items():
        by_size.setdefault(tuple(map(sum, sent)), []).append((sent, counts))
    return by_size


def _value(e: int, lam: PartitionMap, terms) -> tuple:
    """chi^lam(rho) from the terms of rho whose sizes are those of lam:
    each count times prod_gamma chi^{lam(gamma)}(lengths sent to gamma)."""
    acc = [0] * e   # acc[x]: the coefficient of zeta_e^x
    for sent, counts in terms:
        mn = prod(murnaghan_nakayama(part, lengths)
                  for part, lengths in zip(lam.parts, sent))
        if mn:
            for x, count in enumerate(counts):
                acc[x] += mn * count
    return tuple(reduce_poly(e, acc))


class WreathCharacterTable:
    """Exact character table of G wr S_n, G abelian: values[i][c] is the
    coefficient vector of chi^labels[i] on the class labels[c]."""

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

        # classes of G and linear characters are both range(k)
        self.class_labels = self.irr_labels = partition_maps(n, range(k))
        self.pos = {l: i for i, l in enumerate(self.class_labels)}
        self.class_sizes = [self.order // centralizer_order(k, rho)
                            for rho in self.class_labels]
        one = G.class_index_of(G.identity)
        self.identity_class = self.pos[PartitionMap(
            range(k), [(1,) * n if c == one else () for c in range(k)])]

        sizes = [tuple(map(sum, lam.parts)) for lam in self.irr_labels]
        columns = []
        for rho in self.class_labels:
            terms = class_terms(chars, self.e, rho)
            columns.append([_value(self.e, lam, terms.get(size, ()))
                            for lam, size in zip(self.irr_labels, sizes)])
        self.values = [list(row) for row in zip(*columns)]

    def dimension(self, lam: PartitionMap) -> int:
        v = self.values[self.pos[lam]][self.identity_class]
        if any(v[1:]) or v[0] % 1:
            raise ArithmeticError(f"character {lam} has value "
                                  f"{poly_string(v)} at the identity, not "
                                  f"a whole number")
        return int(v[0])

    def _rational(self, tot, den, what) -> Fraction:
        """The kernel's reduced sum tot over the denominator den, which
        must be rational."""
        if any(tot[1:]):
            value = poly_string([Fraction(x, den) for x in tot])
            raise ArithmeticError(f"{what} is not rational: {value}")
        return Fraction(tot[0], den)

    def check_orthogonality(self):
        """(True, None), or (False, witness) for the first failing check:
        the class sizes add up to |W|; the rows are orthonormal,
        X D X* = |W| I with D = diag(class sizes); the squared dimensions
        add up to |W|.  The column relation X* X = |W| D^-1 is not checked
        apart, as the rows imply it: the table is square, so X D X* = |W| I
        makes X invertible with inverse D X* / |W|, and X* X = |W| D^-1."""
        if sum(self.class_sizes) != self.order:
            return False, ("class sizes", sum(self.class_sizes), self.order)
        for (i, j), tot in hermitian_gram(self.e, self.values,
                                          self.class_sizes):
            q = self._rational(tot, self.order,
                               f"inner product of rows {i} and {j}")
            if q != (1 if i == j else 0):
                return False, ("row", i, j)
        dims2 = sum(self.dimension(l) ** 2 for l in self.irr_labels)
        if dims2 != self.order:
            return False, ("sum of squares", dims2, self.order)
        return True, None

    def to_json(self):
        return {
            "group": f"{self.G.name} wr S_{self.n}",
            "order": self.order,
            "class_labels": [l.to_json() for l in self.class_labels],
            "class_sizes": self.class_sizes,
            "irreducible_labels": [l.to_json() for l in self.irr_labels],
            "conductor": self.e,
            "values": [[poly_string(v) for v in row] for row in self.values],
        }


_MEMO_KEY = "wreath character tables"
_memo_holders = weakref.WeakSet()   # the groups holding tables, for clearing


def character_table(G: FiniteGroup, n: int,
                    budget: int = DEFAULT_WREATH_BUDGET):
    """The table of G wr S_n, memoised in G.memo: it lives as long as G."""
    wreath_order(G, n, budget)
    tables = G.memo.setdefault(_MEMO_KEY, {})
    if n not in tables:
        tables[n] = WreathCharacterTable(G, n, budget=budget)
        _memo_holders.add(G)
    return tables[n]


def _clear_character_tables():
    for G in list(_memo_holders):
        G.memo.pop(_MEMO_KEY, None)
    _memo_holders.clear()


# as on a functools cache, so that a cold start can drop every live table
character_table.cache_clear = _clear_character_tables


def induction_products(G: FiniteGroup, n: int, m: int,
                       budget: int = DEFAULT_WREATH_BUDGET,
                       pairs=None) -> dict:
    """{(lam, mu): decomposition of Ind_{G wr (S_n x S_m)}^{G wr S_{n+m}}
    (X_lam boxtimes X_mu)} for the given label pairs of sizes n and m, by
    default all of them in label order.  By Frobenius reciprocity,
    <Ind chi, chi_nu> = <chi, Res chi_nu>, a sum over pairs of classes
    (rho1, rho2) of the Young subgroup, which lies in the class rho1 + rho2
    (partitions joined class by class) of the big group.  What depends only
    on (n, m) is done once: the rows of each table are read once, the
    joined class and weight of each class pair are found once, and the big
    table's rows are conjugated once."""
    big = character_table(G, n + m, budget)
    small_n = character_table(G, n, budget)
    small_m = character_table(G, m, budget)
    if pairs is None:
        pairs = [(lam, mu) for lam in small_n.irr_labels
                 for mu in small_m.irr_labels]
    e = big.e
    joins = []   # (a, b, the class a + b of the big group, |a| |b|)
    for a, rho1 in enumerate(small_n.class_labels):
        for b, rho2 in enumerate(small_m.class_labels):
            joined = big.pos[PartitionMap(rho1.labels, [
                tuple(sorted(p + q, reverse=True))
                for p, q in zip(rho1.parts, rho2.parts)])]
            joins.append((a, b, joined,
                          small_n.class_sizes[a] * small_m.class_sizes[b]))
    classes = list(dict.fromkeys(joined for _, _, joined, _ in joins))
    bars = [planes(conjugate(e, row[c]) for c in classes)
            for row in big.values]
    den = small_n.order * small_m.order
    width = 2 * euler_phi(e) - 1

    out = {}
    for lam, mu in pairs:
        # the class function lam x mu summed over each class of the big
        # group, as integer polynomials in zeta_e, unreduced
        row_lam = small_n.values[small_n.pos[lam]]
        row_mu = small_m.values[small_m.pos[mu]]
        restricted = {c: [0] * width for c in classes}
        for a, b, joined, w in joins:
            acc = restricted[joined]
            for i, xi in enumerate(row_lam[a]):
                if xi:
                    for j, yj in enumerate(row_mu[b]):
                        acc[i + j] += w * xi * yj
        xs = planes(restricted.values())
        decomposition = out[lam, mu] = {}
        for nu, bar in zip(big.irr_labels, bars):
            tot = dot(e, xs, bar)
            if any(tot[1:]) or tot[0] % den or tot[0] < 0:
                value = poly_string([Fraction(x, den) for x in tot])
                raise ArithmeticError(f"multiplicity of {nu} in the "
                                      f"induction product is not in N: "
                                      f"{value}")
            if tot[0]:
                decomposition[nu] = tot[0] // den
    return out


def induction_product(G: FiniteGroup, lam: PartitionMap, mu: PartitionMap,
                      budget: int = DEFAULT_WREATH_BUDGET) -> dict:
    """Decomposition of Ind_{G wr (S_n x S_m)}^{G wr S_{n+m}}
    (X_lam boxtimes X_mu): induction_products for the one pair."""
    return induction_products(G, lam.total, mu.total, budget,
                              [(lam, mu)])[lam, mu]


def ch(G: FiniteGroup, x_basis: dict) -> MultiSymElem:
    """Linear extension of X_lam -> S_lam = prod s_{lam(gamma)}."""
    labels = None
    coords = {}
    for lam, c in x_basis.items():
        if labels is None:
            labels = lam.labels
        if lam.labels != labels:
            raise ValueError(f"mixed label sets: {lam.labels} and {labels}")
        coords[lam] = c
    if labels is None:
        labels = tuple(range(G.order))
    return MultiSymElem(labels, coords)


def ch_ring_hom_check(G: FiniteGroup, max_total: int,
                      budget: int = DEFAULT_WREATH_BUDGET):
    """ch(Ind(X_lam boxtimes X_mu)) = S_lam . S_mu for all label pairs with
    total size <= max_total; returns (ok, failures)."""
    from ..exactmath.symfunc import multisym_mul
    failures = []
    for n in range(0, max_total + 1):
        for m in range(0, max_total + 1 - n):
            products = induction_products(G, n, m, budget)
            for (lam, mu), ind in products.items():
                lhs = ch(G, ind)
                rhs = multisym_mul(MultiSymElem.basis(lam),
                                   MultiSymElem.basis(mu))
                if lhs != rhs:
                    failures.append({"lam": lam.to_json(),
                                     "mu": mu.to_json(),
                                     "lhs": lhs.to_json(),
                                     "rhs": rhs.to_json()})
    return (not failures), failures
