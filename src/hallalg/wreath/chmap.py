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
chi^lam(rho) reads the group of lam's sizes.  Tables are certified by exact
row and column orthogonality and by class sizes adding up to |W|;
induction multiplicities come from Frobenius reciprocity over class labels,
in one batch per size pair (n, m) (`induction_products`), which finds the
joined classes and reads each table once for all (lam, mu).
Every value lies in Z[zeta_e], e the exponent of G, so each of these sums
of weighted Hermitian products runs on the integer kernel of
exactmath.cyclotomic: the printed Cyc values are read into integer
coefficient vectors with one common denominator, the products accumulate
unreduced and each sum is reduced mod Phi_e once.  The integer form is
read afresh from `values` on every call, so a certificate is always of the
values that are printed.  The tests' oracles (`tests/oracles/wreath.py`)
are the walk per (lam, rho) and the sum over the elements of the group and
of the Young subgroup for the values, per-term Cyc arithmetic for the
certificates, the class label of each element, and the inner products and
decompositions of other class functions.  On K_0, ch sends the induction
product to the componentwise Littlewood-Richardson product, which is what
the acceptance suite verifies.  Tables are memoised on their group
(`character_table`), so they are dropped with it.
"""

import weakref
from collections import Counter
from fractions import Fraction
from math import factorial, prod

from .. import UsageError
from ..exactmath.cyclotomic import (Cyc, conjugate, dot, euler_phi,
                                    integer_form, planes, reduce_poly)
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


def _value(e: int, lam: PartitionMap, terms) -> Cyc:
    """chi^lam(rho) from the terms of rho whose sizes are those of lam:
    each count times prod_gamma chi^{lam(gamma)}(lengths sent to gamma)."""
    acc = [0] * e   # acc[x]: the coefficient of zeta_e^x
    for sent, counts in terms:
        mn = prod(murnaghan_nakayama(part, lengths)
                  for part, lengths in zip(lam.parts, sent))
        if mn:
            for x, count in enumerate(counts):
                acc[x] += mn * count
    return Cyc(e, reduce_poly(e, acc))


def _integer_rows(rows, e: int):
    """(vectors, d): each row of Cyc values as integer vectors over
    Z[zeta_e], d times each value, d the common denominator of all rows."""
    rows = [list(row) for row in rows]
    vecs, d = integer_form((v for row in rows for v in row), e)
    it = iter(vecs)
    return [[next(it) for _ in row] for row in rows], d


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
        sizes = [tuple(map(sum, lam.parts)) for lam in self.irr_labels]
        columns = []
        for rho in self.class_labels:
            terms = class_terms(chars, self.e, rho)
            columns.append([_value(self.e, lam, terms.get(size, ()))
                            for lam, size in zip(self.irr_labels, sizes)])
        self.values = [list(row) for row in zip(*columns)]

    def dimension(self, lam: PartitionMap) -> int:
        v = self.values[self.irr_pos[lam]][self.identity_class]
        if not v.is_rational() or v.rational_value().denominator != 1:
            raise ArithmeticError(f"character {lam} has value {v!r} at the "
                                  f"identity, not a whole number")
        return int(v.rational_value())

    def _rational(self, tot, den, what) -> Fraction:
        """The kernel's reduced sum tot over the denominator den, which
        must be rational."""
        if any(tot[1:]):
            value = Cyc(self.e, [Fraction(x, den) for x in tot])
            raise ArithmeticError(f"{what} is not rational: {value!r}")
        return Fraction(tot[0], den)

    def check_orthogonality(self):
        if sum(self.class_sizes) != self.order:
            return False, ("class sizes", sum(self.class_sizes), self.order)
        table, d = _integer_rows(self.values, self.e)
        for (i, j), tot in hermitian_gram(self.e, table, self.class_sizes):
            q = self._rational(tot, d * d * self.order,
                               f"inner product of rows {i} and {j}")
            if q != (1 if i == j else 0):
                return False, ("row", i, j)
        for (c, c2), tot in hermitian_gram(self.e, list(zip(*table))):
            want = Fraction(self.order, self.class_sizes[c]) if c == c2 else 0
            if any(tot[1:]) or Fraction(tot[0], d * d) != want:
                return False, ("column", c, c2)
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
            "values": [[v.to_string() for v in row] for row in self.values],
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
    on (n, m) is done once: each table's rows are read in one integer form,
    the joined class and weight of each class pair are found once, and the
    big table's rows are conjugated once."""
    big = character_table(G, n + m, budget)
    small_n = character_table(G, n, budget)
    small_m = character_table(G, m, budget)
    if pairs is None:
        pairs = [(lam, mu) for lam in small_n.irr_labels
                 for mu in small_m.irr_labels]
    e = big.e
    lams = list(dict.fromkeys(lam for lam, _ in pairs))
    mus = list(dict.fromkeys(mu for _, mu in pairs))
    va, da = _integer_rows((small_n.values[small_n.irr_pos[lam]]
                            for lam in lams), e)
    vb, db = _integer_rows((small_m.values[small_m.irr_pos[mu]]
                            for mu in mus), e)
    va, vb = dict(zip(lams, va)), dict(zip(mus, vb))

    joins = []   # (a, b, the class a + b of the big group, |a| |b|)
    for a, rho1 in enumerate(small_n.class_labels):
        for b, rho2 in enumerate(small_m.class_labels):
            joined = big.class_pos[PartitionMap(rho1.labels, [
                tuple(sorted(p + q, reverse=True))
                for p, q in zip(rho1.parts, rho2.parts)])]
            joins.append((a, b, joined,
                          small_n.class_sizes[a] * small_m.class_sizes[b]))
    classes = list(dict.fromkeys(joined for _, _, joined, _ in joins))
    vc, dc = _integer_rows(([row[c] for c in classes] for row in big.values),
                           e)
    bars = [planes(conjugate(e, v) for v in row) for row in vc]
    den = da * db * dc * small_n.order * small_m.order
    width = 2 * euler_phi(e) - 1

    out = {}
    for lam, mu in pairs:
        # the class function lam x mu summed over each class of the big
        # group, as integer polynomials in zeta_e, unreduced
        row_lam, row_mu = va[lam], vb[mu]
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
                value = Cyc(e, [Fraction(x, den) for x in tot])
                raise ArithmeticError(f"multiplicity of {nu} in the "
                                      f"induction product is not in N: "
                                      f"{value!r}")
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
