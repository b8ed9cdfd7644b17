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
sums of weighted Hermitian products of these vectors, computed as packed
row products (`PackedProducts` of exactmath.cyclotomic): the rows of a
table are packed once into big integers, one signed slot per row, wide
enough for an a-priori bound on every sum, so that phi(e) big-integer sums
give one row of the gram, or every multiplicity of one label pair.  Both
read `values` afresh on every call, so a certificate is always of the
printed values; Fraction values are scaled to integers by their common
denominator first.  Tables are certified by class sizes adding up to |W|,
row orthogonality and the squared dimensions; the column relation follows
from the rows (`check_orthogonality`).  Induction multiplicities come from
Frobenius reciprocity over class labels, in one batch per size pair
(n, m) (`induction_products`), each lam folded once into the packed columns
of the big table, so that a label pair costs phi(e) sums.  On K_0, ch
sends the induction product to the componentwise Littlewood-Richardson
product, which is what the acceptance suite verifies
(`ch_ring_hom_check`): both sides are integers keyed by the parts of nu,
the multiplicities and the products of LR coefficients (`lr_product` of
exactmath.symfunc), and the Fractions of ch and multisym_mul are built only
for the witness of a failing pair.  The tests' oracles (`tests/oracles`)
are the walk per (lam, rho) and the sums over the elements of the group
and of the Young subgroup for the values, one `dot` per pair of rows or
per (lam, mu, nu), the restricted class function of each label pair, and
per-term cyclotomic arithmetic for the certificates and multiplicities,
and the class label of each element.  Tables are memoised on their group
(`character_table`), so they are dropped with it.
"""

import weakref
from collections import Counter
from fractions import Fraction
from itertools import chain
from math import factorial, prod
from operator import mul

from .. import UsageError
from ..exactmath.cyclotomic import (PackedProducts, column_norms,
                                    euler_phi, integral_rows, poly_string,
                                    reduce_poly)
from ..exactmath.partitions import PartitionMap, partition_maps
from ..exactmath.symfunc import MultiSymElem, lr_product, multisym_mul
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
        self.dual = chars = abelian_dual(G)
        k = G.order

        # G is abelian, so its classes are its elements, numbered as in
        # G.elements; classes and linear characters are both range(k)
        self.class_labels = self.irr_labels = partition_maps(n, range(k))
        self.pos = {l: i for i, l in enumerate(self.class_labels)}
        self.class_sizes = [self.order // centralizer_order(k, rho)
                            for rho in self.class_labels]
        one = G.index[G.identity]
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

    def check_orthogonality(self):
        """(True, None), or (False, witness) for the first failing check:
        the class sizes add up to |W|; the rows are orthonormal,
        X D X* = |W| I with D = diag(class sizes); the squared dimensions
        add up to |W|.  The column relation X* X = |W| D^-1 is not checked
        apart, as the rows imply it: the table is square, so X D X* = |W| I
        makes X invertible with inverse D X* / |W|, and X* X = |W| D^-1.

        Row i of the gram is packed (`PackedProducts`) and compared whole
        with |W| d^2 2^(W i) and zeros, d the common denominator of the
        values; its slots are read only when it differs.  The gram is
        Hermitian and every row before it matched, so the first entry that
        differs has j >= i and is the first failing pair (i, j), i <= j,
        in order: an entry that is not rational raises ArithmeticError,
        one that is rational but wrong gives ("row", i, j)."""
        if sum(self.class_sizes) != self.order:
            return False, ("class sizes", sum(self.class_sizes), self.order)
        rows, den = integral_rows(self.values)
        unit = self.order * den * den
        gram = PackedProducts(self.e, rows, weights=self.class_sizes,
                              largest=unit)
        for i, row in enumerate(rows):
            packed = gram(row)
            if packed[0] == unit << gram.bits * i and not any(packed[1:]):
                continue
            for j, tot in enumerate(zip(*map(gram.slots, packed))):
                if any(tot[1:]):
                    value = poly_string([Fraction(x, unit) for x in tot])
                    raise ArithmeticError(f"inner product of rows {i} and "
                                          f"{j} is not rational: {value}")
                if tot[0] != (unit if i == j else 0):
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
    (a, b) of the Young subgroup, of weight |a| |b|, which lies in the
    class a + b (partitions joined class by class) of the big group.  What
    depends only on (n, m) is done once: the rows of each table are read
    once, the joined class of each class pair is found once, and the big
    table's rows are packed once (`PackedProducts`) into phi(e) columns,
    one entry per flat position (joined class, coefficient k) of an
    unreduced product.  Each lam is folded into every column once: the
    folded column holds at (b, j) the sum of |a| |b| lam(a)[i]
    column[(a + b, i + j)] over the (a, i), so that the multiplicities of
    every nu in one pair are the slots of the phi(e) integers
    sum(map(mul, flat mu row, folded column)), the packed sums of the
    restricted class function lam x mu only reassociated.  Fraction values
    are scaled by the common denominator of each table, which the
    denominator of the multiplicities takes up; the first nu, in label
    order, whose multiplicity is not in N raises ArithmeticError."""
    big = character_table(G, n + m, budget)
    small_n = character_table(G, n, budget)
    small_m = character_table(G, m, budget)
    if pairs is None:
        pairs = [(lam, mu) for lam in small_n.irr_labels
                 for mu in small_m.irr_labels]
    rows_n, den_n = integral_rows(small_n.values)
    rows_m, den_m = integral_rows(small_m.values)
    rows_big, den_big = integral_rows(big.values)
    norms_n, norms_m = column_norms(rows_n), column_norms(rows_m)
    # the three tables share one label set, so a class is its parts
    pos = {rho.parts: c for c, rho in enumerate(big.class_labels)}
    joined = [[pos[tuple(tuple(sorted(p + q, reverse=True))
                         for p, q in zip(rho1.parts, rho2.parts))]
               for rho2 in small_m.class_labels]
              for rho1 in small_n.class_labels]
    xnorms = {}  # per joined class, a bound on |lam x mu summed there|_1
    for a, size_a in enumerate(small_n.class_sizes):
        for b, size_b in enumerate(small_m.class_sizes):
            c = joined[a][b]
            xnorms[c] = (xnorms.get(c, 0)
                         + size_a * size_b * norms_n[a] * norms_m[b])
    classes = list(xnorms)
    phi = euler_phi(big.e)
    width = 2 * phi - 1
    products = PackedProducts(big.e, [[row[c] for c in classes]
                                      for row in rows_big],
                              xnorms=list(xnorms.values()), width=width)
    den = small_n.order * small_m.order * den_n * den_m * den_big
    # per column and per (b, j), its entries at (a + b, i + j) over the
    # flat (a, i): the positions that lam(a)[i] mu(b)[j] adds to
    start = {c: t * width for t, c in enumerate(classes)}
    gathered = [[[col[start[joined[a][b]] + i + j]
                  for a in range(len(joined)) for i in range(phi)]
                 for b in range(len(small_m.class_sizes)) for j in range(phi)]
                for col in products.columns]
    sizes_b = [size for size in small_m.class_sizes for _ in range(phi)]

    out = {}
    folded_lam = None   # the pairs come lam by lam: one fold is kept
    for lam, mu in pairs:
        if lam != folded_lam:
            row = [size * x for size, v in zip(small_n.class_sizes,
                                               rows_n[small_n.pos[lam]])
                   for x in v]
            folded = [[size * sum(map(mul, row, g))
                       for size, g in zip(sizes_b, per_bj)]
                      for per_bj in gathered]
            folded_lam = lam
        row_mu = list(chain.from_iterable(rows_m[small_m.pos[mu]]))
        packed = [sum(map(mul, row_mu, col)) for col in folded]
        rational = products.slots(packed[0])
        if any(packed[1:]) or min(rational) < 0 or any(
                x % den for x in rational):
            for nu, tot in zip(big.irr_labels,
                               zip(*map(products.slots, packed))):
                if any(tot[1:]) or tot[0] % den or tot[0] < 0:
                    value = poly_string([Fraction(x, den) for x in tot])
                    raise ArithmeticError(f"multiplicity of {nu} in the "
                                          f"induction product is not in "
                                          f"N: {value}")
        out[lam, mu] = {nu: x // den
                        for nu, x in zip(big.irr_labels, rational) if x}
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
    total size <= max_total; returns (ok, failures).  Both sides are
    compared in integers, keyed by the parts of nu: the multiplicities of
    `induction_products`, and the componentwise Littlewood-Richardson
    product prod_x c^{nu(x)}_{lam(x) mu(x)} (`lr_product`).  ch and
    multisym_mul, with their Fractions, build only the witness of a
    failing pair."""
    failures = []
    for n in range(0, max_total + 1):
        for m in range(0, max_total + 1 - n):
            products = induction_products(G, n, m, budget)
            for (lam, mu), ind in products.items():
                rhs = lr_product(lam.parts, mu.parts)
                if {nu.parts: c for nu, c in ind.items()} != rhs:
                    failures.append({
                        "lam": lam.to_json(), "mu": mu.to_json(),
                        "lhs": ch(G, ind).to_json(),
                        "rhs": multisym_mul(MultiSymElem.basis(lam),
                                            MultiSymElem.basis(mu)).to_json()})
    return (not failures), failures
