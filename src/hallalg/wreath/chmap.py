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
|W| = |G|^n n!, z_p read once per partition p.  No group element is
built.  The maps from the cycles of rho are walked once for all labels
(`class_terms`): every map has one size vector (|lam(gamma)|)_gamma, so
the walk records the zeta exponents summed for each way of sending
lengths to characters ("sent"), grouped by size vector.  The sents of
sizes s are the labels of sizes s, so the values of the labels of sizes s
are a block product: the counts of rho, reduced mod Phi_e once per sent
(the reduction is linear), against the block M_s[sent][lam] =
prod_gamma chi^{lam(gamma)}(sent(gamma)), the Kronecker product of the
S_{s_gamma} tables, built once per table; a value is phi(e) dot products
over the block.  Classes and irreducibles have the same labels, so one
label list indexes both rows and columns.  Every value lies in Z[zeta_e],
e the exponent of G, and is kept as its integer coefficient vector in the
power basis 1, zeta_e, ..., zeta_e^(phi(e)-1) from the closed formula to
the printed JSON (`poly_string`).  The certificate and the induction
multiplicities are sums of weighted Hermitian products of these vectors,
computed as packed row products (`PackedProducts` of
exactmath.cyclotomic): the rows of a table are packed once into big
integers, one signed slot per row, wide enough for an a-priori bound on
every sum, so that phi(e) big-integer sums give one row of the gram, or
every multiplicity of one label pair.  Both read `values` afresh on every
call (one `ch_ring_hom_check` reads each table once for all its size
pairs), so a certificate is always of the printed values; Fraction values
are scaled to integers by their common denominator first.  Tables are
certified by class sizes adding up to |W|, row orthogonality and the
squared dimensions; the column relation follows from the rows
(`check_orthogonality`).  Induction multiplicities come from Frobenius
reciprocity over class labels, in one batch per size pair (n, m)
(`induction_products`), each lam folded once into the packed columns of
the big table, so that a label pair costs phi(e) sums and the decoding of
its nonzero slots.  On K_0, ch sends the induction product to the
componentwise Littlewood-Richardson product, which is what the acceptance
suite verifies (`ch_ring_hom_check`): both sides are integers keyed by the
parts of nu, the multiplicities and the products of LR coefficients
(`lr_product` of exactmath.symfunc), and the Fractions of ch and
multisym_mul are built only for the witness of a failing pair.  The
tests' oracles (`tests/oracles`) are the walk per (lam, rho) and the sums
over the elements of the group and of the Young subgroup for the values,
one `dot` per pair of rows or per (lam, mu, nu), the restricted class
function of each label pair, and per-term cyclotomic arithmetic for the
certificates and multiplicities, and the class label of each element.
Tables are memoised on their group (`character_table`), so they are
dropped with it.
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
from ..exactmath.partitions import (PartitionMap, partition_maps,
                                    partitions_of)
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


def cycle_centralizer(k: int, part) -> int:
    """z_part k^l(part), G abelian of order k: the factor of
    |W| / |class rho| = prod_c z_{rho(c)} k^{l(rho(c))} that the cycles of
    lengths part over one class c of G give."""
    out = k ** len(part)
    for r, mult in Counter(part).items():
        out *= r ** mult * factorial(mult)
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
        labels = partition_maps(n, range(k))
        self.class_labels = self.irr_labels = labels
        self.pos = {l: i for i, l in enumerate(labels)}
        z = {part: cycle_centralizer(k, part)
             for size in range(n + 1) for part in partitions_of(size)}
        self.class_sizes = [self.order // prod(map(z.__getitem__, rho.parts))
                            for rho in labels]
        one = G.index[G.identity]
        self.identity_class = self.pos[PartitionMap(
            range(k), [(1,) * n if c == one else () for c in range(k)])]

        # the labels of one size vector s, in label order, are the product
        # of the partitions of each s_gamma, and so are the lengths that
        # class_terms sends with sizes s: one block of both.  Column lam of
        # the block is prod_gamma chi^{lam(gamma)}(sent(gamma)) over the
        # sents, a column of the Kronecker product of the S_{s_gamma}
        # tables.
        sn = {shape: [murnaghan_nakayama(shape, cycles) for cycles in pool]
              for pool in map(partitions_of, range(n + 1)) for shape in pool}
        blocks = {}   # s -> [(row of lam, block column of lam)]
        where = {}    # the parts of a label -> its index in its block
        for i, lam in enumerate(labels):
            block = blocks.setdefault(tuple(map(sum, lam.parts)), [])
            where[lam.parts] = len(block)
            column = [1]
            for shape in lam.parts:
                column = [x * y for x in column for y in sn[shape]]
            block.append((i, column))

        e, phi = self.e, euler_phi(self.e)
        zero = (0,) * phi
        self.values = values = [[zero] * len(labels) for _ in labels]
        for c, rho in enumerate(labels):
            for size, terms in class_terms(chars, e, rho).items():
                block = blocks[size]
                # coefficient a of each sent's reduced count, by sent
                reduced = [[0] * len(block) for _ in range(phi)]
                for sent, counts in terms:
                    j = where[sent]
                    for per_a, x in zip(reduced, reduce_poly(e, counts)):
                        per_a[j] = x
                for i, column in block:
                    values[i][c] = tuple([sum(map(mul, per_a, column))
                                          for per_a in reduced])

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
        # a table has few distinct values (C3 n=3: 21 among 484): each is
        # formatted once
        text = {v: poly_string(v)
                for v in {v for row in self.values for v in row}}
        return {
            "group": f"{self.G.name} wr S_{self.n}",
            "order": self.order,
            "class_labels": [l.to_json() for l in self.class_labels],
            "class_sizes": self.class_sizes,
            "irreducible_labels": [l.to_json() for l in self.irr_labels],
            "conductor": self.e,
            "values": [list(map(text.__getitem__, row))
                       for row in self.values],
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


def _integral_form(forms: dict, tab):
    """The integer rows, common denominator and column norms of tab's
    values, read once per forms dict."""
    if tab not in forms:
        rows, den = integral_rows(tab.values)
        forms[tab] = rows, den, column_norms(rows)
    return forms[tab]


def induction_products(G: FiniteGroup, n: int, m: int,
                       budget: int = DEFAULT_WREATH_BUDGET,
                       pairs=None, forms=None) -> dict:
    """{(lam, mu): decomposition of Ind_{G wr (S_n x S_m)}^{G wr S_{n+m}}
    (X_lam boxtimes X_mu)} for the given label pairs of sizes n and m, by
    default all of them in label order.  By Frobenius reciprocity,
    <Ind chi, chi_nu> = <chi, Res chi_nu>, a sum over pairs of classes
    (a, b) of the Young subgroup, of weight |a| |b|, which lies in the
    class a + b (partitions joined class by class) of the big group.  What
    depends only on (n, m) is done once: the joined class of each class
    pair is found once, and the big table's rows are packed once
    (`PackedProducts`) into phi(e) columns, one entry per flat position
    (joined class, coefficient k) of an unreduced product.  Each table's
    integer rows and column norms are read off its values once per
    `forms`, a dict that one check (`ch_ring_hom_check`) passes to all its
    size pairs and that is fresh by default, so they are always those of
    the values at that call.  Each lam is folded into every column once:
    the folded column holds at (b, j) the sum of |a| |b| lam(a)[i]
    column[(a + b, i + j)] over the (a, i), so that the multiplicities of
    every nu in one pair are the slots of the phi(e) integers
    sum(map(mul, flat mu row, folded column)), the packed sums of the
    restricted class function lam x mu only reassociated; only the nonzero
    slots are decoded.  Fraction values are scaled by the common
    denominator of each table, which the denominator of the multiplicities
    takes up; the first nu, in label order, whose multiplicity is not in N
    raises ArithmeticError."""
    big = character_table(G, n + m, budget)
    small_n = character_table(G, n, budget)
    small_m = character_table(G, m, budget)
    if pairs is None:
        pairs = [(lam, mu) for lam in small_n.irr_labels
                 for mu in small_m.irr_labels]
    forms = {} if forms is None else forms
    rows_n, den_n, norms_n = _integral_form(forms, small_n)
    rows_m, den_m, norms_m = _integral_form(forms, small_m)
    rows_big, den_big, norms_big = _integral_form(forms, big)
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
                              xnorms=list(xnorms.values()), width=width,
                              ynorms=[norms_big[c] for c in classes])
    den = small_n.order * small_m.order * den_n * den_m * den_big
    # per column and per (b, j), its entries at (a + b, i + j) over the
    # flat (a, i): the positions that lam(a)[i] mu(b)[j] adds to
    start = {c: t * width for t, c in enumerate(classes)}
    gathered = [[[col[start[joined[a][b]] + i + j]
                  for a in range(len(joined)) for i in range(phi)]
                 for b in range(len(small_m.class_sizes)) for j in range(phi)]
                for col in products.columns]
    sizes_b = [size for size in small_m.class_sizes for _ in range(phi)]

    nus = big.irr_labels
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
        found = products.nonzero_slots(packed[0])
        if any(packed[1:]) or any(x < 0 or x % den for _, x in found):
            for nu, tot in zip(nus, zip(*map(products.slots, packed))):
                if any(tot[1:]) or tot[0] % den or tot[0] < 0:
                    value = poly_string([Fraction(x, den) for x in tot])
                    raise ArithmeticError(f"multiplicity of {nu} in the "
                                          f"induction product is not in "
                                          f"N: {value}")
        out[lam, mu] = {nus[j]: x // den for j, x in found}
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
    product prod_x c^{nu(x)}_{lam(x) mu(x)} (`lr_product`).  Each table's
    integer rows and column norms are read off its values once in this
    call, for all the size pairs it takes part in, so the check is of the
    values as they are when it runs.  ch and multisym_mul, with their
    Fractions, build only the witness of a failing pair."""
    failures = []
    forms = {}   # each table's integer form, read once in this check
    for n in range(0, max_total + 1):
        for m in range(0, max_total + 1 - n):
            products = induction_products(G, n, m, budget, forms=forms)
            for (lam, mu), ind in products.items():
                rhs = lr_product(lam.parts, mu.parts)
                if {nu.parts: c for nu, c in ind.items()} != rhs:
                    failures.append({
                        "lam": lam.to_json(), "mu": mu.to_json(),
                        "lhs": ch(G, ind).to_json(),
                        "rhs": multisym_mul(MultiSymElem.basis(lam),
                                            MultiSymElem.basis(mu)).to_json()})
    return (not failures), failures
