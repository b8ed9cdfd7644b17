"""Irreducible characters of G wr S_n for abelian G, the induction product,
and the characteristic map into products of Schur functions.

Classes and irreducibles are both labeled by partition-valued maps, so one
label list indexes rows and columns: a class rho has a cycle (c, r) for
each part r of rho(c), c the class in G of the cycle product; X_lam has a
partition lam(gamma) on each linear character gamma.  ch sends X_lam to
S_lam = prod_gamma s_{lam(gamma)} and the class rho to
prod_{(c, r)} sum_gamma gamma(c) p_r(gamma) (Macdonald, Symmetric
Functions and Hall Polynomials, Ch. I App. B).  So chi^lam(rho) is a sum
over the maps f from the cycles to the dual that send cycle lengths
adding up to |lam(gamma)| to each gamma, of prod f(c, r)(c) times
prod_gamma chi^{lam(gamma)}(lengths sent to gamma), and the class rho has
|W| / prod_c z_{rho(c)} |G|^{l(rho(c))} elements, |W| = |G|^n n!.  No
group element is built: the maps are walked by prefixes of the sorted
cycles, merged by the lengths they send to each gamma ("sent") and their
zeta exponent, and summed against packed rows of the Kronecker products
of the S_m tables (`WreathCharacterTable`).  Every value lies in
Z[zeta_e], e the exponent of G, and is kept as its integer coefficient
vector in the power basis from the closed formula to the printed JSON
(`poly_string`).

Tables are certified by class sizes adding up to |W|, row orthogonality
and the squared dimensions (`check_orthogonality`); induction
multiplicities come from Frobenius reciprocity over class labels, in one
batch per size pair (`induction_products`).  Both are packed row products
(`PackedProducts` of exactmath.cyclotomic) of the printed `values`, read
afresh on every call and never the build's packed rows.  On K_0, ch sends
the induction product to the componentwise Littlewood-Richardson product,
which `ch_ring_hom_check` compares in integers keyed by the parts of nu;
the Fractions of ch and multisym_mul are built only for the witness of a
failing pair.  The tests' oracles (`tests/oracles`) are the walk per
(lam, rho), the unpacked block product with Murnaghan-Nakayama per
(shape, cycle type), sums over the elements of the group and of the Young
subgroup, one `dot` per pair of rows or per (lam, mu, nu), the restricted
class function of each label pair, and per-term cyclotomic arithmetic.
Tables are memoised on their group (`character_table`), so they are
dropped with it.
"""

import weakref
from fractions import Fraction
from itertools import chain
from math import factorial, prod
from operator import lshift, mul

from .. import UsageError
from ..exactmath.cyclotomic import (PackedProducts, Slots, column_norms,
                                    euler_phi, integral_rows, poly_string,
                                    reduction_rows)
from ..exactmath.partitions import (PartitionMap, partition_maps,
                                    partitions_of)
from ..exactmath.symfunc import MultiSymElem, lr_product, multisym_mul
from ..exactmath.tableaux import standard_tableaux_count
from ..groups import FiniteGroup
from .characters import abelian_dual, symmetric_tables
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
    for r in set(part):
        out *= r ** part.count(r) * factorial(part.count(r))
    return out


def _extend(terms, cycle, chars, e: int) -> dict:
    """The walk `terms` of the maps f from a prefix of a class's cycles to
    the dual, extended by one more cycle (r, c): (sent, x) -> the number of
    f with sent[gamma] the lengths sent to gamma (longest first) and
    prod f(c, r)(c) = zeta_e^x, chars[gamma][c] the exponent of gamma."""
    r, c = cycle
    out = {}
    for (sent, x), count in terms.items():
        for gamma, row in enumerate(chars):
            key = (sent[:gamma] + (sent[gamma] + (r,),) + sent[gamma + 1:],
                   (x + row[c]) % e)
            out[key] = out.get(key, 0) + count
    return out


class WreathCharacterTable:
    """Exact character table of G wr S_n, G abelian: values[i][c] is the
    coefficient vector of chi^labels[i] on the class labels[c]."""

    def __init__(self, G: FiniteGroup, n: int,
                 budget: int = DEFAULT_WREATH_BUDGET):
        if not G.is_abelian():
            raise UsageError("wreath character tables need abelian G "
                             "(linear characters)")
        self.G, self.n = G, n
        self.e = e = G.exponent()
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

        # the labels of one size vector s are consecutive, in the order of
        # the product of the partitions of each s_gamma, and so are the
        # sents of sizes s: K[sent] has, in the slot of each label lam of
        # its block, prod_gamma chi^{lam(gamma)}(sent(gamma)).  A slot sums
        # at most k^n maps times the largest |K| and reduction row entries.
        tables = symmetric_tables(n)
        rows, first = [], {}   # (first label of its block, K row) per label
        for i, lam in enumerate(labels):
            row = [1]
            for part in lam.parts:
                row = [x * y for x in row for y in tables[part]]
            rows.append((first.setdefault(tuple(map(sum, lam.parts)), i),
                         row))
        reduction = reduction_rows(e)
        bound = (max(map(abs, chain.from_iterable(reduction))) * k ** n
                 * max(abs(x) for _, row in rows for x in row))
        slots = Slots(len(labels), bound.bit_length() + 1)
        bits = slots.bits
        packed = {lam.parts: sum(map(lshift, row, range(
                      bits * start, bits * (start + len(row)), bits)))
                  for lam, (start, row) in zip(labels, rows)}

        # per class, acc[x] sums count K[sent] over the maps with zeta
        # exponent x, and the slots of sum_x coef_a(zeta^x) acc[x] are
        # coefficient a of the class's column.  Each distinct proper prefix
        # of the sorted cycles is walked once, in a trie; a class's last
        # cycle (no whole list of size n is a prefix) goes into acc.
        coefs = list(zip(*reduction))   # coefs[a][x]: coef_a(zeta_e^x)
        root = ({(((),) * k, 0): 1}, {})   # (walk, child per next cycle)
        self.values = values = [[None] * len(labels) for _ in labels]
        for c, rho in enumerate(labels):
            cycles = sorted(((r, g) for g, part in enumerate(rho.parts)
                             for r in part), reverse=True)
            node = root
            for cycle in cycles[:-1]:
                child = node[1].get(cycle)
                if child is None:
                    child = node[1][cycle] = (_extend(node[0], cycle, chars,
                                                      e), {})
                node = child
            acc = [0] * e
            if cycles:
                r, g = cycles[-1]
                for (sent, x), count in node[0].items():
                    for gamma, row in enumerate(chars):
                        acc[(x + row[g]) % e] += count * packed[
                            sent[:gamma] + (sent[gamma] + (r,),)
                            + sent[gamma + 1:]]
            else:
                acc[0] = packed[((),) * k]
            column = zip(*[slots.slots(sum(map(mul, per_a, acc)))
                           for per_a in coefs])
            for row, v in zip(values, column):
                row[c] = v

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


def _packed_big(G: FiniteGroup, total: int, sizes, budget: int,
                forms: dict):
    """The big table of size `total` packed once for the splits
    (n, total - n), n in `sizes`, kept in forms with, per n, the two small
    tables and the joined class of each class pair.  At a joined class c,
    |lam x mu|_1 is at most the sum of |a| |b| norm(a) norm(b) over a
    split's class pairs (a, b) joining into c; the largest over the splits
    bounds every split's slots."""
    big = character_table(G, total, budget)
    rows_big, _, norms_big = _integral_form(forms, big)
    # the tables share one label set, so a class is its parts
    pos = {rho.parts: c for c, rho in enumerate(big.class_labels)}
    xnorms = [0] * len(pos)
    splits = {}
    for n in sizes:
        small_n = character_table(G, n, budget)
        small_m = character_table(G, total - n, budget)
        norms_n = _integral_form(forms, small_n)[2]
        norms_m = _integral_form(forms, small_m)[2]
        joined = [[pos[tuple(tuple(sorted(p + q, reverse=True))
                             for p, q in zip(rho1.parts, rho2.parts))]
                   for rho2 in small_m.class_labels]
                  for rho1 in small_n.class_labels]
        per_class = [0] * len(pos)
        for a, size_a in enumerate(small_n.class_sizes):
            for b, size_b in enumerate(small_m.class_sizes):
                per_class[joined[a][b]] += (size_a * size_b * norms_n[a]
                                            * norms_m[b])
        xnorms = list(map(max, xnorms, per_class))
        splits[n] = small_n, small_m, joined
    products = PackedProducts(big.e, rows_big, xnorms=xnorms,
                              width=2 * euler_phi(big.e) - 1,
                              ynorms=norms_big)
    forms["packed", total] = packing = big, products, splits
    return packing


def induction_products(G: FiniteGroup, n: int, m: int,
                       budget: int = DEFAULT_WREATH_BUDGET,
                       pairs=None, forms=None) -> dict:
    """{(lam, mu): decomposition of Ind_{G wr (S_n x S_m)}^{G wr S_{n+m}}
    (X_lam boxtimes X_mu)} for the given label pairs of sizes n and m, by
    default all of them in label order.  By Frobenius reciprocity,
    <Ind chi, chi_nu> = <chi, Res chi_nu>, a sum over pairs of classes
    (a, b) of the Young subgroup, of weight |a| |b|, which lies in the
    class a + b (partitions joined class by class) of the big group.  The
    big table's rows are packed into phi(e) columns (`_packed_big`) once
    per `forms` and total size for every split (`ch_ring_hom_check`), or
    here for the one split (n, m).  Each table's integer rows and column
    norms are read off its values once per `forms`, fresh by default, so
    they are those of the values at that call.  Each lam is folded into
    every column once: the folded column holds at (b, j) the sum of
    |a| |b| lam(a)[i] column[(a + b, i + j)] over the (a, i), so that the
    multiplicities of every nu in one pair are the nonzero slots of the
    phi(e) integers sum(map(mul, flat mu row, folded column)).  Fraction
    values are scaled by the common denominator of each table, which the
    denominator of the multiplicities takes up; the first nu, in label
    order, whose multiplicity is not in N raises ArithmeticError."""
    forms = {} if forms is None else forms
    packing = forms.get(("packed", n + m))
    if packing is None or n not in packing[2]:
        packing = _packed_big(G, n + m, [n], budget, forms)
    big, products, splits = packing
    small_n, small_m, joined = splits[n]
    if pairs is None:
        pairs = [(lam, mu) for lam in small_n.irr_labels
                 for mu in small_m.irr_labels]
    rows_n, den_n, _ = forms[small_n]
    rows_m, den_m, _ = forms[small_m]
    den = small_n.order * small_m.order * den_n * den_m * forms[big][1]
    # per column and per (b, j), its entries at (a + b, i + j) over the
    # flat (a, i): the positions that lam(a)[i] mu(b)[j] adds to
    phi = euler_phi(big.e)
    width = 2 * phi - 1
    gathered = [[[col[width * joined[a][b] + i + j]
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
    for total in range(max_total + 1):
        _packed_big(G, total, range(total + 1), budget, forms)
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
