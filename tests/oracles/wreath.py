"""Wreath-product oracles that work element by element: the class label of
a wreath element from its cycles, an element with a given label, and
inner products and decompositions of class functions against a character
table.  The production character tables never build a group element.
`character_value` is the closed formula one (lam, rho) at a time, by
`murnaghan_nakayama` per pair, and `block_product_values` the route the
tables took before their rows were packed: one `class_terms` walk per
class and one dot product per (label, class, coefficient) against the
Kronecker columns of the S_m tables.  Class functions are lists of
coefficient vectors over Z[zeta_e], one per class, as in the tables;
`cyc_table` reads a table's vectors as Cyc values for the per-term
oracles.  `pairwise_check_orthogonality` and `pairwise_induction_products`
are the certificate and the multiplicities by one `dot` per pair, the
oracles of the packed row products, down to the witness and the text of
each ArithmeticError.  `restricted_induction_products` packs the restricted
class function of each label pair against the same packed columns, the
oracle of the per-lam fold down to the text of each ArithmeticError."""

from fractions import Fraction
from functools import cache
from math import prod
from operator import mul

from hallalg import UsageError
from hallalg.exactmath.cyclotomic import (PackedProducts, column_norms,
                                         euler_phi, integral_rows,
                                         poly_string)
from hallalg.exactmath.partitions import (PartitionMap, check_partition,
                                         partition_maps, partitions_of)
from hallalg.groups import FiniteGroup
from hallalg.wreath import chmap
from hallalg.wreath.characters import abelian_dual
from hallalg.wreath.wreathgroup import DEFAULT_WREATH_BUDGET

from .cyclotomic import (Cyc, conjugate, dot, hermitian_gram, planes,
                         reduce_poly)


def _border_strips(shape, t):
    """Removals of a border strip of size t, via beta-numbers: yields
    (remaining shape, height) where the sign contribution is (-1)^height."""
    rows = len(shape)
    betas = [shape[i] + (rows - 1 - i) for i in range(rows)]
    bset = set(betas)
    out = []
    for b in betas:
        nb = b - t
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for c in betas if nb < c < b)
        news = sorted((c for c in betas if c != b), reverse=True)
        news.append(nb)
        news.sort(reverse=True)
        lam = tuple(v - (rows - 1 - j) for j, v in enumerate(news))
        out.append((tuple(x for x in lam if x > 0), height))
    return out


@cache
def murnaghan_nakayama(shape, cycles) -> int:
    """chi^shape on the class of cycle type `cycles` (a partition), by
    removing border strips of the longest cycle first."""
    shape = check_partition(shape)
    cycles = check_partition(cycles)
    if sum(shape) != sum(cycles):
        raise ValueError(f"shape {shape} and cycle type {cycles} have "
                         f"different sizes")
    if not cycles:
        return 1
    t, rest = cycles[0], cycles[1:]
    return sum((-1) ** height * murnaghan_nakayama(smaller, rest)
               for smaller, height in _border_strips(shape, t))


def class_terms(chars, e: int, rho: PartitionMap) -> dict:
    """The maps f from the cycles of rho to the dual, walked once for all
    labels: sizes -> [(lengths, counts)], lengths[gamma] the cycle lengths
    that f sends to gamma (longest first), sizes[gamma] their sum and
    counts[x] the number of such f with prod f(c, r)(c) = zeta_e^x;
    chars[gamma][c] is the exponent of gamma on the class c of G."""
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


def block_product_values(G: FiniteGroup, n: int, tables=None):
    """The values of the table of G wr S_n by the unpacked block product:
    `class_terms` once per class, the counts reduced mod Phi_e once per
    (class, sent), and one dot product per (label, class, coefficient)
    with the label's Kronecker column over the sents of its block.
    tables[pi] is the row of the S_m table on the cycle type pi, over the
    shapes of partitions_of(|pi|); by default from `murnaghan_nakayama`."""
    e, k = G.exponent(), G.order
    chars = abelian_dual(G)
    labels = partition_maps(n, range(k))
    if tables is None:
        tables = {pi: [murnaghan_nakayama(shape, pi)
                       for shape in partitions_of(size)]
                  for size in range(n + 1) for pi in partitions_of(size)}
    blocks = {}   # size vector -> [(row of lam, column of lam)]
    where = {}    # the parts of a label -> its index in its block
    for i, lam in enumerate(labels):
        block = blocks.setdefault(tuple(map(sum, lam.parts)), [])
        where[lam.parts] = len(block)
        column = [1]   # over the sents of the block, in label order
        for shape in lam.parts:
            pool = partitions_of(sum(shape))
            at = pool.index(shape)
            column = [x * tables[pi][at] for x in column for pi in pool]
        block.append((i, column))
    phi = euler_phi(e)
    values = [[(0,) * phi] * len(labels) for _ in labels]
    for c, rho in enumerate(labels):
        for size, terms in class_terms(chars, e, rho).items():
            block = blocks[size]
            reduced = [[0] * len(block) for _ in range(phi)]
            for sent, counts in terms:
                for per_a, x in zip(reduced, reduce_poly(e, counts)):
                    per_a[where[sent]] = x
            for i, column in block:
                values[i][c] = tuple(sum(map(mul, per_a, column))
                                     for per_a in reduced)
    return values
from .groups import class_index_of, conjugacy_classes


def perm_cycles(p):
    """Cycles of p as tuples, each starting at its smallest point."""
    seen = [False] * len(p)
    cycles = []
    for i in range(len(p)):
        if not seen[i]:
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = p[j]
            cycles.append(tuple(cyc))
    return cycles


def cycle_type(p):
    return tuple(sorted((len(c) for c in perm_cycles(p)), reverse=True))


def cycle_product(G: FiniteGroup, base, cycle):
    """Product of the base entries along a sigma-cycle, in traversal order
    (class-well-defined; order immaterial for abelian G)."""
    out = G.identity
    for i in cycle:
        out = G.op(out, base[i])
    return out


def wreath_class_label(G: FiniteGroup, x) -> PartitionMap:
    """The partition-valued map on the conjugacy classes of G: each cycle
    of sigma adds its length to the partition of the class of its cycle
    product."""
    base, sigma = x
    k = len(conjugacy_classes(G))
    buckets = {i: [] for i in range(k)}
    for cycle in perm_cycles(sigma):
        g = cycle_product(G, base, cycle)
        buckets[class_index_of(G, g)].append(len(cycle))
    parts = tuple(tuple(sorted(buckets[i], reverse=True)) for i in range(k))
    return PartitionMap(tuple(range(k)), parts)


def class_label_representative(G: FiniteGroup, n: int, label: PartitionMap):
    """A wreath element with the given class label."""
    if label.total != n:
        raise ValueError(f"class label {label.to_json()} has size "
                         f"{label.total}, not {n}")
    base = [G.identity] * n
    sigma = list(range(n))
    pos = 0
    for cls_idx, part in label.items():
        rep = conjugacy_classes(G)[cls_idx][0]
        for length in part:
            for i in range(length - 1):
                sigma[pos + i] = pos + i + 1
            sigma[pos + length - 1] = pos
            base[pos] = rep
            pos += length
    return (tuple(base), tuple(sigma))


def cyc_table(tab):
    """The table's values as Cyc values of its conductor, row by row."""
    return [[Cyc(tab.e, v) for v in row] for row in tab.values]


def _inner(tab, f, g):
    """Class-weighted inner product of two class functions on the table's
    classes, as the reduced sum and its denominator |W|."""
    tot = dot(tab.e, planes(f, tab.class_sizes),
              planes(conjugate(tab.e, v) for v in g))
    return tot, tab.order


def inner(tab, row_i: int, row_j: int) -> Fraction:
    """<chi_i, chi_j>; raises ArithmeticError when it is not rational."""
    tot, den = _inner(tab, tab.values[row_i], tab.values[row_j])
    if any(tot[1:]):
        value = poly_string([Fraction(x, den) for x in tot])
        raise ArithmeticError(f"inner product of rows {row_i} and {row_j} "
                              f"is not rational: {value}")
    return Fraction(tot[0], den)


def decompose(tab, values_by_class) -> dict:
    """Coordinates of a class function in the irreducible basis; raises on
    non-integer multiplicities."""
    out = {}
    for lam, row in zip(tab.irr_labels, tab.values):
        tot, den = _inner(tab, values_by_class, row)
        if any(tot[1:]) or tot[0] % den:
            raise UsageError("class function is not an integral "
                             "combination of irreducibles")
        if tot[0]:
            out[lam] = tot[0] // den
    return out


def character_value(chars, e: int, lam: PartitionMap,
                    rho: PartitionMap) -> tuple:
    """chi^lam(rho) by the closed formula, walking only the maps from the
    cycles of rho to the dual that fit the sizes of lam; chars[gamma][c] is
    the exponent of gamma on the class c of G over zeta_e."""
    cycles = sorted(((r, c) for c, part in rho.items() for r in part),
                    reverse=True)
    room = [sum(part) for part in lam.parts]
    sent = [[] for _ in room]
    acc = [0] * e   # acc[x]: the coefficient of zeta_e^x

    def assign(i, expo):
        if i == len(cycles):
            acc[expo] += prod(murnaghan_nakayama(part, tuple(lengths))
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
    return tuple(reduce_poly(e, acc))


def pairwise_check_orthogonality(tab):
    """check_orthogonality by the per-pair route: one `dot` per pair of
    rows i <= j, in order, each sum divided by |W| as a Fraction."""
    if sum(tab.class_sizes) != tab.order:
        return False, ("class sizes", sum(tab.class_sizes), tab.order)
    for (i, j), tot in hermitian_gram(tab.e, tab.values, tab.class_sizes):
        if any(tot[1:]):
            value = poly_string([Fraction(x, tab.order) for x in tot])
            raise ArithmeticError(f"inner product of rows {i} and {j} is "
                                  f"not rational: {value}")
        if Fraction(tot[0], tab.order) != (1 if i == j else 0):
            return False, ("row", i, j)
    dims2 = sum(tab.dimension(l) ** 2 for l in tab.irr_labels)
    if dims2 != tab.order:
        return False, ("sum of squares", dims2, tab.order)
    return True, None


def pairwise_induction_products(G, n: int, m: int, pairs=None) -> dict:
    """induction_products by the per-pair route: the restricted class
    function of each pair against each conjugated row of the big table,
    one `dot` per (lam, mu, nu)."""
    big = chmap.character_table(G, n + m, DEFAULT_WREATH_BUDGET)
    small_n = chmap.character_table(G, n, DEFAULT_WREATH_BUDGET)
    small_m = chmap.character_table(G, m, DEFAULT_WREATH_BUDGET)
    if pairs is None:
        pairs = [(lam, mu) for lam in small_n.irr_labels
                 for mu in small_m.irr_labels]
    e = big.e
    joins = []
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
        row_lam = small_n.values[small_n.pos[lam]]
        row_mu = small_m.values[small_m.pos[mu]]
        restricted = {c: [0] * width for c in classes}
        for a, b, joined, w in joins:
            acc = restricted[joined]
            for i, xi in enumerate(row_lam[a]):
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


def restricted_induction_products(G, n: int, m: int, pairs=None) -> dict:
    """induction_products with no fold: for each pair, the class function
    lam x mu summed over each class of the big group, as unreduced integer
    polynomials in zeta_e, one term per class pair and coefficient pair,
    packed against the columns of the big table's rows."""
    big = chmap.character_table(G, n + m, DEFAULT_WREATH_BUDGET)
    small_n = chmap.character_table(G, n, DEFAULT_WREATH_BUDGET)
    small_m = chmap.character_table(G, m, DEFAULT_WREATH_BUDGET)
    if pairs is None:
        pairs = [(lam, mu) for lam in small_n.irr_labels
                 for mu in small_m.irr_labels]
    rows_n, den_n = integral_rows(small_n.values)
    rows_m, den_m = integral_rows(small_m.values)
    rows_big, den_big = integral_rows(big.values)
    norms_n, norms_m = column_norms(rows_n), column_norms(rows_m)
    joins = []   # (a, b, the class a + b of the big group, |a| |b|)
    xnorms = {}  # per joined class, a bound on |lam x mu summed there|_1
    for a, rho1 in enumerate(small_n.class_labels):
        for b, rho2 in enumerate(small_m.class_labels):
            joined = big.pos[PartitionMap(rho1.labels, [
                tuple(sorted(p + q, reverse=True))
                for p, q in zip(rho1.parts, rho2.parts)])]
            w = small_n.class_sizes[a] * small_m.class_sizes[b]
            joins.append((a, b, joined, w))
            xnorms[joined] = (xnorms.get(joined, 0)
                              + w * norms_n[a] * norms_m[b])
    classes = list(xnorms)
    width = 2 * euler_phi(big.e) - 1
    products = PackedProducts(big.e, [[row[c] for c in classes]
                                      for row in rows_big],
                              xnorms=list(xnorms.values()), width=width)
    den = small_n.order * small_m.order * den_n * den_m * den_big
    out = {}
    for lam, mu in pairs:
        row_lam = rows_n[small_n.pos[lam]]
        row_mu = rows_m[small_m.pos[mu]]
        restricted = {c: [0] * width for c in classes}
        for a, b, joined, w in joins:
            acc = restricted[joined]
            for i, xi in enumerate(row_lam[a]):
                for j, yj in enumerate(row_mu[b]):
                    acc[i + j] += w * xi * yj
        packed = products(restricted.values())
        for nu, tot in zip(big.irr_labels,
                           zip(*map(products.slots, packed))):
            if any(tot[1:]) or tot[0] % den or tot[0] < 0:
                value = poly_string([Fraction(x, den) for x in tot])
                raise ArithmeticError(f"multiplicity of {nu} in the "
                                      f"induction product is not in N: "
                                      f"{value}")
        out[lam, mu] = {nu: x // den for nu, x in
                        zip(big.irr_labels, products.slots(packed[0])) if x}
    return out
