"""Counting oracles for the proto-abelian instances: short exact
sequences by pairing every mono with every epi, and subobjects by listing
them.  The subgroups of an abelian p-group (ab-p-groups and vect-fq) are
listed here, one order at a time, and each is classified by counting the
orders of its elements; f1-free lists and classifies its own."""

from collections import Counter
from itertools import accumulate

from hallalg.protoab import AbelianPGroups


def count_ses(inst, l, m, n) -> int:
    """Number of pairs (mono L -> M, epi M -> N) with im = ker."""
    images = [inst.image_sub(i) for i in inst.monos(l, m)]
    zero_n = inst.image_sub(inst.monos(inst.zero_key(), n)[0])
    kernels = [inst.preimage_sub(p, zero_n) for p in inst.epis(m, n)]
    return sum(1 for im in images for ker in kernels if im == ker)


def subgroups(inst: AbelianPGroups, m) -> list:
    """Every subgroup of the object m, as a frozenset of elements, smallest
    first.  A subgroup K of order p^(k+1) holds a subgroup K' of index p,
    and then K is the union of the cosets K' + jv, j < p, for any v in K
    outside K' (so pv is in K'): each order's subgroups are found from the
    last's, on element indices."""
    elems = inst.elements(m)
    mods = inst._mods(m)
    index = {e: i for i, e in enumerate(elems)}
    add = [[index[tuple((x + y) % k for x, y, k in zip(a, b, mods))]
            for b in elems] for a in elems]
    times_p = [index[tuple(inst.p * x % k for x, k in zip(a, mods))]
               for a in elems]
    layer, found = {frozenset([0])}, []     # elems[0] is the zero
    while layer:
        found += layer
        bigger = set()
        for small in layer:
            seen = set(small)
            for v in range(len(elems)):
                if v in seen or times_p[v] not in small:
                    continue
                span, w = set(small), v
                for _ in range(inst.p - 1):
                    span.update(add[w][u] for u in small)
                    w = add[w][v]
                seen |= span
                bigger.add(frozenset(span))
        layer = bigger
    return sorted((frozenset(elems[i] for i in s) for s in found),
                  key=lambda s: (len(s), sorted(s)))


def classify_sub(inst, m, u):
    """The key of the type of the subobject u of m: for an abelian p-group,
    from the numbers of its elements of each order p^k."""
    if not isinstance(inst, AbelianPGroups):
        return inst.classify_sub(m, u)
    lam, mods = inst._type(m), inst._mods(m)
    zero = tuple([0] * len(lam))
    per = Counter()
    for x in u:                 # the order of x is p^k
        k = 0
        while x != zero:
            x, k = tuple(inst.p * v % n for v, n in zip(x, mods)), k + 1
        per[k] += 1
    counts = list(accumulate(per[k] for k in range(max(lam, default=0) + 1)))
    return inst._key(inst._type_from_torsion_counts(counts))


def subobjects(inst, m) -> list:
    """Every subobject of m: an abelian p-group's `subgroups`, or the
    instance's own list."""
    if isinstance(inst, AbelianPGroups):
        return subgroups(inst, m)
    return inst.subobjects(m)


def subobject_types(inst, m) -> Counter:
    """(type of U, type of M/U) -> number of subobjects U of M = m, the
    counts `subobjects_with_type` gives, for every type at once."""
    return Counter((classify_sub(inst, m, u), inst.classify_quot(m, u))
                   for u in subobjects(inst, m))


def total_subobjects(inst, m) -> int:
    return len(subobjects(inst, m))


def homs_with_image(inst: AbelianPGroups, x, y, size) -> list:
    """The homomorphisms x -> y whose image has p^size elements, in
    `_homs` order, found by applying each hom to every element of x: the
    oracle for the isos (size of x, x = y), monos (size of x) and epis
    (size of y)."""
    if size > min(inst.size_of(x), inst.size_of(y)):
        return []
    full, elems = inst.p ** size, inst.elements(x)
    return [f for f in inst._homs(x, y)
            if len({inst.apply(f, a) for a in elems}) == full]
