"""Wreath products G wr S_n = G^n x| S_n and their conjugacy class labels.

An element is ((g_1..g_n), sigma) with sigma permuting coordinates:
(g, sigma)(h, tau) = (g . sigma(h), sigma tau), sigma(h)_i = h_{sigma^-1(i)}.
Conjugacy classes are labeled by partition-valued maps on the classes of G:
each sigma-cycle contributes its length to the partition of the class of
its cycle product (for abelian G just the product of the entries).
"""

from itertools import product as iproduct
from math import factorial

from .. import BudgetExceededError
from ..exactmath.partitions import PartitionMap
from ..groups import FiniteGroup, all_perms, perm_cycles, perm_inv, perm_mul

DEFAULT_WREATH_BUDGET = 5000


def wreath_order(G: FiniteGroup, n: int,
                 budget: int = DEFAULT_WREATH_BUDGET) -> int:
    """|G wr S_n| = |G|^n n!; refused when it exceeds the budget."""
    order = G.order ** n * factorial(n)
    if order > budget:
        raise BudgetExceededError(
            f"|{G.name} wr S_{n}| = {order} exceeds budget {budget}")
    return order


def wreath_product(G: FiniteGroup, n: int,
                   budget: int = DEFAULT_WREATH_BUDGET) -> FiniteGroup:
    wreath_order(G, n, budget)
    elems = [(tuple(g), s) for g in iproduct(G.elements, repeat=n)
             for s in all_perms(n)]

    def op(a, b):
        (g, sigma), (h, tau) = a, b
        sinv = perm_inv(sigma)
        base = tuple(G.op(g[i], h[sinv[i]]) for i in range(n))
        return (base, perm_mul(sigma, tau))

    return FiniteGroup(elems, op, name=f"{G.name}wrS{n}", check=False)


def cycle_product(G: FiniteGroup, base, sigma, cycle):
    """Product of the base entries along a sigma-cycle, in traversal order
    (class-well-defined; order immaterial for abelian G)."""
    out = G.identity
    for i in cycle:
        out = G.op(out, base[i])
    return out


def wreath_class_label(G: FiniteGroup, x) -> PartitionMap:
    """The partition-valued map on the conjugacy classes of G."""
    base, sigma = x
    k = len(G.conjugacy_classes())
    buckets = {i: [] for i in range(k)}
    for cycle in perm_cycles(sigma):
        g = cycle_product(G, base, sigma, cycle)
        buckets[G.class_index_of(g)].append(len(cycle))
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
        rep = G.conjugacy_classes()[cls_idx][0]
        for length in part:
            for i in range(length - 1):
                sigma[pos + i] = pos + i + 1
            sigma[pos + length - 1] = pos
            base[pos] = rep
            pos += length
    return (tuple(base), tuple(sigma))
