"""Wreath products G wr S_n = G^n x| S_n and the order budget of every
wreath computation.

An element is ((g_1..g_n), sigma) with sigma permuting coordinates:
(g, sigma)(h, tau) = (g . sigma(h), sigma tau), sigma(h)_i = h_{sigma^-1(i)}.
The character tables (`chmap`) work on class labels and build no element;
the group built here, with the class label of each element
(`tests/oracles/wreath.py`), is the oracle for them in the tests.
"""

from itertools import product as iproduct
from math import factorial

from .. import BudgetExceededError
from ..groups import FiniteGroup, all_perms, perm_inv, perm_mul

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

