"""Wreath products G wr S_n = G^n x| S_n and the order budget of every
wreath computation.

An element is ((g_1..g_n), sigma) with sigma permuting coordinates:
(g, sigma)(h, tau) = (g . sigma(h), sigma tau), sigma(h)_i = h_{sigma^-1(i)}.
The character tables (`chmap`) work on class labels and build no element;
the group built here, with the class label of each element
(`tests/oracles/wreath.py`), is the oracle for them in the tests.
"""

import sys
from itertools import product as iproduct

from .. import BudgetExceededError
from ..groups import FiniteGroup, all_perms, perm_inv, perm_mul

DEFAULT_WREATH_BUDGET = 5000
_DIGITS = 4300   # str()'s default digit limit, used when the limit is off


def wreath_order(G: FiniteGroup, n: int,
                 budget: int = DEFAULT_WREATH_BUDGET) -> int:
    """|G wr S_n| = |G|^n n!; refused when it exceeds the budget.  The
    order is formed one factor |G| i at a time, and a product over the
    budget and too long for str() to print is refused at once, naming
    |G|^n n! rather than its digits."""
    # fewer bits than digits * log2(10): str() prints it
    bits = int((sys.get_int_max_str_digits() or _DIGITS) * 3.32)
    order = 1
    for i in range(1, n + 1):
        order *= G.order * i
        if order > budget and order.bit_length() > bits:
            raise BudgetExceededError(f"|{G.name} wr S_{n}| = {G.order}^{n} * "
                                      f"{n}! exceeds budget {budget}")
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

