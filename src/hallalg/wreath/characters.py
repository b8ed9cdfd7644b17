"""Symmetric-group characters (Murnaghan-Nakayama) and duals of finite
abelian groups.

Characters of an abelian group are stored as exponent vectors: gamma(g) =
zeta_e^(table[g]) with e the group exponent, so all arithmetic stays in
Z[zeta_e].  A wreath character table (chmap.class_terms) counts the maps
from each class's cycles to the dual by exponent of zeta_e, reduces the
counts mod Phi_e once per way of sending cycle lengths to characters, and
multiplies them with the Kronecker products of the Murnaghan-Nakayama
tables into the integer coefficient vectors that the table stores, prints
and certifies.
"""

from functools import cache

from .. import UsageError
from ..exactmath.partitions import check_partition
from ..groups import FiniteGroup


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
    """chi^shape on the class of cycle type `cycles` (a partition)."""
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


def abelian_dual(G: FiniteGroup):
    """All |G| linear characters as exponent vectors over zeta_exponent;
    trivial character first, then lexicographic."""
    if not G.is_abelian():
        raise UsageError("the linear-character dual needs an abelian group")
    e = G.exponent()
    gens = G.generators()
    orders = [G.element_order(g) for g in gens]
    chars = []

    def candidate_words():
        stack = [()]
        for d in orders:
            stack = [s + (j * (e // d),) for s in stack for j in range(d)]
        return stack

    for ws in candidate_words():
        # extend multiplicatively from the generators; reject inconsistency
        val = {G.identity: 0}
        frontier = [G.identity]
        good = True
        while frontier and good:
            x = frontier.pop()
            for g, w in zip(gens, ws):
                y = G.op(x, g)
                v = (val[x] + w) % e
                if y in val:
                    if val[y] != v:
                        good = False
                        break
                else:
                    val[y] = v
                    frontier.append(y)
        if good and len(val) == G.order:
            vec = tuple(val[g] for g in G.elements)
            if vec not in chars:
                chars.append(vec)
    chars.sort(key=lambda v: (v != tuple([0] * G.order), v))
    if len(chars) != G.order:
        raise ArithmeticError(f"found {len(chars)} linear characters of "
                              f"{G.name}, not |G| = {G.order}")
    return chars

