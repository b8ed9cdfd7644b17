"""Symmetric-group character tables and duals of finite abelian groups.

Characters of an abelian group are stored as exponent vectors: gamma(g) =
zeta_e^(table[g]) with e the group exponent, so all arithmetic stays in
Z[zeta_e].  The S_m tables for all m <= n come from one pass over the
partitions; Murnaghan-Nakayama per (shape, cycle type) is the tests'
oracle.
"""

from .. import UsageError
from ..exactmath.partitions import partitions_of
from ..groups import FiniteGroup


def symmetric_tables(n: int) -> dict:
    """pi -> (chi^shape(pi) for shape in partitions_of(|pi|)) for every
    partition pi of size <= n.  In the Schur basis p_pi = p_rest p_r, r the
    last part of pi, and p_r s_mu is the signed sum of the s_lam with
    lam / mu a border strip of size r (Murnaghan-Nakayama).  The strips of
    each (mu, r) are found once, on |mu| + r beta-numbers: a bead b moves
    to a free b + r, with sign -1 to the number of beads it jumps."""
    rows = {(): (1,)}
    strips = {}
    for size in range(1, n + 1):
        shapes = partitions_of(size)
        index = {shape: i for i, shape in enumerate(shapes)}
        for pi in shapes:
            r = pi[-1]
            row = [0] * len(shapes)
            for mu, v in zip(partitions_of(size - r), rows[pi[:-1]]):
                if not v:
                    continue
                if (mu, r) not in strips:
                    beads = len(mu) + r
                    betas = [x + beads - 1 - i for i, x in
                             enumerate(mu + (0,) * r)]
                    strips[mu, r] = out = []
                    for i, b in enumerate(betas):
                        if b + r in betas:
                            continue
                        p = i   # b + r goes in at p: it jumps i - p beads
                        while p and betas[p - 1] < b + r:
                            p -= 1
                        moved = (betas[:p] + [b + r] + betas[p:i]
                                 + betas[i + 1:])
                        lam = [x - beads + 1 + j
                               for j, x in enumerate(moved)]
                        while not lam[-1]:
                            lam.pop()
                        out.append((index[tuple(lam)], (-1) ** (i - p)))
                for i, sign in strips[mu, r]:
                    row[i] += sign * v
            rows[pi] = tuple(row)
    return rows


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

