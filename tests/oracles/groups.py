"""The group axioms by exhaustive enumeration, the oracle of Light's test
in `FiniteGroup`; the inverse, order, exponent and greedy generators of a
group by walking the powers of each element on its own, the oracle of the
one walk per cyclic subgroup in `FiniteGroup`; and Cayley tables near a
group's: one row of a group table with two of its entries swapped, away
from the identity, so that the identity stays two-sided, or the group
itself with its elements listed from a later one, so that its identity is
not elements[0].  The conjugacy
classes of a group by conjugating each element by every element, for the
oracles of non-abelian groups (an abelian group's classes are its
elements)."""

from math import lcm

from hallalg.groups import FiniteGroup


def associativity_failure(elements, op):
    """The first triple (a, b, c) with (a b) c != a (b c), in the order of
    `elements`, or None: every triple is tried."""
    for a in elements:
        for b in elements:
            ab = op(a, b)
            for c in elements:
                if op(ab, c) != op(a, op(b, c)):
                    return a, b, c
    return None


def cayley_table(G):
    """G's multiplication table on the element indices of G.elements."""
    return [[G.index[G.op(a, b)] for b in G.elements] for a in G.elements]


def shuffled_cayley(G, shift):
    """(C, idx): G as a Cayley-table group C on 0..|G|-1 whose elements
    start at G.elements[shift], so that its identity is not elements[0],
    and idx, the element of C of each element of G."""
    order = G.elements[shift:] + G.elements[:shift]
    idx = {g: i for i, g in enumerate(order)}
    return FiniteGroup.from_cayley(
        {"order": G.order,
         "table": [[idx[G.op(a, b)] for b in order] for a in order]},
        name=f"cayley({G.name})"), idx


def row_swaps(G):
    """(row, col, col') for every row and pair of columns of G's table that
    leave its identity two-sided when swapped."""
    e = G.index[G.identity]
    rest = [i for i in range(G.order) if i != e]
    return [(r, c, d) for r in rest for c in rest for d in rest if c < d]


def swapped_table(table, r, c, d):
    """A copy of `table` with entries (r, c) and (r, d) swapped."""
    out = [list(row) for row in table]
    out[r][c], out[r][d] = out[r][d], out[r][c]
    return out


def power_inverse(G, e):
    """e^(ord e - 1), found within |G| steps and checked on both sides, or
    None."""
    ident, op = G.identity, G.op
    prev, x = ident, e
    for _ in range(G.order):
        if x == ident:
            break
        prev, x = x, op(x, e)
    if x != ident or op(e, prev) != ident or op(prev, e) != ident:
        return None
    return prev


def walked_order(G, e):
    """The least k >= 1 with e^k = 1, by repeated products."""
    k, x = 1, e
    while x != G.identity:
        x = G.op(x, e)
        k += 1
    return k


def walked_exponent(G):
    return lcm(*[walked_order(G, e) for e in G.elements])


def walked_generators(G):
    """FiniteGroup.generators with each element's order walked: the
    elements by decreasing order, then index, each kept when it is not in
    the closure of those kept before, until they generate G."""
    order_of = {e: walked_order(G, e) for e in G.elements}
    gens, gen_set = [], {G.identity}
    for e in sorted(G.elements, key=lambda e: (-order_of[e], G.index[e])):
        if e not in gen_set:
            gens.append(e)
            gen_set = G.subgroup_closure(gens)
            if len(gen_set) == G.order:
                break
    return tuple(gens) if gens else (G.identity,)


def conjugacy_classes(G):
    """G's classes as tuples of tokens, ordered by smallest element index;
    memoised in G.memo."""
    classes = G.memo.get("conjugacy classes")
    if classes is None:
        seen, classes = set(), []
        for e in G.elements:
            if e in seen:
                continue
            cls = {G.op(G.op(g, e), G.inv(g)) for g in G.elements}
            seen |= cls
            classes.append(tuple(sorted(cls, key=G.index.__getitem__)))
        G.memo["conjugacy classes"] = classes
    return classes


def class_index_of(G, e):
    """The position of e's class in `conjugacy_classes(G)`."""
    for i, cls in enumerate(conjugacy_classes(G)):
        if e in cls:
            return i
    raise KeyError(e)
