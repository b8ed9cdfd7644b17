"""The group axioms by exhaustive enumeration, the oracle of Light's test
in `FiniteGroup`, and Cayley tables near a group's: one row of a group
table with two of its entries swapped, away from the identity, so that the
identity stays two-sided."""


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
