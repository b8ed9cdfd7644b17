"""The dimension of the polynomial functions in the Schur-Weyl setting,
which the report does not print, and the order of the abelianization it
needs."""

from hallalg.exactmath.partitions import multiset_number


def abelianization_order(G) -> int:
    """|G / [G, G]|, with [G, G] generated by every commutator."""
    comms = {G.op(G.op(a, b), G.op(G.inv(a), G.inv(b)))
             for a in G.elements for b in G.elements}
    return G.order // len(G.subgroup_closure(comms))


def dim_poly_fns(G, d: int, n: int) -> int:
    """dim of degree-n homogeneous polynomial functions on the G-linear
    endomorphisms of a rank-d free module: multiset(d^2 |G^ab|, n)."""
    return multiset_number(d * d * abelianization_order(G), n)
