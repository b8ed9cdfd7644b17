"""The dimension of the polynomial functions in the Schur-Weyl setting,
which the report does not print."""

from hallalg.exactmath.partitions import multiset_number


def dim_poly_fns(G, d: int, n: int) -> int:
    """dim of degree-n homogeneous polynomial functions on the G-linear
    endomorphisms of a rank-d free module: multiset(d^2 |G^ab|, n)."""
    return multiset_number(d * d * G.abelianization_order(), n)
