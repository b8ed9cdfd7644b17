"""Littlewood-Richardson coefficients by one walk over horizontal strips.

c^nu_{lambda,mu} counts the LR fillings of nu/lambda with content mu: rows
weakly increase, columns strictly increase, and the reverse reading word
(right to left, top to bottom) is a lattice word.  Such a filling is a chain
of horizontal strips, mu_1 boxes labelled 1 added to lambda, then mu_2
labelled 2, and so on, and its word is a lattice word exactly when, for
every k > 1 and every row r, the k's in rows 1..r number at most the
(k-1)'s in rows 1..r-1.  schur_product walks those chains for every nu at
once, merging the chains that reach the same shape with the same last
strip, and counts them by their final shape.  A coefficient is read from
that product, which is cached per partition pair.  The tests guard the walk
against multiplying out Schur polynomials and against filling nu/lambda
cell by cell for each nu (`tests/oracles/exactmath.py`).
"""

from functools import cache
from itertools import accumulate, zip_longest
from operator import le

from .partitions import Partition, check_partition, horizontal_strips


@cache
def _product(lam: tuple, mu: tuple) -> dict[Partition, int]:
    """{nu: c^nu_{lam,mu}}, nonzero, in decreasing lexicographic order;
    lam and mu are checked once, on the first call."""
    lam, mu = check_partition(lam), check_partition(mu)
    if not lam or not mu:
        return {lam or mu: 1}
    # (shape, boxes of the last strip in rows 1..r for each r) -> chains;
    # None before the first strip, whose labels meet no condition
    states = {(lam, None): 1}
    for k in mu:
        nxt = {}
        for (shape, last), w in states.items():
            for nu in horizontal_strips(shape, k):
                added = tuple(accumulate(
                    a - b for a, b in zip_longest(nu, shape, fillvalue=0)))
                if last is None or all(map(le, added, (0, *last))):
                    key = nu, added
                    nxt[key] = nxt.get(key, 0) + w
        states = nxt
    out = {}
    for (nu, _), w in states.items():
        out[nu] = out.get(nu, 0) + w
    return dict(sorted(out.items(), reverse=True))


def schur_product(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """Expansion of s_lam * s_mu in the Schur basis, {nu: c^nu_{lam,mu}}
    with nu in decreasing lexicographic order; s_() is the unit.  Each
    call returns a new dict."""
    return dict(_product(tuple(lam), tuple(mu)))


def littlewood_richardson(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Coefficient of s_nu in s_lam * s_mu."""
    return _product(tuple(lam), tuple(mu)).get(check_partition(nu), 0)
