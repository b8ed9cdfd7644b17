"""Littlewood-Richardson coefficients by the skew-tableau rule.

c^nu_{lambda,mu} counts LR fillings of nu/lambda with content mu: rows
weakly increase, columns strictly increase, and the reverse reading word
(right to left, top to bottom) is a lattice word.  The tests guard this
against multiplying out Schur polynomials (`tests/oracles/exactmath.py`).
"""

from functools import cache

from .partitions import Partition, check_partition, partitions_of


def _contains(outer: Partition, inner: Partition) -> bool:
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


@cache
def littlewood_richardson(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Coefficient of s_nu in s_lam * s_mu."""
    lam, mu, nu = check_partition(lam), check_partition(mu), check_partition(nu)
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    if not _contains(nu, lam) or not _contains(nu, mu):
        return 0
    if not mu:
        return 1 if nu == lam else 0

    # cells of nu/lam in reverse reading order: top row to bottom, right to left
    cells = []
    lam_padded = lam + (0,) * (len(nu) - len(lam))
    for r, width in enumerate(nu):
        for c in range(width - 1, lam_padded[r] - 1, -1):
            cells.append((r, c))

    nvals = len(mu)
    counts = [0] * (nvals + 1)
    fill = {}
    total = 0

    def ok(r, c, v):
        if counts[v] >= mu[v - 1]:
            return False
        # lattice condition on the reverse reading word
        if v > 1 and counts[v] >= counts[v - 1]:
            return False
        # row weakly increasing: cell to the right was already filled
        right = fill.get((r, c + 1))
        if right is not None and v > right:
            return False
        # column strictly increasing against the cell above (if in the skew part);
        # reverse reading order fills row r before row r+1, so no check downward
        up = fill.get((r - 1, c))
        if up is not None and v <= up:
            return False
        return True

    def rec(i):
        nonlocal total
        if i == len(cells):
            total += 1
            return
        r, c = cells[i]
        for v in range(1, nvals + 1):
            if ok(r, c, v):
                counts[v] += 1
                fill[(r, c)] = v
                rec(i + 1)
                counts[v] -= 1
                del fill[(r, c)]

    rec(0)
    return total


def schur_product(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """Expansion of s_lam * s_mu in the Schur basis via the LR rule; s_()
    is the unit."""
    lam, mu = check_partition(lam), check_partition(mu)
    if not lam or not mu:
        return {lam or mu: 1}
    out = {}
    for nu in partitions_of(sum(lam) + sum(mu)):
        c = littlewood_richardson(lam, mu, nu)
        if c:
            out[nu] = c
    return out
