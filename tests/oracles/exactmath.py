"""Enumeration oracles for the closed forms of `hallalg.exactmath`:
semistandard tableaux for the hook-content product, Schur polynomials
multiplied out for the Littlewood-Richardson rule, products of weak
compositions for the number of partition-valued maps, and Schur-basis
arithmetic in one alphabet on top of the LR rule.  Also the inverse of
`PartitionMap.to_json` and the unit of the multi-alphabet Schur ring,
which only the tests need."""

from collections import Counter
from fractions import Fraction
from math import prod

from hallalg.exactmath.littlewood import schur_product
from hallalg.exactmath.partitions import (PartitionMap, check_partition,
                                          compositions, partitions_of)
from hallalg.exactmath.symfunc import MultiSymElem


def ssyt_iter(shape, d: int):
    """Yield each SSYT of `shape` with entries in 1..d, as a tuple of rows."""
    shape = check_partition(shape)
    if not shape:
        yield ()
        return
    if len(shape) > d:
        return
    rows = [[0] * r for r in shape]

    def rec(row, col):
        if row == len(shape):
            yield tuple(tuple(r) for r in rows)
            return
        nrow, ncol = (row, col + 1) if col + 1 < shape[row] else (row + 1, 0)
        lo = 1
        if col > 0:
            lo = max(lo, rows[row][col - 1])
        if row > 0 and col < shape[row - 1]:
            lo = max(lo, rows[row - 1][col] + 1)
        for v in range(lo, d + 1):
            rows[row][col] = v
            yield from rec(nrow, ncol)
        rows[row][col] = 0

    yield from rec(0, 0)


def ssyt_count(shape, d: int) -> int:
    """Number of SSYT of `shape` with entries in {1..d}; equals s_shape(1^d)."""
    shape = check_partition(shape)
    if d < 1:
        raise ValueError(f"need at least one variable, got d = {d}")
    return sum(1 for _ in ssyt_iter(shape, d))


def schur_monomials(shape, nvars: int) -> Counter:
    """The Schur polynomial s_shape(x_1..x_nvars) as Counter{exponents: coeff}."""
    out = Counter()
    for tab in ssyt_iter(shape, nvars):
        expo = [0] * nvars
        for row in tab:
            for v in row:
                expo[v - 1] += 1
        out[tuple(expo)] += 1
    return out


def poly_mul(a: Counter, b: Counter) -> Counter:
    out = Counter()
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[tuple(x + y for x, y in zip(ea, eb))] += ca * cb
    return +out


def schur_product_by_polynomials(lam, mu) -> dict:
    """Expand s_lam * s_mu as polynomials in enough variables and peel off
    leading monomials.

    Every symmetric polynomial's lex-leading exponent is a partition, and the
    lex-leading monomial of s_nu is x^nu with coefficient 1, so repeatedly
    subtracting c * s_nu for the current lex-leading term terminates with the
    Schur expansion.
    """
    lam, mu = check_partition(lam), check_partition(mu)
    n = sum(lam) + sum(mu)
    nvars = max(n, 1)
    poly = dict(poly_mul(schur_monomials(lam, nvars), schur_monomials(mu, nvars)))
    out = {}
    while poly:
        lead = max(poly)
        coeff = poly[lead]
        nu = tuple(e for e in lead if e)
        if any(lead[i] < lead[i + 1] for i in range(nvars - 1)):
            raise ArithmeticError(f"the leading monomial {lead} of the "
                                  f"product of s_{lam} and s_{mu} is not a "
                                  f"partition")
        out[nu] = coeff
        for expo, c in schur_monomials(nu, nvars).items():
            newc = poly.get(expo, 0) - coeff * c
            if newc:
                poly[expo] = newc
            else:
                poly.pop(expo, None)
    return out


def partition_maps_count(n: int, k: int) -> int:
    """|P_n(X)| for |X| = k, by the composition formula."""
    return sum(prod(len(partitions_of(c)) for c in comp)
               for comp in compositions(n, k))


def partition_map_from_json(obj, labels) -> PartitionMap:
    """The partition map on `labels` whose to_json() is obj."""
    return PartitionMap(labels, [tuple(obj.get(str(l), ())) for l in labels])


def multisym_unit(labels) -> MultiSymElem:
    """S_empty, the unit of the Schur ring on `labels`."""
    labels = tuple(labels)
    return MultiSymElem(labels, {PartitionMap(labels, ((),) * len(labels)): 1})


class SymElem:
    """Finitely supported map Partition -> Fraction, Schur coordinates."""

    def __init__(self, coords=()):
        self.coords = {check_partition(k): Fraction(v)
                       for k, v in dict(coords).items() if v}

    @classmethod
    def schur(cls, lam):
        return cls({tuple(lam): 1})

    def __add__(self, other):
        out = dict(self.coords)
        for k, v in other.coords.items():
            out[k] = out.get(k, Fraction(0)) + v
        return SymElem(out)

    def __mul__(self, other):
        out = {}
        for lam, a in self.coords.items():
            for mu, b in other.coords.items():
                for nu, c in schur_product(lam, mu).items():
                    out[nu] = out.get(nu, Fraction(0)) + a * b * c
        return SymElem(out)

    def __eq__(self, other):
        return isinstance(other, SymElem) and self.coords == other.coords

    def __repr__(self):
        return f"SymElem({self.coords})"
