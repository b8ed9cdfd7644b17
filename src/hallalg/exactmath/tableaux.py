"""Semistandard Young tableaux: enumeration, hook-content evaluation, monomials.

ssyt_count is the enumeration oracle; schur_eval_ones is the closed-form
hook-content product.  Both compute s_lambda(1^d) and are cross-checked in
the test suite.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from math import factorial

from .partitions import Partition, check_partition, conjugate


def ssyt_iter(shape: Partition, d: int):
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


def _check_variables(d):
    if d < 1:
        raise ValueError(f"need at least one variable, got d = {d}")


def ssyt_count(shape: Partition, d: int) -> int:
    """Number of SSYT of `shape` with entries in {1..d}; equals s_shape(1^d)."""
    shape = check_partition(shape)
    _check_variables(d)
    return sum(1 for _ in ssyt_iter(shape, d))


@cache
def schur_eval_ones(shape: Partition, d: int) -> int:
    """s_shape(1^d) by the hook-content product over cells."""
    shape = check_partition(shape)
    _check_variables(d)
    conj = conjugate(shape)
    val = Fraction(1)
    for i, row in enumerate(shape):
        for j in range(row):
            hook = (row - j) + (conj[j] - i) - 1
            val *= Fraction(d + j - i, hook)
    if val.denominator != 1:
        raise ArithmeticError(f"the hook-content product for {shape} at "
                              f"d = {d} is not an integer: {val}")
    return int(val)


@cache
def standard_tableaux_count(shape: Partition) -> int:
    """f^shape via the hook length formula."""
    shape = check_partition(shape)
    n = sum(shape)
    conj = conjugate(shape)
    denom = 1
    for i, row in enumerate(shape):
        for j in range(row):
            denom *= (row - j) + (conj[j] - i) - 1
    if factorial(n) % denom:
        raise ArithmeticError(f"the hook product {denom} of {shape} does "
                              f"not divide {n}!")
    return factorial(n) // denom


def schur_monomials(shape: Partition, nvars: int) -> Counter:
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
