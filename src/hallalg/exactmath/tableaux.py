"""Counts of Young tableaux by closed forms.

schur_eval_ones is s_lambda(1^d), the number of semistandard tableaux with
entries in 1..d, by the hook-content product; standard_tableaux_count is
f^lambda by the hook length formula.  Enumerating the tableaux is the
oracle for the first in the tests (`tests/oracles/exactmath.py`).
"""

from fractions import Fraction
from functools import cache
from math import factorial

from .partitions import Partition, check_partition, conjugate


@cache
def schur_eval_ones(shape: Partition, d: int) -> int:
    """s_shape(1^d) by the hook-content product over cells."""
    shape = check_partition(shape)
    if d < 1:
        raise ValueError(f"need at least one variable, got d = {d}")
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
