import pytest

from hallalg.exactmath.littlewood import littlewood_richardson, schur_product
from hallalg.exactmath.partitions import partitions_of
from hallalg.exactmath.tableaux import (schur_eval_ones,
                                        standard_tableaux_count)
from oracles.exactmath import (schur_product_by_polynomials, ssyt_count,
                               ssyt_iter)


def test_ssyt_examples():
    assert ssyt_count((2,), 2) == 3
    assert ssyt_count((1, 1), 1) == 0
    assert ssyt_count((), 4) == 1
    # the three fillings of a row of length 2 from {1,2}
    assert sorted(ssyt_iter((2,), 2)) == [((1, 1),), ((1, 2),), ((2, 2),)]


def test_hook_content_equals_enumeration():
    # closed form vs the enumeration oracle, |shape| <= 6, d <= 4
    for n in range(0, 7):
        for shape in partitions_of(n):
            for d in range(1, 5):
                assert schur_eval_ones(shape, d) == ssyt_count(shape, d), \
                    (shape, d)


def test_single_row_single_letter():
    for n in range(1, 8):
        assert schur_eval_ones((n,), 1) == 1


def test_standard_tableaux_sum_of_squares():
    from math import factorial
    for n in range(1, 7):
        assert sum(standard_tableaux_count(p) ** 2
                   for p in partitions_of(n)) == factorial(n)


def test_lr_examples():
    assert littlewood_richardson((1,), (1,), (2,)) == 1
    assert littlewood_richardson((1,), (1,), (1, 1)) == 1
    assert littlewood_richardson((3, 1), (), (3, 1)) == 1
    assert littlewood_richardson((1,), (1,), (3,)) == 0


def test_lr_unit():
    for n in range(5):
        for lam in partitions_of(n):
            assert schur_product(lam, ()) == {lam: 1}
            assert schur_product((), lam) == {lam: 1}


def test_lr_symmetry_up_to_6():
    for total in range(0, 7):
        for a in range(total + 1):
            for lam in partitions_of(a):
                for mu in partitions_of(total - a):
                    for nu in partitions_of(total):
                        assert littlewood_richardson(lam, mu, nu) == \
                            littlewood_richardson(mu, lam, nu)


def test_lr_against_polynomial_oracle_up_to_5():
    for total in range(0, 6):
        for a in range(total + 1):
            for lam in partitions_of(a):
                for mu in partitions_of(total - a):
                    assert schur_product(lam, mu) == \
                        schur_product_by_polynomials(lam, mu), (lam, mu)


def test_pieri_row():
    # s_lam * s_(k) adds horizontal strips with multiplicity one
    assert schur_product((2, 1), (2,)) == {
        (4, 1): 1, (3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1}


def test_grading():
    assert littlewood_richardson((2,), (1,), (2,)) == 0


def test_no_variables_is_a_value_error():
    for count in (ssyt_count, schur_eval_ones):
        with pytest.raises(ValueError, match="at least one variable"):
            count((1,), 0)
