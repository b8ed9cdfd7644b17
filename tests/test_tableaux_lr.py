from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallalg.exactmath.littlewood import littlewood_richardson, schur_product
from hallalg.exactmath.partitions import partitions_of
from hallalg.exactmath.tableaux import (schur_eval_ones,
                                        standard_tableaux_count)
from oracles.exactmath import (lr_by_fillings, schur_product_by_fillings,
                               schur_product_by_polynomials, ssyt_count,
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


def test_lr_against_the_fillings_oracle_up_to_10():
    # every coefficient of every product, and every triple with |nu| <= 10,
    # zeros included, against the cell-by-cell search over LR fillings
    shapes = [nu for n in range(11) for nu in partitions_of(n)]
    factors = [(lam, mu) for n in range(11) for a in range(n + 1)
               for lam in partitions_of(a) for mu in partitions_of(n - a)]
    for lam, mu in factors:
        got = schur_product(lam, mu)
        want = schur_product_by_fillings(lam, mu)
        assert got == want and list(got) == list(want), (lam, mu)
        for nu in shapes:
            want = lr_by_fillings(lam, mu, nu)
            assert littlewood_richardson(lam, mu, nu) == want, (lam, mu, nu)


@st.composite
def pairs(draw, most=14):
    n = draw(st.integers(0, most), label="|lam| + |mu|")
    a = draw(st.integers(0, n), label="|lam|")
    return (draw(st.sampled_from(partitions_of(a)), label="lam"),
            draw(st.sampled_from(partitions_of(n - a)), label="mu"))


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_lr_product_is_commutative(pair):
    lam, mu = pair
    assert schur_product(lam, mu) == schur_product(mu, lam)


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_lr_product_counts_standard_tableaux(pair):
    # the degree of Ind(S^lam boxtimes S^mu) from S_a x S_b to S_(a+b)
    lam, mu = pair
    a, b = sum(lam), sum(mu)
    got = sum(c * standard_tableaux_count(nu)
              for nu, c in schur_product(lam, mu).items())
    assert got == comb(a + b, a) * standard_tableaux_count(lam) * \
        standard_tableaux_count(mu)


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_lr_product_evaluates_at_ones(pair):
    # s_lam s_mu at x = (1^d), term by term, for d = 1..4
    lam, mu = pair
    product = schur_product(lam, mu)
    for d in range(1, 5):
        assert sum(c * schur_eval_ones(nu, d)
                   for nu, c in product.items()) == \
            schur_eval_ones(lam, d) * schur_eval_ones(mu, d), d


def test_a_changed_product_leaves_the_next_call_alone():
    got = schur_product((2, 1), (2, 1))
    want = dict(got)
    got[(6,)] = 5
    del got[(3, 2, 1)]
    assert schur_product((2, 1), (2, 1)) == want
    assert schur_product((2, 1), (2, 1))[(3, 2, 1)] == 2


def test_lr_rejects_a_non_partition():
    with pytest.raises(ValueError, match="not a partition"):
        schur_product((1, 2), (1,))
    with pytest.raises(ValueError, match="not a partition"):
        littlewood_richardson((2,), (1,), (1, 2))


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
