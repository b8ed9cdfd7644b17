from fractions import Fraction

import pytest

from hallalg.exactmath.halllittlewood import (HallPolynomials,
                                              horizontal_strips, n_statistic)
from hallalg.exactmath.partitions import (conjugate, partitions_of,
                                          q_binomial)


def test_n_statistic():
    assert n_statistic(()) == 0
    assert n_statistic((1, 1)) == 1
    assert n_statistic((2, 1, 1)) == 3
    assert n_statistic((3,)) == 0


def test_horizontal_strips_interlace():
    for outer in partitions_of(5):
        for mu in partitions_of(2):
            if len(mu) > len(outer) or any(a > b for a, b in zip(mu, outer)):
                continue
            for k in range(4):
                for lam in horizontal_strips(mu, k, outer):
                    assert sum(lam) == sum(mu) + k
                    assert all(a <= b for a, b in
                               zip(lam, outer + (0,) * len(lam)))
                    # mu_i <= lam_i <= mu_(i-1): at most one box per column
                    lc, mc = conjugate(lam), conjugate(mu)
                    mc = mc + (0,) * (len(lc) - len(mc))
                    assert all(0 <= a - b <= 1 for a, b in zip(lc, mc))
    assert sorted(horizontal_strips((1,), 1, (2, 1))) == [(1, 1), (2,)]


@pytest.mark.parametrize("p", [2, 3])
def test_hall_littlewood_monomial_expansions(p):
    t = Fraction(1, p)
    hp = HallPolynomials(p)
    # P_(2) = m_2 + (1 - t) m_11, P_(21) = m_21 + (2 - t - t^2) m_111
    assert hp.monomials((2,)) == {(2,): 1, (1, 1): 1 - t}
    assert hp.monomials((2, 1)) == {(2, 1): 1, (1, 1, 1): 2 - t - t * t}
    # P_(1^n) = e_n = m_(1^n)
    for n in range(5):
        assert hp.monomials((1,) * n) == {(1,) * n: 1}
    # the one tableau 1 2 3 of shape (3) has psi = (1 - t)^2
    assert hp.monomials((3,))[(1, 1, 1)] == (1 - t) ** 2


def test_product_structure_constants():
    hp = HallPolynomials(3)
    t = Fraction(1, 3)
    assert hp.product((1,), (1,)) == {(2,): 1, (1, 1): 1 + t}
    # g^(11)_(1),(1)(p) = p + 1 and g^(2)_(1),(1) = 1
    assert hp((1, 1), (1,), (1,)) == 4
    assert hp((2,), (1,), (1,)) == 1
    assert hp((2,), (1, 1), ()) == 0


@pytest.mark.parametrize("q", [2, 3, 5])
def test_q_binomial_is_the_hall_polynomial_on_elementary_groups(q):
    hp = HallPolynomials(q)
    for m in range(6):
        for k in range(m + 1):
            col = (1,) * m
            assert q_binomial(m, k, q) == \
                hp(col, (1,) * (m - k), (1,) * k)
    assert q_binomial(4, 2, 2) == 35
    assert q_binomial(3, 4, 2) == 0


def test_non_integral_value_raises(monkeypatch):
    hp = HallPolynomials(2)
    monkeypatch.setattr(hp, "product", lambda mu, nu: {(1, 1): Fraction(1, 3)})
    with pytest.raises(ArithmeticError, match="non-integral"):
        hp((1, 1), (1,), (1,))


def test_memo_is_owned_by_the_object():
    a, b = HallPolynomials(2), HallPolynomials(2)
    a((2, 1), (1,), (1, 1))
    assert a._products and not b._products
