from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallalg.exactmath.halllittlewood import HallPolynomials, n_statistic
from hallalg.exactmath.partitions import (conjugate, horizontal_strips,
                                          partitions_of, q_binomial)
from oracles.exactmath import (FractionHallPolynomials,
                               horizontal_strips_inside)


def exact_monomials(hp, lam):
    """{kappa: [m_kappa] P_lam(x; 1/p)} from the numerators over
    p^binom(l(kappa), 2) that `monomial_table` keeps."""
    return {kappa: Fraction(w, hp.p ** comb(len(kappa), 2))
            for kappa, w in hp.monomial_table(sum(lam))[lam].items()}


def exact_product(hp, mu, nu):
    """{lam: f^lam_{mu nu}(1/p)} from the values g^lam_{mu nu}(p) that
    `product` keeps."""
    s = n_statistic(mu) + n_statistic(nu)
    return {lam: Fraction(num, hp.p ** d) * Fraction(hp.p) ** (
        s - n_statistic(lam)) for lam, (num, d) in hp.product(mu, nu).items()}


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
                for lam in horizontal_strips_inside(mu, k, outer):
                    assert sum(lam) == sum(mu) + k
                    assert all(a <= b for a, b in
                               zip(lam, outer + (0,) * len(lam)))
                    # mu_i <= lam_i <= mu_(i-1): at most one box per column
                    lc, mc = conjugate(lam), conjugate(mu)
                    mc = mc + (0,) * (len(lc) - len(mc))
                    assert all(0 <= a - b <= 1 for a, b in zip(lc, mc))
    assert sorted(horizontal_strips_inside((1,), 1, (2, 1))) == \
        [(1, 1), (2,)]
    # unbounded strips are the bounded ones inside a shape that holds all
    for n in range(5):
        for mu in partitions_of(n):
            for k in range(4):
                outer = (n + k,) * (len(mu) + 1)
                assert sorted(horizontal_strips(mu, k)) == \
                    sorted(horizontal_strips_inside(mu, k, outer))


@pytest.mark.parametrize("p", [2, 3])
def test_hall_littlewood_monomial_expansions(p):
    t = Fraction(1, p)
    hp = HallPolynomials(p)
    # P_(2) = m_2 + (1 - t) m_11, P_(21) = m_21 + (2 - t - t^2) m_111
    assert exact_monomials(hp, (2,)) == {(2,): 1, (1, 1): 1 - t}
    assert exact_monomials(hp, (2, 1)) == {(2, 1): 1, (1, 1, 1): 2 - t - t * t}
    # P_(1^n) = e_n = m_(1^n)
    for n in range(5):
        assert exact_monomials(hp, (1,) * n) == {(1,) * n: 1}
    # the one tableau 1 2 3 of shape (3) has psi = (1 - t)^2
    assert exact_monomials(hp, (3,))[(1, 1, 1)] == (1 - t) ** 2
    oracle = FractionHallPolynomials(p)
    for n in range(7):
        for lam in partitions_of(n):
            assert exact_monomials(hp, lam) == oracle.monomials(lam)


def test_product_structure_constants():
    hp = HallPolynomials(3)
    t = Fraction(1, 3)
    assert exact_product(hp, (1,), (1,)) == {(2,): 1, (1, 1): 1 + t}
    # g^(11)_(1),(1)(p) = p + 1 and g^(2)_(1),(1) = 1
    assert hp((1, 1), (1,), (1,)) == 4
    assert hp((2,), (1,), (1,)) == 1
    assert hp((2,), (1, 1), ()) == 0
    oracle = FractionHallPolynomials(3)
    for n in range(6):
        for a in range(n + 1):
            for mu in partitions_of(a):
                for nu in partitions_of(n - a):
                    assert exact_product(hp, mu, nu) == oracle.product(mu, nu)


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


def test_non_integral_value_raises():
    hp = HallPolynomials(2)
    # [m_11] P_(1) P_(1) = 2, read over 2^3 instead of 2^0: f^(11) becomes
    # 1/4 - [m_11] P_(2) = -1/4 and g^(11) = 2 f^(11) = -1/2
    table = hp._split_tables_of(2)[1]
    kappa, c, nk, e, pairs = table[1]
    assert kappa == (1, 1)
    table[1] = (kappa, c, nk, e + 3, pairs)
    assert hp((2,), (1,), (1,)) == 1
    with pytest.raises(ArithmeticError,
                       match=r"non-integral Hall polynomial value -1/2 at "
                             r"g\^\(1, 1\)_\(1,\),\(1,\)\(2\)"):
        hp((1, 1), (1,), (1,))


def test_memo_is_owned_by_the_object():
    a, b = HallPolynomials(2), HallPolynomials(2)
    a((2, 1), (1,), (1, 1))
    assert a._products and not b._products


def _triples(n):
    for lam in partitions_of(n):
        for a in range(n + 1):
            for mu in partitions_of(a):
                for nu in partitions_of(n - a):
                    yield lam, mu, nu


@pytest.mark.parametrize("p", [2, 3, 5])
def test_every_value_up_to_size_7_matches_the_fraction_oracle(p):
    hp, oracle = HallPolynomials(p), FractionHallPolynomials(p)
    for n in range(8):
        for lam, mu, nu in _triples(n):
            assert hp(lam, mu, nu) == oracle(lam, mu, nu), (lam, mu, nu)


_ORACLES = {p: FractionHallPolynomials(p) for p in (2, 3, 5)}


@st.composite
def _size_8_triples(draw):
    p = draw(st.sampled_from(sorted(_ORACLES)))
    lam = draw(st.sampled_from(partitions_of(8)))
    a = draw(st.integers(0, 8))
    mu = draw(st.sampled_from(partitions_of(a)))
    nu = draw(st.sampled_from(partitions_of(8 - a)))
    return p, lam, mu, nu


@settings(max_examples=25, deadline=None)
@given(_size_8_triples())
def test_size_8_values_match_the_fraction_oracle(triple):
    p, lam, mu, nu = triple
    assert HallPolynomials(p)(lam, mu, nu) == _ORACLES[p](lam, mu, nu)


def test_each_strip_is_weighed_once_and_each_prefix_walked_once(
        monkeypatch):
    weighed, walked = Counter(), Counter()
    real_psi, real_descend = HallPolynomials._psi, HallPolynomials._descend

    def psi(self, nu, mu):
        weighed[nu, mu] += 1
        return real_psi(self, nu, mu)

    def descend(self, prefix, left, states, table):
        walked[sum(prefix) + left, prefix] += 1
        return real_descend(self, prefix, left, states, table)

    monkeypatch.setattr(HallPolynomials, "_psi", psi)
    monkeypatch.setattr(HallPolynomials, "_descend", descend)
    hp = HallPolynomials(2)
    for n in range(7):
        for lam, mu, nu in _triples(n):
            hp(lam, mu, nu)
    assert weighed and set(weighed.values()) == {1}
    assert set(walked.values()) == {1}
    assert set(walked) == {(n, kappa[:i]) for n in range(7)
                           for kappa in partitions_of(n)
                           for i in range(len(kappa) + 1)}
    # the splits of (1^n) with |alpha| = a are one sorted pair
    for n in range(7):
        for a in range(n + 1):
            kappa, _, _, _, pairs = hp._split_tables_of(n)[a][-1]
            assert kappa == (1,) * n
            assert pairs == [((1,) * a, (1,) * (n - a), comb(n, a))]
