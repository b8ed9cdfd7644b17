from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hallalg.exactmath.cyclotomic import (PackedProducts, Slots,
                                          _polydivmod_int, column_norms,
                                          cyclotomic_polynomial,
                                          euler_phi, integral_rows,
                                          poly_string, reduction_rows)
from oracles.cyclotomic import Cyc, conjugate, dot, planes


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for m in range(1, 20):
        assert len(cyclotomic_polynomial(m)) == euler_phi(m) + 1


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 12])
def test_root_of_unity_power(m):
    z = Cyc.zeta(m)
    acc = Cyc.one()
    for _ in range(m):
        acc = acc * z
    assert acc == 1


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8, 12])
def test_sum_of_all_roots_is_zero(m):
    total = Cyc.zero(m)
    for k in range(m):
        total = total + Cyc.zeta(m, k)
    assert total == 0


def test_conjugation():
    assert Cyc.zeta(4).conj() == Cyc.zeta(4, 3)
    assert Cyc.zeta(6) + Cyc.zeta(6).conj() == 1
    assert Cyc.rational(Fraction(3, 7)).conj() == Fraction(3, 7)
    z = Cyc.zeta(5, 2) * Fraction(1, 3) + Cyc.zeta(5, 4)
    assert z.conj().conj() == z


def test_norm_is_one_on_units():
    for m in (3, 4, 5, 8):
        for k in range(1, m):
            z = Cyc.zeta(m, k)
            assert z * z.conj() == 1


def test_mixed_conductor_arithmetic():
    # zeta_6 = -zeta_3^2;  zeta_2 = -1
    assert Cyc.zeta(2) == Cyc.rational(-1)
    assert Cyc.zeta(6, 3) == -1
    assert Cyc.zeta(3) * Cyc.zeta(2) == Cyc.zeta(6, 5)
    assert Cyc.zeta(4, 2) + 1 == 0


def test_rational_embedding_and_scalars():
    a = Cyc.rational(Fraction(1, 2))
    assert (a + a) == 1
    assert (Cyc.zeta(3) * 2) / 2 == Cyc.zeta(3)
    assert a.is_rational() and a.rational_value() == Fraction(1, 2)


@settings(max_examples=60)
@given(st.integers(min_value=2, max_value=8),
       st.integers(min_value=0, max_value=7),
       st.integers(min_value=0, max_value=7))
def test_zeta_addition_of_exponents(m, i, j):
    assert Cyc.zeta(m, i) * Cyc.zeta(m, j) == Cyc.zeta(m, i + j)


def test_string_forms():
    assert Cyc.zero(3).to_string() == "0"
    assert Cyc.one().to_string() == "1"
    assert Cyc.zeta(3).to_string() == "z"
    assert (Cyc.zeta(3) * Fraction(-1)).to_string() == "-z"
    js = Cyc.zeta(4).to_json()
    assert js["conductor"] == 4 and js["coeffs"] == ["0", "1"]
    assert poly_string((1, -2, Fraction(1, 2))) == "1-2*z+1/2*z^2"
    assert poly_string((0, -1, 0, 3)) == "-z+3*z^3"
    assert poly_string((0, 0)) == "0"


@settings(max_examples=80)
@given(st.integers(min_value=1, max_value=12), st.data())
def test_integer_kernel_matches_cyc(m, data):
    phi = euler_phi(m)
    vector = st.lists(st.integers(-3, 3), min_size=phi, max_size=phi)
    xs = data.draw(st.lists(vector, min_size=1, max_size=4))
    ys = data.draw(st.lists(vector, min_size=len(xs), max_size=len(xs)))
    for x in xs:
        assert conjugate(m, x) == Cyc(m, x).conj().coeffs
    want = sum((Cyc(m, x) * Cyc(m, y) for x, y in zip(xs, ys)), Cyc.zero(m))
    assert tuple(dot(m, planes(xs), planes(ys))) == want.coeffs


COEFFICIENT = st.one_of(
    st.integers(-3, 3),
    st.integers(-(1 << 70), 1 << 70),
    st.fractions(min_value=-5, max_value=5, max_denominator=12))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.data())
def test_packed_products_match_the_pairwise_dot(m, data):
    # every slot of every packed integer is the oracle's coefficient, for
    # Fraction, negative and large coefficients, reduced (phi) and
    # unreduced (2 phi - 1) x, with and without weights
    phi = euler_phi(m)
    classes = data.draw(st.integers(1, 4), label="classes")
    width = data.draw(st.sampled_from([phi, 2 * phi - 1]), label="width")

    def vectors(length):
        return st.lists(st.lists(COEFFICIENT, min_size=length,
                                 max_size=length).map(tuple),
                        min_size=classes, max_size=classes)

    ys = data.draw(st.lists(vectors(phi), min_size=1, max_size=4),
                   label="ys")
    xs = data.draw(st.lists(vectors(width), min_size=1, max_size=3),
                   label="xs")
    weights = data.draw(st.one_of(
        st.none(), st.lists(st.integers(0, 1 << 40), min_size=classes,
                            max_size=classes)), label="weights")
    int_ys, den_y = integral_rows(ys)
    int_xs, den_x = integral_rows(xs)
    kernel = PackedProducts(m, int_ys, xnorms=column_norms(int_xs),
                            weights=weights, width=width)
    for x, int_x in zip(xs, int_xs):
        got = list(zip(*map(kernel.slots, kernel(int_x))))
        assert len(got) == len(ys)
        for y, tot in zip(ys, got):
            want = dot(m, planes(x, weights),
                       planes(conjugate(m, v) for v in y))
            assert list(tot) == [w * den_x * den_y for w in want]


def _pack(slots, bits):
    return sum(s << bits * j for j, s in enumerate(slots))


@pytest.mark.parametrize("k", [0, 3, 40])
def test_a_slot_holds_an_entry_at_its_bound(k):
    # |S_0| = |S_1| = 4^k is the a-priori bound itself: the slots are one
    # bit wider than it needs, and in a slot one bit narrower the slots
    # (4^k, -4^k) pack to the same integer as (-4^k, 1 - 4^k)
    top = 1 << 2 * k
    kernel = PackedProducts(1, [[(1 << k,)], [(-(1 << k),)]])
    assert kernel.bits == 2 * k + 2
    packed = kernel([(1 << k,)])
    assert packed == [_pack([top, -top], kernel.bits)]
    assert kernel.slots(packed[0]) == [top, -top]
    narrow = kernel.bits - 1
    assert top == 1 << (narrow - 1)
    assert _pack([top, -top], narrow) == _pack([-top, 1 - top], narrow)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.data())
def test_the_nonzero_slots_are_those_of_every_slot(count, data):
    # mostly zero slots, as the multiplicities of one label pair are; the
    # extremes -2^(bits-1) and 2^(bits-1) - 1 included
    k = data.draw(st.integers(0, 30), label="k")
    kernel = PackedProducts(1, [[(1 << k,)]] * count)
    half = 1 << (kernel.bits - 1)
    slot = st.one_of(st.just(0), st.just(0),
                     st.integers(max(-3, -half), min(3, half - 1)),
                     st.sampled_from([-half, half - 1, 1 - half]),
                     st.integers(-half, half - 1))
    slots = data.draw(st.lists(slot, min_size=count, max_size=count),
                      label="slots")
    packed = _pack(slots, kernel.bits)
    assert kernel.slots(packed) == slots
    assert kernel.nonzero_slots(packed) == [
        (j, x) for j, x in enumerate(slots) if x]


@pytest.mark.parametrize("bits", [2, 3, 7, 8, 9, 31, 32, 33, 63, 64, 65,
                                  100, 128, 129, 300])
def test_one_decode_serves_every_slot_width(bits):
    # slots at +-(2^(bits-1) - 1), the widest a slot of this width holds
    # by its bound, next to zeros, ones and -2^(bits-1)
    top = (1 << (bits - 1)) - 1
    slots = [top, -top, 0, top, top, -top, -top, 0, 0, 1, -1, -top - 1, top]
    decode = Slots(len(slots), bits)
    packed = _pack(slots, bits)
    assert decode.slots(packed) == slots
    assert decode.nonzero_slots(packed) == [
        (j, x) for j, x in enumerate(slots) if x]
    assert Slots(1, bits).slots(top) == [top]
    assert Slots(1, bits).slots(-top) == [-top]


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 300), st.data())
def test_slots_of_any_width_read_back(bits, data):
    top = (1 << (bits - 1)) - 1
    slot = st.one_of(st.just(0), st.sampled_from([top, -top]),
                     st.integers(-top, top))
    slots = data.draw(st.lists(slot, min_size=1, max_size=30),
                      label="slots")
    decode = Slots(len(slots), bits)
    assert decode.slots(_pack(slots, bits)) == slots


def test_the_bound_counts_the_largest_reduction_row_entry():
    # Phi_105 is the first cyclotomic polynomial with a coefficient 2, and
    # 1 * conj(zeta) = zeta^104 has the coefficient 2 at zeta^6: the entry
    # sits at the bound |1|_1 |zeta|_1 2, which a slot of 2 bits would
    # read as -2
    rows = reduction_rows(105)
    one, zeta = (1,) + (0,) * 47, (0, 1) + (0,) * 46
    kernel = PackedProducts(105, [[zeta]])
    assert kernel.bits == 3
    got = [kernel.slots(p) for p in kernel([one])]
    assert got == [[x] for x in rows[104]]
    assert got[6] == [2]


def test_a_slot_is_wide_enough_for_the_largest_expected_value():
    kernel = PackedProducts(4, [[(1, 0)]], largest=1000)
    assert kernel.bits == (1000).bit_length() + 1
    assert kernel.slots(kernel([(1, 0)])[0]) == [1]


def test_integral_rows_scale_by_the_common_denominator():
    rows = [[(1, Fraction(1, 2))], [(Fraction(2, 3), 0)]]
    assert integral_rows(rows) == ([[(6, 3)], [(4, 0)]], 6)
    ints = [[(1, 2)]]
    assert integral_rows(ints)[0] is ints


@settings(max_examples=120)
@given(st.integers(min_value=1, max_value=12), st.data())
def test_poly_string_is_the_cyc_string(m, data):
    # a Cyc holds Fractions and the tables hold ints: both print alike
    phi = euler_phi(m)
    coefficient = st.one_of(
        st.integers(-3, 3),
        st.fractions(min_value=-3, max_value=3, max_denominator=6))
    v = data.draw(st.lists(coefficient, min_size=phi, max_size=phi))
    assert poly_string(v) == Cyc(m, v).to_string()


@pytest.mark.parametrize("call,error", [
    (lambda: Cyc(3, [1]), ValueError),
    (lambda: Cyc.zeta(4).promote(6), ValueError),
    (lambda: Cyc.zeta(3) / Cyc.zeta(3), ValueError),
    (lambda: Cyc.zeta(3) / 0, ZeroDivisionError),
    (lambda: Cyc.zeta(3).rational_value(), ArithmeticError),
    (lambda: _polydivmod_int([1, 0, 1], [1, 1]), ArithmeticError),
    (lambda: euler_phi(0), ValueError),
    (lambda: cyclotomic_polynomial(0), ValueError),
    (lambda: PackedProducts(3, [[(1, 0)]])([(1,)]), ValueError),
], ids=["length", "promote", "divide-by-cyc", "divide-by-zero",
        "rational-value", "inexact-division", "phi-of-0", "phi-poly-of-0",
        "packed-width"])
def test_malformed_input_raises(call, error):
    with pytest.raises(error):
        call()
