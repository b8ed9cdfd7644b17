import random

import pytest
from hypothesis import given, strategies as st

from hallalg.exactmath.partitions import PartitionMap, partition_maps
from hallalg.exactmath.symfunc import MultiSymElem, lr_product, multisym_mul
from oracles.exactmath import SymElem, lr_by_fillings, multisym_unit


def test_symelem_ring_ops():
    s1 = SymElem.schur((1,))
    s2 = SymElem.schur((2,))
    s11 = SymElem.schur((1, 1))
    assert s1 * s1 == s2 + s11
    assert (s1 + s2) * s1 == s1 * s1 + s2 * s1
    assert s1 * SymElem.schur(()) == s1


def test_multisym_examples():
    a = MultiSymElem.basis(PartitionMap(("a",), ((1,),)))
    sq = multisym_mul(a, a)
    assert sq == MultiSymElem(("a",), {
        PartitionMap(("a",), ((2,),)): 1,
        PartitionMap(("a",), ((1, 1),)): 1})
    assert multisym_mul(multisym_unit(("a",)), a) == a
    x = MultiSymElem.basis(PartitionMap(("a", "b"), ((1,), ())))
    y = MultiSymElem.basis(PartitionMap(("a", "b"), ((), (1,))))
    assert multisym_mul(x, y) == \
        MultiSymElem.basis(PartitionMap(("a", "b"), ((1,), (1,))))


def test_multisym_mismatched_labels():
    a = MultiSymElem.basis(PartitionMap(("a",), ((1,),)))
    b = MultiSymElem.basis(PartitionMap(("b",), ((1,),)))
    with pytest.raises(ValueError):
        multisym_mul(a, b)


def test_multisym_rejects_keys_on_other_labels():
    # ValueError, not assert: `python -O` must not skip these checks
    on_a = PartitionMap(("a",), ((1,),))
    with pytest.raises(ValueError, match="not a partition map on"):
        MultiSymElem(("b",), {on_a: 1})
    with pytest.raises(ValueError, match="not a partition map on"):
        MultiSymElem(("a",), {(1,): 1})
    with pytest.raises(ValueError, match="mismatched index sets"):
        MultiSymElem.basis(on_a) + multisym_unit(("b",))


def test_basis_product_is_the_labelwise_lr_product():
    # each label's factor is the LR expansion of s_lam * s_mu, here checked
    # against the coefficients the search over LR fillings gives one by one
    labels = ("a", "b")
    pool = [k for n in range(4) for k in partition_maps(n, labels)]
    for x in pool:
        for y in pool:
            got = lr_product(x.parts, y.parts)
            want = {}
            for nu in partition_maps(x.total + y.total, labels):
                c = 1
                for lam, mu, rho in zip(x.parts, y.parts, nu.parts):
                    c *= lr_by_fillings(lam, mu, rho)
                if c:
                    want[nu.parts] = c
            assert got == want and list(got) == list(want), (x, y)


def multisym_parts(lam, mu):
    """multisym_mul of two basis elements, keyed by the parts of nu."""
    out = multisym_mul(MultiSymElem.basis(lam), MultiSymElem.basis(mu))
    return {nu.parts: c for nu, c in out.coords.items()}


@pytest.mark.parametrize("k,total", [(1, 5), (2, 4), (3, 3), (4, 2)],
                         ids=["trivial-5", "cyclic:2-4", "cyclic:3-3",
                              "klein-2"])
def test_integer_lr_product_is_multisym_mul_on_every_pair(k, total):
    # the label sets of ch-verify for the trivial group, C2, C3 and the
    # Klein group
    labels = tuple(range(k))
    for n in range(total + 1):
        for m in range(total + 1 - n):
            for lam in partition_maps(n, labels):
                for mu in partition_maps(m, labels):
                    got = lr_product(lam.parts, mu.parts)
                    assert got == multisym_parts(lam, mu), (lam, mu)
                    assert all(type(c) is int for c in got.values())


def test_integer_lr_product_multiplies_the_labels_coefficients():
    # c^{321}_{21,21} = 2 is the first LR coefficient over 1, so a product
    # of two such needs two labels and total size 12
    lam = PartitionMap((0, 1), ((2, 1), (2, 1)))
    got = lr_product(lam.parts, lam.parts)
    assert got[(3, 2, 1), (3, 2, 1)] == 4
    assert got == multisym_parts(lam, lam)


@st.composite
def label_pairs(draw):
    labels = tuple(range(draw(st.integers(1, 4), label="labels")))
    n = draw(st.integers(0, 6), label="n")
    m = draw(st.integers(0, 6 - n), label="m")
    return (draw(st.sampled_from(partition_maps(n, labels))),
            draw(st.sampled_from(partition_maps(m, labels))))


@given(label_pairs())
def test_integer_lr_product_is_multisym_mul(pair):
    lam, mu = pair
    got = lr_product(lam.parts, mu.parts)
    assert got == multisym_parts(lam, mu)
    assert lr_product(lam.parts, mu.parts) == got


def test_multisym_associative_commutative_sampled():
    # <= 50 random triples, total size <= 4 per factor, two labels
    rng = random.Random(7)
    pool = []
    for n in range(0, 5):
        pool.extend(partition_maps(n, ("a", "b")))
    triples = [(rng.choice(pool), rng.choice(pool), rng.choice(pool))
               for _ in range(50)]
    for la, lb, lc in triples:
        a = MultiSymElem.basis(la)
        b = MultiSymElem.basis(lb)
        c = MultiSymElem.basis(lc)
        assert multisym_mul(a, b) == multisym_mul(b, a)
        assert multisym_mul(multisym_mul(a, b), c) == \
            multisym_mul(a, multisym_mul(b, c))


def test_serialization():
    a = MultiSymElem.basis(PartitionMap(("a", "b"), ((2, 1), ())))
    js = a.to_json()
    assert js == [[{"a": [2, 1]}, "1"]]
