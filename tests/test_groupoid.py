import random
from fractions import Fraction

import pytest

from hallalg.groupoid import (ActionGroupoid, DisjointUnion, FnFunctor,
                              GroupHomFunctor, IdentityFunctor, SpanFn,
                              TableGroupoid, b_group, cardinality,
                              compose_functors, constant_functor,
                              discrete_groupoid, external_product,
                              is_equivalence, is_faithful, materialize,
                              point_groupoid, point_inclusion,
                              ProductGroupoid, pull_push_span, pullback_fn,
                              pushforward_fn, twist_by_natural_iso,
                              two_fiber_product)
from hallalg.groups import (cyclic_group, symmetric_group,
                            symmetric_subgroup)


@pytest.fixture(scope="module")
def s3_setup():
    S3 = symmetric_group(3)
    S2 = symmetric_subgroup(S3, 2)
    return S3, S2, b_group(S3), b_group(S2)


def test_pi0_and_cardinality_examples(s3_setup):
    S3, S2, BS3, BS2 = s3_setup
    assert cardinality(point_groupoid()) == 1
    assert cardinality(b_group(cyclic_group(2))) == Fraction(1, 2)
    assert cardinality(discrete_groupoid(range(5))) == 5
    u = DisjointUnion([b_group(cyclic_group(2)), point_groupoid()])
    assert sorted(c.aut_order for c in u.components()) == [1, 2]
    # action groupoid of S2 on S3 by right translation: [S3:S2] components
    act = ActionGroupoid(
        S2, list(S3.elements),
        lambda h, i: S3.index[S3.op(S3.elements[i], S3.inv(h))])
    assert len(act.components()) == 3
    # G//G has cardinality 1
    gg = ActionGroupoid(
        S3, list(S3.elements),
        lambda g, i: S3.index[S3.op(S3.elements[i], S3.inv(g))])
    assert cardinality(gg) == 1
    gg.validate()


def test_two_fiber_product_action_groupoid(s3_setup):
    S3, S2, BS3, BS2 = s3_setup
    incl = GroupHomFunctor(BS2, BS3)
    fib = two_fiber_product(incl, point_inclusion(BS3, 0))
    assert fib.n_objects == 6
    assert len(fib.components()) == 3
    assert all(c.aut_order == 1 for c in fib.components())
    fib.validate()
    # double cosets: H\G/H = 2 for (S3, S2)
    assert len(two_fiber_product(incl, incl).components()) == 2
    # identity on the point
    pt = point_groupoid()
    assert two_fiber_product(IdentityFunctor(pt),
                             IdentityFunctor(pt)).n_objects == 1


def test_is_equivalence_verdicts(s3_setup):
    S3, S2, BS3, BS2 = s3_setup
    assert is_equivalence(IdentityFunctor(BS2)).ok
    v = is_equivalence(constant_functor(BS2, point_groupoid(), 0))
    assert not v.ok and v.witness["kind"] == "hom_not_bijective"
    # inclusion of a skeleton into an equivalent groupoid
    Z2 = cyclic_group(2)
    tr = ActionGroupoid(Z2, [0, 1], lambda g, i: i, name="triv2")
    sub = b_group(Z2)
    inc = FnFunctor(sub, tr, lambda i: 0, lambda m: m, name="inc")
    v = is_equivalence(inc)
    assert not v.ok and v.witness["kind"] == "missed_component"
    swap = ActionGroupoid(Z2, [0, 1], lambda g, i: i ^ g, name="swap")
    skel = FnFunctor(point_groupoid(), swap, lambda i: 0,
                     lambda m: swap.identity(0))
    assert is_equivalence(skel).ok
    # the swap sent to a morphism 0 -> 1: not a functor, and no traceback
    bad = FnFunctor(sub, swap, lambda i: 0, lambda m: (m[0], 0))
    v = is_equivalence(bad)
    assert not v.ok and v.witness["kind"] == "not_a_functor"
    assert v.witness["image_target"] == "1"


def test_pullback_examples(s3_setup):
    S3, S2, BS3, BS2 = s3_setup
    d = discrete_groupoid(range(3))
    pt = point_groupoid()
    assert pullback_fn(IdentityFunctor(d), SpanFn.delta(d, 1)) == \
        SpanFn.delta(d, 1)
    pb = pullback_fn(constant_functor(d, pt, 0), SpanFn.const(pt, 7))
    assert all(pb[c.index] == 7 for c in d.components())
    incl = GroupHomFunctor(BS2, BS3)
    assert pullback_fn(incl, SpanFn.delta(BS3, 0)).values == {0: Fraction(1)}


def test_pushforward_values(s3_setup):
    S3, S2, BS3, BS2 = s3_setup
    incl = GroupHomFunctor(BS2, BS3)
    assert is_faithful(incl)
    push = pushforward_fn(incl, SpanFn.const(BS2, 1))
    assert push.values == {0: Fraction(3)}          # [S3 : S2]
    assert push.is_integral()
    # identity functor: identity on functions
    assert pushforward_fn(IdentityFunctor(BS2), SpanFn.delta(BS2, 0)) == \
        SpanFn.delta(BS2, 0)
    # surjection B(Z/4) -> B(Z/2): index/kernel = 1/2
    BZ4, BZ2 = b_group(cyclic_group(4)), b_group(cyclic_group(2))
    surj = GroupHomFunctor(BZ4, BZ2, hom=lambda x: x % 2)
    assert not is_faithful(surj)
    assert pushforward_fn(surj, SpanFn.const(BZ4, 1)).values == \
        {0: Fraction(1, 2)}


def _faithful_per_object(f):
    """The direct route: no two morphisms out of one object have the same
    target and the same image."""
    for i in range(f.src.n_objects):
        seen = set()
        for m in f.src.out(i):
            key = (f.src.mor_tgt(m), f.on_mor(m))
            if key in seen:
                return False
            seen.add(key)
    return True


def test_is_faithful_matches_per_object_route():
    from hallalg.waldhausen.hecke import HeckeWaldhausen
    S4 = symmetric_group(4)
    hw = HeckeWaldhausen(S4, symmetric_subgroup(S4, 3), depth=2)
    functors = [*hw.faces.values(), *hw.degeneracies.values(),
                constant_functor(hw.levels[1], hw.levels[0], 0)]
    verdicts = [is_faithful(f) for f in functors]
    assert verdicts == [_faithful_per_object(f) for f in functors]
    assert verdicts[-1] is False


def test_pull_push_span_trivial(s3_setup):
    S3, S2, BS3, BS2 = s3_setup
    idf = IdentityFunctor(BS2)
    phi = SpanFn.delta(BS2, 0)
    assert pull_push_span(idf, idf, phi) == phi
    # empty apex: zero function
    empty = discrete_groupoid([])
    pt = point_groupoid()
    to_pt = constant_functor(empty, pt, 0)
    out = pull_push_span(to_pt, to_pt, SpanFn.const(pt, 1))
    assert out.values == {}


def test_pushforward_functoriality():
    S4 = symmetric_group(4)
    s3 = symmetric_subgroup(S4, 3)
    s2 = symmetric_subgroup(S4, 2)
    B4, B3, B2 = b_group(S4), b_group(s3), b_group(s2)
    f = GroupHomFunctor(B2, B3)
    g = GroupHomFunctor(B3, B4)
    one = SpanFn.const(B2, 1)
    assert pushforward_fn(compose_functors(g, f), one) == \
        pushforward_fn(g, pushforward_fn(f, one))
    # dually for pullback
    phi = SpanFn.delta(B4, 0)
    assert pullback_fn(f, pullback_fn(g, phi)) == \
        pullback_fn(compose_functors(g, f), phi)


def test_base_change_on_computed_squares(s3_setup):
    S3, S2, BS3, BS2 = s3_setup
    incl = GroupHomFunctor(BS2, BS3)
    fib = two_fiber_product(incl, incl)
    for comp in BS2.components():
        phi = SpanFn.delta(BS2, comp.index)
        lhs = pushforward_fn(fib.proj_b, pullback_fn(fib.proj_a, phi))
        rhs = pullback_fn(incl, pushforward_fn(incl, phi))
        assert lhs == rhs


def test_iso_invariance(s3_setup):
    S3, S2, BS3, BS2 = s3_setup
    incl = GroupHomFunctor(BS2, BS3)
    rng = random.Random(3)
    for _ in range(4):
        g = rng.choice(S3.elements)
        tw = twist_by_natural_iso(incl, lambda i, g=g: (g, 0))
        tw.validate()
        assert pushforward_fn(tw, SpanFn.const(BS2, 1)) == \
            pushforward_fn(incl, SpanFn.const(BS2, 1))
        assert pullback_fn(tw, SpanFn.delta(BS3, 0)) == \
            pullback_fn(incl, SpanFn.delta(BS3, 0))


def test_cardinality_invariance(s3_setup):
    S3, S2, BS3, BS2 = s3_setup
    Z2 = cyclic_group(2)
    swap = ActionGroupoid(Z2, [0, 1], lambda g, i: i ^ g, name="swap")
    skel = FnFunctor(point_groupoid(), swap, lambda i: 0,
                     lambda m: swap.identity(0))
    assert is_equivalence(skel).ok
    assert cardinality(point_groupoid()) == cardinality(swap)


def test_product_groupoid_and_external():
    d2 = discrete_groupoid(range(2))
    BZ2 = b_group(cyclic_group(2))
    prod = ProductGroupoid(d2, BZ2)
    assert len(prod.components()) == 2
    f = SpanFn(d2, {0: 2, 1: 3})
    g = SpanFn.const(BZ2, Fraction(1, 2))
    ext = external_product(prod, f, g)
    vals = sorted(ext.values.values())
    assert vals == [Fraction(1), Fraction(3, 2)]
    prod.validate()


def test_table_groupoid_json_roundtrip(s3_setup):
    S3, S2, BS3, BS2 = s3_setup
    incl = GroupHomFunctor(BS2, BS3)
    fib = two_fiber_product(incl, point_inclusion(BS3, 0))
    tab = materialize(fib)
    js = tab.to_json()
    tab2 = TableGroupoid.from_json(js)
    assert cardinality(tab2) == cardinality(fib) == 3
    assert tab2.n_morphisms() == fib.n_morphisms()


def test_budget_guard():
    from hallalg import BudgetExceededError
    S3 = symmetric_group(3)
    BS3 = b_group(S3)
    idf = IdentityFunctor(BS3)
    with pytest.raises(BudgetExceededError):
        two_fiber_product(idf, idf, budget=2)


def test_functor_json_roundtrip():
    from hallalg.groupoid import functor_from_json, functor_to_json
    S3 = symmetric_group(3)
    S2 = symmetric_subgroup(S3, 2)
    BS3 = b_group(S3)
    incl = GroupHomFunctor(b_group(S2), BS3)
    fib = materialize(two_fiber_product(incl, point_inclusion(BS3, 0)))
    idf = IdentityFunctor(fib)
    js = functor_to_json(idf)
    assert js["objects"] == list(range(fib.n_objects))
    back = functor_from_json(fib, fib, js)
    assert is_equivalence(back).ok
