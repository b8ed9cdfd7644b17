import random
from collections import defaultdict
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hallalg.groupoid import (ActionGroupoid, FnFunctor, GMap,
                              GroupHomFunctor, SpanFn, b_group, cardinality,
                              composite_difference, is_equivalence,
                              point_groupoid, point_inclusion, pullback_fn,
                              pushforward_fn, two_fiber_product)
from hallalg.groupoid.fiber import _Square
from hallalg.groups import (TupleGroup, alternating_subgroup, cyclic_group,
                            dihedral_group, perm_sign, symmetric_group,
                            symmetric_subgroup, trivial_group)
from hallalg.waldhausen import segal
from hallalg.waldhausen.hecke import CosetLevel, Cosets
from oracles.functors import (ComposedFunctor, IdentityFunctor,
                              compose_functors)
from oracles.groupoid import (DisjointUnion, FullSubgroupoid, ProductGroupoid,
                              constant_functor, discrete_groupoid,
                              external_product, fiber_projections,
                              is_faithful, materialised_comparison,
                              pull_push_span, validate_action,
                              validate_functor, validate_groupoid,
                              walked_fibres, witness_key)
from oracles.hecke import pinned_level


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
    validate_groupoid(gg)
    validate_action(gg)


def test_two_fiber_product_action_groupoid(s3_setup):
    S3, S2, BS3, BS2 = s3_setup
    incl = GroupHomFunctor(BS2, BS3)
    fib = two_fiber_product(incl, point_inclusion(BS3, 0))
    assert fib.n_objects == 6
    assert len(fib.components()) == 3
    assert all(c.aut_order == 1 for c in fib.components())
    validate_groupoid(fib)
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
    assert pullback_fn(IdentityFunctor(d), SpanFn(d, {1: 1})) == \
        SpanFn(d, {1: 1})
    pb = pullback_fn(constant_functor(d, pt, 0), SpanFn.const(pt, 7))
    assert all(pb[c.index] == 7 for c in d.components())
    incl = GroupHomFunctor(BS2, BS3)
    assert pullback_fn(incl, SpanFn(BS3, {0: 1})).values == {0: Fraction(1)}


def test_pushforward_values(s3_setup):
    S3, S2, BS3, BS2 = s3_setup
    incl = GroupHomFunctor(BS2, BS3)
    assert is_faithful(incl)
    push = pushforward_fn(incl, SpanFn.const(BS2, 1))
    assert push.values == {0: Fraction(3)}          # [S3 : S2]
    assert all(v.denominator == 1 for v in push.values.values())
    # identity functor: identity on functions
    assert pushforward_fn(IdentityFunctor(BS2), SpanFn(BS2, {0: 1})) == \
        SpanFn(BS2, {0: 1})
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
    phi = SpanFn(BS2, {0: 1})
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
    phi = SpanFn(B4, {0: 1})
    assert pullback_fn(f, pullback_fn(g, phi)) == \
        pullback_fn(compose_functors(g, f), phi)


def test_base_change_on_computed_squares(s3_setup):
    S3, S2, BS3, BS2 = s3_setup
    incl = GroupHomFunctor(BS2, BS3)
    pr_a, pr_b = fiber_projections(two_fiber_product(incl, incl))
    for comp in BS2.components():
        phi = SpanFn(BS2, {comp.index: 1})
        lhs = pushforward_fn(pr_b, pullback_fn(pr_a, phi))
        rhs = pullback_fn(incl, pushforward_fn(incl, phi))
        assert lhs == rhs


def twist_by_natural_iso(f, eta):
    """The naturally isomorphic functor x -> tgt(eta_x), m -> eta∘F(m)∘eta^-1.

    `eta` maps each source object index to a target morphism token with
    source f(x).
    """
    tgt = f.tgt

    def mor_map(m):
        i, j = f.src.mor_src(m), f.src.mor_tgt(m)
        return tgt.compose(eta(j), tgt.compose(f.on_mor(m),
                                               tgt.inverse(eta(i))))

    return FnFunctor(f.src, tgt, lambda i: tgt.mor_tgt(eta(i)), mor_map,
                     name=f"{f.name}~")


def test_iso_invariance(s3_setup):
    S3, S2, BS3, BS2 = s3_setup
    incl = GroupHomFunctor(BS2, BS3)
    rng = random.Random(3)
    for _ in range(4):
        g = rng.choice(S3.elements)
        tw = twist_by_natural_iso(incl, lambda i, g=g: (g, 0))
        validate_functor(tw)
        assert pushforward_fn(tw, SpanFn.const(BS2, 1)) == \
            pushforward_fn(incl, SpanFn.const(BS2, 1))
        assert pullback_fn(tw, SpanFn(BS3, {0: 1})) == \
            pullback_fn(incl, SpanFn(BS3, {0: 1}))


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
    validate_groupoid(prod)


def test_product_pi0_matches_bfs():
    # the BFS pi0 of A x B is what external_product relies on: component
    # k = [a] * |pi0 B| + [b] is ([a], [b]), with rep (rep_a, rep_b), and
    # its size and Aut order are the factors' products
    from hallalg.waldhausen.hecke import HeckeWaldhausen
    S3 = symmetric_group(3)
    hw = HeckeWaldhausen(S3, symmetric_subgroup(S3, 2), depth=1)
    swap = ActionGroupoid(cyclic_group(2), [0, 1], lambda g, i: i ^ g,
                          name="swap")
    factors = [hw.levels[0],                      # connected
               hw.levels[1],                      # two components
               discrete_groupoid(range(3)),
               b_group(cyclic_group(2)),
               swap,
               ProductGroupoid(hw.levels[1], discrete_groupoid(range(2)))]
    for A in factors:
        for B in factors:
            prod = ProductGroupoid(A, B)
            ca, cb = A.components(), B.components()
            comps = prod.components()
            assert len(comps) == len(ca) * len(cb), prod.name
            for x in ca:
                for y in cb:
                    c = comps[x.index * len(cb) + y.index]
                    assert prod.objects[c.rep] == (x.rep, y.rep), prod.name
                    assert (c.size, c.aut_order) == (
                        x.size * y.size, x.aut_order * y.aut_order)
            for i, (ia, ib) in enumerate(prod.objects):
                assert prod.component_of(i) == (
                    A.component_of(ia) * len(cb) + B.component_of(ib))
            # external products, against the value at each representative
            f = SpanFn(A, {x.index: x.index + 1 for x in ca})
            g = SpanFn(B, {y.index: Fraction(1, y.index + 2)
                           for y in cb[1:]})
            want = {c.index: f[A.component_of(prod.objects[c.rep][0])]
                    * g[B.component_of(prod.objects[c.rep][1])]
                    for c in comps}
            assert external_product(prod, f, g).values == {
                k: v for k, v in want.items() if v}


def test_composing_unrelated_functors_is_a_value_error():
    # raised, not asserted: `python -O` must not skip it
    BZ2, BZ3 = b_group(cyclic_group(2)), b_group(cyclic_group(3))
    with pytest.raises(ValueError, match="not composable"):
        ComposedFunctor(IdentityFunctor(BZ2), IdentityFunctor(BZ3))
    with pytest.raises(ValueError, match="not composable"):
        compose_functors(GMap(BZ2, BZ2, [0]), GMap(BZ3, BZ3, [0]))
    with pytest.raises(ValueError, match="not composable"):
        composite_difference((GMap(BZ2, BZ2, [0]), GMap(BZ3, BZ3, [0])),
                             ())
    with pytest.raises(ValueError, match="do not share their source"):
        composite_difference((GMap(BZ2, BZ2, [0]),), (GMap(BZ3, BZ3, [0]),))
    # an identity side needs an endomorphism on the other
    with pytest.raises(ValueError, match="do not share their source"):
        composite_difference((GMap(BZ2, BZ3, [0], fill=0),), ())


def test_budget_guard():
    from hallalg import BudgetExceededError
    S3 = symmetric_group(3)
    BS3 = b_group(S3)
    idf = IdentityFunctor(BS3)
    with pytest.raises(BudgetExceededError):
        two_fiber_product(idf, idf, budget=2)


def test_transfer_rejects_functions_on_the_wrong_groupoid(s3_setup):
    # explicit errors, not asserts, so that they hold under python -O
    S3, S2, BS3, BS2 = s3_setup
    incl = GroupHomFunctor(BS2, BS3)
    with pytest.raises(ValueError, match="component 1 out of range"):
        SpanFn(BS2, {1: 1})
    with pytest.raises(ValueError, match="summand"):
        SpanFn.const(BS2) + SpanFn.const(BS3)
    with pytest.raises(ValueError, match="function to pull back"):
        pullback_fn(incl, SpanFn.const(BS2))
    with pytest.raises(ValueError, match="function to push forward"):
        pushforward_fn(incl, SpanFn.const(BS3))
    with pytest.raises(ValueError, match="must share their apex"):
        pull_push_span(incl, IdentityFunctor(BS3), SpanFn.const(BS3))
    prod = ProductGroupoid(BS2, BS3)
    with pytest.raises(ValueError, match="first factor"):
        external_product(prod, SpanFn.const(BS3), SpanFn.const(BS3))
    with pytest.raises(ValueError, match="second factor"):
        external_product(prod, SpanFn.const(BS2), SpanFn.const(BS2))
    with pytest.raises(ValueError, match="must share their target"):
        two_fiber_product(incl, IdentityFunctor(BS2))


# -- random small cospans: the materialised fiber product is the oracle -----

S3 = symmetric_group(3)
C2, C4 = cyclic_group(2), cyclic_group(4)
# each target group K: the subgroups L whose coset spaces K/L make up the
# objects of D, and homomorphisms rho: G -> K for the legs, faithful or not
TARGETS = {
    "C2": (C2, [[0], [0, 1]],
           [(C2, lambda x: x), (C4, lambda x: x % 2), (C2, lambda x: 0),
            (trivial_group(), lambda x: 0),
            (S3, lambda p: (1 - perm_sign(p)) // 2)]),
    "C4": (C4, [[0], [0, 2], [0, 1, 2, 3]],
           [(C4, lambda x: x), (C2, lambda x: 2 * x),
            (C4, lambda x: 2 * x % 4), (C4, lambda x: 0)]),
    "S3": (S3, [[S3.identity], symmetric_subgroup(S3, 2).elements,
                alternating_subgroup(S3).elements, S3.elements],
           [(S3, lambda p: p), (symmetric_subgroup(S3, 2), lambda p: p),
            (alternating_subgroup(S3), lambda p: p),
            (S3, lambda p: S3.identity)]),
}


def _target(K, subgroups):
    """D = T // K for T the disjoint union of the coset spaces K/L."""
    pts = []
    for j, L in enumerate(subgroups):
        for x in K.elements:
            coset = (j, frozenset(K.op(x, y) for y in L))
            if coset not in pts:
                pts.append(coset)
    index = {t: i for i, t in enumerate(pts)}

    def act(k, i):
        j, coset = pts[i]
        return index[(j, frozenset(K.op(k, y) for y in coset))]

    return ActionGroupoid(K, pts, act, name="T//K")


def _leg(D, G, rho, picks, labels):
    """A = S // G over D: S is the closure under rho(G) of the picked points
    of D's objects x range(labels), g acting through rho on the first
    coordinate; the functor forgets the label."""
    pts, seen = [], set()
    for p in picks:
        stack = [p] if p not in seen else []
        seen.add(p)
        while stack:
            t, x = q = stack.pop()
            pts.append(q)
            for g in G.elements:
                q2 = (D.act(rho(g), t), x)
                if q2 not in seen:
                    seen.add(q2)
                    stack.append(q2)
    index = {q: i for i, q in enumerate(pts)}
    A = ActionGroupoid(
        G, pts, lambda g, i: index[(D.act(rho(g), pts[i][0]), pts[i][1])],
        name=f"S//{G.name}")
    return FnFunctor(A, D, lambda i: pts[i][0],
                     lambda m: (rho(m[0]), pts[m[1]][0]), name="leg")


@st.composite
def cospans(draw):
    K, subgroups, homs = TARGETS[draw(st.sampled_from(sorted(TARGETS)))]
    D = _target(K, draw(st.lists(st.sampled_from(subgroups), min_size=1,
                                 max_size=3)))
    legs = []
    for _ in range(2):
        G, rho = draw(st.sampled_from(homs))
        labels = draw(st.integers(1, 2))
        picks = draw(st.lists(st.tuples(st.integers(0, D.n_objects - 1),
                                        st.integers(0, labels - 1)),
                              max_size=4))
        legs.append(_leg(D, G, rho, picks, labels))
    return legs


@settings(max_examples=100, deadline=None)
@given(cospans())
def test_fiber_product_cardinality_matches_closed_form(legs):
    f, g = legs
    fp = two_fiber_product(f, g)
    # groupoid cardinality of the homotopy pullback:
    # |A x_D B| = sum over c in pi0 D of |Aut c| |A_c| |B_c|
    D = f.tgt
    over = []
    for leg in legs:
        card = defaultdict(Fraction)
        for c in leg.src.components():
            card[D.component_of(leg.on_obj(c.rep))] += Fraction(
                1, c.aut_order)
        over.append(card)
    want = sum((c.aut_order * over[0][c.index] * over[1][c.index]
                for c in D.components()), Fraction(0))
    assert cardinality(fp) == want


# -- random squares of coset levels: the table rule against that oracle ------

D8 = dihedral_group(4)


def _subgroups(G):
    """Every subgroup of G (each of C4, S3 and D8 is generated by two
    elements), as element lists, in a fixed order."""
    found = {frozenset(G.subgroup_closure([a, b]))
             for a in G.elements for b in G.elements}
    return sorted((sorted(h, key=G.index.__getitem__) for h in found),
                  key=lambda h: (len(h), [G.index[x] for x in h]))


SQUARE_GROUPS = {G.name: (G, _subgroups(G))
                 for G in (C4, S3, D8)}


def _coset_map(G, small, big):
    """G/K -> G/L, xK -> xL, for K <= L, as a list over the cosets."""
    out = [None] * small.count
    for k in range(G.order):
        out[small.coset_of[k]] = big.coset_of[k]
    return out


def _coordinate_map(src, tgt, parts):
    """The G-map src -> tgt that sends a tuple x to the tuple of
    parts[j][0] applied to coordinate parts[j][1] of x."""
    return GMap(src, tgt, [tgt.obj_index(tuple(m[x[k]] for m, k in parts))
                           for x in src.objects])


@st.composite
def coset_squares(draw):
    """(fa, fb, f, g): the 2-Segal square of (G/K1 x G/K2 x G/K3) // G over
    G/M, with the middle coordinate coarsened to G/L in A = G/K1 x G/L and
    to G/L' in B = G/L' x G/K3 (K2 <= L, L' <= M); the apex is the level
    or its pinned block, acted on by the stabiliser of coset 0
    (`pinned_level`), and maybe mutated: a stable subset, two copies,
    trivial groups, or one entry of fa's table moved."""
    G, subs = SQUARE_GROUPS[draw(st.sampled_from(sorted(SQUARE_GROUPS)))]
    pick = st.sampled_from(subs)
    k1, k2, k3 = draw(pick), draw(pick), draw(pick)
    over = [h for h in subs if set(k2) <= set(h)]
    l_a, l_b = draw(st.sampled_from(over)), draw(st.sampled_from(over))
    m = draw(st.sampled_from([h for h in over
                              if set(l_a) | set(l_b) <= set(h)]))
    if (G.order ** 4 * len(m) // len(k1) // len(l_a) // len(l_b)
            // len(k3)) > 3000:
        k1 = k3 = G.elements            # keep the fiber product small
    c1, c2, c3, ca, cb, cm = (Cosets(G, G.subgroup(h, check=False))
                              for h in (k1, k2, k3, l_a, l_b, m))
    apex = CosetLevel(G, [c1, c2, c3], "X")
    if draw(st.booleans()):
        apex = pinned_level(apex)
    a = CosetLevel(G, [c1, ca], "A")
    b = CosetLevel(G, [cb, c3], "B")
    d = CosetLevel(G, [cm], "D")
    one = list(range(G.order))
    fa = _coordinate_map(apex, a, [(one, 0), (_coset_map(G, c2, ca), 1)])
    fb = _coordinate_map(apex, b, [(_coset_map(G, c2, cb), 1), (one, 2)])
    f = _coordinate_map(a, d, [(_coset_map(G, ca, cm), 1)])
    g = _coordinate_map(b, d, [(_coset_map(G, cb, cm), 0)])
    n = apex.n_objects
    mutation = draw(st.sampled_from(
        ["none", "drop", "double", "discretize", "moved"]))
    points = {"drop": [(i, 0) for i in range(n)
                       if apex.component_of(i) == 0],
              "double": [(i, k) for k in (0, 1) for i in range(n)],
              "discretize": [(i, 0) for i in range(n)]}.get(mutation)
    if points is not None:
        apex = segal._MutatedLevel(apex, points, mutation,
                                   discrete=mutation == "discretize")
        fa, fb = (GMap(apex, leg.tgt, [leg.table[i] for i, _ in points])
                  for leg in (fa, fb))
    elif mutation == "moved":
        i = draw(st.integers(0, n - 1))
        moved = [u for u in range(a.n_objects)
                 if f.table[u] != f.table[fa.table[i]]]
        if moved:
            table = list(fa.table)
            table[i] = draw(st.sampled_from(moved))
            fa = GMap(apex, a, table)
    return fa, fb, f, g


@settings(max_examples=100, deadline=None)
@given(coset_squares())
def test_table_rule_matches_fiber_product_oracle(square):
    fa, fb, f, g = square
    # the budget counts the strict pullback's objects, the pairs (u, v)
    # with f u = g v
    assert _Square(fa, fb, f, g).size == sum(
        f.table[u] == g.table[v] for u in range(f.src.n_objects)
        for v in range(g.src.n_objects))
    args = (fa.src, fa, fb, f, g, 10 ** 6, "square")
    ok, witness = segal._comparison(*args)
    want_ok, want = materialised_comparison(*args)
    assert (ok, witness_key(witness)) == (want_ok, witness_key(want))
    if all(f.table[u] == g.table[v] for u, v in zip(fa.table, fb.table)):
        square = _Square(fa, fb, f, g)
        assert square.fibres() == walked_fibres(square)


def _translations(factors, objects, name):
    """The action of C_n0 x ... x C_nk, for `factors` (n0, ..., nk), on
    tuples: coordinate j <= k of a tuple is moved by coordinate j of the
    group, modulo n_j, and the rest are kept."""
    group = TupleGroup([cyclic_group(n) for n in factors], name)
    index = {o: i for i, o in enumerate(objects)}

    def act(h, i):
        o = objects[i]
        return index[tuple((y + k) % n for y, k, n in zip(o, h, factors))
                     + o[len(factors):]]

    return ActionGroupoid(group, objects, act, name=name), index


@st.composite
def tuple_squares(draw):
    """(fa, fb, f, g): C_n0 x ... x C_n4 acting on the blocks
    (x0, ..., x4, b), x_k in Z/n_k for k < 3 and in Z/m_k, m_k | n_k,
    for k = 3, 4, by translation; over A = Z/n0 x Z/n1 x labels and
    B = Z/n0 x Z/n2 x labels, projected to D = Z/n0.  Each block b is one
    orbit, with its own (m3, m4) and labels; N = C_n3 x C_n4 acts freely
    on it exactly when (m3, m4) = (n3, n4).  The apex's transversal is a
    drawn object of each block, and maybe more, in a drawn order."""
    ns = [draw(st.sampled_from(c)) for c in ((1, 2, 3), (1, 2), (1, 2),
                                             (1, 2, 4), (1, 2))]
    la, lb = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    blocks = draw(st.lists(st.tuples(
        st.sampled_from([m for m in (1, 2, 4) if ns[3] % m == 0]),
        st.sampled_from([m for m in (1, 2) if ns[4] % m == 0]),
        st.integers(0, la - 1), st.integers(0, lb - 1)),
        min_size=1, max_size=3))
    objects, transversal = [], []
    for b, (m3, m4, _, _) in enumerate(blocks):
        orbit = list(product(*map(range, ns[:3]), range(m3), range(m4),
                             [b]))
        transversal.append(len(objects) + draw(
            st.integers(0, len(orbit) - 1)))
        objects += orbit
    transversal += draw(st.lists(st.integers(0, len(objects) - 1),
                                 max_size=3))
    index = {o: i for i, o in enumerate(objects)}

    def act(h, i):
        *x, b = objects[i]
        mods = (*ns[:3], *blocks[b][:2])
        return index[(*((y + k) % m for y, k, m in zip(x, h, mods)), b)]

    apex = ActionGroupoid(TupleGroup([cyclic_group(n) for n in ns], "G"),
                          objects, act, name="X",
                          transversal=draw(st.permutations(transversal)))
    a, ia = _translations(ns[:2], list(product(range(ns[0]), range(ns[1]),
                                               range(la))), "A")
    b, ib = _translations(ns[:1] + ns[2:3], list(product(
        range(ns[0]), range(ns[2]), range(lb))), "B")
    d, id_ = _translations(ns[:1], [(x,) for x in range(ns[0])], "D")
    fa = GMap(apex, a, [ia[o[0], o[1], blocks[o[5]][2]] for o in objects],
              sel=(0, 1))
    fb = GMap(apex, b, [ib[o[0], o[2], blocks[o[5]][3]] for o in objects],
              sel=(0, 2))
    f = GMap(a, d, [id_[o[:1]] for o in a.objects], sel=(0,))
    g = GMap(b, d, [id_[o[:1]] for o in b.objects], sel=(0,))
    return fa, fb, f, g


@settings(max_examples=100, deadline=None)
@given(tuple_squares())
def test_the_fibre_count_matches_the_walk_on_tuple_groups(square):
    fa, fb, f, g = square
    validate_action(fa.src)
    for m in square:
        validate_functor(m)
    assert {fa.src.component_of(x) for x in fa.src.transversal} == set(
        range(len(fa.src.components())))
    p = _Square(fa, fb, f, g)
    assert p.fibres() == walked_fibres(p)
    args = (fa.src, fa, fb, f, g, 10 ** 6, "square")
    ok, witness = segal._comparison(*args)
    want_ok, want = materialised_comparison(*args)
    assert (ok, witness_key(witness)) == (want_ok, witness_key(want))


def pushforward_via_fibers(f, psi):
    """The fiber-product route: at each component of the target, the sum of
    psi/#Aut over the components of the 2-fiber over its representative."""
    src, tgt = f.src, f.tgt
    vals = {}
    for c in tgt.components():
        fiber = two_fiber_product(f, point_inclusion(tgt, c.rep))
        vals[c.index] = sum(
            (Fraction(psi[src.component_of(fiber.objects[fc.rep][0])],
                      fc.aut_order) for fc in fiber.components()),
            Fraction(0))
    return SpanFn(tgt, vals)


@settings(max_examples=40, deadline=None)
@given(cospans(), st.lists(st.integers(-3, 3), min_size=12, max_size=12))
def test_pushforward_matches_fiber_route(legs, weights):
    for f in legs:
        psi = SpanFn(f.src, dict(enumerate(
            weights[:len(f.src.components())])))
        assert pushforward_fn(f, psi) == pushforward_via_fibers(f, psi)


def test_pushforward_matches_fiber_route_on_hecke_spans():
    from hallalg.waldhausen.hecke import HeckeWaldhausen
    for n, k in ((3, 2), (4, 3)):
        G = symmetric_group(n)
        hw = HeckeWaldhausen(G, symmetric_subgroup(G, k), depth=2)
        d0, d1, d2 = (hw.faces[(2, i)] for i in range(3))
        for face in (d0, d1, d2):
            x1 = face.tgt
            for c in x1.components():
                psi = pullback_fn(face, SpanFn(x1, {c.index: 1}))
                for push in (d0, d1):
                    assert (pushforward_fn(push, psi)
                            == pushforward_via_fibers(push, psi))


def test_malformed_groupoids_are_value_errors():
    # explicit errors, not asserts that `python -O` would strip
    Z2, Z3 = cyclic_group(2), cyclic_group(3)
    with pytest.raises(ValueError, match="identity moves"):
        validate_action(ActionGroupoid(Z2, [0, 1], lambda g, i: 1 - i))

    def skew(g, i):              # 1 acting twice is not 2 acting once
        return i if g == 0 else (i + 1) % 3

    with pytest.raises(ValueError, match="incompatible"):
        validate_action(ActionGroupoid(Z3, [0, 1, 2], skew))
    with pytest.raises(ValueError, match="inverse"):
        validate_groupoid(ActionGroupoid(Z3, [0, 1, 2], skew))
    swap = ActionGroupoid(Z2, [0, 1], lambda g, i: i ^ g)
    with pytest.raises(ValueError, match="union of components"):
        FullSubgroupoid(swap, [0])
    both = DisjointUnion([swap, swap])
    with pytest.raises(ValueError, match="do not compose"):
        both.compose(both.identity(0), both.identity(2))


def test_records_keep_their_fields_equality_and_repr():
    from hallalg.groupoid import Component, EquivalenceVerdict
    from hallalg.schurweyl import SchurWeylReport
    from hallalg.waldhausen import (SegalVerdict, SimplicialVerdict,
                                    TruncatedSimplicialGroupoid)
    c = Component(0, 3, 2, 6)
    assert (c.index, c.rep, c.size, c.aut_order) == (0, 3, 2, 6)
    assert repr(c) == "Component(index=0, rep=3, size=2, aut_order=6)"
    assert len({c, Component(0, 3, 2, 6)}) == 1
    v = EquivalenceVerdict(False, {"kind": "missed_component"})
    assert repr(v) == ("EquivalenceVerdict(ok=False, "
                       "witness={'kind': 'missed_component'})")
    assert EquivalenceVerdict(True) == EquivalenceVerdict(True, {})
    assert v != EquivalenceVerdict(False) and not v
    # a fresh default per record, as a default_factory gives
    assert EquivalenceVerdict(True).witness is not EquivalenceVerdict(
        True).witness
    assert SegalVerdict(True) == SegalVerdict(True, [])
    assert SegalVerdict(True) != SimplicialVerdict(True)
    assert repr(SimplicialVerdict(False, ["d_0 d_1"])) == (
        "SimplicialVerdict(ok=False, violations=['d_0 d_1'])")
    x = TruncatedSimplicialGroupoid([], {}, {})
    assert repr(x) == ("TruncatedSimplicialGroupoid(levels=[], faces={}, "
                       "degeneracies={}, name='X')")
    assert x == TruncatedSimplicialGroupoid([], {}, {}, "X")
    rep = SchurWeylReport("klein", 1, 1)
    assert repr(rep) == (
        "SchurWeylReport(group='klein', n=1, d=1, rows=[], "
        "sum_of_squares=False, total_dimension=False, "
        "kernel_free_when_n_le_d=True, nonzero_count_matches=False)")
    with pytest.raises(TypeError):
        hash(v)
