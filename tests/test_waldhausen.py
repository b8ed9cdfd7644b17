import functools
import hashlib
import json
import re
import sys
import tracemalloc
from collections import defaultdict
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hallalg import BudgetExceededError, UsageError
from hallalg.cli import run as cli_run
from hallalg.groupoid import (ActionGroupoid, FnFunctor, GMap, Groupoid,
                              GroupHomFunctor, SpanFn, b_group, cardinality,
                              composite_difference, is_equivalence,
                              two_fiber_product)
from hallalg.groupoid import functors
from hallalg.groupoid.fiber import _Square, strict_pullback_equivalence
from hallalg.groups import (TupleGroup, cyclic_group, dihedral_group,
                            named_group, named_subgroup, symmetric_group,
                            symmetric_subgroup, trivial_group,
                            young_subgroup)
from hallalg.protoab import AbelianPGroups, F1FreeG, VectFq
from hallalg.waldhausen import (check_2segal_degree3, check_pointed,
                                check_simplicial_identities,
                                hecke_waldhausen, mutation_corpus,
                                s_construction)
from hallalg.waldhausen import hecke, segal
from hallalg.waldhausen.hecke import (Cosets, CosetLevel, DoubleCosets,
                                      HeckeAlgebra, HeckeModule,
                                      HeckeWaldhausen, degeneracy, face)
from hallalg.waldhausen.sconstruction import TriangleGroupoid, _layout
from hallalg.waldhausen.simplicial import (TruncatedSimplicialGroupoid,
                                           _identities)
from oracles.functors import (ComposedFunctor, compose_functors,
                              composed_difference, composite_run,
                              composed_identity_violations,
                              full_composite_difference, full_level,
                              functors_equal)
from oracles.groupoid import (PairFunctor, ProductGroupoid, counted_fibres,
                              external_product, fiber_projections,
                              materialised_comparison, pull_push_span,
                              validate_action, validate_functor,
                              walked_fibres, witness_key)
from oracles.groups import shuffled_cayley
from oracles.hecke import pinned_level, run_table
from oracles.sconstruction import (FlagGroupoid, core_comparison_functor,
                                   flag_comparison_functor, token_triangle)


@pytest.fixture(scope="module")
def s_vect():
    return s_construction(VectFq(2, 2), depth=3)


@pytest.fixture(scope="module")
def s_f1():
    return s_construction(F1FreeG(trivial_group(), 2), depth=3)


@pytest.fixture(scope="module")
def s_f1c2():
    return s_construction(F1FreeG(cyclic_group(2), 2), depth=3)


@pytest.fixture(scope="module")
def hecke_s3():
    S3 = symmetric_group(3)
    return hecke_waldhausen(S3, symmetric_subgroup(S3, 2), depth=3)


def test_level_zero_is_trivial(s_vect):
    assert s_vect.levels[0].n_objects == 1
    assert cardinality(s_vect.levels[0]) == 1


def test_x1_equivalent_to_core(s_vect, s_f1):
    for x in (s_vect, s_f1):
        f = core_comparison_functor(x.levels[1])
        validate_functor(f)
        assert is_equivalence(f).ok


def test_flag_model_equivalent(s_vect):
    inst = s_vect.levels[1].inst
    for n in range(4):
        flags = FlagGroupoid(inst, n)
        f = flag_comparison_functor(s_vect.levels[n], flags)
        assert is_equivalence(f).ok


def test_f1_x2_component_count(s_f1):
    # pairs (i, j) with i + j <= 2
    assert len(s_f1.levels[2].components()) == 6


def test_simplicial_identities_hold(s_vect, s_f1, hecke_s3):
    for x in (s_vect, s_f1, hecke_s3):
        v = check_simplicial_identities(x)
        assert v.ok, v.violations


def test_simplicial_identities_catch_mutation(hecke_s3):
    # the corpus's constant d_1 of X_3, a G-map along the trivial group map
    bad = segal._with_constant(hecke_s3, "faces", (3, 1), "const")
    v = check_simplicial_identities(bad)
    assert not v.ok and v.violations
    assert v.violations == composed_identity_violations(bad).violations


def test_simplicial_identities_refuse_a_map_that_is_no_gmap(hecke_s3):
    from oracles.groupoid import constant_functor
    faces = dict(hecke_s3.faces)
    faces[(3, 1)] = constant_functor(hecke_s3.levels[3],
                                     hecke_s3.levels[2], 0)
    bad = TruncatedSimplicialGroupoid(list(hecke_s3.levels), faces,
                                      dict(hecke_s3.degeneracies), name="bad")
    with pytest.raises(ValueError, match="bad: the faces and degeneracies "
                                         "must be G-maps"):
        check_simplicial_identities(bad)
    assert not composed_identity_violations(bad).ok


def opaque(x):
    """x with every face and degeneracy hidden behind an FnFunctor, so that
    the oracle decides the identities on generating morphisms, not on
    tables."""
    def hide(f):
        return FnFunctor(f.src, f.tgt, [f.on_obj(i)
                                        for i in range(f.src.n_objects)],
                         f.on_mor, name=f.name)

    return TruncatedSimplicialGroupoid(
        list(x.levels), {k: hide(f) for k, f in x.faces.items()},
        {k: hide(f) for k, f in x.degeneracies.items()})


def with_map(x, kind, key, **change):
    """x with one face or degeneracy rebuilt as a GMap whose table, sel or
    fill is changed as given."""
    maps = {"face": dict(x.faces), "degeneracy": dict(x.degeneracies)}
    f = maps[kind][key]
    parts = {"table": f.table, "sel": f.sel, "fill": f.fill, **change}
    maps[kind][key] = GMap(f.src, f.tgt, name=f.name, **parts)
    return TruncatedSimplicialGroupoid(list(x.levels), maps["face"],
                                       maps["degeneracy"])


def swapped(seq):
    """seq with its first entry and the first entry that differs from it
    swapped, or None."""
    t = list(seq)
    j = next((j for j in range(len(t)) if t[j] != t[0]), None)
    if j is None:
        return None
    t[0], t[j] = t[j], t[0]
    return t


def with_swapped(x, kind, key):
    """x with two entries of one face or degeneracy table swapped, or
    None."""
    t = swapped((x.faces if kind == "face" else x.degeneracies)[key].table)
    return None if t is None else with_map(x, kind, key, table=t)


def _hw(n, k):
    S = symmetric_group(n)
    return hecke_waldhausen(S, symmetric_subgroup(S, k), depth=3)


TABLE_CASES = {
    "3-2": lambda: _hw(3, 2),
    "4-3": lambda: _hw(4, 3),
    "4-2": lambda: _hw(4, 2),
    "s-vect-f2-2": lambda: s_construction(VectFq(2, 2), depth=3),
    "s-f1-c2-2": lambda: s_construction(F1FreeG(cyclic_group(2), 2), depth=3),
    "s-f1-trivial-2": lambda: s_construction(F1FreeG(trivial_group(), 2),
                                             depth=3),
    "s-ab-p-2-4": lambda: s_construction(AbelianPGroups(2, 4), depth=3),
}


def not_reached(*args):
    raise AssertionError("G-maps are compared on their tables, keys and "
                         "group generators")


def guard_generic_walk(monkeypatch):
    """Make Groupoid.generating_morphisms and every binding of
    functors_equal in hallalg raise."""
    from hallalg.groupoid import functors
    monkeypatch.setattr(Groupoid, "generating_morphisms", not_reached)
    original = functors.functors_equal
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hallalg" and getattr(
                module, "functors_equal", None) is original:
            monkeypatch.setattr(module, "functors_equal", not_reached)


def table_cases(case):
    """TABLE_CASES[case] and its mutations: every table of HW(S3,S2) with
    two entries swapped, or one face table of an S level swapped and one
    selection swapped (equal tables, different group maps)."""
    x = TABLE_CASES[case]()
    cases = [x]
    if case == "3-2":
        cases += [m for kind, maps in (("face", x.faces),
                                       ("degeneracy", x.degeneracies))
                  for key in maps if (m := with_swapped(x, kind, key))]
    elif case.startswith("s-"):
        cases.append(with_swapped(x, "face", (3, 1)))
        cases.append(with_map(x, "face", (3, 1),
                              sel=swapped(x.face(3, 1).sel)))
    return cases


@pytest.mark.parametrize("case", list(TABLE_CASES))
def test_table_identities_match_generating_morphisms(case, monkeypatch):
    cases = table_cases(case)
    generic = [composed_identity_violations(opaque(c)).violations
               for c in cases]
    guard_generic_walk(monkeypatch)
    tables = [check_simplicial_identities(c).violations for c in cases]
    assert tables == generic
    assert tables[0] == [] and all(tables[1:])


def test_a_fill_against_a_trivial_coordinate_compares_equal():
    # at bound 0 every entry is the zero object, whose Aut group is trivial
    x = s_construction(F1FreeG(trivial_group(), 0), depth=3)
    s0 = x.degeneracy(1, 0)
    assert s0.sel == (None, 0, 0)
    y = with_map(x, "degeneracy", (1, 0), sel=(0, 0, 0))
    assert y.degeneracy(1, 0).sel == (0, 0, 0)
    assert functors_equal(y.degeneracy(1, 0), s0)
    assert composite_difference((y.degeneracy(1, 0),), (s0,)) is None
    assert check_simplicial_identities(y).violations == [] == \
        composed_identity_violations(opaque(y)).violations


def outcome(f, *args):
    """f(*args), or the ValueError it raises as ("ValueError", message)."""
    try:
        return f(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


def comparison_cases():
    """(name, x) of every case on which the comparison in runs is held
    against the composed functors."""
    out = [(f"{case}#{k}", c) for case in TABLE_CASES
           for k, c in enumerate(table_cases(case))]
    x = s_construction(F1FreeG(trivial_group(), 0), depth=3)
    out.append(("fill-0", with_map(x, "degeneracy", (1, 0), sel=(0, 0, 0))))
    for x in (_hw(3, 2), s_construction(VectFq(2, 2), depth=3),
              s_construction(F1FreeG(cyclic_group(2), 2), depth=3)):
        out += [(f"{x.name}-{name}", m) for name, m, _ in mutation_corpus(x)]
    return out


def test_composite_difference_matches_the_composed_functors():
    found = set()
    for name, x in comparison_cases():
        # the verdict and labels of every identity, or the same ValueError
        assert outcome(lambda: check_simplicial_identities(x).violations) \
            == outcome(lambda: composed_identity_violations(x).violations), \
            name
        pairs = list(_identities(x)) + [
            (sq[0], (sq[4], sq[2]), (sq[5], sq[3]))
            for sq in decided_squares(x)]
        for label, lhs, rhs in pairs:
            got = outcome(composite_difference, lhs, rhs)
            assert got == outcome(composed_difference, lhs, rhs), (name,
                                                                   label)
            found.add("equal" if got is None else "ValueError"
                      if got[0] == "ValueError" else
                      "objects" if got[1] is None else "morphisms")
    assert found == {"equal", "objects", "morphisms", "ValueError"}


def comparison_pairs():
    """(case, label, lhs, rhs) of every identity and square composite pair
    of comparison_cases()."""
    return [(name, label, lhs, rhs) for name, x in comparison_cases()
            for label, lhs, rhs in [*_identities(x), *(
                (sq[0], (sq[4], sq[2]), (sq[5], sq[3]))
                for sq in decided_squares(x))]]


@pytest.mark.parametrize("window", [7, 1000])
def test_composite_difference_does_not_depend_on_the_window(window,
                                                            monkeypatch):
    # windows of 7 and 1000 source objects cut the plans' runs and blocks
    # at other places than the default's
    pairs = comparison_pairs()
    want = [outcome(composite_difference, lhs, rhs)
            for _, _, lhs, rhs in pairs]
    monkeypatch.setattr(functors, "RUN", window)
    for (name, label, lhs, rhs), expected in zip(pairs, want):
        assert outcome(composite_difference, lhs, rhs) == expected, (
            name, label)
    assert {"equal" if w is None else "ValueError" if w[0] == "ValueError"
            else "objects" if w[1] is None else "morphisms"
            for w in want} == {"equal", "objects", "morphisms", "ValueError"}


def test_pulled_composites_match_the_per_entry_composition():
    for x in (_hw(3, 2), _hw(4, 2)):
        for label, *sides in _identities(x):
            for maps in sides:
                if len(maps) < 2:
                    continue
                values, inner = functors._composite(maps)
                n = inner.src.n_objects
                for lo, hi in ((0, n), (1, n - 1), (n // 3, 2 * n // 3 + 5)):
                    assert inner.pull(values, lo, hi) == composite_run(
                        maps, lo, hi), (x.name, label)


def test_segal_check_compares_each_composite_pair_once(monkeypatch):
    # the squares' well-definedness composites are the identities
    # d_1 d_3 = d_2 d_1 and d_0 d_2 = d_1 d_0 at level 3, d_2 s_0 = s_0 d_1
    # and d_0 s_1 = s_0 d_0 at level 1: 33 identities, 4 of them shared
    import hallalg.waldhausen.simplicial as simplicial
    pairs = []

    def counted(module):
        compare = module.composite_difference

        def count(a, b):
            pairs.append((a, b))
            return compare(a, b)
        monkeypatch.setattr(module, "composite_difference", count)

    counted(segal)
    counted(simplicial)
    assert cli_run(["segal-check", "--construction", "hecke", "--G",
                    "sym:4", "--H", "sym:2"]) == 0
    assert len(pairs) == len(set(pairs)) == 33
    # run alone, as the corpus runs it, the degree-3 check still compares
    # both squares and names the undefined comparison
    for name, m, _ in mutation_corpus(_hw(4, 2)):
        if name in ("constant-d1", "constant-d3"):
            del pairs[:]
            verdict = check_2segal_degree3(m)
            assert len(pairs) == 2
            assert "comparison_undefined" in [w["kind"]
                                              for w in verdict.witnesses]


def test_shared_square_verdicts_give_the_identity_check_its_verdict():
    # the squares run first and share their verdicts, as in segal-check
    for name, x in comparison_cases():
        for check in (check_2segal_degree3, check_pointed):
            try:
                check(x)
            except (ValueError, BudgetExceededError):
                pass
        assert outcome(lambda: check_simplicial_identities(x).violations) \
            == outcome(lambda: composed_identity_violations(x).violations), \
            name


@functools.cache
def plan_maps():
    """Every face and degeneracy of HW(S3,S2), HW(S4,S2) and HW(S4,1), and
    the span faces of the Hecke-module levels of S4 over S2."""
    maps = []
    for G, H in (("sym:3", "sym:2"), ("sym:4", "sym:2"), ("sym:4", "trivial")):
        G = named_group(G)
        x = hecke_waldhausen(G, named_subgroup(G, H), depth=3)
        maps += [*x.faces.values(), *x.degeneracies.values()]
    S4 = symmetric_group(4)
    gh = Cosets(S4, symmetric_subgroup(S4, 2))
    x1 = CosetLevel(S4, [gh, gh], "X1")
    for P in ("sym:2", "young:2+2", "trivial"):
        gp = Cosets(S4, named_subgroup(S4, P))
        y0 = CosetLevel(S4, [gp, gh], "Y0")
        y1 = CosetLevel(S4, [gp, gh, gh], "Y1")
        maps += [face(y1, x1, 0), face(y1, y0, 2), face(y1, y0, 1)]
    return maps


@st.composite
def pulls(draw):
    """A map with a plan, an injective value list on its target, and a
    window of its source, often starting or ending at the edge of a run."""
    m = draw(st.sampled_from(plan_maps()))
    n, (S, _, _) = m.src.n_objects, m.plan
    near_edge = st.builds(lambda k, d: min(max(k * S + d, 0), n),
                          st.integers(0, n // S), st.integers(-2, 2))
    ends = sorted(draw(st.one_of(st.integers(0, n), near_edge))
                  for _ in range(2))
    a = draw(st.integers(1, 10 ** 6))
    b = draw(st.integers(0, 10 ** 6))
    # a prime above every level's size: t -> (a t + b) mod p is injective
    values = [(a * t + b) % 1_000_003 for t in range(m.tgt.n_objects)]
    return m, values, ends


@settings(max_examples=300, deadline=None)
@given(pulls())
def test_pull_is_the_gather_along_every_plan(case):
    m, values, (lo, hi) = case
    assert m.plan is not None
    assert m.pull(values, lo, hi) == [values[t] for t in m.table[lo:hi]]


def test_plan_ranks_match_the_generic_count():
    S4 = symmetric_group(4)
    for x in (_hw(3, 2), _hw(4, 2), _hw(4, 3),
              hecke_waldhausen(S4, named_subgroup(S4, "trivial"), depth=3)):
        for name, _, fa, fb, f, g in decided_squares(x):
            # the same legs without their plans take the counting pass
            assert f.plan is not None and g.plan is not None
            bare = [GMap(leg.src, leg.tgt, leg.table, sel=leg.sel,
                         fill=leg.fill) for leg in (f, g)]
            planned, generic = [(p.size, p.base, p.ng, p.rg) for p in (
                _Square(fa, fb, f, g), _Square(fa, fb, *bare))]
            assert planned == generic, (x.name, name)


def test_the_mutation_corpora_never_reach_the_generic_functor_walk(
        monkeypatch):
    xs = [_hw(3, 2), s_construction(VectFq(2, 2), depth=3),
          s_construction(F1FreeG(cyclic_group(2), 2), depth=3)]

    def verdicts():
        return [(x.name, name, (check_2segal_degree3 if kind == "segal"
                                else check_pointed)(m).to_json())
                for x in xs for name, m, kind in mutation_corpus(x)]

    monkeypatch.setattr(segal, "composite_difference", composed_difference)
    composed = verdicts()
    monkeypatch.undo()
    guard_generic_walk(monkeypatch)
    assert verdicts() == composed
    assert all(not v["pass"] and v["witnesses"] for _, _, v in composed)


@pytest.mark.parametrize("check", [check_2segal_degree3,
                                   check_simplicial_identities])
def test_the_checks_build_no_composite_table(check):
    # HW(S4,1): X_3 has 331,776 objects; a composite table is one X_3 table
    S4 = symmetric_group(4)
    x = hecke_waldhausen(S4, named_subgroup(S4, "trivial"), depth=3)
    table = sys.getsizeof(x.face(3, 0).table)
    tracemalloc.start()
    try:
        assert check(x).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * table, peak / table


def test_composed_gmaps_match_the_composed_functor(s_vect):
    maps = [*s_vect.faces.values(), *s_vect.degeneracies.values()]
    for outer in maps:
        for inner in maps:
            if inner.tgt is not outer.src:
                continue
            fast = compose_functors(outer, inner)
            slow = ComposedFunctor(outer, inner)
            assert isinstance(fast, GMap)
            src = inner.src
            assert fast.table == [slow.on_obj(i)
                                  for i in range(src.n_objects)]
            for m in src.generating_morphisms():
                assert fast.on_mor(m) == slow.on_mor(m), fast.name
    # two fills that differ are left to ComposedFunctor
    s0 = s_vect.degeneracy(1, 0)
    other = GMap(s0.src, s0.tgt, s0.table, sel=s0.sel, fill="other")
    assert isinstance(compose_functors(s_vect.degeneracy(2, 0), other),
                      ComposedFunctor)


def test_trivial_group_maps_compose_as_the_composed_functor(s_vect,
                                                           hecke_s3):
    # the corpus's constant s_0 sends every morphism to an identity (the
    # trivial group map); composed with faces and degeneracies on either
    # side, its composite is a trivial G-map that is the composed functor
    for x in (s_vect, hecke_s3):
        const = {name: m for name, m, _ in mutation_corpus(x)}[
            "constant-s0"].degeneracy(1, 0)
        validate_functor(const)
        pairs = [(const, x.face(2, k)) for k in range(3)]
        pairs += [(x.face(2, k), const) for k in range(3)]
        pairs.append((x.degeneracy(2, 0), const))
        for outer, inner in pairs:
            fast = compose_functors(outer, inner)
            slow = ComposedFunctor(outer, inner)
            assert isinstance(fast, GMap) and fast.sel is None
            src = inner.src
            assert fast.table == [slow.on_obj(i)
                                  for i in range(src.n_objects)]
            for m in src.generating_morphisms():
                assert fast.on_mor(m) == slow.on_mor(m), fast.name


def test_swapped_face_table_fails_the_identities(hecke_s3):
    v = check_simplicial_identities(with_swapped(hecke_s3, "face", (3, 1)))
    assert not v.ok
    assert any(re.fullmatch(r"d_\d d_\d != d_\d d_\d at level 3", label)
               for label in v.violations), v.violations


def test_hecke_level_shapes():
    S3 = symmetric_group(3)
    S2 = symmetric_subgroup(S3, 2)
    x = hecke_waldhausen(S3, S2, depth=2)
    assert [g.n_objects for g in x.levels] == [3, 9, 27]   # [G:H]^(n+1)
    assert len(x.levels[1].components()) == 2     # H\G/H
    # (G, G): every level is one object with Aut of order |G|
    xgg = hecke_waldhausen(S3, S3, depth=2)
    for lvl in xgg.levels:
        comps = lvl.components()
        assert lvl.n_objects == 1
        assert len(comps) == 1 and comps[0].aut_order == 6
    # (G, 1): level 1 is G x G // G, equivalent to the discrete G
    triv = S3.subgroup([S3.identity], name="trivial")
    x1 = hecke_waldhausen(S3, triv, depth=2)
    assert x1.levels[1].n_objects == 36
    assert all(c.aut_order == 1 for c in x1.levels[1].components())
    assert len(x1.levels[1].components()) == 6


def test_segal_and_pointed_pass(s_vect, s_f1, hecke_s3):
    for x in (hecke_s3, s_vect, s_f1):
        assert check_2segal_degree3(x).ok
        assert check_pointed(x).ok


def test_mutation_corpus_fails_with_witness(hecke_s3, s_f1, s_vect):
    # S(Vect F_2) has nontrivial automorphisms, unlike S(F1[trivial])
    for x in (hecke_s3, s_f1, s_vect):
        entries = mutation_corpus(x)
        assert len(entries) >= 5
        for name, mutated, kind in entries:
            verdict = (check_2segal_degree3(mutated) if kind == "segal"
                       else check_pointed(mutated))
            assert not verdict.ok, (x.name, name)
            assert verdict.witnesses, (x.name, name)
            assert {w["kind"] for w in verdict.witnesses} <= {
                "missed_component", "hom_not_bijective",
                "comparison_undefined"}, (x.name, name)


def test_the_mutation_corpus_lists_no_level_group():
    # the discretised level's trivial subgroups are built on the identity
    # alone, so the tuple groups of X_3 stay unlisted through its check
    x = s_construction(F1FreeG(cyclic_group(3), 2), depth=3)
    corpus = {name: m for name, m, _ in mutation_corpus(x)}
    assert not check_2segal_degree3(corpus["discretize"]).ok
    x3 = x.levels[3]
    groups = {id(g): g for g in map(x3.group_at, range(x3.n_objects))}
    assert len(groups) == 10
    assert not any("elements" in vars(g) for g in groups.values())


# sha256 of each corpus entry's name, kind, the objects of its X_3 and its
# check's verdict and witnesses, recorded while drop-component read the
# first component from pi0 of X_3
CORPUS_DIGESTS = {
    "hw-s3-s2": "7741c4a23df93e12a487e098ca61fd95d0f001f689ca3d374d27338b577d7711",
    "s-f1-c3-2":
        "c09498f17d38b14e1b33094ece8c1b9ed23acdb191d9d6cff9d5d630c3bf05ca",
}


@pytest.mark.parametrize("name", list(CORPUS_DIGESTS))
def test_the_mutation_corpus_reads_no_components_of_x3(name, monkeypatch):
    S3 = symmetric_group(3)
    x = (hecke_waldhausen(S3, symmetric_subgroup(S3, 2), depth=3)
         if name == "hw-s3-s2"
         else s_construction(F1FreeG(cyclic_group(3), 2), depth=3))
    x3 = x.levels[3]

    def refused():
        raise AssertionError("mutation_corpus listed the components of X_3")

    monkeypatch.setattr(x3, "components", refused)
    corpus = mutation_corpus(x)
    monkeypatch.undo()
    assert corpus[0][0] == "drop-component"
    assert corpus[0][1].levels[3].objects == [
        (obj, 0) for i, obj in enumerate(x3.objects)
        if x3.component_of(i) == 0]
    rows = []
    for entry, m, kind in corpus:
        v = (check_2segal_degree3 if kind == "segal" else check_pointed)(m)
        rows.append([entry, kind, [str(o) for o in m.levels[3].objects],
                     v.ok, repr(v.witnesses)])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == CORPUS_DIGESTS[name]


# -- the materialised fiber product, as the oracle for the table rule -------


def _with_face(x, k, face):
    faces = dict(x.faces)
    faces[(3, k)] = face
    return TruncatedSimplicialGroupoid(list(x.levels), faces,
                                       dict(x.degeneracies))


def moved_object(x):
    """d_1 of X_3 with one entry of its table moved, at an object that
    represents no component, so that the first comparison is undefined
    there and only there."""
    x3, x2, d1 = x.levels[3], x.levels[2], x.face(3, 1)
    d2 = x.face(2, 2)
    reps = {c.rep for c in x3.components()}
    i = max(set(range(x3.n_objects)) - reps)
    j = next(j for j in range(x2.n_objects)
             if d2.table[j] != d2.table[d1.table[i]])
    table = list(d1.table)
    table[i] = j
    return _with_face(x, 1, GMap(x3, x2, table, name="d_1'", sel=d1.sel,
                                 fill=d1.fill)), i


def test_table_comparisons_match_materialised_oracle(
        hecke_s3, s_f1, s_vect, s_f1c2, monkeypatch):
    cases, moved = [], {}
    for x in (hecke_s3, _hw(4, 3), s_vect, s_f1, s_f1c2):
        cases += [(x.name, None, x, "segal"), (x.name, None, x, "pointed")]
        cases += [(x.name, name, m, kind)
                  for name, m, kind in mutation_corpus(x)]
        mutated, moved[x.name] = moved_object(x)
        cases.append((x.name, "moved-object", mutated, "segal"))

    def verdicts():
        out = {}
        for name, mutation, x, kind in cases:
            v = (check_2segal_degree3 if kind == "segal"
                 else check_pointed)(x)
            out[name, mutation, kind] = [(sq, ok, witness_key(w))
                                         for sq, ok, w in v.squares]
        return out

    decided = verdicts()
    # every object of the apex is checked, not only the representatives
    v = check_2segal_degree3(moved_object(hecke_s3)[0])
    assert v.squares[0][2]["object"] == repr(
        hecke_s3.levels[3].objects[moved[hecke_s3.name]])
    monkeypatch.setattr(segal, "_comparison", materialised_comparison)
    assert decided == verdicts()
    for key in decided:
        oks = [ok for _, ok, _ in decided[key]]
        assert all(oks) if key[1] is None else not all(oks), key
        if key[1] in ("constant-d1", "moved-object"):
            assert decided[key][0][2] == "comparison_undefined", key


def test_a_square_of_other_functors_is_a_value_error(hecke_s3):
    from oracles.groupoid import constant_functor
    x3, x2 = hecke_s3.levels[3], hecke_s3.levels[2]
    bad = _with_face(hecke_s3, 3, constant_functor(x3, x2, 0))
    with pytest.raises(ValueError, match=r"triangulation \{012\},\{023\}: "
                                         r"the faces and degeneracies must "
                                         r"be G-maps"):
        check_2segal_degree3(bad)


# -- the iso-family search, as the oracle for the triangle actions -----------


def _maps(tri):
    """(source entry, target entry, map) for every map of the triangle."""
    return ([(p, (p[0], p[1] + 1), m) for p, m in sorted(tri.rmono.items())]
            + [(p, (p[0] + 1, p[1]), e) for p, e in sorted(tri.cepi.items())])


def check_against_iso_families(level):
    """hom(i, j) of the action, {phis : mor_tgt((phis, i)) == j}, must be
    the set of iso families x_i -> x_j found by brute force, for every pair
    of triangles with the same entries: every family (phi_p) in the full
    product of the entries' isos is tested against every commutation
    condition phi_q m = m' phi_p (m: A_p -> A_q of x_i, m' of x_j).  The
    pairs are matched by a join on the tuple of all the conditions' two
    sides, so no pair and no condition is skipped; one family is checked at
    a time, so nothing is stored."""
    inst, compose = level.inst, level.inst.compose
    pos = {p: k for k, p in enumerate(_layout(level.level)[0])}
    buckets = defaultdict(list)
    for i, tri in enumerate(level.objects):
        buckets[tuple(tri.entries.values())].append(i)
    for entries, members in buckets.items():
        # each family as the level numbers it, and as token isos
        numbered = list(product(*(range(len(inst.isos(c, c)))
                                  for c in entries)))
        families = list(product(*(inst.isos(c, c) for c in entries)))
        for i in members:
            out = [m[0] for m in level.out(i)]
            assert len(out) == len(numbered) and set(out) == set(numbered)
        maps = {i: [(pos[p], pos[q], m)
                    for p, q, m in _maps(token_triangle(level, i))]
                for i in members}
        for a, phis in zip(numbered, families):
            sources = defaultdict(list)     # x_j's side: m' phi_p
            for j in members:
                sources[tuple([compose(m, phis[p])
                               for p, q, m in maps[j]])].append(j)
            for i in members:               # x_i's side: phi_q m
                key = tuple([compose(phis[q], m) for p, q, m in maps[i]])
                assert sources.get(key) == [level.mor_tgt((a, i))], \
                    (level.name, level.objects[i], phis)


@pytest.mark.parametrize("name", ["s_vect", "s_f1c2"])
def test_triangle_homs_match_iso_family_oracle(name, request):
    for level in request.getfixturevalue(name).levels:
        check_against_iso_families(level)


def test_level_budgets_name_the_level():
    inst = VectFq(2, 2)
    # the closed count, before any completion is built
    with pytest.raises(BudgetExceededError,
                       match=r"S_3\(vect-fq\): 331 triangles over 71 first "
                             r"rows \(the closed count\), over the budget "
                             r"of 300"):
        TriangleGroupoid(inst, 3, budget=300)
    # the closed count is the one rule: 331 triangles fit in 1000, although
    # prod Aut over the entries (0,2,2,2,2,0) has order 6^4, never listed
    level = TriangleGroupoid(inst, 3, budget=1000)
    assert level.n_objects == level.closed_count == 331


def test_checks_refuse_a_short_truncation():
    # raised, not asserted: `python -O` must not skip them
    S3 = symmetric_group(3)
    S2 = symmetric_subgroup(S3, 2)
    with pytest.raises(ValueError, match="needs degree 3"):
        check_2segal_degree3(hecke_waldhausen(S3, S2, depth=2))
    with pytest.raises(ValueError, match="needs degree 2"):
        check_pointed(hecke_waldhausen(S3, S2, depth=1))


def test_s_construction_depth_is_a_usage_error():
    with pytest.raises(UsageError, match="depth 4"):
        s_construction(F1FreeG(trivial_group(), 1), depth=4)


def test_maps_through_zero_must_be_unique():
    class TwoZeroEpis(VectFq):
        def epis(self, x, y):
            maps = super().epis(x, y)
            return maps * 2 if y == 0 else maps

    class TwoZeroMonos(VectFq):
        def monos(self, x, y):
            maps = super().monos(x, y)
            return maps * 2 if x == 0 else maps

    for cls, what in ((TwoZeroEpis, r"epi \d ->> 0"),
                      (TwoZeroMonos, r"mono 0 >-> \d")):
        with pytest.raises(ValueError, match=f"exactly one {what}, found 2"):
            s_construction(cls(2, 1), depth=2)


# -- the flat model and the iterated 2-fiber product, as oracles --------------


class FlatHecke:
    """Level n as the flat model G^n // H^(n+1): an object is the tuple of
    connecting elements (phi_1..phi_n), and (h_0..h_n) acts by
    phi_i -> h_i phi_i h_(i-1)^-1.  Faces compose adjacent connectors and
    drop the matching h; degeneracies insert an identity connector and
    repeat an h."""

    def __init__(self, G, H, depth):
        self.G, self.H = G, H
        self.levels = [self._level(n) for n in range(depth + 1)]
        self.faces = {(n, k): self._face(n, k)
                      for n in range(1, depth + 1) for k in range(n + 1)}
        self.degeneracies = {(n, k): self._degeneracy(n, k)
                             for n in range(depth) for k in range(n + 1)}

    def _level(self, n):
        G = self.G
        objs = list(product(G.elements, repeat=n))
        index = {f: i for i, f in enumerate(objs)}

        def act(hs, i):
            return index[tuple(G.op(G.op(b, phi), G.inv(a))
                               for a, phi, b in zip(hs, objs[i], hs[1:]))]

        return ActionGroupoid(TupleGroup([self.H] * (n + 1), f"H^{n + 1}"),
                              objs, act, name=f"flat{n}")

    def _face(self, n, k):
        src, tgt, G = self.levels[n], self.levels[n - 1], self.G

        def obj(f):
            if k in (0, n):
                return f[1:] if k == 0 else f[:-1]
            return f[:k - 1] + (G.op(f[k], f[k - 1]),) + f[k + 1:]

        obj_map = [tgt.obj_index(obj(f)) for f in src.objects]
        return FnFunctor(src, tgt, obj_map,
                         lambda m: (m[0][:k] + m[0][k + 1:], obj_map[m[1]]),
                         name=f"d_{k}^{n}")

    def _degeneracy(self, n, k):
        src, tgt, e = self.levels[n], self.levels[n + 1], self.G.identity
        obj_map = [tgt.obj_index(f[:k] + (e,) + f[k:]) for f in src.objects]
        return FnFunctor(src, tgt, obj_map,
                         lambda m: (m[0][:k + 1] + m[0][k:], obj_map[m[1]]),
                         name=f"s_{k}^{n}")


class NestedHecke:
    """Level n as the paper builds it: X_0 = BH and
    X_n = X_{n-1} x_BG BH over the last factor.  An object of X_n is
    (a, 0, phi) with phi a base morphism of BG, a morphism (m, beta, src).
    Faces and degeneracies come from the universal property of the fiber
    product, without reference to the flat coordinates."""

    def __init__(self, G, H, depth):
        self.BG = b_group(G)
        self.incl = GroupHomFunctor(b_group(H), self.BG)
        self.levels = [self.incl.src]
        for n in range(1, depth + 1):
            self.levels.append(two_fiber_product(self._last(n - 1),
                                                 self.incl))
        self.faces, self.degeneracies = {}, {}
        for n in range(1, depth + 1):
            for k in range(n + 1):
                self.faces[(n, k)] = self._face(n, k)
            for k in range(n):
                self.degeneracies[(n - 1, k)] = self._degeneracy(n - 1, k)

    def _last(self, n):
        """X_n -> BG, the last factor."""
        if n == 0:
            return self.incl
        return FnFunctor(self.levels[n], self.BG, lambda i: 0,
                         lambda m: (m[1][0], 0), name=f"last_{n}")

    def _induced(self, n, inner, t, name):
        """inner x id_BH: X_n -> X_t, for inner: X_{n-1} -> X_{t-1} keeping
        the last factor."""
        src, tgt = self.levels[n], self.levels[t]
        obj_map = [tgt.obj_index((inner.on_obj(a), 0, tgt.base.index[
            src.base.tokens[phi]])) for a, _, phi in src.objects]
        return FnFunctor(src, tgt, obj_map,
                         lambda m: (inner.on_mor(m[0]), m[1], obj_map[m[2]]),
                         name=name)

    def _face(self, n, k):
        lvl = self.levels[n]
        if k == n:
            return fiber_projections(lvl)[0]
        if n == 1:
            return fiber_projections(lvl)[1]
        if k < n - 1:
            return self._induced(n, self.faces[(n - 1, k)], n - 1,
                                 f"d_{k}^{n}")
        # k = n - 1: compose the last two connectors
        tgt = inner = self.levels[n - 1]
        obj_map = []
        for a, _, phi in lvl.objects:
            a2, _, phi2 = inner.objects[a]
            g = lvl.base.tokens[phi][0]
            g2 = inner.base.tokens[phi2][0]
            merged = tgt.base.index[(self.BG.group.op(g, g2), 0)]
            obj_map.append(tgt.obj_index((a2, 0, merged)))
        return FnFunctor(lvl, tgt, obj_map,
                         lambda m: (m[0][0], m[1], obj_map[m[2]]),
                         name=f"d_{k}^{n}")

    def _degeneracy(self, n, k):
        lvl, tgt = self.levels[n], self.levels[n + 1]
        if k < n:
            return self._induced(n, self.degeneracies[(n - 1, k)], n + 1,
                                 f"s_{k}^{n}")
        # k = n: an identity connector after the last factor
        unit = tgt.base.index[(self.BG.group.identity, 0)]
        obj_map = [tgt.obj_index((a, 0, unit)) for a in range(lvl.n_objects)]
        return FnFunctor(lvl, tgt, obj_map,
                         lambda m: (m, m if n == 0 else m[1],
                                    obj_map[lvl.mor_src(m)]),
                         name=f"s_{k}^{n}")

    def comparison(self, n, flat):
        """The functor X_n -> flat level: objects to their connector tuples,
        morphisms to their tuples of H tokens."""
        lvl = self.levels[n]

        def connectors(n, i):
            if n == 0:
                return ()
            a, _, phi = self.levels[n].objects[i]
            return connectors(n - 1, a) + (self.levels[n].base.tokens[phi][0],)

        def hs(n, m):
            return (m[0],) if n == 0 else hs(n - 1, m[0]) + (m[1][0],)

        obj_map = [flat.obj_index(connectors(n, i))
                   for i in range(lvl.n_objects)]
        return FnFunctor(lvl, flat, obj_map,
                         lambda m: (hs(n, m), obj_map[lvl.mor_src(m)]),
                         name=f"cmp_{n}")


def _oracle_cases():
    S3, S4 = symmetric_group(3), symmetric_group(4)
    return [(S3, symmetric_subgroup(S3, 2), 3), (S3, S3, 3),
            (S3, S3.subgroup([S3.identity], name="trivial"), 3),
            (S4, symmetric_subgroup(S4, 2), 2)]


def test_flat_levels_match_fiber_product_oracle():
    for G, H, depth in _oracle_cases():
        model = FlatHecke(G, H, depth)
        oracle = NestedHecke(G, H, depth)
        cmp = []
        for n, flat in enumerate(model.levels):
            # the level's action really is one
            validate_action(flat)
            f = oracle.comparison(n, flat)
            validate_functor(f)
            assert is_equivalence(f).ok, (G.name, H.name, n)
            cmp.append(f)
        for (n, k), d in model.faces.items():
            assert functors_equal(compose_functors(d, cmp[n]),
                                  compose_functors(cmp[n - 1],
                                                   oracle.faces[(n, k)])), \
                (G.name, H.name, "face", n, k)
        for (n, k), s in model.degeneracies.items():
            assert functors_equal(compose_functors(s, cmp[n]),
                                  compose_functors(cmp[n + 1],
                                                   oracle.degeneracies[(n, k)])), \
                (G.name, H.name, "degeneracy", n, k)


def section_comparison(hw, flat, n):
    """The functor from coset level n to flat level n through the least
    element s(x) of each coset: (x_0..x_n) -> (s(x_i)^-1 s(x_(i-1)))_i, and
    g -> (s(g x_i)^-1 g s(x_i))_i, which lies in H^(n+1).  It commutes with
    faces and degeneracies on the nose."""
    G, cosets = hw.G, hw.cosets
    s = [G.elements[cosets.coset_of.index(x)] for x in range(cosets.count)]
    src, tgt = hw.levels[n], flat.levels[n]

    def connectors(xs):
        return tuple(G.op(G.inv(s[b]), s[a]) for a, b in zip(xs, xs[1:]))

    obj_map = [tgt.obj_index(connectors(xs)) for xs in src.objects]

    def mor_map(m):
        g, i = m
        return (tuple(G.op(G.op(G.inv(s[src.objects[src.mor_tgt(m)][t]]), g),
                           s[x]) for t, x in enumerate(src.objects[i])),
                obj_map[i])

    return FnFunctor(src, tgt, obj_map, mor_map, name=f"sec_{n}")


def test_coset_levels_match_flat_model():
    for G, H, depth in _oracle_cases():
        hw = HeckeWaldhausen(G, H, depth)
        flat = FlatHecke(G, H, depth)
        cmp = []
        for n, level in enumerate(hw.levels):
            # the level's action really is one
            validate_action(level)
            f = section_comparison(hw, flat, n)
            validate_functor(f)
            assert is_equivalence(f).ok, (G.name, H.name, n)
            cmp.append(f)
        for (n, k), d in hw.faces.items():
            validate_functor(d)
            assert functors_equal(compose_functors(flat.faces[(n, k)], cmp[n]),
                                  compose_functors(cmp[n - 1], d)), \
                (G.name, H.name, "face", n, k)
        for (n, k), s in hw.degeneracies.items():
            validate_functor(s)
            assert functors_equal(
                compose_functors(flat.degeneracies[(n, k)], cmp[n]),
                compose_functors(cmp[n + 1], s)), \
                (G.name, H.name, "degeneracy", n, k)


def _block_pi0_cases():
    S3, S4 = symmetric_group(3), symmetric_group(4)
    D8 = dihedral_group(4)
    C, idx = shuffled_cayley(S4, 5)
    CH = C.subgroup([idx[g] for g in young_subgroup(S4, [2, 2]).elements],
                    name="young:2+2")
    return [(S3, symmetric_subgroup(S3, 2)), (S4, symmetric_subgroup(S4, 2)),
            (S4, symmetric_subgroup(S4, 3)),
            (D8, D8.subgroup([D8.identity], name="trivial")),
            (S4, S4.subgroup([S4.identity], name="trivial")), (C, CH)]


def test_block_pi0_matches_the_bfs_over_the_level():
    for G, H in _block_pi0_cases():
        hw = HeckeWaldhausen(G, H, 3)
        for n, level in enumerate(hw.levels):
            oracle = CosetLevel(G, level.spaces, "oracle")
            bfs = Groupoid.components(oracle)
            assert level.components() == bfs, (G.name, H.name, n)
            comp_of = oracle._comp_of
            for i in range(level.n_objects):
                assert level.component_of(i) == comp_of[i], (
                    G.name, H.name, n, i)
    # the Cayley-table group lists its identity after elements[0]
    assert _block_pi0_cases()[-1][0].identity != 0


def test_pinned_block_pi0_matches_the_bfs():
    S4 = symmetric_group(4)
    C, idx = shuffled_cayley(S4, 7)
    H = C.subgroup([idx[g] for g in symmetric_subgroup(S4, 2).elements],
                   name="sym:2")
    P = C.subgroup([idx[g] for g in symmetric_subgroup(S4, 3).elements],
                   name="sym:3")
    gh, gp = Cosets(C, H), Cosets(C, P)
    for spaces in ([gh, gh], [gp, gh], [gp, gh, gh], [gh, gh, gh]):
        level = CosetLevel(C, spaces, "L")
        oracle = CosetLevel(C, spaces, "oracle")
        bfs = Groupoid.components(oracle)
        assert level.components() == bfs, len(spaces)
        for i in range(level.n_objects):
            assert level.component_of(i) == oracle._comp_of[i]
        # the pinned block has the level's components, each [G:K_0] times
        # smaller, in the same order
        assert [(c.rep, c.size * level.sizes[0], c.aut_order)
                for c in Groupoid.components(pinned_level(level))] == [
            (c.rep, c.size, c.aut_order) for c in bfs], len(spaces)


def test_index_tables_match_the_tuple_formulas():
    # faces delete a coordinate, degeneracies repeat one, and the action
    # moves every coordinate
    S4 = symmetric_group(4)
    C, idx = shuffled_cayley(S4, 3)
    H = C.subgroup([idx[g] for g in young_subgroup(S4, [2, 2]).elements],
                   name="young:2+2")
    P = C.subgroup([idx[g] for g in symmetric_subgroup(S4, 3).elements],
                   name="sym:3")
    gh, gp = Cosets(C, H), Cosets(C, P)
    for first in (gh, gp):
        for n in range(1, 4):
            spaces = [first] + [gh] * n
            src = CosetLevel(C, spaces, "L")
            for k in range(n + 1):
                low = CosetLevel(C, spaces[:k] + spaces[k + 1:], "low")
                assert face(src, low, k).table == [
                    low.obj_index(o[:k] + o[k + 1:])
                    for o in src.objects], (n, k)
                up = CosetLevel(C, spaces[:k + 1] + spaces[k:], "up")
                assert degeneracy(src, up, k).table == [
                    up.obj_index(o[:k + 1] + o[k:])
                    for o in src.objects], (n, k)
            for g in src.group.elements:
                k = C.index[g]
                assert [src.act(g, i) for i in range(src.n_objects)] == [
                    src.obj_index(tuple(s.mult[k][x] for s, x in
                                        zip(src.spaces, o)))
                    for o in src.objects]
    # axis sizes that do not fit are refused: [C:P] = 4, [C:H] = 6
    mixed = CosetLevel(C, [gp, gh], "mixed")
    with pytest.raises(ValueError):
        face(CosetLevel(C, [gh, gh, gh], "X2"), mixed, 1)
    with pytest.raises(ValueError):
        degeneracy(mixed, CosetLevel(C, [gh, gh, gh], "Y"), 0)


def _tuples(level):
    """The objects of a coset level, materialised as before the view: every
    tuple of coset indices in lexicographic order."""
    return list(product(*(range(s.count) for s in level.spaces)))


@pytest.mark.parametrize("n", [3, 4])
def test_coset_level_objects_are_the_materialised_tuples(n):
    S = symmetric_group(n)
    gh = Cosets(S, symmetric_subgroup(S, 2))
    gp = Cosets(S, young_subgroup(S, [n - 2, 2]) if n == 4
                else symmetric_subgroup(S, 1))
    for spaces in ([gh], [gh, gh], [gp, gh], [gp, gh, gh], [gh] * 4):
        level = CosetLevel(S, spaces, "L")
        tuples = _tuples(level)
        objects = level.objects
        assert list(objects) == tuples, len(spaces)
        assert len(objects) == level.n_objects == len(tuples)
        assert [objects[i] for i in range(len(tuples))] == tuples
        assert objects[-1] == tuples[-1]
        with pytest.raises(IndexError):
            objects[len(tuples)]
        assert [level.obj_index(objects[i])
                for i in range(len(tuples))] == list(range(len(tuples)))
        # no tuple outside the level has an index
        first = tuples[0]
        foreign = [first[:-1], first + (0,), list(first),
                   first[:-1] + (spaces[-1].count,), first[:-1] + (-1,)]
        for obj in foreign:
            with pytest.raises(KeyError):
                level.obj_index(obj)


def test_coset_level_action_matches_the_tuple_formula():
    # g moves every coordinate of the tuple; on HW(S3,S2) and on the Y
    # levels of every module of H(S3,S2)
    S3 = symmetric_group(3)
    H = symmetric_subgroup(S3, 2)
    hw = HeckeWaldhausen(S3, H, 3)
    levels = list(hw.levels)
    for spec in ("trivial", "sym:2", "alt:3", "all"):
        gp = Cosets(S3, named_subgroup(S3, spec))
        levels += [CosetLevel(S3, [gp, hw.cosets], "Y0"),
                   CosetLevel(S3, [gp, hw.cosets, hw.cosets], "Y1")]
    for level in levels:
        tuples = _tuples(level)
        index = {t: i for i, t in enumerate(tuples)}
        for g in level.group.elements:
            k = S3.index[g]
            assert [level.act(g, i) for i in range(len(tuples))] == [
                index[tuple(s.mult[k][x] for s, x in zip(level.spaces, t))]
                for t in tuples], (level.name, g)


def test_hecke_waldhausen_levels_hold_only_their_tables():
    # HW(S4,S2) held 3.5 MB when every level listed its tuples, and 0.94 MB
    # while the four faces of X_3 wrote their 20,736-entry tables; they
    # are plans now, which the checks read in windows, and the checks
    # peaked at 1.46 MB while they read those tables
    S4 = symmetric_group(4)
    H = symmetric_subgroup(S4, 2)
    tracemalloc.start()
    try:
        x = hecke_waldhausen(S4, H, 3)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert check_2segal_degree3(x).ok and check_pointed(x).ok
        assert check_simplicial_identities(x).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held <= 0.3e6, held
    assert peak <= 0.75e6, peak
    assert "indices" not in vars(x.levels[3])


def test_faces_match_the_table_of_one_run_per_prefix_and_value():
    # a face writes the run over each prefix once per deleted value; the
    # generic table writes one run per (prefix, value) pair
    S4 = symmetric_group(4)
    gh = Cosets(S4, symmetric_subgroup(S4, 2))
    gp = Cosets(S4, young_subgroup(S4, [2, 2]))
    for first in (gh, gp):
        for n in range(1, 4):
            spaces = [first] + [gh] * n
            src = CosetLevel(S4, spaces, "L")
            for k in range(n + 1):
                sizes = src.sizes[:k] + src.sizes[k + 1:]
                low = CosetLevel(S4, spaces[:k] + spaces[k + 1:], "low")
                assert face(src, low, k).table == run_table(
                    src, low, sizes, k, lambda a, x: a), (n, k)


def test_degeneracies_match_the_table_of_one_run_per_prefix_and_value():
    S4 = symmetric_group(4)
    gh = Cosets(S4, symmetric_subgroup(S4, 2))
    for n in range(3):
        src = CosetLevel(S4, [gh] * (n + 1), "L")
        up = CosetLevel(S4, [gh] * (n + 2), "up")
        for k in range(n + 1):
            m = degeneracy(src, up, k)
            sizes = src.sizes[:k + 1] + src.sizes[k:]
            assert m.table == run_table(
                src, up, sizes, k, lambda a, x: (a * 12 + x) * 12 + x), (n, k)
            S, starts, repeat = m.plan
            assert repeat == 1 and (S > 1 or starts is m.table)


def test_an_unwritten_degeneracy_table_is_pulled_along_its_plan():
    # a degeneracy with runs of more than one object (k < n) writes no
    # table: pulled, on the target's range of indices or on a list of
    # values, it gives the table's entries and its table stays unwritten
    S4 = symmetric_group(4)
    gh = Cosets(S4, symmetric_subgroup(S4, 2))
    for n in range(1, 3):
        src = CosetLevel(S4, [gh] * (n + 1), "L")
        up = CosetLevel(S4, [gh] * (n + 2), "up")
        values = [3 * t + 1 for t in range(up.n_objects)]
        N = src.n_objects
        for k in range(n):
            m = degeneracy(src, up, k)
            want = run_table(src, up, src.sizes[:k + 1] + src.sizes[k:], k,
                             lambda a, x: (a * 12 + x) * 12 + x)
            for lo, hi in ((0, N), (5, N - 7), (13, 14), (24, 36), (N, N)):
                assert m.pull(range(up.n_objects), lo, hi) == want[lo:hi]
                assert m.pull(values, lo, hi) == [values[t]
                                                  for t in want[lo:hi]]
            assert "table" not in vars(m), (n, k)


def test_segal_check_writes_no_degeneracy_table_into_x3():
    # s_0 and s_1 at level 2 are read only by the squares and the
    # identities, which pull them along their plans, the outermost map of
    # a composite included; the faces of X_3 are read in windows by the
    # squares and the identities, and through the plans of their
    # composites with the degeneracies into X_3 (s_2 at level 2 writes
    # each run of one object once, and its table is its list of starts)
    for x in (_hw(3, 2), _hw(4, 2)):
        assert check_2segal_degree3(x).ok and check_pointed(x).ok
        assert check_simplicial_identities(x).ok
        for k in range(4):
            assert "table" not in vars(x.face(3, k)), (x.name, k)
        for k in (0, 1):
            assert "table" not in vars(x.degeneracy(2, k)), (x.name, k)


def test_no_command_writes_a_table_out_of_the_top_level(capsys,
                                                         monkeypatch):
    # every map that segal-check and hecke-table build out of their
    # largest level (X_3, and the span's apex Y_1), and every face of X_3
    # that the mutation corpus restricts, is read off its plan
    built = []

    def recording(*args):
        built.append(planned(*args))
        return built[-1]

    planned = hecke._planned
    monkeypatch.setattr(hecke, "_planned", recording)
    for argv in ("segal-check --construction hecke --G sym:4 --H sym:2",
                 "hecke-table --G sym:4 --H sym:2"):
        built.clear()
        assert cli_run(argv.split()) == 0
        top = max(m.src.n_objects for m in built)
        out = [m for m in built if m.src.n_objects == top]
        assert out and all("table" not in vars(m) for m in out), argv
    capsys.readouterr()
    x = _hw(4, 2)
    for name, m, kind in mutation_corpus(x):
        assert not (check_2segal_degree3 if kind == "segal"
                    else check_pointed)(m).ok, name
    for k in range(4):
        assert "table" not in vars(x.face(3, k)), k


def plan_oracle(m, kind, k):
    """The table of the face or degeneracy m, kind "face" or
    "degeneracy", at coordinate k, by the oracle's strided runs."""
    src, tgt = m.src, m.tgt
    if kind == "face":
        return run_table(src, tgt, src.sizes[:k] + src.sizes[k + 1:], k,
                         lambda a, x: a)
    n = src.sizes[k]
    return run_table(src, tgt, src.sizes[:k + 1] + src.sizes[k:], k,
                     lambda a, x: (a * n + x) * n + x)


def test_on_obj_reads_every_face_and_degeneracy_off_its_plan():
    # entry by entry, as the oracle writes the table, and leaving a table
    # not written unwritten
    S4 = symmetric_group(4)
    gp = Cosets(S4, young_subgroup(S4, [2, 2]))
    maps = [(kind, k, m) for x in (_hw(3, 2), _hw(4, 2))
            for kind, table in (("face", x.faces),
                                ("degeneracy", x.degeneracies))
            for (_, k), m in table.items()]
    # the levels (G/P)^(n+1) // G of HW(S4, young:2+2)
    levels = [CosetLevel(S4, [gp] * (n + 1), f"P{n}") for n in range(4)]
    for n in range(1, 4):
        for k in range(n + 1):
            maps.append(("face", k, face(levels[n], levels[n - 1], k)))
            if n < 3:
                maps.append(("degeneracy", k,
                             degeneracy(levels[n], levels[n + 1], k)))
    for kind, k, m in maps:
        written = "table" in vars(m)
        assert [m.on_obj(i) for i in range(m.src.n_objects)] == plan_oracle(
            m, kind, k), (m.name, m.src.name)
        assert ("table" in vars(m)) == written, m.name
        assert written == (m.plan[0] == m.plan[2] == 1), m.name


def fibre_verdicts(xs):
    """For every square that the checks of each x and of each entry of
    its mutation corpus decide: its name, whether the fibre count passes
    where the square commutes, and the check's JSON."""
    out = []
    for x in xs:
        entries = [(x.name, x, kind) for kind in ("segal", "pointed")]
        entries += [(f"{x.name}-{name}", m, kind)
                    for name, m, kind in mutation_corpus(x)]
        for name, m, kind in entries:
            for square, _, fa, fb, f, g in decided_squares(m):
                if composite_difference((f, fa), (g, fb)) is None:
                    out.append((name, square,
                                _Square(fa, fb, f, g).fibres()))
            out.append((name, (check_2segal_degree3 if kind == "segal"
                               else check_pointed)(m).to_json()))
    return out


def test_fibre_verdicts_do_not_depend_on_the_window(monkeypatch):
    # fiber.py reads RUN when it counts, so that the patch reaches it
    xs = [_hw(3, 2), _hw(4, 2), s_construction(VectFq(2, 2), depth=3),
          s_construction(F1FreeG(cyclic_group(2), 2), depth=3)]
    verdicts = fibre_verdicts(xs)
    assert any(v is False for *_, v in verdicts)
    for run in (7, 1000):
        monkeypatch.setattr(functors, "RUN", run)
        assert fibre_verdicts(xs) == verdicts, run
    # the count pulls each leg in windows of at most RUN apex objects, on
    # the coset-0 block of X_3 alone: fa once to see that it keeps the
    # block, then fa and fb for the points they hit, and f once on the
    # block of X_2 to number the points over it
    windows, pull = [], GMap.pull
    monkeypatch.setattr(GMap, "pull", lambda m, values, lo, hi: (
        windows.append(hi - lo) or pull(m, values, lo, hi)))
    x = xs[1]
    square = _Square(x.face(3, 3), x.face(3, 1), x.face(2, 1), x.face(2, 2))
    windows.clear()
    assert square.fibres()
    x3, x2 = x.levels[3], x.levels[2]
    assert x3.block * 12 == x3.n_objects and x2.block * 12 == x2.n_objects
    assert max(windows) == 1000
    assert sum(windows) == 3 * x3.block + x2.block


# the pairs (G, H) of the block-route property: symmetric groups with
# young, trivial and whole subgroups, cyclic, dihedral and Klein groups
# with trivial and whole ones, and Z/6 over its subgroup of order 3
BLOCK_PAIRS = [(G, H) for G, subgroups in (
    ("sym:3", ("young:2+1", "trivial", "all")),
    ("sym:4", ("young:3+1", "young:2+2", "young:2+1+1", "trivial", "all")),
    ("cyclic:4", ("trivial", "all")),
    ("cyclic:6", ("trivial", "indices:0,2,4", "all")),
    ("dihedral:3", ("trivial", "all")), ("dihedral:4", ("trivial", "all")),
    ("klein", ("trivial", "all"))) for H in subgroups]


def segal_check_json(x):
    """The JSON of segal-check's three checks on x, in its order."""
    seg, poi = check_2segal_degree3(x), check_pointed(x)
    return (seg.to_json(), poi.to_json(),
            check_simplicial_identities(x).to_json())


@st.composite
def block_cases(draw):
    """HW(G,H) at depth 3, or with one face or degeneracy replaced by
    another of the same level, say d_1 of X_3 by d_2: still a G-map with
    a block, for which the checks fail."""
    G, H = draw(st.sampled_from(BLOCK_PAIRS))
    G = named_group(G)
    x = hecke_waldhausen(G, named_subgroup(G, H), depth=3)
    maps = {"faces": dict(x.faces), "degeneracies": dict(x.degeneracies)}
    swaps = [(kind, key, other) for kind, table in maps.items()
             for key in table for other in table
             if other[0] == key[0] and other != key]
    swap = draw(st.one_of(st.none(), st.sampled_from(swaps)))
    if swap is None:
        return x
    kind, key, other = swap
    maps[kind][key] = maps[kind][other]
    return TruncatedSimplicialGroupoid(list(x.levels), maps["faces"],
                                       maps["degeneracies"], name=x.name)


@settings(max_examples=40, deadline=None)
@given(block_cases())
def test_the_block_route_gives_the_full_level_verdicts(x):
    # segal-check's verdicts and witnesses, each square's fibre count and
    # each composite pair, on the coset-0 block and on every object
    assert all(m.block is not None
               for m in (*x.faces.values(), *x.degeneracies.values()))
    assert segal_check_json(x) == segal_check_json(full_level(x))
    for label, lhs, rhs in _identities(x):
        assert composite_difference(lhs, rhs) == full_composite_difference(
            lhs, rhs), label
    for name, _, fa, fb, f, g in decided_squares(x):
        if composite_difference((f, fa), (g, fb)) is None:
            square = _Square(fa, fb, f, g)
            assert square.fibres() == counted_fibres(square), name
    # the squares (d_k, d_k, d_1, d_1) commute, and their P has as many
    # objects as X_3, but two objects with one image under d_k meet one
    # point: d_1..d_3 keep the first coset and fail on the block, d_0
    # takes the full path
    for k in range(4):
        square = _Square(x.face(3, k), x.face(3, k), x.face(2, 1),
                         x.face(2, 1))
        assert square.fibres() == counted_fibres(square), k


def test_a_map_given_by_its_table_is_read_off_the_block():
    # d_1 of X_3 given by its table, one entry moved at an object off the
    # coset-0 block: no longer equivariant, it has no block, and every
    # check reads it on each object and names the object.  The same table
    # given a block would be trusted on the block, and its defect missed.
    x = _hw(3, 2)
    x3, x2, d1, d2 = x.levels[3], x.levels[2], x.face(3, 1), x.face(2, 2)
    i = x3.n_objects - 1
    assert i >= x3.block == x3.n_objects // 3
    j = next(j for j in range(x2.n_objects)
             if d2.on_obj(j) != d2.on_obj(d1.on_obj(i)))
    table = [d1.on_obj(t) for t in range(x3.n_objects)]
    table[i] = j
    moved = GMap(x3, x2, table, name="d_1'")
    assert moved.block is None
    lhs = (x.face(2, 1), x.face(3, 3))
    assert composite_difference(lhs, (d2, moved)) == (i, None)
    trusted = GMap(x3, x2, table, name="d_1'", block=x3.block)
    assert composite_difference(lhs, (d2, trusted)) is None
    mutated = _with_face(x, 1, moved)
    assert check_2segal_degree3(mutated).squares[0][1:] == (False, {
        "kind": "comparison_undefined", "object": repr(x3.objects[i]),
        "detail": "face composites disagree on objects"})
    assert "d_1 d_3 != d_2 d_1 at level 3" in check_simplicial_identities(
        mutated).violations


@pytest.mark.parametrize("G, H", [
    ("sym:3", "sym:2"), ("sym:3", "trivial"), ("sym:4", "sym:2"),
    ("sym:4", "young:2+2"), ("dihedral:4", "trivial"),
    ("cyclic:6", "indices:0,2,4")])
def test_segal_square_size_closed_form(G, H):
    # the strict pullbacks that the squares walk: [G:H]^4 objects at
    # degree 3, as many as X_3, and [G:H]^2 on the unital squares
    G = named_group(G)
    H = named_subgroup(G, H)
    index = G.order // H.order
    sizes = [_Square(fa, fb, f, g).size for _, _, fa, fb, f, g
             in decided_squares(hecke_waldhausen(G, H))]
    assert sizes == [index ** 4] * 2 + [index ** 2] * 2


def test_a_square_is_refused_on_its_strict_pullback_before_the_rule(
        monkeypatch):
    # HW(S3,S2): the first square's strict pullback has 3^4 = 81 objects
    x = _hw(3, 2)

    def not_reached(self):
        raise AssertionError("the budget must stop the square first")

    monkeypatch.setattr(_Square, "fibres", not_reached)
    monkeypatch.setattr(_Square, "decide", not_reached)
    with pytest.raises(BudgetExceededError, match=re.escape(
            "triangulation {012},{023}: the strict pullback has 81 objects, "
            "over the budget of 80")):
        check_2segal_degree3(x, budget=80)
    monkeypatch.undo()
    assert check_2segal_degree3(x, budget=81).ok


def test_comparison_names_the_first_object_where_gmap_tables_disagree(
        hecke_s3):
    # the comparison in runs finds the disagreement and names the object
    mutated, i = moved_object(hecke_s3)
    v = check_2segal_degree3(mutated)
    assert v.squares[0][1:] == (False, {
        "kind": "comparison_undefined",
        "object": repr(hecke_s3.levels[3].objects[i]),
        "detail": "face composites disagree on objects"})


def test_action_aut_orders_are_orbit_stabiliser(s_vect, s_f1c2):
    S4 = symmetric_group(4)
    hw = hecke_waldhausen(S4, symmetric_subgroup(S4, 2), depth=3)
    for x in (s_vect, s_f1c2, hw):
        for level in x.levels:
            for c in level.components():
                assert c.aut_order == len(level.hom(c.rep, c.rep)), (
                    x.name, c)


def test_regular_module_reuses_the_algebra_cosets(monkeypatch):
    S4 = symmetric_group(4)
    alg = HeckeAlgebra(S4, symmetric_subgroup(S4, 2))
    assert all(s is alg.cosets_h
               for s in alg.regular.double_cosets.level.spaces)
    # the regular module's oracle reads the algebra's own double cosets
    reads = []
    real = hecke._convolution_table

    def recording(G, H, left, right):
        reads.append((left, right))
        return real(G, H, left, right)

    monkeypatch.setattr(hecke, "_convolution_table", recording)
    assert alg.convolution_constants() == alg.constants
    (left, right), = reads
    assert left is alg.double_cosets and right is alg.regular.double_cosets


def _inclusion(pinned, full):
    """The inclusion of a pinned coset level into the full one."""
    obj_map = [full.obj_index(o) for o in pinned.objects]
    return FnFunctor(pinned, full, obj_map,
                     lambda m: (m[0], obj_map[m[1]]), name="incl")


def test_pinned_levels_are_equivalent_full_subgroupoids():
    # the coset-0 block under the stabiliser of coset 0, on which the
    # levels find their components, is equivalent to the level
    S4 = symmetric_group(4)
    C, idx = shuffled_cayley(S4, 5)
    for G, H in ((S4, symmetric_subgroup(S4, 3)),
                 (S4, young_subgroup(S4, [2, 2])),
                 (S4, S4.subgroup([S4.identity], name="trivial")),
                 (C, C.subgroup([idx[g] for g in
                                 symmetric_subgroup(S4, 2).elements]))):
        cosets = Cosets(G, H)
        for n in (1, 2):
            full = CosetLevel(G, [cosets] * (n + 1), "full")
            pinned = pinned_level(full)
            assert pinned.n_objects * cosets.count == full.n_objects
            assert pinned.group.order == H.order < G.order
            f = _inclusion(pinned, full)
            validate_functor(f)
            assert is_equivalence(f).ok, (H.name, n)


def generic_pull_push_table(left, right, middle, basis_a, basis_b):
    """One pull_push_span of delta_a x delta_b along
    left.tgt x right.tgt <- apex -> right.tgt per pair of components."""
    A, B = left.tgt, right.tgt
    prod = ProductGroupoid(A, B)
    chop = PairFunctor(left, right, prod)
    table, integral = {}, True
    for a, pa in basis_a.slot.items():
        for b, pb in basis_b.slot.items():
            out = pull_push_span(chop, middle, external_product(
                prod, SpanFn(A, {a: 1}), SpanFn(B, {b: 1})))
            integral = integral and all(v.denominator == 1
                                        for v in out.values.values())
            table[(pa, pb)] = {basis_b.slot[c]: v
                               for c, v in out.values.items()}
    return table, integral


def test_pinned_apex_gives_the_tables_of_the_full_levels():
    # the Hecke algebra and module tables (one pass over the components of
    # the apex, found on its block) against one pull_push_span per pair
    # over the full levels
    # (G/H)^3 // G and (G/P x (G/H)^2) // G
    S4 = symmetric_group(4)
    S3, S2 = symmetric_subgroup(S4, 3), symmetric_subgroup(S4, 2)
    for H, P in ((S3, S2), (S2, S3), (young_subgroup(S4, [2, 2]), S3)):
        alg = HeckeAlgebra(S4, H)
        hw = HeckeWaldhausen(S4, H, depth=2)
        d0, d1, d2 = (hw.faces[(2, k)] for k in range(3))
        basis = DoubleCosets(S4, hw.levels[1])
        assert basis.basis == alg.basis
        assert generic_pull_push_table(d0, d2, d1, basis, basis) == (
            alg.constants, alg.integral)
        assert alg.oracle_agrees

        mod = HeckeModule(alg, P)
        gp = Cosets(S4, P)
        y0 = CosetLevel(S4, [gp, hw.cosets], "Y0")
        y1 = CosetLevel(S4, [gp, hw.cosets, hw.cosets], "Y1")
        module_basis = DoubleCosets(S4, y0)
        assert module_basis.basis == mod.basis
        assert generic_pull_push_table(
            face(y1, hw.levels[1], 0), face(y1, y0, 2), face(y1, y0, 1),
            basis, module_basis) == (
            mod.constants, mod.integral)
        assert mod.oracle_agrees


def test_subgroup_verified():
    S3 = symmetric_group(3)
    S4 = symmetric_group(4)
    with pytest.raises(UsageError):
        hecke_waldhausen(S3, S4, depth=1)
    # a subgroup made by another group's subgroup() is checked in full
    with pytest.raises(UsageError):
        hecke_waldhausen(S3, symmetric_subgroup(S4, 3), depth=1)


# -- the strict pullback rule, against the skeleton of the fiber product ----
#
# The skeleton is pi0 of the materialised fiber product, with automorphism
# orders, which is_equivalence reads in materialised_comparison.


def decided_squares(x):
    """(name, apex, fa, fb, leg_f, leg_g) of every square that the 2-Segal
    and pointedness checks of x decide, in their order."""
    seen, comparison = [], segal._comparison
    segal._comparison = lambda *args: seen.append(
        (args[-1], *args[:5])) or (True, None)
    try:
        check_2segal_degree3(x)
        check_pointed(x)
    finally:
        segal._comparison = comparison
    return seen


def comparisons(squares, budget=10 ** 7):
    return [segal._comparison(apex, fa, fb, f, g, budget, name)
            for name, apex, fa, fb, f, g in squares]


def fibre_rule(squares, rule=_Square.fibres):
    """Whether the fibre check (rho onto G_P, one free N-orbit over every
    object of P) alone decides each square: by the count of
    `_Square.fibres`, or by `rule`, say the walk of every N-orbit."""
    return [rule(_Square(fa, fb, f, g)) for _, _, fa, fb, f, g in squares]


RULE_CASES = {
    "hw-s3-s2": lambda: _hw(3, 2),
    "hw-s4-s2": lambda: _hw(4, 2),
    "hw-s4-s3": lambda: _hw(4, 3),
    "hw-d8-1": lambda: hecke_waldhausen(
        dihedral_group(4), named_subgroup(dihedral_group(4), "trivial")),
    **{k: TABLE_CASES[k] for k in TABLE_CASES if k.startswith("s-")},
}


@pytest.mark.parametrize("case", list(RULE_CASES))
def test_strict_pullback_rule_agrees_with_the_skeleton(case, monkeypatch):
    squares = decided_squares(RULE_CASES[case]())
    decided = comparisons(squares)
    assert decided == [(True, None)] * 4
    # the S-construction's unital squares map Aut(A) diagonally, so rho
    # is not onto and the decision pass decides them
    assert fibre_rule(squares) == ([True] * 4 if case.startswith("hw") else
                                   [True, True, False, False])
    assert fibre_rule(squares) == fibre_rule(squares, walked_fibres)
    if case not in ("hw-s4-s2", "s-ab-p-2-4"):   # too large to list
        monkeypatch.setattr(segal, "_comparison", materialised_comparison)
        assert comparisons(squares) == decided


def commuting(squares):
    """The squares whose legs agree on the faces of every object of the
    apex; the fibres of the others are not defined."""
    return [sq for sq in squares
            if all(sq[4].table[u] == sq[5].table[v]
                   for u, v in zip(sq[2].table, sq[3].table))]


def test_the_fibre_count_matches_the_walk_on_the_mutation_corpora(
        hecke_s3, s_f1, s_vect, s_f1c2):
    found = []
    for x in (hecke_s3, _hw(4, 3), s_vect, s_f1, s_f1c2):
        for m in [x] + [m for _, m, _ in mutation_corpus(x)]:
            squares = commuting(decided_squares(m))
            found += fibre_rule(squares)
            assert fibre_rule(squares) == fibre_rule(
                squares, walked_fibres), m.name
    assert True in found and False in found


def test_each_s_level_orbit_meets_the_transversal():
    for case in TABLE_CASES:
        if case.startswith("s-"):
            for level in TABLE_CASES[case]().levels:
                assert {level.component_of(x) for x in level.transversal
                        } == set(range(len(level.components()))), (
                    case, level.name)


@pytest.mark.parametrize("inst, most", [
    (lambda: F1FreeG(cyclic_group(3), 2), 4_000),     # 30,852 walking
    (lambda: VectFq(2, 2), 400),                      # 1,080 walking
], ids=["s-f1-c3-2", "s-vect-f2-2"])
def test_the_degree3_squares_act_once_per_first_row(inst, most,
                                                     monkeypatch):
    # freeness is checked on one triangle per component, not on every
    # N-orbit of X_3
    x = s_construction(inst(), depth=3)
    x3, calls = x.levels[3], [0]
    act = x3.act

    def counted(g, i):
        calls[0] += 1
        return act(g, i)

    monkeypatch.setattr(x3, "act", counted)
    assert check_2segal_degree3(x).ok
    assert 0 < calls[0] <= most


@pytest.mark.parametrize("case", ["hw-s3-s2", "hw-d8-1"])
def test_a_gmap_square_that_is_no_equivalence_gets_the_skeleton_witness(
        case, monkeypatch):
    # fa and fb precomposed with s_2 d_3, an equivariant endomorphism of
    # X_3 that is not an equivalence
    x = RULE_CASES[case]()
    e = compose_functors(x.degeneracy(2, 2), x.face(3, 3))
    squares = [(name, apex, compose_functors(fa, e), compose_functors(fb, e),
                f, g) for name, apex, fa, fb, f, g in decided_squares(x)[:2]]
    assert all(isinstance(sq[2], GMap) for sq in squares)
    assert fibre_rule(squares) == [False, False]
    assert fibre_rule(squares, walked_fibres) == [False, False]
    decided = comparisons(squares)
    assert all(not ok and w["kind"] == "hom_not_bijective"
               for ok, w in decided)
    monkeypatch.setattr(segal, "_comparison", materialised_comparison)
    assert decided == comparisons(squares)


def test_the_rule_does_not_apply_on_a_pinned_apex(monkeypatch):
    # on the pinned apex, X_3's block acted on by the stabiliser K of
    # coset 0, rho is the inclusion of K in G: the fibre check does not
    # apply, and the decision pass finds that the G-orbits of the images
    # cover P
    S3 = symmetric_group(3)
    hw = HeckeWaldhausen(S3, symmetric_subgroup(S3, 2), 3)
    x3 = hw.levels[3]
    pinned = pinned_level(x3)
    incl = GMap(pinned, x3, [x3.obj_index(o) for o in pinned.objects])
    squares = [(name, pinned, compose_functors(fa, incl),
                compose_functors(fb, incl), f, g)
               for name, _, fa, fb, f, g in
               decided_squares(hw.simplicial())[:2]]
    assert fibre_rule(squares) == [False, False]
    assert comparisons(squares) == [(True, None)] * 2
    monkeypatch.setattr(segal, "_comparison", materialised_comparison)
    assert comparisons(squares) == [(True, None)] * 2


@pytest.mark.parametrize("case", ["s-vect-f2-2", "s-f1-c2-2", "s-ab-p-2-4"])
def test_s_construction_maps_are_functors(case):
    # the strict pullback rule relies on equivariant G-map tables
    x = TABLE_CASES[case]()
    for f in [*x.faces.values(), *x.degeneracies.values()]:
        validate_functor(f)


def _c2_square(n_objects, act, sb=(0, 2), a_objects=1, first=2, kernel=1):
    """A square of tuple-group action groupoids: the apex acted on by
    C_first x C2^(2 + kernel) through `act`; fa and fb select coordinates
    (0, 1) and `sb` into C_first x C2-groupoids, A with `a_objects` fixed
    objects, B with one; both legs select coordinate 0 into a one-object
    C2-groupoid, and every table is constant 0.  With sb = (0, 2), the
    coordinates from 3 on are the kernel N of the comparison's group
    map."""
    C2, C = cyclic_group(2), cyclic_group(first)
    K4, K2 = (TupleGroup([C] + [C2] * k, f"C{first}xC2^{k}")
              for k in (2 + kernel, 1))
    apex = ActionGroupoid(K4, range(n_objects), act, name="X")
    a = ActionGroupoid(K2, range(a_objects), lambda g, i: i, name="A")
    b = ActionGroupoid(K2, [0], lambda g, i: 0, name="B")
    d = ActionGroupoid(TupleGroup([C2], "C2"), [0], lambda g, i: 0,
                       name="D")
    return (GMap(apex, a, [0] * n_objects, sel=(0, 1)),
            GMap(apex, b, [0] * n_objects, sel=sb),
            GMap(a, d, [0] * a_objects, sel=(0,)), GMap(b, d, [0], sel=(0,)))


def _shared_square(n_objects):
    """The apex with `n_objects` objects and A, B, D with one, all acted on
    trivially by one group C2, with constant tables and no selections."""
    C2 = cyclic_group(2)
    apex, a, b, d = (ActionGroupoid(C2, range(n), lambda g, i: i, name=name)
                     for n, name in ((n_objects, "X"), (1, "A"), (1, "B"),
                                     (1, "D")))
    return (GMap(apex, a, [0] * n_objects), GMap(apex, b, [0] * n_objects),
            GMap(a, d, [0]), GMap(b, d, [0]))


def _swap(g, i):
    return i ^ g[3]


def _free_then_not_free():
    """N = C2 x C2 over the two points of P, with 4 objects over each: one
    free orbit over the first, two orbits of size 2 over the second; the
    apex's transversal reaches the second after the first."""
    def act(g, i):
        return i ^ (g[3] | g[4] << 1) if i < 4 else i ^ g[3]

    fa, fb, f, g = _c2_square(8, act, a_objects=2, kernel=2)
    fa.src.transversal = [0, 4, 6]
    return GMap(fa.src, fa.tgt, [0] * 4 + [1] * 4, sel=fa.sel), fb, f, g


@pytest.mark.parametrize("square, expected", [
    (lambda: _c2_square(2, _swap), True),    # the fibre is one free N-orbit
    (lambda: _c2_square(1, lambda g, i: i), False),   # N fixes the object
    (lambda: _c2_square(4, _swap), False),   # two N-orbits over one point
    # two N-orbits over one point of P, none over the other
    (lambda: _c2_square(4, _swap, a_objects=2), False),
    (lambda: _shared_square(1), True),
    (lambda: _shared_square(2), False),      # two objects over one point
    # N = C2 x C2 over one point: its 4 objects are |N|, but they are two
    # orbits of size 2, where coordinate 4 acts trivially
    (lambda: _c2_square(4, _swap, kernel=2), False),
    (_free_then_not_free, False),
], ids=["free-orbit", "fixed", "two-orbits", "two-orbits-one-missed",
        "shared-bijection", "shared-two-to-one", "counted-not-free",
        "free-then-not-free"])
def test_the_rule_counts_the_fibres(square, expected):
    fa, fb, f, g = square()
    assert strict_pullback_equivalence(fa, fb, f, g).ok is expected
    p = _Square(fa, fb, f, g)
    assert p.fibres() is walked_fibres(p) is expected
    ok, _ = materialised_comparison(fa.src, fa, fb, f, g, 10 ** 4, "c2")
    assert ok is expected
    assert comparisons([("c2", fa.src, fa, fb, f, g)])[0][0] is expected


@pytest.mark.parametrize("square, message", [
    # fa and fb share coordinate 1, but the legs identify coordinate 0
    (lambda: _c2_square(2, _swap, sb=(1, 2)),
     "the square does not commute on morphisms"),
    # f sends the trivial factor of A into C2: not an isofibration, so
    # the strict pullback is not the fiber product
    (lambda: _c2_square(2, _swap, first=1), "the leg F is not onto"),
], ids=["shared-coordinates", "leg-not-onto"])
def test_the_rule_needs_its_conditions(square, message):
    fa, fb, f, g = square()
    with pytest.raises(ValueError, match=f"^c2: {message}"):
        comparisons([("c2", fa.src, fa, fb, f, g)])
