from collections import defaultdict
from itertools import product

import pytest

from hallalg import BudgetExceededError, UsageError
from hallalg.groupoid import (ActionGroupoid, FnFunctor, GroupHomFunctor,
                              b_group, cardinality, compose_functors,
                              functors_equal, is_equivalence,
                              two_fiber_product)
from hallalg.groups import (cyclic_group, symmetric_group,
                            symmetric_subgroup, trivial_group)
from hallalg.protoab import F1FreeG, VectFq
from hallalg.waldhausen import (FlagGroupoid,
                                check_2segal_degree3, check_pointed,
                                check_simplicial_identities,
                                core_comparison_functor,
                                flag_comparison_functor, hecke_waldhausen,
                                mutation_corpus, s_construction)
from hallalg.waldhausen import segal
from hallalg.waldhausen.hecke import HeckeWaldhausen
from hallalg.waldhausen.sconstruction import TriangleGroupoid, _pairs
from hallalg.waldhausen.simplicial import TruncatedSimplicialGroupoid


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
        f.validate()
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
    from hallalg.groupoid import constant_functor
    faces = dict(hecke_s3.faces)
    faces[(3, 1)] = constant_functor(hecke_s3.levels[3],
                                     hecke_s3.levels[2], 0)
    bad = TruncatedSimplicialGroupoid(list(hecke_s3.levels), faces,
                                      dict(hecke_s3.degeneracies))
    v = check_simplicial_identities(bad)
    assert not v.ok and v.violations


def test_hecke_level_shapes():
    S3 = symmetric_group(3)
    S2 = symmetric_subgroup(S3, 2)
    x = hecke_waldhausen(S3, S2, depth=2)
    assert [g.n_objects for g in x.levels] == [1, 6, 36]
    assert len(x.levels[1].components()) == 2     # H\G/H
    # (G, G): every level connected with Aut of order |G|
    xgg = hecke_waldhausen(S3, S3, depth=2)
    for lvl in xgg.levels:
        comps = lvl.components()
        assert len(comps) == 1 and comps[0].aut_order == 6
    # (G, 1): level 1 is discrete on G
    triv = S3.subgroup([S3.identity], name="trivial")
    x1 = hecke_waldhausen(S3, triv, depth=2)
    assert x1.levels[1].n_objects == 6
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


# -- the materialised fiber product, as the oracle for the skeletal checks ---


def materialised_comparison(apex, fa, fb, leg_f, leg_g, budget, name):
    """The comparison functor into the materialised fiber product, decided
    by is_equivalence; returns (ok, witness) like segal._comparison."""
    fp = two_fiber_product(leg_f, leg_g, budget=budget)
    obj_map = []
    for i in range(apex.n_objects):
        u, v = fa.on_obj(i), fb.on_obj(i)
        du = leg_f.on_obj(u)
        if du != leg_g.on_obj(v):
            return False, {"kind": "comparison_undefined"}
        obj_map.append(fp.obj_index((u, v, fp.base.identity_id(du))))
    cmp = FnFunctor(apex, fp, obj_map,
                    lambda m: (fa.on_mor(m), fb.on_mor(m),
                               obj_map[apex.mor_src(m)]), name=name)
    verdict = is_equivalence(cmp)
    return verdict.ok, (None if verdict.ok else verdict.witness)


def _with_face(x, k, face):
    faces = dict(x.faces)
    faces[(3, k)] = face
    return TruncatedSimplicialGroupoid(list(x.levels), faces,
                                       dict(x.degeneracies))


def moved_object(x):
    """d_1 of X_3 moved at one object that represents no component, so that
    the first comparison is undefined there and only there."""
    x3, x2, d1 = x.levels[3], x.levels[2], x.face(3, 1)
    d2 = x.face(2, 2)
    reps = {c.rep for c in x3.components()}
    i = max(set(range(x3.n_objects)) - reps)
    j = next(j for j in range(x2.n_objects)
             if d2.on_obj(j) != d2.on_obj(d1.on_obj(i)))
    obj_map = [d1.on_obj(o) for o in range(x3.n_objects)]
    obj_map[i] = j
    return _with_face(x, 1, FnFunctor(x3, x2, obj_map, d1.on_mor)), i


def identity_on_morphisms(x):
    """d_3 of X_3 sends every morphism to an identity: automorphisms of X_3
    stop being sent to automorphisms of the fiber product."""
    x3, x2, d3 = x.levels[3], x.levels[2], x.face(3, 3)
    return _with_face(x, 3, FnFunctor(
        x3, x2, d3.on_obj,
        lambda m: x2.identity(d3.on_obj(x3.mor_src(m)))))


def test_skeletal_comparisons_match_materialised_oracle(
        hecke_s3, s_f1, s_vect, monkeypatch):
    cases, moved = [], {}
    for x in (hecke_s3, s_vect, s_f1):
        cases += [(x.name, x, "segal"), (x.name, x, "pointed")]
        cases += [(f"{x.name}:{name}", m, kind)
                  for name, m, kind in mutation_corpus(x)]
        mutated, moved[x.name] = moved_object(x)
        cases += [(f"{x.name}:moved-object", mutated, "segal"),
                  (f"{x.name}:identity-d3", identity_on_morphisms(x),
                   "segal")]

    def verdicts():
        out = {}
        for name, x, kind in cases:
            v = (check_2segal_degree3 if kind == "segal"
                 else check_pointed)(x)
            out[name, kind] = [(sq, ok, w and w["kind"])
                               for sq, ok, w in v.squares]
        return out

    skeletal = verdicts()
    # every object of the apex is checked, not only the representatives
    v = check_2segal_degree3(moved_object(hecke_s3)[0])
    assert v.squares[0][2]["object"] == repr(
        hecke_s3.levels[3].objects[moved[hecke_s3.name]])
    monkeypatch.setattr(segal, "_comparison", materialised_comparison)
    assert skeletal == verdicts()
    for x in (hecke_s3, s_vect, s_f1):
        for name in ("constant-d1", "moved-object"):
            assert skeletal[f"{x.name}:{name}", "segal"][0][2] == \
                "comparison_undefined", (x.name, name)
    assert skeletal[f"{hecke_s3.name}:identity-d3", "segal"][0][2] == \
        "not_a_functor"


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
    pos = {p: k for k, p in enumerate(_pairs(level.level))}
    buckets = defaultdict(list)
    for i, tri in enumerate(level.objects):
        buckets[tuple(tri.entries.values())].append(i)
    for entries, members in buckets.items():
        families = list(product(*(inst.isos(c, c) for c in entries)))
        for i in members:
            out = [m[0] for m in level.out(i)]
            assert len(out) == len(families) and set(out) == set(families)
        maps = {i: [(pos[p], pos[q], m) for p, q, m in _maps(level.objects[i])]
                for i in members}
        for phis in families:
            sources = defaultdict(list)     # x_j's side: m' phi_p
            for j in members:
                sources[tuple([compose(m, phis[p])
                               for p, q, m in maps[j]])].append(j)
            for i in members:               # x_i's side: phi_q m
                key = tuple([compose(phis[q], m) for p, q, m in maps[i]])
                assert sources.get(key) == [level.mor_tgt((phis, i))], \
                    (level.name, level.objects[i], phis)


@pytest.mark.parametrize("name", ["s_vect", "s_f1c2"])
def test_triangle_homs_match_iso_family_oracle(name, request):
    for level in request.getfixturevalue(name).levels:
        check_against_iso_families(level)


def test_level_budgets_name_the_level():
    inst = VectFq(2, 2)
    with pytest.raises(BudgetExceededError,
                       match=r"S_3\(vect-fq\): triangle enumeration reached"):
        TriangleGroupoid(inst, 3, budget=300)
    # 331 triangles fit, but prod Aut over the entries (0,2,2,2,2,0) is 6^4
    with pytest.raises(BudgetExceededError,
                       match=r"S_3\(vect-fq\).*\(0, 2, 2, 2, 2, 0\) has "
                             r"order 1296"):
        TriangleGroupoid(inst, 3, budget=1000)


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


# -- the iterated 2-fiber product, as the oracle for the flat levels ----------


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
            return lvl.proj_a
        if n == 1:
            return lvl.proj_b
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


def test_flat_levels_match_fiber_product_oracle():
    S3, S4 = symmetric_group(3), symmetric_group(4)
    cases = [(S3, symmetric_subgroup(S3, 2), 3), (S3, S3, 3),
             (S3, S3.subgroup([S3.identity], name="trivial"), 3),
             (S4, symmetric_subgroup(S4, 2), 2)]
    for G, H, depth in cases:
        hw = HeckeWaldhausen(G, H, depth)
        oracle = NestedHecke(G, H, depth)
        cmp = []
        for n, flat in enumerate(hw.levels):
            # the level's action really is one (checked by the constructor)
            ActionGroupoid(flat.group, flat.objects, flat.act)
            f = oracle.comparison(n, flat)
            f.validate()
            assert is_equivalence(f).ok, (G.name, H.name, n)
            cmp.append(f)
        for (n, k), d in hw.faces.items():
            assert functors_equal(compose_functors(d, cmp[n]),
                                  compose_functors(cmp[n - 1],
                                                   oracle.faces[(n, k)])), \
                (G.name, H.name, "face", n, k)
        for (n, k), s in hw.degeneracies.items():
            assert functors_equal(compose_functors(s, cmp[n]),
                                  compose_functors(cmp[n + 1],
                                                   oracle.degeneracies[(n, k)])), \
                (G.name, H.name, "degeneracy", n, k)


def test_subgroup_verified():
    S3 = symmetric_group(3)
    S4 = symmetric_group(4)
    with pytest.raises(UsageError):
        hecke_waldhausen(S3, S4, depth=1)
