import pytest

from hallalg.groupoid import (ActionGroupoid, FnFunctor, GroupHomFunctor,
                              b_group, cardinality, compose_functors,
                              functors_equal, is_equivalence,
                              two_fiber_product)
from hallalg.groups import (symmetric_group, symmetric_subgroup,
                            trivial_group)
from hallalg.protoab import F1FreeG, VectFq
from hallalg.waldhausen import (FlagGroupoid,
                                check_2segal_degree3, check_pointed,
                                check_simplicial_identities,
                                core_comparison_functor,
                                flag_comparison_functor, hecke_waldhausen,
                                mutation_corpus, s_construction)
from hallalg.waldhausen.hecke import HeckeWaldhausen
from hallalg.waldhausen.simplicial import TruncatedSimplicialGroupoid


@pytest.fixture(scope="module")
def s_vect():
    return s_construction(VectFq(2, 2), depth=3)


@pytest.fixture(scope="module")
def s_f1():
    return s_construction(F1FreeG(trivial_group(), 2), depth=3)


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


def test_mutation_corpus_fails_with_witness(hecke_s3, s_f1):
    entries = mutation_corpus(hecke_s3) + mutation_corpus(s_f1)
    assert len(entries) >= 5
    for name, mutated, kind in entries:
        verdict = (check_2segal_degree3(mutated) if kind == "segal"
                   else check_pointed(mutated))
        assert not verdict.ok, name
        assert verdict.witnesses, name


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
    from hallalg import UsageError
    S3 = symmetric_group(3)
    S4 = symmetric_group(4)
    with pytest.raises(UsageError):
        hecke_waldhausen(S3, S4, depth=1)
