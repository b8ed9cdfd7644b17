import gc
import weakref
from collections import Counter
from math import comb, factorial
from time import perf_counter

import pytest

from hallalg.groups import cyclic_group, symmetric_group, trivial_group
from hallalg.protoab import AbelianPGroups, F1FreeG, VectFq, make_instance
from hallalg.waldhausen.sconstruction import (TriangleGroupoid, _complete,
                                              _entries, _first_rows)
from oracles.protoab import (classify_sub, count_ses, homs_with_image,
                             subgroups, subobject_types, total_subobjects)


@pytest.fixture(scope="module")
def vf2():
    return VectFq(2, 2)


@pytest.fixture(scope="module")
def ab2():
    return AbelianPGroups(2, 16)


def gaussian_binomial_brute(q, m, l):
    """Count dim-l subspaces of F_q^m by brute force over spanning sets."""
    inst = VectFq(q, m)
    return sum(1 for u in subgroups(inst, m)
               if len(u) == q ** l)


def test_vect_iso_classes(vf2):
    assert vf2.iso_classes() == [0, 1, 2]
    assert vf2.zero_key() == 0
    assert [vf2.size_of(c) for c in vf2.iso_classes()] == [0, 1, 2]


def test_vect_aut_orders(vf2):
    assert vf2.aut_order(2) == 6          # |GL_2(F_2)|, the closed form
    assert vf2.aut_order(0) == 1
    assert VectFq(3, 2).aut_order(2) == 48


def test_vect_subobject_counts(vf2):
    types = subobject_types(vf2, 2)
    assert types[1, 1] == 3
    assert types[0, 2] == 1
    assert types[2, 0] == 1
    # L = 0 forces N ~ M
    assert types[0, 1] == 0


def test_vect_gaussian_binomials():
    for q in (2, 3):
        inst = VectFq(q, 2)
        for m in range(3):
            for l in range(m + 1):
                want = gaussian_binomial_brute(q, m, l)
                got = subobject_types(inst, m)[l, m - l]
                assert got == want


def test_count_ses_identity_vect(vf2):
    for l in vf2.iso_classes():
        for m in vf2.iso_classes():
            for n in vf2.iso_classes():
                assert count_ses(vf2, l, m, n) == \
                    subobject_types(vf2, m)[l, n] * \
                    vf2.aut_order(l) * vf2.aut_order(n)


def test_ses_examples(vf2, ab2):
    assert count_ses(vf2, 1, 2, 1) == 3
    assert count_ses(vf2, 0, 2, 2) == vf2.aut_order(2)
    f1 = F1FreeG(trivial_group(), 2)
    assert count_ses(f1, 1, 2, 1) == 2


def test_f1_aut_orders():
    for G in (trivial_group(), cyclic_group(2), cyclic_group(3)):
        inst = F1FreeG(G, 3)
        for n in range(4):
            assert inst.aut_order(n) == G.order ** n * factorial(n)
            assert len(inst.isos(n, n)) == inst.aut_order(n)


def test_f1_subobjects_binomial():
    inst = F1FreeG(cyclic_group(2), 4)
    for m in range(5):
        for l in range(m + 1):
            assert inst.subobjects_with_type(m, l, m - l) == comb(m, l)
            # wedge decompositions are symmetric
            assert inst.subobjects_with_type(m, l, m - l) == \
                inst.subobjects_with_type(m, m - l, l)


def test_f1_ses_identity():
    inst = F1FreeG(cyclic_group(2), 3)
    for l in range(3):
        for m in range(3):
            for n in range(3):
                assert count_ses(inst, l, m, n) == \
                    inst.subobjects_with_type(m, l, n) * \
                    inst.aut_order(l) * inst.aut_order(n)


def test_total_subobject_count(vf2, ab2):
    # sum over (L, N) of typed counts equals the total subobject count
    for inst, keys in ((vf2, vf2.iso_classes()),
                       (ab2, [(), (1,), (2,), (1, 1), (2, 1)])):
        for m in keys:
            types = subobject_types(inst, m)
            total = sum(types[l, n] for l in keys for n in keys)
            assert total == total_subobjects(inst, m)


def test_abelian_p_iso_classes(ab2):
    got = set(ab2.iso_classes())
    assert got == {(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1),
                   (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)}


def test_abelian_p_subgroup_counts(ab2):
    assert subobject_types(ab2, (2,))[(1,), (1,)] == 1
    assert subobject_types(ab2, (1, 1))[(1,), (1,)] == 3
    # Z/4 x Z/2 has 8 subgroups
    assert total_subobjects(ab2, (2, 1)) == 8
    types = Counter(classify_sub(ab2, (2, 1), u)
                    for u in subgroups(ab2, (2, 1)))
    assert types == Counter({(): 1, (1,): 3, (2,): 2, (1, 1): 1, (2, 1): 1})


def test_abelian_p_quotient_classification(ab2):
    order2 = [u for u in subgroups(ab2, (2, 1))
              if classify_sub(ab2, (2, 1), u) == (1,)]
    quots = sorted(ab2.classify_quot((2, 1), u) for u in order2)
    assert quots == [(1, 1), (2,), (2,)]


def test_abelian_p_aut_orders(ab2):
    assert ab2.aut_order((1, 1)) == 6
    assert ab2.aut_order((2,)) == 2
    assert ab2.aut_order((2, 1)) == 8
    assert ab2.aut_order(()) == 1


def test_abelian_p_ses_identity(ab2):
    small = [(), (1,), (2,), (1, 1)]
    for l in small:
        for m in small + [(2, 1)]:
            for n in small:
                assert count_ses(ab2, l, m, n) == \
                    subobject_types(ab2, m)[l, n] * \
                    ab2.aut_order(l) * ab2.aut_order(n)


def test_make_instance():
    from hallalg import UsageError
    assert make_instance("vect-fq", q=2, bound=2).family == "vect-fq"
    assert make_instance("f1-free", group="cyclic:2", bound=3).family == \
        "f1-free"
    assert make_instance("ab-p-groups", p=2, bound=8).family == "ab-p-groups"
    with pytest.raises(UsageError):
        make_instance("vect-fq", bound=2)
    with pytest.raises(UsageError):
        make_instance("unknown", bound=2)


@pytest.mark.parametrize("inst", [
    AbelianPGroups(2, 16), VectFq(2, 3), F1FreeG(cyclic_group(2), 3)],
    ids=["ab-p-groups-2-16", "vect-fq-2-3", "f1-free-c2-3"])
def test_subobject_type_counts_match_per_subobject_count(inst):
    # an abelian p-group's subgroups are listed only by the tests' oracle
    # (`subobject_types`), so src/ cannot count them
    classes = inst.iso_classes()
    for m in classes:
        if not isinstance(inst, F1FreeG):
            with pytest.raises(NotImplementedError):
                inst.subobjects_with_type(m, m, inst.zero_key())
            continue
        types = [(inst.classify_sub(m, u), inst.classify_quot(m, u))
                 for u in inst.subobjects(m)]
        for l in classes:
            for n in classes:
                assert inst.subobjects_with_type(m, l, n) == \
                    types.count((l, n)), (m, l, n)


@pytest.mark.parametrize("p,bound", [(2, 8), (3, 9), (5, 25)])
def test_abelian_isos_monos_epis_match_brute_force(p, bound):
    # the walk over generator images against every hom applied to every
    # element
    inst = AbelianPGroups(p, bound)
    for x in inst.iso_classes():
        for y in inst.iso_classes():
            injective = homs_with_image(inst, x, y, inst.size_of(x))
            surjective = homs_with_image(inst, x, y, inst.size_of(y))
            for _ in range(2):          # the second call reads the cache
                assert inst.monos(x, y) == injective
                assert inst.epis(x, y) == surjective
                assert inst.isos(x, y) == (injective if x == y else [])


def test_the_monos_of_f2_to_the_4_are_found_without_every_hom():
    # 20,160 of the 65,536 homs; applying each to all 16 elements took
    # seconds
    inst = AbelianPGroups(2, 16)
    t0 = perf_counter()
    assert len(inst.monos((1, 1, 1, 1), (1, 1, 1, 1))) == 20160
    assert perf_counter() - t0 < 0.5


MONO_COUNT_INSTANCES = {
    "vect-f2-4": lambda: VectFq(2, 4),
    "vect-f3-3": lambda: VectFq(3, 3),
    "f1-c2-3": lambda: F1FreeG(cyclic_group(2), 3),
    "f1-s3-3": lambda: F1FreeG(symmetric_group(3), 3),
    "ab-p-2-16": lambda: AbelianPGroups(2, 16),
    "ab-p-3-27": lambda: AbelianPGroups(3, 27),
    "ab-p-5-25": lambda: AbelianPGroups(5, 25),
}


@pytest.mark.parametrize("name", MONO_COUNT_INSTANCES)
def test_mono_count_closed_forms_match_the_listing(name):
    inst = MONO_COUNT_INSTANCES[name]()
    for x in inst.iso_classes():
        aut = inst.aut_order(x)
        assert type(aut) is int and aut == len(inst.isos(x, x)), x
        for y in inst.iso_classes():
            count = inst.mono_count(x, y)
            assert type(count) is int, (x, y, count)
            assert count == len(inst.monos(x, y)), (x, y)


@pytest.mark.parametrize("inst", [
    AbelianPGroups(2, 4), VectFq(2, 2), F1FreeG(cyclic_group(2), 2)],
    ids=["ab-p-groups", "vect-fq", "f1-free"])
def test_compose_of_unmatched_maps_raises(inst):
    a, b = inst.iso_classes()[1], inst.iso_classes()[2]
    f, g = inst.identity(a), inst.identity(b)
    with pytest.raises(ValueError, match="is not source"):
        inst.compose(g, f)


def test_square_with_misplaced_maps_raises(vf2):
    i1, i2 = vf2.identity(1), vf2.identity(2)
    with pytest.raises(ValueError, match="do not form a square"):
        vf2.square_bicartesian(i1, i1, i2, i1)


def test_torsion_counts_of_no_p_group_raise(ab2):
    # 2-torsion of order 2, 4-torsion of order 8: increments 1, 2 grow
    with pytest.raises(ValueError, match="torsion counts"):
        ab2._type_from_torsion_counts([1, 2, 8])


def test_quotient_by_a_non_subgroup_raises(ab2):
    with pytest.raises(ValueError, match="not a subgroup"):
        ab2.classify_quot((2,), frozenset({(0,), (1,), (2,)}))


def test_subspace_size_not_a_power_of_q_raises(vf2, ab2):
    with pytest.raises(ValueError, match="3 is not 1 times a power of 2"):
        classify_sub(vf2, 2, frozenset({(0, 0), (1, 0), (0, 1)}))
    # 2-torsion of order 2, 4-torsion of order 3: not a subgroup of Z/4
    with pytest.raises(ValueError, match="3 is not 2 times a power of 2"):
        classify_sub(ab2, (2,), frozenset({(0,), (1,), (2,)}))


def test_vect_maps_and_classes_are_keyed_by_dimension():
    # the S-construction's test subclasses read map endpoints as integers
    inst = VectFq(3, 2)
    for x in inst.iso_classes():
        for y in inst.iso_classes():
            for f in inst.monos(x, y) + inst.epis(x, y) + inst.isos(x, y):
                assert (f[0], f[1]) == (x, y)
                assert type(f[0]) is int and type(f[1]) is int
    for m in inst.iso_classes():
        for u in subgroups(inst, m):
            d = classify_sub(inst, m, u)
            assert type(d) is int and len(u) == 3 ** d
            assert inst.classify_quot(m, u) == m - d


def test_a_dropped_instance_is_collected():
    # each instance owns its memo tables, so they do not keep it alive
    def build_level(inst):
        level = TriangleGroupoid(inst, 2)
        assert level.n_objects and inst.compose.cache_info().currsize
        return weakref.ref(inst)

    refs = [build_level(VectFq(2, 2)),
            build_level(F1FreeG(cyclic_group(2), 2)),
            build_level(AbelianPGroups(2, 4))]
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


# -- the S-construction's numbering, against the token methods ---------------

INT_TABLE_INSTANCES = {
    "vect-f2-2": lambda: VectFq(2, 2),
    "vect-f3-2": lambda: VectFq(3, 2),
    "ab-p-2-8": lambda: AbelianPGroups(2, 8),
    "f1-c2-2": lambda: F1FreeG(cyclic_group(2), 2),
    "f1-c3-2": lambda: F1FreeG(cyclic_group(3), 2),
}


@pytest.mark.parametrize("name", INT_TABLE_INSTANCES)
def test_the_int_tables_decode_to_the_token_methods(name):
    inst = INT_TABLE_INSTANCES[name]()
    token, classes = inst.tokens.__getitem__, inst.iso_classes()
    # the lists keep the token lists' order; maps by (source, target)
    listed = {}
    for x in classes:
        for y in classes:
            for ids, maps in ((inst.mono_ids(x, y), inst.monos(x, y)),
                              (inst.epi_ids(x, y), inst.epis(x, y))):
                assert list(map(token, ids)) == maps
                listed.setdefault((x, y), set()).update(ids)
        assert list(map(token, inst.iso_ids(x))) == inst.isos(x, x)
    assert [inst.ids[f] for f in inst.tokens] == list(
        range(len(inst.tokens)))
    # compose on every composable pair of listed maps
    for (x, y), fs in listed.items():
        for z in classes:
            for g in listed.get((y, z), ()):
                for f in fs:
                    assert token(inst.composites[g, f]) == inst.compose(
                        token(g), token(f))
    # each map's rows of composites with the automorphisms of its ends
    for m in set().union(*listed.values()):
        src, tgt = token(m)[:2]
        for a, phi in enumerate(inst.isos(tgt, tgt)):
            assert token(inst.left_rows[m][a]) == inst.compose(phi,
                                                               token(m))
        for a, psi in enumerate(inst.isos(src, src)):
            assert token(inst.right_rows[m][a]) == inst.compose(token(m),
                                                                psi)
    # Aut(c) on numbers: the product, identity and inverses decode
    for c in classes:
        K, isos = inst.aut_group(c), inst.isos(c, c)
        assert K.elements == list(range(len(isos)))
        assert isos[K.identity] == inst.identity(c)
        for a in K.elements:
            assert isos[K.inv(a)] == next(
                psi for psi in isos if inst.compose(psi, isos[a])
                == inst.identity(c))
            for b in K.elements:
                assert isos[K.op(a, b)] == inst.compose(isos[a], isos[b])


class Recorded(dict):
    """A read-only view of a table that records every key read."""

    def __init__(self, table, keys):
        super().__init__()
        self.table, self.keys_read = table, keys

    def __missing__(self, key):
        self.keys_read.append(key)
        return self.table[key]


@pytest.mark.parametrize("name", INT_TABLE_INSTANCES)
def test_every_square_the_completion_tries_agrees_with_the_tokens(name):
    inst = INT_TABLE_INSTANCES[name]()
    tried, squares = [], inst.squares
    # the squares read, in the order the completion reads them
    inst.squares = Recorded(squares, tried)
    # every first row of degree 3 completed once, no orbit transported
    for row in _first_rows(inst, 3, 10 ** 6, name):
        _complete(inst, 3, _entries(inst, row), row[1], name)
    assert tried
    token = inst.tokens.__getitem__
    for square in set(tried):
        i, p, q, j = map(token, square)
        # the definition: it commutes, and im(i) = q^-1(im(j))
        want = (inst.compose(q, i) == inst.compose(j, p)
                and inst.image_sub(i) == inst.preimage_sub(
                    q, inst.image_sub(j)))
        assert squares[square] == inst.square_bicartesian(i, p, q, j) == want
