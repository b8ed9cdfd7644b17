"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its runtime against the stated budget.  Every tolerance here is
exact equality of integers/rationals; the runtime bounds are part of the
criteria."""

import time
from contextlib import contextmanager
from math import comb

import pytest

from hallalg.exactmath.partitions import partitions_of
from hallalg.groups import (cyclic_group, klein_group, symmetric_group,
                            symmetric_subgroup, trivial_group,
                            young_subgroup)
from oracles.exactmath import partition_maps_count
from oracles.groups import conjugacy_classes


@pytest.fixture(autouse=True)
def _pass_fail_line(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


_CAPSYS = None


def _announce(num, ok, elapsed, budget, description):
    line = (f"{'PASS' if ok else 'FAIL'} criterion {num} "
            f"({elapsed:.1f}s < {budget}s): {description}")
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


@contextmanager
def criterion(num, budget, description):
    t0 = time.time()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.time() - t0
        _announce(num, ok and elapsed < budget, elapsed, budget, description)
    assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def test_criterion_1_divided_powers():
    from hallalg.hall import divided_powers_iso_check, hall_constants
    from hallalg.protoab import F1FreeG
    with criterion(1, 5, "divided powers over F_1[G], G-independence"):
        tables = []
        for G in (trivial_group(), cyclic_group(2), cyclic_group(3)):
            ok, detail = divided_powers_iso_check(G, 6)
            assert ok, detail
            tables.append(hall_constants(F1FreeG(G, 6)).constants)
        assert tables[0] == tables[1] == tables[2]
        for n in range(7):
            for m in range(7 - n):
                assert tables[0][(n, m)].get(n + m, 0) == comb(n + m, n)


def test_criterion_2_steinitz_associativity():
    from hallalg.hall import check_associativity, hall_constants
    from hallalg.protoab import AbelianPGroups
    with criterion(2, 60, "Hall algebra of abelian 2-groups of order <= 16 "
                          "associative and unital"):
        table = hall_constants(AbelianPGroups(2, 16))
        assert all(isinstance(g, int) and g > 0
                   for row in table.constants.values() for g in row.values())
        ok, wit = check_associativity(table)
        assert ok, wit


def test_criterion_3_route_equivalence():
    from hallalg.hall import (hall_constants, hall_product,
                              hall_product_via_span)
    from hallalg.protoab import F1FreeG, VectFq
    with criterion(3, 60, "subobject-count route equals groupoid span route"):
        for inst in (VectFq(2, 2), F1FreeG(trivial_group(), 2)):
            table = hall_constants(inst)
            from hallalg.waldhausen import s_construction
            x = s_construction(inst, depth=2)
            for a in table.basis:
                for b in table.basis:
                    if inst.size_of(a) + inst.size_of(b) > 2:
                        continue
                    lhs = hall_product(table, {a: 1}, {b: 1})
                    rhs = hall_product_via_span(inst, 2, {a: 1}, {b: 1},
                                                simplicial=x)
                    assert lhs == rhs, (inst.family, a, b)


def test_criterion_4_pushforward_formula():
    from fractions import Fraction

    from hallalg.groupoid import (GroupHomFunctor, SpanFn, b_group,
                                  pushforward_fn)
    with criterion(4, 5, "pushforward of 1 along BH -> BG is [G:H]; "
                         "index/kernel for non-injective maps"):
        S3, S4 = symmetric_group(3), symmetric_group(4)
        inclusions = [
            (S3, symmetric_subgroup(S3, 2)),
            (S4, symmetric_subgroup(S4, 3)),
            (S4, symmetric_subgroup(S4, 2)),
            (S4, young_subgroup(S4, [2, 2])),
            (cyclic_group(8), None),
        ]
        for G, H in inclusions:
            if H is None:
                H = G.subgroup([e for e in G.elements if e % 2 == 0],
                               name="2Z/8")
            f = GroupHomFunctor(b_group(H), b_group(G))
            out = pushforward_fn(f, SpanFn.const(f.src, 1))
            assert out.values == {0: Fraction(G.order, H.order)}
            assert all(v.denominator == 1 for v in out.values.values())
        # non-injective: index of image / size of kernel
        Z4, Z2 = cyclic_group(4), cyclic_group(2)
        Z6, Z3 = cyclic_group(6), cyclic_group(3)
        cases = [
            (b_group(Z4), b_group(Z2), lambda x: x % 2, Fraction(1, 2)),
            (b_group(Z6), b_group(Z3), lambda x: x % 3, Fraction(1, 2)),
            (b_group(S3), b_group(Z2),
             lambda p: 0 if _sign(p) == 1 else 1, Fraction(1, 3)),
        ]
        for src, tgt, hom, want in cases:
            f = GroupHomFunctor(src, tgt, hom=hom)
            out = pushforward_fn(f, SpanFn.const(src, 1))
            assert out.values == {0: want}, out


def _sign(p):
    from hallalg.groups import perm_sign
    return perm_sign(p)


def test_criterion_5_segal_checker():
    from hallalg.protoab import F1FreeG, VectFq
    from hallalg.waldhausen import (check_2segal_degree3, check_pointed,
                                    hecke_waldhausen, mutation_corpus,
                                    s_construction)
    with criterion(5, 600, "2-Segal checker: four constructions pass, "
                           "mutation corpus fails with witnesses"):
        S3 = symmetric_group(3)
        S4 = symmetric_group(4)
        positive = [
            hecke_waldhausen(S3, symmetric_subgroup(S3, 2), depth=3),
            hecke_waldhausen(S4, symmetric_subgroup(S4, 3), depth=3),
            s_construction(VectFq(2, 2), depth=3),
            s_construction(F1FreeG(trivial_group(), 2), depth=3),
        ]
        for x in positive:
            v = check_2segal_degree3(x)
            assert v.ok, (x.name, v.to_json())
            p = check_pointed(x)
            assert p.ok, (x.name, p.to_json())
        corpus = mutation_corpus(positive[0])
        assert len(corpus) >= 5
        for name, mutated, kind in corpus:
            verdict = (check_2segal_degree3(mutated) if kind == "segal"
                       else check_pointed(mutated))
            assert not verdict.ok, name
            assert verdict.witnesses, name


def test_criterion_6_hecke_algebras_and_modules():
    from hallalg.waldhausen.hecke import HeckeAlgebra, HeckeModule
    with criterion(6, 60, "Hecke constants = convolution oracle; "
                          "associativity, unit, module axioms"):
        S3 = symmetric_group(3)
        S4 = symmetric_group(4)
        alg3 = HeckeAlgebra(S3, symmetric_subgroup(S3, 2))
        alg4 = HeckeAlgebra(S4, symmetric_subgroup(S4, 3))
        for alg in (alg3, alg4):
            assert alg.convolution_constants() == alg.constants
            assert alg.oracle_agrees and alg.integral
            assert alg.extremal_faithful
            ok, wit = alg.check_associativity_and_unit()
            assert ok, wit
        from hallalg.groups import alternating_subgroup
        triples = [
            HeckeModule(alg3, symmetric_subgroup(S3, 2)),   # P = H, regular
            HeckeModule(alg3, S3),                          # P = G
            HeckeModule(alg3, alternating_subgroup(S3)),
        ]
        assert triples[0].constants == alg3.constants
        for mod in triples:
            assert mod.convolution_action() == mod.constants
            assert mod.oracle_agrees and mod.integral
            ok, wit = mod.check_module_axioms()
            assert ok, wit


def test_criterion_7_wreath_character_tables():
    from hallalg.wreath import character_table, wreath_product
    with criterion(7, 120, "wreath character tables: label counts, exact "
                           "orthogonality, sum of squared dims"):
        ranges = [(cyclic_group(2), (1, 2, 3)), (cyclic_group(3), (1, 2)),
                  (klein_group(), (1, 2))]
        for G, ns in ranges:
            for n in ns:
                tab = character_table(G, n)
                want = partition_maps_count(n, G.order)
                assert len(tab.irr_labels) == want
                assert len(tab.class_labels) == want
                ok, wit = tab.check_orthogonality()
                assert ok, (G.name, n, wit)
                assert sum(tab.dimension(l) ** 2 for l in tab.irr_labels) \
                    == wreath_product(G, n).order


def test_criterion_8_characteristic_map_ring_hom():
    from hallalg.wreath import ch_ring_hom_check
    with criterion(8, 300, "ch(Ind(X_lam x X_mu)) = S_lam . S_mu "
                           "(componentwise LR), exact multiplicities"):
        ok, fails = ch_ring_hom_check(cyclic_group(2), 3)
        assert ok, fails[:3]
        ok, fails = ch_ring_hom_check(trivial_group(), 4)
        assert ok, fails[:3]


def test_criterion_9_schur_weyl_identities():
    from hallalg.schurweyl import (check_sum_of_squares,
                                   check_total_dimension, schur_weyl_report)
    with criterion(9, 120, "sum-of-squares and total-dimension identities; "
                           "kernel-free when n <= d"):
        groups = [trivial_group(), cyclic_group(2), cyclic_group(3),
                  klein_group()]
        for G in groups:
            for n in range(0, 5):
                for d in range(1, 4):
                    ok, detail = check_sum_of_squares(G, n, d)
                    assert ok, (G.name, n, d, detail)
                    ok, detail = check_total_dimension(G, n, d)
                    assert ok, (G.name, n, d, detail)
                    if n <= d:
                        rep = schur_weyl_report(G, n, d)
                        assert not any(r["kernel"] for r in rep.rows)
                        assert rep.ok


def test_criterion_10_oracle_suite():
    from hallalg.exactmath.littlewood import schur_product
    from hallalg.exactmath.tableaux import schur_eval_ones
    from hallalg.wreath import wreath_product
    from oracles.exactmath import schur_product_by_polynomials, ssyt_count
    from oracles.wreath import wreath_class_label
    with criterion(10, 120, "closed forms vs independent oracles"):
        for n in range(0, 7):
            for shape in partitions_of(n):
                for d in range(1, 5):
                    assert schur_eval_ones(shape, d) == ssyt_count(shape, d)
        for total in range(0, 6):
            for a in range(total + 1):
                for lam in partitions_of(a):
                    for mu in partitions_of(total - a):
                        assert schur_product(lam, mu) == \
                            schur_product_by_polynomials(lam, mu)
        for G, ns in ((cyclic_group(2), (1, 2, 3)), (cyclic_group(3), (1, 2))):
            for n in ns:
                W = wreath_product(G, n)
                labels = {}
                for w in W.elements:
                    labels.setdefault(wreath_class_label(G, w), set()).add(w)
                classes = conjugacy_classes(W)
                assert len(classes) == len(labels) == \
                    partition_maps_count(n, G.order)
                for cls in classes:
                    assert len({wreath_class_label(G, w) for w in cls}) == 1
