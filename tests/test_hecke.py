import pytest

from hallalg.groups import (alternating_subgroup, symmetric_group,
                            symmetric_subgroup, young_subgroup)
from hallalg.waldhausen.hecke import HeckeAlgebra, HeckeModule


@pytest.fixture(scope="module")
def alg_s3():
    S3 = symmetric_group(3)
    return HeckeAlgebra(S3, symmetric_subgroup(S3, 2))


@pytest.fixture(scope="module")
def alg_s4():
    S4 = symmetric_group(4)
    return HeckeAlgebra(S4, symmetric_subgroup(S4, 3))


def test_s3_s2_table(alg_s3):
    # two double cosets; T_H is the unit and T_H . T_H = T_H
    assert len(alg_s3.basis) == 2
    e = alg_s3.unit_index
    assert alg_s3.constants[(e, e)] == {e: 1}
    other = 1 - e
    # classical quadratic relation at q = 2
    assert alg_s3.constants[(other, other)] == {e: 2, other: 1}
    assert alg_s3.extremal_faithful
    assert alg_s3.oracle_agrees and alg_s3.integral
    ok, wit = alg_s3.check_associativity_and_unit()
    assert ok, wit


def test_s4_s3_table(alg_s4):
    assert len(alg_s4.basis) == 2
    e = alg_s4.unit_index
    other = 1 - e
    # quadratic relation at q = 3
    assert alg_s4.constants[(other, other)] == {e: 3, other: 2}
    assert alg_s4.oracle_agrees and alg_s4.integral
    ok, wit = alg_s4.check_associativity_and_unit()
    assert ok, wit


def test_oracle_agreement_explicit(alg_s3, alg_s4):
    assert alg_s3.convolution_constants() == alg_s3.constants
    assert alg_s4.convolution_constants() == alg_s4.constants


def test_young_subgroup_hecke():
    S4 = symmetric_group(4)
    H = young_subgroup(S4, [2, 2])
    alg = HeckeAlgebra(S4, H)
    assert len(alg.basis) == 3   # S_2xS_2 \ S_4 / S_2xS_2
    assert alg.oracle_agrees and alg.integral
    ok, wit = alg.check_associativity_and_unit()
    assert ok, wit


def test_group_algebra_case():
    S3 = symmetric_group(3)
    triv = S3.subgroup([S3.identity], name="trivial")
    alg = HeckeAlgebra(S3, triv)
    assert len(alg.basis) == 6
    assert alg.oracle_agrees and alg.integral
    for a, ga in enumerate(alg.basis):
        for b, gb in enumerate(alg.basis):
            want = alg.coset_index(S3.op(ga, gb))
            assert alg.constants[(a, b)] == {want: 1}


def test_regular_module(alg_s3):
    S3 = symmetric_group(3)
    mod = HeckeModule(alg_s3, symmetric_subgroup(S3, 2))
    assert mod.action_table == alg_s3.constants
    assert mod.oracle_agrees and mod.integral
    ok, wit = mod.check_module_axioms()
    assert ok, wit


def test_full_group_module(alg_s3):
    S3 = symmetric_group(3)
    mod = HeckeModule(alg_s3, S3)
    assert len(mod.basis) == 1
    assert mod.oracle_agrees and mod.integral
    # each double coset acts by its coset volume
    for a in range(len(alg_s3.basis)):
        vol = sum(1 for g in S3.elements
                  if alg_s3.coset_index(g) == a) // alg_s3.H.order
        assert mod.action_table[(a, 0)] == {0: vol}
    ok, wit = mod.check_module_axioms()
    assert ok, wit


def test_alternating_module(alg_s3):
    S3 = symmetric_group(3)
    mod = HeckeModule(alg_s3, alternating_subgroup(S3))
    ok, wit = mod.check_module_axioms()
    assert ok, wit
    assert mod.convolution_action() == mod.action_table
    assert mod.oracle_agrees and mod.integral


def test_module_axioms_s4(alg_s4):
    S4 = symmetric_group(4)
    mod = HeckeModule(alg_s4, young_subgroup(S4, [2, 2]))
    assert mod.oracle_agrees and mod.integral
    ok, wit = mod.check_module_axioms()
    assert ok, wit


def test_json_shapes(alg_s3):
    js = alg_s3.to_json()
    assert js["extremal_faithful"] is True
    assert len(js["cosets"]) == 2
    S3 = symmetric_group(3)
    mod = HeckeModule(alg_s3, S3)
    mjs = mod.to_json()
    assert len(mjs["module_cosets"]) == 1
