import pytest

from hallalg.groupoid import GMap, pull_push_table
from hallalg.groups import (alternating_subgroup, named_group, named_subgroup,
                            symmetric_group,
                            symmetric_subgroup, young_subgroup)
from hallalg.waldhausen.hecke import (CosetLevel, Cosets, DoubleCosets,
                                      HeckeAlgebra, HeckeModule, face,
                                      hecke_waldhausen)
from oracles.groupoid import is_faithful
from oracles.groups import shuffled_cayley
from oracles.hecke import membership_convolution


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
    assert mod.constants == alg_s3.constants
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
        assert mod.constants[(a, 0)] == {0: vol}
    ok, wit = mod.check_module_axioms()
    assert ok, wit


def test_alternating_module(alg_s3):
    S3 = symmetric_group(3)
    mod = HeckeModule(alg_s3, alternating_subgroup(S3))
    ok, wit = mod.check_module_axioms()
    assert ok, wit
    assert mod.convolution_action() == mod.constants
    assert mod.oracle_agrees and mod.integral


def test_module_axioms_s4(alg_s4):
    S4 = symmetric_group(4)
    mod = HeckeModule(alg_s4, young_subgroup(S4, [2, 2]))
    assert mod.oracle_agrees and mod.integral
    ok, wit = mod.check_module_axioms()
    assert ok, wit


def test_a_perturbed_constant_fails_associativity():
    # a fresh table: the fixtures are shared.  Every unital algebra of
    # dimension 2 is associative, so the perturbed algebra is the group
    # algebra of S3; a.b = c becomes 2c, which (a.b).x = a.(b.x) catches
    S3 = symmetric_group(3)
    alg = HeckeAlgebra(S3, S3.subgroup([S3.identity], name="trivial"))
    a, b = [i for i in range(len(alg.basis)) if i != alg.unit_index][:2]
    (c,) = alg.constants[(a, b)]
    alg.constants[(a, b)][c] += 1
    ok, wit = alg.check_associativity_and_unit()
    assert not ok and set(wit) == {"triple", "lhs", "rhs"}
    assert all(isinstance(k, str) for k in [*wit["triple"], *wit["lhs"]])


def test_a_perturbed_module_row_fails_the_module_axioms():
    # on H\S3/S3 the other double coset acts by its volume 2, and
    # T.T = 2 + T; a volume of 3 breaks (T.T).v = T.(T.v)
    S3 = symmetric_group(3)
    alg = HeckeAlgebra(S3, symmetric_subgroup(S3, 2))
    mod = HeckeModule(alg, S3)
    other = 1 - alg.unit_index
    mod.constants[(other, 0)][0] += 1
    ok, wit = mod.check_module_axioms()
    assert not ok and wit["triple"] == (str(other), str(other), "0")


def test_a_broken_unit_row_is_a_unit_failure():
    S3 = symmetric_group(3)
    alg = HeckeAlgebra(S3, symmetric_subgroup(S3, 2))
    e, other = alg.unit_index, 1 - alg.unit_index
    mod = HeckeModule(alg, S3)
    mod.constants[(e, 0)] = {0: 2}
    assert mod.check_module_axioms() == (False, {"unit_failure": "0"})
    alg.constants[(other, e)] = {other: 2}
    assert alg.check_associativity_and_unit() == (
        False, {"unit_failure": str(other)})


def test_json_shapes(alg_s3):
    js = alg_s3.to_json()
    assert js["extremal_faithful"] is True
    assert len(js["cosets"]) == 2
    S3 = symmetric_group(3)
    mod = HeckeModule(alg_s3, S3)
    mjs = mod.to_json()
    assert len(mjs["module_cosets"]) == 1


# every (G, H, P) that the tests build a Hecke algebra or module of, and
# two larger ones; P None is the regular module alone
ORACLE_INPUTS = [
    ("sym:3", "sym:2", None), ("sym:3", "sym:2", "all"),
    ("sym:3", "sym:2", "alt:3"), ("sym:3", "trivial", None),
    ("sym:4", "sym:3", None), ("sym:4", "sym:3", "young:2+2"),
    ("sym:4", "sym:3", "sym:2"), ("sym:4", "sym:2", "sym:3"),
    ("sym:4", "young:2+2", "sym:3"), ("sym:4", "indices:0,2,6,8,12,14", None),
    ("sym:5", "sym:3", "sym:4"), ("sym:6", "sym:3", None)]


@pytest.mark.parametrize("g, h, p", ORACLE_INPUTS,
                         ids=["/".join(filter(None, x)) for x in ORACLE_INPUTS])
def test_one_pass_convolution_matches_membership_tests(g, h, p):
    G = named_group(g)
    H = named_subgroup(G, h)
    alg = HeckeAlgebra(G, H)
    for mod in [alg.regular] + ([HeckeModule(alg, named_subgroup(G, p))]
                                if p else []):
        want, left, right = membership_convolution(G, H, mod.P)
        assert (left, right) == (alg.basis, mod.basis)
        assert mod.convolution_action() == want == mod.constants
        # for a double coset a and a basis element v, pick x_1 with
        # [P, x_1 H] = v and x_2 = x_1 a: the apex object (P, x_1 H, x_2 H)
        # reaches (a, v), so the pull-push table has every row
        assert list(mod.constants) == [(a, v) for a in range(len(left))
                                       for v in range(len(right))]


def _shuffled_s4():
    S4 = symmetric_group(4)
    C, idx = shuffled_cayley(S4, 5)
    assert C.identity != C.elements[0]
    return C, C.subgroup([idx[g] for g in symmetric_subgroup(S4, 2).elements],
                         name="sym:2")


SPAN_CASES = {
    "S3/S2": lambda: (symmetric_group(3),
                      symmetric_subgroup(symmetric_group(3), 2)),
    "S4/S2": lambda: (symmetric_group(4),
                      symmetric_subgroup(symmetric_group(4), 2)),
    "S4/young:2+2": lambda: (symmetric_group(4),
                             young_subgroup(symmetric_group(4), [2, 2])),
    "S4/trivial": lambda: (symmetric_group(4),
                           named_subgroup(symmetric_group(4), "trivial")),
    "C6/trivial": lambda: (named_group("cyclic:6"),
                           named_subgroup(named_group("cyclic:6"), "trivial")),
    "cayley(S4)/S2": _shuffled_s4,
}


def _span_table(G, H, left=0, right=2):
    """pull_push_table along X_1 x X_1 <- X_2 -> X_1 of HW(G, H) itself,
    the legs d_left and d_right and the middle d_1, labelled by the basis
    positions of the double cosets."""
    x = hecke_waldhausen(G, H, depth=2)
    slot = DoubleCosets(G, x.levels[1]).slot
    return pull_push_table(x.face(2, left), x.face(2, right), x.face(2, 1),
                           (slot,) * 3)


@pytest.mark.parametrize("case", SPAN_CASES)
def test_the_algebra_is_read_off_the_hecke_waldhausen_span(case):
    # the levels and faces that segal-check certifies give hecke-table's
    # constants
    G, H = SPAN_CASES[case]()
    assert _span_table(G, H) == HeckeAlgebra(G, H).constants


def test_swapped_legs_give_the_opposite_algebra():
    # H(S4,S2) is not commutative, so the orientation d_0, d_2 is pinned
    S4 = symmetric_group(4)
    H = symmetric_subgroup(S4, 2)
    constants = HeckeAlgebra(S4, H).constants
    swapped = _span_table(S4, H, left=2, right=0)
    assert swapped == {(b, a): row for (a, b), row in constants.items()}
    assert swapped != constants


def _middle_face(G, H, P):
    """d_1: Y_1 -> Y_0 of the module on H\\G/P, as HeckeModule builds it."""
    gp, gh = Cosets(G, P), Cosets(G, H)
    return face(CosetLevel(G, [gp, gh, gh], "Y1"),
                CosetLevel(G, [gp, gh], "Y0"), 1)


@pytest.mark.parametrize(
    "g, h, p", ORACLE_INPUTS,
    ids=["/".join(filter(None, x)) for x in ORACLE_INPUTS])
def test_extremal_faithful_matches_the_faithfulness_oracle(g, h, p):
    G = named_group(g)
    H = named_subgroup(G, h)
    alg = HeckeAlgebra(G, H)
    for mod in [alg.regular] + ([HeckeModule(alg, named_subgroup(G, p))]
                                if p else []):
        assert mod.extremal_faithful == is_faithful(
            _middle_face(G, H, mod.P)), mod.P.name


def test_a_face_with_a_fill_is_unfaithful():
    # the trivial group map on d_1 of the module of H(S4,S2) on
    # H\S4/S3, whose objects have nontrivial stabilisers
    S4 = symmetric_group(4)
    middle = _middle_face(S4, symmetric_subgroup(S4, 2),
                          symmetric_subgroup(S4, 3))
    filled = GMap(middle.src, middle.tgt, None, name="d_1 filled",
                  fill=S4.identity, plan=middle.plan, block=middle.block)
    assert middle.passes_through and is_faithful(middle)
    assert not filled.passes_through and not is_faithful(filled)
