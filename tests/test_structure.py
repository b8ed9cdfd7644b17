"""Light's test (`hallalg.structure`) against the check over every basis
triple (`oracles.structure`): the same verdict and the same counterexample
on the Hall and Hecke tables, on their modules and on perturbed copies."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from hallalg import BudgetExceededError
from hallalg.cli import run
from hallalg.groups import named_group, named_subgroup
from hallalg.hall import check_associativity, hall_constants
from hallalg.protoab import AbelianPGroups, F1FreeG, VectFq
from hallalg.structure import (PRIME, StructureTable, check_action,
                               check_algebra, spanning_set)
from hallalg.waldhausen.hecke import HeckeAlgebra, HeckeModule
from oracles import structure as oracle

HALL = {
    **{f"ab-p:2:{b}": (lambda b=b: AbelianPGroups(2, b))
       for b in (1, 2, 4, 8, 16, 32, 64)},
    "vect-fq:2:4": lambda: VectFq(2, 4), "vect-fq:3:3": lambda: VectFq(3, 3),
    "f1-free:cyclic:2:6": lambda: F1FreeG(named_group("cyclic:2"), 6),
    "f1-free:cyclic:3:5": lambda: F1FreeG(named_group("cyclic:3"), 5)}
HECKE = [("sym:3", "sym:2"), ("sym:4", "sym:3"), ("sym:4", "sym:2"),
         ("sym:5", "trivial"), ("cyclic:12", "trivial")]
# every (G, H, P) of a module in tests/test_hecke.py
MODULES = [("sym:3", "sym:2", "sym:2"), ("sym:3", "sym:2", "all"),
           ("sym:3", "sym:2", "alt:3"), ("sym:4", "sym:3", "young:2+2"),
           ("sym:4", "sym:3", "sym:2"), ("sym:4", "sym:2", "sym:3"),
           ("sym:4", "young:2+2", "sym:3"), ("sym:5", "sym:3", "sym:4")]


@cache
def _hall(name):
    return hall_constants(HALL[name]())


@cache
def _hecke(g, h):
    G = named_group(g)
    return HeckeAlgebra(G, named_subgroup(G, h))


@cache
def _module(g, h, p):
    alg = _hecke(g, h)
    return HeckeModule(alg, named_subgroup(alg.G, p))


@pytest.mark.parametrize("name", HALL)
def test_hall_tables_agree_with_the_triple_oracle(name):
    table = _hall(name)
    assert check_associativity(table) == oracle.check_algebra(
        table, table.inst.zero_key()) == (True, None)


@pytest.mark.parametrize("g, h", HECKE, ids=map("/".join, HECKE))
def test_hecke_algebras_agree_with_the_triple_oracle(g, h):
    alg = _hecke(g, h)
    assert alg.check_associativity_and_unit() == oracle.check_algebra(
        alg.regular, alg.unit_index) == (True, None)


@pytest.mark.parametrize("g, h, p", MODULES, ids=map("/".join, MODULES))
def test_hecke_modules_agree_with_the_triple_oracle(g, h, p):
    mod = _module(g, h, p)
    assert mod.check_module_axioms() == oracle.check_action(
        mod.alg.regular, mod, mod.alg.unit_index) == (True, None)


@pytest.mark.parametrize("table, want", [
    (lambda: _hall("ab-p:2:32"), [(1,) * r for r in range(1, 6)]),
    (lambda: _hall("vect-fq:2:4"), [1]),
    (lambda: _hall("vect-fq:3:3"), [1]),
    (lambda: _hall("f1-free:cyclic:3:5"), [1]),
    (lambda: _hecke("sym:4", "sym:2").regular, 2),
    (lambda: _hecke("sym:5", "trivial").regular, 4),
    (lambda: _hecke("sym:6", "sym:3").regular, 3)],
    ids=["ab-p:2:32", "vect-fq:2", "vect-fq:3", "f1-free:cyclic:3",
         "sym:4/sym:2", "sym:5/trivial", "sym:6/sym:3"])
def test_the_greedy_spanning_sets(table, want):
    # u_(1^r) generate the Hall algebra of abelian p-groups (Macdonald,
    # ch. II-III), [1] that of F_q and delta_1 that of F_1[G]
    t = table()
    unit = t.inst.zero_key() if hasattr(t, "inst") else t.alg.unit_index
    gens = spanning_set(t, unit)
    assert (gens if isinstance(want, list) else len(gens)) == want


def test_a_denominator_that_the_prime_divides_falls_back_to_every_triple():
    # unit 0 and x = 1 with x.x = c y, y = 2, and every other product 0:
    # c = 1/2 reduces through the inverse of 2 mod PRIME, and {x} spans;
    # a denominator of PRIME does not reduce, and S is the whole basis
    constants = {(a, b): {a + b: 1} if 0 in (a, b) else {}
                 for a in range(3) for b in range(3)}
    constants[(1, 1)] = {2: Fraction(1, 2)}
    t = StructureTable(constants)
    assert spanning_set(t, 0) == [1]
    t.constants[(1, 1)] = {2: Fraction(1, PRIME)}
    assert spanning_set(t, 0) == [0, 1, 2]
    # nor does a product outside the basis, whose span rank n would miss
    t.constants[(1, 1)] = {3: 1}
    assert spanning_set(t, 0) == [0, 1, 2]
    # without the left unit at x, x.x = 0 leaves the rank at 2
    t.constants[(0, 1)], t.constants[(1, 1)] = {}, {}
    assert spanning_set(t, 0) == [0, 1, 2]


def _perturbed_cases():
    cases = [("hall", n) for n in ("ab-p:2:16", "vect-fq:2:4",
                                   "f1-free:cyclic:2:6")]
    cases += [("hecke", gh) for gh in (("sym:3", "sym:2"),
                                       ("sym:4", "sym:2"),
                                       ("sym:3", "trivial"))]
    return cases


def _table(case):
    kind, key = case
    if kind == "hall":
        t = _hall(key)
        return t, t.inst.zero_key()
    alg = _hecke(*key)
    return alg.regular, alg.unit_index


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_perturbed_cases()), st.data())
def test_one_perturbed_constant_gives_the_oracles_verdict(case, data):
    table, unit = _table(case)
    keys = [(ab, c) for ab, row in table.constants.items() for c in row]
    ab, c = data.draw(st.sampled_from(keys))
    constants = {k: dict(row) for k, row in table.constants.items()}
    constants[ab][c] += data.draw(st.sampled_from((1, -1)))
    t = StructureTable(constants)
    assert check_algebra(t, unit) == oracle.check_algebra(t, unit)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(MODULES[:7]), st.booleans(), st.data())
def test_one_perturbed_module_or_algebra_constant_gives_the_oracles_verdict(
        ghp, in_module, data):
    mod = _module(*ghp)
    alg = mod.alg
    table = mod if in_module else alg.regular
    keys = [(ab, c) for ab, row in table.constants.items() for c in row]
    ab, c = data.draw(st.sampled_from(keys))
    d = data.draw(st.sampled_from((1, -1)))
    table.constants[ab][c] += d
    try:
        assert mod.check_module_axioms() == oracle.check_action(
            alg.regular, mod, alg.unit_index)
    finally:
        table.constants[ab][c] -= d


def test_a_module_over_a_non_associative_algebra_reads_every_triple():
    # the group algebra of S3 with a.b raised at a row (a, b) whose a is
    # outside the spanning set: on the module H\S3/1, whose table is kept
    # apart from the algebra's, only that row fails, so the rows (s, b)
    # alone would certify the module; they read 2 (36 + 36) triples, fewer
    # than the 6^3 of every row, so only the algebra's verdict stops them
    G = named_group("sym:3")
    alg = HeckeAlgebra(G, named_subgroup(G, "trivial"))
    mod = HeckeModule(alg, named_subgroup(G, "trivial"))
    gens = spanning_set(alg.regular, alg.unit_index)
    assert (alg.labels[3], gens) == ("(1, 2, 0)", [1, 2])
    (c,) = alg.constants[(3, 1)]
    alg.constants[(3, 1)][c] += 1
    assert not alg.check_associativity_and_unit()[0]
    assert check_action(alg.regular, mod, alg.unit_index, gens) == (True, None)
    want = (False, {"triple": ("3", "1", "0"), "lhs": {"2": 2},
                    "rhs": {"2": 1}})
    assert mod.check_module_axioms() == oracle.check_action(
        alg.regular, mod, alg.unit_index) == want


def test_the_check_counts_its_triples_against_the_budget():
    alg = _hecke("sym:5", "trivial")
    check_algebra(alg.regular, alg.unit_index, budget=120 ** 2 * 4)
    with pytest.raises(BudgetExceededError, match="reads 57600 basis "
                                                  "triples, over the budget"):
        check_algebra(alg.regular, alg.unit_index, budget=57599)


def test_hecke_triples_over_the_budget_exit_2(capsys):
    # the apex block, 120^2 objects, passes a budget of 20000; the check's
    # 120^2 rows times |S| = 4 do not
    assert run("hecke-table --G sym:5 --H trivial --budget 20000".split()) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: the associativity check of the Hecke algebra of "
            "(sym:5,trivial) reads 57600 basis triples, over the budget of "
            "20000\n")
    # H(S4,S2) on S2\S4: the apex block has 144 objects, the algebra's check
    # 7^2 rows times |S| = 2 triples, and the module's the 2 * 7 rows (s, b)
    # times 12 basis elements
    assert run("hecke-module --G sym:4 --H sym:2 --P trivial --budget 150"
               .split()) == 2
    assert capsys.readouterr().err == (
        "error: the module check of the Hecke algebra of (sym:4,sym:2) on "
        "H\\G/trivial reads 168 basis triples, over the budget of 150\n")
