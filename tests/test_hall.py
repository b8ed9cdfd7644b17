from math import comb

import pytest

from hallalg import BudgetExceededError, UsageError
from hallalg.groups import cyclic_group, symmetric_group, trivial_group
from hallalg.hall import (check_associativity, divided_powers_iso_check,
                          hall_constants, hall_product, hall_product_via_span)
from hallalg.protoab import AbelianPGroups, F1FreeG, VectFq
from hallalg.waldhausen import s_construction
from oracles.protoab import subobject_types


def _constant(table, a, b, c):
    return table.constants.get((a, b), {}).get(c, 0)


@pytest.fixture(scope="module")
def table_vf2():
    return hall_constants(VectFq(2, 2))


@pytest.fixture(scope="module")
def table_ab2():
    return hall_constants(AbelianPGroups(2, 16))


def test_structure_constants_examples(table_vf2, table_ab2):
    assert _constant(table_vf2, 1, 1, 2) == 3
    assert _constant(table_ab2, (1,), (1,), (2,)) == 1
    assert _constant(table_ab2, (1,), (1,), (1, 1)) == 3
    t = hall_constants(F1FreeG(cyclic_group(2), 5))
    for n in range(6):
        for m in range(6 - n):
            assert _constant(t, n, m, n + m) == comb(n + m, n)


def test_hall_polynomial_at_q(table_vf2):
    # g^{F_q^2}_{1,1} = q + 1 at q = 2, 3, by enumeration
    assert _constant(table_vf2, 1, 1, 2) == 3
    assert _constant(hall_constants(VectFq(3, 2)), 1, 1, 2) == 4


def test_products_and_unit(table_vf2):
    assert hall_product(table_vf2, {1: 1}, {1: 1}) == {2: 3}
    assert hall_product(table_vf2, {0: 1}, {2: 7}) == {2: 7}
    assert hall_product(table_vf2, {2: 7}, {0: 1}) == {2: 7}
    with pytest.raises(UsageError):
        hall_product(table_vf2, {9: 1}, {0: 1})
    with pytest.raises(BudgetExceededError):
        hall_product(table_vf2, {2: 1}, {1: 1})


def test_grading(table_ab2):
    for (n, l), row in table_ab2.constants.items():
        for m, g in row.items():
            assert sum(m) == sum(n) + sum(l)
            assert g > 0


def test_associativity_steinitz(table_ab2):
    ok, wit = check_associativity(table_ab2)
    assert ok, wit


def test_associativity_catches_corruption():
    t = hall_constants(F1FreeG(trivial_group(), 3))
    t.constants[(2, 1)][3] += 1    # perturb g^{(3)}_{(2),(1)}
    ok, wit = check_associativity(t)
    assert not ok and "triple" in wit


@pytest.mark.parametrize("row", [(1, 0), (0, 1)])
def test_a_broken_unit_row_is_a_unit_failure(row):
    # [1].[0] is caught by the right-unit test, [0].[1] by the action check
    t = hall_constants(F1FreeG(trivial_group(), 3))
    t.constants[row] = {1: 2}
    ok, wit = check_associativity(t)
    assert not ok and wit == {"unit_failure": "1"}


def test_divided_powers():
    for G in (trivial_group(), cyclic_group(2), cyclic_group(3)):
        ok, detail = divided_powers_iso_check(G, 6)
        assert ok, detail


def test_route_equivalence_small():
    v = VectFq(2, 2)
    tv = hall_constants(v)
    for a in tv.basis:
        for b in tv.basis:
            if a + b > 2:
                continue
            assert hall_product(tv, {a: 1}, {b: 1}) == \
                hall_product_via_span(v, 2, {a: 1}, {b: 1})
    f1 = F1FreeG(trivial_group(), 2)
    tf = hall_constants(f1)
    assert hall_product_via_span(f1, 2, {1: 1}, {1: 1}) == {2: 2}
    assert hall_product_via_span(f1, 2, {0: 1}, {0: 1}) == {0: 1}


def _raised(error, call):
    with pytest.raises(error) as exc:
        call()
    return str(exc.value)


def test_span_route_refuses_what_the_table_refuses():
    # F1[C2] at bound 2: a class outside X_1, and a product past the bound;
    # both routes are StructureTable products and raise the same text
    inst = F1FreeG(cyclic_group(2), 2)
    table = hall_constants(inst)
    for f, g, error, text in (
            ({3: 1}, {0: 1}, UsageError, "class 3 outside the table basis"),
            ({0: 1}, {3: 1}, UsageError, "class 3 outside the table basis"),
            ({2: 1}, {1: 1}, BudgetExceededError,
             "product of 2 and 1 is past the table's truncation"),
            ({1: 1}, {2: 0}, BudgetExceededError,
             "product of 1 and 2 is past the table's truncation")):
        assert _raised(error, lambda: hall_product(table, f, g)) == text
        assert _raised(error, lambda: hall_product_via_span(
            inst, 2, f, g)) == text


SPAN_INSTANCES = {
    "f1-c2-2": lambda: F1FreeG(cyclic_group(2), 2),
    "f1-s3-2": lambda: F1FreeG(symmetric_group(3), 2),
    "ab-p-3-9": lambda: AbelianPGroups(3, 9),
    "vect-f3-2": lambda: VectFq(3, 2),
}


@pytest.mark.parametrize("name", SPAN_INSTANCES)
def test_span_route_matches_the_table_on_every_basis_pair(name):
    # a pair within the bound has the same product, and a pair past it the
    # same refusal
    inst = SPAN_INSTANCES[name]()
    table = hall_constants(inst)
    x = s_construction(inst, depth=2)
    bound = max(map(inst.size_of, table.basis))
    for a in table.basis:
        for b in table.basis:
            f, g = {a: 1}, {b: 1}

            def span():
                return hall_product_via_span(inst, bound, f, g, simplicial=x)

            if inst.size_of(a) + inst.size_of(b) <= bound:
                assert span() == hall_product(table, f, g), (a, b)
            else:
                assert _raised(BudgetExceededError, span) == _raised(
                    BudgetExceededError, lambda: hall_product(table, f, g))


def test_span_route_below_the_instance_bound():
    # F1[C2] to rank 2 read at bound 1: rank 2 is outside the table, and
    # 1 + 1 past its truncation, as in the table of F1[C2] to rank 1
    inst = F1FreeG(cyclic_group(2), 2)
    for f, g in (({2: 1}, {0: 1}), ({0: 1}, {2: 1})):
        with pytest.raises(UsageError, match="class 2 outside"):
            hall_product_via_span(inst, 1, f, g)
    with pytest.raises(BudgetExceededError, match="product of 1 and 1 is"):
        hall_product_via_span(inst, 1, {1: 1}, {1: 1})
    small = hall_constants(F1FreeG(cyclic_group(2), 1))
    for a, b in ((0, 0), (0, 1), (1, 0)):
        assert hall_product_via_span(inst, 1, {a: 1}, {b: 1}) == \
            hall_product(small, {a: 1}, {b: 1})


def test_table_json(table_vf2):
    js = table_vf2.to_json()
    assert js["family"] == "vect-fq"
    assert {"N": "1", "L": "1", "M": "2", "g": 3} in js["constants"]


def test_route_equivalence_p_groups():
    # the span route sees the non-split extension count too
    ab = AbelianPGroups(2, 4)
    t = hall_constants(ab)
    assert hall_product_via_span(ab, 2, {(1,): 1}, {(1,): 1}) == \
        {(2,): 1, (1, 1): 3}
    for a in t.basis:
        for b in t.basis:
            if ab.size_of(a) + ab.size_of(b) > 2:
                continue
            assert hall_product(t, {a: 1}, {b: 1}) == \
                hall_product_via_span(ab, 2, {a: 1}, {b: 1})


def test_span_route_refuses_a_non_integral_constant(monkeypatch):
    import hallalg.hall as hall
    real = hall.pull_push_table

    def halved(*args, **kwargs):
        return {k: {c: v / 2 for c, v in row.items()}
                for k, row in real(*args, **kwargs).items()}

    monkeypatch.setattr(hall, "pull_push_table", halved)
    with pytest.raises(ArithmeticError,
                       match="non-integral Hall constant 1/2 at class 1"):
        hall_product_via_span(VectFq(2, 1), 1, {1: 1}, {0: 1})


ORACLE_INSTANCES = {
    "ab-p-2-32": lambda: AbelianPGroups(2, 32),
    "ab-p-3-27": lambda: AbelianPGroups(3, 27),
    "ab-p-5-25": lambda: AbelianPGroups(5, 25),
    "vect-f2-4": lambda: VectFq(2, 4),
    "vect-f3-3": lambda: VectFq(3, 3),
    "f1-c2-4": lambda: F1FreeG(cyclic_group(2), 4),
    "f1-s3-4": lambda: F1FreeG(symmetric_group(3), 4),
}


@pytest.mark.parametrize("name", ORACLE_INSTANCES)
def test_closed_forms_match_subobject_counts(name):
    inst = ORACLE_INSTANCES[name]()
    classes = inst.iso_classes()
    for m in classes:
        types = subobject_types(inst, m)
        for l in classes:
            for n in classes:
                assert inst.hall_constant(n, l, m) == types[l, n], (m, l, n)
    table = hall_constants(inst)
    assert all(_constant(table, n, l, m) == inst.hall_constant(n, l, m)
               for m in classes for l in classes for n in classes)


# every type within the order cap 64, order 64 itself included at p = 2
_AB64 = {p: AbelianPGroups(p, 64) for p in (2, 3, 5)}
_AB64_TYPES = [(p, m) for p, inst in _AB64.items()
               for m in inst.iso_classes()]


def test_hall_polynomials_match_subgroup_counts():
    assert len(_AB64_TYPES) == 41
    for p, m in _AB64_TYPES:
        inst = _AB64[p]
        below = [c for c in inst.iso_classes() if sum(c) <= sum(m)]
        types = subobject_types(inst, m)
        for l in below:
            for n in below:
                assert inst.hall_constant(n, l, m) == types[l, n], \
                    (p, m, l, n)


def test_bound_64_table_is_associative():
    table = hall_constants(AbelianPGroups(2, 64))
    assert len(table.basis) == 30
    ok, wit = check_associativity(table)
    assert ok, wit


def test_delta_outside_the_basis_raises(table_vf2):
    for f, g in (({9: 1}, {0: 1}), ({0: 1}, {5: 1})):
        with pytest.raises(UsageError, match="outside the table basis"):
            hall_product(table_vf2, f, g)


def test_divided_powers_check_compares_enumerated_counts(monkeypatch):
    real = F1FreeG.subobjects_with_type

    def miscounted(self, m, l, n):
        return real(self, m, l, n) + (1 if (m, l, n) == (3, 1, 2) else 0)

    monkeypatch.setattr(F1FreeG, "subobjects_with_type", miscounted)
    ok, detail = divided_powers_iso_check(cyclic_group(2), 3)
    assert not ok and (detail["M"], detail["L"], detail["N"]) == (3, 1, 2)
    assert detail["group"] == "cyclic:2"
