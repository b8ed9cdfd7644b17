import json

import pytest

from hallalg import UsageError
from hallalg.groups import (FiniteGroup, all_perms, alternating_subgroup,
                            cyclic_group, cycle_type, dihedral_group,
                            direct_product, klein_group, named_group,
                            named_subgroup, perm_inv, perm_mul, perm_sign,
                            symmetric_group,
                            symmetric_subgroup, trivial_group, young_subgroup)


def test_basic_families():
    assert cyclic_group(5).order == 5
    assert symmetric_group(4).order == 24
    assert dihedral_group(6).order == 12
    assert klein_group().order == 4
    assert trivial_group().order == 1


def test_perm_helpers():
    p = (1, 2, 0)
    assert perm_mul(p, perm_inv(p)) == (0, 1, 2)
    assert perm_sign(p) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert cycle_type((1, 0, 3, 2)) == (2, 2)


def test_conjugacy_classes_s4():
    S4 = symmetric_group(4)
    classes = S4.conjugacy_classes()
    assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]
    assert sum(len(c) for c in classes) == 24


def test_subgroups():
    S4 = symmetric_group(4)
    assert symmetric_subgroup(S4, 3).order == 6
    assert alternating_subgroup(S4).order == 12
    assert young_subgroup(S4, [2, 2]).order == 4
    with pytest.raises(UsageError):
        S4.subgroup([S4.elements[1]])


def test_exponent_abelianization():
    assert cyclic_group(6).exponent() == 6
    assert klein_group().exponent() == 2
    assert symmetric_group(3).abelianization_order() == 2
    assert alternating_subgroup(symmetric_group(4)).abelianization_order() == 3
    assert cyclic_group(4).abelianization_order() == 4


def test_generators_generate():
    for g in (symmetric_group(4), dihedral_group(5), klein_group(),
              direct_product(cyclic_group(2), cyclic_group(4))):
        assert len(g.subgroup_closure(g.generators())) == g.order


def test_cayley_roundtrip(tmp_path):
    D4 = dihedral_group(4)
    data = D4.cayley_json()
    G = FiniteGroup.from_cayley(json.loads(json.dumps(data)))
    assert G.order == 8
    assert len(G.conjugacy_classes()) == 5
    path = tmp_path / "d4.json"
    path.write_text(json.dumps(data))
    G2 = named_group(f"file:{path}")
    assert G2.order == 8


def test_bad_cayley_rejected():
    with pytest.raises(UsageError):
        FiniteGroup.from_cayley({"order": 2, "table": [[0, 1]]})
    with pytest.raises(UsageError):
        FiniteGroup.from_cayley({"order": 2, "table": [[0, 5], [1, 0]]})
    bad = [
        [[0, 1, 2], [1, 0, 0], [2, 0, 0]],    # 1 and 2 both invert 1
        [[1, 2, 0], [2, 0, 1], [0, 2, 1]],    # no identity
        [[0, 1, 2], [1, 2, 2], [2, 0, 1]],    # 1 has no inverse
        [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],    # a loop, not associative
    ]
    for table in bad:
        with pytest.raises(UsageError):
            FiniteGroup.from_cayley({"order": len(table), "table": table})
    for data in ([[0]], {"order": 1}, {"order": 0, "table": []},
                 {"order": 1, "table": 0}, {"order": 1, "table": [0]}):
        with pytest.raises(UsageError):
            FiniteGroup.from_cayley(data)


def test_unreadable_cayley_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text("not json")
    for spec in (f"file:{path}", f"file:{tmp_path / 'missing.json'}"):
        with pytest.raises(UsageError):
            named_group(spec)


def test_inverses_by_powering():
    for G in (symmetric_group(4), dihedral_group(5), cyclic_group(7),
              direct_product(cyclic_group(2), symmetric_group(3))):
        for g in G.elements:
            assert G.op(g, G.inv(g)) == G.identity == G.op(G.inv(g), g)


def test_symmetric_groups_are_groups():
    # sym:n skips the axiom scan; permutation composition is checked here
    for n in range(6):
        FiniteGroup(all_perms(n), perm_mul, check=True)


def test_named_specs():
    assert named_group("product:(cyclic:2,cyclic:3)").order == 6
    assert named_group("klein").is_abelian()
    assert named_group("alt:4").order == 12
    with pytest.raises(UsageError):
        named_group("nonsense:3")
    S3 = named_group("sym:3")
    assert named_subgroup(S3, "sym:2").order == 2
    assert named_subgroup(S3, "trivial").order == 1
    assert named_subgroup(S3, "alt:3").order == 3
    with pytest.raises(UsageError):
        named_subgroup(S3, "sym:9")
