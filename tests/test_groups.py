import json
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from hallalg import UsageError
from hallalg.cli import run
from hallalg.groups import (FiniteGroup, TupleGroup, all_perms,
                            alternating_subgroup, cyclic_group,
                            dihedral_group, direct_product, klein_group,
                            named_group, named_subgroup, perm_inv, perm_mul,
                            perm_sign, symmetric_group, symmetric_subgroup,
                            trivial_group, young_subgroup)
from oracles.groups import (associativity_failure, cayley_table,
                            conjugacy_classes, power_inverse, row_swaps,
                            swapped_table, walked_exponent,
                            walked_generators, walked_order)
from oracles.schurweyl import abelianization_order
from oracles.wreath import cycle_type


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
    classes = conjugacy_classes(S4)
    assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]
    assert sum(len(c) for c in classes) == 24


def test_subgroups():
    S4 = symmetric_group(4)
    assert symmetric_subgroup(S4, 3).order == 6
    assert alternating_subgroup(S4).order == 12
    assert young_subgroup(S4, [2, 2]).order == 4
    with pytest.raises(UsageError):
        S4.subgroup([S4.elements[1]])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_named_subgroups_of_sym_are_subgroups(n):
    # these specs skip the closure check: they are subgroups by
    # construction, which the check confirms here
    G = named_group(f"sym:{n}")
    specs = ([f"sym:{k}" for k in range(n + 1)]
             + [f"young:{k}+{n - k}" for k in range(1, n)]
             + ["young:" + "+".join(["1"] * n), f"alt:{n}", "all",
                "trivial"])
    for spec in specs:
        H = named_subgroup(G, spec)
        assert H.subgroup_of is G and G.is_subgroup(H.elements), spec


def test_an_indices_spec_that_is_no_subgroup_exits_2(capsys):
    # indices: is outside input, so its closure is still checked
    G = symmetric_group(4)
    with pytest.raises(UsageError, match="not a subgroup"):
        named_subgroup(G, "indices:0,1,2")
    assert run(["segal-check", "--construction", "hecke", "--G", "sym:4",
                "--H", "indices:0,1,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not a subgroup" in captured.err


@pytest.mark.parametrize("G, spec", [
    ("cyclic:3", "alt:3"), ("cyclic:3", "sym:1"), ("cyclic:3", "young:1+2"),
    ("dihedral:4", "sym:2"), ("product:(sym:3,cyclic:2)", "sym:2"),
    ("klein", "alt:2")])
def test_permutation_specs_on_other_groups_exit_2(capsys, G, spec):
    # sym:, alt: and young: read a token as a permutation; on ints they
    # raised a TypeError (exit 3), on dihedral pairs sym:2 took all of D8
    with pytest.raises(UsageError, match="only in a permutation group"):
        named_subgroup(named_group(G), spec)
    assert run(["hecke-table", "--G", G, "--H", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is defined only in a permutation group" in captured.err


def test_exponent_abelianization():
    assert cyclic_group(6).exponent() == 6
    assert klein_group().exponent() == 2
    assert abelianization_order(symmetric_group(3)) == 2
    assert abelianization_order(alternating_subgroup(symmetric_group(4))) == 3
    assert abelianization_order(cyclic_group(4)) == 4


def test_generators_generate():
    for g in (symmetric_group(4), dihedral_group(5), klein_group(),
              direct_product(cyclic_group(2), cyclic_group(4))):
        assert len(g.subgroup_closure(g.generators())) == g.order


def test_cayley_roundtrip(tmp_path):
    D4 = dihedral_group(4)
    data = {"order": D4.order,
            "table": [[D4.index[D4.op(a, b)] for b in D4.elements]
                      for a in D4.elements]}
    G = FiniteGroup.from_cayley(json.loads(json.dumps(data)))
    assert G.order == 8
    assert len(conjugacy_classes(G)) == 5
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


def _groups_the_tests_build():
    groups = [named_group(spec) for spec in (
        *[f"cyclic:{n}" for n in range(1, 17)], "cyclic:60", "cyclic:120",
        *[f"dihedral:{n}" for n in range(1, 9)],
        *[f"sym:{n}" for n in range(6)], *[f"alt:{n}" for n in range(3, 7)],
        "klein", "trivial", "product:(cyclic:2,cyclic:3)",
        "product:(product:(cyclic:2,sym:3),cyclic:3)")]
    S4 = symmetric_group(4)
    groups += [symmetric_subgroup(S4, 2), alternating_subgroup(S4),
               named_subgroup(S4, "young:2+2"), named_subgroup(S4, "trivial")]
    D4 = dihedral_group(4)
    groups.append(FiniteGroup.from_cayley({"order": 8, "table": [
        [D4.index[D4.op(a, b)] for b in D4.elements] for a in D4.elements]}))
    return groups


def test_one_walk_per_cyclic_subgroup_matches_the_walk_per_element():
    for G in _groups_the_tests_build():
        assert all(G.inv(e) == power_inverse(G, e) for e in G.elements), G
        assert all(G.element_order(e) == walked_order(G, e)
                   for e in G.elements), G
        assert G.exponent() == walked_exponent(G), G
        if not isinstance(G, TupleGroup):     # generated by its factors
            assert G.generators() == walked_generators(G), G


def test_cyclic_10000_builds_with_its_generators_at_once():
    start = perf_counter()
    G = cyclic_group(10_000)
    assert (G.generators(), G.exponent()) == ((1,), 10_000)
    assert G.inv(1) == 9_999 and G.element_order(2) == 5_000
    assert perf_counter() - start < 0.5


def test_symmetric_groups_are_groups():
    # sym:n, cyclic:n and dihedral:n skip the axiom check; their products
    # are checked here
    for n in range(6):
        FiniteGroup(all_perms(n), perm_mul, check=True)
    for G in ([cyclic_group(n) for n in range(1, 131)]
              + [dihedral_group(n) for n in range(1, 9)]):
        FiniteGroup(G.elements, G.op, name=G.name, check=True)


# group tables of order <= 6, as they are (swap None) and with every
# one-row swap that keeps the identity; no such swap is associative
BASES = {f"cyclic:{n}": cyclic_group(n) for n in range(3, 7)} | {
    "klein": klein_group(), "sym:3": symmetric_group(3)}
TABLES = {name: cayley_table(G) for name, G in BASES.items()}
SWAPPED = [(name, swap) for name, G in BASES.items()
           for swap in [None] + row_swaps(G)]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(SWAPPED))
def test_light_test_refuses_exactly_the_non_associative_tables(case):
    name, swap = case
    table = swapped_table(TABLES[name], *swap) if swap else TABLES[name]
    n = len(table)
    failure = associativity_failure(range(n), lambda a, b: table[a][b])
    try:
        FiniteGroup.from_cayley({"order": n, "table": table})
    except UsageError:
        assert failure is not None, (name, swap)
    else:
        assert failure is None, (name, swap, failure)


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


@pytest.mark.parametrize("spec", [
    ("sym:3", "cyclic:2", "sym:3"), ("dihedral:4",), (), "klein",
    "product:(product:(cyclic:2,sym:3),cyclic:3)",
    ("cyclic:3", "trivial", "klein")],
    ids=["s3xc2xs3", "one-factor", "empty", "klein", "nested",
         "trivial-factor"])
def test_tuple_group_identity_and_inverses_match_the_search(spec):
    """A product group takes its identity, inverses, product and
    generators from its factors; the search of FiniteGroup(check=True)
    over the listed elements is the oracle."""
    P = (named_group(spec) if isinstance(spec, str)
         else TupleGroup([named_group(f) for f in spec], "P"))
    assert "elements" not in vars(P)
    Q = FiniteGroup(P.elements, P.op, name="Q", check=True)
    assert P.identity == Q.identity
    assert all(P.inv(e) == Q.inv(e) for e in P.elements)
    assert all(P.op(a, b) in Q.index
               and P.op(a, b) == tuple(K.op(x, y) for K, x, y
                                       in zip(P.factors, a, b))
               for a in P.elements for b in P.elements)
    assert P.order == Q.order
    assert len(Q.subgroup_closure(P.generators())) == Q.order
    if isinstance(spec, str):
        # a named product is a direct product of two, in the pair order
        G, H = P.factors
        assert P.elements == [(g, h) for g in G.elements for h in H.elements]

