"""S-construction levels from first rows, against the search oracle.

Each level lists its first rows, walks them once under row 0's
automorphisms, checks the closed count, completes one first row per
component and transports that completion, and moves it onto every other
row of the component; faces and degeneracies are read off position plans.
Here both are compared with the oracles of `tests/oracles/sconstruction.py`:
the search over every class, epi and mono at each entry, the level built
one first row at a time, and the triangle-by-triangle images."""

import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hallalg import BudgetExceededError
from hallalg.cli import run
from hallalg.groupoid import Groupoid, fiber
from hallalg.groups import cyclic_group, symmetric_group, trivial_group
from hallalg.protoab import AbelianPGroups, F1FreeG, VectFq
from hallalg.waldhausen import (check_2segal_degree3, check_pointed,
                                check_simplicial_identities, sconstruction)
from hallalg.waldhausen.sconstruction import (TriangleCompletionError,
                                              TriangleGroupoid, _layout,
                                              s_construction)
from oracles.sconstruction import (degeneracy_triangle, enumerate_triangles,
                                   face_triangle, per_row_level,
                                   token_aut_group, token_triangle)

ROOT = Path(__file__).resolve().parents[1]

INSTANCES = {
    "vect-f2-2": lambda: VectFq(2, 2),
    "f1-trivial-2": lambda: F1FreeG(trivial_group(), 2),
    "f1-c2-2": lambda: F1FreeG(cyclic_group(2), 2),
    "f1-c3-2": lambda: F1FreeG(cyclic_group(3), 2),
    "ab-p-2-4": lambda: AbelianPGroups(2, 4),
}

_BUILT = {}


def built(name):
    """(instance, S-construction to degree 3, oracle triangles per level),
    once per test session."""
    if name not in _BUILT:
        inst = INSTANCES[name]()
        x = s_construction(inst, depth=3)
        _BUILT[name] = inst, x, [enumerate_triangles(inst, n)
                                 for n in range(4)]
    return _BUILT[name]


def decoded(level):
    """The level's triangles with their maps decoded to tokens."""
    return [token_triangle(level, i) for i in range(level.n_objects)]


@pytest.mark.parametrize("name", list(INSTANCES))
def test_levels_are_the_oracle_triangles(name):
    _, x, oracle = built(name)
    for level, triangles in zip(x.levels, oracle):
        objects = decoded(level)
        assert len(set(triangles)) == len(triangles)
        assert len(set(objects)) == level.n_objects
        assert set(objects) == set(triangles), (name, level.level)
        assert level.closed_count == len(triangles) == level.n_objects
        # the int triangles are the decoded ones, with map ids
        assert [level.obj_index(t) for t in level.objects] == list(
            range(level.n_objects))


@pytest.mark.parametrize("name", list(INSTANCES))
def test_faces_and_degeneracies_are_the_oracle_images(name):
    inst, x, _ = built(name)
    for maps, image, step in ((x.faces, face_triangle, -1),
                              (x.degeneracies, degeneracy_triangle, 1)):
        for (n, k), f in maps.items():
            index = {t: j for j, t in enumerate(decoded(x.levels[n + step]))}
            assert f.table == [index[image(inst, tri, k)]
                               for tri in decoded(x.levels[n])], (name, n, k)


# every instance whose S-construction a test builds, each to the depth
# it is built to, and three larger ones
PER_ROW_INSTANCES = {
    **{name: (make, 3) for name, make in INSTANCES.items()},
    "f1-trivial-0": (lambda: F1FreeG(trivial_group(), 0), 3),
    "f1-trivial-1": (lambda: F1FreeG(trivial_group(), 1), 3),
    "f1-s3-2": (lambda: F1FreeG(symmetric_group(3), 2), 2),
    "ab-p-3-9": (lambda: AbelianPGroups(3, 9), 3),
    "vect-f3-2": (lambda: VectFq(3, 2), 3),
    "f1-c2-3": (lambda: F1FreeG(cyclic_group(2), 3), 3),
}


@pytest.mark.parametrize("name", list(PER_ROW_INSTANCES))
def test_levels_match_the_per_row_build(name):
    """The same first rows, the same triangles over each and the same
    components as the level built one first row at a time, and as the
    search over every object."""
    make, depth = PER_ROW_INSTANCES[name]
    inst = make()
    for n in range(depth + 1):
        rows, blocks, components = per_row_level(inst, n)
        level = TriangleGroupoid(inst, n)
        bounds = list(zip(level._offsets, level._offsets[1:]))
        firsts = [level.objects[lo] for lo, _ in bounds]
        assert [(tri[1][:n], tri[2][:n - 1]) for tri in firsts] == rows
        assert [set(level._keys[lo:hi]) for lo, hi in bounds] == blocks
        # the search, run first, leaves its components on the level
        bfs = Groupoid.components(level)
        comp_of, level._components = level._comp_of, None
        assert level.components() == bfs, (name, n)
        assert [c[1:] for c in bfs] == components, (name, n)
        assert level._comp_of == comp_of


class Counted:
    """A function that counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def test_each_component_is_completed_once(monkeypatch):
    complete = Counted(sconstruction._complete)
    entries = Counted(sconstruction._entries)
    monkeypatch.setattr(sconstruction, "_complete", complete)
    monkeypatch.setattr(sconstruction, "_entries", entries)
    inst = VectFq(2, 2)
    for n, components in enumerate((1, 3, 6, 10)):
        complete.calls = entries.calls = 0
        level = TriangleGroupoid(inst, n)
        assert (complete.calls, entries.calls) == (components,) * 2
        assert len(level.components()) == components
        assert sorted(map(level.component_of, level.transversal)) == list(
            range(components))


def test_aut_order_is_memoised_once_per_class():
    # mono_count is not: on a refused input its memo would hold an entry
    # per pair of classes counted
    for inst in (VectFq(2, 2), AbelianPGroups(2, 4)):
        s_construction(inst, depth=3)
        info = inst.aut_order.cache_info()
        assert info.currsize == len(inst.iso_classes()) and info.hits
        assert not hasattr(inst.mono_count, "cache_info")


def test_the_fibres_walk_at_most_one_orbit_per_component(monkeypatch):
    orbit, fibres, starts, walks = fiber._orbit, fiber._Square.fibres, [], []

    def counted_orbit(space, x, gens, seen):
        starts.append(x)
        return orbit(space, x, gens, seen)

    def counted_fibres(square):
        starts.clear()
        out = fibres(square)
        walks.append((len(starts), len(square.apex.components())))
        return out

    monkeypatch.setattr(fiber, "_orbit", counted_orbit)
    monkeypatch.setattr(fiber._Square, "fibres", counted_fibres)
    for name in ("vect-f2-2", "f1-c3-2"):
        x = s_construction(INSTANCES[name](), depth=3)
        assert check_2segal_degree3(x).ok and check_pointed(x).ok
    assert any(n for n, _ in walks)
    assert all(n <= components for n, components in walks)


def _oracle_transport(inst, level, phis, tri):
    """phis . tri by the dict views of the token triangle tri, for phis
    numbered as the level's groups number them: m: A_p -> A_q becomes
    phi_q m phi_p^-1, composed on tokens."""
    pos = {p: k for k, p in enumerate(_layout(level.level)[0])}
    groups = [token_aut_group(inst, c) for c in tri[1]]
    phis = [K.elements[a] for K, a in zip(groups, phis)]
    inv = [K.inv(phi) for K, phi in zip(groups, phis)]
    c = inst.compose

    def moved(maps, step):
        return tuple(c(c(phis[pos[step(p)]], m), inv[pos[p]])
                     for p, m in maps.items())

    return (tri.n, tri[1], moved(tri.rmono, lambda p: (p[0], p[1] + 1)),
            moved(tri.cepi, lambda p: (p[0] + 1, p[1])))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_transport_and_the_simplicial_maps_are_equivariant(data):
    inst, x, _ = built(data.draw(st.sampled_from(sorted(INSTANCES))))
    n = data.draw(st.integers(0, 3))
    level = x.levels[n]
    i = data.draw(st.integers(0, level.n_objects - 1))
    phis = tuple(data.draw(st.sampled_from(K.elements))
                 for K in level.group_at(i).factors)
    j = level.transport(phis, i)
    assert token_triangle(level, j) == _oracle_transport(
        inst, level, phis, token_triangle(level, i))
    maps = [(f, face_triangle, k) for (m, k), f in x.faces.items() if m == n]
    maps += [(f, degeneracy_triangle, k)
             for (m, k), f in x.degeneracies.items() if m == n]
    for f, image, k in maps:
        g, target = f.on_mor((phis, i))
        assert target == f.table[i]
        assert token_triangle(f.tgt, f.table[j]) == image(
            inst, token_triangle(level, j), k)
        assert f.table[j] == f.tgt.transport(g, target)


def test_one_aut_group_per_class_is_shared_by_the_levels():
    inst, x, _ = built("f1-c2-2")
    for level in x.levels:
        for i, tri in enumerate(level.objects):
            assert all(K is inst.aut_group(c) for K, c in
                       zip(level.group_at(i).factors, tri[1]))


@pytest.mark.parametrize("name", ["vect-f2-2", "f1-c2-2"])
def test_the_checks_list_no_level_group(name):
    """The level groups are products taken from their factors: the build
    and every check of segal-check read their order, identity, inverses
    and generators, and never list their elements."""
    x = s_construction(INSTANCES[name](), depth=3)
    assert check_2segal_degree3(x).ok and check_pointed(x).ok
    assert check_simplicial_identities(x).ok
    groups = {id(g): g for level in x.levels
              for g in map(level.group_at, range(level.n_objects))}
    assert groups and all("elements" not in vars(g)
                          for g in groups.values())


def test_the_closed_count_is_refused_before_any_completion(monkeypatch):
    def not_reached(*args):
        raise AssertionError("no completion may be built")

    monkeypatch.setattr(sconstruction, "_complete", not_reached)
    # 37,130 first rows of Vect F2 at dimension <= 3 carry 4,898,455
    # triangles
    with pytest.raises(BudgetExceededError,
                       match=r"level S_3\(vect-fq\): 4898455 triangles over "
                             r"37130 first rows"):
        s_construction(VectFq(2, 3), depth=3)
    # partial first rows over the budget stop the listing itself
    with pytest.raises(BudgetExceededError,
                       match=r"S_3\(vect-fq\): 13 first rows up to A_02 "
                             r"already exceed the budget of 10 triangles"):
        TriangleGroupoid(VectFq(2, 2), 3, budget=10)


def test_first_rows_are_refused_before_any_mono_is_listed(monkeypatch):
    def not_reached(*args):
        raise AssertionError("no hom may be listed")

    monkeypatch.setattr(AbelianPGroups, "_homs", not_reached)
    # Vect F2 to dimension 4: 23,137 first rows up to A_02, then
    # 462,373,581 up to A_03, counted from the closed mono counts
    with pytest.raises(BudgetExceededError,
                       match=r"level S_3\(vect-fq\): 462373581 first rows up "
                             r"to A_03 already exceed the budget of 200000 "
                             r"triangles"):
        s_construction(VectFq(2, 4), depth=3)

@pytest.mark.parametrize("bound, count, j", [
    (16, 462517018, 3), (32, 10726789, 2), (64, 20834877709, 2)])
def test_ab_p_first_rows_are_refused_from_closed_counts(monkeypatch, capsys,
                                                       bound, count, j):
    # |Aut mu| alpha_lam(mu; 2) for every pair of classes: no hom is listed
    def not_reached(*args):
        raise AssertionError("no hom may be listed")

    monkeypatch.setattr(AbelianPGroups, "_homs", not_reached)
    code = run(["segal-check", "--construction", "s", "--family",
                "ab-p-groups", "--p", "2", "--bound", str(bound)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        f"error: level S_3(ab-p-groups): {count} first rows up to A_0{j} "
        f"already exceed the budget of 200000 triangles\n")


class NoSquareFromDim2(VectFq):
    """Vect F2 with every square whose column epi leaves dimension 2
    declared not bicartesian."""

    def square_bicartesian(self, i, p, q, j):
        return q[0] != 2 and super().square_bicartesian(i, p, q, j)


class TwiceMonos1To2(VectFq):
    """Vect F2 listing each mono F2 >-> F2^2 twice, so first rows repeat."""

    def monos(self, x, y):
        maps = super().monos(x, y)
        return maps * 2 if (x, y) == (1, 2) else maps


def test_a_broken_square_or_a_repeated_triangle_is_a_named_error():
    with pytest.raises(TriangleCompletionError,
                       match=r"S_2\(vect-fq\): no map closes the square at "
                             r"rows 0, 1 and columns 1, 2 over the first row "
                             r"\(0, 2\)"):
        TriangleGroupoid(NoSquareFromDim2(2, 2), 2)
    with pytest.raises(TriangleCompletionError, match="built twice"):
        TriangleGroupoid(TwiceMonos1To2(2, 2), 2)


class OffByOneAut2(VectFq):
    """Vect F2 with a closed automorphism count of F2^2 one too many."""

    def aut_order(self, key):
        return super().aut_order(key) + (key == 2)


def test_a_closed_aut_order_that_is_not_the_listed_group_is_named():
    with pytest.raises(TriangleCompletionError,
                       match=r"^level S_2\(vect-fq\): Aut\(2\) lists 6 "
                             r"elements, but its closed count is 7$"):
        TriangleGroupoid(OffByOneAut2(2, 2), 2)
    TriangleGroupoid(VectFq(2, 2), 2)   # the unpatched counts agree


def test_the_named_errors_hold_under_python_O():
    script = (
        "import sys\n"
        "sys.path[:0] = ['src', 'tests']\n"
        "from test_sconstruction import NoSquareFromDim2, TwiceMonos1To2\n"
        "from hallalg.waldhausen.sconstruction import TriangleGroupoid\n"
        "assert False, 'asserts are stripped'\n"
        "for cls in (NoSquareFromDim2, TwiceMonos1To2):\n"
        "    try:\n"
        "        TriangleGroupoid(cls(2, 2), 2)\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__)\n")
    out = subprocess.run([sys.executable, "-O", "-c", script], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["TriangleCompletionError"] * 2
