"""Decidable 2-Segal and pointedness checks at the lowest complete degree.

For the square {0,1,2,3} the two polygonal triangulations give comparison
functors

    (d_3, d_1): X_3 -> X_2 x_{d_1, X_1, d_2} X_2      ({012}, {023})
    (d_2, d_0): X_3 -> X_2 x_{d_0, X_1, d_1} X_2      ({013}, {123})

which must be equivalences; higher conditions follow from polygon
triangulations.  Pointedness is checked through the degenerate squares at
degree <= 2:

    (s_0, d_1): X_1 -> X_2 x_{d_2, X_1, s_0} X_0
    (s_1, d_0): X_1 -> X_2 x_{d_0, X_1, s_0} X_0

Each check returns a verdict carrying a witness on failure: a comparison
that is not even well defined (corrupted faces), a missed component, or a
hom-set where the map fails to be bijective.  The fiber products are never
built.  Every square takes one path: composite_difference
(groupoid/functors.py) checks on the index tables, pulled with no
composite table built, that the comparison is defined on every object of
the apex (read on the apex's block where every map carries one, which
meets every orbit), and names the first object where it is not (a verdict
that the identity check reuses); the square is then
decided on the index tables by the table rule,
strict_pullback_equivalence (groupoid/fiber.py), which refuses a strict
pullback of more objects than the budget before it walks it, and names
the witness of a square that fails.  The faces and degeneracies of both
constructions, and of every entry of the mutation corpus, are G-maps of
action groupoids (GMap); a square of other functors is a ValueError.
"""

from .. import BudgetExceededError, Record
from ..groupoid import ActionGroupoid, Functor, GMap, composite_difference
from ..groupoid.core import DEFAULT_OBJECT_BUDGET
from ..groupoid.fiber import _orbit, strict_pullback_equivalence
from ..groups import FiniteGroup
from .simplicial import TruncatedSimplicialGroupoid


class SegalVerdict(Record):
    _fields = ("ok", "squares")

    def __init__(self, ok: bool, squares=None):
        self.ok = ok
        # (name, ok, witness) of each square
        self.squares = [] if squares is None else squares

    def __bool__(self):
        return self.ok

    @property
    def witnesses(self):
        return [{"square": n, **(w or {})} for n, okq, w in self.squares
                if not okq]

    def to_json(self):
        return {"pass": self.ok,
                "squares": [{"square": n, "pass": okq,
                             "witness": w or None}
                            for n, okq, w in self.squares],
                "witnesses": self.witnesses}


def _comparison(apex, fa: Functor, fb: Functor, leg_f: Functor,
                leg_g: Functor, budget, name):
    """Whether the canonical functor x -> (fa x, fb x, id) from the apex to
    leg_f.src x_D leg_g.src is an equivalence; returns (ok, witness).  It
    checks well-definedness on every apex object by composite_difference,
    which names the first object where leg_f fa and leg_g fb disagree,
    then decides on the tables by the table rule, within the budget."""
    if not all(isinstance(m, GMap) for m in (fa, fb, leg_f, leg_g)):
        raise ValueError(f"{name}: the faces and degeneracies must be "
                         f"G-maps")
    diff = composite_difference((leg_f, fa), (leg_g, fb))
    if diff is not None:
        i, g = diff
        if g is not None:
            raise ValueError(f"{name}: the square does not commute on "
                             f"morphisms")
        return (False, {"kind": "comparison_undefined",
                        "object": repr(apex.objects[i]),
                        "detail": "face composites disagree on objects"})
    try:
        verdict = strict_pullback_equivalence(fa, fb, leg_f, leg_g, budget)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    except BudgetExceededError as exc:
        raise BudgetExceededError(f"{name}: {exc}") from None
    return verdict.ok, verdict.witness or None


def _verdict(x, apex, squares, budget) -> SegalVerdict:
    """Decide each (name, fa, fb, leg_f, leg_g) comparison in order, and
    record in x.compared whether leg_f fa = leg_g fb, an identity of x."""
    out = [(name, *_comparison(apex, fa, fb, leg_f, leg_g, budget, name))
           for name, fa, fb, leg_f, leg_g in squares]
    for (_, fa, fb, leg_f, leg_g), (_, _, witness) in zip(squares, out):
        x.compared[(leg_f, fa), (leg_g, fb)] = (
            (witness or {}).get("kind") != "comparison_undefined")
    return SegalVerdict(all(ok for _, ok, _ in out), out)


def _need_depth(x: TruncatedSimplicialGroupoid, n):
    if x.depth < n:
        raise ValueError(f"{x.name} is truncated at degree {x.depth}; the "
                         f"check needs degree {n}")


def check_2segal_degree3(x: TruncatedSimplicialGroupoid,
                         budget=DEFAULT_OBJECT_BUDGET) -> SegalVerdict:
    _need_depth(x, 3)
    return _verdict(x, x.levels[3], [
        ("triangulation {012},{023}", x.face(3, 3), x.face(3, 1),
         x.face(2, 1), x.face(2, 2)),
        ("triangulation {013},{123}", x.face(3, 2), x.face(3, 0),
         x.face(2, 0), x.face(2, 1))], budget)


def check_pointed(x: TruncatedSimplicialGroupoid,
                  budget=DEFAULT_OBJECT_BUDGET) -> SegalVerdict:
    _need_depth(x, 2)
    return _verdict(x, x.levels[1], [
        ("unital square s_0", x.degeneracy(1, 0), x.face(1, 1),
         x.face(2, 2), x.degeneracy(0, 0)),
        ("unital square s_1", x.degeneracy(1, 1), x.face(1, 0),
         x.face(2, 0), x.degeneracy(0, 0))], budget)


# -- mutation corpus -------------------------------------------------------------


class _MutatedLevel(ActionGroupoid):
    """The action of `level` on `points`, pairs (i, k) of an object index
    of `level` and a copy label k, closed under the action, which moves i
    and keeps k.  With `discrete`, each object's group is cut down to its
    trivial subgroup."""

    def __init__(self, level: ActionGroupoid, points, name, discrete=False):
        index = {p: j for j, p in enumerate(points)}
        self._level, self._points = level, points
        self._trivial = {} if discrete else None

        def act(g, j):
            i, k = points[j]
            return index[level.act(g, i), k]

        group = level.group
        if discrete and group is not None:
            group = self._cut(group)
        # a coset level decodes its objects faster in one pass than singly
        objects = list(level.objects)
        super().__init__(group, [(objects[i], k) for i, k in points], act,
                         name=name)

    def _cut(self, group):
        # built on the identity alone: a tuple group's elements stay unlisted
        if group not in self._trivial:
            self._trivial[group] = FiniteGroup(
                [group.identity], group.op, name=f"1<{group.name}",
                check=False)
        return self._trivial[group]

    def group_at(self, j):
        group = self._level.group_at(self._points[j][0])
        return group if self._trivial is None else self._cut(group)


def _with_top_level(x: TruncatedSimplicialGroupoid, name, points,
                    discrete=False):
    """x with X_3 replaced by its action on `points` (see _MutatedLevel),
    each face of X_3 restricted to them, read an entry at a time, so that
    X_3's own face tables stay unwritten."""
    top = _MutatedLevel(x.levels[3], points, name, discrete)
    levels = list(x.levels)
    levels[3] = top
    faces = dict(x.faces)
    for k in range(4):
        d = x.face(3, k)
        faces[(3, k)] = GMap(top, levels[2], [d.on_obj(i) for i, _ in points],
                             name=f"d_{k}'", sel=d.sel, fill=d.fill)
    return TruncatedSimplicialGroupoid(levels, faces, dict(x.degeneracies),
                                       name=f"{x.name}-{name}")


def _with_constant(x: TruncatedSimplicialGroupoid, kind, key, name):
    """x with the map `key` of x.faces or x.degeneracies (`kind`) replaced
    by the constant G-map onto object 0 of its target, along the trivial
    group map: every morphism goes to the identity of object 0."""
    maps = {"faces": dict(x.faces), "degeneracies": dict(x.degeneracies)}
    src, tgt = maps[kind][key].src, maps[kind][key].tgt
    maps[kind][key] = GMap(src, tgt, [0] * src.n_objects, name="const[0]",
                           fill=tgt.group_at(0).identity)
    return TruncatedSimplicialGroupoid(list(x.levels), maps["faces"],
                                       maps["degeneracies"],
                                       name=f"{x.name}-{name}")


def mutation_corpus(x: TruncatedSimplicialGroupoid):
    """Named mutations, each with the check that must fail with a witness:
    - drop-component (when X_3 has two components): X_3 restricted to its
      first component, the orbit of object 0, a stable subset; essential
      surjectivity fails;
    - double: two copies of X_3, the action on objects x {0, 1}; pi0
      injectivity of the comparison fails;
    - discretize: each group of X_3 cut down to its trivial subgroup; the
      automorphism maps stop being surjective;
    - constant-d1, constant-d3 and constant-s0: that face of X_3, or
      s_0: X_1 -> X_2, made constant; the comparison is not defined."""
    x3 = x.levels[3]
    n = x3.n_objects
    out = []
    first = bytearray(n)
    if _orbit(x3, 0, x3.group_at(0).generators(), first) < n:
        out.append(("drop-component", _with_top_level(
            x, "dropped", [(i, 0) for i in range(n) if first[i]]), "segal"))
    out.append(("double", _with_top_level(
        x, "doubled", [(i, k) for k in (0, 1) for i in range(n)]), "segal"))
    out.append(("discretize", _with_top_level(
        x, "discretized", [(i, 0) for i in range(n)], discrete=True),
        "segal"))
    for k in (1, 3):
        out.append((f"constant-d{k}", _with_constant(
            x, "faces", (3, k), f"constface{k}"), "segal"))
    out.append(("constant-s0", _with_constant(
        x, "degeneracies", (1, 0), "constdegen"), "pointed"))
    return out
