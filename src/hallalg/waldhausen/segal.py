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
that is not even well defined (corrupted faces), a missed component, a
hom-set where the map fails to be bijective, or an automorphism not sent to
one.  The fiber products are never built: each square counts their objects
and refuses one over the budget before any other work, and checks that the
comparison is defined on every object of the apex.  When the four functors
are G-maps that meet the conditions of strict_pullback_equivalence
(groupoid/fiber.py), the square is then decided on their index tables
alone: along an isofibration the strict pullback P is equivalent to the
fiber product, so the comparison is an equivalence exactly when it hits
every object of P and each fibre is one free orbit of the kernel of its
group map.  That covers the degree-3 squares of both constructions and the
Hecke-Waldhausen unital squares.  The S-construction's unital squares,
where s_0 maps Aut(A) diagonally, and functors that are not G-maps (the
mutation corpus) do not meet the conditions; they, and every square the
rule finds is not an equivalence, are decided against the skeleton of the
fiber product (FiberSkeleton), on one representative per component of the
apex, which names the witness.
"""

from dataclasses import dataclass, field

from .. import BudgetExceededError
from ..groupoid import (DisjointUnion, FnFunctor, FullSubgroupoid, Functor,
                        GMap, discrete_groupoid)
from ..groupoid.core import DEFAULT_OBJECT_BUDGET
from ..groupoid.fiber import (FiberSkeleton, fiber_product_size,
                              strict_pullback_equivalence)
from ..groupoid.functors import equivalence_on_pi0
from .simplicial import TruncatedSimplicialGroupoid


@dataclass
class SegalVerdict:
    ok: bool
    squares: list = field(default_factory=list)   # (name, ok, witness)

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


# the degree-3 squares, in the order check_2segal_degree3 decides them
DEGREE3_SQUARES = ("triangulation {012},{023}", "triangulation {013},{123}")


def refuse_fiber_product(name, size, budget):
    """Refuse the square `name` when its comparison fiber product has more
    than `budget` objects."""
    if size > budget:
        raise BudgetExceededError(
            f"{name}: the comparison fiber product has {size} "
            f"objects, over the budget of {budget}")


def _comparison(apex, fa: Functor, fb: Functor, leg_f: Functor,
                leg_g: Functor, budget, name):
    """Whether the canonical functor x -> (fa x, fb x, id) from the apex to
    leg_f.src x_D leg_g.src is an equivalence; returns (ok, witness).  It
    checks well-definedness on every apex object (by composing index tables
    when all four functors are G-maps, as the faces and degeneracies of both
    constructions are), then decides on the strict pullback when that rule
    applies and says yes, and otherwise on the skeleton of the fiber
    product, by is_equivalence's checks on component representatives."""
    refuse_fiber_product(name, fiber_product_size(leg_f, leg_g), budget)
    if not all(isinstance(f, GMap) for f in (fa, fb, leg_f, leg_g)) or (
            list(map(leg_f.table.__getitem__, fa.table)) !=
            list(map(leg_g.table.__getitem__, fb.table))):
        # name the first object on which the composites disagree
        for i in range(apex.n_objects):
            if leg_f.on_obj(fa.on_obj(i)) != leg_g.on_obj(fb.on_obj(i)):
                return (False,
                        {"kind": "comparison_undefined",
                         "object": repr(apex.objects[i]),
                         "detail": "face composites disagree on objects"})
    if strict_pullback_equivalence(fa, fb, leg_f, leg_g):
        return True, None
    skel = FiberSkeleton(leg_f, leg_g)
    a, b, d = skel.a, skel.b, skel.d

    def image_component(i):
        u = fa.on_obj(i)
        return skel.locate(u, fb.on_obj(i), d.identity(leg_f.on_obj(u)))

    def aut_image(i, m):
        """(alpha, beta) must be an automorphism of (u, v, id): loops at u
        and v with f(alpha) = g(beta)."""
        u, v = fa.on_obj(i), fb.on_obj(i)
        alpha, beta = fa.on_mor(m), fb.on_mor(m)
        ends = ((a.mor_src(alpha), b.mor_src(beta)),
                (a.mor_tgt(alpha), b.mor_tgt(beta)))
        if ends != ((u, v), (u, v)) or (
                leg_f.on_mor(alpha) != leg_g.on_mor(beta)):
            return None, (repr(ends[0]), repr(ends[1]))
        return (alpha, beta), None

    verdict = equivalence_on_pi0(apex, skel.components, image_component,
                                 aut_image, lambda c: repr(c.rep))
    return verdict.ok, (None if verdict.ok else verdict.witness)


def _verdict(apex, squares, budget) -> SegalVerdict:
    """Decide each (name, fa, fb, leg_f, leg_g) comparison in order."""
    out = [(name, *_comparison(apex, fa, fb, leg_f, leg_g, budget, name))
           for name, fa, fb, leg_f, leg_g in squares]
    return SegalVerdict(all(ok for _, ok, _ in out), out)


def _need_depth(x: TruncatedSimplicialGroupoid, n):
    if x.depth < n:
        raise ValueError(f"{x.name} is truncated at degree {x.depth}; the "
                         f"check needs degree {n}")


def check_2segal_degree3(x: TruncatedSimplicialGroupoid,
                         budget=DEFAULT_OBJECT_BUDGET) -> SegalVerdict:
    _need_depth(x, 3)
    first, second = DEGREE3_SQUARES
    return _verdict(x.levels[3], [
        (first, x.face(3, 3), x.face(3, 1), x.face(2, 1), x.face(2, 2)),
        (second, x.face(3, 2), x.face(3, 0), x.face(2, 0), x.face(2, 1))],
        budget)


def check_pointed(x: TruncatedSimplicialGroupoid,
                  budget=DEFAULT_OBJECT_BUDGET) -> SegalVerdict:
    _need_depth(x, 2)
    return _verdict(x.levels[1], [
        ("unital square s_0", x.degeneracy(1, 0), x.face(1, 1),
         x.face(2, 2), x.degeneracy(0, 0)),
        ("unital square s_1", x.degeneracy(1, 1), x.face(1, 0),
         x.face(2, 0), x.degeneracy(0, 0))], budget)


# -- mutation corpus -------------------------------------------------------------


def _with_top_level(x: TruncatedSimplicialGroupoid, new_top, face_builder):
    levels = list(x.levels)
    levels[3] = new_top
    faces = dict(x.faces)
    for k in range(4):
        faces[(3, k)] = face_builder(k)
    return TruncatedSimplicialGroupoid(levels, faces, dict(x.degeneracies),
                                       name=x.name + "-mutated")


def mutate_drop_component(x: TruncatedSimplicialGroupoid):
    """Restrict X_3 to a proper union of components; breaks essential
    surjectivity."""
    x3 = x.levels[3]
    comps = x3.components()
    if len(comps) < 2:
        return None
    keep = [i for i in range(x3.n_objects) if x3.component_of(i) == 0]
    sub = FullSubgroupoid(x3, keep, name="dropped")

    def face_builder(k):
        orig = x.face(3, k)
        return FnFunctor(sub, x.levels[2],
                         [orig.on_obj(o) for o in sub.inner],
                         orig.on_mor, name=f"d_{k}'")

    return _with_top_level(x, sub, face_builder)


def mutate_double(x: TruncatedSimplicialGroupoid):
    """X_3 replaced by two copies; pi0 injectivity of the comparison fails."""
    x3 = x.levels[3]
    dbl = DisjointUnion([x3, x3], name="doubled")

    def face_builder(k):
        orig = x.face(3, k)

        def obj_map(i, n=x3.n_objects):
            return orig.on_obj(i if i < n else i - n)

        def mor_map(m):
            return orig.on_mor(m[1])

        return FnFunctor(dbl, x.levels[2], obj_map, mor_map, name=f"d_{k}'")

    return _with_top_level(x, dbl, face_builder)


def mutate_discretize(x: TruncatedSimplicialGroupoid):
    """Forget all morphisms of X_3; automorphism maps stop being surjective."""
    x3 = x.levels[3]
    disc = discrete_groupoid(list(range(x3.n_objects)), name="discretized")

    def face_builder(k):
        orig = x.face(3, k)

        def mor_map(m):
            return x.levels[2].identity(orig.on_obj(m[1]))

        return FnFunctor(disc, x.levels[2], orig.on_obj, mor_map,
                         name=f"d_{k}'")

    return _with_top_level(x, disc, face_builder)


def mutate_constant_face(x: TruncatedSimplicialGroupoid, k: int = 1):
    """Corrupt one face table: d_k becomes constant; the canonical
    comparison stops being well defined."""
    from ..groupoid import constant_functor
    levels = list(x.levels)
    faces = dict(x.faces)
    faces[(3, k)] = constant_functor(levels[3], levels[2], 0)
    return TruncatedSimplicialGroupoid(levels, faces, dict(x.degeneracies),
                                       name=x.name + f"-constface{k}")


def mutate_constant_degeneracy(x: TruncatedSimplicialGroupoid):
    """Corrupt s_0: X_1 -> X_2; the unital squares fail."""
    from ..groupoid import constant_functor
    degens = dict(x.degeneracies)
    degens[(1, 0)] = constant_functor(x.levels[1], x.levels[2], 0)
    return TruncatedSimplicialGroupoid(list(x.levels), dict(x.faces), degens,
                                       name=x.name + "-constdegen")


def mutation_corpus(x: TruncatedSimplicialGroupoid):
    """Named mutations; every entry must fail its check with a witness."""
    out = []
    m = mutate_drop_component(x)
    if m is not None:
        out.append(("drop-component", m, "segal"))
    out.append(("double", mutate_double(x), "segal"))
    out.append(("discretize", mutate_discretize(x), "segal"))
    out.append(("constant-d1", mutate_constant_face(x, 1), "segal"))
    out.append(("constant-d3", mutate_constant_face(x, 3), "segal"))
    out.append(("constant-s0", mutate_constant_degeneracy(x), "pointed"))
    return out
