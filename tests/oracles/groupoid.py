"""Axiom validators and the product calculus for finite groupoids.

- `validate_groupoid`, `validate_functor` and `validate_action` check the
  groupoid, functor and group-action axioms by enumeration; a failure is a
  ValueError;
- `fiber_projections` gives the two projections of a 2-fiber product;
- `materialised_comparison` decides a 2-Segal square by is_equivalence on
  the materialised fiber product, the oracle for the table rule, and
  `witness_key` is what it reproduces of the rule's witnesses;
- `walked_fibres` is the table rule's fibre test by a walk of every
  N-orbit of the apex, and `counted_fibres` the count over every object
  of the apex, the oracles for the count in `_Square.fibres`;
- `is_faithful` decides whether a functor is injective on every hom-set
  by enumerating each component's automorphisms, the oracle of the
  faithfulness that `HeckeModule` reads off its face's group map;
- `discrete_groupoid`, `constant_functor`, `DisjointUnion` and
  `FullSubgroupoid`: small generic groupoids and functors for the tests
  of the groupoid layer and for the skeletal core model of
  `oracles/sconstruction.py`;
- the product calculus: `ProductGroupoid` (A x B), `PairFunctor`
  ((F, G): X -> A x B), `external_product` (f x g on A x B) and
  `pull_push_span` (nu_! c* along one span), which together compute one
  pull-push of delta_a x delta_b at a time, the oracle for
  `pull_push_table`.  In A x B, whose pair (i, j) has index i * |B| + j,
  the BFS pi0 numbers the component ([a], [b]) as [a] * |pi0 B| + [b],
  with representative (rep_a, rep_b): the index `external_product`
  reads."""

from hallalg.groupoid import (ActionGroupoid, FiberProductGroupoid,
                              FnFunctor, Functor, Groupoid, SpanFn,
                              is_equivalence, pullback_fn, pushforward_fn,
                              two_fiber_product)
from hallalg.groupoid.fiber import _group_tuples, _kernel, _orbit, _Square
from hallalg.groupoid.transfer import _same_carrier
from hallalg.groups import trivial_group

from .functors import unblocked


def validate_groupoid(g: Groupoid, budget: int = 200_000):
    """Check the groupoid axioms; exhaustive below `budget` morphism
    pairs, spot-checked above.  A failure is a ValueError naming the
    objects involved."""
    def check(ok, what, *objs):
        if not ok:
            raise ValueError(f"{g.name}: {what} (objects {objs})")

    n = g.n_objects
    for i in range(min(n, budget)):
        e = g.identity(i)
        check(g.mor_src(e) == i and g.mor_tgt(e) == i,
              "an identity is not a loop", i)
    seen_pairs = 0
    for i in range(n):
        for m in g.out(i):
            check(g.mor_src(m) == i, "a morphism starts elsewhere", i)
            j = g.mor_tgt(m)
            minv = g.inverse(m)
            check(g.mor_src(minv) == j and g.mor_tgt(minv) == i,
                  "an inverse does not reverse its morphism", i, j)
            check(g.compose(minv, m) == g.identity(i) and
                  g.compose(m, minv) == g.identity(j),
                  "a morphism composed with its inverse is not an "
                  "identity", i, j)
            check(g.compose(g.identity(j), m) == m and
                  g.compose(m, g.identity(i)) == m,
                  "an identity is not neutral", i, j)
            seen_pairs += 1
            if seen_pairs > budget:
                return
    # associativity on composable triples, within budget
    seen = 0
    for i in range(n):
        for m1 in g.out(i):
            j = g.mor_tgt(m1)
            for m2 in g.out(j):
                k = g.mor_tgt(m2)
                for m3 in g.out(k):
                    a = g.compose(m3, g.compose(m2, m1))
                    b = g.compose(g.compose(m3, m2), m1)
                    check(a == b, "composition is not associative", i, j, k)
                    seen += 1
                    if seen > budget:
                        return


def validate_functor(f: Functor, budget: int = 50_000):
    """Identities on every object; src/tgt and composition on generating
    morphisms (a functor is determined by its values on generators).
    A failure is a ValueError."""
    def check(ok, what):
        if not ok:
            raise ValueError(f"{f.name}: {what}")

    src, tgt = f.src, f.tgt
    for i in range(src.n_objects):
        check(f.on_mor(src.identity(i)) == tgt.identity(f.on_obj(i)),
              f"identity not preserved at {i}")
    seen = 0
    for i in range(src.n_objects):
        for m1 in src.gens_out(i):
            j = src.mor_tgt(m1)
            fm1 = f.on_mor(m1)
            check(tgt.mor_src(fm1) == f.on_obj(i),
                  f"a morphism out of {i} is not sent out of its image")
            check(tgt.mor_tgt(fm1) == f.on_obj(j),
                  f"a morphism into {j} is not sent into its image")
            for m2 in src.gens_out(j):
                lhs = f.on_mor(src.compose(m2, m1))
                rhs = tgt.compose(f.on_mor(m2), fm1)
                check(lhs == rhs, "not functorial")
                seen += 1
                if seen >= budget:
                    return


def validate_action(g: ActionGroupoid):
    """`g.act` is an action of `g.group` on the objects: the identity fixes
    every object and act(ab, i) = act(a, act(b, i)).  Exhaustive while
    |G|^2 |objects| <= 200000; above that, on pairs of generators at the
    first 64 objects.  A failure is a ValueError."""
    group, act, n = g.group, g.act, g.n_objects
    for i in range(n):
        if act(group.identity, i) != i:
            raise ValueError(f"{g.name}: the identity moves object {i}")
    small = group.order ** 2 * n <= 200_000
    elems = group.elements if small else group.generators()
    for i in range(n if small else min(n, 64)):
        for a in elems:
            for b in elems:
                if act(group.op(a, b), i) != act(a, act(b, i)):
                    raise ValueError(f"{g.name}: the action at object {i} "
                                     f"is incompatible with multiplication")


def fiber_projections(fp: FiberProductGroupoid):
    """The projections A <- A x_D B -> B."""
    return (FnFunctor(fp, fp.a, lambda i: fp.objects[i][0],
                      lambda m: m[0], name="pr_A"),
            FnFunctor(fp, fp.b, lambda i: fp.objects[i][1],
                      lambda m: m[1], name="pr_B"))


def materialised_comparison(apex, fa, fb, leg_f, leg_g, budget, name):
    """The comparison functor into the materialised fiber product, decided
    by is_equivalence; returns (ok, witness) like the 2-Segal checks'
    `_comparison`."""
    fp = two_fiber_product(leg_f, leg_g, budget=budget)
    obj_map = []
    for i in range(apex.n_objects):
        u, v = fa.on_obj(i), fb.on_obj(i)
        du = leg_f.on_obj(u)
        if du != leg_g.on_obj(v):
            return False, {"kind": "comparison_undefined"}
        obj_map.append(fp.obj_index((u, v, fp.base.index[fp.d.identity(du)])))
    cmp = FnFunctor(apex, fp, obj_map,
                    lambda m: (fa.on_mor(m), fb.on_mor(m),
                               obj_map[apex.mor_src(m)]), name=name)
    verdict = is_equivalence(cmp)
    return verdict.ok, (None if verdict.ok else verdict.witness)


def walked_fibres(square) -> bool:
    """_Square.fibres by walking the N-orbit of every object of the apex:
    whether rho is onto G_P at every object and each object of P is hit by
    exactly one N-orbit, which is free."""
    apex, fa, fb = square.apex, square.fa, square.fb
    kernels = {}
    for gx, ga, gb in _group_tuples(apex, fa, fb):
        kernels[gx] = _kernel(gx, square.used)
        if gx.order != (kernels[gx][0] * gb.order
                        * _kernel(ga, square.f_used)[0]):
            return False
    hit, seen = bytearray(square.size), bytearray(apex.n_objects)
    for x in range(apex.n_objects):
        if seen[x]:
            continue
        p = square.point(fa.table[x], fb.table[x])
        if hit[p]:
            return False
        hit[p] = 1
        n_order, gens = kernels[apex.group_at(x)]
        if _orbit(apex, x, gens, seen) != n_order:
            return False
    return 0 not in hit


def counted_fibres(square) -> bool:
    """_Square.fibres on the square's maps without their blocks: the count
    over every object of the apex, and onto all of P."""
    return _Square(*map(unblocked, (square.fa, square.fb, square.f,
                                    square.g))).fibres()


def is_faithful(f: Functor) -> bool:
    """Injective on every hom-set.  A nonempty hom-set Hom(x, y) is a torsor
    under Aut(x), and conjugate objects have conjugate Aut groups, so it is
    enough that Aut(rep) -> Aut(f rep) is injective at one representative
    per source component."""
    src = f.src
    for c in src.components():
        auts = src.hom(c.rep, c.rep)
        if len({f.on_mor(m) for m in auts}) < len(auts):
            return False
    return True


def witness_key(w):
    """What the oracle reproduces of a witness: the whole of a
    hom_not_bijective witness, whose objects are apex objects, and the
    kind of any other."""
    return w if w is None or w["kind"] == "hom_not_bijective" else w["kind"]



class ProductGroupoid(Groupoid):
    """A x B; objects are the pairs (i, j) at index i * |B| + j, tokens are
    (m_a, m_b)."""

    def __init__(self, a: Groupoid, b: Groupoid, name=None):
        self.a, self.b = a, b
        objs = [(i, j) for i in range(a.n_objects) for j in range(b.n_objects)]
        super().__init__(objs, name=name or f"{a.name}x{b.name}")
        self._nb = b.n_objects

    def pair_index(self, i, j):
        return i * self._nb + j

    def out(self, i):
        ia, ib = self.objects[i]
        return [(ma, mb) for ma in self.a.out(ia) for mb in self.b.out(ib)]

    def gens_out(self, i):
        ia, ib = self.objects[i]
        gens = [(ma, self.b.identity(ib)) for ma in self.a.gens_out(ia)]
        gens += [(self.a.identity(ia), mb) for mb in self.b.gens_out(ib)]
        return gens

    def mor_src(self, m):
        return self.pair_index(self.a.mor_src(m[0]), self.b.mor_src(m[1]))

    def mor_tgt(self, m):
        return self.pair_index(self.a.mor_tgt(m[0]), self.b.mor_tgt(m[1]))

    def compose(self, m2, m1):
        return (self.a.compose(m2[0], m1[0]), self.b.compose(m2[1], m1[1]))

    def identity(self, i):
        ia, ib = self.objects[i]
        return (self.a.identity(ia), self.b.identity(ib))

    def inverse(self, m):
        return (self.a.inverse(m[0]), self.b.inverse(m[1]))

    def hom(self, i, j):
        ia, ib = self.objects[i]
        ja, jb = self.objects[j]
        return [(ma, mb) for ma in self.a.hom(ia, ja)
                for mb in self.b.hom(ib, jb)]

    def aut_size(self, i):
        ia, ib = self.objects[i]
        return self.a.aut_size(ia) * self.b.aut_size(ib)


class PairFunctor(Functor):
    """(F, G): X -> A x B from F: X -> A and G: X -> B."""

    def __init__(self, f: Functor, g: Functor, prod: ProductGroupoid,
                 name=None):
        if f.src is not g.src:
            raise ValueError(f"{f.name} and {g.name} have different sources")
        if prod.a is not f.tgt or prod.b is not g.tgt:
            raise ValueError(f"{prod.name} is not {f.tgt.name} x "
                             f"{g.tgt.name}")
        super().__init__(f.src, prod, name=name or f"({f.name},{g.name})")
        self.f, self.g = f, g

    def on_obj(self, i):
        return self.tgt.pair_index(self.f.on_obj(i), self.g.on_obj(i))

    def on_mor(self, m):
        return (self.f.on_mor(m), self.g.on_mor(m))


def pull_push_span(c: Functor, nu: Functor, phi: SpanFn) -> SpanFn:
    """(nu)_! ∘ c* for a span P <- S -> Q given by (c, nu)."""
    if c.src is not nu.src:
        raise ValueError(f"span legs {c.name} and {nu.name} must share "
                         f"their apex")
    return pushforward_fn(nu, pullback_fn(c, phi))


def external_product(prod: ProductGroupoid, f: SpanFn, g: SpanFn) -> SpanFn:
    """f x g on A x B: value at [(a, b)] is f([a]) * g([b]); the component
    ([a], [b]) has index [a] * |pi0 B| + [b]."""
    _same_carrier(f.gpd, prod.a, "first factor")
    _same_carrier(g.gpd, prod.b, "second factor")
    nb = len(prod.b.components())
    return SpanFn(prod, {x * nb + y: u * v for x, u in f.values.items()
                         for y, v in g.values.items()})


def discrete_groupoid(labels, name="discrete") -> ActionGroupoid:
    return ActionGroupoid(trivial_group(), labels, lambda g, i: i, name=name)


def constant_functor(src: Groupoid, tgt: Groupoid, obj_idx: int) -> Functor:
    """Collapse everything to one object; morphisms to its identity."""
    return FnFunctor(src, tgt, lambda i: obj_idx,
                     lambda m: tgt.identity(obj_idx),
                     name=f"const[{obj_idx}]")


class DisjointUnion(Groupoid):
    """Coproduct of groupoids; tokens are (part, inner token)."""

    def __init__(self, parts, name=None):
        self.parts = list(parts)
        self.offsets = []
        objs = []
        for p in self.parts:
            self.offsets.append(len(objs))
            objs.extend((len(self.offsets) - 1, o) for o in p.objects)
        super().__init__(objs,
                         name=name or "+".join(p.name for p in self.parts))

    def _locate(self, i):
        for k in range(len(self.parts) - 1, -1, -1):
            if i >= self.offsets[k]:
                return k, i - self.offsets[k]
        raise IndexError(i)

    def out(self, i):
        k, j = self._locate(i)
        return [(k, m) for m in self.parts[k].out(j)]

    def gens_out(self, i):
        k, j = self._locate(i)
        return [(k, m) for m in self.parts[k].gens_out(j)]

    def mor_src(self, m):
        k, t = m
        return self.offsets[k] + self.parts[k].mor_src(t)

    def mor_tgt(self, m):
        k, t = m
        return self.offsets[k] + self.parts[k].mor_tgt(t)

    def compose(self, m2, m1):
        if m2[0] != m1[0]:
            raise ValueError(f"{self.name}: morphisms of parts {m1[0]} and "
                             f"{m2[0]} do not compose")
        return (m1[0], self.parts[m1[0]].compose(m2[1], m1[1]))

    def identity(self, i):
        k, j = self._locate(i)
        return (k, self.parts[k].identity(j))

    def inverse(self, m):
        return (m[0], self.parts[m[0]].inverse(m[1]))

    def hom(self, i, j):
        ki, oi = self._locate(i)
        kj, oj = self._locate(j)
        if ki != kj:
            return []
        return [(ki, m) for m in self.parts[ki].hom(oi, oj)]

    def aut_size(self, i):
        k, j = self._locate(i)
        return self.parts[k].aut_size(j)


class FullSubgroupoid(Groupoid):
    """Full subcategory on a union of components of the ambient groupoid."""

    def __init__(self, ambient: Groupoid, object_indices, name=None):
        self.ambient = ambient
        self.inner = list(object_indices)
        self.to_sub = {o: i for i, o in enumerate(self.inner)}
        # must be closed under morphisms
        for o in self.inner:
            for t in map(ambient.mor_tgt, ambient.gens_out(o)):
                if t not in self.to_sub:
                    raise ValueError(f"the objects of {name or ambient.name} "
                                     f"are not a union of components: {o} "
                                     f"reaches {t}")
        super().__init__([ambient.objects[o] for o in self.inner],
                         name=name or f"sub({ambient.name})")

    def out(self, i):
        return self.ambient.out(self.inner[i])

    def gens_out(self, i):
        return self.ambient.gens_out(self.inner[i])

    def mor_src(self, m):
        return self.to_sub[self.ambient.mor_src(m)]

    def mor_tgt(self, m):
        return self.to_sub[self.ambient.mor_tgt(m)]

    def compose(self, m2, m1):
        return self.ambient.compose(m2, m1)

    def identity(self, i):
        return self.ambient.identity(self.inner[i])

    def inverse(self, m):
        return self.ambient.inverse(m)

    def hom(self, i, j):
        return self.ambient.hom(self.inner[i], self.inner[j])

    def aut_size(self, i):
        return self.ambient.aut_size(self.inner[i])
