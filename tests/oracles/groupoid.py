"""Axiom validators and the product calculus for finite groupoids.

- `validate_groupoid`, `validate_functor` and `validate_action` check the
  groupoid, functor and group-action axioms by enumeration; a failure is a
  ValueError;
- `fiber_projections` gives the two projections of a 2-fiber product;
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
                              pullback_fn, pushforward_fn)
from hallalg.groupoid.transfer import _same_carrier


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
