"""Pull-push transfer on finitely supported functions on iso classes.

A SpanFn assigns exact rationals to the components of a groupoid.  Pullback
composes with the functor on pi0; pushforward along f at a component of the
target integrates over the 2-fiber of f, weighting each fiber component by
1/#Aut.  Pushforward along a faithful functor preserves integrality.
"""

from fractions import Fraction

from .core import Groupoid, ProductGroupoid
from .fiber import two_fiber_product
from .functors import Functor, point_inclusion


class SpanFn:
    """Finitely supported function pi0(carrier) -> Q."""

    __slots__ = ("gpd", "values")

    def __init__(self, gpd: Groupoid, values=()):
        self.gpd = gpd
        self.values = {}
        ncomp = len(gpd.components())
        for k, v in dict(values).items():
            assert 0 <= k < ncomp, f"component {k} out of range"
            v = Fraction(v)
            if v:
                self.values[k] = v

    @classmethod
    def delta(cls, gpd, comp_idx):
        return cls(gpd, {comp_idx: 1})

    @classmethod
    def const(cls, gpd, value=1):
        return cls(gpd, {c.index: value for c in gpd.components()})

    def __getitem__(self, comp_idx):
        return self.values.get(comp_idx, Fraction(0))

    def __add__(self, other):
        assert self.gpd is other.gpd
        out = dict(self.values)
        for k, v in other.values.items():
            out[k] = out.get(k, Fraction(0)) + v
        return SpanFn(self.gpd, out)

    def scale(self, c):
        return SpanFn(self.gpd, {k: v * Fraction(c)
                                 for k, v in self.values.items()})

    def __eq__(self, other):
        return (isinstance(other, SpanFn) and self.gpd is other.gpd
                and self.values == other.values)

    def is_integral(self):
        return all(v.denominator == 1 for v in self.values.values())

    def __repr__(self):
        return f"SpanFn({self.gpd.name}, {dict(sorted(self.values.items()))})"


def pullback_fn(f: Functor, phi: SpanFn) -> SpanFn:
    """(f* phi)([a]) = phi([f a]); f must land in phi's carrier."""
    assert phi.gpd is f.tgt, "function lives on the wrong groupoid"
    tgt = f.tgt
    vals = {}
    for c in f.src.components():
        v = phi[tgt.component_of(f.on_obj(c.rep))]
        if v:
            vals[c.index] = v
    return SpanFn(f.src, vals)


def pushforward_fn(f: Functor, psi: SpanFn, budget=None) -> SpanFn:
    """(f_! psi)(b) = sum over pi0 of the 2-fiber over b of psi(a)/#Aut,
    computed via the 2-fiber product against the point inclusion at b."""
    assert psi.gpd is f.src, "function lives on the wrong groupoid"
    src, tgt = f.src, f.tgt
    vals = {}
    for c in tgt.components():
        kwargs = {} if budget is None else {"budget": budget}
        fiber = two_fiber_product(f, point_inclusion(tgt, c.rep), **kwargs)
        total = Fraction(0)
        for fc in fiber.components():
            a_idx = fiber.objects[fc.rep][0]
            v = psi[src.component_of(a_idx)]
            if v:
                total += Fraction(v, fc.aut_order)
        if total:
            vals[c.index] = total
    return SpanFn(tgt, vals)


def pull_push_span(c: Functor, nu: Functor, phi: SpanFn,
                   budget=None) -> SpanFn:
    """(nu)_! ∘ c* for a span P <- S -> Q given by (c, nu)."""
    assert c.src is nu.src, "span legs must share their apex"
    return pushforward_fn(nu, pullback_fn(c, phi), budget=budget)


def external_product(prod: ProductGroupoid, f: SpanFn, g: SpanFn) -> SpanFn:
    """f x g on A x B: value at [(a, b)] is f([a]) * g([b])."""
    assert f.gpd is prod.a and g.gpd is prod.b
    vals = {}
    for c in prod.components():
        ia, ib = prod.objects[c.rep]
        v = f[prod.a.component_of(ia)] * g[prod.b.component_of(ib)]
        if v:
            vals[c.index] = v
    return SpanFn(prod, vals)


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


def cardinality(gpd: Groupoid) -> Fraction:
    return gpd.cardinality()
