"""Pull-push transfer on finitely supported functions on iso classes.

A SpanFn assigns exact rationals to the components of a groupoid.  Pullback
composes with the functor on pi0.  Pushforward along f integrates over the
homotopy fiber of f, weighting each fiber component by 1/#Aut; by
orbit-stabiliser that integral is the closed formula
(f_! psi)([b]) = sum over [a] with f a ≅ b of psi([a]) |Aut b| / |Aut a|,
so no fiber product is built.  pull_push_table gives the pull-push of
every pair of delta functions along a span in one pass over its apex, keyed
in the caller's labels, so that the span's table is a structure table.
Pushforward along a faithful functor preserves integrality.  A function on
the wrong groupoid is a ValueError.
"""

from fractions import Fraction

from .core import Groupoid
from .functors import Functor


def _same_carrier(got: Groupoid, want: Groupoid, what):
    if got is not want:
        raise ValueError(f"{what} lives on {got.name}, expected "
                         f"{want.name}")


class SpanFn:
    """Finitely supported function pi0(carrier) -> Q."""

    __slots__ = ("gpd", "values")

    def __init__(self, gpd: Groupoid, values=()):
        self.gpd = gpd
        self.values = {}
        ncomp = len(gpd.components())
        for k, v in dict(values).items():
            if not 0 <= k < ncomp:
                raise ValueError(f"component {k} out of range for "
                                 f"{ncomp} components of {gpd.name}")
            v = Fraction(v)
            if v:
                self.values[k] = v

    @classmethod
    def const(cls, gpd, value=1):
        return cls(gpd, {c.index: value for c in gpd.components()})

    def __getitem__(self, comp_idx):
        return self.values.get(comp_idx, Fraction(0))

    def __add__(self, other):
        _same_carrier(other.gpd, self.gpd, "summand")
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

    def __repr__(self):
        return f"SpanFn({self.gpd.name}, {dict(sorted(self.values.items()))})"


def pullback_fn(f: Functor, phi: SpanFn) -> SpanFn:
    """(f* phi)([a]) = phi([f a]); f must land in phi's carrier."""
    _same_carrier(phi.gpd, f.tgt, "function to pull back")
    tgt = f.tgt
    vals = {}
    for c in f.src.components():
        v = phi[tgt.component_of(f.on_obj(c.rep))]
        if v:
            vals[c.index] = v
    return SpanFn(f.src, vals)


def pushforward_fn(f: Functor, psi: SpanFn) -> SpanFn:
    """(f_! psi)([b]) = sum over [a] with f a ≅ b of
    psi([a]) |Aut b| / |Aut a|: the sum over the homotopy fiber over b of
    psi/#Aut, whose components over [a] are the orbits of Aut(a) on
    Hom(f a, b), |Aut b| morphisms, each with the kernel of
    Aut(a) -> Aut(b) as stabiliser.  It holds for non-faithful f too."""
    _same_carrier(psi.gpd, f.src, "function to push forward")
    src, tgt = f.src, f.tgt
    tcomps = tgt.components()
    vals = {}
    for c in src.components():
        v = psi[c.index]
        if v:
            b = tgt.component_of(f.on_obj(c.rep))
            vals[b] = vals.get(b, 0) + v * Fraction(tcomps[b].aut_order,
                                                    c.aut_order)
    return SpanFn(tgt, dict(sorted(vals.items())))


def pull_push_table(left: Functor, right: Functor, middle: Functor,
                    labels) -> dict:
    """Pull-push of delta_a x delta_b along the span
    left.tgt x right.tgt <- S -> middle.tgt, for every pair of components
    (a, b) that S reaches, in one pass over the components of the apex S:
    the component [x] adds |Aut(middle x)| / |Aut x| (pushforward_fn's
    weight) at [middle x] to the pair ([left x], [right x]).  `labels` maps
    the component indices of left.tgt, right.tgt and middle.tgt to the
    caller's keys, a list or a dict each; returns {(a, b): {c: value}} in
    those keys.  A pair S misses has no row."""
    if left.src is not middle.src or right.src is not middle.src:
        raise ValueError(f"span legs {left.name}, {right.name} and "
                         f"{middle.name} must share their apex")
    A, B, C = left.tgt, right.tgt, middle.tgt
    la, lb, lc = labels
    auts = {lc[c.index]: c.aut_order for c in C.components()}
    table = {}
    for x in middle.src.components():
        row = table.setdefault((la[A.component_of(left.on_obj(x.rep))],
                                lb[B.component_of(right.on_obj(x.rep))]), {})
        c = lc[C.component_of(middle.on_obj(x.rep))]
        row[c] = row.get(c, 0) + Fraction(auts[c], x.aut_order)
    return table


def cardinality(gpd: Groupoid) -> Fraction:
    return gpd.cardinality()
