"""Functors between finite groupoids and the equivalence checker.

A functor maps object indices to object indices and morphism tokens to
morphism tokens.  is_equivalence decides essential surjectivity and full
faithfulness exactly, returning a witness on failure: for groupoids this
reduces to pi0 bijectivity plus bijectivity of each automorphism map at one
representative per source component.  equivalence_on_pi0 is the same
decision against any model of the target's pi0; the 2-Segal checks use it
on the skeleton of a fiber product.  A functor induced by a G-map of
objects and a coordinate selection of tuple groups (GMap) is an index table
plus that selection; GMaps compose and compare by table and selection, and
other functors (ComposedFunctor, FnFunctor) on a generating family of
morphisms, which the tests use as the oracle for the tables.
"""

from dataclasses import dataclass, field

from .core import ActionGroupoid, Groupoid, point_groupoid


class Functor:
    def __init__(self, src: Groupoid, tgt: Groupoid, name="F"):
        self.src = src
        self.tgt = tgt
        self.name = name

    def on_obj(self, i: int) -> int:
        raise NotImplementedError

    def on_mor(self, m):
        raise NotImplementedError

    def __repr__(self):
        return f"Functor({self.name}: {self.src.name} -> {self.tgt.name})"


class FnFunctor(Functor):
    def __init__(self, src, tgt, obj_map, mor_map, name="F"):
        super().__init__(src, tgt, name=name)
        self._obj = obj_map      # list or callable
        self._mor = mor_map

    def on_obj(self, i):
        o = self._obj
        return o[i] if isinstance(o, (list, tuple)) else o(i)

    def on_mor(self, m):
        return self._mor(m)


class IdentityFunctor(Functor):
    def __init__(self, g):
        super().__init__(g, g, name=f"id_{g.name}")

    def on_obj(self, i):
        return i

    def on_mor(self, m):
        return m


class GMap(Functor):
    """The functor of action groupoids induced by a G-map of their objects,
    given as the index table t, and a map of their groups: (g, i) ->
    (sel(g), t[i]).  With `sel` None, g passes through (the source's group
    is the target's or a subgroup of it).  Otherwise the groups are tuple
    groups, and sel(g) takes coordinate sel[k] of g, or `fill` where
    sel[k] is None.  A selection that is the identity on the source's
    coordinates is stored as None, and a fill no slot uses as None, so
    equal functors have equal (table, sel, fill)."""

    def __init__(self, src: ActionGroupoid, tgt: ActionGroupoid, table,
                 name="F", sel=None, fill=None):
        super().__init__(src, tgt, name=name)
        self.table = list(table)
        if sel is not None:
            sel = tuple(sel)
            if src.n_objects and sel == tuple(
                    range(len(src.identity(0)[0]))):
                sel = None
        self.sel = sel
        self.fill = fill if sel is not None and None in sel else None

    def on_obj(self, i):
        return self.table[i]

    def on_mor(self, m):
        g, i = m
        if self.sel is None:
            return (g, self.table[i])
        fill = self.fill
        return (tuple([fill if k is None else g[k] for k in self.sel]),
                self.table[i])


def _check_composable(outer, inner):
    if inner.tgt is not outer.src:
        raise ValueError(f"{outer.name} after {inner.name} is not "
                         f"composable: {inner.tgt.name} is not "
                         f"{outer.src.name}")


class ComposedFunctor(Functor):
    def __init__(self, outer: Functor, inner: Functor):
        _check_composable(outer, inner)
        super().__init__(inner.src, outer.tgt,
                         name=f"{outer.name}∘{inner.name}")
        self.outer, self.inner = outer, inner

    def on_obj(self, i):
        return self.outer.on_obj(self.inner.on_obj(i))

    def on_mor(self, m):
        return self.outer.on_mor(self.inner.on_mor(m))


def compose_functors(outer, inner):
    """outer after inner; two G-maps compose by indexing their tables and
    their selections, unless both fills are needed and differ."""
    if isinstance(outer, GMap) and isinstance(inner, GMap):
        _check_composable(outer, inner)
        fills = [f for f in (outer.fill, inner.fill) if f is not None]
        if len(fills) < 2 or fills[0] == fills[1]:
            sel = outer.sel
            if sel is None:
                sel = inner.sel
            elif inner.sel is not None:
                sel = [None if k is None else inner.sel[k] for k in sel]
            table = outer.table
            return GMap(inner.src, outer.tgt, [table[j] for j in inner.table],
                        name=f"{outer.name}∘{inner.name}", sel=sel,
                        fill=fills[0] if fills else None)
    return ComposedFunctor(outer, inner)


class GroupHomFunctor(Functor):
    """B(H) -> B(G) induced by a homomorphism on element tokens."""

    def __init__(self, bh, bg, hom=lambda h: h, name=None):
        super().__init__(bh, bg, name=name or f"B({bh.name}->{bg.name})")
        self.hom = hom
        # homomorphism property on all pairs (groups here are small)
        H, G = bh.group, bg.group
        for a in H.elements:
            if hom(a) not in G.index:
                raise ValueError(f"{self.name}: {a!r} is not sent into "
                                 f"{G.name}")
        for a in H.generators():
            for b in H.generators():
                if hom(H.op(a, b)) != G.op(hom(a), hom(b)):
                    raise ValueError("not a group homomorphism")

    def on_obj(self, i):
        return 0

    def on_mor(self, m):
        return (self.hom(m[0]), 0)


def point_inclusion(g: Groupoid, obj_idx: int) -> Functor:
    """pt -> g picking the object obj_idx."""
    pt = point_groupoid()
    return FnFunctor(pt, g, lambda i: obj_idx,
                     lambda m: g.identity(obj_idx),
                     name=f"at[{obj_idx}]")


def constant_functor(src: Groupoid, tgt: Groupoid, obj_idx: int) -> Functor:
    """Collapse everything to one object; morphisms to its identity."""
    return FnFunctor(src, tgt, lambda i: obj_idx,
                     lambda m: tgt.identity(obj_idx),
                     name=f"const[{obj_idx}]")


@dataclass
class EquivalenceVerdict:
    ok: bool
    reason: str = "equivalence"
    witness: dict = field(default_factory=dict)

    def __bool__(self):
        return self.ok

    def to_json(self):
        return {"pass": self.ok, "reason": self.reason,
                "witness": self.witness}


def _gmap_key(f: Functor):
    """(table, sel, fill) of a G-map (the identity of an action groupoid is
    one), or None."""
    if isinstance(f, GMap):
        return f.table, f.sel, f.fill
    if isinstance(f, IdentityFunctor) and isinstance(f.src, ActionGroupoid):
        return list(range(f.src.n_objects)), None, None
    return None


def functors_equal(f: Functor, g: Functor) -> bool:
    """Strict equality.  Two G-maps with different tables differ, and with
    equal tables and selections are equal; any other pair is compared on
    all objects and a generating family of morphisms (which determines a
    functor), so that, say, a fill and a coordinate whose group is trivial
    still compare equal."""
    if f.src is not g.src or f.tgt is not g.tgt:
        return False
    kf, kg = _gmap_key(f), _gmap_key(g)
    if kf is not None and kg is not None:
        if kf[0] != kg[0]:
            return False
        if kf[1:] == kg[1:]:
            return True
    for i in range(f.src.n_objects):
        if f.on_obj(i) != g.on_obj(i):
            return False
    for m in f.src.generating_morphisms():
        if f.on_mor(m) != g.on_mor(m):
            return False
    return True


def is_equivalence(f: Functor) -> EquivalenceVerdict:
    """Essential surjectivity plus full faithfulness, with witnesses.

    For functors of groupoids full faithfulness is equivalent to pi0
    injectivity plus bijectivity of Aut(x) -> Aut(F x) at one representative
    per component; essential surjectivity is pi0 surjectivity.
    """
    tgt = f.tgt

    def aut_image(i, m):
        fm, fi = f.on_mor(m), f.on_obj(i)
        if tgt.mor_src(fm) != fi or tgt.mor_tgt(fm) != fi:
            return None, (repr(tgt.objects[tgt.mor_src(fm)]),
                          repr(tgt.objects[tgt.mor_tgt(fm)]))
        return fm, None

    return equivalence_on_pi0(
        f.src, tgt.components(), lambda i: tgt.component_of(f.on_obj(i)),
        aut_image, lambda c: repr(tgt.objects[c.rep]))


def equivalence_on_pi0(src: Groupoid, tcomps, image_component, aut_image,
                       describe) -> EquivalenceVerdict:
    """The decision of is_equivalence against any model of the target's
    pi0, in its order: pi0 injectivity, surjectivity, then the Aut map at
    each source representative.

    `tcomps` are the target components (index, aut_order);
    `image_component(i)` is the index of the component of F(i);
    `aut_image(i, m)` is (F(m), None) for an automorphism m of i, or
    (None, (source, target)) with the reprs of F(m)'s ends when F(m) is not
    an automorphism of F(i); `describe(c)` is the repr of the representative
    of target component c.
    """
    scomps = src.components()
    image = {}
    for c in scomps:
        tc = image_component(c.rep)
        if tc in image:
            other = image[tc]
            return EquivalenceVerdict(
                False, "not faithful on pi0",
                {"kind": "hom_not_bijective",
                 "pair": [repr(src.objects[other.rep]),
                          repr(src.objects[c.rep])],
                 "hom_size_source": 0,
                 "hom_size_target": tcomps[tc].aut_order})
        image[tc] = c
    missed = [c for c in tcomps if c.index not in image]
    if missed:
        c = missed[0]
        return EquivalenceVerdict(
            False, "not essentially surjective",
            {"kind": "missed_component",
             "target_object": describe(c),
             "component_index": c.index})
    for tc, c in image.items():
        auts = src.hom(c.rep, c.rep)
        images = set()
        for m in auts:
            fm, ends = aut_image(c.rep, m)
            if ends is not None:
                return EquivalenceVerdict(
                    False, "automorphism not sent to an automorphism",
                    {"kind": "not_a_functor",
                     "object": repr(src.objects[c.rep]),
                     "image_source": ends[0], "image_target": ends[1]})
            images.add(fm)
        if len(images) < len(auts):
            return EquivalenceVerdict(
                False, "automorphism map not injective",
                {"kind": "hom_not_bijective",
                 "pair": [repr(src.objects[c.rep])] * 2,
                 "hom_size_source": len(auts),
                 "distinct_images": len(images)})
        target_aut = tcomps[tc].aut_order
        if len(images) != target_aut:
            return EquivalenceVerdict(
                False, "automorphism map not surjective",
                {"kind": "hom_not_bijective",
                 "pair": [repr(src.objects[c.rep])] * 2,
                 "hom_size_source": len(auts),
                 "hom_size_target": target_aut})
    return EquivalenceVerdict(True)
