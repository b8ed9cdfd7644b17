"""Functors between finite groupoids and the equivalence checker.

A functor maps object indices to object indices and morphism tokens to
morphism tokens.  is_equivalence decides essential surjectivity and full
faithfulness exactly, returning a witness on failure: for groupoids this
reduces to pi0 bijectivity plus bijectivity of each automorphism map at one
representative per source component.  It is the oracle of the 2-Segal
table rule (groupoid/fiber.py), which reports its failures with the same
witnesses, built here.  A functor induced by a G-map of objects and a map
of groups (GMap) is an index table plus a coordinate selection of tuple
groups, or the trivial group map, read by list slicing along its plan
where it has one (GMap.pull), which then needs no written table.
composite_difference decides whether two composites of G-maps are equal,
and where they differ, pulling each from its outermost map inward with no
composite built, and composing two plans into one where the outer map is
larger than the composite.  Where every map is a G-map by construction
(one with a `block`), the composites are compared on the apex's block
alone: two G-maps with the same group map that agree on a set meeting
every orbit agree everywhere.  functors_equal compares any two functors on
a generating family of morphisms.  The composed functors, the per-entry
composition and the comparison on every object (`tests/oracles`) are its
oracles.
"""

from functools import cached_property
from itertools import chain

from .. import Record
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


class GMap(Functor):
    """The functor of action groupoids induced by a G-map of their objects,
    given as the index table t, and a map of their groups: (g, i) ->
    (sel(g), t[i]).  With `sel` None, g passes through (the source's group
    is the target's or a subgroup of it), or, when a `fill` is given, every
    g goes to that fill, the target's identity (the trivial map, as a
    constant functor has).  Otherwise the groups are tuple groups, and
    sel(g) takes coordinate sel[k] of g, or `fill` where sel[k] is None.  A
    selection that is the identity on the source's coordinates is stored as
    None, and a fill no slot uses is dropped, so equal functors have equal
    (table, sel, fill).  A map may keep the plan (S, starts, repeat) its
    table is written from: for each s of `starts`, distinct multiples of
    S, the run s..s+S-1 of target indices, `repeat` times over.  A map with
    a plan need not be given its table: on_obj and on_mor read single
    entries off the plan, and pull reads windows of it, so that neither
    writes the table.

    A map built as a G-map between levels fibred over one transitive G-set
    T by G-maps (the first coset of a Hecke-Waldhausen level) may give its
    source's `block`: the objects 0..block-1, the fibre over the base point
    of T.  The block meets every orbit, so the checks read such a map on
    it alone.  A map given by its table alone keeps block None: it is not
    known to be equivariant, and is read on every object."""

    def __init__(self, src: ActionGroupoid, tgt: ActionGroupoid, table,
                 name="F", sel=None, fill=None, plan=None, block=None):
        super().__init__(src, tgt, name=name)
        self.block = block
        # a list is kept, not copied: no table is changed once made
        if table is not None:
            self.table = table if type(table) is list else list(table)
        self.plan = plan
        if sel is not None:
            sel = tuple(sel)
            if None not in sel:
                fill = None
            if src.n_objects and sel == tuple(
                    range(len(src.identity(0)[0]))):
                sel = None
        self.sel = sel
        self.fill = fill

    @cached_property
    def table(self):
        """A table not given is written from the plan when first read.  The
        checks read whole tables only of maps out of the levels below the
        top one, and reach the others through on_obj and pull."""
        return self.pull(_indices(self), 0, self.src.n_objects)

    @property
    def passes_through(self):
        """Whether g passes through (sel and fill None): then the group map
        is injective, and so is the functor on every hom-set."""
        return self.sel is None and self.fill is None

    def hom(self, g):
        """The image of the group element g."""
        sel, fill = self.sel, self.fill
        if sel is None:
            return g if fill is None else fill
        return tuple([fill if k is None else g[k] for k in sel])

    def on_obj(self, i):
        """table[i], off the plan where the table is not written."""
        table = vars(self).get("table")
        if table is not None:
            return table[i]
        S, starts, repeat = self.plan
        return starts[i // (S * repeat)] + i % S

    def on_mor(self, m):
        return (self.hom(m[0]), self.on_obj(m[1]))

    def pull(self, values, lo, hi):
        """[values[t] for t in table[lo:hi]]: along the plan by slices of
        `values`, where that costs less than the gather or where the table
        is not written.  `values` may be a range."""
        S, starts, repeat = self.plan or (0, None, 1)
        if S == 1 < repeat:
            # table[t] = starts[t // repeat]: each pick written, strided
            a0 = lo // repeat
            picks = [values[t] for t in starts[a0:-(-hi // repeat)]]
            out = [None] * (len(picks) * repeat)
            for j in range(repeat):
                out[j::repeat] = picks
            del out[hi - a0 * repeat:], out[:lo - a0 * repeat]
            return out
        if S * repeat < 32 and "table" in vars(self):
            # no plan, or too short a run for a slice
            return [values[t] for t in self.table[lo:hi]]
        if repeat == 1:
            # run a from offset r, the whole runs after it, run b up to e
            a, r = divmod(lo, S)
            b, e = divmod(hi, S)
            out = []
            if a < b:
                out += values[starts[a] + r:starts[a] + S]
                for s in starts[a + 1:b]:
                    out += values[s:s + S]
                r = 0
            if r < e:
                out += values[starts[b] + r:starts[b] + e]
            return out
        out = []
        while lo < hi:
            c, r = divmod(lo, S)            # copy c of a run, from offset r
            s = starts[c // repeat]
            if r or hi - lo < S:            # a copy cut by the window
                piece = list(values[s + r:s + min(S, r + hi - lo)])
            else:                           # the whole copies left of it
                piece = list(values[s:s + S]) * min(repeat - c % repeat,
                                                    (hi - lo) // S)
            lo += len(piece)
            if out:
                out += piece
            else:                           # the first piece, kept whole
                out = piece
        return out


RUN = 1 << 16       # table entries compared or counted at a time


def _image(maps, g):
    """g under the group maps of `maps`, outermost first."""
    for m in reversed(maps):
        g = m.hom(g)
    return g


def _indices(m: GMap):
    """The target indices that m's entries are pulled from: the target's
    shared list, so that equal entries are one int, unless it is longer
    than m's source; then a range."""
    n = m.tgt.n_objects
    return m.tgt.indices if n <= m.src.n_objects else range(n)


def _after(outer, inner, n):
    """outer∘inner on the objects 0..n-1 of inner's source, as a GMap with
    a plan read off the two plans, or None where they do not nest.  inner
    must write each of its runs once.  Each run of inner then lies in one
    copy of a run of outer, which gives the composite one start per run of
    inner, or covers whole blocks of copies of outer's runs, whose starts
    the composite takes as a slice.  Its starts may repeat, and cover the
    runs of inner up to n only; only pull and on_obj read it, below n."""
    if (outer.plan is None or inner.plan is None or inner.plan[2] != 1
            or "table" in vars(outer)):
        return None
    (So, so, ro), (Si, si, _) = outer.plan, inner.plan
    block, si = So * ro, si[:-(-n // Si)]
    if So % Si == 0:
        S, starts, repeat = Si, [so[t // block] + t % So for t in si], 1
    elif Si % block == 0:
        S, starts, repeat, k = So, [], ro, Si // block
        for t in si:
            starts += so[t // block:t // block + k]
    else:
        return None
    return GMap(inner.src, outer.tgt, starts if S == repeat == 1 else None,
                name=f"{outer.name}∘{inner.name}", plan=(S, starts, repeat))


def _composite(maps, n=None):
    """(values, inner): inner is the innermost of `maps`, values the
    others' composite (one map: its table; none: None), to be read on the
    objects 0..n-1 of the source (None: all of them).  The
    outermost map's table is read where it is written.  One that is not is
    pulled along its plan, as each map after it is, and stays unwritten;
    where its source is larger than the composite's, it is first composed
    with the next map by their plans (_after), so that no list as long as
    its source is built.  A lone map with no table is the inner map, on
    its target's indices."""
    if not maps:
        return None, None
    if len(maps) > 1 and maps[0].src.n_objects > maps[-1].src.n_objects:
        merged = _after(maps[0], maps[1], maps[1].src.n_objects
                        if n is None or len(maps) > 2 else n)
        if merged is not None:
            maps = (merged, *maps[2:])
    outer = maps[0]
    if "table" in vars(outer):
        values = outer.table
    elif len(maps) == 1:
        return _indices(outer), outer
    else:
        values = outer.pull(_indices(outer), 0, outer.src.n_objects)
    for m in maps[1:-1]:
        values = m.pull(values, 0, m.src.n_objects)
    return values, maps[-1] if len(maps) > 1 else None


def composite_difference(a, b):
    """Where the composites of the G-maps `a` and `b`, each a sequence
    outermost first (empty: the identity), differ, with neither composite
    built: None when they are equal, else (i, g).  Then either i is the
    first object of the apex that they send to different objects, and g is
    None, or they agree on objects, i is the first object acted on by a
    group with a generator g whose images differ.  The group maps, which
    only read coordinates of g and put in fills, are compared first on an
    element whose coordinates are distinct unknowns; only where those
    images differ are they compared on the generators of each distinct
    group of the apex, which is exact for group homomorphisms.  Where they
    agree and every map has a block (GMap), the tables are read on the
    apex's block alone: two G-maps with the same group map that agree on
    a set meeting every orbit agree everywhere, and the block, a prefix,
    holds the first object where they differ.  The tables are read in runs
    of RUN entries.  Maps that do not compose, or composites with
    different ends, are a ValueError."""
    for outer, inner in chain(zip(a, a[1:]), zip(b, b[1:])):
        if inner.tgt is not outer.src:
            raise ValueError(f"{outer.name} after {inner.name} is not "
                             f"composable: {inner.tgt.name} is not "
                             f"{outer.src.name}")
    src = (a or b)[-1].src
    (sa, ta), (sb, tb) = [(m[-1].src, m[0].tgt) if m else (src, src)
                          for m in (a, b)]
    if sa is not sb or ta is not tb:
        raise ValueError(f"{'∘'.join(m.name for m in a) or 'id'} and "
                         f"{'∘'.join(m.name for m in b) or 'id'} do not "
                         f"share their source and target")
    n = src.n_objects
    if n == 0:
        return None
    e = src.identity(0)[0]
    unknown = tuple([object() for _ in e]) if type(e) is tuple else object()
    same = _image(a, unknown) == _image(b, unknown)
    if same and all(m.block is not None for m in (*a, *b)):
        n = (a or b)[-1].block
    va, ia = _composite(a, n)
    vb, ib = _composite(b, n)
    for lo in range(0, n, RUN):
        hi = min(lo + RUN, n)
        ra = (ia.pull(va, lo, hi) if ia else va[lo:hi] if va is not None
              else list(range(lo, hi)))
        rb = (ib.pull(vb, lo, hi) if ib else vb[lo:hi] if vb is not None
              else list(range(lo, hi)))
        if ra != rb:
            return lo + next(k for k, (u, v) in enumerate(zip(ra, rb))
                             if u != v), None
    if same:
        return None
    first = {}
    for i in range(n):
        first.setdefault(src.group_at(i), i)
    for group, i in first.items():
        for g in group.generators():
            if _image(a, g) != _image(b, g):
                return i, g
    return None


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


class EquivalenceVerdict(Record):
    _fields = ("ok", "witness")

    def __init__(self, ok: bool, witness=None):
        self.ok = ok
        self.witness = {} if witness is None else witness

    def __bool__(self):
        return self.ok


def functors_equal(f: Functor, g: Functor) -> bool:
    """Strict equality, on all objects and a generating family of
    morphisms, which determines a functor.  No check calls it: G-maps
    compare by composite_difference."""
    return (f.src is g.src and f.tgt is g.tgt
            and all(f.on_obj(i) == g.on_obj(i)
                    for i in range(f.src.n_objects))
            and all(f.on_mor(m) == g.on_mor(m)
                    for m in f.src.generating_morphisms()))


def pi0_collision(first, second, target_aut) -> EquivalenceVerdict:
    """Two source components, with representatives `first` and `second`
    (reprs), sent to one target component with `target_aut`
    automorphisms."""
    return EquivalenceVerdict(False, {
        "kind": "hom_not_bijective", "pair": [first, second],
        "hom_size_source": 0, "hom_size_target": target_aut})


def missed_component(target_object, index) -> EquivalenceVerdict:
    """The target component `index`, at `target_object` (a repr), is
    missed."""
    return EquivalenceVerdict(False, {
        "kind": "missed_component", "target_object": target_object,
        "component_index": index})


def aut_map_verdict(rep, n_auts, n_images, target_aut):
    """The failure of Aut(rep) -> Aut(F rep), with `n_auts` automorphisms
    at `rep` (a repr), `n_images` distinct images and `target_aut`
    automorphisms at the image, or None when the map is bijective."""
    if n_images == n_auts == target_aut:
        return None
    size = ({"distinct_images": n_images} if n_images < n_auts
            else {"hom_size_target": target_aut})
    return EquivalenceVerdict(False, {
        "kind": "hom_not_bijective", "pair": [rep] * 2,
        "hom_size_source": n_auts, **size})


def is_equivalence(f: Functor) -> EquivalenceVerdict:
    """Essential surjectivity plus full faithfulness, with witnesses, in
    this order: pi0 injectivity, pi0 surjectivity, then the Aut map at
    each source representative.

    For functors of groupoids full faithfulness is equivalent to pi0
    injectivity plus bijectivity of Aut(x) -> Aut(F x) at one representative
    per component; essential surjectivity is pi0 surjectivity.
    """
    src, tgt = f.src, f.tgt
    tcomps = tgt.components()
    image = {}
    for c in src.components():
        tc = tgt.component_of(f.on_obj(c.rep))
        if tc in image:
            return pi0_collision(repr(src.objects[image[tc].rep]),
                                 repr(src.objects[c.rep]),
                                 tcomps[tc].aut_order)
        image[tc] = c
    for tc in tcomps:
        if tc.index not in image:
            return missed_component(repr(tgt.objects[tc.rep]), tc.index)
    for tc, c in image.items():
        fi, rep = f.on_obj(c.rep), repr(src.objects[c.rep])
        auts = src.hom(c.rep, c.rep)
        images = set()
        for m in auts:
            fm = f.on_mor(m)
            ends = tgt.mor_src(fm), tgt.mor_tgt(fm)
            if ends != (fi, fi):
                return EquivalenceVerdict(False, {
                    "kind": "not_a_functor", "object": rep,
                    "image_source": repr(tgt.objects[ends[0]]),
                    "image_target": repr(tgt.objects[ends[1]])})
            images.add(fm)
        verdict = aut_map_verdict(rep, len(auts), len(images),
                                  tcomps[tc].aut_order)
        if verdict is not None:
            return verdict
    return EquivalenceVerdict(True)
