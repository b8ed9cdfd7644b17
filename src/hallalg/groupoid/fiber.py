"""2-fiber products of groupoids, and the table rule that decides whether
a comparison into one is an equivalence.

Objects of A x_D B are triples (a, b, phi) with phi: f(a) -> g(b) a morphism
of D; a morphism (alpha, beta) transports phi to g(beta)∘phi∘f(alpha)^-1.

strict_pullback_equivalence decides on the index tables whether
x -> (fa x, fb x) from an apex X into A x_D B is an equivalence, for G-maps
of action groupoids.  Along an isofibration f (onto the groups of D), the
strict pullback P = {(u, v) : f u = g v} is equivalent to A x_D B.  P is
the action groupoid of G_P = {(a, b) : f a = g b}, and the comparison has
the group map rho: h -> (fa h, fb h), whose kernel N is the product of the
apex factors that neither fa nor fb selects; it is an equivalence exactly
when N acts freely and G_P x_G X -> P is a bijection.  Where rho is onto
G_P (the degree-3 squares, the Hecke-Waldhausen unital squares), that is
X/N -> P: every object of P is hit and each fibre is one free N-orbit, with
no pi0 of any level.  That is a count, not a walk: each fibre must hold
|N| objects, and N must act freely at each object of the apex's
`transversal`, which meets every orbit of the apex's groups (a triangle
level: one triangle per component).  N is a kernel, hence normal, so its
stabilisers along an orbit are conjugate and freeness at one object is
freeness on the orbit; and a fibre of |N| objects on which N acts freely
is one N-orbit.  Otherwise (rho injective: the S-construction's unital
squares, where s_0 maps Aut(A) diagonally), and to name the witness of a
failure, the rule runs is_equivalence's decision on P, whose components
are the G_P-orbits of the images of the apex's representatives.  Both
passes walk P and nothing larger, so P's size, sum over the objects d of
D of n_f(d) n_g(d), is what the budget counts, before either pass runs.
P is numbered by the legs' fibre sizes and the rank of each object in its
fibre, which a leg with a plan (GMap) gives with no pass over its table.
The count reads the apex's two maps in windows of `functors.RUN` objects
(GMap.pull), so that its only list as long as P is its array, one count
per object.  Where rho must be a bijection, every map of the square has a
block (GMap) and fa sends the apex's block into A's, as on every
Hecke-Waldhausen square, the bijection is decided on the apex's block
alone, onto the points of P over A's block: X -> P is then a G-map over
the transitive G-set whose fibres the blocks are, and a bijection exactly
when it is one on the fibres over the base point.  The array then holds
one byte per point over A's block, [G:H] times fewer than P.  The walk of
every N-orbit of the apex that the count replaces, and the count over
every object, are test oracles (`tests/oracles/groupoid.py`).

FiberProductGroupoid materialises the object set (guarded by a budget),
with morphisms enumerable on demand.  It is the explicit construction for
small examples (`two_fiber_product`, as in demos/01) and the oracle for the
table rule in the tests; no check builds one.  D's morphisms are interned
as integers, so D must be small enough to list them.
"""

from functools import cached_property
from itertools import chain
from operator import add

from .. import BudgetExceededError
from . import functors
from .core import ActionGroupoid, DEFAULT_OBJECT_BUDGET, Groupoid
from .functors import (EquivalenceVerdict, Functor, GMap, aut_map_verdict,
                       missed_component, pi0_collision)


def _used(m: GMap):
    """The coordinates of the source's groups that the group map of m
    keeps: None when g passes through (the map is injective), none for the
    trivial map, else those its selection names."""
    if m.sel is None:
        return None if m.fill is None else set()
    return set(m.sel) - {None}


def _kernel(group, used):
    """(|K|, generators of K) for K the kernel of a group map that keeps
    the coordinates `used` of `group` (None: the map is injective): the
    factors outside `used`, or the whole group when it has no factors."""
    if used is None or group.order == 1:
        return 1, []
    factors = getattr(group, "factors", None)
    if factors is None:
        return group.order, list(group.generators())
    order, gens = 1, []
    for c, k in enumerate(factors):
        if c not in used and k.order > 1:
            order *= k.order
            for h in k.generators():
                t = list(group.identity)
                t[c] = h
                gens.append(tuple(t))
    return order, gens


def _group_tuples(src, *maps):
    """The distinct tuples of the groups at x and at m(x) for each G-map m
    in `maps`, over the objects x of src; a level with a `group` acts by
    it at every object."""
    spaces = (src, *(m.tgt for m in maps))
    if None not in (s.group for s in spaces):
        return {tuple(s.group for s in spaces)} if src.n_objects else set()
    return set(zip(map(src.group_at, range(src.n_objects)),
                   *(map(m.tgt.group_at, m.table) for m in maps)))


def _check_isofibration(f: GMap):
    """f must be onto the groups of its target at every object: it passes
    g through, or selects distinct coordinates with no fill, and the
    source's group is the target's times the kernel."""
    used = _used(f)
    if f.fill is None and (used is None or len(used) == len(f.sel)) and all(
            s.order == t.order * _kernel(s, used)[0]
            for s, t in _group_tuples(f.src, f)):
        return
    raise ValueError(f"the leg {f.name} is not onto the groups of "
                     f"{f.tgt.name}, so the strict pullback is not the "
                     f"fiber product")


def _orbit(space, x, gens, seen):
    """Mark the orbit of x under `gens` in `seen`; its size."""
    seen[x], stack, n = 1, [x], 1
    while stack:
        y = stack.pop()
        for h in gens:
            z = space.act(h, y)
            if not seen[z]:
                seen[z] = 1
                stack.append(z)
                n += 1
    return n


class _Square:
    """The comparison from the apex of fa, fb into the strict pullback P
    of f: A -> D <- B: g.  The objects of P are numbered over each object
    d of D, in the order of d, then of u in f^-1(d), then of v in
    g^-1(d)."""

    def __init__(self, fa: GMap, fb: GMap, f: GMap, g: GMap):
        self.fa, self.fb, self.f, self.g = fa, fb, f, g
        self.apex, self.a, self.b = fa.src, f.src, g.src
        ua, ub = _used(fa), _used(fb)
        self.used = None if ua is None or ub is None else ua | ub
        self.f_used = _used(f)
        n_d = f.tgt.n_objects

        def ranks(leg):
            count = [0] * n_d
            if leg.plan is not None:    # the q-th copy of a run is rank q
                S, starts, repeat = leg.plan
                for s in starts:
                    count[s:s + S] = [repeat] * S
                return count, [q for q in range(repeat)
                               for _ in range(S)] * len(starts)
            rank = []
            for d in leg.table:
                rank.append(count[d])
                count[d] += 1
            return count, rank

        (nf, self._rf), (self.ng, self.rg) = ranks(f), ranks(g)
        self._offset, self.size = [], 0
        for a, b in zip(nf, self.ng):
            self._offset.append(self.size)
            self.size += a * b

    @cached_property
    def base(self):
        """The number of the point (u, v) of P, less the rank of v, for
        each u of A; read by the passes over every object of the apex."""
        offset, ng = self._offset, self.ng
        return [offset[d] + r * ng[d] for d, r in zip(self.f.table, self._rf)]

    def point(self, u, v):
        return self.base[u] + self.rg[v]

    def describe(self, p):
        """The repr of the object (u, v) of P numbered p."""
        d = self.f.table
        u = next(u for u, start in enumerate(self.base)
                 if start <= p < start + self.ng[d[u]])
        v = next(v for v, e in enumerate(self.g.table)
                 if e == d[u] and self.point(u, v) == p)
        return repr((self.a.objects[u], self.b.objects[v]))

    def p_group(self, ga, gb):
        """(|G_P|, generators) of G_P in ga x gb: the generators b of gb,
        each with a lift of g(b) along f, then the kernel of f with the
        identity of gb."""
        k_order, kernel = _kernel(ga, self.f_used)
        sel, gens = self.f.sel, []
        for b in gb.generators():
            e = self.g.hom(b)
            if sel is not None:
                t = list(ga.identity)
                for c, x in zip(sel, e):
                    t[c] = x
                e = tuple(t)
            gens.append((e, b))
        return gb.order * k_order, gens + [(k, gb.identity) for k in kernel]

    def _fibre(self):
        """(block, base, size) where every map of the square has a block
        (GMap), fa passes g through and sends the apex's block into A's:
        then the points (u, v) of P with u in A's block are numbered base[u]
        + rank of v, and there are `size` of them.  The apex's block is the
        fibre over the base point t of a G-map onto a transitive G-set T,
        A's block the fibre over t of A -> T, and fa commutes with the two
        (they agree on the block, which meets every orbit).  So X -> P is a
        G-map over T, and a bijection exactly when it is one from the
        apex's block onto these points, its fibre over t.  (A pass needs
        less: A's block meets every orbit, so points that cover it cover P,
        which has as many objects as the apex.)  Else None."""
        fa, f, run = self.fa, self.f, functors.RUN
        if (None in (fa.block, self.fb.block, f.block, self.g.block)
                or not fa.passes_through):
            return None
        block, on_a = fa.block, range(self.a.n_objects)
        for lo in range(0, block, run):
            if max(fa.pull(on_a, lo, min(lo + run, block))) >= f.block:
                return None
        base, size = [], 0
        for d in f.pull(range(f.tgt.n_objects), 0, f.block):
            base.append(size)
            size += self.ng[d]
        return block, base, size

    def fibres(self) -> bool:
        """Whether rho is onto G_P at every object, every object of P is
        hit, each fibre holds |N| objects and N acts freely at each object
        of the apex's transversal: then each fibre is one free N-orbit (see
        the module docstring).  False also where rho is not onto."""
        apex, fa, fb = self.apex, self.fa, self.fb
        if self.size > apex.n_objects:
            return False
        kernels = {}
        for gx, ga, gb in _group_tuples(apex, fa, fb):
            kernels[gx] = _kernel(gx, self.used)
            # |G_P| as p_group counts it, without listing generators
            p_order = gb.order * _kernel(ga, self.f_used)[0]
            if gx.order != kernels[gx][0] * p_order:
                return False            # rho is not onto G_P
        n, run = apex.n_objects, functors.RUN

        def windows(base, n):
            # the points of P, numbered from `base`, of the apex objects
            # 0..n-1, a window at a time
            for lo in range(0, n, run):
                hi = min(lo + run, n)
                yield map(add, fa.pull(base, lo, hi),
                          fb.pull(self.rg, lo, hi))

        # a bijection onto P, decided on the points of P over the fibre of
        # A that the apex's block meets where that is all it meets (_fibre),
        # else counted as any other rho is, with |N| = 1
        fibre = (self._fibre() if all(k == 1 for k, _ in kernels.values())
                 else None)
        if fibre is not None:
            block, base, size = fibre
            if self.size != n or size != block:
                return False
            hit = bytearray(size)
            for window in windows(base, block):
                for p in window:
                    hit[p] = 1
            return 0 not in hit
        count = [0] * self.size
        for window in windows(self.base, n):
            for p in window:
                count[p] += 1
        if 0 in count:
            return False
        for gx, p in zip(map(apex.group_at, range(n)),
                         chain.from_iterable(windows(self.base, n))):
            if count[p] != kernels[gx][0]:
                return False            # a fibre is not |N| objects
        seen = bytearray(n)
        for x in apex.transversal:
            n_order, gens = kernels[apex.group_at(x)]
            if (n_order > 1 and not seen[x]
                    and _orbit(apex, x, gens, seen) != n_order):
                return False            # the N-orbit of x is not free
        return True

    def decide(self) -> EquivalenceVerdict:
        """is_equivalence's decision on X -> P, in its order, with its
        witness: the components of P that the comparison reaches are the
        G_P-orbits of the images of the apex's representatives, numbered
        in the order they are reached, each with its Aut order."""
        apex, a, b = self.apex, self.a, self.b
        label, auts, first = [-1] * self.size, [], {}
        for c in apex.components():
            u, v = self.fa.on_obj(c.rep), self.fb.on_obj(c.rep)
            p = self.point(u, v)
            if label[p] < 0:
                order, gens = self.p_group(a.group_at(u), b.group_at(v))
                label[p], stack, n = len(auts), [(u, v)], 1
                while stack:
                    s, t = stack.pop()
                    for h, k in gens:
                        s2, t2 = a.act(h, s), b.act(k, t)
                        q = self.point(s2, t2)
                        if label[q] < 0:
                            label[q] = label[p]
                            stack.append((s2, t2))
                            n += 1
                auts.append(order // n)
            comp = label[p]
            if comp in first:
                return pi0_collision(repr(apex.objects[first[comp].rep]),
                                     repr(apex.objects[c.rep]), auts[comp])
            first[comp] = c
        if -1 in label:
            return missed_component(self.describe(label.index(-1)),
                                    len(auts))
        seen = bytearray(apex.n_objects)
        for comp, c in first.items():
            # N meets the stabiliser of the representative in
            # |N| / |N-orbit| elements, the kernel of its Aut map
            n_order, gens = _kernel(apex.group_at(c.rep), self.used)
            images = c.aut_order * _orbit(apex, c.rep, gens, seen) // n_order
            verdict = aut_map_verdict(repr(apex.objects[c.rep]),
                                      c.aut_order, images, auts[comp])
            if verdict is not None:
                return verdict
        return EquivalenceVerdict(True)


def strict_pullback_equivalence(fa: Functor, fb: Functor, f: Functor,
                                g: Functor, budget=DEFAULT_OBJECT_BUDGET
                                ) -> EquivalenceVerdict:
    """Whether x -> (fa x, fb x) from the apex to the strict pullback P of
    f: A -> D <- B: g, hence to A x_D B, is an equivalence, decided on the
    index tables (see the module docstring), with is_equivalence's witness
    when it is not.  The functors must be G-maps of action groupoids,
    equivariant, that form a square with f∘fa = g∘fb (segal checks this
    first), and f must be onto the groups of D; otherwise ValueError.  A P
    of more than `budget` objects, counted from the legs' tables, is
    refused before either pass walks it."""
    for m in (fa, fb, f, g):
        if not (isinstance(m, GMap) and isinstance(m.src, ActionGroupoid)
                and isinstance(m.tgt, ActionGroupoid)):
            raise ValueError(f"{m.name} is not a G-map of action groupoids")
    _check_isofibration(f)
    square = _Square(fa, fb, f, g)
    if square.size > budget:
        raise BudgetExceededError(
            f"the strict pullback has {square.size} objects, over the "
            f"budget of {budget}")
    return EquivalenceVerdict(True) if square.fibres() else square.decide()


class _BaseTables:
    """Interned morphisms of the cospan base D with composition/inverse on
    integer ids."""

    def __init__(self, d: Groupoid, budget):
        self.d = d
        toks = []
        for i in range(d.n_objects):
            toks.extend(d.out(i))
            if len(toks) > budget:
                raise BudgetExceededError(
                    f"fiber-product base {d.name} has too many morphisms")
        self.tokens = toks
        self.index = {t: k for k, t in enumerate(toks)}
        self.src = [d.mor_src(t) for t in toks]
        self.tgt = [d.mor_tgt(t) for t in toks]
        self.inv = [self.index[d.inverse(t)] for t in toks]
        self._comp = {}

    def compose(self, k2, k1):
        key = (k2, k1)
        out = self._comp.get(key)
        if out is None:
            out = self.index[self.d.compose(self.tokens[k2], self.tokens[k1])]
            self._comp[key] = out
        return out


class FiberProductGroupoid(Groupoid):
    """A x_D B over f: A -> D <- B: g."""

    def __init__(self, f: Functor, g: Functor, name=None,
                 budget=DEFAULT_OBJECT_BUDGET):
        if f.tgt is not g.tgt:
            raise ValueError(f"legs {f.name} and {g.name} must share their "
                             f"target")
        self.f, self.g = f, g
        self.a, self.b, self.d = f.src, g.src, f.tgt
        self.base = _BaseTables(self.d, budget)
        fa = [f.on_obj(i) for i in range(self.a.n_objects)]
        gb = [g.on_obj(j) for j in range(self.b.n_objects)]
        hom_cache = {}
        objs = []
        for i, da in enumerate(fa):
            for j, db in enumerate(gb):
                key = (da, db)
                homs = hom_cache.get(key)
                if homs is None:
                    homs = [self.base.index[t] for t in self.d.hom(da, db)]
                    hom_cache[key] = homs
                for k in homs:
                    objs.append((i, j, k))
                if len(objs) > budget:
                    raise BudgetExceededError(
                        f"fiber product over {self.d.name} exceeds "
                        f"{budget} objects")
        super().__init__(objs, name=name or
                         f"({self.a.name} x_{self.d.name} {self.b.name})")

    # phi' = g(beta) ∘ phi ∘ f(alpha)^-1, all on interned base ids
    def _transport(self, phi, alpha, beta):
        base = self.base
        fa = base.index[self.f.on_mor(alpha)]
        gb = base.index[self.g.on_mor(beta)]
        return base.compose(base.compose(gb, phi), base.inv[fa])

    def out(self, idx):
        i, j, _ = self.objects[idx]
        return [(alpha, beta, idx) for alpha in self.a.out(i)
                for beta in self.b.out(j)]

    def gens_out(self, idx):
        i, j, _ = self.objects[idx]
        ida, idb = self.a.identity(i), self.b.identity(j)
        gens = [(alpha, idb, idx) for alpha in self.a.gens_out(i)]
        gens += [(ida, beta, idx) for beta in self.b.gens_out(j)]
        return gens

    def mor_src(self, m):
        return m[2]

    def mor_tgt(self, m):
        alpha, beta, src_idx = m
        return self.obj_index((self.a.mor_tgt(alpha), self.b.mor_tgt(beta),
                               self._transport(self.objects[src_idx][2],
                                               alpha, beta)))

    def compose(self, m2, m1):
        if m2[2] != self.mor_tgt(m1):
            raise ValueError(f"{self.name}: m2 does not start where m1 ends")
        return (self.a.compose(m2[0], m1[0]),
                self.b.compose(m2[1], m1[1]), m1[2])

    def identity(self, idx):
        i, j, _ = self.objects[idx]
        return (self.a.identity(i), self.b.identity(j), idx)

    def inverse(self, m):
        return (self.a.inverse(m[0]), self.b.inverse(m[1]),
                self.mor_tgt(m))

    def hom(self, idx, jdx):
        i, j, phi = self.objects[idx]
        i2, j2, phi2 = self.objects[jdx]
        out = []
        for alpha in self.a.hom(i, i2):
            for beta in self.b.hom(j, j2):
                if self._transport(phi, alpha, beta) == phi2:
                    out.append((alpha, beta, idx))
        return out

    def aut_size(self, idx):
        return len(self.hom(idx, idx))


def two_fiber_product(f: Functor, g: Functor,
                      budget=DEFAULT_OBJECT_BUDGET) -> FiberProductGroupoid:
    """The 2-fiber product A x_D B of f: A -> D <- B: g."""
    return FiberProductGroupoid(f, g, budget=budget)
