"""2-fiber products of groupoids.

Objects of A x_D B are triples (a, b, phi) with phi: f(a) -> g(b) a morphism
of D; a morphism (alpha, beta) transports phi to g(beta)∘phi∘f(alpha)^-1.

The checks that use fiber products need only their pi0 and automorphism
orders, which FiberSkeleton computes from component representatives: over
components [a], [b] with f(a) ≅ g(b), the components of A x_D B are the
orbits of Aut(a) x Aut(b) on Hom_D(f a, g b), and the automorphism order
of a component is the order of the stabiliser of a point of its orbit.
fiber_product_size counts the objects without listing them.

A comparison x -> (fa x, fb x) of G-maps into A x_D B is often decided
with no pi0 at all.  Along an isofibration f the strict pullback
P = {(u, v) : f u = g v} is equivalent to the 2-fiber product, and when
the comparison's group map is onto the groups of P, with kernel N at the
apex object x, the comparison is an equivalence exactly when it hits every
object of P and each fibre is one free N-orbit.  strict_pullback_equivalence
checks this on the index tables.  It applies in two cases: every group is
one shared group object passed through (N is trivial, so the test is a
bijection onto P), or every selection of tuple groups is a projection (fa,
fb and f injective, with no fill and onto their targets' groups) and the
coordinates that fa and fb both select are exactly the pairs that f and g
identify (N is the product of the factors of the apex coordinates that
neither selects).  In any other case, and to name the witness of a failure,
the checks use FiberSkeleton.

FiberProductGroupoid materialises the object set (guarded by a budget),
with morphisms enumerable on demand.  It is the explicit construction for
small examples (`two_fiber_product`, as in demos/01) and the oracle for the
skeleton in the tests; no check builds one.  D's morphisms are interned as
integers, so D must be small enough to list them.
"""

from collections import Counter, defaultdict, deque
from itertools import repeat
from math import prod
from operator import add

from .. import BudgetExceededError
from .core import ActionGroupoid, DEFAULT_OBJECT_BUDGET, Component, Groupoid
from .functors import Functor, GMap


def _check_cospan(f: Functor, g: Functor):
    if f.tgt is not g.tgt:
        raise ValueError(f"legs {f.name} and {g.name} must share their "
                         f"target")


def fiber_product_size(f: Functor, g: Functor) -> int:
    """Number of objects of A x_D B: sum over the components c of D of
    n_A(c) n_B(c) |Aut c|, where n_A(c) counts the objects of A over c."""
    _check_cospan(f, g)
    d = f.tgt

    def over(leg):
        # one component_of per object of D that the leg reaches
        hits = Counter(map(leg.on_obj, range(leg.src.n_objects)))
        out = Counter()
        for x, n in hits.items():
            out[d.component_of(x)] += n
        return out

    n_a, n_b = over(f), over(g)
    comps = d.components()
    return sum(n * n_b[c] * comps[c].aut_order for c, n in n_a.items())


def _projection(m: GMap):
    """The selection of m when it projects tuple groups onto its target's:
    injective, with no fill, and at every object the selected factors'
    orders multiply to the order of the target's group; else None."""
    sel = m.sel
    if sel is None or None in sel or len(set(sel)) < len(sel):
        return None
    groups = set(zip(map(m.src.group_at, range(m.src.n_objects)),
                     map(m.tgt.group_at, m.table)))
    for s, t in groups:
        factors = getattr(s, "factors", None)
        if factors is None or prod(factors[k].order for k in sel) != t.order:
            return None
    return sel


def _free_kernel(group, selected):
    """(|N|, generators of N) for N the factors of `group` at the
    coordinates outside `selected`."""
    order, gens = 1, []
    for c, k in enumerate(group.factors):
        if c not in selected and k.order > 1:
            order *= k.order
            for h in k.generators():
                t = list(group.identity)
                t[c] = h
                gens.append(tuple(t))
    return order, gens


def strict_pullback_equivalence(fa: Functor, fb: Functor, f: Functor,
                                g: Functor):
    """Whether x -> (fa x, fb x) from the apex to the strict pullback P of
    f: A -> D <- B: g, hence to A x_D B, is an equivalence, decided on the
    index tables (see the module docstring); None when the rule does not
    apply.  The functors must be G-maps, equivariant, with f∘fa = g∘fb on
    objects (segal checks both tables first).  The objects of P are
    numbered over each object d of D, in the order of d, then of u in
    f^-1(d), then of v in g^-1(d)."""
    maps = (fa, fb, f, g)
    apex = fa.src
    spaces = (apex, f.src, g.src, f.tgt)
    if not (all(isinstance(m, GMap) for m in maps)
            and all(isinstance(x, ActionGroupoid) for x in spaces)
            and fb.src is apex and fa.tgt is f.src and fb.tgt is g.src
            and g.tgt is f.tgt):
        return None
    if all(m.sel is None for m in maps):
        if apex.group is None or any(x.group is not apex.group
                                     for x in spaces):
            return None
        selected = None             # N is trivial
    else:
        sa, sb, sf = map(_projection, (fa, fb, f))
        if None in (sa, sb, sf) or g.sel is None:
            return None
        at_b = {c: l for l, c in enumerate(sb)}
        if {(k, at_b[c]) for k, c in enumerate(sa) if c in at_b} != set(
                zip(sf, g.sel)):
            return None
        selected = set(sa) | set(sb)
    n_d = f.tgt.n_objects

    def ranks(leg):
        count, rank = [0] * n_d, []
        for d in leg.table:
            rank.append(count[d])
            count[d] += 1
        return count, rank

    (nf, rf), (ng, rg) = ranks(f), ranks(g)
    offset, size = [], 0
    for a, b in zip(nf, ng):
        offset.append(size)
        size += a * b
    if size > apex.n_objects:
        return False
    base = [offset[d] + r * ng[d] for d, r in zip(f.table, rf)]
    points = map(add, map(base.__getitem__, fa.table),
                 map(rg.__getitem__, fb.table))
    hit = bytearray(size)
    if selected is None:            # a bijection onto P
        if size != apex.n_objects:
            return False
        # mark every point hit, in C; then each is hit once
        deque(map(hit.__setitem__, points, repeat(1)), maxlen=0)
        return 0 not in hit
    kernels, seen, missing = {}, bytearray(apex.n_objects), size
    for x, p in enumerate(points):
        if seen[x]:
            continue
        if hit[p]:                  # a second N-orbit over p
            return False
        hit[p] = 1
        missing -= 1
        group = apex.group_at(x)
        if group not in kernels:
            kernels[group] = _free_kernel(group, selected)
        order, gens = kernels[group]
        if order > 1:               # the N-orbit of x must be free
            seen[x], stack, n = 1, [x], 1
            while stack:
                y = stack.pop()
                for h in gens:
                    z = apex.act(h, y)
                    if not seen[z]:
                        seen[z] = 1
                        stack.append(z)
                        n += 1
            if n != order:
                return False
    return missing == 0


class FiberSkeleton:
    """pi0 of A x_D B over f: A -> D <- B: g, without its objects.

    `components` lists the components pair by pair of components ([a], [b])
    in the order of A's and then B's components, and within a pair by the
    position in D.hom(f a, g b) of the least point of the orbit.  Each is a
    Component whose rep is the object (a, b, phi) of that least point phi,
    with its number of objects and the order of the stabiliser of phi in
    Aut(a) x Aut(b)."""

    def __init__(self, f: Functor, g: Functor):
        _check_cospan(f, g)
        self.f, self.g = f, g
        self.a, self.b, self.d = f.src, g.src, f.tgt
        d = self.d
        over = defaultdict(list)        # D component -> B components
        for cb in self.b.components():
            over[d.component_of(g.on_obj(cb.rep))].append(cb)
        self.components = []
        self._orbit_of = {}             # (A comp, B comp) -> {phi: index}
        lefts = {}                      # B comp -> {g(beta)}
        for ca in self.a.components():
            cbs = over[d.component_of(f.on_obj(ca.rep))]
            if not cbs:
                continue
            right = {d.inverse(f.on_mor(m))
                     for m in self.a.hom(ca.rep, ca.rep)}
            for cb in cbs:
                if cb.index not in lefts:
                    lefts[cb.index] = {g.on_mor(m)
                                       for m in self.b.hom(cb.rep, cb.rep)}
                self._orbit_of[ca.index, cb.index] = self._orbits(
                    ca, cb, right, lefts[cb.index])

    def _orbits(self, ca, cb, right, left):
        """Split Hom_D(f a, g b) into orbits of Aut(a) x Aut(b), acting by
        phi -> g(beta)∘phi∘f(alpha)^-1, given `right`, the f(alpha)^-1, and
        `left`, the g(beta); appends one component per orbit."""
        d = self.d
        n_auts = ca.aut_order * cb.aut_order
        orbit_of = {}
        for phi in d.hom(self.f.on_obj(ca.rep), self.g.on_obj(cb.rep)):
            if phi in orbit_of:
                continue
            idx = len(self.components)
            orbit_of[phi] = idx
            stack, n = [phi], 1
            while stack:
                x = stack.pop()
                for y in ([d.compose(x, m) for m in right]
                          + [d.compose(m, x) for m in left]):
                    if y not in orbit_of:
                        orbit_of[y] = idx
                        stack.append(y)
                        n += 1
            self.components.append(Component(
                idx, (ca.rep, cb.rep, phi), ca.size * cb.size * n,
                n_auts // n))
        return orbit_of

    def locate(self, u, v, phi) -> int:
        """Index of the component of the object (u, v, phi): phi is
        transported to the representatives along rep -> u and rep -> v."""
        a, b, d = self.a, self.b, self.d
        phi0 = d.compose(d.inverse(self.g.on_mor(b.from_rep(v))),
                         d.compose(phi, self.f.on_mor(a.from_rep(u))))
        return self._orbit_of[a.component_of(u), b.component_of(v)][phi0]


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

    def hom_ids(self, i, j):
        return [self.index[t] for t in self.d.hom(i, j)]


class FiberProductGroupoid(Groupoid):
    """A x_D B over f: A -> D <- B: g."""

    def __init__(self, f: Functor, g: Functor, name=None,
                 budget=DEFAULT_OBJECT_BUDGET):
        _check_cospan(f, g)
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
                    homs = self.base.hom_ids(da, db)
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

    def _tgt_obj(self, m):
        alpha, beta, src_idx = m
        i, j, phi = self.objects[src_idx]
        return (self.a.mor_tgt(alpha), self.b.mor_tgt(beta),
                self._transport(phi, alpha, beta))

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
        return self.obj_index(self._tgt_obj(m))

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
