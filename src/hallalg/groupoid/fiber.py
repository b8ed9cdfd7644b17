"""2-fiber products of groupoids.

Objects of A x_D B are triples (a, b, phi) with phi: f(a) -> g(b) a morphism
of D; a morphism (alpha, beta) transports phi to g(beta)∘phi∘f(alpha)^-1.

The checks that use fiber products need only their pi0 and automorphism
orders, which FiberSkeleton computes from component representatives: over
components [a], [b] with f(a) ≅ g(b), the components of A x_D B are the
orbits of Aut(a) x Aut(b) on Hom_D(f a, g b), and the automorphism order
of a component is the order of the stabiliser of a point of its orbit.
fiber_product_size counts the objects without listing them.

FiberProductGroupoid materialises the object set (guarded by a budget),
with morphisms enumerable on demand.  It is the explicit construction for
small examples and the oracle for the skeleton in the tests; no check on
the production path builds one.  D's morphisms are interned as integers, so
D must be small enough to list them.
"""

from collections import Counter, defaultdict

from .. import BudgetExceededError
from .core import DEFAULT_OBJECT_BUDGET, Component, Groupoid
from .functors import FnFunctor, Functor


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
        for ca in self.a.components():
            for cb in over[d.component_of(f.on_obj(ca.rep))]:
                self._orbit_of[ca.index, cb.index] = self._orbits(ca, cb)

    def _orbits(self, ca, cb):
        """Split Hom_D(f a, g b) into orbits of Aut(a) x Aut(b), acting by
        phi -> g(beta)∘phi∘f(alpha)^-1; appends one component per orbit."""
        a, b, d = self.a, self.b, self.d
        right = {d.inverse(self.f.on_mor(m)) for m in a.hom(ca.rep, ca.rep)}
        left = {self.g.on_mor(m) for m in b.hom(cb.rep, cb.rep)}
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

    def identity_id(self, i):
        return self.index[self.d.identity(i)]


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

    # projections

    @property
    def proj_a(self) -> Functor:
        return FnFunctor(self, self.a, lambda i: self.objects[i][0],
                         lambda m: m[0], name="pr_A")

    @property
    def proj_b(self) -> Functor:
        return FnFunctor(self, self.b, lambda i: self.objects[i][1],
                         lambda m: m[1], name="pr_B")


def two_fiber_product(f: Functor, g: Functor,
                      budget=DEFAULT_OBJECT_BUDGET) -> FiberProductGroupoid:
    """The 2-fiber product with its projections (as attributes)."""
    return FiberProductGroupoid(f, g, budget=budget)
