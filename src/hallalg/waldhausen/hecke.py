"""The Hecke-Waldhausen simplicial groupoid of a subgroup pair H <= G and
the convolution algebras/modules it induces.

The paper defines level n as the iterated 2-fiber product
BH x_BG ... x_BG BH (n+1 factors), the Cech nerve of BH -> BG.  Level n here
is its flat model, the action groupoid G^n // H^(n+1): an object is the
tuple of connecting elements (phi_1..phi_n) in G^n, listed in lexicographic
order, and a morphism (h_0..h_n) acts by phi_i -> h_i phi_i h_{i-1}^-1.
Faces compose adjacent connectors and drop the matching h (Cech style);
degeneracies insert an identity connector and repeat an h.  The iterated
fiber product itself lives in the tests, as the oracle that the flat levels
are checked against (equivalence, and commuting faces and degeneracies).

pi0 of level 1 is the double coset set H\\G/H; pull-push along
X_1 x X_1 <- X_2 -> X_1 gives the Hecke algebra, checked against the direct
convolution (f*g)(x) = (1/|H|) sum_y f(y) g(y^-1 x).  The module on H\\G/P
comes from the same span with P in place of the first H.
"""

from fractions import Fraction
from itertools import product as iproduct

from .. import BudgetExceededError, UsageError
from ..groupoid import (ActionGroupoid, FnFunctor, Functor, PairFunctor,
                        ProductGroupoid, SpanFn, external_product,
                        is_faithful, pull_push_span)
# not called here; kept as a module binding because perfbench/spans.py wraps
# is_equivalence in every module that binds it and its tests expect this one
from ..groupoid import is_equivalence  # noqa: F401
from ..groupoid.core import DEFAULT_OBJECT_BUDGET
from ..groups import FiniteGroup
from .simplicial import TruncatedSimplicialGroupoid


def tuple_group(factors, name) -> FiniteGroup:
    """K_0 x ... x K_n with tuple tokens and coordinatewise generators."""
    def op(a, b):
        return tuple(K.op(x, y) for K, x, y in zip(factors, a, b))

    P = FiniteGroup(iproduct(*(K.elements for K in factors)), op, name=name,
                    check=False)
    gens = []
    for pos, K in enumerate(factors):
        for g in K.generators():
            t = list(P.identity)
            t[pos] = g
            gens.append(tuple(t))
    P._gens = tuple(gens)
    return P


class HeckeWaldhausen:
    """Levels X_n = G^n // H^(n+1), n = 0..depth, with faces and
    degeneracies."""

    def __init__(self, G: FiniteGroup, H: FiniteGroup, depth: int = 3):
        if not G.is_subgroup(H.elements):
            raise UsageError(f"{H.name} is not a subgroup of {G.name}")
        if not 0 <= depth <= 3:
            raise UsageError(f"Hecke-Waldhausen depth {depth} is outside 0..3")
        # the top level is the largest; refuse before building any level
        top = G.order ** depth
        if top > DEFAULT_OBJECT_BUDGET:
            raise BudgetExceededError(
                f"Hecke-Waldhausen level X_{depth}({G.name},{H.name}) has "
                f"{top} objects, over the budget of {DEFAULT_OBJECT_BUDGET}")
        self.G, self.H = G, H
        self.depth = depth
        self._twists = {}
        self.levels = [self.level([H] * (n + 1), f"X{n}({G.name},{H.name})")
                       for n in range(depth + 1)]
        self.faces = {}
        self.degeneracies = {}
        for n in range(1, depth + 1):
            for k in range(n + 1):
                self.faces[(n, k)] = self.face(
                    self.levels[n], self.levels[n - 1], n, k)
        for n in range(0, depth):
            for k in range(n + 1):
                self.degeneracies[(n, k)] = self.degeneracy(
                    self.levels[n], self.levels[n + 1], n, k)

    def twist(self, a, phi, b):
        """a phi b^-1, memoised: every morphism target goes through it."""
        try:
            return self._twists[a, phi, b]
        except KeyError:
            G = self.G
            out = self._twists[a, phi, b] = G.op(G.op(a, phi), G.inv(b))
            return out

    def level(self, factors, name) -> ActionGroupoid:
        """G^n // (K_0 x ... x K_n) for subgroups K_t of G: (k_0..k_n) acts
        by phi_t -> k_t phi_t k_{t-1}^-1.  With every K_t = H this is X_n."""
        twist = self.twist

        def act(ks, i):
            return index[tuple(map(twist, ks[1:], objs[i], ks))]

        X = ActionGroupoid(tuple_group(factors, f"{name}:group"),
                           iproduct(self.G.elements, repeat=len(factors) - 1),
                           act, name=name, check=False)
        # one object index per level: act and obj_index share it
        objs = X.objects
        index = X._obj_index = {f: i for i, f in enumerate(objs)}
        return X

    def face(self, src, tgt, n, k) -> Functor:
        """d_k: X_n -> X_{n-1}; drops k_k and merges the connectors on
        either side of factor k (drops the outer one at k = 0, n)."""
        twist, e = self.twist, self.G.identity

        def obj(f):
            if k == 0:
                return f[1:]
            if k == n:
                return f[:-1]
            # the merged connector f[k] f[k-1] (= f[k] f[k-1] e^-1)
            return f[:k - 1] + (twist(f[k], f[k - 1], e),) + f[k + 1:]

        obj_map = [tgt.obj_index(obj(f)) for f in src.objects]

        def mor_map(m):
            ks, i = m
            return (ks[:k] + ks[k + 1:], obj_map[i])

        return FnFunctor(src, tgt, obj_map, mor_map, name=f"d_{k}^{n}")

    def degeneracy(self, src, tgt, n, k) -> Functor:
        """s_k: X_n -> X_{n+1}; an identity connector at k, k_k repeated."""
        e = self.G.identity
        obj_map = [tgt.obj_index(f[:k] + (e,) + f[k:]) for f in src.objects]

        def mor_map(m):
            ks, i = m
            return (ks[:k + 1] + ks[k:], obj_map[i])

        return FnFunctor(src, tgt, obj_map, mor_map, name=f"s_{k}^{n}")

    def simplicial(self) -> TruncatedSimplicialGroupoid:
        return TruncatedSimplicialGroupoid(
            self.levels, self.faces, self.degeneracies,
            name=f"Hecke({self.G.name},{self.H.name})")


def hecke_waldhausen(G, H, depth: int = 3) -> TruncatedSimplicialGroupoid:
    return HeckeWaldhausen(G, H, depth).simplicial()


def _exact(v: Fraction):
    return int(v) if v.denominator == 1 else v


def _json_number(v):
    return str(v) if isinstance(v, Fraction) else v


def _pull_push_table(left: Functor, right: Functor, middle: Functor):
    """Pull-push of delta_a x delta_b along the span
    left.tgt x right.tgt <- apex -> middle.tgt, for all component pairs
    (a, b): the table {(a, b): {c: value}} and whether it is integral."""
    A, B = left.tgt, right.tgt
    prod = ProductGroupoid(A, B)
    chop = PairFunctor(left, right, prod)
    table, integral = {}, True
    for a in range(len(A.components())):
        for b in range(len(B.components())):
            out = pull_push_span(chop, middle, external_product(
                prod, SpanFn.delta(A, a), SpanFn.delta(B, b)))
            integral = integral and out.is_integral()
            table[(a, b)] = {c: _exact(v) for c, v in out.values.items()}
    return table, integral


def _convolution_table(G, H, left_cosets, right_cosets, reps):
    """(f*v)(x) = (1/|H|) sum_y f(y) v(y^-1 x) on indicators of the given
    coset sets, evaluated at the representatives `reps`."""
    out = {}
    for a, da in enumerate(left_cosets):
        for b, db in enumerate(right_cosets):
            vals = {}
            for c, rep in enumerate(reps):
                tot = sum(1 for y in da if G.op(G.inv(y), rep) in db)
                if tot:
                    vals[c] = _exact(Fraction(tot, H.order))
            out[(a, b)] = vals
    return out


# -- the Hecke algebra ---------------------------------------------------------


class HeckeAlgebra:
    """Structure constants of H-biinvariant functions on G under the
    pull-push product, with the convolution oracle alongside."""

    def __init__(self, G, H):
        self.hw = HeckeWaldhausen(G, H, depth=2)
        self.G, self.H = G, H
        x1 = self.x1 = self.hw.levels[1]
        # representative G tokens, canonical order
        self.basis = [x1.objects[c.rep][0] for c in x1.components()]
        self.labels = [str(t) for t in self.basis]

        d0, d1, d2 = (self.hw.faces[(2, i)] for i in range(3))
        # the extremal face must be faithful for integrality -- verified
        self.extremal_faithful = is_faithful(d1)
        self.constants, self.integral = _pull_push_table(d0, d2, d1)
        self.unit_index = self.coset_index(G.identity)
        self.oracle_agrees = self.convolution_constants() == self.constants

    def coset_index(self, g) -> int:
        """Index of the double coset HgH in the basis."""
        return self.x1.component_of(self.x1.obj_index((g,)))

    def cosets(self):
        """The double cosets as sets of G tokens, in basis order."""
        out = [set() for _ in self.basis]
        for g in self.G.elements:
            out[self.coset_index(g)].add(g)
        return out

    def convolution_constants(self):
        """(f*g)(x) = (1/|H|) sum_y f(y) g(y^-1 x) on biinvariant
        indicators."""
        cosets = self.cosets()
        return _convolution_table(self.G, self.H, cosets, cosets, self.basis)

    def multiply(self, va: dict, vb: dict) -> dict:
        """Bilinear product of vectors keyed by basis index."""
        out = {}
        for a, ca in va.items():
            for b, cb in vb.items():
                for c, m in self.constants[(a, b)].items():
                    out[c] = out.get(c, 0) + ca * cb * m
        return {k: v for k, v in out.items() if v}

    def check_associativity_and_unit(self):
        n = len(self.basis)
        e = {self.unit_index: 1}
        for a in range(n):
            if (self.multiply(e, {a: 1}) != {a: 1}
                    or self.multiply({a: 1}, e) != {a: 1}):
                return False, ("unit", a)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    lhs = self.multiply(self.multiply({a: 1}, {b: 1}), {c: 1})
                    rhs = self.multiply({a: 1}, self.multiply({b: 1}, {c: 1}))
                    if lhs != rhs:
                        return False, ("associativity", (a, b, c))
        return True, None

    def to_json(self):
        return {
            "group": self.G.name, "subgroup": self.H.name,
            "cosets": self.labels,
            "constants": [{"a": a, "b": b,
                           "product": {str(c): _json_number(m)
                                       for c, m in sorted(v.items())}}
                          for (a, b), v in sorted(self.constants.items())],
            "extremal_faithful": self.extremal_faithful,
        }


# -- Hecke modules -------------------------------------------------------------


class HeckeModule:
    """The convolution action of H(G,H) on functions on H\\G/P, via the
    span X_1 x Y_0 <- Y_1 -> Y_0 with Y_0 = G // (P x H) and
    Y_1 = G^2 // (P x H x H), faces as in the Hecke-Waldhausen levels."""

    def __init__(self, algebra: HeckeAlgebra, P: FiniteGroup):
        G, H = algebra.G, algebra.H
        if not G.is_subgroup(P.elements):
            raise UsageError(f"{P.name} is not a subgroup of {G.name}")
        self.alg = algebra
        self.G, self.H, self.P = G, H, P
        hw = algebra.hw
        y0 = self.y0 = hw.level([P, H], "Y0")
        y1 = hw.level([P, H, H], "Y1")
        # components of G // (P x H) are the double cosets H g P
        self.basis = [y0.objects[c.rep][0] for c in y0.components()]
        self.labels = [str(g) for g in self.basis]

        d0 = hw.face(y1, algebra.x1, 2, 0)
        d1 = hw.face(y1, y0, 2, 1)
        d2 = hw.face(y1, y0, 2, 2)
        self.action_table, self.integral = _pull_push_table(d0, d2, d1)
        self.oracle_agrees = self.convolution_action() == self.action_table

    def vector_index(self, g) -> int:
        """Index of HgP in the module basis."""
        return self.y0.component_of(self.y0.obj_index((g,)))

    def convolution_action(self):
        """(f.v)(x) = (1/|H|) sum_y f(y) v(y^-1 x) on H\\G/P indicators."""
        mods = [set() for _ in self.basis]
        for g in self.G.elements:
            mods[self.vector_index(g)].add(g)
        return _convolution_table(self.G, self.H, self.alg.cosets(), mods,
                                  self.basis)

    def act(self, f: dict, v: dict) -> dict:
        out = {}
        for a, ca in f.items():
            for w, cw in v.items():
                for c, m in self.action_table[(a, w)].items():
                    out[c] = out.get(c, 0) + ca * cw * m
        return {k: x for k, x in out.items() if x}

    def check_module_axioms(self):
        alg = self.alg
        na, nv = len(alg.basis), len(self.basis)
        e = {alg.unit_index: 1}
        for v in range(nv):
            if self.act(e, {v: 1}) != {v: 1}:
                return False, ("unit", v)
        for a in range(na):
            for b in range(na):
                for v in range(nv):
                    lhs = self.act(alg.multiply({a: 1}, {b: 1}), {v: 1})
                    rhs = self.act({a: 1}, self.act({b: 1}, {v: 1}))
                    if lhs != rhs:
                        return False, ("mixed associativity", (a, b, v))
        return True, None

    def to_json(self):
        return {
            "group": self.G.name, "subgroup": self.H.name,
            "module_subgroup": self.P.name,
            "hecke_cosets": self.alg.labels,
            "module_cosets": self.labels,
            "action": [{"a": a, "v": v,
                        "result": {str(c): _json_number(m)
                                   for c, m in sorted(t.items())}}
                       for (a, v), t in sorted(self.action_table.items())],
        }
