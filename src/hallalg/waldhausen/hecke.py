"""The Hecke-Waldhausen simplicial groupoid of a subgroup pair H <= G and
the convolution algebras/modules it induces.

The paper defines level n as the iterated 2-fiber product
BH x_BG ... x_BG BH (n+1 factors), the Cech nerve of BH -> BG.  It is
equivalent to the action groupoid (G/H)^(n+1) // G, the Hecke-Waldhausen
space of Dyckerhoff and Kapranov, and that is level n here: an object is a
tuple of coset indices, one coordinate per factor, in lexicographic order,
and a morphism (g, i) acts on every coordinate by left multiplication.  The
cosets G/K are numbered by their least element in G.elements order, and G
acts through one left-multiplication table per subgroup.  Face d_k deletes
coordinate k and degeneracy s_k repeats it.  Both are G-maps, so each is an
object index table (a GMap), and the simplicial identities are equalities
of tables.

Two models stay in the tests as oracles: the iterated fiber product and the
flat model G^n // H^(n+1) (tuples of connecting elements), with comparison
functors that must be equivalences commuting with every face and
degeneracy.

pi0 of level 1 is the double coset set H\\G/H.  The module on H\\G/P
comes from pull-push along X_1 x Y_0 <- Y_1 -> Y_0, where Y_n is level n+1
with G/P in place of the first G/H, checked against the direct convolution
(f.v)(x) = (1/|H|) sum_y f(y) v(y^-1 x).  The Hecke algebra is the regular
module, P = H, whose span is X_1 x X_1 <- X_2 -> X_1.  The apex needs no
strict simplicial identities, so it is pinned: the full subgroupoid on the
tuples whose first coset is P, acted on by P, with [G:H]^2 objects where
level 2 has [G:P][G:H]^2.  A double coset is labelled by its least element
in G.elements order, and the bases are sorted by label.
"""

from fractions import Fraction
from functools import cached_property
from itertools import product as iproduct

from .. import BudgetExceededError, UsageError
from ..groupoid import ActionGroupoid, Functor, GMap, is_faithful
from ..groupoid.core import DEFAULT_OBJECT_BUDGET
from ..groups import FiniteGroup
from .simplicial import TruncatedSimplicialGroupoid


def _check_subgroup(G, K):
    if not G.is_subgroup(K.elements):
        raise UsageError(f"{K.name} is not a subgroup of {G.name}")


def _refuse_over_budget(what, count, budget):
    if count > budget:
        raise BudgetExceededError(
            f"{what} has {count} objects, over the budget of {budget}")


class Cosets:
    """G/K numbered by least element in G.elements order: the coset of
    each element, the left-multiplication table mult[k][x] (element index
    k, coset x), `home`, the number of the coset K itself, and the
    transporter masks: bit k of trans[x][y] is set when element k takes
    coset x to coset y."""

    def __init__(self, G: FiniteGroup, K: FiniteGroup):
        index = G.index
        coset_of = [-1] * G.order
        reps = []
        for k, g in enumerate(G.elements):
            if coset_of[k] < 0:
                for h in K.elements:
                    coset_of[index[G.op(g, h)]] = len(reps)
                reps.append(g)
        self.subgroup = K
        self.coset_of = coset_of
        self.count = len(reps)
        self.home = coset_of[index[G.identity]]
        self.mult = [[coset_of[index[G.op(g, r)]] for r in reps]
                     for g in G.elements]
        self.trans = [[0] * self.count for _ in reps]
        for k, row in enumerate(self.mult):
            for x, y in enumerate(row):
                self.trans[x][y] |= 1 << k


class CosetLevel(ActionGroupoid):
    """(G/K_0 x ... x G/K_n) // G on tuples of coset indices.  Pinned, it
    is the full subgroupoid ({K_0} x G/K_1 x ... x G/K_n) // K_0 on the
    tuples whose first coset is K_0 itself: G moves every first coset to
    K_0, so the inclusion is an equivalence, with [G:K_0] times fewer
    objects.  A hom-set intersects one transporter mask per coordinate and
    lists its elements in G.elements order (pinned, they lie in K_0)."""

    def __init__(self, G: FiniteGroup, spaces, name, pinned=False):
        self.spaces = list(spaces)
        first = self.spaces[0]
        axes = [range(s.count) for s in self.spaces]
        if pinned:
            axes[0] = [first.home]
        objs = list(iproduct(*axes))
        index = {o: i for i, o in enumerate(objs)}
        gidx, mults = G.index, [s.mult for s in self.spaces]

        def act(g, i):
            k = gidx[g]
            return index[tuple([m[k][x] for m, x in zip(mults, objs[i])])]

        super().__init__(first.subgroup if pinned else G, objs, act,
                         name=name, check=False)
        self._obj_index = index
        self._elements = G.elements

    def _transporter(self, i, j):
        mask = -1
        for s, x, y in zip(self.spaces, self.objects[i], self.objects[j]):
            mask &= s.trans[x][y]
        return mask

    def hom(self, i, j):
        els, mask, out = self._elements, self._transporter(i, j), []
        while mask:
            low = mask & -mask
            out.append((els[low.bit_length() - 1], i))
            mask ^= low
        return out

    def aut_size(self, i):
        return self._transporter(i, i).bit_count()


def face(src: CosetLevel, tgt: CosetLevel, k) -> GMap:
    """d_k: deletes coordinate k."""
    idx = tgt.obj_index
    return GMap(src, tgt, [idx(o[:k] + o[k + 1:]) for o in src.objects],
                name=f"d_{k}^{len(src.spaces) - 1}")


def degeneracy(src: CosetLevel, tgt: CosetLevel, k) -> GMap:
    """s_k: repeats coordinate k."""
    idx = tgt.obj_index
    return GMap(src, tgt, [idx(o[:k + 1] + o[k:]) for o in src.objects],
                name=f"s_{k}^{len(src.spaces) - 1}")


class HeckeWaldhausen:
    """Levels X_n = (G/H)^(n+1) // G, n = 0..depth, with faces and
    degeneracies."""

    def __init__(self, G: FiniteGroup, H: FiniteGroup, depth: int = 3,
                 budget: int = DEFAULT_OBJECT_BUDGET):
        _check_subgroup(G, H)
        if not 0 <= depth <= 3:
            raise UsageError(f"Hecke-Waldhausen depth {depth} is outside 0..3")
        # the top level is the largest; refuse before building any level
        _refuse_over_budget(
            f"Hecke-Waldhausen level X_{depth}({G.name},{H.name})",
            (G.order // H.order) ** (depth + 1), budget)
        self.G, self.H = G, H
        self.depth = depth
        self.cosets = Cosets(G, H)
        self.levels = [CosetLevel(G, [self.cosets] * (n + 1),
                                  f"X{n}({G.name},{H.name})")
                       for n in range(depth + 1)]
        lv = self.levels
        self.faces = {(n, k): face(lv[n], lv[n - 1], k)
                      for n in range(1, depth + 1) for k in range(n + 1)}
        self.degeneracies = {(n, k): degeneracy(lv[n], lv[n + 1], k)
                             for n in range(depth) for k in range(n + 1)}

    def simplicial(self) -> TruncatedSimplicialGroupoid:
        return TruncatedSimplicialGroupoid(
            self.levels, self.faces, self.degeneracies,
            name=f"Hecke({self.G.name},{self.H.name})")


def hecke_waldhausen(G, H, depth: int = 3,
                     budget: int = DEFAULT_OBJECT_BUDGET
                     ) -> TruncatedSimplicialGroupoid:
    return HeckeWaldhausen(G, H, depth, budget).simplicial()


class DoubleCosets:
    """K_1\\G/K_0 as the components of the level (G/K_0 x G/K_1) // G,
    pinned or not, in which K_1 g K_0 is the object (K_0, g^-1 K_1).
    `basis` lists the least element of each double coset in G.elements
    order; `slot` maps a component of the level to its position in the
    basis."""

    def __init__(self, G: FiniteGroup, level: CosetLevel):
        self.level, self.G = level, G
        first, second = level.spaces
        self._home = first.home
        self._second = [second.coset_of[G.index[G.inv(g)]]
                        for g in G.elements]
        self.slot, self.basis = {}, []
        for k, g in enumerate(G.elements):
            c = self._component(k)
            if c not in self.slot:
                self.slot[c] = len(self.basis)
                self.basis.append(g)

    def _component(self, k):
        lv = self.level
        return lv.component_of(lv.obj_index((self._home, self._second[k])))

    def index(self, g) -> int:
        """Position in the basis of the double coset of g."""
        return self.slot[self._component(self.G.index[g])]

    def cosets(self):
        """The double cosets as sets of G tokens, in basis order."""
        out = [set() for _ in self.basis]
        for g in self.G.elements:
            out[self.index(g)].add(g)
        return out


def _exact(v: Fraction):
    return int(v) if v.denominator == 1 else v


def _json_number(v):
    return str(v) if isinstance(v, Fraction) else v


def _pull_push_table(left: Functor, right: Functor, middle: Functor,
                     basis_a: DoubleCosets, basis_b: DoubleCosets):
    """Pull-push of delta_a x delta_b along the span
    left.tgt x right.tgt <- apex -> right.tgt (the middle leg), for all
    component pairs (a, b) in one pass over the apex: the component [x]
    adds |Aut(middle x)| / |Aut x| (pushforward_fn's weight) at
    [middle x] to the pair ([left x], [right x]).  Returns the table
    {(a, b): {c: value}} in basis positions, and whether it is
    integral."""
    A, B = left.tgt, right.tgt
    auts = [c.aut_order for c in B.components()]
    sums = {(pa, pb): {} for pa in basis_a.slot.values()
            for pb in basis_b.slot.values()}
    for x in middle.src.components():
        row = sums[(basis_a.slot[A.component_of(left.on_obj(x.rep))],
                    basis_b.slot[B.component_of(right.on_obj(x.rep))])]
        c = B.component_of(middle.on_obj(x.rep))
        pc = basis_b.slot[c]
        row[pc] = row.get(pc, 0) + Fraction(auts[c], x.aut_order)
    table = {k: {c: _exact(v) for c, v in sorted(row.items())}
             for k, row in sums.items()}
    integral = all(v.denominator == 1 for row in sums.values()
                   for v in row.values())
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


# -- the Hecke algebra and its modules -------------------------------------


def _bilinear(table, u: dict, v: dict) -> dict:
    """Bilinear extension of a structure table {(a, b): {c: m}} to vectors
    keyed by basis index."""
    out = {}
    for a, cu in u.items():
        for b, cv in v.items():
            for c, m in table[(a, b)].items():
                out[c] = out.get(c, 0) + cu * cv * m
    return {k: x for k, x in out.items() if x}


class HeckeAlgebra:
    """Structure constants of H-biinvariant functions on G under the
    pull-push product, with the convolution oracle alongside.  The algebra
    is its own regular module, HeckeModule(alg, H), and takes its
    constants, integrality and faithfulness from that module's table.  Its
    apex, the pinned level 2 {H} x (G/H)^2 // H, has [G:H]^2 objects and is
    refused over the budget before any level is built."""

    def __init__(self, G, H, budget: int = DEFAULT_OBJECT_BUDGET):
        _check_subgroup(G, H)
        _refuse_over_budget(f"Hecke algebra level X_2({G.name},{H.name})",
                            (G.order // H.order) ** 2, budget)
        self.G, self.H = G, H
        self.cosets_h = Cosets(G, H)
        self.x1 = CosetLevel(G, [self.cosets_h] * 2, f"X1({G.name},{H.name})")
        self.double_cosets = DoubleCosets(G, self.x1)
        # least element of each double coset, in G.elements order
        self.basis = self.double_cosets.basis
        self.labels = [str(t) for t in self.basis]
        self.unit_index = self.coset_index(G.identity)
        self.regular = HeckeModule(self, H)
        self.constants = self.regular.action_table
        self.integral = self.regular.integral
        # the extremal face must be faithful for integrality -- verified
        self.extremal_faithful = self.regular.extremal_faithful
        self.oracle_agrees = self.convolution_constants() == self.constants

    def coset_index(self, g) -> int:
        """Index of the double coset HgH in the basis."""
        return self.double_cosets.index(g)

    def cosets(self):
        """The double cosets as sets of G tokens, in basis order."""
        return self.double_cosets.cosets()

    def convolution_constants(self):
        """(f*g)(x) = (1/|H|) sum_y f(y) g(y^-1 x) on biinvariant
        indicators: the regular module's convolution action."""
        return self.regular.convolution_action()

    def multiply(self, va: dict, vb: dict) -> dict:
        """Bilinear product of vectors keyed by basis index."""
        return _bilinear(self.constants, va, vb)

    def check_associativity_and_unit(self):
        """The right unit, then the regular module's axioms."""
        e = {self.unit_index: 1}
        for a in range(len(self.basis)):
            if self.multiply({a: 1}, e) != {a: 1}:
                return False, ("unit", a)
        return self.regular.check_module_axioms()

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


class HeckeModule:
    """The convolution action of H(G,H) on functions on H\\G/P, via the
    span X_1 x Y_0 <- Y_1 -> Y_0 with the pinned levels
    Y_0 = {P} x G/H // P and Y_1 = {P} x (G/H)^2 // P, faces as in the
    Hecke-Waldhausen levels.  Y_1 has [G:H]^2 objects, as many as the
    algebra's apex, which has passed the budget.  The oracle runs on demand,
    once."""

    def __init__(self, algebra: HeckeAlgebra, P: FiniteGroup):
        G, H = algebra.G, algebra.H
        _check_subgroup(G, P)
        self.alg = algebra
        self.G, self.H, self.P = G, H, P
        gp, gh = Cosets(G, P), algebra.cosets_h
        y0 = CosetLevel(G, [gp, gh], "Y0", pinned=True)
        y1 = CosetLevel(G, [gp, gh, gh], "Y1", pinned=True)
        # components of Y_0 are the double cosets H g P
        self.double_cosets = DoubleCosets(G, y0)
        self.basis = self.double_cosets.basis
        self.labels = [str(g) for g in self.basis]

        middle = face(y1, y0, 1)
        self.extremal_faithful = is_faithful(middle)
        self.action_table, self.integral = _pull_push_table(
            face(y1, algebra.x1, 0), face(y1, y0, 2), middle,
            algebra.double_cosets, self.double_cosets)

    @cached_property
    def oracle_agrees(self):
        return self.convolution_action() == self.action_table

    def convolution_action(self):
        """(f.v)(x) = (1/|H|) sum_y f(y) v(y^-1 x) on H\\G/P indicators."""
        return _convolution_table(self.G, self.H, self.alg.cosets(),
                                  self.double_cosets.cosets(), self.basis)

    def act(self, f: dict, v: dict) -> dict:
        return _bilinear(self.action_table, f, v)

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
