"""The Hecke-Waldhausen simplicial groupoid of a subgroup pair H <= G and
the convolution algebras/modules it induces.

The paper defines level n as the iterated 2-fiber product
BH x_BG ... x_BG BH (n+1 factors), the Cech nerve of BH -> BG.  It is
equivalent to the action groupoid (G/H)^(n+1) // G, the Hecke-Waldhausen
space of Dyckerhoff and Kapranov, and that is level n here: an object is a
tuple of coset indices, one coordinate per factor, numbered in
lexicographic (mixed-radix) order, and a morphism (g, i) acts on every
coordinate by left multiplication.  The cosets G/K are numbered by their
least element in G.elements order, and G acts through one
left-multiplication table per subgroup.  A level holds no tuple: it is its
axis sizes, strides and those tables, it decodes a tuple from its index on
demand, and g acts on an index by the same stride arithmetic.  Face d_k
deletes coordinate k and degeneracy s_k repeats it.  Both are G-maps
(GMap): the plan of an object index table, runs of consecutive target
indices at starts found by index arithmetic, which the checks read single
entries off and slice along in windows.  No table out of the top level is
written, and the simplicial identities are equalities of tables, compared
window by window.  Every face and degeneracy carries its source's block
(GMap.block): the tuples whose first coset is coset 0, the prefix
range(stride_0) of the indices, [G:H] times fewer than the level.  G is
transitive on the first coordinate, so the block meets every orbit, and
the identities and the squares read each map on it alone
(groupoid/functors.py, groupoid/fiber.py).

pi0 of a level comes from the block of tuples whose first coset is coset
0: G is transitive on the first coordinate, so every orbit meets the block
in one orbit of the stabiliser of coset 0, and the least index of the
orbit lies there.  A search over the block through one index permutation
per generator of the stabiliser gives the components in the order, with
the representatives, of a search over the whole level; any other object is
moved into the block by a fixed element per first coset.  A level over the
budget is refused before any level is built.  The strict pullbacks that the
2-Segal squares walk have [G:H]^4 objects (degree 3), as many as X_3, and
[G:H]^2 (unital), so that refusal covers them too.  No list is as long as
the top level: the fibre count's array has one byte per object of the
block.  A top level of more than MAX_FIBRE_BYTES objects is refused before
any level is built as well.

Two models stay in the tests as oracles: the iterated fiber product and the
flat model G^n // H^(n+1) (tuples of connecting elements), with comparison
functors that must be equivalences commuting with every face and
degeneracy.

pi0 of level 1 is the double coset set H\\G/H.  The module on H\\G/P
comes from pull-push along X_1 x Y_0 <- Y_1 -> Y_0, where
Y_n = (G/P x (G/H)^n) // G is level n+1 with G/P in place of the first
G/H, a CosetLevel with faces built by `face` as X's are, checked against
the direct convolution (f.v)(x) = (1/|H|) sum_y f(y) v(y^-1 x): one pass
over G for each basis element x of H\\G/P files every y under the double
cosets of y and y^-1 x, read off each element's basis position.  The Hecke
algebra is the regular module, P = H, whose span is X's own
X_1 x X_1 <- X_2 -> X_1.  The pass reads the components of the apex, found
on its coset-0 block of [G:H]^2 objects, and each face at their
representatives, so no list is as long as the apex.  A double coset is
labelled by its least element in G.elements order, and the bases are
sorted by label.

A module is a `StructureTable` (`hallalg.structure`) keyed by basis
positions, as the Hall tables are, and the algebra reads its constants off
its regular module.  So one check decides the module axioms and, after the
right unit, associativity and the unit.  Associativity is Light's test over
the greedy spanning set S of the algebra, double cosets whose left-normed
monomials span it over F_p: n^2 |S| triples, not n^3 (|S| = 4 for (S5, 1),
3 for (S6, S3)).  A module on m double cosets reads the rows (s, b) for s
in S, |S| n m triples, after the algebra's check has certified it, when the
two read fewer than the n^2 m of every row; over an algebra that fails its
check, or when they do not, every triple.  Each check counts its triples
against the budget before it reads any.
"""

from fractions import Fraction
from functools import cached_property
from itertools import product as iproduct
from math import prod

from .. import BudgetExceededError, UsageError
from ..groupoid import ActionGroupoid, GMap, pull_push_table
from ..groupoid.core import DEFAULT_OBJECT_BUDGET, Component
from ..groups import FiniteGroup
from ..structure import (StructureTable, check_action, check_algebra,
                         spanning_set)
from .simplicial import TruncatedSimplicialGroupoid


# the most objects of the top Hecke-Waldhausen level, whatever the budget,
# so [G:H] <= 181.  No list is as long as the top level: the fibre count
# marks one byte per object of its coset-0 block, [G:H]^3 of them, and the
# checks hold the tables of level 2, as many again, so the ceiling bounds
# those, at most 5.9 million objects each, and the time of the passes over
# the block.  HW(S5,1) at --budget 10^11 peaks at 167 MB,
# HW(S6, young:2+2+1+1) at --budget 10^10 (180^4 objects) at 479 MB;
# HW(S6,1) is refused.
MAX_FIBRE_BYTES = 2 ** 30


def _check_subgroup(G, K):
    # G.subgroup checked K when it made it
    if K.subgroup_of is not G and not G.is_subgroup(K.elements):
        raise UsageError(f"{K.name} is not a subgroup of {G.name}")


def _refuse_over_budget(what, count, budget):
    if count > budget:
        raise BudgetExceededError(
            f"{what} has {count} objects, over the budget of {budget}")


class Cosets:
    """G/K numbered by least element in G.elements order: the coset of
    each element, the left-multiplication table mult[k][x] (element index
    k, coset x) and `home`, the number of the coset K itself."""

    def __init__(self, G: FiniteGroup, K: FiniteGroup):
        index = G.index
        coset_of = [-1] * G.order
        reps = []
        for k, g in enumerate(G.elements):
            if coset_of[k] < 0:
                for h in K.elements:
                    coset_of[index[G.op(g, h)]] = len(reps)
                reps.append(g)
        self.group, self.subgroup = G, K
        self.coset_of = coset_of
        self.count = len(reps)
        self.home = coset_of[index[G.identity]]
        self.mult = [[coset_of[index[G.op(g, r)]] for r in reps]
                     for g in G.elements]

    @cached_property
    def coset_zero(self):
        """The stabiliser of coset 0 (K conjugated by elements[0]), and
        for each coset the index of the first element taking it to coset
        0."""
        G = self.group
        to_zero = [None] * self.count
        for k, row in enumerate(self.mult):
            for x, y in enumerate(row):
                if y == 0 and to_zero[x] is None:
                    to_zero[x] = k
        stab = G.subgroup([g for g, row in zip(G.elements, self.mult)
                           if row[0] == 0], name=f"Stab({G.name}, 0)",
                          check=False)     # a point stabiliser
        return stab, to_zero


class CosetTuples:
    """The objects of a CosetLevel as a read-only sequence, each decoded
    from its index: coordinate j of object i is i // stride % size over
    the axes (stride, size)."""

    def __init__(self, axes):
        self._axes = axes
        self._count = prod(n for _, n in axes)

    def __len__(self):
        return self._count

    def __getitem__(self, i):
        if i < 0:
            i += self._count
        if not 0 <= i < self._count:
            raise IndexError("coset tuple index out of range")
        return tuple([i // s % n for s, n in self._axes])

    def __iter__(self):
        return iproduct(*(range(n) for _, n in self._axes))


class CosetLevel(ActionGroupoid):
    """(G/K_0 x ... x G/K_n) // G on tuples of coset indices, numbered in
    lexicographic (mixed-radix) order: the object (x_0..x_n) has the
    mixed-radix index over the axis sizes `sizes`.

    A level holds only its axis sizes, its strides and the tables of its
    cosets: `objects` decodes a tuple from its index on demand
    (CosetTuples), `obj_index` encodes one, and g acts on index i through
    the same stride arithmetic, with no tuple built.

    pi0 is searched on the `block` of tuples whose first coset is coset 0,
    the prefix range(block) of the indices.  An orbit of the stabiliser of
    coset 0 there gives a component's representative and Aut order, and
    [G:K_0] times its size."""

    def __init__(self, G: FiniteGroup, spaces, name):
        self.spaces = list(spaces)
        self.sizes = [s.count for s in self.spaces]
        strides = [prod(self.sizes[j + 1:]) for j in range(len(self.sizes))]
        self._ranges, self._strides = [range(n) for n in self.sizes], strides
        # (row table, stride, size) of each coordinate
        axes = list(zip([s.mult for s in self.spaces], strides, self.sizes))
        gidx = G.index

        def act(g, i):
            k = gidx[g]
            return sum([m[k][i // s % n] * s for m, s, n in axes])

        super().__init__(G, CosetTuples([(s, n) for _, s, n in axes]), act,
                         name=name)
        self.block = self.n_objects // self.sizes[0]

    def obj_index(self, obj):
        """The mixed-radix index of the tuple obj, or a KeyError if obj is
        not an object of the level."""
        if type(obj) is not tuple or len(obj) != len(self._ranges) or any(
                x not in r for x, r in zip(obj, self._ranges)):
            raise KeyError(obj)
        return sum([x * s for x, s in zip(obj, self._strides)])

    def components(self):
        """The block searched in index order through one index permutation
        per generator of the stabiliser of coset 0 (mixed radix over
        coordinates 1..n)."""
        if self._components is None:
            G = self.group
            stab, self._to_zero = self.spaces[0].coset_zero
            perms = []
            for g in stab.generators():
                k, perm = G.index[g], [0]
                for s, n in zip(self.spaces[1:], self.sizes[1:]):
                    row = s.mult[k]
                    perm = [p * n + row[x] for p in perm for x in range(n)]
                perms.append(perm)
            comp_of, comps = [-1] * self.block, []
            for start in range(self.block):
                if comp_of[start] >= 0:
                    continue
                idx = len(comps)
                comp_of[start] = idx
                stack, size = [start], 1
                while stack:
                    x = stack.pop()
                    for perm in perms:
                        t = perm[x]
                        if comp_of[t] < 0:
                            comp_of[t] = idx
                            stack.append(t)
                            size += 1
                comps.append(Component(idx, start, size * self.sizes[0],
                                       stab.order // size))
            self._comp_of, self._components = comp_of, comps
        return self._components

    def component_of(self, i):
        """Outside the block, i is first moved into it by the first element
        taking its first coset to coset 0."""
        self.components()
        if i >= self.block:
            k = self._to_zero[i // self.block]
            i = self.act(self.group.elements[k], i)
        return self._comp_of[i]


def _runs(src: CosetLevel, tgt: CosetLevel, sizes, k):
    """The run length S of the suffixes after coordinate k and the number
    of prefixes before it, once tgt's axis sizes are checked to be
    `sizes`."""
    if tgt.sizes != sizes:
        raise ValueError(f"{tgt.name} has axis sizes {tgt.sizes}, not "
                         f"{sizes}")
    return prod(src.sizes[k + 1:]), prod(src.sizes[:k])


def _planned(src: CosetLevel, tgt: CosetLevel, S, starts, repeat, name):
    """The GMap src -> tgt with the plan (S, starts, repeat) and no table,
    but for runs of one object written once, whose table is the list of
    starts.  The checks read a map out of the top level only through its
    plan: single entries (on_obj), windows (pull) and the plans of its
    composites (`composite_difference`)."""
    return GMap(src, tgt, starts if S == repeat == 1 else None,
                name=f"{name}^{len(src.spaces) - 1}", plan=(S, starts, repeat),
                block=src.block)


def face(src: CosetLevel, tgt: CosetLevel, k) -> GMap:
    """d_k: deletes coordinate k, so (a, x, b) goes to (a, b): for each
    prefix a, the run of the S suffixes over a, once per value x."""
    S, prefixes = _runs(src, tgt, src.sizes[:k] + src.sizes[k + 1:], k)
    return _planned(src, tgt, S, range(0, prefixes * S, S), src.sizes[k],
                    f"d_{k}")


def degeneracy(src: CosetLevel, tgt: CosetLevel, k) -> GMap:
    """s_k: repeats coordinate k, so (a, x, b) goes to (a, x, x, b)."""
    n = src.sizes[k]
    S, prefixes = _runs(src, tgt, src.sizes[:k + 1] + src.sizes[k:], k)
    starts = [((a * n + x) * n + x) * S for a in range(prefixes)
              for x in range(n)]
    return _planned(src, tgt, S, starts, 1, f"s_{k}")


class HeckeWaldhausen:
    """Levels X_n = (G/H)^(n+1) // G, n = 0..depth, with faces and
    degeneracies.  The top level, the largest, is refused over the budget,
    or over MAX_FIBRE_BYTES objects, before any level is built."""

    def __init__(self, G: FiniteGroup, H: FiniteGroup, depth: int = 3,
                 budget: int = DEFAULT_OBJECT_BUDGET):
        _check_subgroup(G, H)
        if not 0 <= depth <= 3:
            raise UsageError(f"Hecke-Waldhausen depth {depth} is outside "
                             f"0..3")
        top = f"Hecke-Waldhausen level X_{depth}({G.name},{H.name})"
        count = (G.order // H.order) ** (depth + 1)
        _refuse_over_budget(top, count, budget)
        if count > MAX_FIBRE_BYTES:
            raise BudgetExceededError(
                f"{top} has {count} objects, over the ceiling of "
                f"{MAX_FIBRE_BYTES} that no budget lifts")
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
    """K_1\\G/K_0 as the components of the level (G/K_0 x G/K_1) // G, in
    which K_1 g K_0 is the object (K_0, g^-1 K_1).
    `basis` lists the least element of each double coset in G.elements
    order; `slot` maps a component of the level to its position in the
    basis, and `position` each element's index in G to the position of its
    double coset, filled in the one pass over G that finds the basis."""

    def __init__(self, G: FiniteGroup, level: CosetLevel):
        self.level, self.G = level, G
        first, second = level.spaces
        self.slot, self.basis, self.position = {}, [], []
        for g in G.elements:
            c = level.component_of(level.obj_index(
                (first.home, second.coset_of[G.index[G.inv(g)]])))
            if c not in self.slot:
                self.slot[c] = len(self.basis)
                self.basis.append(g)
            self.position.append(self.slot[c])

    def index(self, g) -> int:
        """Position in the basis of the double coset of g."""
        return self.position[self.G.index[g]]


def _exact(v: Fraction):
    return int(v) if v.denominator == 1 else v


def _json_rows(constants, b_name, row_name):
    """The rows {(a, b): {c: m}} as JSON, a non-integral m as "p/q"."""
    return [{"a": a, b_name: b,
             row_name: {str(c): str(m) if isinstance(m, Fraction) else m
                        for c, m in sorted(row.items())}}
            for (a, b), row in sorted(constants.items())]


def _convolution_table(G, H, left: DoubleCosets, right: DoubleCosets):
    """(f*v)(x) = (1/|H|) sum_y f(y) v(y^-1 x) on double coset indicators,
    evaluated at each representative x of the right basis: one pass over G
    per x files y under the pair (double coset of y, of y^-1 x)."""
    out = {(a, b): {} for a in range(len(left.basis))
           for b in range(len(right.basis))}
    for c, x in enumerate(right.basis):
        for y in G.elements:
            row = out[(left.index(y), right.index(G.op(G.inv(y), x)))]
            row[c] = row.get(c, 0) + 1
    return {ab: {c: _exact(Fraction(tot, H.order)) for c, tot in row.items()}
            for ab, row in out.items()}


# -- the Hecke algebra and its modules -------------------------------------


class HeckeAlgebra:
    """Structure constants of H-biinvariant functions on G under the
    pull-push product, with the convolution oracle alongside.  The algebra
    is its own regular module, HeckeModule(alg, H), and takes its
    constants, integrality and faithfulness from that module's table.  The
    coset-0 block of its apex X_2, which the pass reads, has [G:H]^2
    objects and is refused over the budget before any level is built."""

    def __init__(self, G, H, budget: int = DEFAULT_OBJECT_BUDGET):
        _check_subgroup(G, H)
        _refuse_over_budget(f"the coset-0 block of the Hecke algebra level "
                            f"X_2({G.name},{H.name})",
                            (G.order // H.order) ** 2, budget)
        self.G, self.H, self.budget = G, H, budget
        self.cosets_h = Cosets(G, H)
        self.x1 = CosetLevel(G, [self.cosets_h] * 2, f"X1({G.name},{H.name})")
        self.double_cosets = DoubleCosets(G, self.x1)
        # least element of each double coset, in G.elements order
        self.basis = self.double_cosets.basis
        self.labels = [str(t) for t in self.basis]
        self.unit_index = self.coset_index(G.identity)
        self.regular = HeckeModule(self, H)
        self.constants = self.regular.constants
        self.integral = self.regular.integral
        # faithful, as integrality needs: read off the face's group map
        self.extremal_faithful = self.regular.extremal_faithful
        self.oracle_agrees = self.convolution_constants() == self.constants

    def coset_index(self, g) -> int:
        """Index of the double coset HgH in the basis."""
        return self.double_cosets.index(g)

    def convolution_constants(self):
        """(f*g)(x) = (1/|H|) sum_y f(y) g(y^-1 x) on biinvariant
        indicators: the regular module's convolution action."""
        return self.regular.convolution_action()

    def check_associativity_and_unit(self):
        """The unit axioms, then Light's test over the spanning set
        (`hallalg.structure`), its n^2 |S| triples refused over the
        budget before any is read."""
        return check_algebra(self.regular, self.unit_index, self.budget,
                             f"the associativity check of the Hecke algebra "
                             f"of ({self.G.name},{self.H.name})")

    def to_json(self):
        return {
            "group": self.G.name, "subgroup": self.H.name,
            "cosets": self.labels,
            "constants": _json_rows(self.constants, "b", "product"),
            "extremal_faithful": self.extremal_faithful,
        }


class HeckeModule(StructureTable):
    """The convolution action of H(G,H) on functions on H\\G/P, via the
    span X_1 x Y_0 <- Y_1 -> Y_0 of the levels Y_0 = (G/P x G/H) // G and
    Y_1 = (G/P x (G/H)^2) // G and their faces d_0, d_2 and d_1, built as
    the Hecke-Waldhausen levels and faces are (X_1, X_2 and X's faces
    when P = H).  The pass reads Y_1 on its coset-0 block, [G:H]^2 objects,
    as many as the algebra's apex block, which has passed the budget.  The
    middle face d_1 passes g through, so it is faithful and pushforward
    along it keeps integrality.  The constants {(a, v): {c: m}} are keyed
    by basis positions.  The oracle runs on demand, once."""

    def __init__(self, algebra: HeckeAlgebra, P: FiniteGroup):
        G, H = algebra.G, algebra.H
        _check_subgroup(G, P)
        self.alg = algebra
        self.G, self.H, self.P = G, H, P
        gh = algebra.cosets_h
        gp = gh if P is H else Cosets(G, P)
        y0 = CosetLevel(G, [gp, gh], "Y0")
        y1 = CosetLevel(G, [gp, gh, gh], "Y1")
        # components of Y_0 are the double cosets H g P
        self.double_cosets = DoubleCosets(G, y0)
        self.basis = self.double_cosets.basis
        self.labels = [str(g) for g in self.basis]

        middle = face(y1, y0, 1)
        self.extremal_faithful = middle.passes_through
        slots = (algebra.double_cosets.slot,) + (self.double_cosets.slot,) * 2
        sums = pull_push_table(face(y1, algebra.x1, 0), face(y1, y0, 2),
                               middle, slots)
        self.integral = all(v.denominator == 1 for row in sums.values()
                            for v in row.values())
        super().__init__({ab: {c: _exact(v) for c, v in sorted(row.items())}
                          for ab, row in sorted(sums.items())})

    @cached_property
    def oracle_agrees(self):
        return self.convolution_action() == self.constants

    def convolution_action(self):
        """(f.v)(x) = (1/|H|) sum_y f(y) v(y^-1 x) on H\\G/P indicators."""
        return _convolution_table(self.G, self.H, self.alg.double_cosets,
                                  self.double_cosets)

    def check_module_axioms(self):
        """The unit acts trivially, and the action is associative: on the
        rows (s, b) for s in the algebra's spanning set once the algebra is
        certified, when its n^2 |S| triples and their |S| n m read fewer
        than the n^2 m of every row, else on every triple; each check
        refused over the algebra's budget before any triple is read."""
        alg = self.alg
        gens = spanning_set(alg.regular, alg.unit_index)
        n, m = len(alg.basis), len(self.basis)
        if not (len(gens) * (n * n + n * m) < n * n * m
                and alg.check_associativity_and_unit()[0]):
            gens = None
        return check_action(
            alg.regular, self, alg.unit_index, gens, alg.budget,
            f"the module check of the Hecke algebra of "
            f"({self.G.name},{self.H.name}) on H\\G/{self.P.name}")

    def to_json(self):
        return {
            "group": self.G.name, "subgroup": self.H.name,
            "module_subgroup": self.P.name,
            "hecke_cosets": self.alg.labels,
            "module_cosets": self.labels,
            "action": _json_rows(self.constants, "v", "result"),
        }
