"""Explicit finite groups on hashable element tokens.

Multiplication is a callable on tokens; no Cayley table is stored.  The
identity is found and verified on construction, each inverse and order
is read off one walk of the powers of a cyclic subgroup, and each inverse
is verified on both sides.  Products of groups (`TupleGroup`) take their
order, identity, product, inverses and generators from their factors
instead, and list their elements only when read.  With ``check=True`` (groups from outside input, Cayley JSON
included) associativity is decided exactly by Light's test: (x g) y =
x (g y) for every generator g and all x, y.  The elements a with
(x a) y = x (a y) for all x, y are closed under the product, and every
element is a product of generators, so no triple is sampled at any order;
and two-sided inverses in an associative product are unique.  The groups
the program builds itself (cyclic, dihedral, permutation, product, wreath
and subgroups) pass ``check=False``: they are associative by construction.
Axiom failures raise ``UsageError``.
"""

import json
from functools import cached_property, reduce
from itertools import product as iproduct
from math import gcd, lcm, prod

from . import BudgetExceededError, UsageError


class FiniteGroup:
    _gens = None         # the generators, when found
    subgroup_of = None   # the group whose subgroup() made this one

    def __init__(self, elements, op, name="G", check=True):
        self.elements = list(elements)
        self.name = name
        self._op = op
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise UsageError(f"{name}: duplicate elements")
        self.order = len(self.elements)
        self.memo = {}     # data derived from the group, dropped with it
        # identity: the unique e with e*x == x for a probe x, verified on all
        probe = self.elements[0]
        ids = [e for e in self.elements if op(e, probe) == probe]
        ids = [e for e in ids if self._is_identity(e)]
        if len(ids) != 1:
            raise UsageError(f"{name}: no unique identity")
        self.identity = ids[0]
        self._walk_powers()
        if check:
            self._check_associativity()

    def _is_identity(self, e):
        op = self._op
        return all(op(e, x) == x and op(x, e) == x for x in self.elements)

    def _walk_powers(self):
        """Each element's inverse and order, from one walk of the powers
        e, e^2, .., e^k = 1 of each element e that no earlier walk reached:
        e^j has the inverse e^(k-j) and the order k / gcd(j, k).  Every
        inverse is then checked on both sides."""
        ident, op = self.identity, self._op
        inv, order = {ident: ident}, {ident: 1}
        for e in self.elements:
            if e in order:
                continue
            powers = [e]
            while powers[-1] != ident:
                if len(powers) > self.order:
                    raise UsageError(f"{self.name}: no inverse for {e!r}")
                powers.append(op(powers[-1], e))
            k = len(powers)
            for j, x in enumerate(powers, 1):
                inv[x] = powers[k - j - 1]
                order[x] = k // gcd(j, k)
        for x, y in inv.items():
            if op(x, y) != ident or op(y, x) != ident:
                raise UsageError(f"{self.name}: no inverse for {x!r}")
        self._inv, self._order = inv, order

    def _check_associativity(self):
        """Light's test over the generators: for each g and x, the row of
        (x g) y against the row of x (g y) over all y, with g y tabled."""
        es, op = self.elements, self._op
        for g in self.generators():
            gy = [op(g, y) for y in es]
            for x in es:
                xg = op(x, g)
                if [op(xg, y) for y in es] != [op(x, z) for z in gy]:
                    y = next(y for y, z in zip(es, gy)
                             if op(xg, y) != op(x, z))
                    raise UsageError(f"{self.name}: associativity fails at "
                                     f"{(x, g, y)!r}")

    def op(self, a, b):
        return self._op(a, b)

    def inv(self, a):
        return self._inv[a]

    def __len__(self):
        return self.order

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"

    def generators(self):
        """A small generating set, greedily built from high-order elements."""
        if self._gens is None:
            order_of = {e: self.element_order(e) for e in self.elements}
            by_ord = sorted(self.elements,
                            key=lambda e: (-order_of[e], self.index[e]))
            gens, gen_set = [], {self.identity}
            for e in by_ord:
                if e not in gen_set:
                    gens.append(e)
                    gen_set = self.subgroup_closure(gens)
                    if len(gen_set) == self.order:
                        break
            self._gens = tuple(gens) if gens else (self.identity,)
        return self._gens

    def element_order(self, e):
        return self._order[e]

    def exponent(self):
        return lcm(*map(self.element_order, self.elements))

    def is_abelian(self):
        gens = self.generators()
        return all(self._op(a, b) == self._op(b, a)
                   for a in gens for b in gens)

    def subgroup_closure(self, seed):
        """The subgroup generated by `seed`, as a set of tokens."""
        out = {self.identity}
        frontier = [self.identity]
        seed = list(seed)
        while frontier:
            x = frontier.pop()
            for g in seed:
                for y in (self._op(x, g), self._op(g, x)):
                    if y not in out:
                        out.add(y)
                        frontier.append(y)
        return out

    def is_subgroup(self, elems):
        elems = set(elems)
        if self.identity not in elems or not elems <= set(self.elements):
            return False
        return all(self._op(a, self.inv(b)) in elems
                   for a in elems for b in elems)

    def subgroup(self, elems, name="H", check=True):
        """The subgroup on the given tokens, sharing this group's tokens;
        its `subgroup_of` is this group.  ``check=False`` skips the closure
        test, for a subgroup by construction."""
        elems = sorted(set(elems), key=self.index.__getitem__)
        if check and not self.is_subgroup(elems):
            raise UsageError(f"{name} is not a subgroup of {self.name}")
        sub = FiniteGroup(elems, self._op, name=name, check=False)
        sub.subgroup_of = self
        return sub

    @classmethod
    def from_cayley(cls, data, name="G"):
        if not isinstance(data, dict) or not {"order", "table"} <= set(data):
            raise UsageError('Cayley JSON must be {"order": n, '
                             '"table": [[...], ...]}')
        n = data["order"]
        table = data["table"]
        if (not isinstance(n, int) or n < 1 or not isinstance(table, list)
                or len(table) != n
                or any(not isinstance(r, list) or len(r) != n
                       for r in table)):
            raise UsageError("Cayley table shape does not match order")
        if any(x not in range(n) for r in table for x in r):
            raise UsageError("Cayley table entries out of range")
        return cls(list(range(n)), lambda a, b: table[a][b], name=name)


# permutation helpers (one-line tuples on range(n))

def perm_mul(p, q):
    """(p*q)(i) = p(q(i))."""
    return tuple([p[i] for i in q])


def perm_inv(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_sign(p):
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if not seen[i]:
            j, clen = i, 0
            while not seen[j]:
                seen[j] = True
                j = p[j]
                clen += 1
            if clen % 2 == 0:
                sign = -sign
    return sign


def all_perms(n):
    from itertools import permutations
    return [tuple(p) for p in permutations(range(n))]


# named families

def _check_size(family, n, least):
    if n < least:
        raise UsageError(f"{family}:{n}: the size must be at least {least}")


def cyclic_group(n):
    _check_size("cyclic", n, 1)
    return FiniteGroup(list(range(n)), lambda a, b: (a + b) % n,
                       name=f"cyclic:{n}", check=False)


def symmetric_group(n):
    _check_size("sym", n, 0)
    # composition of permutations is associative by construction
    return FiniteGroup(all_perms(n), perm_mul, name=f"sym:{n}", check=False)


def dihedral_group(n):
    """Order 2n: tokens (rotation, flip)."""
    _check_size("dihedral", n, 1)

    def op(a, b):
        r1, s1 = a
        r2, s2 = b
        # s * r = r^-1 * s
        r = (r1 + (r2 if s1 == 0 else -r2)) % n
        return (r, (s1 + s2) % 2)

    elems = [(r, s) for s in (0, 1) for r in range(n)]
    return FiniteGroup(elems, op, name=f"dihedral:{n}", check=False)


def trivial_group():
    return FiniteGroup([0], lambda a, b: 0, name="trivial", check=False)


class TupleGroup(FiniteGroup):
    """K_0 x ... x K_n on tuple tokens, taken from the factors K_i (listed
    in `factors`): the order, the identity, the product, the inverses
    (memoised when first asked for) and the generators are coordinatewise.
    The elements, in lexicographic order, and their index are listed only
    when read."""

    def __init__(self, factors, name):
        self.factors = tuple(factors)
        self.name = name
        self.order = prod(K.order for K in self.factors)
        self.identity = one = tuple(K.identity for K in self.factors)
        self._inv = {}
        self._gens = tuple(one[:pos] + (g,) + one[pos + 1:]
                           for pos, K in enumerate(self.factors)
                           for g in K.generators())
        self.memo = {}

    @cached_property
    def elements(self):
        return list(iproduct(*(K.elements for K in self.factors)))

    @cached_property
    def index(self):
        return {e: i for i, e in enumerate(self.elements)}

    def op(self, a, b):
        return tuple([K.op(x, y) for K, x, y in zip(self.factors, a, b)])

    _op = op

    def element_order(self, e):
        return lcm(*[K.element_order(x) for K, x in zip(self.factors, e)])

    def inv(self, a):
        out = self._inv.get(a)
        if out is None:
            out = self._inv[a] = tuple([K.inv(x)
                                        for K, x in zip(self.factors, a)])
        return out


def direct_product(G, H):
    return TupleGroup((G, H), f"product:({G.name},{H.name})")


def klein_group():
    return TupleGroup((cyclic_group(2), cyclic_group(2)), "klein")


def _degree(G, what):
    """n for G a permutation group on n points (tokens composed by
    perm_mul), where a point stabiliser, the even permutations and a Young
    subgroup are subgroups by construction; on other tokens `what` names
    no subgroup, and is a usage error."""
    if G._op is not perm_mul:
        raise UsageError(f"{what} is defined only in a permutation group, "
                         f"and {G.name} is not one")
    return len(G.elements[0])


def symmetric_subgroup(G, k):
    """The canonical sym:k inside sym:n (fixing points k..n-1)."""
    n = _degree(G, f"sym:{k}")
    if not 0 <= k <= n:
        raise UsageError(f"sym:{k} does not embed canonically in {G.name}")
    elems = [p for p in G.elements if all(p[i] == i for i in range(k, n))]
    return G.subgroup(elems, name=f"sym:{k}", check=False)


def alternating_subgroup(G):
    n = _degree(G, "the alternating subgroup")
    elems = [p for p in G.elements if perm_sign(p) == 1]
    return G.subgroup(elems, name=f"alt:{n}", check=False)


def young_subgroup(G, blocks):
    """prod_i sym(block_i) inside sym:n for a composition of n."""
    name = "young:" + "+".join(map(str, blocks))
    n = _degree(G, name)
    if any(b < 0 for b in blocks) or sum(blocks) != n:
        raise UsageError(f"young blocks {blocks} are not a composition of "
                         f"{n}")
    bounds = []
    start = 0
    for b in blocks:
        bounds.append((start, start + b))
        start += b
    elems = [p for p in G.elements
             if all(lo <= p[i] < hi for lo, hi in bounds
                    for i in range(lo, hi))]
    return G.subgroup(elems, name=name, check=False)


def named_group(spec: str) -> FiniteGroup:
    """Parse 'cyclic:n', 'sym:n', 'alt:n', 'dihedral:n', 'klein', 'trivial',
    'product:(a,b,...)' or 'file:path' (Cayley-table JSON)."""
    spec = spec.strip()
    if spec == "klein":
        return klein_group()
    if spec == "trivial" or spec == "cyclic:1":
        return trivial_group()
    if spec.startswith("product:"):
        inner = spec[len("product:"):].strip()
        if inner.startswith("(") and inner.endswith(")"):
            inner = inner[1:-1]
        parts = _split_toplevel(inner)
        if not parts:
            raise UsageError(f"empty product in {spec!r}")
        out = reduce(direct_product, map(named_group, parts))
        out.name = spec
        return out
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read a Cayley table from {path}: "
                             f"{exc}") from None
        return FiniteGroup.from_cayley(data, name=spec)
    if ":" in spec:
        fam, _, arg = spec.partition(":")
        try:
            n = int(arg)
        except ValueError:
            raise UsageError(f"bad group spec {spec!r}") from None
        if fam == "cyclic":
            return cyclic_group(n)
        if fam == "sym":
            if n > 6:
                raise BudgetExceededError(f"sym:{n} is too large")
            return symmetric_group(n)
        if fam == "alt":
            if n > 8:
                raise BudgetExceededError(f"alt:{n} is too large")
            return alternating_subgroup(symmetric_group(n))
        if fam == "dihedral":
            return dihedral_group(n)
    raise UsageError(f"unknown group spec {spec!r}")


def _spec_integers(spec: str, parts) -> list[int]:
    """The integers of a subgroup spec's argument; a UsageError naming the
    spec when one is not an integer."""
    out = []
    for x in parts:
        try:
            out.append(int(x))
        except ValueError:
            raise UsageError(f"bad subgroup spec {spec!r}: {x!r} is not an "
                             f"integer") from None
    return out


def named_subgroup(G: FiniteGroup, spec: str) -> FiniteGroup:
    """Subgroup of G by spec: 'sym:k', 'alt:k', 'young:a+b', 'trivial',
    'all', or 'indices:' and a comma list of element indices 0 <= i < |G|."""
    spec = spec.strip()
    # every spec but indices: names a subgroup by construction
    if spec == "all":
        return G.subgroup(G.elements, name=G.name, check=False)
    if spec == "trivial":
        return G.subgroup([G.identity], name="trivial", check=False)
    if spec.startswith("sym:"):
        k, = _spec_integers(spec, [spec[len("sym:"):]])
        return symmetric_subgroup(G, k)
    if spec.startswith("alt:"):
        H = alternating_subgroup(G)
        if spec != H.name:
            raise UsageError(f"{spec!r}: only the full alternating subgroup "
                             "is supported")
        return H
    if spec.startswith("young:"):
        blocks = spec[len("young:"):].split("+")
        return young_subgroup(G, _spec_integers(spec, blocks))
    if spec.startswith("indices:"):
        idxs = _spec_integers(spec, [i for i in spec[len("indices:"):]
                                     .split(",") if i])
        bad = [i for i in idxs if not 0 <= i < G.order]
        if bad:
            raise UsageError(f"bad subgroup spec {spec!r}: index {bad[0]} is "
                             f"not in 0..{G.order - 1}")
        return G.subgroup([G.elements[i] for i in idxs], name=spec)
    raise UsageError(f"unknown subgroup spec {spec!r}")


def _split_toplevel(s: str):
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur).strip())
    return [p for p in parts if p]
