"""Explicit finite groups on hashable element tokens.

Multiplication is a callable on tokens; no Cayley table is stored.  The
identity is found and verified on construction, and each inverse is the
power e^(ord e - 1), verified on both sides.  With ``check=True`` (groups
from outside input, Cayley JSON included) inverses are also proved unique by
an exhaustive scan and associativity is checked exhaustively up to a budget
and on a seeded sample beyond it.  The groups the program builds itself
(permutations, products, wreath products, subgroups) pass ``check=False``:
they are associative by construction, so their inverses are unique too.
Axiom failures raise ``UsageError``.
"""

import json
import random
from functools import reduce

from . import BudgetExceededError, UsageError

ASSOC_FULL_CHECK_MAX_ORDER = 128


class FiniteGroup:
    def __init__(self, elements, op, name="G", check=True):
        self.elements = list(elements)
        self.name = name
        self._op = op
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise UsageError(f"{name}: duplicate elements")
        self.order = len(self.elements)
        # identity: the unique e with e*x == x for a probe x, verified on all
        probe = self.elements[0]
        ids = [e for e in self.elements if op(e, probe) == probe]
        ids = [e for e in ids if all(op(e, x) == x and op(x, e) == x
                                     for x in self.elements)]
        if len(ids) != 1:
            raise UsageError(f"{name}: no unique identity")
        self.identity = ids[0]
        self._inv = {e: self._power_inverse(e) for e in self.elements}
        if check:
            self._check_unique_inverses()
            self._check_associativity()
        self._classes = None
        self._gens = None

    def _power_inverse(self, e):
        """e^(ord e - 1), found within `order` steps, checked on both
        sides."""
        ident, op = self.identity, self._op
        prev, x = ident, e
        for _ in range(self.order):
            if x == ident:
                break
            prev, x = x, op(x, e)
        if x != ident or op(e, prev) != ident or op(prev, e) != ident:
            raise UsageError(f"{self.name}: no inverse for {e!r}")
        return prev

    def _check_unique_inverses(self):
        ident, op = self.identity, self._op
        for e in self.elements:
            if sum(1 for x in self.elements if op(e, x) == ident) != 1:
                raise UsageError(f"{self.name}: inverse of {e!r} is not "
                                 "unique")

    def _check_associativity(self):
        es = self.elements
        if self.order <= ASSOC_FULL_CHECK_MAX_ORDER:
            triples = ((a, b, c) for a in es for b in es for c in es)
        else:
            rng = random.Random(0)
            triples = ((rng.choice(es), rng.choice(es), rng.choice(es))
                       for _ in range(20000))
        op = self._op
        for a, b, c in triples:
            if op(op(a, b), c) != op(a, op(b, c)):
                raise UsageError(f"{self.name}: associativity fails at "
                                 f"{(a, b, c)!r}")

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
        k, x = 1, e
        while x != self.identity:
            x = self._op(x, e)
            k += 1
        return k

    def exponent(self):
        return reduce(_lcm, (self.element_order(e) for e in self.elements), 1)

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
        return all(self._op(a, self._inv[b]) in elems
                   for a in elems for b in elems)

    def subgroup(self, elems, name="H"):
        """The subgroup on the given tokens, sharing this group's tokens."""
        elems = sorted(set(elems), key=self.index.__getitem__)
        if not self.is_subgroup(elems):
            raise UsageError(f"{name} is not a subgroup of {self.name}")
        return FiniteGroup(elems, self._op, name=name, check=False)

    def conjugacy_classes(self):
        """Classes as tuples of tokens, ordered by smallest element index."""
        if self._classes is None:
            seen = set()
            classes = []
            for e in self.elements:
                if e in seen:
                    continue
                cls = {self._op(self._op(g, e), self._inv[g])
                       for g in self.elements}
                seen |= cls
                classes.append(tuple(sorted(cls, key=self.index.__getitem__)))
            self._classes = classes
        return self._classes

    def class_index_of(self, e):
        for i, cls in enumerate(self.conjugacy_classes()):
            if e in cls:
                return i
        raise KeyError(e)

    def commutator_subgroup(self):
        comms = {self._op(self._op(a, b),
                          self._op(self._inv[a], self._inv[b]))
                 for a in self.elements for b in self.elements}
        return self.subgroup_closure(comms)

    def abelianization_order(self):
        return self.order // len(self.commutator_subgroup())

    def cayley_json(self):
        table = [[self.index[self._op(a, b)] for b in self.elements]
                 for a in self.elements]
        return {"order": self.order, "table": table}

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


def _lcm(a, b):
    from math import gcd
    return a * b // gcd(a, b)


# permutation helpers (one-line tuples on range(n))

def perm_mul(p, q):
    """(p*q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


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


def perm_cycles(p):
    """Cycles of p as tuples, each starting at its smallest point."""
    seen = [False] * len(p)
    cycles = []
    for i in range(len(p)):
        if not seen[i]:
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = p[j]
            cycles.append(tuple(cyc))
    return cycles


def cycle_type(p):
    return tuple(sorted((len(c) for c in perm_cycles(p)), reverse=True))


def all_perms(n):
    from itertools import permutations
    return [tuple(p) for p in permutations(range(n))]


# named families

def cyclic_group(n):
    assert n >= 1
    return FiniteGroup(list(range(n)), lambda a, b: (a + b) % n,
                       name=f"cyclic:{n}")


def symmetric_group(n):
    assert n >= 0
    # composition of permutations is associative by construction
    return FiniteGroup(all_perms(n), perm_mul, name=f"sym:{n}", check=False)


def dihedral_group(n):
    """Order 2n: tokens (rotation, flip)."""
    assert n >= 1

    def op(a, b):
        r1, s1 = a
        r2, s2 = b
        # s * r = r^-1 * s
        r = (r1 + (r2 if s1 == 0 else -r2)) % n
        return (r, (s1 + s2) % 2)

    elems = [(r, s) for s in (0, 1) for r in range(n)]
    return FiniteGroup(elems, op, name=f"dihedral:{n}")


def trivial_group():
    return FiniteGroup([0], lambda a, b: 0, name="trivial")


def direct_product(G, H, name=None):
    elems = [(g, h) for g in G.elements for h in H.elements]

    def op(a, b):
        return (G.op(a[0], b[0]), H.op(a[1], b[1]))

    return FiniteGroup(elems, op, name=name or f"product:({G.name},{H.name})",
                       check=False)


def klein_group():
    g = direct_product(cyclic_group(2), cyclic_group(2))
    g.name = "klein"
    return g


def symmetric_subgroup(G, k):
    """The canonical sym:k inside sym:n (fixing points k..n-1)."""
    n = len(G.elements[0])
    if not 0 <= k <= n:
        raise UsageError(f"sym:{k} does not embed canonically in {G.name}")
    elems = [p for p in G.elements if all(p[i] == i for i in range(k, n))]
    return G.subgroup(elems, name=f"sym:{k}")


def alternating_subgroup(G):
    n = len(G.elements[0])
    elems = [p for p in G.elements if perm_sign(p) == 1]
    return G.subgroup(elems, name=f"alt:{n}")


def young_subgroup(G, blocks):
    """prod_i sym(block_i) inside sym:n for a composition of n."""
    n = len(G.elements[0])
    if sum(blocks) != n:
        raise UsageError(f"young blocks {blocks} do not sum to {n}")
    bounds = []
    start = 0
    for b in blocks:
        bounds.append((start, start + b))
        start += b
    elems = [p for p in G.elements
             if all(lo <= p[i] < hi for lo, hi in bounds
                    for i in range(lo, hi))]
    return G.subgroup(elems, name="young:" + "+".join(map(str, blocks)))


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
        groups = [named_group(p) for p in parts]
        out = groups[0]
        for g in groups[1:]:
            out = direct_product(out, g)
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
            return alternating_subgroup(symmetric_group(n))
        if fam == "dihedral":
            return dihedral_group(n)
    raise UsageError(f"unknown group spec {spec!r}")


def named_subgroup(G: FiniteGroup, spec: str) -> FiniteGroup:
    """Subgroup of G by spec: 'sym:k', 'alt:k', 'young:a+b', 'trivial',
    'all', or a comma list of element indices."""
    spec = spec.strip()
    if spec == "all":
        return G.subgroup(G.elements, name=G.name)
    if spec == "trivial":
        return G.subgroup([G.identity], name="trivial")
    if spec.startswith("sym:"):
        return symmetric_subgroup(G, int(spec[4:]))
    if spec.startswith("alt:"):
        H = alternating_subgroup(G)
        if spec != f"alt:{len(G.elements[0])}":
            raise UsageError(f"{spec!r}: only the full alternating subgroup "
                             "is supported")
        return H
    if spec.startswith("young:"):
        blocks = [int(b) for b in spec[len("young:"):].split("+")]
        return young_subgroup(G, blocks)
    if spec.startswith("indices:"):
        idxs = [int(i) for i in spec[len("indices:"):].split(",") if i]
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
