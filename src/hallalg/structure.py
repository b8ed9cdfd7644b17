"""Structure tables {(a, b): {c: m}} of bilinear products a.b = sum_c m c,
and one check of the algebra and module axioms.  A pair with no row lies
past a truncation by degree, which is a quotient by an ideal: an axiom that
needs a missing row reads 0 = 0 there, and the checks skip it.

Associativity is certified by Light's test in bilinear form
(Clifford-Preston, The Algebraic Theory of Semigroups I, 1961).  The set
T = {z : (xy)z = x(yz) for all basis x, y} is a subspace, and it is closed
under products: for z, w in T, ((xy)z)w = (xy)(zw) (w in T), and
((xy)z)w = (x(yz))w = x((yz)w) = x(y(zw)) (z, then w twice), so zw is in
T.  Once the right and left unit axioms hold, T holds the unit as well.  So
if the unit and the left-normed monomials ((s_1 s_2) ...) s_k in a set S
span the table, every triple holds as soon as (xy)s = x(ys) for each row
(x, y) and each s in S.  On a truncated table this runs in the quotient by
degree, where a missing row is 0.  The certificate (`spanning_set`) grows S
greedily in basis order: a basis element joins S unless it already lies in
the span of the unit and the monomials, a span kept over F_p, p = PRIME,
and closed under right multiplication by S, each (vector, element) product
computed once, until its rank is n.  Rank n mod p proves that the
monomials span over Q: the constants are p-integral (a Fraction reduces
through the inverse of its denominator mod p), so an n x n minor that is
nonzero mod p is nonzero.  A rank that stays short, a denominator that p
divides or a product outside the basis leaves S the whole basis, which is
the check over every triple.

A module over an algebra so certified needs only the rows (s, y) of its
triples: L = {z : (zy).v = z.(y.v) for all basis y, v} holds the unit, and
for z, w in L, ((zw)y).v = (z(wy)).v = z.(w.(y.v)) = (zw).(y.v), by the
algebra's associativity and then z, w, z in L.  Over an algebra that is not
certified, the module check reads every triple.

A triple that fails on the way fails the check over every triple too.  That
check is then rerun over the rows up to the failing one, so the
counterexample is the first failing triple in row order, then in the order
of the module basis, as a scan of every triple finds it."""

from . import BudgetExceededError, UsageError

# the prime of the spanning certificate, larger than any denominator here
PRIME = 2 ** 61 - 1


def _product(constants, u: dict, v: dict):
    """u.v for vectors {key: coefficient}, or past the truncation the first
    pair (a, b) that has no row."""
    out = {}
    for a, x in u.items():
        for b, y in v.items():
            row = constants.get((a, b))
            if row is None:
                return a, b
            for c, m in row.items():
                out[c] = out.get(c, 0) + x * y * m
    return {c: m for c, m in out.items() if m}


class StructureTable:
    """Constants {(a, b): {c: m}}; the left and right bases are the keys a
    and b in order of first occurrence."""

    def __init__(self, constants: dict):
        self.constants = constants
        self.left_basis = list(dict.fromkeys(a for a, _ in constants))
        self.right_basis = list(dict.fromkeys(b for _, b in constants))

    def product(self, u: dict, v: dict) -> dict:
        """The bilinear extension; a key outside the bases is a usage
        error, a pair past the truncation a budget error."""
        for vec, basis in ((u, self.left_basis), (v, self.right_basis)):
            for key in vec:
                if key not in basis:
                    raise UsageError(f"class {key!r} outside the table basis")
        out = _product(self.constants, u, v)
        if isinstance(out, tuple):
            raise BudgetExceededError(f"product of {out[0]!r} and {out[1]!r} "
                                      f"is past the table's truncation")
        return out


def _reduced_row(row: dict, basis: dict):
    """The row mod PRIME, or None if PRIME divides a denominator or a key
    is outside the basis."""
    out = {}
    for c, m in row.items():
        d = m.denominator % PRIME
        if not d or c not in basis:
            return None
        if m := (m.numerator if d == 1 else
                 m.numerator * pow(d, -1, PRIME)) % PRIME:
            out[c] = m
    return out


def _eliminate(v: dict, x, row: dict):
    """v -= x row over F_PRIME, in place, dropping the zeros."""
    for c, m in row.items():
        if m := (v.get(c, 0) - x * m) % PRIME:
            v[c] = m
        else:
            v.pop(c, None)


def spanning_set(table: StructureTable, unit):
    """S, greedy over the right basis: the elements that the span of the
    unit and the left-normed monomials in the earlier ones misses, that span
    closed under right multiplication by S over F_PRIME until its rank is
    n.  The span is held in reduced echelon form, {pivot: row}, each row 1
    at its pivot and 0 at the others; a missing row multiplies to 0, the
    quotient by degree.  The whole basis when the rank stays short or a row
    does not reduce.  Needs both unit axioms."""
    constants, basis = table.constants, table.right_basis
    n, keys = len(basis), dict.fromkeys(basis)
    echelon, vectors, gens, queue, rows = {}, [], [], [], {}

    def reduce(v):
        for k in [k for k in v if k in echelon]:
            _eliminate(v, v[k], echelon[k])
        return v

    def insert(v):
        if not reduce(v):
            return
        k = next(iter(v))
        inv = pow(v[k], -1, PRIME)
        v = {c: m * inv % PRIME for c, m in v.items()}
        for row in echelon.values():
            if k in row:
                _eliminate(row, row[k], v)
        echelon[k] = v
        vectors.append(dict(v))     # the row changes as later pivots clear
        queue.extend((vectors[-1], s) for s in gens)

    def times(v, s):
        out = {}
        for a, x in v.items():
            if (a, s) not in rows:
                row = constants.get((a, s))
                rows[a, s] = {} if row is None else _reduced_row(row, keys)
            if rows[a, s] is None:
                return None
            for c, m in rows[a, s].items():
                out[c] = out.get(c, 0) + x * m
        return {c: r for c, m in out.items() if (r := m % PRIME)}

    insert({unit: 1})
    for b in basis:
        if len(vectors) == n:
            break
        if not reduce({b: 1}):
            continue
        gens.append(b)
        queue.extend((v, b) for v in vectors)
        while queue and len(vectors) < n:
            if (v := times(*queue.pop())) is None:
                return list(basis)
            insert(v)
    return gens if len(vectors) == n else list(basis)


def _unit_failure(mod: StructureTable, unit):
    """The first basis v of mod with unit.v != v, keyed by its string."""
    for v in mod.right_basis:
        if _product(mod.constants, {unit: 1}, {v: 1}) != {v: 1}:
            return {"unit_failure": str(v)}
    return None


def _failure(act, a, b, ab, v):
    """The counterexample (a.b).v != a.(b.v), or None; a triple that needs
    a missing row reads 0 = 0."""
    bv = act.get((b, v))
    if bv is None:
        return None
    lhs, rhs = _product(act, ab, {v: 1}), _product(act, {a: 1}, bv)
    if isinstance(lhs, dict) and isinstance(rhs, dict) and lhs != rhs:
        return {"triple": (str(a), str(b), str(v)),
                "lhs": {str(c): m for c, m in lhs.items()},
                "rhs": {str(c): m for c, m in rhs.items()}}
    return None


def _check_triples(alg, mod, rows, vectors, budget, stage):
    """The triples of the rows (position, ((a, b), a.b)) of alg against
    `vectors` of mod, counted against the budget first.  At a failure, the
    first failing triple of every row up to that one against the whole
    basis of mod."""
    count = len(rows) * len(vectors)
    if budget is not None and count > budget:
        raise BudgetExceededError(f"{stage} reads {count} basis triples, "
                                  f"over the budget of {budget}")
    act = mod.constants
    for i, ((a, b), ab) in rows:
        if any(_failure(act, a, b, ab, v) for v in vectors):
            for (a, b), ab in list(alg.constants.items())[:i + 1]:
                for v in mod.right_basis:
                    if wit := _failure(act, a, b, ab, v):
                        return False, wit
    return True, None


def check_algebra(table: StructureTable, unit, budget=None,
                  stage="the associativity check"):
    """The right unit, the left unit, then (a.b).s = a.(b.s) for every row
    (a, b) and each s of `spanning_set`; returns (ok, counterexample),
    keyed by strings.  Over the budget, a count of those triples is
    refused before any is read."""
    for a in table.left_basis:
        if _product(table.constants, {a: 1}, {unit: 1}) != {a: 1}:
            return False, {"unit_failure": str(a)}
    if wit := _unit_failure(table, unit):
        return False, wit
    rows = list(enumerate(table.constants.items()))
    return _check_triples(table, table, rows, spanning_set(table, unit),
                          budget, stage)


def check_action(alg: StructureTable, mod: StructureTable, unit,
                 generators=None, budget=None, stage="the module check"):
    """The unit acts trivially on mod, and (a.b).v = a.(b.v) for basis a, b
    of alg and v of mod; with `generators`, the spanning set of an algebra
    that check_algebra has certified, only for a in it.  Returns (ok,
    counterexample) as check_algebra does."""
    if wit := _unit_failure(mod, unit):
        return False, wit
    rows = [(i, ((a, b), ab)) for i, ((a, b), ab)
            in enumerate(alg.constants.items())
            if generators is None or a in generators]
    return _check_triples(alg, mod, rows, mod.right_basis, budget, stage)
