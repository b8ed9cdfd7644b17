"""The associativity and module check over every basis triple, the oracle of
`hallalg.structure`'s Light's test: (a.b).v = a.(b.v) is read for every row
(a, b) and every basis v, in row order, then in the order of the basis.  A
triple that needs a missing row, past a truncation by degree, is skipped."""


def _product(constants, u, v):
    """u.v, or the first pair (a, b) that has no row."""
    out = {}
    for a, x in u.items():
        for b, y in v.items():
            row = constants.get((a, b))
            if row is None:
                return a, b
            for c, m in row.items():
                out[c] = out.get(c, 0) + x * y * m
    return {c: m for c, m in out.items() if m}


def check_algebra(table, unit):
    """The right unit, then the table as a module over itself."""
    for a in table.left_basis:
        if _product(table.constants, {a: 1}, {unit: 1}) != {a: 1}:
            return False, {"unit_failure": str(a)}
    return check_action(table, table, unit)


def check_action(alg, mod, unit):
    """The unit acts trivially on mod, and (a.b).v = a.(b.v) for basis a, b
    of alg and v of mod; returns (ok, counterexample), keyed by strings."""
    act = mod.constants
    for v in mod.right_basis:
        if _product(act, {unit: 1}, {v: 1}) != {v: 1}:
            return False, {"unit_failure": str(v)}
    for (a, b), ab in alg.constants.items():
        for v in mod.right_basis:
            bv = act.get((b, v))
            if bv is None:
                continue
            lhs, rhs = _product(act, ab, {v: 1}), _product(act, {a: 1}, bv)
            if isinstance(lhs, dict) and isinstance(rhs, dict) and lhs != rhs:
                return False, {"triple": (str(a), str(b), str(v)),
                               "lhs": {str(c): m for c, m in lhs.items()},
                               "rhs": {str(c): m for c, m in rhs.items()}}
    return True, None
