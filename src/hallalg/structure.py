"""Structure tables {(a, b): {c: m}} of bilinear products a.b = sum_c m c,
and one check of the algebra and module axioms.  A pair with no row lies
past a truncation by degree, which is a quotient by an ideal: an axiom that
needs a missing row reads 0 = 0 there, and the checks skip it."""

from . import BudgetExceededError, UsageError


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


def check_algebra(table: StructureTable, unit):
    """The right unit, then the table as a module over itself."""
    for a in table.left_basis:
        if _product(table.constants, {a: 1}, {unit: 1}) != {a: 1}:
            return False, {"unit_failure": str(a)}
    return check_action(table, table, unit)


def check_action(alg: StructureTable, mod: StructureTable, unit):
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
