"""Exact cyclotomic numbers: Q(zeta_m) as polynomials in zeta_m mod Phi_m.

A Cyc stores its conductor m and a coefficient vector of length
euler_phi(m) = deg Phi_m over Fraction.  Mixed-conductor arithmetic promotes
both operands to the lcm conductor via zeta_m = zeta_M^(M/m).  Conductor 1
embeds the rationals.

Phi_m is monic with integer coefficients, so zeta_m^k has an integer vector
in the power basis 1, zeta, ..., zeta^(phi-1) for every k; one table of these
reduction rows serves both Cyc and the integer kernel below.  The kernel
works on integer coefficient vectors over Z[zeta_m]: `integer_form` clears
one common denominator from a list of Cyc values, `conjugate` applies the
fixed integer matrix of complex conjugation, and `dot` sums products over a
list of vectors given by their planes, accumulating unreduced in Z[x] and
reducing mod Phi_m once per sum.
"""

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import mul


@cache
def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError(f"no cyclotomic field of conductor {m}")
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def _polydivmod_int(num: list[int], den: list[int]):
    """Exact division of integer polynomials, den monic; coefficients low-first."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quot[i - dd] = c
            for j, dc in enumerate(den):
                num[i - dd + j] -= c * dc
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return quot


@cache
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, low degree first, monic."""
    if m < 1:
        raise ValueError(f"no cyclotomic polynomial Phi_{m}")
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _polydivmod_int(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@cache
def _reduction_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """Row k, for k < m: the integer vector of zeta_m^k in the basis
    1..zeta^(phi-1)."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    rows = [tuple(int(j == k) for j in range(deg)) for k in range(deg)]
    for _ in range(deg, m):
        # zeta^k = zeta * zeta^(k-1) reduced mod Phi_m
        prev = rows[-1]
        rows.append(tuple((prev[j - 1] if j else 0) - prev[-1] * phi[j]
                          for j in range(deg)))
    return tuple(rows)


def reduce_poly(m: int, poly) -> list:
    """sum_k poly[k] zeta_m^k (k of any size) in the power basis: the
    exponents below phi(m) are kept and each higher one adds its reduction
    row once."""
    rows = _reduction_rows(m)
    deg = len(rows[0])
    out = list(poly[:deg]) + [0] * (deg - len(poly))
    for k in range(deg, len(poly)):
        c = poly[k]
        if c:
            for j, r in enumerate(rows[k % m]):
                out[j] += c * r
    return out


@cache
def _conjugation_columns(m: int) -> tuple[tuple[int, ...], ...]:
    """Column j of the integer matrix of complex conjugation: conj(zeta^k) =
    zeta^(m-k), so entry k is coordinate j of row (-k) mod m."""
    rows = _reduction_rows(m)
    return tuple(zip(*(rows[-k % m] for k in range(len(rows[0])))))


def conjugate(m: int, vec) -> tuple:
    """Complex conjugate of a coefficient vector over Q(zeta_m)."""
    return tuple(sum(map(mul, vec, col)) for col in _conjugation_columns(m))


def integer_form(values, m: int) -> tuple[list[tuple[int, ...]], int]:
    """(vectors, d): the coefficient vectors over Z[zeta_m] of d * v for
    each Cyc v, d the least common denominator.  A value outside Q(zeta_m)
    (conductor not dividing m, and not rational) raises ArithmeticError."""
    coeffs = []
    for v in values:
        if m % v.m:
            if not v.is_rational():
                raise ArithmeticError(f"{v!r} does not lie in Q(zeta_{m})")
            v = Cyc.rational(v.coeffs[0])
        coeffs.append(v.promote(m).coeffs)
    d = lcm(*(c.denominator for cs in coeffs for c in cs))
    return [tuple(c.numerator * (d // c.denominator) for c in cs)
            for cs in coeffs], d


def planes(vectors, weights=None) -> list[tuple[int, ...]]:
    """Plane k of a list of coefficient vectors: their zeta^k coefficients,
    each times its weight when weights are given."""
    out = list(zip(*vectors))
    if weights is not None:
        out = [tuple(map(mul, p, weights)) for p in out]
    return out


def dot(m: int, xs, ys) -> list[int]:
    """sum_c x_c * y_c over Z[zeta_m] for two lists of vectors given by
    their planes: the products accumulate unreduced in Z[x] and are reduced
    mod Phi_m once."""
    acc = [0] * (len(xs) + len(ys) - 1)
    for k, x in enumerate(xs):
        for j, y in enumerate(ys):
            acc[k + j] += sum(map(mul, x, y))
    return reduce_poly(m, acc)


class Cyc:
    """An element of the m-th cyclotomic field, reduced mod Phi_m."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != euler_phi(m):
            raise ValueError(f"Q(zeta_{m}) has coefficient vectors of length "
                             f"{euler_phi(m)}, not {len(coeffs)}")
        self.m = m
        self.coeffs = coeffs

    @classmethod
    def rational(cls, q) -> "Cyc":
        return cls(1, (Fraction(q),))

    @classmethod
    def zeta(cls, m: int, k: int = 1) -> "Cyc":
        return cls(m, reduce_poly(m, [0] * (k % m) + [1]))

    @classmethod
    def zero(cls, m: int = 1) -> "Cyc":
        return cls(m, (Fraction(0),) * euler_phi(m))

    @classmethod
    def one(cls, m: int = 1) -> "Cyc":
        c = [Fraction(0)] * euler_phi(m)
        c[0] = Fraction(1)
        return cls(m, c)

    def promote(self, big_m: int) -> "Cyc":
        """Re-express in Q(zeta_M) for m | M."""
        if big_m % self.m:
            raise ValueError(f"conductor {self.m} does not divide {big_m}")
        if big_m == self.m:
            return self
        step = big_m // self.m
        poly = [0] * (step * (len(self.coeffs) - 1) + 1)
        poly[::step] = self.coeffs
        return Cyc(big_m, reduce_poly(big_m, poly))

    @staticmethod
    def _pair(a, b):
        if not isinstance(a, Cyc):
            a = Cyc.rational(a)
        if not isinstance(b, Cyc):
            b = Cyc.rational(b)
        m = a.m * b.m // gcd(a.m, b.m)
        return a.promote(m), b.promote(m)

    def __add__(self, other):
        a, b = Cyc._pair(self, other)
        return Cyc(a.m, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.m, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        a, b = Cyc._pair(self, other)
        return Cyc(a.m, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyc(self.m, tuple(c * other for c in self.coeffs))
        a, b = Cyc._pair(self, other)
        acc = [0] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    acc[i + j] += x * y
        return Cyc(a.m, reduce_poly(a.m, acc))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            raise ValueError(f"a Cyc is divided only by a rational, "
                             f"not by {other!r}")
        if other == 0:
            raise ZeroDivisionError("Cyc division by zero")
        return Cyc(self.m, tuple(c / other for c in self.coeffs))

    def conj(self) -> "Cyc":
        """Complex conjugation zeta -> zeta^-1."""
        acc = [0] * self.m
        for k, c in enumerate(self.coeffs):
            acc[-k % self.m] += c
        return Cyc(self.m, reduce_poly(self.m, acc))

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ArithmeticError(f"not rational: {self!r}")
        return self.coeffs[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, Cyc):
            return NotImplemented
        a, b = Cyc._pair(self, other)
        return a.coeffs == b.coeffs

    __hash__ = None  # equality crosses conductors; not usable as a dict key

    def __repr__(self):
        if self.is_rational():
            return f"Cyc({self.coeffs[0]})"
        return f"Cyc(m={self.m}, {self.to_string()})"

    def to_string(self, var: str = "z") -> str:
        """Human form like '1-2*z+1/2*z^2'; '0' when zero."""
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                mono = var if k == 1 else f"{var}^{k}"
                if c == 1:
                    terms.append(mono)
                elif c == -1:
                    terms.append(f"-{mono}")
                else:
                    terms.append(f"{c}*{mono}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += t if t.startswith("-") else "+" + t
        return out

    def to_json(self):
        return {"conductor": self.m, "coeffs": [str(c) for c in self.coeffs]}
