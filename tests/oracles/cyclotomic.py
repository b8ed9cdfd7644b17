"""Per-term cyclotomic arithmetic: `Cyc`, an element of Q(zeta_m) with its
conductor, reduced mod Phi_m, and mixed-conductor arithmetic that promotes
both operands to the lcm conductor via zeta_m = zeta_M^(M/m).  Conductor 1
embeds the rationals.  The production code keeps every value as a
coefficient vector over Z[zeta_e] and sums on the integer kernel of
`hallalg.exactmath.cyclotomic`; the tests read those vectors as Cyc values
and compare each sum with one Cyc product per term.

The per-pair integer route is the oracle of the packed kernel
(`PackedProducts`): `conjugate` applies the integer matrix of complex
conjugation, `dot` sums the products of two lists of vectors given by
their planes, unreduced in Z[x] and reduced mod Phi_m once, and
`hermitian_gram` makes one `dot` per pair of rows."""

from fractions import Fraction
from functools import cache
from math import gcd
from operator import mul

from hallalg.exactmath.cyclotomic import (_reduction_rows, euler_phi,
                                          poly_string, reduce_poly)


@cache
def _conjugation_columns(m: int) -> tuple[tuple[int, ...], ...]:
    """Column j of the integer matrix of complex conjugation: conj(zeta^k) =
    zeta^(m-k), so entry k is coordinate j of row (-k) mod m."""
    rows = _reduction_rows(m)
    return tuple(zip(*(rows[-k % m] for k in range(len(rows[0])))))


def conjugate(m: int, vec) -> tuple:
    """Complex conjugate of a coefficient vector over Q(zeta_m)."""
    return tuple(sum(map(mul, vec, col)) for col in _conjugation_columns(m))


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


def hermitian_gram(e: int, vectors, weights=None):
    """Yields ((i, j), sum_c w_c x_i(c) conj(x_j(c))) for i <= j over
    Z[zeta_e], each x_i a list of coefficient vectors, one per class; the
    weights w_c default to 1."""
    xs = [planes(x, weights) for x in vectors]
    bars = [planes(conjugate(e, v) for v in x) for x in vectors]
    for i, x in enumerate(xs):
        for j in range(i, len(bars)):
            yield (i, j), dot(e, x, bars[j])


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

    def to_string(self) -> str:
        """Human form like '1-2*z+1/2*z^2'; '0' when zero."""
        return poly_string(self.coeffs)

    def to_json(self):
        return {"conductor": self.m, "coeffs": [str(c) for c in self.coeffs]}
