"""Exact cyclotomic integers: Z[zeta_m] as coefficient vectors in the power
basis 1, zeta, ..., zeta^(phi-1), phi = euler_phi(m) = deg Phi_m.

Phi_m is monic with integer coefficients, so zeta_m^k has an integer vector
in the power basis for every k; one table of these reduction rows serves
the whole kernel.  A value is a plain tuple of coefficients (ints, or
Fractions where a caller divides): `reduce_poly` reduces any polynomial in
zeta_m, `conjugate` applies the fixed integer matrix of complex
conjugation, `dot` sums products over a list of vectors given by their
planes, accumulating unreduced in Z[x] and reducing mod Phi_m once per sum,
and `poly_string` prints a vector as a polynomial in z.
"""

from functools import cache
from math import gcd
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


def poly_string(coeffs) -> str:
    """Human form of a coefficient vector, like '1-2*z+1/2*z^2'; '0' when
    zero.  The coefficients are ints or Fractions."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            mono = "z" if k == 1 else f"z^{k}"
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
