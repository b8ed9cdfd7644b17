"""Exact cyclotomic integers: Z[zeta_m] as coefficient vectors in the power
basis 1, zeta, ..., zeta^(phi-1), phi = euler_phi(m) = deg Phi_m.

Phi_m is monic with integer coefficients, so zeta_m^k has an integer vector
in the power basis for every k; one table of these reduction rows serves
the whole kernel (`reduction_rows`).  A value is a plain tuple of
coefficients (ints, or Fractions where a caller divides): `integral_rows`
scales rows of vectors to integers by their common denominator, and
`poly_string` prints a vector as a polynomial in z.

`PackedProducts` sums weighted Hermitian products of integer vectors by
Kronecker substitution: the vectors y_j are packed once, one signed slot of
W bits per j, into phi(m) integer columns that fold in conjugation and the
reduction mod Phi_m, so that for any x, phi(m) calls of
sum(map(mul, ...)) give every coefficient of sum_c w_c x(c) conj(y_j(c))
for all j at once.  W is one bit more than an a-priori bound on every
slot, so equal packed integers mean equal slots; `Slots` reads them back.
"""

from functools import cache
from itertools import chain
from math import gcd, lcm
from operator import lshift, mul


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
def reduction_rows(m: int) -> tuple[tuple[int, ...], ...]:
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


def integral_rows(rows):
    """Rows of coefficient vectors (ints or Fractions) as integer vectors:
    (rows times d, d) for d the lcm of the Fractions' denominators, the
    rows themselves when all are ints."""
    dens = {x.denominator for row in rows for v in row for x in v
            if type(x) is not int}
    if not dens:
        return rows, 1
    den = lcm(*dens)
    return [[tuple(int(x * den) for x in v) for v in row]
            for row in rows], den


def column_norms(rows) -> list[int]:
    """Per column c, the largest l1 norm of a row's vector at c."""
    return [max(sum(map(abs, v)) for v in column) for column in zip(*rows)]


class Slots:
    """The signed slots of sum_j s_j 2^(bits j), j < count,
    |s_j| < 2^(bits - 1), for any width: plus the offset
    sum_j 2^(bits - 1) 2^(bits j), no slot borrows from the next."""

    def __init__(self, count: int, bits: int):
        self.count, self.bits = count, bits
        half = 1 << (bits - 1)
        self._offset = ((1 << bits * count) - 1) // (2 * half - 1) * half

    def slots(self, packed: int) -> list[int]:
        """The signed slots j = 0..count-1 of one packed integer."""
        bits = self.bits
        mask, half = (1 << bits) - 1, 1 << (bits - 1)
        v = packed + self._offset
        out = []
        for _ in range(self.count):
            out.append((v & mask) - half)
            v >>= bits
        return out

    def nonzero_slots(self, packed: int) -> list[tuple[int, int]]:
        """(j, slot j) for the nonzero slots of one packed integer, j
        ascending.  Offset, slot j holds half + S_j, which differs from
        the offset's half in some bit exactly when S_j is not 0, so the
        lowest set bit of the two's xor finds the next nonzero slot and
        zero slots are never read."""
        bits = self.bits
        mask, half = (1 << bits) - 1, 1 << (bits - 1)
        v = packed + self._offset
        diff = v ^ self._offset
        out = []
        base = 0
        while diff:
            j = ((diff & -diff).bit_length() - 1) // bits
            v >>= j * bits
            diff >>= (j + 1) * bits
            out.append((base + j, (v & mask) - half))
            v >>= bits
            base += j + 1
        return out


class PackedProducts(Slots):
    """Packed row products over Z[zeta_m] by Kronecker substitution: for
    integer vectors y_j (one coefficient vector per class c), and any x of
    the same classes, coefficient a of the reduced sum
    S_j = sum_c w_c x(c) conj(y_j(c)) for every j at once, as one integer
    sum_j S_j[a] 2^(W j) with a signed slot of W bits per j.

    Column a holds, at the flat position (c, b) of x, the packed
    w_c sum_k y_j(c)[k] coef_a(zeta^b conj(zeta^k)), and
    coef_a(zeta^(b-k)) is entry a of reduction row (b - k) mod m, so
    conjugation and reduction are folded into the columns once and one
    sum(map(mul, flat x, column a)) gives coefficient a of every S_j.  The
    slots never carry into each other: |S_j[a]| is at most
    sum_c w_c |x(c)|_1 |y_j(c)|_1 r, r the largest entry of a reduction
    row, for |x(c)|_1 at most xnorms[c]; W is one bit more than the
    larger of this bound and `largest` (an expected value the caller
    compares with) needs, so equal packed integers mean equal slots.  x
    has `width` coefficients per class, phi(m) by default, 2 phi(m) - 1
    for an unreduced product; ynorms default to the column norms of the
    y_j, and xnorms to ynorms, for x among the y_j."""

    def __init__(self, m: int, ys, xnorms=None, weights=None,
                 width=None, largest=0, ynorms=None):
        rows = reduction_rows(m)
        phi = len(rows[0])
        width = phi if width is None else width
        ynorms = column_norms(ys) if ynorms is None else ynorms
        xnorms = ynorms if xnorms is None else xnorms
        weights = [1] * len(ynorms) if weights is None else weights
        r = max(abs(x) for row in rows for x in row)
        bound = r * sum(abs(w) * x * y
                        for w, x, y in zip(weights, xnorms, ynorms))
        super().__init__(len(ys), max(bound, largest).bit_length() + 1)
        shifts = range(0, self.bits * self.count, self.bits)
        # coefs[b][a][k] = coef_a(zeta^b conj(zeta^k))
        coefs = [[[rows[(b - k) % m][a] for k in range(phi)]
                  for a in range(phi)] for b in range(width)]
        self.columns = [[] for _ in range(phi)]
        for c, w in enumerate(weights):
            # packed[k] = sum_j y_j(c)[k] 2^(bits j)
            packed = [sum(map(lshift, xs, shifts))
                      for xs in zip(*[y[c] for y in ys])]
            for per_a in coefs:
                for col, coef in zip(self.columns, per_a):
                    col.append(w * sum(map(mul, coef, packed)))

    def __call__(self, x) -> list[int]:
        """The phi(m) packed integers of x, a list of integer vectors of
        the given width, one per class."""
        flat = list(chain.from_iterable(x))
        if len(flat) != len(self.columns[0]):
            raise ValueError(f"{len(flat)} coefficients, not the "
                             f"{len(self.columns[0])} of the columns")
        return [sum(map(mul, flat, col)) for col in self.columns]


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
