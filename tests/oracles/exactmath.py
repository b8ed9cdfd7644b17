"""Enumeration oracles for the closed forms of `hallalg.exactmath`:
semistandard tableaux for the hook-content product, Schur polynomials
multiplied out and LR fillings found cell by cell for each shape for the
Littlewood-Richardson rule, products of weak
compositions for the number of partition-valued maps, and Schur-basis
arithmetic in one alphabet on top of the LR rule, and Hall polynomials from
the tableau formula in `Fraction` arithmetic, each monomial coefficient
walked from the empty shape.  Also the inverse of
`PartitionMap.to_json` and the unit of the multi-alphabet Schur ring,
which only the tests need."""

from collections import Counter
from fractions import Fraction
from math import prod

from hallalg.exactmath.halllittlewood import _sorted_parts, n_statistic
from hallalg.exactmath.littlewood import schur_product
from hallalg.exactmath.partitions import (PartitionMap, check_partition,
                                          compositions, conjugate,
                                          partitions_of)
from hallalg.exactmath.symfunc import MultiSymElem


def ssyt_iter(shape, d: int):
    """Yield each SSYT of `shape` with entries in 1..d, as a tuple of rows."""
    shape = check_partition(shape)
    if not shape:
        yield ()
        return
    if len(shape) > d:
        return
    rows = [[0] * r for r in shape]

    def rec(row, col):
        if row == len(shape):
            yield tuple(tuple(r) for r in rows)
            return
        nrow, ncol = (row, col + 1) if col + 1 < shape[row] else (row + 1, 0)
        lo = 1
        if col > 0:
            lo = max(lo, rows[row][col - 1])
        if row > 0 and col < shape[row - 1]:
            lo = max(lo, rows[row - 1][col] + 1)
        for v in range(lo, d + 1):
            rows[row][col] = v
            yield from rec(nrow, ncol)
        rows[row][col] = 0

    yield from rec(0, 0)


def ssyt_count(shape, d: int) -> int:
    """Number of SSYT of `shape` with entries in {1..d}; equals s_shape(1^d)."""
    shape = check_partition(shape)
    if d < 1:
        raise ValueError(f"need at least one variable, got d = {d}")
    return sum(1 for _ in ssyt_iter(shape, d))


def schur_monomials(shape, nvars: int) -> Counter:
    """The Schur polynomial s_shape(x_1..x_nvars) as Counter{exponents: coeff}."""
    out = Counter()
    for tab in ssyt_iter(shape, nvars):
        expo = [0] * nvars
        for row in tab:
            for v in row:
                expo[v - 1] += 1
        out[tuple(expo)] += 1
    return out


def poly_mul(a: Counter, b: Counter) -> Counter:
    out = Counter()
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[tuple(x + y for x, y in zip(ea, eb))] += ca * cb
    return +out


def schur_product_by_polynomials(lam, mu) -> dict:
    """Expand s_lam * s_mu as polynomials in enough variables and peel off
    leading monomials.

    Every symmetric polynomial's lex-leading exponent is a partition, and the
    lex-leading monomial of s_nu is x^nu with coefficient 1, so repeatedly
    subtracting c * s_nu for the current lex-leading term terminates with the
    Schur expansion.
    """
    lam, mu = check_partition(lam), check_partition(mu)
    n = sum(lam) + sum(mu)
    nvars = max(n, 1)
    poly = dict(poly_mul(schur_monomials(lam, nvars), schur_monomials(mu, nvars)))
    out = {}
    while poly:
        lead = max(poly)
        coeff = poly[lead]
        nu = tuple(e for e in lead if e)
        if any(lead[i] < lead[i + 1] for i in range(nvars - 1)):
            raise ArithmeticError(f"the leading monomial {lead} of the "
                                  f"product of s_{lam} and s_{mu} is not a "
                                  f"partition")
        out[nu] = coeff
        for expo, c in schur_monomials(nu, nvars).items():
            newc = poly.get(expo, 0) - coeff * c
            if newc:
                poly[expo] = newc
            else:
                poly.pop(expo, None)
    return out


def _contains(outer, inner) -> bool:
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def lr_by_fillings(lam, mu, nu) -> int:
    """c^nu_{lam,mu} by a backtracking search over the LR fillings of
    nu/lam with content mu, cell by cell in reverse reading order."""
    lam, mu, nu = check_partition(lam), check_partition(mu), check_partition(nu)
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    if not _contains(nu, lam) or not _contains(nu, mu):
        return 0
    if not mu:
        return 1 if nu == lam else 0

    # cells of nu/lam in reverse reading order: top row to bottom, right to left
    cells = []
    lam_padded = lam + (0,) * (len(nu) - len(lam))
    for r, width in enumerate(nu):
        for c in range(width - 1, lam_padded[r] - 1, -1):
            cells.append((r, c))

    nvals = len(mu)
    counts = [0] * (nvals + 1)
    fill = {}
    total = 0

    def ok(r, c, v):
        if counts[v] >= mu[v - 1]:
            return False
        # lattice condition on the reverse reading word
        if v > 1 and counts[v] >= counts[v - 1]:
            return False
        # row weakly increasing: cell to the right was already filled
        right = fill.get((r, c + 1))
        if right is not None and v > right:
            return False
        # column strictly increasing against the cell above (if in the skew part);
        # reverse reading order fills row r before row r+1, so no check downward
        up = fill.get((r - 1, c))
        if up is not None and v <= up:
            return False
        return True

    def rec(i):
        nonlocal total
        if i == len(cells):
            total += 1
            return
        r, c = cells[i]
        for v in range(1, nvals + 1):
            if ok(r, c, v):
                counts[v] += 1
                fill[(r, c)] = v
                rec(i + 1)
                counts[v] -= 1
                del fill[(r, c)]

    rec(0)
    return total


def schur_product_by_fillings(lam, mu) -> dict:
    """s_lam * s_mu by `lr_by_fillings`, one search for each partition nu
    of |lam| + |mu|, in decreasing lexicographic order."""
    lam, mu = check_partition(lam), check_partition(mu)
    out = {}
    for nu in partitions_of(sum(lam) + sum(mu)):
        c = lr_by_fillings(lam, mu, nu)
        if c:
            out[nu] = c
    return out


def partition_maps_count(n: int, k: int) -> int:
    """|P_n(X)| for |X| = k, by the composition formula."""
    return sum(prod(len(partitions_of(c)) for c in comp)
               for comp in compositions(n, k))


def partition_map_from_json(obj, labels) -> PartitionMap:
    """The partition map on `labels` whose to_json() is obj."""
    return PartitionMap(labels, [tuple(obj.get(str(l), ())) for l in labels])


def multisym_unit(labels) -> MultiSymElem:
    """S_empty, the unit of the Schur ring on `labels`."""
    labels = tuple(labels)
    return MultiSymElem(labels, {PartitionMap(labels, ((),) * len(labels)): 1})


class SymElem:
    """Finitely supported map Partition -> Fraction, Schur coordinates."""

    def __init__(self, coords=()):
        self.coords = {check_partition(k): Fraction(v)
                       for k, v in dict(coords).items() if v}

    @classmethod
    def schur(cls, lam):
        return cls({tuple(lam): 1})

    def __add__(self, other):
        out = dict(self.coords)
        for k, v in other.coords.items():
            out[k] = out.get(k, Fraction(0)) + v
        return SymElem(out)

    def __mul__(self, other):
        out = {}
        for lam, a in self.coords.items():
            for mu, b in other.coords.items():
                for nu, c in schur_product(lam, mu).items():
                    out[nu] = out.get(nu, Fraction(0)) + a * b * c
        return SymElem(out)

    def __eq__(self, other):
        return isinstance(other, SymElem) and self.coords == other.coords

    def __repr__(self):
        return f"SymElem({self.coords})"


def _splits(kappa, size):
    """The exponent vectors alpha <= kappa (entrywise) with |alpha| = size."""
    if not kappa:
        if size == 0:
            yield ()
        return
    rest = sum(kappa[1:])
    for a in range(max(0, size - rest), min(kappa[0], size) + 1):
        for tail in _splits(kappa[1:], size - a):
            yield (a,) + tail


def horizontal_strips_inside(mu, k: int, outer):
    """The partitions lam inside `outer` with lam/mu a horizontal strip of k
    boxes (mu_i <= lam_i <= mu_(i-1)); mu lies inside `outer`."""
    rows = min(len(mu) + 1, len(outer))
    mu = mu + (0,) * (rows - len(mu))

    def extend(i, left, prefix):
        if i == rows:
            if left == 0:
                yield tuple(x for x in prefix if x)
            return
        top = outer[i] if i == 0 else min(outer[i], mu[i - 1])
        for part in range(mu[i], min(top, mu[i] + left) + 1):
            yield from extend(i + 1, left - (part - mu[i]), prefix + (part,))

    return extend(0, k, ())


class FractionHallPolynomials:
    """g^lam_{mu nu}(p) for one prime p, in `Fraction` arithmetic: each
    coefficient of P_lam(x; 1/p) in monomials is summed over the tableaux of
    shape lam and content kappa, walked from the empty shape for every
    kappa and lam, and P_mu P_nu is solved over every raw split of kappa."""

    def __init__(self, p: int):
        self.p = p
        self.t = Fraction(1, p)
        self._monomials = {}    # lam -> {kappa: [m_kappa] P_lam(x; 1/p)}
        self._products = {}     # (mu, nu) -> {lam: f^lam_{mu nu}(1/p)}

    def psi(self, lam, mu) -> Fraction:
        """psi_{lam/mu}(t) of the horizontal strip lam/mu."""
        lc, mc = conjugate(lam), conjugate(mu)
        theta = [c - (mc[j] if j < len(mc) else 0) for j, c in enumerate(lc)]
        out = Fraction(1)
        for j in range(1, len(theta)):
            if theta[j - 1] == 0 and theta[j] == 1:
                out *= 1 - self.t ** mu.count(j)
        return out

    def monomials(self, lam) -> dict:
        """{kappa: coefficient of m_kappa in P_lam(x; 1/p)}, by summing
        psi_T over the tableaux T of shape lam and content kappa."""
        out = self._monomials.get(lam)
        if out is None:
            out = {}
            for kappa in partitions_of(sum(lam)):
                states = {(): Fraction(1)}
                for k in kappa:
                    nxt = {}
                    for mu, w in states.items():
                        for nu in horizontal_strips_inside(mu, k, lam):
                            nxt[nu] = nxt.get(nu, 0) + w * self.psi(nu, mu)
                    states = nxt
                if states.get(lam):
                    out[kappa] = states[lam]
            self._monomials[lam] = out
        return out

    def product(self, mu, nu) -> dict:
        """{lam: f^lam_{mu nu}(1/p)}: P_mu P_nu in the P basis, solved
        from the monomial coefficients in decreasing dominance order
        (decreasing lexicographic order refines it)."""
        out = self._products.get((mu, nu))
        if out is not None:
            return out
        pm, pn = self.monomials(mu), self.monomials(nu)
        out = {}
        for kappa in partitions_of(sum(mu) + sum(nu)):
            c = Fraction(0)
            for alpha in _splits(kappa, sum(mu)):
                a = pm.get(_sorted_parts(alpha))
                if a:
                    beta = tuple(k - x for k, x in zip(kappa, alpha))
                    c += a * pn.get(_sorted_parts(beta), 0)
            for lam, f in out.items():
                c -= f * self.monomials(lam).get(kappa, 0)
            if c:
                out[kappa] = c
        self._products[mu, nu] = out
        return out

    def __call__(self, lam, mu, nu) -> Fraction:
        """g^lam_{mu nu}(p), as the exact value the formula gives."""
        return self.product(mu, nu).get(lam, 0) * Fraction(self.p) ** (
            n_statistic(lam) - n_statistic(mu) - n_statistic(nu))
