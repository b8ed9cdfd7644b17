"""Hall polynomials from Hall-Littlewood P-functions at t = 1/p, in integers.

By Macdonald, "Symmetric Functions and Hall Polynomials", Ch. III (3.6),
u_lam -> p^(-n(lam)) P_lam(x; 1/p) maps the Hall algebra of finite abelian
p-groups onto the symmetric functions, so the number of subgroups of type nu
with quotient of type mu in a group of type lam is

    g^lam_{mu nu}(p) = p^(n(lam) - n(mu) - n(nu)) f^lam_{mu nu}(1/p),

where P_mu P_nu = sum_lam f^lam_{mu nu}(t) P_lam.

Values.  Every value lies in Z[1/p] and is carried as an integer numerator
over a power of p; nothing is reduced by a gcd.  P_lam is expanded in
monomials by the tableau formula (5.11'): a tableau is a chain of
horizontal strips theta = nu/mu (`partitions.horizontal_strips`, which the
Littlewood-Richardson walk shares), each weighted by psi_{nu/mu}(1/p), the
product of (p^m - 1)/p^m with m = m_j(mu) over the j >= 1 with
theta'_j = 0 and theta'_{j+1} = 1.  Those j pick disjoint rows of mu, and
each strip adds at most one row, so the k-th strip of a tableau has
denominator at most p^(k-1): the coefficient of m_kappa in P_lam is kept
as its numerator over p^c(kappa), c(kappa) = binom(l(kappa), 2).

Walk.  One depth-first search per size n runs over the contents kappa of n,
parts in decreasing order, carrying {shape: numerator} for the tableaux of
each content prefix.  A prefix is walked once for every kappa it starts and
every lam of size n, and psi is weighed once per strip (nu, mu).

Split table.  [m_kappa](P_mu P_nu) is the sum over the splits
alpha + beta = kappa (entrywise, |alpha| = |mu|) of
[m_sort(alpha)] P_mu * [m_sort(beta)] P_nu.  The table for the sizes
(n, a) groups those splits by the sorted pair, with its multiplicity, once
for every (mu, nu) with |mu| = a and |nu| = n - a: for kappa = (1^n) the
C(n, a) splits are one entry.

Solve.  P_lam is unitriangular in the monomial basis in dominance order,
so the f^lam_{mu nu} are solved in decreasing lexicographic order without
dividing, each as a numerator over a power of p.  The final step multiplies
by p^(n(lam) - n(mu) - n(nu)), dividing the numerator exactly where it can:
g^lam_{mu nu}(p) is kept as (numerator, d), its value numerator / p^d, and
a leftover d > 0 raises ArithmeticError when the value is asked for.
"""

from collections import Counter
from fractions import Fraction
from itertools import product as iproduct
from math import comb

from .partitions import conjugate, horizontal_strips, partitions_of


def n_statistic(lam) -> int:
    """n(lam) = sum_i (i - 1) lam_i."""
    return sum(i * part for i, part in enumerate(lam))


def _sorted_parts(exps):
    return tuple(sorted((e for e in exps if e), reverse=True))


class HallPolynomials:
    """g^lam_{mu nu}(p) for one prime p.

    The strips, the monomial tables (one walk per size), the split tables
    (one per size pair) and the products P_mu P_nu are memoised in dicts
    owned by this object.
    """

    def __init__(self, p: int):
        self.p = p
        self._strips = {}       # (mu, k) -> [(nu, psi numerator, exponent)]
        self._monomials = {}    # n -> {lam: {kappa: numerator over p^c}}
        self._split_tables = {}     # n -> [[(kappa, ..., pairs)] per a]
        self._products = {}     # (mu, nu) -> {lam: (numerator, d)}

    def _psi(self, nu, mu):
        """psi_{nu/mu}(1/p) of the horizontal strip nu/mu, as (numerator,
        exponent): prod (p^m - 1) over p^(sum m)."""
        nc, mc = conjugate(nu), conjugate(mu)
        theta = [c - (mc[j] if j < len(mc) else 0) for j, c in enumerate(nc)]
        num, exp = 1, 0
        for j in range(1, len(theta)):
            if theta[j - 1] == 0 and theta[j] == 1:
                m = mu.count(j)
                num *= self.p ** m - 1
                exp += m
        return num, exp

    def _strips_of(self, mu, k):
        out = self._strips.get((mu, k))
        if out is None:
            out = self._strips[mu, k] = [
                (nu, *self._psi(nu, mu)) for nu in horizontal_strips(mu, k)]
        return out

    def monomial_table(self, n) -> dict:
        """{lam: {kappa: [m_kappa] P_lam(x; 1/p) * p^c(kappa)}} for the lam
        and kappa of size n, kappa in decreasing lexicographic order."""
        out = self._monomials.get(n)
        if out is None:
            out = self._monomials[n] = {lam: {} for lam in partitions_of(n)}
            self._descend((), n, {(): 1}, out)
        return out

    def _descend(self, prefix, left, states, table):
        """Extend the tableaux of content `prefix` ({shape: numerator over
        p^c(prefix)}) by one strip per part, each part at most the last."""
        if not left:
            for lam, w in states.items():
                table[lam][prefix] = w
            return
        p, rows = self.p, len(prefix)
        for part in range(min(left, prefix[-1]) if prefix else left, 0, -1):
            nxt = {}
            for mu, w in states.items():
                for nu, num, exp in self._strips_of(mu, part):
                    nxt[nu] = nxt.get(nu, 0) + w * num * p ** (rows - exp)
            self._descend(prefix + (part,), left - part, nxt, table)

    def _split_tables_of(self, n):
        """The split tables of size n, one per a = 0..n: table a is
        [(kappa, c(kappa), n(kappa), e, [(alpha, beta, coefficient)])] for
        kappa of size n in decreasing lexicographic order, such that the sum
        of coefficient * [m_alpha] P_mu * [m_beta] P_nu over p^e, with the
        numerators of `monomial_table`, is [m_kappa] P_mu P_nu for any mu
        of size a and nu of size n - a.  One pass over the exponent vectors
        alpha <= kappa (entrywise) fills every a."""
        out = self._split_tables.get(n)
        if out is None:
            out = self._split_tables[n] = [[] for _ in range(n + 1)]
            for kappa in partitions_of(n):
                pairs = [Counter() for _ in range(n + 1)]
                for alpha in iproduct(*[range(k + 1) for k in kappa]):
                    pairs[sum(alpha)][
                        _sorted_parts(alpha),
                        _sorted_parts([k - x for k, x in zip(kappa, alpha)])
                    ] += 1
                for table, group in zip(out, pairs):
                    e = max(comb(len(x), 2) + comb(len(y), 2)
                            for x, y in group)
                    table.append((
                        kappa, comb(len(kappa), 2), n_statistic(kappa), e,
                        [(x, y, m * self.p ** (e - comb(len(x), 2)
                                               - comb(len(y), 2)))
                         for (x, y), m in group.items()]))
        return out

    def product(self, mu, nu) -> dict:
        """{lam: (numerator, d)}, g^lam_{mu nu}(p) = numerator / p^d, with
        d = 0 unless the value is not an integer.  P_mu P_nu is solved in
        the P basis from the monomial coefficients in decreasing dominance
        order (decreasing lexicographic order refines it), each
        f^lam_{mu nu}(1/p) as a numerator over a power of p."""
        out = self._products.get((mu, nu))
        if out is not None:
            return out
        a, b = sum(mu), sum(nu)
        p, s = self.p, n_statistic(mu) + n_statistic(nu)
        pm, pn = self.monomial_table(a)[mu], self.monomial_table(b)[nu]
        rows = self.monomial_table(a + b)
        out, f = {}, {}     # f: lam -> (numerator, exponent) of f^lam
        top = 0             # the largest exponent in f
        for kappa, c, nk, e, pairs in self._split_tables_of(a + b)[a]:
            exp = max(e, c + top)
            r = sum(m * pm.get(x, 0) * pn.get(y, 0)
                    for x, y, m in pairs) * p ** (exp - e)
            for lam, (num, ex) in f.items():
                w = rows[lam].get(kappa)
                if w:
                    r -= num * w * p ** (exp - c - ex)
            if not r:
                continue
            # the final step: g = f p^(n(kappa) - s)
            want = nk - s
            if want >= exp:
                r, exp = r * p ** (want - exp), want
            else:
                q, rem = divmod(r, p ** (exp - want))
                if not rem:
                    r, exp = q, want
            f[kappa] = (r, exp)
            out[kappa] = (r, exp - want)
            top = max(top, exp)
        self._products[mu, nu] = out
        return out

    def __call__(self, lam, mu, nu) -> int:
        """g^lam_{mu nu}(p); raises ArithmeticError if it is not an
        integer."""
        num, d = self.product(mu, nu).get(lam, (0, 0))
        if d:
            raise ArithmeticError(
                f"non-integral Hall polynomial value "
                f"{Fraction(num, self.p ** d)} at g^{lam}_{mu},{nu}({self.p})")
        return num
