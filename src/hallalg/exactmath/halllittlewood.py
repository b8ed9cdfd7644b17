"""Hall polynomials from Hall-Littlewood P-functions at t = 1/p.

By Macdonald, "Symmetric Functions and Hall Polynomials", Ch. III (3.6),
u_lam -> p^(-n(lam)) P_lam(x; 1/p) maps the Hall algebra of finite abelian
p-groups onto the symmetric functions, so the number of subgroups of type nu
with quotient of type mu in a group of type lam is

    g^lam_{mu nu}(p) = p^(n(lam) - n(mu) - n(nu)) f^lam_{mu nu}(1/p),

where P_mu P_nu = sum_lam f^lam_{mu nu}(t) P_lam.  P_lam is expanded in
monomials by the tableau formula (5.11'): a tableau is a chain of horizontal
strips theta = lam/mu, each weighted by psi_{lam/mu}(t), the product of
(1 - t^{m_j(mu)}) over the j >= 1 with theta'_j = 0 and theta'_{j+1} = 1.
All arithmetic is exact (`Fraction`).
"""

from fractions import Fraction

from .partitions import conjugate, partitions_of


def n_statistic(lam) -> int:
    """n(lam) = sum_i (i - 1) lam_i."""
    return sum(i * part for i, part in enumerate(lam))


def horizontal_strips(mu, k: int, outer):
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


def _sorted_parts(exps):
    return tuple(sorted((e for e in exps if e), reverse=True))


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


class HallPolynomials:
    """g^lam_{mu nu}(p) for one prime p.

    The monomial expansions of the P_lam and the P-expansions of the
    products P_mu P_nu are memoised in dicts owned by this object.
    """

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
                        for nu in horizontal_strips(mu, k, lam):
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

    def __call__(self, lam, mu, nu) -> int:
        """g^lam_{mu nu}(p); raises ArithmeticError if it is not an
        integer."""
        f = self.product(mu, nu).get(lam, 0)
        g = f * Fraction(self.p) ** (n_statistic(lam) - n_statistic(mu)
                                     - n_statistic(nu))
        if g.denominator != 1:
            raise ArithmeticError(f"non-integral Hall polynomial value {g} "
                                  f"at g^{lam}_{mu},{nu}({self.p})")
        return int(g)
