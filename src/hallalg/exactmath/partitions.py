"""Integer partitions and partition-valued maps with a fixed total size.

Partitions are plain tuples of weakly decreasing positive ints; the empty
partition is ().  The canonical order on partitions of equal size is
decreasing lexicographic, so all emitted tables are byte-stable.
"""

from collections import Counter
from functools import cache, partial
from itertools import product
from math import comb, prod

Partition = tuple  # weakly decreasing tuple of positive ints


def is_partition(t) -> bool:
    return (isinstance(t, tuple)
            and all(isinstance(p, int) and p > 0 for p in t)
            and all(t[i] >= t[i + 1] for i in range(len(t) - 1)))


def check_partition(t) -> Partition:
    t = tuple(t)
    if not is_partition(t):
        raise ValueError(f"not a partition: {t!r}")
    return t


def conjugate(t: Partition) -> Partition:
    if not t:
        return ()
    return tuple(sum(1 for p in t if p > i) for i in range(t[0]))


def multiset_number(m: int, n: int) -> int:
    """Number of multisets of cardinality n drawn from m symbols: C(m+n-1, n)."""
    if m < 0 or n < 0:
        raise ValueError(f"multiset_number({m}, {n}): negative argument")
    if n == 0:
        return 1
    if m == 0:
        return 0
    return comb(m + n - 1, n)


def q_binomial(m: int, k: int, q: int) -> int:
    """The Gaussian binomial [m choose k]_q: the number of k-dimensional
    subspaces of F_q^m."""
    if not 0 <= k <= m:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def automorphism_count(lam: Partition, q: int) -> int:
    """|Aut| of the module of type lam over a discrete valuation ring with
    residue field of size q, prod_i Z/p^lam_i at q = p:
    q^(sum_j lam'_j^2) prod_i phi_(m_i)(1/q), phi_m(t) = (1-t)...(1-t^m),
    m_i the multiplicity of the part i (Macdonald, Symmetric Functions and
    Hall Polynomials, II (1.6)).  Each factor 1 - q^-r is (q^r - 1) / q^r,
    so the powers of q are gathered into one integer exponent."""
    mult = Counter(lam).values()
    power = (sum(c * c for c in conjugate(lam))
             - sum(m * (m + 1) // 2 for m in mult))
    return q ** power * prod(q ** r - 1 for m in mult for r in range(1, m + 1))


def subgroup_count(lam: Partition, mu: Partition, q: int) -> int:
    """alpha_lam(mu; q), the number of submodules of type mu in the module of
    type lam (Birkhoff, Proc. LMS 38, 1935):
    prod_i q^(mu'_(i+1) (lam'_i - mu'_i))
    [lam'_i - mu'_(i+1) choose mu'_i - mu'_(i+1)]_q; 0 unless mu is
    contained in lam, which is tested first, so that no power is negative."""
    lc, mc = conjugate(lam), conjugate(mu)
    if len(mc) > len(lc) or any(m > l for l, m in zip(lc, mc)):
        return 0
    mc += (0,) * (len(lc) - len(mc) + 1)
    return prod(q ** (mc[i + 1] * (l - mc[i]))
                * q_binomial(l - mc[i + 1], mc[i] - mc[i + 1], q)
                for i, l in enumerate(lc))


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in decreasing lexicographic order."""
    if n < 0:
        raise ValueError(f"no partitions of {n}")
    if n == 0:
        return ((),)
    out = []
    for first in range(n, 0, -1):
        for rest in partitions_of(n - first):
            if not rest or rest[0] <= first:
                out.append((first,) + rest)
    return tuple(out)


def horizontal_strips(mu, k: int):
    """The partitions nu with nu/mu a horizontal strip of k boxes
    (mu_i <= nu_i <= mu_(i-1))."""
    rows = len(mu) + 1
    mu = mu + (0,)

    def extend(i, left, prefix):
        if i == rows:
            if left == 0:
                yield tuple(x for x in prefix if x)
            return
        top = mu[i] + left if i == 0 else min(mu[i - 1], mu[i] + left)
        for part in range(mu[i], top + 1):
            yield from extend(i + 1, left - (part - mu[i]), prefix + (part,))

    return extend(0, k, ())


class PartitionMap:
    """A partition-valued map on a finite ordered label set.

    The label order is fixed at construction and is part of the identity;
    total size is the sum of the sizes of the assigned partitions.
    """

    __slots__ = ("labels", "parts", "_hash")

    def __init__(self, labels, parts):
        self.labels = tuple(labels)
        self.parts = tuple(check_partition(p) for p in parts)
        if len(self.labels) != len(self.parts):
            raise ValueError(f"{len(self.labels)} labels for "
                             f"{len(self.parts)} partitions")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate labels in {self.labels}")
        self._hash = hash((self.labels, self.parts))

    @classmethod
    def _trusted(cls, labels: tuple, parts: tuple):
        """The map of a label tuple of distinct labels and a tuple of as
        many partitions, both already checked: nothing is checked again."""
        self = object.__new__(cls)
        self.labels, self.parts = labels, parts
        self._hash = hash((labels, parts))
        return self

    @property
    def total(self) -> int:
        return sum(sum(p) for p in self.parts)

    def __getitem__(self, label):
        return self.parts[self.labels.index(label)]

    def items(self):
        return zip(self.labels, self.parts)

    def __eq__(self, other):
        return (isinstance(other, PartitionMap)
                and self.labels == other.labels and self.parts == other.parts)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inner = ", ".join(f"{l}:{list(p)}" for l, p in self.items())
        return "{" + inner + "}"

    def sort_key(self):
        return self.parts

    def to_json(self):
        return {str(l): list(p) for l, p in self.items() if p}


def compositions(n: int, k: int):
    """Weak compositions of n into k parts, first part largest first
    (descending lexicographic order).  Each is made from the one before
    without recursion, so k may exceed the interpreter's recursion limit:
    the rightmost nonzero part c_i before the last loses one, and c_i+1
    becomes one more than the last part, which becomes 0."""
    if k == 0:
        if n == 0:
            yield ()
        return
    c = [n] + [0] * (k - 1)
    while True:
        yield tuple(c)
        last = c[-1]
        i = k - 2
        while i >= 0 and c[i] == 0:
            i -= 1
        if i < 0:
            return
        c[-1] = 0
        c[i] -= 1
        c[i + 1] = last + 1


def partition_maps(n: int, labels) -> list[PartitionMap]:
    """All partition-valued maps on `labels` of total size n, canonical
    order.  The labels are checked once; the parts come from
    `partitions_of`, so no map checks them again."""
    labels = tuple(labels)
    if n < 0:
        raise ValueError(f"no partition maps of total size {n}")
    if n > 0 and not labels:
        return []
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate labels in {labels}")
    trusted = partial(PartitionMap._trusted, labels)
    out = []
    for comp in compositions(n, len(labels)):
        out.extend(map(trusted, product(*map(partitions_of, comp))))
    return out


def partition_numbers(n: int, budget=None) -> list[int]:
    """[p(0), ..., p(n)] by Euler's pentagonal recurrence
    p(j) = sum_{i >= 1} (-1)^(i+1) (p(j - i(3i-1)/2) + p(j - i(3i+1)/2));
    given a budget, the list ends at the first p(j) over it."""
    p = [1]
    for j in range(1, n + 1):
        total, i, g = 0, 1, 1   # g = i(3i-1)/2, and i(3i+1)/2 = g + i
        while g <= j:
            term = p[j - g] + (p[j - g - i] if g + i <= j else 0)
            total += term if i % 2 else -term
            i += 1
            g += 3 * i - 2
        p.append(total)
        if budget is not None and total > budget:
            break
    return p


def count_partition_maps(n: int, k: int) -> int:
    """len(partition_maps(n, labels)) for k labels, without listing them:
    the coefficient of x^n in (sum_j p(j) x^j)^k."""
    p = partition_numbers(n)
    out = [1] + [0] * n
    for _ in range(k):
        out = [sum(out[i] * p[j - i] for i in range(j + 1))
               for j in range(n + 1)]
    return out[n]
