import gc
import hashlib
import json
import random
import time
import weakref
from collections import Counter
from fractions import Fraction
from functools import cache
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from hallalg import BudgetExceededError, UsageError
from hallalg.cli import run
from hallalg.exactmath.cyclotomic import (PackedProducts, integral_rows,
                                          poly_string, reduce_poly)
from hallalg.exactmath.partitions import PartitionMap, partition_maps
from hallalg.groups import (cyclic_group, klein_group, named_group,
                            perm_sign, symmetric_group, trivial_group)
from hallalg.wreath import (abelian_dual, ch, ch_ring_hom_check,
                            character_table, induction_product,
                            irreducible_dimension, murnaghan_nakayama,
                            wreath_product)
from hallalg.wreath import chmap
from hallalg.wreath.chmap import WreathCharacterTable, cycle_centralizer
from hallalg.wreath.wreathgroup import DEFAULT_WREATH_BUDGET, wreath_order
from oracles.cyclotomic import Cyc, hermitian_gram
from oracles.exactmath import partition_maps_count
from oracles.groups import conjugacy_classes
from oracles.wreath import (character_value, class_label_representative,
                            cyc_table, cycle_type, decompose, inner,
                            pairwise_check_orthogonality,
                            pairwise_induction_products, perm_cycles,
                            restricted_induction_products,
                            wreath_class_label)


def test_wreath_orders():
    Z2 = cyclic_group(2)
    assert wreath_product(Z2, 2).order == 8
    assert wreath_product(Z2, 3).order == 48
    assert wreath_product(cyclic_group(3), 1).order == 3
    with pytest.raises(BudgetExceededError):
        wreath_product(cyclic_group(5), 5)


def test_a_refused_order_is_printed_only_when_str_can():
    # under str()'s default limit of 4,300 digits, |C2 wr S_n| first passes
    # 3.32 bits per digit at n = 1423
    Z2 = cyclic_group(2)
    with pytest.raises(BudgetExceededError) as exc:
        wreath_order(Z2, 1422)
    assert str(exc.value) == (f"|cyclic:2 wr S_1422| = "
                              f"{2 ** 1422 * factorial(1422)} exceeds "
                              f"budget 5000")
    with pytest.raises(BudgetExceededError) as exc:
        wreath_order(Z2, 1423)
    assert str(exc.value) == ("|cyclic:2 wr S_1423| = 2^1423 * 1423! "
                              "exceeds budget 5000")
    big = 2 ** 1500 * factorial(1500)
    assert wreath_order(Z2, 1500, big) == big


@pytest.mark.parametrize("G_name,n,samples", [
    ("cyclic:2", 2, None), ("cyclic:3", 3, 10)])
def test_wreath_product_is_associative(G_name, n, samples):
    W = wreath_product(named_group(G_name), n)
    pick = (W.elements if samples is None
            else random.Random(1).sample(W.elements, samples))
    for a in pick:
        for b in pick:
            for c in pick:
                assert W.op(W.op(a, b), c) == W.op(a, W.op(b, c))


def test_symmetric_character_examples():
    assert [murnaghan_nakayama((2, 1), c)
            for c in ((1, 1, 1), (2, 1), (3,))] == [2, 0, -1]
    for n in range(1, 5):
        from hallalg.exactmath.partitions import partitions_of
        for c in partitions_of(n):
            assert murnaghan_nakayama((n,), c) == 1
            assert murnaghan_nakayama(tuple([1] * n), c) == \
                (-1) ** (n - len(c))


def test_sign_character_against_permutations():
    # brute force via sign of actual permutations, n <= 4
    for n in range(1, 5):
        Sn = symmetric_group(n)
        for p in Sn.elements:
            assert murnaghan_nakayama(tuple([1] * n), cycle_type(p)) == \
                perm_sign(p)


@pytest.mark.parametrize("G_name,n", [
    ("trivial", 3), ("trivial", 4), ("trivial", 5),
    ("cyclic:2", 2), ("cyclic:2", 3), ("cyclic:3", 2)])
def test_class_labels_against_brute_conjugacy(G_name, n):
    from hallalg.groups import named_group
    G = named_group(G_name)
    W = wreath_product(G, n)
    by_label = {}
    for w in W.elements:
        by_label.setdefault(wreath_class_label(G, w), set()).add(w)
    classes = conjugacy_classes(W)
    assert len(classes) == len(by_label)
    assert len(by_label) == partition_maps_count(n, len(conjugacy_classes(G)))
    for cls in classes:
        assert len({wreath_class_label(G, w) for w in cls}) == 1


def test_identity_label():
    Z2 = cyclic_group(2)
    W = wreath_product(Z2, 3)
    lab = wreath_class_label(Z2, W.identity)
    assert lab.parts == ((1, 1, 1), ())


def test_nontrivial_cycle_product_label():
    Z2 = cyclic_group(2)
    lab = wreath_class_label(Z2, ((1, 0), (1, 0)))
    assert lab.parts == ((), (2,))


def test_abelian_dual_properties():
    for G in (cyclic_group(2), cyclic_group(3), cyclic_group(4),
              klein_group()):
        dual = abelian_dual(G)
        assert len(dual) == G.order
        assert dual[0] == tuple([0] * G.order)
        e = G.exponent()
        # homomorphism property on all pairs
        for vec in dual:
            for a in G.elements:
                for b in G.elements:
                    ia, ib = G.index[a], G.index[b]
                    iab = G.index[G.op(a, b)]
                    assert (vec[ia] + vec[ib]) % e == vec[iab]


def test_wreath_table_dims_and_orthogonality():
    Z2 = cyclic_group(2)
    tab = character_table(Z2, 2)
    assert sorted(tab.dimension(l) for l in tab.irr_labels) == [1, 1, 1, 1, 2]
    ok, wit = tab.check_orthogonality()
    assert ok, wit
    lam = PartitionMap((0, 1), ((1,), (1,)))
    assert tab.dimension(lam) == 2
    for l in tab.irr_labels:
        assert tab.dimension(l) == irreducible_dimension(Z2, l)


def test_trivial_group_reduces_to_symmetric_characters():
    t = character_table(trivial_group(), 4)
    ok, wit = t.check_orthogonality()
    assert ok, wit
    for l in t.irr_labels:
        for c, clab in enumerate(t.class_labels):
            assert t.values[t.pos[l]][c] == (
                murnaghan_nakayama(l.parts[0], clab.parts[0]),)


def test_nonabelian_rejected():
    with pytest.raises(UsageError):
        WreathCharacterTable(symmetric_group(3), 1)
    with pytest.raises(UsageError):
        abelian_dual(symmetric_group(3))


def test_induction_examples():
    t = trivial_group()
    one = PartitionMap((0,), ((1,),))
    res = induction_product(t, one, one)
    assert {k.parts: v for k, v in res.items()} == \
        {((2,),): 1, ((1, 1),): 1}
    empty = PartitionMap((0,), ((),))
    assert induction_product(t, empty, one) == {one: 1}
    Z2 = cyclic_group(2)
    la = PartitionMap((0, 1), ((1,), ()))
    lb = PartitionMap((0, 1), ((), (1,)))
    res = induction_product(Z2, la, lb)
    assert res == {PartitionMap((0, 1), ((1,), (1,))): 1}


def test_ch_examples():
    Z2 = cyclic_group(2)
    labels = tuple(range(2))
    allsum = {lam: 1 for lam in partition_maps(1, labels)}
    img = ch(Z2, allsum)
    assert img.coords == {PartitionMap(labels, ((1,), ())): Fraction(1),
                          PartitionMap(labels, ((), (1,))): Fraction(1)}


def test_ch_ring_hom_small():
    ok, fails = ch_ring_hom_check(cyclic_group(2), 2)
    assert ok, fails
    ok, fails = ch_ring_hom_check(trivial_group(), 3)
    assert ok, fails


def test_decompose_rejects_non_integral():
    Z2 = cyclic_group(2)
    tab = character_table(Z2, 1)
    values = [(Fraction(1, 2),) for _ in tab.class_labels]
    with pytest.raises(UsageError):
        decompose(tab, values)
    # a genuine character decomposes integrally
    row = tab.values[0]
    assert decompose(tab, row) == {tab.irr_labels[0]: 1}


def test_ch_injective_on_basis():
    # distinct labels map to distinct Schur-basis elements
    Z2 = cyclic_group(2)
    labels = partition_maps(3, (0, 1))
    images = [ch(Z2, {lam: 1}) for lam in labels]
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            assert images[i] != images[j]


# -- the enumeration route, kept as the oracle --------------------------------


class EnumeratedTable:
    """The character table of G wr S_n by brute force over the group: class
    sizes by labeling every element, and each irreducible X_lam as the
    character induced from the block subgroup prod_gamma (G wr S_|lam(gamma)|)
    with the twisted character (g, sigma) -> prod_i gamma(g_i)
    . chi^{lam(gamma)}(cycle type of sigma) on each block."""

    def __init__(self, G, n):
        self.G, self.n, self.e = G, n, G.exponent()
        self.W = wreath_product(G, n)
        self.dual = abelian_dual(G)
        labels = partition_maps(n, tuple(range(G.order)))
        self.class_labels = self.irr_labels = labels
        self.pos = {l: i for i, l in enumerate(labels)}
        self.label_of = {w: wreath_class_label(G, w) for w in self.W.elements}
        self.class_sizes = [0] * len(labels)
        for lab in self.label_of.values():
            self.class_sizes[self.pos[lab]] += 1
        reps = [class_label_representative(G, n, l) for l in labels]
        assert [self.label_of[w] for w in reps] == labels
        self.values = [self._induced_character(lam, reps) for lam in labels]

    def _blocks(self, lam):
        blocks, pos = [], 0
        for gamma, part in lam.items():
            m = sum(part)
            blocks.append((gamma, part, range(pos, pos + m)))
            pos += m
        return blocks

    def _base_value(self, lam, w):
        """(exponent, coefficient) of the block character at w, or None if
        w does not lie in the block subgroup."""
        base, sigma = w
        expo, mn = 0, 1
        for gamma, part, block in self._blocks(lam):
            if not part:
                continue
            lengths = []
            for cyc in perm_cycles(sigma):
                if cyc[0] in block:
                    if not all(i in block for i in cyc):
                        return None
                    lengths.append(len(cyc))
            for i in block:
                expo += self.dual[gamma][self.G.index[base[i]]]
            mn *= murnaghan_nakayama(part, tuple(sorted(lengths,
                                                        reverse=True)))
        return expo % self.e, mn

    def _induced_character(self, lam, reps):
        W = self.W
        sub_order = self.G.order ** self.n
        for _, part, _ in self._blocks(lam):
            sub_order *= factorial(sum(part))
        out = []
        for rep in reps:
            val = Cyc.zero(self.e)
            for t in W.elements:
                bv = self._base_value(lam, W.op(W.op(t, rep), W.inv(t)))
                if bv is not None and bv[1]:
                    val = val + Cyc.zeta(self.e, bv[0]) * bv[1]
            out.append(val / sub_order)
        return out

    def value(self, lam, w):
        return self.values[self.pos[lam]][self.pos[self.label_of[w]]]


@cache
def enumerated_table(G_name, n):
    return EnumeratedTable(named_group(G_name), n)


def young_subgroup_induction(G_name, lam, mu):
    """<Ind(X_lam x X_mu), X_nu> for every nu, averaging over the Young
    subgroup G wr (S_n x S_m) of G wr S_(n+m)."""
    n, m = lam.total, mu.total
    big = enumerated_table(G_name, n + m)
    small_n, small_m = enumerated_table(G_name, n), enumerated_table(G_name, m)
    sub = [(base, sigma) for base, sigma in big.W.elements
           if all(sigma[i] < n for i in range(n))]
    out = {}
    for nu in big.irr_labels:
        tot = Cyc.zero(big.e)
        for base, sigma in sub:
            wn = (base[:n], sigma[:n])
            wm = (base[n:], tuple(s - n for s in sigma[n:]))
            tot = tot + (small_n.value(lam, wn) * small_m.value(mu, wm)
                         * big.value(nu, (base, sigma)).conj())
        q = (tot / len(sub)).rational_value()
        assert q.denominator == 1 and q >= 0
        if q:
            out[nu] = int(q)
    return out


@pytest.mark.parametrize("G_name,n", [
    ("trivial", 0), ("trivial", 1), ("trivial", 2), ("trivial", 3),
    ("trivial", 4), ("cyclic:2", 0), ("cyclic:2", 1), ("cyclic:2", 2),
    ("cyclic:2", 3), ("cyclic:2", 4), ("cyclic:3", 1), ("cyclic:3", 2),
    ("cyclic:3", 3), ("cyclic:4", 2), ("klein", 2)])
def test_table_matches_enumeration_oracle(G_name, n):
    want = enumerated_table(G_name, n)
    got = WreathCharacterTable(named_group(G_name), n)
    assert got.order == want.W.order
    assert got.class_labels == want.class_labels
    assert got.irr_labels == want.irr_labels
    assert got.class_sizes == want.class_sizes
    assert got.e == want.e
    assert cyc_table(got) == want.values


@pytest.mark.parametrize("G_name,max_total", [
    ("cyclic:2", 3), ("cyclic:3", 2), ("trivial", 4)])
def test_induction_matches_young_subgroup_oracle(G_name, max_total):
    G = named_group(G_name)
    labels = tuple(range(G.order))
    for n in range(max_total + 1):
        for m in range(max_total + 1 - n):
            for lam in partition_maps(n, labels):
                for mu in partition_maps(m, labels):
                    assert (induction_product(G, lam, mu)
                            == young_subgroup_induction(G_name, lam, mu)), \
                        (lam, mu)


# -- the table's walk per class against the walk per (lam, rho) --------------


def dual_exponents(G):
    """chars[gamma][c]: the exponent of gamma on the class c of G."""
    return [[vec[G.index[cls[0]]] for cls in conjugacy_classes(G)]
            for vec in abelian_dual(G)]


@pytest.mark.parametrize("G_name,n", [
    (G_name, n) for G_name in ("trivial", "cyclic:2", "cyclic:3", "cyclic:4",
                               "cyclic:5", "cyclic:6", "klein")
    for n in range(4)] + [("cyclic:2", 4), ("cyclic:3", 4)])
def test_table_matches_the_per_pair_walk(G_name, n):
    G = named_group(G_name)
    tab = WreathCharacterTable(G, n)
    chars = dual_exponents(G)
    want = [[character_value(chars, tab.e, lam, rho)
             for rho in tab.class_labels] for lam in tab.irr_labels]
    assert tab.values == want


def test_a_table_beyond_the_default_budget_matches_the_per_pair_walk():
    # |C4 wr S_4| = 6144 is over the default budget: blocks of up to five
    # sents, phi(e) = 2 (C6 n = 3 is in the walk above)
    G = cyclic_group(4)
    tab = WreathCharacterTable(G, 4, budget=10 ** 4)
    chars = dual_exponents(G)
    want = [[character_value(chars, tab.e, lam, rho)
             for rho in tab.class_labels] for lam in tab.irr_labels]
    assert tab.values == want


@cache
def table_and_dual(G_name, n):
    G = named_group(G_name)
    return WreathCharacterTable(G, n, budget=10 ** 6), dual_exponents(G)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([("cyclic:2", 6), ("cyclic:3", 5), ("cyclic:4", 4),
                        ("cyclic:5", 4), ("cyclic:6", 4), ("klein", 4)]),
       st.data())
def test_table_entry_matches_the_per_pair_walk(case, data):
    G_name, top = case
    n = data.draw(st.integers(0, top), label="n")
    tab, chars = table_and_dual(G_name, n)
    lam = data.draw(st.sampled_from(tab.irr_labels), label="lam")
    rho = data.draw(st.sampled_from(tab.class_labels), label="rho")
    assert (tab.values[tab.pos[lam]][tab.pos[rho]]
            == character_value(chars, tab.e, lam, rho))


# -- work counts --------------------------------------------------------------


@pytest.mark.parametrize("G_name,n", [
    ("trivial", 0), ("trivial", 4), ("cyclic:2", 3), ("cyclic:3", 3),
    ("klein", 2)])
def test_a_table_walks_each_class_once(monkeypatch, G_name, n):
    walked = []

    def counting(chars, e, rho, walk=chmap.class_terms):
        walked.append(rho)
        return walk(chars, e, rho)

    monkeypatch.setattr(chmap, "class_terms", counting)
    tab = WreathCharacterTable(named_group(G_name), n)
    assert walked == tab.class_labels


@pytest.mark.parametrize("G_name,n", [
    ("cyclic:2", 4), ("cyclic:3", 3), ("klein", 2), ("cyclic:6", 3)])
def test_the_json_formats_each_distinct_value_once(monkeypatch, G_name, n):
    tab = WreathCharacterTable(named_group(G_name), n)
    per_value = json.dumps({**tab.to_json(), "values": [
        [poly_string(v) for v in row] for row in tab.values]})
    formatted = []

    def counting(v, fmt=chmap.poly_string):
        formatted.append(v)
        return fmt(v)

    monkeypatch.setattr(chmap, "poly_string", counting)
    assert json.dumps(tab.to_json()) == per_value
    assert len(formatted) == len({v for row in tab.values for v in row})


@pytest.mark.parametrize("G_name,max_total", [
    ("trivial", 4), ("cyclic:2", 2), ("cyclic:2", 3), ("cyclic:3", 2),
    ("klein", 2)])
def test_integer_forms_per_size_pair_do_not_grow_with_the_labels(
        monkeypatch, G_name, max_total):
    # the tables hold their integer form, so each size pair reads the two
    # small tables and the big one once, however many label pairs and
    # labels nu there are, and converts nothing
    assert not hasattr(chmap, "integer_form")
    calls = []

    def counting(G, n, budget, real=chmap.character_table):
        calls.append(n)
        return real(G, n, budget)

    monkeypatch.setattr(chmap, "character_table", counting)
    ok, failures = ch_ring_hom_check(named_group(G_name), max_total)
    assert ok, failures
    size_pairs = (max_total + 1) * (max_total + 2) // 2
    assert len(calls) == 3 * size_pairs


@pytest.mark.parametrize("G_name,max_total", [
    ("trivial", 4), ("cyclic:2", 3), ("cyclic:3", 2), ("klein", 2)])
def test_a_check_reads_each_table_once(monkeypatch, G_name, max_total):
    # one ch_ring_hom_check reads the integer rows and the column norms of
    # each of its max_total + 1 tables once, however many size pairs each
    # takes part in; the big table's packed columns reuse its norms
    from hallalg.exactmath import cyclotomic
    calls = Counter()

    def counting(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for module in (chmap, cyclotomic):
        for name in ("integral_rows", "column_norms"):
            monkeypatch.setattr(module, name,
                                counting(name, getattr(module, name)))
    ok, failures = ch_ring_hom_check(named_group(G_name), max_total)
    assert ok, failures
    assert calls == {"integral_rows": max_total + 1,
                     "column_norms": max_total + 1}


def test_each_check_reads_the_values_it_is_given():
    # the integer forms live for one check: a table changed between two
    # checks is read afresh by the second
    G = cyclic_group(2)
    assert ch_ring_hom_check(G, 2) == (True, [])
    tab = character_table(G, 2)
    tab.values[0] = [tuple(-x for x in v) for v in tab.values[0]]
    with pytest.raises(ArithmeticError, match="is not in N: -1"):
        ch_ring_hom_check(G, 2)


# -- beyond the oracle's range ------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["cyclic:2", "cyclic:3", "cyclic:4", "klein"]),
       st.integers(0, 6), st.data())
def test_column_orthogonality_beyond_the_oracle(G_name, n, data):
    G = named_group(G_name)
    k, e = G.order, G.exponent()
    chars = dual_exponents(G)
    labels = partition_maps(n, tuple(range(k)))
    rho = data.draw(st.sampled_from(labels))
    # |W| / |C_rho| = prod_c z_rho(c) |G|^l(rho(c))
    centralizer = prod(r ** mult * factorial(mult) * k ** mult
                       for part in rho.parts
                       for r, mult in Counter(part).items())
    assert prod(cycle_centralizer(k, part) for part in rho.parts) == centralizer
    values = [Cyc(e, character_value(chars, e, lam, rho)) for lam in labels]
    assert sum(v * v.conj() for v in values) == centralizer
    identity = PartitionMap(range(k), [(1,) * n] + [()] * (k - 1))
    for lam in labels:
        assert (Cyc(e, character_value(chars, e, lam, identity))
                == irreducible_dimension(G, lam))


# -- certification errors are explicit, not asserts ---------------------------


def test_dimension_must_be_a_whole_number():
    tab = WreathCharacterTable(cyclic_group(2), 2)
    lam = tab.irr_labels[0]
    tab.values[0][tab.identity_class] = (Fraction(1, 2),)
    with pytest.raises(ArithmeticError):
        tab.dimension(lam)


def test_inner_product_must_be_rational():
    tab = WreathCharacterTable(cyclic_group(3), 2)
    tab.values[0][0] = (0, 1)           # zeta_3 for the trivial character
    with pytest.raises(ArithmeticError, match="is not rational"):
        inner(tab, 0, 1)


def test_orthogonality_checks_the_class_sizes():
    tab = WreathCharacterTable(cyclic_group(2), 2)
    tab.class_sizes[0] += 1
    assert tab.check_orthogonality() == (False, ("class sizes", 9, 8))


def times_zeta(e, v, k):
    """The vector of v * zeta_e^k."""
    return tuple(reduce_poly(e, [0] * (k % e) + list(v)))


SKEWS = [
    # plus zeta_e^(phi-1) / 3: not rational where phi(e) > 1, else not whole
    lambda v: v[:-1] + (v[-1] + Fraction(1, 3),),
    lambda v: tuple(Fraction(x, 2) for x in v),     # rational, not whole
    lambda v: tuple(-x for x in v),                 # whole, negative
]


@pytest.mark.parametrize("skew", SKEWS)
def test_induction_multiplicity_must_be_natural(monkeypatch, skew):
    def skewed_table(G, n, budget):
        tab = WreathCharacterTable(G, n, budget)
        tab.values[0] = [skew(v) for v in tab.values[0]]
        return tab

    monkeypatch.setattr(chmap, "character_table", skewed_table)
    t = trivial_group()
    one = PartitionMap((0,), ((1,),))
    with pytest.raises(ArithmeticError):
        induction_product(t, one, one)


def first_pair_error(G, max_total):
    """The ArithmeticError of the first label pair, in ch_ring_hom_check's
    order, whose one-pair induction product raises."""
    labels = tuple(range(G.order))
    for n in range(max_total + 1):
        for m in range(max_total + 1 - n):
            for lam in partition_maps(n, labels):
                for mu in partition_maps(m, labels):
                    try:
                        induction_product(G, lam, mu)
                    except ArithmeticError as exc:
                        return str(exc)
    return None


@pytest.mark.parametrize("G_name", ["trivial", "cyclic:2", "cyclic:3"])
@pytest.mark.parametrize("skew", SKEWS)
@pytest.mark.parametrize("where", ["first row", "row 1 of size 2"])
def test_ch_verify_raises_the_first_pair_error(capsys, monkeypatch, G_name,
                                               skew, where):
    def skewed_table(G, n, budget):
        tab = WreathCharacterTable(G, n, budget)
        i = 0 if where == "first row" else 1 if n == 2 else None
        if i is not None and i < len(tab.values):
            tab.values[i] = [skew(v) for v in tab.values[i]]
        return tab

    monkeypatch.setattr(chmap, "character_table", skewed_table)
    G = named_group(G_name)
    message = first_pair_error(G, 3)
    assert message is not None
    with pytest.raises(ArithmeticError) as exc:
        ch_ring_hom_check(G, 3)
    assert str(exc.value) == message
    code = run(["ch-verify", "--G", G_name, "--max-size", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"internal error: ArithmeticError: {message}\n"


def test_abelian_dual_size_is_checked(monkeypatch):
    G = cyclic_group(2)
    monkeypatch.setattr(G, "exponent", lambda: 1)
    with pytest.raises(ArithmeticError):
        abelian_dual(G)


# -- per-term Cyc arithmetic, kept as the oracle of the integer kernel --------


def cyc_inner(tab, f, g) -> Cyc:
    """sum_c |c| f(c) conj(g(c)) / |W| over two rows of Cyc values, one Cyc
    product per class."""
    tot = Cyc.zero(tab.e)
    for a, b, size in zip(f, g, tab.class_sizes):
        tot = tot + (a * b.conj()) * size
    return tot / tab.order


def cyc_column(rows, c, c2) -> Cyc:
    """sum_i chi_i(c) conj(chi_i(c2)) over rows of Cyc values."""
    return sum((row[c] * row[c2].conj() for row in rows), Cyc.zero())


def cyc_check_orthogonality(tab):
    if sum(tab.class_sizes) != tab.order:
        return False, ("class sizes", sum(tab.class_sizes), tab.order)
    rows = cyc_table(tab)
    nrows, ncols = len(tab.irr_labels), len(tab.class_labels)
    for i in range(nrows):
        for j in range(i, nrows):
            # rational_value raises ArithmeticError on a non-rational sum
            q = cyc_inner(tab, rows[i], rows[j]).rational_value()
            if q != (1 if i == j else 0):
                return False, ("row", i, j)
    for c in range(ncols):
        for c2 in range(c, ncols):
            tot = cyc_column(rows, c, c2)
            want = Fraction(tab.order, tab.class_sizes[c]) if c == c2 else 0
            if not tot.is_rational() or tot.rational_value() != want:
                return False, ("column", c, c2)
    dims2 = sum(tab.dimension(l) ** 2 for l in tab.irr_labels)
    if dims2 != tab.order:
        return False, ("sum of squares", dims2, tab.order)
    return True, None


def cyc_induction_product(G, lam, mu, budget=DEFAULT_WREATH_BUDGET):
    """Frobenius reciprocity over class labels, one Cyc product per term."""
    n, m = lam.total, mu.total
    big = chmap.character_table(G, n + m, budget)
    small_n = chmap.character_table(G, n, budget)
    small_m = chmap.character_table(G, m, budget)
    row_lam = cyc_table(small_n)[small_n.pos[lam]]
    row_mu = cyc_table(small_m)[small_m.pos[mu]]
    restricted = {}
    for a, rho1 in enumerate(small_n.class_labels):
        for b, rho2 in enumerate(small_m.class_labels):
            joined = big.pos[PartitionMap(rho1.labels, [
                tuple(sorted(p + q, reverse=True))
                for p, q in zip(rho1.parts, rho2.parts)])]
            val = (row_lam[a] * row_mu[b]
                   * (small_n.class_sizes[a] * small_m.class_sizes[b]))
            restricted[joined] = restricted.get(joined, 0) + val
    out = {}
    for nu, row in zip(big.irr_labels, cyc_table(big)):
        tot = Cyc.zero(big.e)
        for c, val in restricted.items():
            tot = tot + val * row[c].conj()
        q = (tot / (small_n.order * small_m.order)).rational_value()
        if q.denominator != 1 or q < 0:
            raise ArithmeticError(f"multiplicity {q} of {nu}")
        if q:
            out[nu] = int(q)
    return out


def scrambled(tab):
    """The table with entry (i, c) sent to v * zeta_e^(i + 2c) + (i - c) /
    (1 + c mod 2): values that are neither orthogonal nor integral."""
    for i, row in enumerate(tab.values):
        for c, v in enumerate(row):
            w = times_zeta(tab.e, v, i + 2 * c)
            row[c] = (w[0] + Fraction(i - c, 1 + c % 2),) + w[1:]
    return tab


@pytest.mark.parametrize("G_name,n", [
    (G_name, n) for G_name in ("trivial", "cyclic:2", "cyclic:3", "cyclic:4",
                               "klein")
    for n in range(4)] + [
    (G_name, n) for G_name in ("cyclic:5", "cyclic:6") for n in range(3)])
def test_kernel_grams_match_cyc_oracle(G_name, n):
    # the scrambled values make every product a different element of
    # Q(zeta_e); conductors 5 and 6 reduce with rows beyond phi, and at n = 3
    # their per-term oracle takes 15 s and 22 s, so it stops at n = 2 there
    # the per-pair gram takes the Fraction coefficients of the scrambled
    # vectors, and the packed gram their integer multiples by den
    tab = scrambled(WreathCharacterTable(named_group(G_name), n))
    values = cyc_table(tab)
    rows = dict(hermitian_gram(tab.e, tab.values, tab.class_sizes))
    cols = dict(hermitian_gram(tab.e, list(zip(*tab.values))))
    assert len(rows) == len(cols) == len(tab.values) * (
        len(tab.values) + 1) // 2
    for (i, j), tot in rows.items():
        got = Cyc(tab.e, [Fraction(x, tab.order) for x in tot])
        assert got == cyc_inner(tab, values[i], values[j]), (i, j)
    for (c, c2), tot in cols.items():
        assert Cyc(tab.e, tot) == cyc_column(values, c, c2), (c, c2)
    ints, den = integral_rows(tab.values)
    gram = PackedProducts(tab.e, ints, weights=tab.class_sizes)
    for i, row in enumerate(ints):
        for j, tot in enumerate(zip(*map(gram.slots, gram(row)))):
            if j >= i:
                assert list(tot) == [x * den * den for x in rows[i, j]]


@pytest.mark.parametrize("G_name", ["cyclic:2", "cyclic:3"])
def test_induction_matches_cyc_oracle(G_name):
    G = named_group(G_name)
    labels = tuple(range(G.order))
    for n in range(4):
        for m in range(4 - n):
            for lam in partition_maps(n, labels):
                for mu in partition_maps(m, labels):
                    assert (induction_product(G, lam, mu)
                            == cyc_induction_product(G, lam, mu)), (lam, mu)


def verdict(check):
    try:
        return check()
    except ArithmeticError:
        return "ArithmeticError"


def oracle_ring_hom_check(G, max_total):
    """ch_ring_hom_check pair by pair over the per-term Cyc oracle."""
    from hallalg.exactmath.symfunc import MultiSymElem, multisym_mul
    labels = tuple(range(G.order))
    failures = []
    for n in range(max_total + 1):
        for m in range(max_total + 1 - n):
            for lam in partition_maps(n, labels):
                for mu in partition_maps(m, labels):
                    lhs = ch(G, cyc_induction_product(G, lam, mu))
                    rhs = multisym_mul(MultiSymElem.basis(lam),
                                       MultiSymElem.basis(mu))
                    if lhs != rhs:
                        failures.append({"lam": lam.to_json(),
                                         "mu": mu.to_json(),
                                         "lhs": lhs.to_json(),
                                         "rhs": rhs.to_json()})
    return (not failures), failures


def test_swapped_rows_give_the_oracle_failures(capsys, monkeypatch):
    # rows 0 and 1 of C2 wr S_2 traded: every multiplicity stays natural,
    # so the pairs that reach them fail with lhs != rhs, not an error
    tables = {}

    def swapped(G, n, budget):
        if n not in tables:
            tab = tables[n] = WreathCharacterTable(G, n, budget)
            if n == 2:
                tab.values[0], tab.values[1] = tab.values[1], tab.values[0]
        return tables[n]

    monkeypatch.setattr(chmap, "character_table", swapped)
    G = cyclic_group(2)
    got = ch_ring_hom_check(G, 3)
    assert got[1]
    assert got == oracle_ring_hom_check(G, 3)
    # the witnesses of the failing pairs, pinned byte for byte
    assert run(["ch-verify", "--G", "cyclic:2", "--max-size", "3"]) == 1
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "ad4d175138b2515a0448005ec266ab1827a7945ae3312c9aa103d9e4c9132c57")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("trivial", 3), ("cyclic:2", 2), ("cyclic:3", 2),
                        ("klein", 1)]),
       st.sampled_from(["zeta_e^k", "half", "negate", "plus_one", "double"]),
       st.data())
def test_perturbed_tables_give_the_oracle_failures(case, how, data):
    # perturbations that stay in Q(zeta_e): the batch and the oracle then
    # reject exactly the same multiplicities, pair by pair
    G_name, max_total = case
    G = named_group(G_name)
    tables = {n: WreathCharacterTable(G, n) for n in range(max_total + 1)}
    n = data.draw(st.integers(0, max_total), label="n")
    tab = tables[n]
    i = data.draw(st.integers(0, len(tab.values) - 1), label="row")
    c = data.draw(st.integers(0, len(tab.values) - 1), label="column")
    k = data.draw(st.integers(0, tab.e - 1), label="k")
    perturb = {"zeta_e^k": lambda v: times_zeta(tab.e, v, k),
               "half": lambda v: tuple(Fraction(x, 2) for x in v),
               "negate": lambda v: tuple(-x for x in v),
               "plus_one": lambda v: (v[0] + 1,) + v[1:],
               "double": lambda v: tuple(2 * x for x in v)}[how]
    tab.values[i][c] = perturb(tab.values[i][c])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chmap, "character_table",
                   lambda G, n, budget: tables[n])
        assert (verdict(lambda: ch_ring_hom_check(G, max_total))
                == verdict(lambda: oracle_ring_hom_check(G, max_total)))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([("trivial", 3), ("cyclic:2", 3), ("cyclic:3", 0),
                        ("cyclic:3", 2), ("cyclic:4", 2), ("cyclic:5", 1),
                        ("cyclic:6", 1), ("klein", 2)]),
       st.sampled_from(["zeta_e^k", "half", "negate", "plus_one"]),
       st.data())
def test_perturbed_table_gets_the_oracle_verdict(case, how, data):
    G_name, n = case
    tab = WreathCharacterTable(named_group(G_name), n)
    i = data.draw(st.integers(0, len(tab.values) - 1), label="row")
    c = data.draw(st.integers(0, len(tab.values) - 1), label="column")
    k = data.draw(st.integers(0, tab.e - 1), label="k")
    perturb = {"zeta_e^k": lambda v: times_zeta(tab.e, v, k),
               "half": lambda v: tuple(Fraction(x, 2) for x in v),
               "negate": lambda v: tuple(-x for x in v),
               "plus_one": lambda v: (v[0] + 1,) + v[1:]}[how]
    tab.values[i][c] = perturb(tab.values[i][c])
    assert (verdict(tab.check_orthogonality)
            == verdict(lambda: cyc_check_orthogonality(tab)))


def test_check_reads_the_values_afresh():
    tab = WreathCharacterTable(cyclic_group(3), 2)
    assert tab.check_orthogonality() == (True, None)
    tab.values[1][tab.identity_class] = tuple(
        -x for x in tab.values[1][tab.identity_class])
    assert tab.check_orthogonality() == (False, ("row", 0, 1))


def exact_verdict(check):
    """The result of check(), or the text of its ArithmeticError."""
    try:
        return check()
    except ArithmeticError as exc:
        return "ArithmeticError", str(exc)


@pytest.mark.parametrize("G_name,n", [
    ("trivial", 3), ("cyclic:3", 2), ("cyclic:4", 3), ("klein", 2)])
def test_a_wrong_last_diagonal_entry_is_the_witness(G_name, n):
    # the last row doubled keeps every off-diagonal entry of the gram 0 and
    # makes the last diagonal entry 4 |W|: only the last pair fails
    tab = WreathCharacterTable(named_group(G_name), n)
    last = len(tab.values) - 1
    tab.values[last] = [tuple(2 * x for x in v) for v in tab.values[last]]
    assert tab.check_orthogonality() == (False, ("row", last, last))
    assert pairwise_check_orthogonality(tab) == (False, ("row", last, last))


ENTRY_SKEWS = {
    "third": lambda v: v[:-1] + (v[-1] + Fraction(1, 3),),
    "half": lambda v: tuple(Fraction(x, 2) for x in v),
    "whole": lambda v: tuple(Fraction(-x) for x in v),
}


def test_a_fraction_entry_raises_the_pairwise_error():
    tab = WreathCharacterTable(cyclic_group(3), 2)
    tab.values[2][3] = ENTRY_SKEWS["third"](tab.values[2][3])
    with pytest.raises(ArithmeticError) as exc:
        tab.check_orthogonality()
    assert (("ArithmeticError", str(exc.value))
            == exact_verdict(lambda: pairwise_check_orthogonality(tab)))
    assert str(exc.value).startswith("inner product of rows 0 and 2 is not "
                                     "rational: ")


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.sampled_from([("trivial", 3), ("cyclic:2", 2), ("cyclic:3", 2),
                        ("cyclic:4", 2), ("cyclic:5", 1), ("cyclic:6", 1),
                        ("klein", 2)]),
       st.sampled_from(sorted(ENTRY_SKEWS)), st.data())
def test_one_fraction_entry_gets_the_pairwise_verdict(case, how, data):
    # the witness, or the exact text of the error, of the per-pair route
    G_name, n = case
    tab = WreathCharacterTable(named_group(G_name), n)
    i = data.draw(st.integers(0, len(tab.values) - 1), label="row")
    c = data.draw(st.integers(0, len(tab.values) - 1), label="column")
    tab.values[i][c] = ENTRY_SKEWS[how](tab.values[i][c])
    assert (exact_verdict(tab.check_orthogonality)
            == exact_verdict(lambda: pairwise_check_orthogonality(tab)))


def test_a_fraction_entry_raises_the_first_multiplicity_error(monkeypatch):
    # the big table of C3 wr S_2 with one entry off by zeta^(phi-1) / 3:
    # the error names the first nu, in label order, as the per-pair route
    G = cyclic_group(3)
    tables = {n: WreathCharacterTable(G, n) for n in range(3)}
    tables[2].values[4][2] = ENTRY_SKEWS["third"](tables[2].values[4][2])
    monkeypatch.setattr(chmap, "character_table",
                        lambda G, n, budget: tables[n])
    with pytest.raises(ArithmeticError) as exc:
        chmap.induction_products(G, 1, 1)
    assert (("ArithmeticError", str(exc.value))
            == exact_verdict(lambda: pairwise_induction_products(G, 1, 1)))
    assert str(exc.value).startswith(
        f"multiplicity of {tables[2].irr_labels[4]} in the induction product "
        f"is not in N: ")


def test_a_multiplicity_sum_at_the_slot_bound(monkeypatch):
    # every entry of the S_3 table set to K: each multiplicity is the sum
    # sum_c |c| K K = 6 K^2 over den = 6, the a-priori bound itself, which
    # counts the class sizes; a bound without them is one bit short
    K = 1 << 20
    tables = {n: WreathCharacterTable(trivial_group(), n) for n in (0, 3)}
    tables[3].values = [[(K,)] * 3 for _ in range(3)]
    monkeypatch.setattr(chmap, "character_table",
                        lambda G, n, budget: tables[n])
    got = chmap.induction_products(trivial_group(), 3, 0)
    assert got == pairwise_induction_products(trivial_group(), 3, 0)
    assert list(got.values()) == [
        {nu: K * K for nu in tables[3].irr_labels}] * 3


@pytest.mark.parametrize("G_name,total", [
    ("cyclic:5", 3), ("cyclic:6", 3), ("cyclic:4", 4)])
def test_the_fold_matches_the_per_pair_routes(monkeypatch, G_name, total):
    # phi(e) = 4, 2 and 2: each folded column gathers the coefficient pairs
    # (i, j) of every class pair into the slot i + j of their joined class;
    # |C4 wr S_4| = 6144 is over the default budget
    G = named_group(G_name)
    tables = {k: WreathCharacterTable(G, k, 10 ** 4) for k in range(total + 1)}
    monkeypatch.setattr(chmap, "character_table",
                        lambda G, k, budget: tables[k])
    for n in range(total + 1):
        for m in range(total + 1 - n):
            got = chmap.induction_products(G, n, m)
            assert got == restricted_induction_products(G, n, m), (n, m)
            assert got == pairwise_induction_products(G, n, m), (n, m)


@pytest.mark.parametrize("G_name,n,m", [
    ("cyclic:5", 1, 2), ("cyclic:6", 2, 1), ("cyclic:4", 2, 2)])
@pytest.mark.parametrize("skew", SKEWS)
def test_a_skewed_big_table_raises_the_first_nu_error(monkeypatch, G_name,
                                                      n, m, skew):
    # the middle row of the big table skewed: the fold and the per-pair
    # routes stop at the same pair and name the same nu with the same value
    G = named_group(G_name)
    tables = {k: WreathCharacterTable(G, k, 10 ** 4) for k in {n, m, n + m}}
    big = tables[n + m]
    i = len(big.values) // 2
    big.values[i] = [skew(v) for v in big.values[i]]
    monkeypatch.setattr(chmap, "character_table",
                        lambda G, k, budget: tables[k])
    got = exact_verdict(lambda: chmap.induction_products(G, n, m))
    assert got[0] == "ArithmeticError"
    assert got == exact_verdict(lambda: restricted_induction_products(G, n, m))
    assert got == exact_verdict(lambda: pairwise_induction_products(G, n, m))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.sampled_from([("trivial", 2, 1), ("cyclic:2", 1, 2),
                        ("cyclic:3", 1, 1), ("cyclic:4", 2, 0),
                        ("cyclic:5", 1, 1), ("klein", 1, 1)]),
       st.sampled_from(sorted(ENTRY_SKEWS)), st.data())
def test_one_fraction_entry_gets_the_pairwise_multiplicities(case, how,
                                                            data):
    G_name, n, m = case
    G = named_group(G_name)
    tables = {k: WreathCharacterTable(G, k) for k in range(n + m + 1)}
    tab = tables[data.draw(st.sampled_from([n, m, n + m]), label="size")]
    i = data.draw(st.integers(0, len(tab.values) - 1), label="row")
    c = data.draw(st.integers(0, len(tab.values) - 1), label="column")
    tab.values[i][c] = ENTRY_SKEWS[how](tab.values[i][c])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chmap, "character_table",
                   lambda G, n, budget: tables[n])
        assert (exact_verdict(lambda: chmap.induction_products(G, n, m))
                == exact_verdict(
                    lambda: pairwise_induction_products(G, n, m)))


@pytest.mark.parametrize("G_name,n", [
    ("trivial", 3), ("cyclic:3", 2), ("cyclic:4", 2), ("klein", 2)])
def test_orthogonality_computes_one_gram(monkeypatch, G_name, n):
    # one label list for rows and columns makes the table square, and then
    # the row gram implies the column relation: only the rows are packed
    calls = []

    def counting(e, ys, *args, real=chmap.PackedProducts, **kwargs):
        calls.append((len(ys), kwargs.get("weights")))
        return real(e, ys, *args, **kwargs)

    monkeypatch.setattr(chmap, "PackedProducts", counting)
    tab = WreathCharacterTable(named_group(G_name), n)
    assert tab.class_labels is tab.irr_labels
    assert tab.check_orthogonality() == (True, None)
    assert calls == [(len(tab.irr_labels), tab.class_sizes)]


def test_certification_beyond_a_hundred_classes():
    # C3 wr S5 (|W| = 29160) and Klein wr S4 (|W| = 6144), over the default
    # budget; per-term Cyc arithmetic needs 105 s and 47 s to certify them
    start = time.perf_counter()
    for G, n, labels in ((cyclic_group(3), 5, 108), (klein_group(), 4, 105)):
        tab = WreathCharacterTable(G, n, budget=30000)
        assert len(tab.class_labels) == labels
        assert tab.check_orthogonality() == (True, None)
    assert time.perf_counter() - start < 10


def test_dropped_group_and_its_tables_are_collected():
    G = cyclic_group(2)
    tab = character_table(G, 2)
    assert character_table(G, 2) is tab
    character_table.cache_clear()
    assert character_table(G, 2) is not tab
    refs = [weakref.ref(G), weakref.ref(character_table(G, 2))]
    del G, tab
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_decompose_reads_any_class_function():
    tab = WreathCharacterTable(cyclic_group(3), 2)
    f = [tuple(2 * x + y for x, y in zip(a, b))
         for a, b in zip(tab.values[1], tab.values[4])]
    assert decompose(tab, f) == {tab.irr_labels[1]: 2, tab.irr_labels[4]: 1}
    with pytest.raises(UsageError):
        decompose(tab, [tuple(Fraction(x, 3) for x in v) for v in f])


def test_mixed_label_sets_are_refused():
    Z2 = cyclic_group(2)
    with pytest.raises(ValueError):
        ch(Z2, {PartitionMap((0, 1), ((1,), ())): 1,
                PartitionMap((0,), ((1,),)): 1})


def test_murnaghan_nakayama_sizes_must_agree():
    with pytest.raises(ValueError):
        murnaghan_nakayama((2,), (1,))


def test_class_representative_size_must_be_n():
    with pytest.raises(ValueError):
        class_label_representative(cyclic_group(2), 3,
                                   PartitionMap((0, 1), ((1,), (1,))))
