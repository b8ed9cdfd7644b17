import pytest
from hypothesis import given, settings, strategies as st

from hallalg.exactmath.partitions import (PartitionMap, check_partition,
                                          compositions, conjugate,
                                          count_partition_maps,
                                          multiset_number,
                                          partition_maps, partition_numbers,
                                          partitions_of)
from oracles.exactmath import partition_map_from_json, partition_maps_count


def brute_multisets(m, n):
    """Enumerate weakly increasing n-tuples from m symbols."""
    if n == 0:
        return 1
    count = 0
    stack = [(0, 0)]
    while stack:
        lo, depth = stack.pop()
        if depth == n:
            count += 1
            continue
        for v in range(lo, m):
            stack.append((v, depth + 1))
    return count


def test_multiset_number_against_enumeration():
    for m in range(0, 6):
        for n in range(0, 5):
            assert multiset_number(m, n) == brute_multisets(m, n)


def test_multiset_edge_cases():
    assert multiset_number(4, 2) == 10
    assert multiset_number(9, 0) == 1
    assert multiset_number(0, 3) == 0
    assert multiset_number(1, 5) == 1


def test_partitions_of_counts_and_order():
    assert partitions_of(0) == ((),)
    assert partitions_of(1) == ((1,),)
    assert len(partitions_of(4)) == 5
    # decreasing lexicographic
    p4 = partitions_of(4)
    assert list(p4) == sorted(p4, reverse=True)
    # brute force count: stars-and-bars style recursion
    def brute(n, maxpart):
        if n == 0:
            return 1
        return sum(brute(n - k, k) for k in range(1, min(n, maxpart) + 1))
    for n in range(9):
        assert len(partitions_of(n)) == brute(n, n)


@given(st.integers(min_value=0, max_value=12))
def test_partitions_are_weakly_decreasing(n):
    for p in partitions_of(n):
        assert sum(p) == n
        assert all(p[i] >= p[i + 1] for i in range(len(p) - 1))


def test_conjugate_involution():
    for n in range(7):
        for p in partitions_of(n):
            assert conjugate(conjugate(p)) == p


def test_partition_maps_examples():
    maps = partition_maps(2, ("a", "b"))
    assert len(maps) == 5
    assert partition_maps(0, ("a",)) == [PartitionMap(("a",), ((),))]
    assert partition_maps(1, ("a",)) == [PartitionMap(("a",), ((1,),))]
    assert partition_maps(3, ()) == []


def test_partition_maps_count_formula():
    for n in range(5):
        for k in range(1, 4):
            assert len(partition_maps(n, tuple(range(k)))) == \
                partition_maps_count(n, k)


def test_label_count_matches_the_composition_formula():
    # the generating function (sum_j p(j) x^j)^k against the listing (small)
    # and the sum over compositions (beyond it); k = 0 has one empty map
    for n in range(9):
        assert count_partition_maps(n, 0) == (n == 0)
        for k in range(1, 7):
            assert count_partition_maps(n, k) == partition_maps_count(n, k)
            if n <= 4 and k <= 4:
                assert count_partition_maps(n, k) == len(
                    partition_maps(n, tuple(range(k))))


def test_partition_numbers_match_the_listing_and_stop_over_the_budget():
    assert partition_numbers(20) == [len(partitions_of(j))
                                     for j in range(21)]
    assert partition_numbers(100)[-1] == 190569292
    # the list ends at the first p(j) over the budget, p(50) = 204,226
    stopped = partition_numbers(10 ** 6, 200000)
    assert stopped == partition_numbers(50)
    assert stopped[-2] <= 200000 < stopped[-1]
    assert partition_numbers(5, 7) == partition_numbers(5)


@given(st.integers(0, 30), st.integers(1, 4), st.integers(0, 10 ** 4))
def test_a_partition_number_over_the_budget_bounds_the_count(n, k, budget):
    p = partition_numbers(n, budget)
    assert p == partition_numbers(n)[:len(p)]
    if p[-1] > budget:
        assert count_partition_maps(n, k) >= p[-1]


def test_partition_map_json_roundtrip():
    pm = PartitionMap(("a", "b"), ((2, 1), ()))
    assert pm.total == 3
    assert partition_map_from_json(pm.to_json(), ("a", "b")) == pm


def test_compositions_cover():
    assert list(compositions(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert list(compositions(0, 0)) == [()]


# input checks raise ValueError rather than assert: `python -O` strips asserts
@pytest.mark.parametrize("bad", [(1, 2), (0,), (2, -1), (1.0,), [3, "1"]])
def test_check_partition_rejects_non_partitions(bad):
    with pytest.raises(ValueError, match="not a partition"):
        check_partition(bad)


def test_partition_map_rejects_bad_shapes():
    with pytest.raises(ValueError, match="not a partition"):
        PartitionMap(("a",), ((1, 2),))
    with pytest.raises(ValueError, match="2 labels for 1 partitions"):
        PartitionMap(("a", "b"), ((1,),))
    with pytest.raises(ValueError, match="duplicate labels"):
        PartitionMap(("a", "a"), ((1,), ()))


def test_negative_sizes_are_value_errors():
    with pytest.raises(ValueError, match="negative"):
        multiset_number(-1, 2)
    with pytest.raises(ValueError, match="negative"):
        multiset_number(2, -1)
    with pytest.raises(ValueError, match="no partitions of -1"):
        partitions_of(-1)
    with pytest.raises(ValueError, match="total size -2"):
        partition_maps(-2, ("a",))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(0, 5), st.data())
def test_listed_maps_equal_the_checked_maps(k, n, data):
    # partition_maps checks the labels once and its parts not at all; each
    # map it lists is the map that the checking constructor builds
    labels = data.draw(st.lists(st.one_of(st.integers(-9, 9),
                                          st.text(max_size=2)),
                                min_size=k, max_size=k, unique=True),
                       label="labels")
    listed = partition_maps(n, labels)
    assert len(listed) == partition_maps_count(n, k)
    for lam in listed:
        checked = PartitionMap(labels, lam.parts)
        assert lam == checked and checked == lam
        assert hash(lam) == hash(checked)
        assert repr(lam) == repr(checked)
        assert lam.to_json() == checked.to_json()
        assert lam.sort_key() == checked.sort_key()
        assert lam.labels == checked.labels
        assert type(lam.labels) is type(lam.parts) is tuple
    assert len(set(listed)) == len(listed)


@pytest.mark.parametrize("n", [0, 1, 3])
@pytest.mark.parametrize("labels", [(0, 0), ("a", "b", "a"), [1, 2, 1]])
def test_listing_with_duplicate_labels_raises_the_checked_error(n, labels):
    with pytest.raises(ValueError) as want:
        PartitionMap(labels, [()] * len(labels))
    with pytest.raises(ValueError) as got:
        partition_maps(n, labels)
    assert str(got.value) == str(want.value)
