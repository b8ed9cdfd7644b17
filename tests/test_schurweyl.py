import pytest

from hallalg.exactmath.partitions import PartitionMap, partition_maps
from hallalg.groups import (cyclic_group, klein_group, symmetric_group,
                            trivial_group)
from hallalg.schurweyl import (check_sum_of_squares, check_total_dimension,
                               dim_R, schur_weyl_report)
from hallalg.wreath import irreducible_dimension
from oracles.exactmath import partition_map_from_json
from oracles.schurweyl import dim_poly_fns


def test_dim_poly_fns_examples():
    t = trivial_group()
    assert dim_poly_fns(t, 1, 2) == 1
    assert dim_poly_fns(t, 2, 2) == 10
    assert dim_poly_fns(cyclic_group(2), 1, 1) == 2
    # one variable for trivial G, d = 1: always 1
    for n in range(6):
        assert dim_poly_fns(t, 1, n) == 1
    # abelianization handles nonabelian input
    assert dim_poly_fns(symmetric_group(3), 1, 1) == 2


def test_dim_R_examples():
    assert dim_R(PartitionMap((0,), ((2,),)), 2) == 3
    assert dim_R(PartitionMap((0,), ((1, 1),)), 1) == 0
    assert dim_R(PartitionMap((0, 1), ((1,), (1,))), 1) == 1


def test_dim_R_monotone_in_d():
    for n in range(4):
        for lam in partition_maps(n, (0, 1)):
            for d in range(1, 4):
                assert dim_R(lam, d) <= dim_R(lam, d + 1)


def test_sum_of_squares_examples():
    ok, d = check_sum_of_squares(trivial_group(), 2, 2)
    assert ok and d == {"lhs": 10, "rhs": 10}
    ok, d = check_sum_of_squares(cyclic_group(2), 1, 1)
    assert ok and d["lhs"] == 2
    ok, d = check_sum_of_squares(cyclic_group(3), 2, 2)
    assert ok and d["rhs"] == 78


def test_total_dimension_examples():
    ok, d = check_total_dimension(trivial_group(), 2, 2)
    assert ok and d["lhs"] == 4
    ok, d = check_total_dimension(cyclic_group(2), 1, 1)
    assert ok and d["lhs"] == 2
    ok, d = check_total_dimension(cyclic_group(2), 2, 2)
    assert ok and d["lhs"] == 16


@pytest.mark.parametrize("G", [trivial_group(), cyclic_group(2),
                               cyclic_group(3), klein_group()])
def test_identities_grid(G):
    for n in range(0, 5):
        for d in range(1, 4):
            assert check_sum_of_squares(G, n, d)[0], (G.name, n, d)
            assert check_total_dimension(G, n, d)[0], (G.name, n, d)


def test_report_kernel_flags():
    r = schur_weyl_report(trivial_group(), 2, 1)
    kern = [row for row in r.rows if row["kernel"]]
    assert len(kern) == 1 and kern[0]["label"] == {"0": [1, 1]}
    assert r.ok
    r2 = schur_weyl_report(trivial_group(), 2, 2)
    assert not any(row["kernel"] for row in r2.rows)
    assert r2.ok
    r3 = schur_weyl_report(cyclic_group(2), 3, 1)
    for row in r3.rows:
        lam = partition_map_from_json(row["label"], (0, 1))
        assert row["kernel"] == any(len(p) > 1 for p in lam.parts)
    assert r3.ok


def test_kernel_free_when_n_le_d():
    for G in (trivial_group(), cyclic_group(2)):
        for d in range(1, 4):
            for n in range(0, d + 1):
                r = schur_weyl_report(G, n, d)
                assert not any(row["kernel"] for row in r.rows), (n, d)


def test_report_json():
    js = schur_weyl_report(cyclic_group(2), 2, 2).to_json()
    assert js["pass"] is True
    assert set(js["verdicts"]) == {"sum_of_squares", "total_dimension",
                                   "kernel_free_when_n_le_d",
                                   "nonzero_count_matches"}


def test_kernel_criterion_checked_row_by_row(monkeypatch):
    # dim R_(1,1) over d = 1 is 0 and dim R_(2) is 1; swapping them keeps
    # the number of kernel rows but breaks the criterion on both rows
    import hallalg.schurweyl as sw
    honest = sw.schur_eval_ones

    def swapped(part, d):
        return honest({(2,): (1, 1), (1, 1): (2,)}.get(part, part), d)

    monkeypatch.setattr(sw, "schur_eval_ones", swapped)
    r = schur_weyl_report(trivial_group(), 2, 1)
    assert sum(row["kernel"] for row in r.rows) == 1
    assert r.nonzero_count_matches is False
    assert r.ok is False


@pytest.mark.parametrize("G", [trivial_group(), cyclic_group(2),
                               cyclic_group(3), klein_group()])
def test_report_rows_match_the_per_label_formulas(G):
    # the report's lookups per partition against dim X and dim R computed
    # label by label, and the label JSON of each map
    for n in range(5):
        for d in range(1, 4):
            labels = partition_maps(n, tuple(range(G.order)))
            rows = schur_weyl_report(G, n, d).rows
            assert rows == [{"label": lam.to_json(),
                             "dim_X": irreducible_dimension(G, lam),
                             "dim_R": dim_R(lam, d),
                             "kernel": dim_R(lam, d) == 0}
                            for lam in labels], (G.name, n, d)
