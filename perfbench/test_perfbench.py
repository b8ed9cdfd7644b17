"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import collections
import hashlib
import os
import random
import time
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _job(workload, name):
    return {j.name: j for j in workloads.workload_jobs(workload)}[name]


def _cli_digest(argv, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-m", "hallalg.cli", *argv],
                         env=env, cwd=ROOT, capture_output=True, check=True,
                         timeout=60).stdout
    return hashlib.sha256(out).hexdigest()


@pytest.mark.parametrize("workload,name", [
    ("pullpush", "hall-vect-f2-4"), ("wreath", "schurweyl-klein-4-3")])
def test_output_digest_does_not_depend_on_hash_seed(workload, name):
    job = _job(workload, name)
    assert _cli_digest(job.argv, 1) == _cli_digest(job.argv, 2) == job.digest


def test_job_names_unique_and_digests_recorded():
    for wl in workloads.WORKLOADS:
        jobs = workloads.workload_jobs(wl)
        assert len({j.name for j in jobs}) == len(jobs)
        for j in jobs:
            if isinstance(j, workloads.CliJob):
                assert len(j.digest) == 64


def test_schedule_fixes_the_executions_and_seeds_only_the_order():
    jobs = workloads.workload_jobs("groupoid")
    runs = [worker.schedule(jobs, 60, random.Random(seed)) for seed in (1, 2)]
    for passes in runs:
        assert [j.name for j in passes[0]] == [j.name for j in jobs]
        assert (collections.Counter(j.name for p in passes for j in p)
                == {j.name: j.reps for j in jobs})
    assert ([[j.name for j in p] for p in runs[0]]
            != [[j.name for j in p] for p in runs[1]])
    assert len(worker.schedule(jobs, 1, random.Random(1))) == 1


def test_wall_ref_sums_the_median_ratios_to_the_reference():
    jobs = workloads.workload_jobs("wreath")[:2]
    tally = worker.Tally(jobs)
    for seconds, ref in ((2.0, 0.01), (3.0, 0.02), (9.0, 0.01)):
        tally.record(jobs[0].name, seconds, ref, None, None)
    tally.record(jobs[1].name, 0.5, 0.01, "RuntimeError: x", None)
    out = tally.to_json()
    assert out["wall_ref"] == pytest.approx(200 + 50)
    assert out["wall_s"] == pytest.approx(3.0 + 0.5)
    assert out["ok_ratio"] == pytest.approx(0.5)
    assert (out["attempted"], out["errors"]) == (4, 1)


def test_sampler_times_the_kernel_during_a_job_and_counts_itself():
    sampler = worker.Sampler()
    sampler.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.7:
        sum(range(1000))
    ticks, overhead_s = sampler.stop()
    assert len(ticks) >= worker.MIN_TICKS
    assert 0 < sum(ticks) <= overhead_s < 0.7
    n = len(ticks)
    time.sleep(0.5)
    assert len(sampler.times) == n              # no tick after stop


def test_groupoid_is_segal_then_pullpush():
    names = [j.name for j in workloads.workload_jobs("groupoid")]
    assert names == [j.name for part in ("segal", "pullpush")
                     for j in workloads.workload_jobs(part)]


def test_cold_state_clears_the_character_table_cache():
    import hallalg.wreath.chmap as chmap
    assert any(c is chmap.character_table for c in worker.find_caches())


def test_spans_wrap_every_binding_and_restore():
    import hallalg
    import hallalg.groupoid
    import hallalg.groupoid.functors as functors
    import hallalg.waldhausen.hecke as hecke
    import hallalg.waldhausen.segal as segal
    from hallalg.groupoid.core import Groupoid
    original = functors.is_equivalence
    components = Groupoid.__dict__["components"]
    bindings = (hallalg, hallalg.groupoid, functors, hecke, segal)
    job = _job("segal", "hw-s3-s2")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == {}
        assert all(m.is_equivalence is not original for m in bindings)
        tracer.begin_pass()
        assert job.check(job.execute()) is None
    finally:
        tracer.uninstall()
    assert all(m.is_equivalence is original for m in bindings)
    assert Groupoid.__dict__["components"] is components

    m = tracer.pass_metrics(0)
    assert m["cli.calls"] == 1
    assert m["waldhausen.segal.calls"] == 1
    assert m["groupoid.is_equivalence.calls"] >= 2
    assert m["groupoid.fiber_objects"] > 0
    assert m["wreath.char_table.calls"] == 0
    # self times partition the root span: cli.run was the first span
    root = tracer.t1[0] - tracer.t0[0]
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(root, rel=1e-9)
    assert all(v >= 0 for k, v in m.items() if k.endswith(".self_s"))


def test_missing_target_is_absent_not_zero(monkeypatch):
    monkeypatch.setattr(spans, "SPANS", spans.SPANS + [
        ("gone.span", "hallalg.groupoid.core", "Groupoid.no_such_method",
         None, ())])
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    tracer.begin_pass()
    assert "gone.span" in tracer.absent
    assert "gone.span.calls" not in tracer.pass_metrics(0)


def test_refuses_to_run_without_the_program():
    # the benchmark's own directory holds no src/hallalg
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "wreath",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=HERE, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
