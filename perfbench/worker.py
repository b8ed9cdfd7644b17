"""One workload in its own process.

``run.py`` starts this script with PYTHONHASHSEED fixed and PYTHONPATH set
to the checkout's ``src``.  It imports hallalg, builds the job list, prints
``ready`` (the parent times set-up up to that line) and then runs the jobs
in round-robin passes, each job a fixed number of times set by its ``reps``
and ``--seconds`` (see ``schedule``).  Every job starts
cold: all ``functools`` caches of hallalg (among them
``hallalg.wreath.chmap.character_table``) are cleared and garbage is
collected before it, outside the timed region.  The last line of output
is one JSON object with the per-job samples and tallies.

With ``--trace 1`` every job runs once untraced and then once traced, so
that one process gives both the per-layer numbers and the tracing
overhead.
"""

import argparse
import gc
import json
import os
import random
import resource
import signal
import statistics
import sys
from time import perf_counter

REPS_RUN_S = 60     # the run length that the jobs' ``reps`` are set for
STOP_S = 140        # no job starts later than this after the first one, so
                    # a run ends within three minutes on a stalled machine
REFERENCE_RUNS = 5  # reference kernel runs between two jobs
REFERENCE_S = 0.001 # about the reference kernel's time on an idle core of
                    # the machine the benchmark was built on: setup_s is
                    # the set-up time scaled to that speed
TICK_S = 0.2        # the sampler's period while a job runs
MIN_TICKS = 3       # a job with fewer ticks uses the runs between jobs


def find_caches():
    """Every functools cache held by a hallalg module or class."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "hallalg"
                               or name.startswith("hallalg.")):
            continue
        for value in list(vars(mod).values()):
            holders = [value]
            if isinstance(value, type) and value.__module__ == name:
                holders = list(vars(value).values())
            for h in holders:
                if callable(getattr(h, "cache_clear", None)):
                    found[id(h)] = h
    return list(found.values())


class Tally:
    """Samples and outcomes of one phase (untraced or traced)."""

    def __init__(self, jobs):
        self.samples = {job.name: [] for job in jobs}
        self.ratios = {job.name: [] for job in jobs}  # time / reference time
        self.errors = {job.name: 0 for job in jobs}   # raised an exception
        self.wrong = {job.name: 0 for job in jobs}    # finished, wrong output
        self.messages = []

    def record(self, name, seconds, reference_s, error, wrong):
        self.samples[name].append(seconds)
        self.ratios[name].append(seconds / reference_s)
        if error is not None:
            self.errors[name] += 1
        if wrong is not None:
            self.wrong[name] += 1
        message = error or wrong
        if message is not None and len(self.messages) < 10:
            self.messages.append(f"{name}: {message}")

    def to_json(self):
        jobs = [{"name": name, "n": len(s), "median_s": statistics.median(s),
                 "min_s": min(s), "max_s": max(s),
                 "median_ref": statistics.median(self.ratios[name]),
                 "errors": self.errors[name], "wrong": self.wrong[name]}
                for name, s in self.samples.items()]
        # each job weighs the same, however many times it runs
        ok_ratio = statistics.mean(
            1 - (j["errors"] + j["wrong"]) / j["n"] for j in jobs)
        return {"wall_s": sum(j["median_s"] for j in jobs),
                "wall_ref": sum(j["median_ref"] for j in jobs),
                "ok_ratio": ok_ratio, "jobs": jobs,
                "attempted": sum(len(s) for s in self.samples.values()),
                "errors": sum(self.errors.values()),
                "wrong": sum(self.wrong.values()),
                "messages": self.messages}


# The reference kernel's table, built once, so that the kernel allocates
# nothing that outlives it.
_TABLE = {(i % 977, i % 13): i for i in range(3000)}


def reference_kernel():
    """A fixed pure-Python loop of tuple building and dict lookups that does
    not touch hallalg and takes a few milliseconds.  The machine's momentary
    speed moves its time as it moves the jobs' times."""
    total = 0
    for i in range(6000):
        total += _TABLE.get((i % 977, i % 13), 0)
    return total


def time_reference():
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0


class Sampler:
    """Times the reference kernel every TICK_S seconds while a job runs,
    from a SIGALRM handler, so that a long job is compared with the
    machine's speed during the job itself.  The handler stays installed
    for the life of the process and does nothing between jobs."""

    def __init__(self):
        self.active = False
        self.times = []
        self.overhead_s = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        if self.active:
            t0 = perf_counter()
            self.times.append(time_reference())
            self.overhead_s += perf_counter() - t0

    def start(self):
        self.times, self.overhead_s = [], 0.0
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        """Stop ticking; return the kernel's times and the handler's total
        time."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.active = False
        return self.times, self.overhead_s


def settle(caches):
    """Bring the process to the cold state a job starts from: every hallalg
    cache cleared and garbage collected.  Then time REFERENCE_RUNS runs of
    the reference kernel and return their times."""
    for c in caches:
        c.cache_clear()
    gc.collect()
    return [time_reference() for _ in range(REFERENCE_RUNS)]


def run_job(job, sampler):
    """Run one job; return its time without the sampler's ticks, the
    reference times taken during it, the exception it raised (or None) and
    what its check found wrong (or None)."""
    error = wrong = None
    if sampler is not None:
        sampler.start()
    t0 = perf_counter()
    try:
        result = job.execute()
    except Exception as exc:            # counted as a failed execution
        error = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    ticks = []
    if sampler is not None:
        ticks, overhead_s = sampler.stop()
        seconds -= overhead_s
    if error is None:
        wrong = job.check(result)
    return seconds, ticks, error, wrong


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def schedule(jobs, seconds, rng):
    """The passes of one run.  Each job runs its ``reps`` scaled from
    REPS_RUN_S to ``seconds`` (at least once).  The first pass runs every
    job once in the canonical order; each later pass holds the jobs with
    executions left, in an order drawn from ``rng``.  So the number of
    executions depends neither on the seed nor on the machine's speed."""
    left = {job.name: max(1, round(job.reps * seconds / REPS_RUN_S))
            for job in jobs}
    passes = []
    order = list(jobs)
    while order:
        passes.append(order)
        for job in order:
            left[job.name] -= 1
        order = [job for job in jobs if left[job.name] > 0]
        rng.shuffle(order)
    return passes


def run_passes(passes, caches, tally, stop_at, sampler=None,
               before_pass=None, after_pass=None):
    """Run the passes in turn; no job starts after ``stop_at``.  Returns
    the number of complete passes.

    Each job runs cold, between two ``settle`` calls, and its time is
    recorded with a reference time: the median of the sampler's ticks
    during the job when there are at least MIN_TICKS of them, or else the
    median of the reference times of the settles just before and just
    after it (the latter is also the one before the next job)."""
    before = settle(caches)
    for done, order in enumerate(passes):
        if before_pass is not None:
            before_pass()
        for job in order:
            if perf_counter() > stop_at:
                return done
            seconds, ticks, error, wrong = run_job(job, sampler)
            after = settle(caches)
            around = ticks if len(ticks) >= MIN_TICKS else before + after
            tally.record(job.name, seconds, statistics.median(around),
                         error, wrong)
            before = after
        if after_pass is not None:
            after_pass()
    return len(passes)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import hallalg
    import hallalg.cli  # noqa: F401  (the jobs' entry point)
    src = os.path.join(os.getcwd(), "src")
    if os.path.commonpath([os.path.abspath(hallalg.__file__),
                           os.path.abspath(src)]) != os.path.abspath(src):
        print(f"error: imported hallalg from {hallalg.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    from workloads import workload_jobs
    jobs = workload_jobs(args.workload)
    caches = find_caches()
    print("ready", flush=True)
    # run.py divides the set-up time by this reference time
    setup_reference_s = statistics.median(settle(caches))
    if args.setup_only:
        print(json.dumps({"setup_reference_s": setup_reference_s}))
        return 0

    rng = random.Random(args.seed)
    passes = schedule(jobs, args.seconds, rng)
    stop_at = perf_counter() + STOP_S
    out = {"workload": args.workload, "seed": args.seed,
           "cache_count": len(caches),
           "setup_reference_s": setup_reference_s}
    if not args.trace:
        # Peak RSS is read after the first pass, which runs every job once
        # in the canonical order: the heap fragmentation that later passes
        # add depends on the seeded job order and moves the peak by ~7%.
        first_pass_rss = []
        tally = Tally(jobs)
        out["passes"] = run_passes(
            passes, caches, tally, stop_at, Sampler(),
            after_pass=lambda: first_pass_rss.append(peak_rss_mb()))
        out["untraced"] = tally.to_json()
        out["peak_rss_mb"] = (first_pass_rss[0] if first_pass_rss
                              else peak_rss_mb())
    else:
        # one untraced pass in the canonical order, then one traced pass
        # of every job in an order drawn from the seed
        from spans import Tracer
        traced_order = list(jobs)
        rng.shuffle(traced_order)
        plain = Tally(jobs)
        out["passes"] = run_passes(passes[:1], caches, plain, stop_at)
        out["untraced"] = plain.to_json()
        tracer = Tracer()
        tracer.install()
        traced = Tally(jobs)
        try:
            out["traced_passes"] = run_passes(
                [traced_order], caches, traced, stop_at,
                before_pass=tracer.begin_pass)
        finally:
            tracer.uninstall()
        if out["traced_passes"] == 0:
            print("error: the traced pass did not finish", file=sys.stderr)
            return 1
        out["traced"] = traced.to_json()
        out["layers"] = tracer.pass_metrics(0)
        out["absent"] = tracer.absent
        out["fiber_sizes"] = sorted(tracer.pass_fiber_sizes[0],
                                    reverse=True)[:8]
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
