"""hallalg benchmark: time to a checked verdict on three fixed workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload groupoid --seed 1 --seconds 60 --trace 0

``--workload`` is one of the benchmark's workloads, ``groupoid`` or
``wreath``; one of the two parts of ``groupoid``, ``segal`` or ``pullpush``;
or ``all`` (``segal``, ``pullpush`` and ``wreath`` in turn, metrics prefixed
by the part's name).  Each runs in a fresh process of its own
(``worker.py``) with PYTHONHASHSEED=0, importing hallalg from ``./src``.
Every job runs a fixed number of times, set by ``--seconds``.  The first
round-robin pass runs the jobs in their canonical order, and the seed sets
the job order of every later pass; the inputs never change.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics:

    wall_ref     the job list's time in units of the reference kernel's
                 time: the sum over the jobs of the median of each job's
                 time divided by the reference kernel's time measured just
                 before and after it (ref); the plain sum of median times,
                 wall_s, is printed above the result
    setup_s      median over several fresh processes of the time from
                 process start to the first job being ready, each divided
                 by the reference kernel's time measured in that process
                 just after and multiplied by worker.REFERENCE_S: the
                 set-up time at a fixed reference speed (s)
    peak_rss_mb  ru_maxrss of the workload's process after its first pass,
                 in which every job runs once in canonical order (MB)
    ok_ratio     the mean over the jobs of the share of each job's
                 executions that passed, i.e. 1 - fail_ratio with every job
                 weighted the same; an execution fails if it raises,
                 returns the wrong exit code, or its output digest or
                 oracle is wrong

With ``--trace 1`` it holds the per-layer metrics of ``spans.py`` instead,
plus ``trace.wall_s`` (traced) and ``trace.overhead_s`` (traced wall_s
minus untraced wall_s, both measured in the same process).

``correct`` is false when a job finished with a wrong exit code, output or
oracle verdict; a job that raises counts in ``failed`` only.  The script
exits with 2, printing no result, when ``./src/hallalg`` is missing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)
from worker import REFERENCE_S  # noqa: E402
from workloads import PARTS, WORKLOADS  # noqa: E402

SETUP_SPAWNS = 9          # set-up-only processes besides the measured one
DEADLINE_S = 170          # one workload's command stays under three minutes


class WorkerError(RuntimeError):
    pass


def spawn(args, env, deadline):
    """Start a worker; return (seconds until it printed 'ready', its last
    output line)."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = perf_counter() - t0
        if line.strip() != "ready":
            raise WorkerError(f"worker did not start: {line.strip()!r}")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
        if proc.returncode != 0:
            raise WorkerError(f"worker exited with {proc.returncode}")
        lines = rest.strip().splitlines()
        return setup, (lines[-1] if lines else "")
    except subprocess.TimeoutExpired:
        raise WorkerError("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def measure(workload, seed, seconds, trace, env, deadline):
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    setup_only = base + ["--setup-only"]
    setups = []

    def timed_spawn(args):
        setup, line = spawn(args, env, deadline)
        setups.append((setup, json.loads(line)["setup_reference_s"]))
        return line

    # set-up-only processes before and after the measured one, so that the
    # median does not rest on one phase of the machine's speed
    spawns = 0 if trace else SETUP_SPAWNS
    for _ in range(spawns // 2):
        timed_spawn(setup_only)
    result = json.loads(timed_spawn(base))
    for _ in range(spawns - spawns // 2):
        timed_spawn(setup_only)
    result["setup_samples"] = setups
    return result


def report(result, trace):
    """Print the per-job table; return (metrics, attempted, failed, wrong)."""
    phases = [("untraced", result["untraced"])]
    if trace:
        phases.append(("traced", result["traced"]))
    attempted = failed = wrong = 0
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"complete passes {result['passes']}  "
          f"caches cleared per job {result['cache_count']}")
    for label, phase in phases:
        print(f"  {label}: {'job':30s} {'median_s':>9s} {'n':>3s} "
              f"{'min_s':>8s} {'max_s':>8s} {'median_ref':>10s}  status")
        for j in phase["jobs"]:
            status = ("ok" if not (j["errors"] or j["wrong"]) else
                      f"errors {j['errors']} wrong {j['wrong']}")
            print(f"  {' ' * len(label)}  {j['name']:30s} {j['median_s']:9.4f} "
                  f"{j['n']:3d} {j['min_s']:8.4f} {j['max_s']:8.4f} "
                  f"{j['median_ref']:10.2f}  {status}")
        for m in phase["messages"]:
            print(f"  failure: {m}")
        attempted += phase["attempted"]
        failed += phase["errors"] + phase["wrong"]
        wrong += phase["wrong"]
    if trace:
        layers = dict(result["layers"])
        layers["trace.wall_s"] = result["traced"]["wall_s"]
        layers["trace.overhead_s"] = (result["traced"]["wall_s"]
                                      - result["untraced"]["wall_s"])
        metrics = {k: {"value": v, "unit": _unit(k)}
                   for k, v in sorted(layers.items())}
        print(f"  traced passes {result['traced_passes']}  largest fiber "
              f"products {result['fiber_sizes']}")
        for name, reason in sorted(result["absent"].items()):
            print(f"  absent span {name}: {reason}")
    else:
        u = result["untraced"]
        metrics = {
            "wall_ref": {"value": u["wall_ref"], "unit": "ref"},
            "setup_s": {"value": REFERENCE_S * statistics.median(
                            t / r for t, r in result["setup_samples"]),
                        "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "ok_ratio": {"value": u["ok_ratio"], "unit": "ratio"},
        }
    for k, m in metrics.items():
        print(f"  {k:40s} {m['value']:14.6f} {m['unit']}")
    if not trace:
        print(f"  wall_s {result['untraced']['wall_s']:.4f} s (sum of the "
              f"jobs' median times)")
        plain = statistics.median(t for t, r in result["setup_samples"])
        print(f"  plain set-up time {plain:.4f} s (median)")
        print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    return metrics, attempted, failed, wrong


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="hallalg benchmark: end-to-end and per-layer metrics")
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + PARTS[:2] + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hallalg", "__init__.py")):
        print("error: ./src/hallalg not found; run from the root of a "
              "hallalg checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
    names = PARTS if args.workload == "all" else (args.workload,)
    all_metrics = {}
    attempted = failed = wrong = 0
    try:
        for name in names:
            result = measure(name, args.seed, args.seconds, args.trace, env,
                             perf_counter() + DEADLINE_S)
            metrics, a, f, w = report(result, args.trace)
            attempted, failed, wrong = attempted + a, failed + f, wrong + w
            prefix = "" if len(names) == 1 else name + "."
            all_metrics.update({prefix + k: v for k, v in metrics.items()})
    except (WorkerError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
