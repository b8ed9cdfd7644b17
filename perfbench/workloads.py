"""The fixed job lists of the workloads, each job with its check.

A CLI job is one in-process ``hallalg.cli.run(argv)`` call.  It is correct
when it returns the recorded exit code and prints JSON whose sha256 matches
the digest recorded at the seed commit (the bytes ``--out`` would write).
An API job calls the library directly and is correct when its oracle
agrees.  Every job builds its own groups and instances, so no repetition
reuses the work of another.

Each job also carries ``reps``, how many times one 60-second run executes
it; ``worker.schedule`` scales the counts to other run lengths.  The counts
are fixed, so the number of executions, and of failed ones, is the same in
every run.  The inputs are fixed too; the run's seed only shuffles the order
of the jobs in the passes after the first.
"""

import contextlib
import hashlib
import io

# The digests below were recorded at the seed commit under PYTHONHASHSEED=0;
# they are the same under other hash seeds (see test_perfbench.py).
EMPTY = hashlib.sha256(b"").hexdigest()


class CliJob:
    """One ``hallalg.cli.run`` call with its expected exit code and the
    sha256 of its JSON output."""

    def __init__(self, name, argv, exit_code, digest, reps=1):
        self.name = name
        self.argv = argv.split()
        self.exit_code = exit_code
        self.digest = digest
        self.reps = reps

    def execute(self):
        import hallalg.cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = hallalg.cli.run(self.argv)
            except SystemExit as exc:        # argparse rejects the argv
                code = exc.code
        return code, out.getvalue()

    def check(self, result):
        code, text = result
        digest = hashlib.sha256(text.encode()).hexdigest()
        if code != self.exit_code:
            return f"exit code {code}, expected {self.exit_code}"
        if digest != self.digest:
            return f"output sha256 {digest[:16]}.., expected {self.digest[:16]}.."
        return None


class ApiJob:
    """A library call whose result an oracle checks."""

    def __init__(self, name, execute, check, reps=1):
        self.name = name
        self.execute = execute
        self.check = check
        self.reps = reps


def _mutation_corpus():
    from hallalg.groups import symmetric_group, symmetric_subgroup
    from hallalg.waldhausen import (check_2segal_degree3, check_pointed,
                                    hecke_waldhausen)
    from hallalg.waldhausen.segal import mutation_corpus
    S3 = symmetric_group(3)
    x = hecke_waldhausen(S3, symmetric_subgroup(S3, 2), depth=3)
    out = []
    for name, mutated, kind in mutation_corpus(x):
        check = check_2segal_degree3 if kind == "segal" else check_pointed
        out.append((name, check(mutated)))
    return out


def _check_mutation_corpus(verdicts):
    if len(verdicts) < 5:
        return f"corpus has {len(verdicts)} entries, expected at least 5"
    for name, verdict in verdicts:
        if verdict.ok:
            return f"mutation {name} passed its check"
        if not verdict.witnesses:
            return f"mutation {name} failed without a witness"
    return None


def _span_route():
    from hallalg.groups import named_group
    from hallalg.hall import (hall_constants, hall_product,
                              hall_product_via_span)
    from hallalg.protoab import F1FreeG
    from hallalg.waldhausen import s_construction
    inst = F1FreeG(named_group("cyclic:3"), 2)
    table = hall_constants(inst)
    x = s_construction(inst, depth=2)
    pairs = []
    for a in table.basis:
        for b in table.basis:
            if inst.size_of(a) + inst.size_of(b) > 2:
                continue
            pairs.append(((a, b), hall_product(table, {a: 1}, {b: 1}),
                          hall_product_via_span(inst, 2, {a: 1}, {b: 1},
                                                simplicial=x)))
    return pairs


def _check_span_route(pairs):
    if not pairs:
        return "no pairs compared"
    for key, by_count, by_span in pairs:
        if by_count != by_span:
            return f"span route differs at {key}: {by_span} != {by_count}"
    return None


def workload_jobs(name):
    """Fresh job objects of the named workload, in canonical order."""
    return [job for part in _PARTS[name] for job in _JOBS[part]()]


def _segal():
    return [
        CliJob("hw-s3-s2", "segal-check --construction hecke "
               "--G sym:3 --H sym:2", 0,
               "9fc545635fbace465cce3f6725a9d91875adb7418b5437dd6802db31b4c75178",
               reps=3),
        ApiJob("mutation-corpus-hw-s3-s2", _mutation_corpus,
               _check_mutation_corpus, reps=3),
        CliJob("hw-s4-s2", "segal-check --construction hecke "
               "--G sym:4 --H sym:2", 0,
               "bf649041f6bfaf6cf376f23a277d993e5f1e263b3244c9541bda4d6e01ae40f2"),
        CliJob("s-vect-f2-2", "segal-check --construction s "
               "--family vect-fq --q 2 --bound 2", 0,
               "9884964592937708800681889179db156a18a53d4a985b0a74f2e8b12972a5cd"),
        CliJob("s-f1-trivial-2", "segal-check --construction s "
               "--family f1-free --G trivial --bound 2", 0,
               "d329341df1b5a5ff117aadf657df486a1b3dfe2fc78ede25d8103eb15704ac47",
               reps=3),
        CliJob("budget-probe-hw-s4-s2", "segal-check --construction hecke "
               "--G sym:4 --H sym:2 --budget 1000", 2, EMPTY),
    ]


def _pullpush():
    return [
        CliJob("hecke-s4-s3", "hecke-table --G sym:4 --H sym:3", 0,
               "f9aefe13aba9e4931552364c0b718407ae0f9bd38fa068294711e02aaeb05740",
               reps=2),
        CliJob("hecke-s4-s2", "hecke-table --G sym:4 --H sym:2", 0,
               "d17f87e38822d0e90a39f7453c6140bd768f244ed36fb67f4e8044ee6a60bc86",
               reps=2),
        CliJob("hecke-module-s4-s3-s2", "hecke-module --G sym:4 --H sym:3 "
               "--P sym:2", 0,
               "873b5aea6c26bcd7a5d0761735affd2631ca9a0a9b2ad26efff7cbc1c6b0603e",
               reps=2),
        CliJob("hall-ab-2-32", "hall-table --family ab-p-groups --p 2 "
               "--bound 32", 0,
               "2475c978d8858d185337ce0a79cd1219332ae1b853ace749c4b99a9e7054ff84"),
        CliJob("hall-vect-f2-4", "hall-table --family vect-fq --q 2 "
               "--bound 4", 0,
               "6ab268a659df8fc65244048bd9bf486a8c702fcbbacd4506426304108954eb2b",
               reps=3),
        CliJob("hall-f1-c3-6", "hall-table --family f1-free --G cyclic:3 "
               "--bound 6", 0,
               "7b83a580519eab50571cf686f29dbebaeb2f55b967cd3d7845aae84a405e2c60",
               reps=3),
        ApiJob("span-route-f1-c3-2", _span_route, _check_span_route),
        # Known defect at the seed commit: q = 4 is not prime and the
        # instance rejects it with an AssertionError instead of exit 2.
        CliJob("contract-probe-vect-f4-2", "hall-table --family vect-fq "
               "--q 4 --bound 2", 2, EMPTY, reps=3),
    ]


def _wreath():
    return [
        CliJob("char-table-c2-4", "wreath-char-table --G cyclic:2 --n 4", 0,
               "5cc15d81c6ec713c64735250d992f44439999dde8b2fc4b7402ebb4f62961446",
               reps=4),
        CliJob("char-table-c3-3", "wreath-char-table --G cyclic:3 --n 3", 0,
               "b69505aaf48713d6db8707abf598f1adeda10ab92c151a0edd20a39e51d064df",
               reps=4),
        CliJob("char-table-klein-2", "wreath-char-table --G klein --n 2", 0,
               "bf8143ded741b0ea212529966861306206f3f9c6977082d75fc1cdda2f2c32c9",
               reps=4),
        CliJob("ch-verify-c2-3", "ch-verify --G cyclic:2 --max-size 3", 0,
               "52761e59861a2247d7189618916369e9e998d0a9609a4bc404823387224621d9",
               reps=4),
        CliJob("ch-verify-c3-2", "ch-verify --G cyclic:3 --max-size 2", 0,
               "0cd31cdc26c8a2cd404443b97838d3a2af4ae476bdbd00ac44198cec5543d5b5",
               reps=4),
        CliJob("schurweyl-klein-4-3", "schurweyl --G klein --n 4 --d 3", 0,
               "e2c42d03c8402445ba44c56f8d864af8cf65b153d74b213190f0b337bee95987",
               reps=4),
    ]


_JOBS = {"segal": _segal, "pullpush": _pullpush, "wreath": _wreath}
# The benchmark's workloads.  ``groupoid`` is the segal and pullpush job
# lists in one process, so that a run is long enough to average over the
# speed changes of a shared machine; each part can still be run alone.
WORKLOADS = ("groupoid", "wreath")
_PARTS = {"groupoid": ("segal", "pullpush"), "segal": ("segal",),
          "pullpush": ("pullpush",), "wreath": ("wreath",)}
PARTS = tuple(_JOBS)
