import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from hallalg import cli
from hallalg.cli import run
from hallalg.waldhausen import segal

ROOT = Path(__file__).resolve().parents[1]


def _load_workloads():
    """perfbench/workloads.py, read only: its CLI jobs carry the recorded
    exit codes and output digests."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {job.name: job for workload in module.WORKLOADS
            for job in module.workload_jobs(workload)}


JOBS = _load_workloads()


@pytest.fixture(autouse=True, scope="module")
def _json_output_is_json_dumps():
    """Every JSON document that a test here prints is also compared with
    json.dumps(data, indent=2), the text that `_json_text` writes."""
    write = cli._json_text

    def checked(o, *inner):
        text = write(o, *inner)
        if not inner:
            assert text == json.dumps(o, indent=2)
        return text

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_json_text", checked)
        yield


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_hall_table_binomial(capsys):
    code, out = run_capture(capsys, [
        "hall-table", "--family", "f1-free", "--G", "cyclic:2",
        "--bound", "4"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert {"N": "1", "L": "1", "M": "2", "g": 2} in data["constants"]


def test_byte_stable_reruns(capsys):
    argv = ["schurweyl", "--G", "cyclic:2", "--n", "2", "--d", "1"]
    code1, out1 = run_capture(capsys, argv)
    code2, out2 = run_capture(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_seed_accepted_and_ignored(capsys):
    a = run_capture(capsys, ["schurweyl", "--G", "cyclic:2", "--n", "1",
                             "--d", "1", "--seed", "5"])
    b = run_capture(capsys, ["schurweyl", "--G", "cyclic:2", "--n", "1",
                             "--d", "1", "--seed", "99"])
    assert a == b


def test_segal_check_exit_code_matches_pass(capsys):
    code, out = run_capture(capsys, [
        "segal-check", "--construction", "hecke", "--G", "sym:3",
        "--H", "sym:2"])
    data = json.loads(out)
    assert code == (0 if data["pass"] else 1)
    assert data["pass"] is True


def test_segal_check_s_construction(capsys):
    code, out = run_capture(capsys, [
        "segal-check", "--construction", "s", "--family", "f1-free",
        "--G", "trivial", "--bound", "2"])
    assert code == 0
    assert json.loads(out)["pass"] is True


BAD_CAYLEY = {"order": 3, "table": [[0, 1, 2], [1, 0, 0], [2, 0, 0]]}

# outside input that the instances and groups reject
BAD_INPUTS = [
    ["hall-table", "--family", "vect-fq", "--q", "4", "--bound", "2"],
    ["hall-table", "--family", "vect-fq", "--q", "2", "--bound", "7"],
    ["hall-table", "--family", "ab-p-groups", "--p", "4", "--bound", "16"],
    ["hall-table", "--family", "ab-p-groups", "--p", "2", "--bound", "128"],
    ["hall-table", "--family", "ab-p-groups", "--p", "2", "--bound", "0"],
    ["hall-table", "--family", "f1-free", "--G", "trivial", "--bound", "-1"],
    ["wreath-char-table", "--G", "cyclic:2", "--n", "-1"],
    ["ch-verify", "--G", "cyclic:2", "--max-size", "-1"],
    ["schurweyl", "--G", "cyclic:2", "--n", "-1", "--d", "1"],
    ["schurweyl", "--G", "cyclic:2", "--n", "1", "--d", "-1"],
    # orders and label counts far over their budgets
    ["wreath-char-table", "--G", "cyclic:2", "--n", "1500"],
    ["wreath-char-table", "--G", "cyclic:2", "--n", "100000"],
    ["schurweyl", "--G", "cyclic:2", "--n", "100000", "--d", "3"],
]


@pytest.mark.parametrize("argv", [
    "wreath-char-table --G alt:9 --n 1",
    "hecke-table --G alt:9 --H alt:9",
    "segal-check --construction hecke --G alt:12 --H alt:12"])
def test_alt_n_over_8_is_refused_before_any_permutation(capsys, monkeypatch,
                                                       argv):
    # the cap of sym:n: alt:12 would list 479,001,600 permutations first
    import hallalg.groups as groups

    def not_reached(n):
        raise AssertionError("alt:n must be refused first")

    monkeypatch.setattr(groups, "all_perms", not_reached)
    t0 = perf_counter()
    assert run(argv.split()) == 2
    assert perf_counter() - t0 < 0.5
    captured = capsys.readouterr()
    n = argv.split()[argv.split().index("--G") + 1]
    assert captured.out == "" and captured.err == f"error: {n} is too large\n"


def test_usage_errors_exit_2(capsys, tmp_path):
    code = run(["segal-check", "--construction", "hecke"])
    assert code == 2
    code = run(["hall-table", "--family", "vect-fq", "--bound", "2"])
    assert code == 2
    for argv in BAD_INPUTS:
        assert run(argv) == 2, argv
    path = tmp_path / "x.json"
    path.write_text(json.dumps(BAD_CAYLEY))
    code = run(["hecke-table", "--G", f"file:{path}", "--H", "trivial"])
    assert code == 2
    assert capsys.readouterr().out == ""
    # budget errors
    code = run(["wreath-char-table", "--G", "cyclic:5", "--n", "5"])
    assert code == 2
    code = run(["schurweyl", "--G", "cyclic:2", "--n", "1", "--d", "1",
                "--budget", "0"])
    assert code == 2
    # nonabelian G for the duality layer
    code = run(["schurweyl", "--G", "sym:3", "--n", "1", "--d", "1"])
    assert code == 2


def non_associative_z600(tmp_path):
    """Z/600 with t[200][300] and t[200][150] swapped, as a Cayley JSON
    file: its identity and inverses survive, and a sample of triples misses
    the few where associativity fails."""
    table = [[(a + b) % 600 for b in range(600)] for a in range(600)]
    table[200][300], table[200][150] = table[200][150], table[200][300]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"order": 600, "table": table}))
    return path


# commands on a Cayley table that a sampled associativity check accepted:
# hall-table printed a table and wreath-char-table raised an IndexError
NON_ASSOCIATIVE_RUNS = ["hall-table --family f1-free --G {} --bound 1",
                        "wreath-char-table --G {} --n 1 --budget 1000",
                        "hecke-table --G {} --H trivial"]


@pytest.mark.parametrize("argv", NON_ASSOCIATIVE_RUNS)
def test_a_non_associative_table_of_order_600_exits_2(capsys, tmp_path,
                                                      argv):
    path = non_associative_z600(tmp_path)
    assert run(argv.format(f"file:{path}").split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "associativity fails at" in captured.err


def test_usage_errors_exit_2_without_asserts(tmp_path):
    # the checks must not be bare asserts, which `python -O` strips
    path = tmp_path / "x.json"
    path.write_text(json.dumps(BAD_CAYLEY))
    bad600 = non_associative_z600(tmp_path)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for argv in (BAD_INPUTS[0], ["hecke-table", "--G", f"file:{path}",
                                 "--H", "trivial"],
                 *(cmd.format(f"file:{bad600}").split()
                   for cmd in NON_ASSOCIATIVE_RUNS)):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "hallalg.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.startswith("error: "), proc.stderr


@pytest.mark.parametrize("job", ["hw-s4-s2", "s-vect-f2-2", "char-table-c3-3",
                                 "ch-verify-c2-3"])
def test_cli_job_under_python_O_matches_the_recorded_digest(job):
    # no certification step is an assert that `python -O` would strip
    job = JOBS[job]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "hallalg.cli", *job.argv],
        capture_output=True, env=env, timeout=120)
    assert proc.returncode == job.exit_code, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == job.digest


@pytest.mark.parametrize("argv, job", [
    (JOBS[name].argv, name)
    for name in ("hw-s3-s2", "hw-s4-s2", "s-vect-f2-2", "s-f1-trivial-2")] + [
    # the run label names only the family, so S(F1[C3], 2) prints the
    # bytes of S(F1[trivial], 2)
    ("segal-check --construction s --family f1-free --G cyclic:3 "
     "--bound 2".split(), "s-f1-trivial-2")],
    ids=["hw-s3-s2", "hw-s4-s2", "s-vect-f2-2", "s-f1-trivial-2",
         "s-f1-c3-2"])
def test_segal_check_decides_every_square_on_tables(capsys, monkeypatch,
                                                     argv, job):
    # no square materialises a fiber product or runs is_equivalence
    import hallalg.groupoid as groupoid
    import hallalg.groupoid.fiber as fiber
    import hallalg.groupoid.functors as functors

    def not_reached(*args, **kwargs):
        raise AssertionError("a square left the index tables")

    for module in (groupoid, fiber, functors, segal):
        for name in ("FiberProductGroupoid", "is_equivalence"):
            monkeypatch.setattr(module, name, not_reached, raising=False)
    job = JOBS[job]
    code, out = run_capture(capsys, argv)
    assert code == job.exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == job.digest


@pytest.mark.parametrize("spec", ["cyclic:0", "cyclic:-3", "dihedral:0",
                                  "sym:-1", "alt:-1"])
def test_non_positive_group_sizes_are_usage_errors(capsys, spec):
    assert run(["hecke-table", "--G", spec, "--H", "trivial"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "the size must be at least" in captured.err


def test_hecke_budget_refused_before_enumeration(capsys, monkeypatch):
    # [S5:1]^4 objects at level 3: refused before any level is built
    import hallalg.waldhausen.hecke as hecke

    def not_reached(*args):
        raise AssertionError("the budget must stop the run first")

    monkeypatch.setattr(hecke, "Cosets", not_reached)
    code = run(["segal-check", "--construction", "hecke", "--G", "sym:5",
                "--H", "trivial"])
    assert code == 2
    err = capsys.readouterr().err
    assert "X_3(sym:5,trivial)" in err and "207360000" in err


@pytest.mark.parametrize("n", [5, 6])
def test_hecke_coset_levels_scale(capsys, n):
    # X_3 of (S_n, S_(n-1)) has n^4 objects
    code, out = run_capture(capsys, [
        "segal-check", "--construction", "hecke", "--G", f"sym:{n}",
        "--H", f"sym:{n - 1}"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True and data["witnesses"] == []


@pytest.mark.parametrize("command", ["hecke-table", "hecke-module"])
def test_hecke_commands_refuse_over_budget(capsys, monkeypatch, command):
    # the coset-0 block of X_2 of (S4,S3) has [S4:S3]^2 = 16 objects
    import hallalg.waldhausen.hecke as hecke
    built = []
    real = hecke.CosetLevel

    def recording(G, spaces, name):
        built.append(name)
        return real(G, spaces, name)

    monkeypatch.setattr(hecke, "CosetLevel", recording)
    argv = [command, "--G", "sym:4", "--H", "sym:3", "--budget", "15"]
    if command == "hecke-module":
        argv += ["--P", "sym:2"]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert ("the coset-0 block of the Hecke algebra level X_2(sym:4,sym:3) "
            "has 16 objects, over the budget of 15") in captured.err
    assert built == []
    # at the count itself every level is built and the command passes
    argv[argv.index("15")] = "16"
    code = run(argv)
    assert code == 0 and json.loads(capsys.readouterr().out)["pass"] is True
    # X_1 and the regular module's Y_0 and Y_1; the module adds its own two
    assert len(built) == (3 if command == "hecke-table" else 5)


def test_s_construction_budget_refused_before_checks(capsys, monkeypatch):
    import hallalg.waldhausen.simplicial as simplicial

    def not_reached(x):
        raise AssertionError("the budget must stop the run first")

    monkeypatch.setattr(simplicial, "check_simplicial_identities",
                        not_reached)
    code = run(["segal-check", "--construction", "s", "--family", "vect-fq",
                "--q", "2", "--bound", "2", "--budget", "100"])
    assert code == 2
    err = capsys.readouterr().err
    # the closed count of level 3 is refused before any completion is built
    assert "level S_3(vect-fq): 331 triangles" in err


def test_s_construction_budget_is_the_closed_count(capsys):
    """Level 3 of S(Vect F2, 2) holds 331 triangles: a budget of 1000 prints
    the bytes of the default budget, although the entries (0,2,2,2,2,0) have
    an automorphism group of order 1296, and 300 refuses the closed count."""
    job = JOBS["s-vect-f2-2"]
    code, out = run_capture(capsys, job.argv + ["--budget", "1000"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == job.digest
    assert run(job.argv + ["--budget", "300"]) == 2
    assert "level S_3(vect-fq): 331 triangles" in capsys.readouterr().err


def test_segal_budget_refused_before_identity_checks(capsys, monkeypatch):
    import hallalg.waldhausen.simplicial as simplicial

    def not_reached(a, b):
        raise AssertionError("the budget must stop the run first")

    monkeypatch.setattr(simplicial, "composite_difference", not_reached)
    code = run(["segal-check", "--construction", "hecke", "--G", "sym:4",
                "--H", "sym:2", "--budget", "1000"])
    assert code == 2
    err = capsys.readouterr().err
    # X_3 and the degree-3 strict pullbacks have 12^4 objects each, so the
    # level refusal covers every square
    assert ("Hecke-Waldhausen level X_3(sym:4,sym:2) has 20736 objects, "
            "over the budget of 1000") in err


@pytest.mark.parametrize("name", [name for name, job in JOBS.items()
                                  if getattr(job, "argv", [""])[0]
                                  == "segal-check"])
def test_segal_jobs_never_reach_the_generic_functor_walk(name, monkeypatch):
    # G-maps are compared on their tables, keys and group generators
    from hallalg.groupoid import Groupoid, functors

    def not_reached(*args):
        raise AssertionError("the generic functor walk is reached")

    monkeypatch.setattr(Groupoid, "generating_morphisms", not_reached)
    original = functors.functors_equal
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] == "hallalg" and getattr(
                module, "functors_equal", None) is original:
            monkeypatch.setattr(module, "functors_equal", not_reached)
    job = JOBS[name]
    assert job.check(job.execute()) is None


def test_segal_budget_raises_the_level_bound(capsys, monkeypatch):
    # --budget reaches the levels unchanged, with no floor under it
    import hallalg.waldhausen.hecke as hecke
    seen = []
    real = hecke.HeckeWaldhausen

    def recording(G, H, depth, budget):
        seen.append(budget)
        return real(G, H, depth, budget)

    monkeypatch.setattr(hecke, "HeckeWaldhausen", recording)
    # HW(C16,1): X_3 and the degree-3 strict pullbacks have 16^4 = 65536
    # objects, under the default
    code, out = run_capture(capsys, [
        "segal-check", "--construction", "hecke", "--G", "cyclic:16",
        "--H", "trivial"])
    assert code == 0 and json.loads(out)["pass"] is True
    assert run(["segal-check", "--construction", "hecke", "--G", "sym:3",
                "--H", "trivial", "--budget", "10"]) == 2
    assert ("X_3(sym:3,trivial) has 1296 objects, over the budget of 10"
            in capsys.readouterr().err)
    assert seen == [10 ** 6, 10]

    # HW(S5,S2): 60^4 = 12960000 objects, refused before any level is built
    def not_reached(*args):
        raise AssertionError("the budget must stop the run first")

    monkeypatch.setattr(hecke, "Cosets", not_reached)
    assert run(["segal-check", "--construction", "hecke", "--G", "sym:5",
                "--H", "sym:2"]) == 2
    assert ("X_3(sym:5,sym:2) has 12960000 objects, over the budget of "
            "1000000") in capsys.readouterr().err


def test_hecke_levels_over_the_fibre_ceiling_exit_2(capsys, monkeypatch):
    # HW(S6,1) at --budget 10^12: X_3 has 720^4 objects, under the budget
    # but over the ceiling of 2^30 top-level objects, which bounds the
    # blocks the checks read whatever the budget; refused before any level
    # is built
    import hallalg.waldhausen.hecke as hecke

    def not_reached(*args):
        raise AssertionError("the ceiling must stop the run first")

    monkeypatch.setattr(hecke, "Cosets", not_reached)
    t0 = perf_counter()
    assert run(["segal-check", "--construction", "hecke", "--G", "sym:6",
                "--H", "trivial", "--budget", str(10 ** 12)]) == 2
    assert perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: Hecke-Waldhausen level X_3(sym:6,trivial) has 268738560000 "
        "objects, over the ceiling of 1073741824 that no budget lifts\n")


def test_the_fibre_ceiling_admits_hw_s5(monkeypatch):
    # HW(S5,S2) at --budget 10^10 (60^4 objects, counted on a block of
    # 60^3) and HW(S5,1) at --budget 10^11 (120^4 objects, a block of
    # 120^3) go on to build their levels; HW(S5,1) was refused while its
    # face tables (6.6 GB) were written
    import hallalg.waldhausen.hecke as hecke
    from hallalg.groups import symmetric_group, symmetric_subgroup

    class Built(Exception):
        pass

    def building(*args):
        raise Built

    monkeypatch.setattr(hecke, "Cosets", building)
    S5 = symmetric_group(5)
    for k, budget in ((2, 10 ** 10), (1, 10 ** 11)):
        with pytest.raises(Built):
            hecke.HeckeWaldhausen(S5, symmetric_subgroup(S5, k), 3, budget)


def test_hw_s5_s2_at_a_budget_of_1e10_runs_in_under_1_5_s():
    # X_3 has 60^4 = 12,960,000 objects; every square and identity reads
    # the 216,000 of its coset-0 block, in a fresh process
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "hallalg.cli", "segal-check", "--construction",
         "hecke", "--G", "sym:5", "--H", "sym:2", "--budget", str(10 ** 10)],
        capture_output=True, env=env, timeout=120)
    elapsed = perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "555bf07d404293746208f45774e58329873a0738b530dbde806e89f3c7cd4257")
    assert elapsed < 1.5


def test_the_fibre_ceiling_is_inclusive(capsys, monkeypatch):
    # HW(S3,S2): X_3 has 81 objects, one byte each in the fibre count
    import hallalg.waldhausen.hecke as hecke
    argv = ["segal-check", "--construction", "hecke", "--G", "sym:3",
            "--H", "sym:2"]
    monkeypatch.setattr(hecke, "MAX_FIBRE_BYTES", 81)
    assert run(argv) == 0
    monkeypatch.setattr(hecke, "MAX_FIBRE_BYTES", 80)
    capsys.readouterr()
    assert run(argv) == 2
    assert "has 81 objects, over the ceiling of 80" in (
        capsys.readouterr().err)


def test_the_cli_imports_no_dataclasses():
    # plain classes keep dataclasses, and with it inspect, ast, dis and
    # tokenize, out of every CLI process; the Hall polynomials are loaded
    # only by the first ab-p-groups Hall constant, although the
    # Littlewood-Richardson walk shares their horizontal strips
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hallalg, hallalg.cli; print("
         "sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', "
         "'hallalg.exactmath.halllittlewood'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# sha256 of `segal-check --construction hecke` on inputs that were refused
# at the default budget while the squares counted a fiber product that
# no check builds; recorded with --budget 100000000 before the squares
# were budgeted by their strict pullbacks, and printed now at the default
HECKE_SEGAL_DIGESTS = {
    ("sym:4", "trivial"):
        "23484fa24e15c410bfd75cae0ce62d3284cb38e6426e147d196ada5602c31430",
    ("sym:5", "sym:3"):
        "c692c3b58b6ba21c48ebeecad7831aca5de59ad9ed3b22bec5c2e2ab893d0c78",
    ("cyclic:16", "trivial"):
        "67998a7f6e2704d16ec000daf0fc06d9312b1c4643d7eccd04964f6e25f85948",
}


@pytest.mark.parametrize("G,H", list(HECKE_SEGAL_DIGESTS))
def test_segal_check_passes_at_the_default_budget(capsys, G, H):
    code, out = run_capture(capsys, [
        "segal-check", "--construction", "hecke", "--G", G, "--H", H])
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == HECKE_SEGAL_DIGESTS[G, H]


# exit code and sha256 of `segal-check --construction s --family f1-free
# --bound 2` on larger groups, recorded while every N-orbit of the degree-3
# squares was walked; the run label names only the family, so both print
# the bytes of S(F1[trivial], 2)
S_SEGAL_DIGESTS = {
    "cyclic:3": (0, "d329341df1b5a5ff117aadf657df486a"
                    "1b3dfe2fc78ede25d8103eb15704ac47"),
    "klein": (0, "d329341df1b5a5ff117aadf657df486a"
                 "1b3dfe2fc78ede25d8103eb15704ac47"),
}


@pytest.mark.parametrize("G", list(S_SEGAL_DIGESTS))
def test_s_construction_segal_check_bytes(capsys, G):
    code, out = run_capture(capsys, [
        "segal-check", "--construction", "s", "--family", "f1-free", "--G",
        G, "--bound", "2"])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
        S_SEGAL_DIGESTS[G])


def test_hecke_oracle_disagreement_fails(capsys, monkeypatch):
    from hallalg.waldhausen.hecke import HeckeAlgebra
    original = HeckeAlgebra.convolution_constants

    def skewed(self):
        table = original(self)
        table[(0, 0)] = {0: 99}
        return table

    monkeypatch.setattr(HeckeAlgebra, "convolution_constants", skewed)
    code, out = run_capture(capsys, [
        "hecke-table", "--G", "sym:3", "--H", "sym:2"])
    assert code == 1
    data = json.loads(out)
    assert data["oracle_agrees"] is False and data["pass"] is False


def test_a_failing_hall_verdict_prints_its_counterexample(capsys,
                                                         monkeypatch):
    # the classes of ab-p-groups are tuples, so the witness is keyed by
    # their strings
    from hallalg.protoab import AbelianPGroups
    real = AbelianPGroups.hall_constant

    def raised(self, n, l, m):
        bump = 1 if (n, l, m) == ((1,), (2,), (3,)) else 0
        return real(self, n, l, m) + bump

    monkeypatch.setattr(AbelianPGroups, "hall_constant", raised)
    code, out = run_capture(capsys, [
        "hall-table", "--family", "ab-p-groups", "--p", "2", "--bound", "8"])
    assert code == 1
    data = json.loads(out)
    assert data["pass"] is False
    assert set(data["counterexample"]) == {"triple", "lhs", "rhs"}
    # the first failing triple in row order: g^(3)_{(1),(2)}, raised from
    # 1 to 2, breaks ([1][1])[1] = [1]([1][1]) at the coefficient of (3)
    assert data["counterexample"] == {
        "triple": ["(1,)", "(1,)", "(1,)"],
        "lhs": {"(1, 1, 1)": 21, "(2, 1)": 5, "(3,)": 1},
        "rhs": {"(1, 1, 1)": 21, "(2, 1)": 5, "(3,)": 2}}


def test_hall_budget_refused_before_any_constant(capsys, monkeypatch):
    # 30 classes of abelian 2-groups up to order 64, and 1110 triples
    # (N, L, M) with size N + size L = size M, one hall_constant each
    from hallalg.protoab import AbelianPGroups
    real, calls = AbelianPGroups.hall_constant, None

    def counting(self, n, l, m):
        if calls is None:
            raise AssertionError("the budget must stop the run first")
        calls.append((n, l, m))
        return real(self, n, l, m)

    monkeypatch.setattr(AbelianPGroups, "hall_constant", counting)
    argv = ["hall-table", "--family", "ab-p-groups", "--p", "2",
            "--bound", "64", "--budget"]
    for budget in ("1", "1109"):
        code = run(argv + [budget])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert (f"1110 basis triples, over the budget of {budget}"
                in captured.err)
    # at the count itself the table is built, one constant per triple
    calls = []
    code, out = run_capture(capsys, argv + ["1110"])
    assert code == 0 and json.loads(out)["pass"] is True
    assert len(calls) == len(set(calls)) == 1110


def test_unwritable_out_is_a_usage_error(capsys, tmp_path):
    code = run(["hall-table", "--family", "vect-fq", "--q", "2",
                "--bound", "2", "--out", str(tmp_path / "no" / "x.json")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: cannot write --out ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    "segal-check --construction hecke --G sym:4 --H sym:2",
    "hecke-table --G sym:4 --H sym:3",
    "segal-check --construction hecke --G sym:4 --H indices:0,6",
    "hecke-table --G sym:4 --H indices:0,2,6,8,12,14"])
def test_the_subgroup_is_checked_once(capsys, monkeypatch, argv):
    # named_subgroup checks an indices: spec, which is outside input, and
    # takes sym:k as a subgroup by construction; the levels, the algebra
    # and its regular module take that verdict instead of scanning |H|^2
    # pairs again
    from hallalg.groups import FiniteGroup, named_group, named_subgroup
    argv = argv.split()
    H = frozenset(named_subgroup(named_group("sym:4"),
                                 argv[argv.index("--H") + 1]).elements)
    checked = []
    real = FiniteGroup.is_subgroup

    def recording(self, elems):
        checked.append(frozenset(elems))
        return real(self, elems)

    monkeypatch.setattr(FiniteGroup, "is_subgroup", recording)
    assert run(argv) == 0
    capsys.readouterr()
    assert checked.count(H) == ("indices:" in argv[-1])


@pytest.mark.parametrize("argv,message", [
    ("hecke-table --G sym:3 --H indices:99",
     "bad subgroup spec 'indices:99': index 99 is not in 0..5"),
    ("hecke-table --G sym:3 --H indices:-1",
     "bad subgroup spec 'indices:-1': index -1 is not in 0..5"),
    ("hecke-table --G sym:3 --H indices:0,-5",
     "bad subgroup spec 'indices:0,-5': index -5 is not in 0..5"),
    ("hecke-table --G sym:3 --H indices:a",
     "bad subgroup spec 'indices:a': 'a' is not an integer"),
    ("hecke-table --G sym:3 --H sym:x",
     "bad subgroup spec 'sym:x': 'x' is not an integer"),
    ("hecke-table --G sym:3 --H young:1+x",
     "bad subgroup spec 'young:1+x': 'x' is not an integer"),
    ("hecke-table --G sym:3 --H young:4+-1",
     "young blocks [4, -1] are not a composition of 3"),
    ("schurweyl --G cyclic:2 --n 0 --d 0",
     "--d must be at least 1, the number of variables"),
    ("schurweyl --G cyclic:2 --n 2 --d 0",
     "--d must be at least 1, the number of variables"),
])
def test_malformed_specs_and_no_variables_exit_2(capsys, argv, message):
    # a subgroup spec that names no subgroup of G and --d 0 are usage
    # errors, not internal ones
    code = run(argv.split())
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_internal_error_exits_3(capsys, monkeypatch):
    # a table value that makes an induction multiplicity non-integral
    import hallalg.wreath.chmap as chmap

    def halved(G, n, budget):
        tab = chmap.WreathCharacterTable(G, n, budget)
        tab.values[0] = [tuple(Fraction(x, 2) for x in v)
                         for v in tab.values[0]]
        return tab

    monkeypatch.setattr(chmap, "character_table", halved)
    code = run(["ch-verify", "--G", "cyclic:2", "--max-size", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("internal error: ArithmeticError: multiplicity "
                            "of {0:[], 1:[]} in the induction product is "
                            "not in N: 1/8\n")


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        run(["schurweyl", "--G", "cyclic:2", "--n", "1", "--d", "1",
             "--bogus", "1"])
    assert exc.value.code == 2


def test_wreath_char_table_output(capsys):
    code, out = run_capture(capsys, [
        "wreath-char-table", "--G", "cyclic:2", "--n", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["orthogonal"] is True
    assert len(data["irreducible_labels"]) == 5
    assert data["conductor"] == 2


def test_hecke_commands(capsys):
    code, out = run_capture(capsys, [
        "hecke-table", "--G", "sym:3", "--H", "sym:2"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] and data["extremal_faithful"]
    code, out = run_capture(capsys, [
        "hecke-module", "--G", "sym:3", "--H", "sym:2", "--P", "all"])
    assert code == 0
    assert json.loads(out)["module_axioms"] is True


def test_ch_verify(capsys):
    code, out = run_capture(capsys, [
        "ch-verify", "--G", "cyclic:2", "--max-size", "2"])
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_csv_and_text_formats(capsys, tmp_path):
    code, out = run_capture(capsys, [
        "hall-table", "--family", "vect-fq", "--q", "2", "--bound", "2",
        "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "N,L,M,g"
    path = tmp_path / "out.json"
    code = run(["schurweyl", "--G", "trivial", "--n", "2", "--d", "1",
                "--out", str(path)])
    assert code == 0
    assert json.loads(path.read_text())["pass"] is True


# sha256 of the output of each command in each format, recorded before the
# wreath tables were built from one walk per class and the induction
# products in one batch per size pair; both must leave every byte as it was
WREATH_OUTPUT_DIGESTS = {
    ("wreath-char-table --G cyclic:2 --n 2", "json"):
        "baa5d1c05f1ae7247762f8c7651fc54c327ab3c0b6ffb551810b18e83891a423",
    ("wreath-char-table --G cyclic:2 --n 2", "csv"):
        "cb2c3ed85ecb954328736743e6f21ff359fd67adec320d3ca8d97ae81bbe4e39",
    ("wreath-char-table --G cyclic:2 --n 2", "text"):
        "e5b2cb70360ca12256fda7648a78b907ea9facbbfc8771b6f33621e8a06e8657",
    ("wreath-char-table --G cyclic:2 --n 4", "json"):
        "5cc15d81c6ec713c64735250d992f44439999dde8b2fc4b7402ebb4f62961446",
    ("wreath-char-table --G cyclic:2 --n 4", "csv"):
        "522f55f9fdb371b6d66e0ac14015c0c9dabb5ec4b4254c5c9283a6b08fdc57d0",
    ("wreath-char-table --G cyclic:2 --n 4", "text"):
        "a6ec9a3d638bb3d8f2bace4017e2b438c109f1bc539bd9baccdfbf6d49a3b948",
    ("wreath-char-table --G cyclic:3 --n 3", "json"):
        "b69505aaf48713d6db8707abf598f1adeda10ab92c151a0edd20a39e51d064df",
    ("wreath-char-table --G cyclic:3 --n 3", "csv"):
        "3694472dd5e99635e25ed5d2ddd64e823d33326c8b0fb8e4843f48a9cc61f1ec",
    ("wreath-char-table --G cyclic:3 --n 3", "text"):
        "5fb092b75de6ef36aaf7ee907183adc154107acf1082835e83a25d449e829ceb",
    ("wreath-char-table --G klein --n 2", "json"):
        "bf8143ded741b0ea212529966861306206f3f9c6977082d75fc1cdda2f2c32c9",
    ("wreath-char-table --G klein --n 2", "csv"):
        "551f46f8ee30a33f41af2c118daab18b2bb6f14cc5db98e8afcecd9b2d20c3c8",
    ("wreath-char-table --G klein --n 2", "text"):
        "f8fb7f474902b11caf24c18906b1e8b1b0e4207d65e65edca92522f0041b981d",
    ("ch-verify --G cyclic:2 --max-size 2", "json"):
        "6e455b776354aadaa7ab5c7ad312218b19d99b33b0917d756bfc3ab4303b8945",
    ("ch-verify --G cyclic:2 --max-size 2", "csv"):
        "b3101d306cfa2d246c6f217b8ff29e9d90bc195bc6563583282bea765de5d9b0",
    ("ch-verify --G cyclic:2 --max-size 2", "text"):
        "17c415a0ff7ac1f12f8d0bfceca15d27a604578ae7fb7c59a1d05791f2de1836",
    ("ch-verify --G cyclic:2 --max-size 3", "json"):
        "52761e59861a2247d7189618916369e9e998d0a9609a4bc404823387224621d9",
    ("ch-verify --G cyclic:2 --max-size 3", "csv"):
        "b3101d306cfa2d246c6f217b8ff29e9d90bc195bc6563583282bea765de5d9b0",
    ("ch-verify --G cyclic:2 --max-size 3", "text"):
        "17c415a0ff7ac1f12f8d0bfceca15d27a604578ae7fb7c59a1d05791f2de1836",
    ("ch-verify --G cyclic:3 --max-size 2", "json"):
        "0cd31cdc26c8a2cd404443b97838d3a2af4ae476bdbd00ac44198cec5543d5b5",
    ("ch-verify --G cyclic:3 --max-size 2", "csv"):
        "b3101d306cfa2d246c6f217b8ff29e9d90bc195bc6563583282bea765de5d9b0",
    ("ch-verify --G cyclic:3 --max-size 2", "text"):
        "17c415a0ff7ac1f12f8d0bfceca15d27a604578ae7fb7c59a1d05791f2de1836",
    ("schurweyl --G klein --n 4 --d 3", "json"):
        "e2c42d03c8402445ba44c56f8d864af8cf65b153d74b213190f0b337bee95987",
    ("schurweyl --G klein --n 4 --d 3", "csv"):
        "c3f3b93a961bc5c9387d8676d076de7ee4a67dbd7c63f979c57974c8bf9ead9f",
    ("schurweyl --G klein --n 4 --d 3", "text"):
        "630a96160f64c39618ed5b8aba734bfaaf0e0ddfaa9546a7cf24fe770913f84c",
    ("schurweyl --G trivial --n 2 --d 1", "json"):
        "bf7b03ec444cb1356ef056487530ce09e33ecfdd1054af2df2aa621c622fb8d4",
    ("schurweyl --G trivial --n 2 --d 1", "csv"):
        "8536a3b6f9d2eec2bfd57e511bfa29c26deed966185e383bef4fb60be00775f0",
    ("schurweyl --G trivial --n 2 --d 1", "text"):
        "61ffd59e1ef35ebac6b42a96b35ed80e1a0724ddf6f36b5fed7124b42d38d690",
}


@pytest.mark.parametrize("command,fmt", list(WREATH_OUTPUT_DIGESTS))
def test_wreath_outputs_are_byte_identical(capsys, command, fmt):
    code, out = run_capture(capsys, command.split() + ["--format", fmt])
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == WREATH_OUTPUT_DIGESTS[command, fmt]


# sha256 of `hall-table --family ab-p-groups` for each (p, bound), recorded
# before the Hall polynomials were computed in integers over Z[1/p]; the
# table must print the same bytes
HALL_AB_OUTPUT_DIGESTS = {
    (2, 64): "d175b5c95b48a1a128b8326c9067e5c91f3323260165a2a3e1b40e511dff6204",
    (3, 27): "df16f12fb28a18aa867fd42d6dfd39ad1538719dab7e8cb22f7948a053ec4ebb",
    (5, 25): "7ea0c3aeed92f285898e9ed8472a2473321c1dff24150b3533e5be58f2d54a28",
    (7, 49): "0150aa38374a93532ea2986042000b3cee706b04d0a1b7c6b9cf4990a1f07f4d",
}


@pytest.mark.parametrize("p,bound", list(HALL_AB_OUTPUT_DIGESTS))
def test_hall_table_ab_p_groups_output_is_byte_identical(capsys, p, bound):
    code, out = run_capture(capsys, [
        "hall-table", "--family", "ab-p-groups", "--p", str(p),
        "--bound", str(bound)])
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == HALL_AB_OUTPUT_DIGESTS[p, bound]


# sha256 of commands on vect-fq and ab-p-groups, recorded while vect-fq
# kept its own matrices and subspaces; served by the ab-p-groups
# implementation on the types (1^d), it must print the same bytes
PROTOAB_OUTPUT_DIGESTS = {
    "hall-table --family vect-fq --q 3 --bound 4":
        "def8ba2203dc796857e144a42a9a6d7a62ab526755cf102e26ce339409bbc603",
    "hall-table --family vect-fq --q 5 --bound 4":
        "e49c8fd2a2e9d7c4bc77c82192ed2fa4762f3efe4f724d63c7cb1759b236d1d4",
    "segal-check --construction s --family ab-p-groups --p 2 --bound 4":
        "642ca6c42e4b641c7841bbb57ce3dc59e6477666e7734e71c1ef7296d3ed365d",
}


@pytest.mark.parametrize("command", list(PROTOAB_OUTPUT_DIGESTS))
def test_protoab_outputs_are_byte_identical(capsys, command):
    code, out = run_capture(capsys, command.split())
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == PROTOAB_OUTPUT_DIGESTS[command]


def test_wreath_char_table_stringifies_each_value_once(capsys, monkeypatch):
    from hallalg.wreath import chmap
    calls = []

    def counting(coeffs, real=chmap.poly_string):
        calls.append(coeffs)
        return real(coeffs)

    monkeypatch.setattr(chmap, "poly_string", counting)
    code, out = run_capture(capsys, ["wreath-char-table", "--G", "cyclic:3",
                                     "--n", "3", "--format", "csv"])
    assert code == 0
    assert len(out.splitlines()) == 1 + 22    # C3 wr S3 has 22 classes
    # each distinct value once: 21 among the 22 * 22 entries
    assert len(calls) == len(set(calls)) == 21


def test_no_package_module_holds_cyc():
    # the wreath commands keep integer vectors from the closed formula to
    # the JSON; Cyc and integer_form are test oracles, and the package
    # cannot import tests/oracles, so none of its modules can build a Cyc
    import hallalg
    modules = [importlib.import_module(info.name) for info in
               pkgutil.walk_packages(hallalg.__path__, "hallalg.")]
    assert "hallalg.wreath.chmap" in {m.__name__ for m in modules}
    assert [m.__name__ for m in [hallalg] + modules
            if hasattr(m, "Cyc") or hasattr(m, "integer_form")] == []


def test_schurweyl_labels_are_counted_before_any_is_built(capsys,
                                                          monkeypatch):
    from hallalg import schurweyl
    from oracles.exactmath import partition_maps_count

    def refused(*args):
        raise AssertionError("partition_maps ran over the budget")

    monkeypatch.setattr(schurweyl, "partition_maps", refused)
    # C6 at n = 12 has 380,051 labels, over the default of 200,000
    for group, k, n, budget in (("cyclic:6", 6, 12, None),
                                ("cyclic:2", 2, 3, 9)):
        argv = ["schurweyl", "--G", group, "--n", str(n), "--d", "2"]
        code = run(argv + ([] if budget is None
                           else ["--budget", str(budget)]))
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        budget = budget or schurweyl.DEFAULT_SCHURWEYL_BUDGET
        assert captured.err == (
            f"error: {group} wr S_{n} has {partition_maps_count(n, k)} "
            f"labels, over budget {budget}\n")
    monkeypatch.undo()
    # C2 at n = 3 has 10 labels: a budget of 10 builds the report
    assert run(["schurweyl", "--G", "cyclic:2", "--n", "3", "--d", "2",
                "--budget", "10"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    ("wreath-char-table --G cyclic:2 --n 6",
     "|cyclic:2 wr S_6| = 46080 exceeds budget 5000"),
    # |W| = 2^1500 1500! has 4,567 digits, more than str() prints
    ("wreath-char-table --G cyclic:2 --n 1500",
     "|cyclic:2 wr S_1500| = 2^1500 * 1500! exceeds budget 5000"),
    ("wreath-char-table --G cyclic:2 --n 100000",
     "|cyclic:2 wr S_100000| = 2^100000 * 100000! exceeds budget 5000"),
    # p(50) = 204,226 is the first partition number over 200,000, and the
    # labels of size n are at least p(j) for every j <= n
    ("schurweyl --G cyclic:2 --n 100000 --d 3",
     "cyclic:2 wr S_100000 has at least 204226 labels, over budget 200000"),
    ("schurweyl --G cyclic:2 --n 50 --d 3",
     "cyclic:2 wr S_50 has at least 204226 labels, over budget 200000"),
    ("schurweyl --G klein --n 49 --d 3",
     "klein wr S_49 has 273772115260 labels, over budget 200000")])
def test_budgets_refuse_huge_sizes_at_once(capsys, argv, message):
    t0 = perf_counter()
    assert run(argv.split()) == 2
    assert perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


PARSER_CORPUS = [
    # valid runs, in each output format
    "hall-table --family vect-fq --q 2 --bound 2",
    "hall-table --family f1-free --G cyclic:2 --bound 2 --format csv",
    "hecke-table --G sym:3 --H sym:2 --format text",
    "hecke-module --G sym:3 --H sym:2 --P sym:2",
    "segal-check --construction hecke --G sym:3 --H sym:2",
    "wreath-char-table --G cyclic:2 --n 2 --seed 4",
    "ch-verify --G cyclic:2 --max-size 2",
    "schurweyl --G cyclic:2 --n 2 --d 2",
    # missing and invalid options, and arguments no parser knows
    "hall-table --family vect-fq --q 2",
    "hecke-module --G sym:3 --H sym:2",
    "schurweyl --G cyclic:2 --n 2",
    "segal-check --construction t",
    "hall-table --family vect-fq --q 2 --bound two",
    "ch-verify --G cyclic:2 --format xml",
    "ch-verify --G cyclic:2 --bogus 1",
    "ch-verify --G cyclic:2 extra",
    "wreath-char-table --G cyclic:2 --n 2 --budget 0",
    "schurweyl --G cyclic:2 --n -1 --d 2",
    # help, per command and at the top, an unknown command and no argument
    *(f"{name} -h" for name in cli.COMMANDS),
    "-h", "--help", "--budget 3 ch-verify", "frobnicate --G cyclic:2", "",
]


def _run_all(argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exc:           # argparse exits on help and errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_subcommand_parser_matches_the_full_parser(capsys, monkeypatch):
    light = [_run_all(argv.split(), capsys) for argv in PARSER_CORPUS]
    monkeypatch.setattr(cli, "_parse",
                        lambda argv: cli.build_parser().parse_args(argv))
    assert [_run_all(argv.split(), capsys) for argv in PARSER_CORPUS] == light
    codes = [code for code, _, _ in light]
    assert codes[:8] == [0] * 8 and 2 in codes and 0 in codes[8:]


# -- the segal-check --construction s contract, as a property ----------------

S_INTS = [-1, 0, 1, 2, 3, 4, 10 ** 6]


@st.composite
def s_construction_argv(draw):
    """segal-check --construction s over the three families, with each
    parameter absent or drawn from boundary values, a malformed group
    spec among them."""
    argv = ["segal-check", "--construction", "s", "--family",
            draw(st.sampled_from(["vect-fq", "f1-free", "ab-p-groups"]))]
    for flag, values in (
            ("--q", S_INTS), ("--p", S_INTS),
            ("--G", ["trivial", "cyclic:2", "cyclic:3", "cyclic:x"]),
            ("--bound", [-1, 0, 1, 2, 3, 10 ** 6]),
            ("--budget", [0, 1, 300, 10 ** 4])):
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            argv += [flag, str(value)]
    return argv + ["--format", draw(st.sampled_from(["json", "csv",
                                                      "text"]))]


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=250, deadline=None)
@given(s_construction_argv())
def test_the_s_construction_keeps_the_cli_contract(argv):
    code, out, err = _run_captured(argv)
    assert code in (0, 1, 2), (argv, err)
    if code == 2:
        assert out == "" and err.endswith("\n") and err.count("\n") == 1, \
            (argv, err)
    else:
        assert _run_captured(argv) == (code, out, err), argv


# -- the wreath commands' contract, as a property ---------------------------------

W_INTS = [-1, 0, 1, 2, 3, 4, 10 ** 6]
W_GROUPS = [
    # valid, one of them not abelian and one refused for its size
    "trivial", "cyclic:1", "cyclic:2", "cyclic:3", "klein",
    "product:(cyclic:2,cyclic:2)", "sym:3", "sym:7",
    # malformed
    "", " ", "cyclic:", "cyclic:x", "cyclic:0", "cyclic:-2", "bogus:2",
    "klein:2", "product:()", "product:(cyclic:2", "file:",
    "file:" + str(ROOT / "tests" / "no-such-table.json"),
]


@st.composite
def wreath_argv(draw):
    """wreath-char-table, ch-verify or schurweyl, with a valid or malformed
    group spec, each size drawn from boundary values (--max-size also
    absent, for its default), any budget from none to large enough for
    the largest table, and each format."""
    command = draw(st.sampled_from(["wreath-char-table", "ch-verify",
                                    "schurweyl"]))
    argv = [command, "--G", draw(st.sampled_from(W_GROUPS))]
    if command == "ch-verify":
        size = draw(st.none() | st.sampled_from(W_INTS))
        if size is not None:
            argv += ["--max-size", str(size)]
    else:
        argv += ["--n", str(draw(st.sampled_from(W_INTS)))]
    if command == "schurweyl":
        argv += ["--d", str(draw(st.sampled_from([-1, 0, 1, 2, 3,
                                                   10 ** 6])))]
    budget = draw(st.none() | st.sampled_from([-1, 0, 1, 2, 50, 2000]))
    if budget is not None:
        argv += ["--budget", str(budget)]
    return argv + ["--format", draw(st.sampled_from(["json", "csv",
                                                      "text"]))]


@settings(max_examples=500, deadline=None)
@given(wreath_argv())
def test_the_wreath_commands_keep_the_cli_contract(argv):
    code, out, err = _run_captured(argv)
    assert code in (0, 1, 2), (argv, err)
    if code == 2:
        assert out == "" and err.endswith("\n") and err.count("\n") == 1, \
            (argv, err)
    elif argv[-1] == "json":
        json.loads(out)
    assert _run_captured(argv) == (code, out, err), argv


def test_a_group_with_more_classes_than_the_recursion_limit_has_labels(
        capsys):
    # the weak compositions of n into |G| parts were built one recursion
    # level per part, so a group of order 1000 or more exited 3 with a
    # RecursionError, even for n = 0 and its one label
    assert run(["schurweyl", "--G", "cyclic:1500", "--n", "0", "--d", "1",
                "--budget", "100"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [row["label"] for row in data["rows"]] == [{}]


@pytest.mark.parametrize("bound", [20000, 10 ** 6])
def test_hall_table_over_many_sizes_exits_at_once(capsys, bound):
    # F1 to rank 20000 or 10^6: every pair of ranks within the bound adds
    # a triple, so the count stops after the first 10^6 + 1 pairs (the
    # full count over every pair of sizes did not finish in 20 s)
    t0 = perf_counter()
    assert run(["hall-table", "--family", "f1-free", "--G", "trivial",
                "--bound", str(bound)]) == 2
    assert perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", (
        "error: the Hall table of f1-free has more than 1000000 basis "
        "triples, over the budget of 1000000\n"))


def test_s_construction_first_rows_over_many_pairs_exit_at_once(capsys):
    # F1 to rank 3000: its 3,001 classes fit the budget of 10^4, and the
    # count of the first rows up to A_02 stops after 10^4 + 1 pairs of
    # classes joined by a mono (the count over every pair of classes ran
    # past 10 s)
    t0 = perf_counter()
    assert run(["segal-check", "--construction", "s", "--family", "f1-free",
                "--G", "trivial", "--bound", "3000", "--budget",
                "10000"]) == 2
    assert perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", (
        "error: level S_3(f1-free): more than 10000 first rows up to A_02, "
        "over the budget of 10000 triangles\n"))


def test_s_construction_with_more_classes_than_the_budget_exits_at_once(
        capsys):
    # each class is a first row up to A_01: F1 to rank 10^6 has 10^6 + 1
    # of them, refused before the rows up to A_02 are counted over every
    # pair of classes (which did not finish)
    t0 = perf_counter()
    assert run(["segal-check", "--construction", "s", "--family", "f1-free",
                "--G", "trivial", "--bound", str(10 ** 6)]) == 2
    assert perf_counter() - t0 < 5
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", (
        "error: level S_3(f1-free): 1000001 first rows up to A_01 already "
        "exceed the budget of 200000 triangles\n"))


# -- the JSON writer ----------------------------------------------------------

JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2, 2),
    st.floats(), st.sampled_from([-0.0, 0.0, 1e300, -1e-300, float("nan"),
                                  float("inf"), float("-inf")]),
    st.text(), st.sampled_from(["\u00e9t\u00e9", "\u4e2d\U0001f600",
                                "\"\\/\b\f\n\r\t", "\x00\x1f\x7f"]))
JSON_KEYS = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.booleans(),
                      st.none(), st.floats(), st.just("\u00e9\n"))
JSON_DATA = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(JSON_KEYS, inner, max_size=4)),
    max_leaves=40)


@settings(max_examples=500, deadline=None)
@given(JSON_DATA)
def test_the_json_writer_is_json_dumps(data):
    assert cli._json_text(data) == json.dumps(data, indent=2)


def _outcome(write, data):
    try:
        return "text", write(data)
    except (TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def test_the_json_writer_follows_json_on_subclasses_and_errors():
    import enum
    from collections import OrderedDict

    class Level(enum.IntEnum):
        HIGH = 3

    class Text(str):
        pass

    class Real(float):
        pass

    class Row(list):
        pass

    circular = [1]
    circular.append(circular)
    cases = [
        Level.HIGH, Text("x\u00e9"), Real(2.5), Real("nan"), Row([1, Row()]),
        OrderedDict([(Level.HIGH, [True]), (Text("k"), {})]),
        {Real(1.5): None, 2.0: 1, float("nan"): 2, None: 3, False: 4},
        [1, {2, 3}], {"a": b"bytes"}, {(1, 2): 0}, {"a": 1, object(): 2},
        [{"ok": 1}, {frozenset(): 1}], circular, {"self": circular},
        Fraction(1, 2)]
    dumps = lambda data: json.dumps(data, indent=2)
    outcomes = [(_outcome(cli._json_text, data), _outcome(dumps, data))
                for data in cases]
    assert [got for got, want in outcomes] == [want for got, want in outcomes]
    assert [kind for (kind, _), _ in outcomes[6:]] == (
        ["text"] + ["TypeError"] * 5 + ["ValueError"] * 2 + ["TypeError"])
