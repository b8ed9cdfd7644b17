import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hallalg.cli import run


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
]


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


def test_usage_errors_exit_2_without_asserts(tmp_path):
    # the checks must not be bare asserts, which `python -O` strips
    path = tmp_path / "x.json"
    path.write_text(json.dumps(BAD_CAYLEY))
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for argv in (BAD_INPUTS[0], ["hecke-table", "--G", f"file:{path}",
                                 "--H", "trivial"]):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "hallalg.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.startswith("error: "), proc.stderr


def test_hecke_budget_refused_before_enumeration(capsys):
    # |S5|^3 objects at level 3: refused before any level is built
    code = run(["segal-check", "--construction", "hecke", "--G", "sym:5",
                "--H", "sym:4"])
    assert code == 2
    err = capsys.readouterr().err
    assert "X_3(sym:5,sym:4)" in err and "1728000" in err


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
