"""Every demo runs to completion as a script and prints the bytes it
printed when its digest was recorded (the same under any hash seed): a
change to the library that moves a demo's output shows here."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout
STDOUT_SHA256 = {
    "01_pull_push_calculus.py":
        "ffa4596d8c524417ecf6567bf076be77f7dce998e7e1c86b5258c5c832aaf8a5",
    "02_hall_algebras.py":
        "215052e7410d065d59df0de9536dfd1498b3218491a5cec25bd09d8f32b13e93",
    "03_segal_checks.py":
        "abfbdbd144e437d28794836af43e14494dea11e6c814ab738b5f42252c2f786f",
    "04_hecke_convolution.py":
        "d80c57e2df32bc440fa90e471fad57201b31392a385bbca425e00c7ea376a626",
    "05_wreath_characters.py":
        "0072cfcc26282706ae6e6b2fb6585635d0910c964baaf0671bfae81fd5377f14",
    "06_characteristic_map.py":
        "19a5dc3afaf489e4c0a63129ebc3afdc78629db2ea38e5e3d723e1fc9d28ea35",
    "07_schur_weyl_counts.py":
        "48c8bfe27b797d39606493e03688126997db2da8eb274a92365df0ab095ba2e9",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == \
        STDOUT_SHA256[demo.name]
