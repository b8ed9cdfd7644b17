"""The benchmark's worker (`perfbench/worker.py`) starts every job cold: it
imports hallalg and hallalg.cli, collects every functools cache of the
loaded hallalg modules once (`find_caches`) and clears them all before
each job (`settle`).  A cache in a module that those imports do not load
would be missed, and later samples would run warm; a `cache_clear` that
raises would stop the worker.  So a fresh interpreter, as the worker
starts, must find every cache that the source declares, and settling must
drop the character tables that a job leaves.  worker.py and workloads.py
are only read here, never changed."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hallalg"
PERFBENCH = ROOT / "perfbench"

SCRIPT = """
import importlib.util, json, sys

import hallalg
import hallalg.cli


def load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, sys.argv[1] + "/" + name + ".py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


worker, workloads = load("worker"), load("workloads")
caches = worker.find_caches()
found = sorted(h.__module__ + "." + h.__qualname__ for h in caches)
job, = [j for j in workloads.workload_jobs("wreath")
        if j.name == "char-table-c2-4"]
wrong = job.check(job.execute())

from hallalg.groups import cyclic_group
from hallalg.wreath import chmap
G = cyclic_group(3)                     # held, so its tables stay alive
chmap.character_table(G, 2)
before = len(chmap._memo_holders)
worker.settle(caches)
print(json.dumps({"found": found, "wrong": wrong, "before": before,
                  "after": len(chmap._memo_holders),
                  "memo": sorted(G.memo)}))
"""


def _is_cache(decorator):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = getattr(decorator, "id", getattr(decorator, "attr", None))
    return name in ("cache", "lru_cache")


def declared_caches():
    """module.qualname of every functools cache at the top level of a
    module or class in src/hallalg, and of every function given a
    `cache_clear` there."""
    out = set()
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        body = ast.parse(path.read_text(), filename=str(path)).body
        scopes = [("", body)] + [(f"{node.name}.", node.body) for node in body
                                 if isinstance(node, ast.ClassDef)]
        for prefix, nodes in scopes:
            for node in nodes:
                if (isinstance(node, ast.FunctionDef)
                        and any(map(_is_cache, node.decorator_list))):
                    out.add(f"{module}.{prefix}{node.name}")
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        if (isinstance(target, ast.Attribute)
                                and target.attr == "cache_clear"
                                and isinstance(target.value, ast.Name)):
                            out.add(f"{module}.{prefix}{target.value.id}")
    return out


def test_a_fresh_worker_finds_and_clears_every_cache():
    declared = declared_caches()    # 11 when this test was written
    # the scan sees both kinds
    assert {"hallalg.exactmath.partitions.partitions_of",
            "hallalg.wreath.chmap.character_table"} <= declared
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(PERFBENCH)],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    got = json.loads(proc.stdout.splitlines()[-1])
    assert declared <= set(got["found"]), declared - set(got["found"])
    assert got["wrong"] is None
    assert got["before"] >= 1
    assert (got["after"], got["memo"]) == (0, [])
