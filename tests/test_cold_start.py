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


S_SCRIPT = """
import importlib.util, json, sys

import hallalg
import hallalg.cli


def load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, sys.argv[1] + "/" + name + ".py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


worker = load("worker")
caches = worker.find_caches()

from hallalg.groups import cyclic_group
from hallalg.protoab import F1FreeG, VectFq
from hallalg.waldhausen.sconstruction import s_construction


def held():
    # the size of every dict, list and set held by a module of protoab or
    # by sconstruction, or by a class defined there
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if not (name.startswith("hallalg.protoab")
                or name == "hallalg.waldhausen.sconstruction"):
            continue
        for attr, value in vars(mod).items():
            scopes = [(attr, value)]
            if isinstance(value, type) and value.__module__ == name:
                scopes = [(attr + "." + k, v) for k, v in vars(value).items()]
            for key, v in scopes:
                if isinstance(v, (dict, list, set)):
                    out[name + "." + key] = len(v)
    return out


def tables(inst):
    # the numbering and every table on it, which a fresh instance holds
    # empty
    return [len(inst.tokens), len(inst.ids), len(inst.composites),
            len(inst.squares), len(inst.left_rows), len(inst.right_rows)]


def build(make):
    inst = make()
    fresh = tables(inst)
    x = s_construction(inst, depth=3)
    return fresh, tables(inst), {str(k): f.table for k, f in x.faces.items()}


out = {"held": held()}
for label, make in (("vect", lambda: VectFq(2, 2)),
                    ("f1", lambda: F1FreeG(cyclic_group(2), 2))):
    out[label] = [build(make)]
    worker.settle(caches)
    out[label].append(build(make))
out["held_after"] = held()
print(json.dumps(out))
"""


def test_the_s_numbering_lives_on_the_instance_and_refills_cold():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", S_SCRIPT, str(PERFBENCH)],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    got = json.loads(proc.stdout.splitlines()[-1])
    # no dict, list or set of those modules grew: every table is the
    # instance's, and the worker's settle need not know of them
    assert got["held"] == got["held_after"]
    for label in ("vect", "f1"):
        (fresh, filled, faces), (fresh2, filled2, faces2) = got[label]
        # a fresh instance holds no number and no table entry, before and
        # after the worker settles; the build fills each table alike
        assert fresh == fresh2 == [0] * len(fresh)
        assert all(filled) and filled2 == filled
        assert faces2 == faces
