"""The benchmark's worker (`perfbench/worker.py`) starts every job cold: it
imports hallalg and hallalg.cli, collects every functools cache of the
loaded hallalg modules once (`find_caches`) and clears them all before
each job (`settle`).  A cache in a module that those imports do not load
would be missed, and later samples would run warm; a `cache_clear` that
raises would stop the worker.  So a fresh interpreter, as the worker
starts, must find every cache that the source declares, and settling must
drop the character tables that a job leaves.  worker.py and workloads.py
are only read here, never changed.

`import hallalg, hallalg.cli` loads the exact-math, group and wreath layers
alone; the others load on first use, when a command or caller needs them.
Hence the rule: a layer that loads on first use may hold no module-level
cache, since the worker, which looks for caches once after those imports,
would never clear it.  The tests below pin which modules those imports
and each wreath command load, and that the deferred names of `hallalg`
are read from their modules."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# -- what `import hallalg` loads --------------------------------------------------

def _fresh(script, *args):
    """The last stdout line of `script` run in a fresh interpreter, as
    JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _package_modules(package, skip=()):
    """The package and every module file of it, but those named in skip."""
    return {f"hallalg.{package}"} | {
        f"hallalg.{package}.{path.stem}"
        for path in (SRC / package).glob("*.py")
        if path.stem != "__init__" and path.stem not in skip}


# every name that `hallalg` re-exported when it loaded all its layers, each
# with the module it was imported from
EXPORTS = {
    "exactmath": ["MultiSymElem", "PartitionMap", "littlewood_richardson",
                  "multiset_number", "multisym_mul", "partition_maps",
                  "partitions_of", "schur_eval_ones"],
    "groupoid": ["SpanFn", "b_group", "cardinality", "is_equivalence", "pi0",
                 "pullback_fn", "pushforward_fn", "two_fiber_product"],
    "groups": ["FiniteGroup", "named_group", "named_subgroup"],
    "hall": ["check_associativity", "divided_powers_iso_check",
             "hall_constants", "hall_product", "hall_product_via_span"],
    "protoab": ["AbelianPGroups", "F1FreeG", "VectFq", "make_instance"],
    "schurweyl": ["check_sum_of_squares", "check_total_dimension", "dim_R",
                  "schur_weyl_report"],
    "waldhausen": ["HeckeAlgebra", "HeckeModule", "check_2segal_degree3",
                   "check_pointed", "check_simplicial_identities",
                   "hecke_waldhausen", "s_construction"],
    "wreath": ["ch", "ch_ring_hom_check", "character_table",
               "induction_product", "wreath_product"],
}
EAGER = ("exactmath", "groups", "wreath")

SURFACE_SCRIPT = """
import importlib, json, sys

import hallalg
import hallalg.cli

loaded = sorted(m for m in sys.modules
                if m == "hallalg" or m.startswith("hallalg."))
exports, eager = json.loads(sys.argv[1])
resolved, patched = [], []
for layer, names in exports.items():
    module = importlib.import_module("hallalg." + layer)
    for name in names:
        scope = {}
        exec(f"from hallalg import {name} as got", scope)
        resolved.append([name, scope["got"] is getattr(module, name)])
        if layer in eager:
            continue
        original, marker = getattr(module, name), object()
        setattr(module, name, marker)
        try:
            exec(f"from hallalg import {name} as got", scope)
            patched.append([name, scope["got"] is marker
                            and getattr(hallalg, name) is marker])
        finally:
            setattr(module, name, original)
try:
    hallalg.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"loaded": loaded, "resolved": resolved,
                  "patched": patched, "unknown": unknown}))
"""


def test_import_loads_the_eager_layers_and_defers_the_rest():
    got = _fresh(SURFACE_SCRIPT, json.dumps([EXPORTS, EAGER]))
    expected = ({"hallalg", "hallalg.cli", "hallalg.groups"}
                | _package_modules("exactmath", skip=("halllittlewood",))
                | _package_modules("wreath"))
    assert set(got["loaded"]) == expected
    names = [name for names in EXPORTS.values() for name in names]
    assert got["resolved"] == [[name, True] for name in names]
    deferred = [name for layer, names in EXPORTS.items()
                if layer not in EAGER for name in names]
    assert got["patched"] == [[name, True] for name in deferred]
    assert "no_such_name" in got["unknown"]


COMMAND_SCRIPT = """
import contextlib, io, json, sys

import hallalg.cli

with contextlib.redirect_stdout(io.StringIO()):
    code = hallalg.cli.run(sys.argv[1:])
print(json.dumps({"code": code, "loaded": sorted(
    m for m in sys.modules if m.startswith("hallalg."))}))
"""

HEAVY = ("hallalg.groupoid", "hallalg.waldhausen", "hallalg.protoab",
         "hallalg.hall", "hallalg.structure")


@pytest.mark.parametrize("argv, barred", [
    ("wreath-char-table --G cyclic:2 --n 3", HEAVY),
    ("ch-verify --G cyclic:2 --max-size 2", HEAVY),
    ("schurweyl --G cyclic:2 --n 2 --d 2", HEAVY),
    ("hall-table --family ab-p-groups --p 2 --bound 8",
     ("hallalg.waldhausen",)),
])
def test_a_command_loads_only_its_own_layers(argv, barred):
    got = _fresh(COMMAND_SCRIPT, *argv.split())
    assert got["code"] == 0
    # a module of a barred layer, or the layer itself
    assert [m for m in got["loaded"]
            if m.startswith(tuple(b + "." for b in barred))
            or m in barred] == []
