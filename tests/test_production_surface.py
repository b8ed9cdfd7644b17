"""Every non-dunder `def` and `class` of `src/hallalg`, at the top level of a
module or inside a class (methods included), is reached from the production
side: the package itself, the demos or the benchmark.  A definition that
only tests call belongs in `tests/oracles`, and one that nothing calls is
deleted.

A reference is an `ast.Name` or `ast.Attribute` outside the definition
itself, so an `import` in an `__init__.py` (a re-export) or an `__all__`
entry does not count.  References are matched by name alone: a method is
reached when any production code names an attribute so called.  A span
target of `perfbench/spans.py` counts too, with every prefix of its
attribute path: the benchmark patches it by name.  spans.py is only read
here, never changed."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hallalg"
SPANS_PY = ROOT / "perfbench" / "spans.py"

# Definitions kept in src/ although nothing on the production side names
# them, keyed like "hallalg.structure.StructureTable.product", each with its
# reason.  An entry whose name is reached is stale and fails the test.
ALLOWED = {}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module_name(path):
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _walk_defs(body, prefix):
    for node in body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        qual = f"{prefix}{node.name}"
        yield qual, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            yield from _walk_defs(node.body, f"{qual}.")


def _definitions():
    """(path, attribute path, name, first line, last line) of every
    non-dunder def and class in src/hallalg, top-level or in a class."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for qual, name, lo, hi in _walk_defs(tree.body, ""):
            yield path, qual, name, lo, hi


def _references():
    """name -> [(path, line)] over the production side."""
    refs = {}
    paths = [*SRC.rglob("*.py"), *(ROOT / "demos").rglob("*.py"),
             *(ROOT / "perfbench").rglob("*.py")]
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            refs.setdefault(name, []).append((path, node.lineno))
    return refs


def _span_targets():
    """(module, attribute path) of every span target and of every prefix
    of its path."""
    out = set()
    for _, modname, path, *_ in _load_spans().SPANS:
        parts = path.split(".")
        for k in range(1, len(parts) + 1):
            out.add((modname, ".".join(parts[:k])))
    return out


def _unreached():
    refs = _references()
    span_targets = _span_targets()
    out = []
    for path, qual, name, lo, hi in _definitions():
        if (_module_name(path), qual) in span_targets:
            continue
        if any(p != path or not lo <= line <= hi
               for p, line in refs.get(name, ())):
            continue
        out.append(f"{_module_name(path)}.{qual}")
    return out


def test_every_definition_is_reached_or_allowed():
    unreached = [q for q in _unreached() if q not in ALLOWED]
    assert unreached == [], (
        "only tests (or nothing) reach these; move them to tests/oracles "
        f"or delete them: {unreached}")


def test_every_allowed_entry_is_unreached():
    """An allowed name that production code reaches (or that no longer
    exists) is a stale entry."""
    assert sorted(set(ALLOWED) - set(_unreached())) == []


def test_no_src_module_imports_the_tests():
    bad = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            for mod in mods:
                parts = mod.split(".")
                if parts[0] == "tests" or "oracles" in parts:
                    bad.append(f"{path.relative_to(ROOT)}: {mod}")
    assert bad == []
