"""Every public top-level `def` and `class` of `src/hallalg` is reached from
the production side: the package itself, the demos or the benchmark.  A
definition that only tests call belongs in `tests/oracles`, and one that
nothing calls is deleted.

A reference is an `ast.Name` or `ast.Attribute` outside the definition
itself, so an `import` in an `__init__.py` (a re-export) or an `__all__`
entry does not count.  A span target of `perfbench/spans.py` counts too:
the benchmark patches it by name.  spans.py is only read here, never
changed."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hallalg"
SPANS_PY = ROOT / "perfbench" / "spans.py"

# Definitions kept in src/ although tests are their main callers, each with
# its reason.  Of these, only PairFunctor, external_product and
# pull_push_span have no production reference at all.
DEMO_01 = "used by demos/01_pull_push_calculus.py"
MUTATION = "the mutation corpus, a perfbench API job"
README = "the groupoid calculus that the README documents"
ALLOWED = {
    "FiberProductGroupoid": "perfbench span target groupoid.fiber_build",
    "wreath_product": "perfbench span target wreath.group_build",
    "two_fiber_product": DEMO_01,
    "point_inclusion": DEMO_01,
    "GroupHomFunctor": DEMO_01,
    "pi0": DEMO_01,
    "cardinality": DEMO_01,
    "mutation_corpus": MUTATION,
    "FullSubgroupoid": MUTATION,
    "DisjointUnion": MUTATION,
    "constant_functor": MUTATION,
    "ProductGroupoid": README,
    "PairFunctor": README,
    "external_product": README,
    "pull_push_span": README,
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module_name(path):
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _definitions():
    """(module, name, first line, last line) of every public top-level
    def and class in src/hallalg."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path, node.name, node.lineno, node.end_lineno


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


def _unreached():
    refs = _references()
    span_targets = {(modname, path.split(".")[0])
                    for _, modname, path, *_ in _load_spans().SPANS}
    out = []
    for path, name, lo, hi in _definitions():
        if (_module_name(path), name) in span_targets:
            continue
        if any(p != path or not lo <= line <= hi
               for p, line in refs.get(name, ())):
            continue
        out.append(f"{_module_name(path)}.{name}")
    return out


def test_every_public_definition_is_reached_or_allowed():
    unreached = [q for q in _unreached()
                 if q.rsplit(".", 1)[1] not in ALLOWED]
    assert unreached == [], (
        "only tests (or nothing) reach these; move them to tests/oracles "
        f"or delete them: {unreached}")


def test_every_allowed_name_is_defined():
    defined = {name for _, name, _, _ in _definitions()}
    assert sorted(set(ALLOWED) - defined) == []
