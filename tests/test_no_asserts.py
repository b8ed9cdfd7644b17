"""Every module of `src/hallalg` keeps its input checks under `python -O`,
which strips every `assert` statement: they raise explicit errors
instead."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hallalg"
MODULES = sorted(SRC.rglob("*.py"))


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(SRC)))
def test_module_has_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.relative_to(SRC)}: assert at lines {lines}"


def test_the_listed_modules_exist():
    # the walk reaches the package root and every subpackage
    names = {str(p.relative_to(SRC)) for p in MODULES}
    assert {"__init__.py", "cli.py", "groupoid/__init__.py",
            "waldhausen/__init__.py", "wreath/__init__.py",
            "protoab/__init__.py", "exactmath/__init__.py"} <= names
