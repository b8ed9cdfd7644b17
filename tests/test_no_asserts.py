"""Modules whose input checks must survive `python -O`, which strips every
`assert` statement: they raise explicit errors instead."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hallalg"
ASSERT_FREE = ["waldhausen", "wreath", "protoab", "groupoid", "exactmath",
               "hall.py", "groups.py", "cli.py", "schurweyl.py"]


def _modules():
    for entry in ASSERT_FREE:
        path = SRC / entry
        yield from sorted(path.glob("*.py")) if path.is_dir() else [path]


@pytest.mark.parametrize("path", list(_modules()),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_module_has_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.relative_to(SRC)}: assert at lines {lines}"


def test_the_listed_modules_exist():
    for entry in ASSERT_FREE:
        assert (SRC / entry).exists(), entry
