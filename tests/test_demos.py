"""The demos import only names that the package exports.

The demos are parsed, not run: together they take about 15 s.
"""

import ast
from pathlib import Path

import pytest

import surjkit

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_imports_are_public(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "surjkit"
        for alias in node.names
    }
    assert imported, f"{path.name} imports nothing from surjkit"
    assert imported <= set(surjkit.__all__), sorted(imported - set(surjkit.__all__))
