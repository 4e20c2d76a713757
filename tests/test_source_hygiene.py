"""Source rules for every module of the package, checked on its syntax tree."""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "berkvol").rglob("*.py"))


def parse(path):
    return ast.walk(ast.parse(path.read_text(), filename=str(path)))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips asserts; invariant checks must raise explicitly
    lines = [node.lineno for node in parse(path) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_concurrent_futures(path):
    imported = []
    for node in parse(path):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported += [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    assert "concurrent.futures" not in imported, f"{path.name} imports concurrent.futures"
