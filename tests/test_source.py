"""Checks on the package source itself."""

import ast
from pathlib import Path

import spidersearch

SOURCES = sorted(Path(spidersearch.__file__).parent.rglob("*.py"))


def test_no_assert_statements():
    # `python -O` strips asserts, so every runtime check must be an
    # explicit raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found
