"""Checks on the package source itself."""

import ast
from pathlib import Path

import hibires

SOURCES = sorted(Path(hibires.__file__).resolve().parent.glob("*.py"))


def test_no_assert_statements():
    # python -O drops assert statements, so no check in the package may be one
    assert "oracle.py" in {path.name for path in SOURCES}
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
