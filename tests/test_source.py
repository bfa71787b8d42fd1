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


def test_only_linalg_references_rank_exact():
    # every chain complex goes through linalg.homology_ranks, so no other
    # module builds its own matrices and ranks them
    found = sorted(
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if "rank_exact" in (
            getattr(node, "id", None), getattr(node, "attr", None),
            getattr(node, "name", None),
        )
    )
    assert set(found) == {"linalg.py"}
