"""The README's library quick tour runs, and shows the values it computes."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour():
    """The python block under the "Library quick tour" heading."""
    text = README.read_text()
    section = text.split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_tour_values():
    source = quick_tour()
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if isinstance(stmt, ast.Expr):
            # an expression line shows its value in its comment
            comment = lines[stmt.end_lineno - 1].split("#", 1)[1]
            assert eval(code, namespace) == ast.literal_eval(comment.strip()), code
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 4
