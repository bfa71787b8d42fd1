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


def test_only_run_checks_builds_in_checks():
    # checks.run_checks builds every object once, before the first verdict;
    # the checks themselves only compare
    builders = {
        "build_resolution", "graph_from_lattice", "hibi_ideal", "edge_ideal",
        "alexander_dual", "lcm_closure", "betti_oracle", "cover_lattice",
    }
    path = next(path for path in SOURCES if path.name == "checks.py")
    found = {
        getattr(node, "name", "<module>")
        for node in ast.parse(path.read_text(), str(path)).body
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and getattr(call.func, "id", getattr(call.func, "attr", None)) in builders
    }
    assert found == {"run_checks"}


def test_oracle_has_one_path_per_step():
    # one builder of a complex, one fold dispatch, one minimal-class step
    # and one homology call, shared by the whole tables and the single
    # values; the builder has one mode, so every call of it and of the
    # face walk passes just the vertex set and the generators
    path = next(path for path in SOURCES if path.name == "oracle.py")
    callers = {}
    build_args = []
    for node in ast.parse(path.read_text(), str(path)).body:
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
                callers.setdefault(call.func.id, set()).add(
                    getattr(node, "name", "<module>")
                )
                if call.func.id in ("_faces", "_induced_complex"):
                    build_args.append((len(call.args), len(call.keywords)))
    assert build_args and set(build_args) == {(2, 0)}
    assert callers["_faces"] == {"_induced_complex"}
    assert len(callers["_fold"]) == 1
    assert callers["_minimal_classes"] == {"_betti_at"}
    assert callers["homology_ranks"] == {"reduced_homology_ranks"}


def test_basis_elements_are_multidegrees():
    # a basis element is the int m = u_p * y^(p - meet S); no record type
    # carries (p, S) beside it, resolution.label alone decodes them, and
    # the differential is keyed by m, not by positions in a level
    names = {"BasisElement", "multidegree", "hom_degree", "diffs"}
    found = sorted(
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if names & {
            getattr(node, "id", None), getattr(node, "attr", None),
            getattr(node, "name", None),
        }
    )
    assert found == []
    decoders = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.FunctionDef) and node.name == "label"
    }
    assert decoders == {"resolution.py"}


def test_only_resolution_reads_the_differential():
    # the (targets, signs) layout of ResolutionComplex.d stays behind
    # resolution.py, which also holds the debug sign flip
    found = {
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "d"
    }
    assert found == {"resolution.py"}


def test_oracle_is_independent_of_the_closed_forms():
    # the oracle reads only the ideal: it imports nothing from the modules
    # that build L, G, the resolution, the invariants or the checks
    closed_forms = {"lattice", "graphs", "resolution", "invariants", "checks"}
    path = next(path for path in SOURCES if path.name == "oracle.py")
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            if node.module in (None, "hibires"):
                modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        found |= {part for m in modules for part in m.split(".")}
    assert found & closed_forms == set()
    assert {"ideals", "linalg"} <= found
