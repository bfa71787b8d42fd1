"""Checks on the package source itself."""

import ast
from pathlib import Path

import hibires
from hibires.cli import build_parser

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
    # values; _induced_complex is the only face walk (the only reader of
    # FACE_CAP), it takes just the vertex set and the generators, and its
    # one caller, _betti_at, passes exactly those
    path = next(path for path in SOURCES if path.name == "oracle.py")
    tree = ast.parse(path.read_text(), str(path))
    callers = {}
    readers = {}
    build_args = []
    for node in tree.body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                readers.setdefault(sub.id, set()).add(
                    getattr(node, "name", "<module>")
                )
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
                callers.setdefault(sub.func.id, set()).add(
                    getattr(node, "name", "<module>")
                )
                if sub.func.id == "_induced_complex":
                    build_args.append((len(sub.args), len(sub.keywords)))
    functions = {
        node.name: node for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    walk = functions["_induced_complex"].args
    assert [a.arg for a in walk.args] == ["vertices", "gens"]
    assert not (walk.defaults or walk.kwonlyargs or walk.vararg or walk.kwarg)
    assert build_args and set(build_args) == {(2, 0)}
    assert callers["_induced_complex"] == {"_betti_at"}
    assert "_faces" not in functions and "islice" not in readers
    assert readers["FACE_CAP"] == {"_induced_complex"}
    assert len(callers["_fold"]) == 1
    assert callers["_minimal_classes"] == {"_betti_at"}
    assert callers["homology_ranks"] == {"reduced_homology_ranks"}


def test_oracle_keeps_only_what_it_computes_with():
    # a complex is the plain {dimension: faces} dict that _induced_complex
    # returns: oracle.py defines no class, the package no record type,
    # public K^b wrapper or bit-list helper, and hibires exports none of
    # them, nor the homology wrapper
    path = next(path for path in SOURCES if path.name == "oracle.py")
    tree = ast.parse(path.read_text(), str(path))
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    gone = {"SimplicialComplex", "upper_koszul_complex", "_bits"}
    defined = sorted(
        f"{path.name}:{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        and node.name in gone
    )
    assert defined == []
    removed = {"SimplicialComplex", "upper_koszul_complex",
               "reduced_homology_ranks"}
    assert not removed & set(dir(hibires))


def test_fold_and_spot_values_have_one_caller():
    # _fold is reached only through _betti_at, and no oracle function goes
    # through the public betti_value_at: the totals check the field and
    # the degree window once, then read _betti_at per member
    path = next(path for path in SOURCES if path.name == "oracle.py")
    callers = {}
    for node in ast.parse(path.read_text(), str(path)).body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
                callers.setdefault(sub.func.id, set()).add(
                    getattr(node, "name", "<module>")
                )
    assert callers["_fold"] == {"_betti_at"}
    assert "betti_value_at" not in callers
    assert callers["_betti_at"] == {
        "betti_oracle", "betti_value_at", "total_betti_in_degree",
        "graded_betti_in_degree",
    }


def test_fold_reads_its_residue_once():
    # _fold is the dominator pass plus one scan of the kept vertices: no
    # local fold loop (while folded) and no neighbour dict anywhere in
    # oracle.py, and _fold builds no dict at all; any other residue goes to
    # the incidence-class fold, whose sphere case adds the residue's shift
    path = next(path for path in SOURCES if path.name == "oracle.py")
    tree = ast.parse(path.read_text(), str(path))
    functions = {
        node.name: node for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    assert not [
        node for node in ast.walk(tree)
        if isinstance(node, ast.While) and isinstance(node.test, ast.Name)
        and node.test.id == "folded"
    ]
    assert "nbr" not in {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }
    assert not [
        node for node in ast.walk(functions["_fold"])
        if isinstance(node, (ast.Dict, ast.DictComp))
    ]
    returned = {
        ast.unparse(node.value) for node in ast.walk(functions["_betti_at"])
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict)
    }
    assert "{len(classes) - 1 + shift: 1}" in returned


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


def test_build_resolution_alone_defines_the_differential():
    # no function, class or export named differential: the terms of d are
    # written out only by resolution.build_resolution
    found = sorted(
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if "differential" in (
            getattr(node, "name", None), getattr(node, "id", None),
            getattr(node, "attr", None),
        )
    )
    assert found == []
    assert not hasattr(hibires, "differential")


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


def test_cli_builds_its_parser_once():
    # main reuses one parser per process
    assert build_parser() is build_parser()


def test_widths_come_from_the_histogram():
    # the basis size, its top level, the level ranks and reg R/I(G) read
    # CoverLattice.widths; no module sums C(|N(p)|, i) or takes the
    # largest |N(p)| element by element
    found = sorted(
        f"{path.name}:{k}"
        for path in SOURCES
        for k, line in enumerate(path.read_text().splitlines(), 1)
        if "comb(len(" in line
        or "max(len(L.neighbors" in line
        or "max(len(L.lower" in line
    )
    assert found == []
