"""Textual mutation run for the modules of src/hibires that TESTS maps.

Each mutant below replaces one exact, unique piece of text in one module
of src/hibires.  The script copies src/, tests/ and pyproject.toml into a
temporary directory once, applies each mutant there in turn (the
checkout itself is never written), runs the module's mapped test files
with `pytest -x -q` against the copy, and restores the module before the
next mutant.  A mutant is "killed" when the tests fail, "survived" when
they pass, and "equivalent" when they pass and the mutant carries a
one-line reason why no test can tell it from the original.  An
equivalent mutant that is killed is reported as killed, and a survivor
is fixed by a stronger test, never by dropping the mutant.

    python tools/mutants.py MUTANTS.json           # every mutant
    python tools/mutants.py out.json --only window-lo-1 pmod-dropped
    python tools/mutants.py out.json --module resolution.py cli.py

--only and --module together keep the mutants that both select.

The exit code is 0 when every mutant is killed or equivalent.  The run
is sequential, one pytest process at a time, with bytecode writing off
(a restored module must never meet a stale .pyc) and a fixed hypothesis
seed, so that a rerun gives the same verdicts.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TESTS = {
    "oracle.py": ["tests/test_oracle.py"],
    "ideals.py": ["tests/test_ideals.py", "tests/test_oracle.py"],
    "linalg.py": ["tests/test_linalg.py", "tests/test_oracle.py"],
    "resolution.py": ["tests/test_resolution.py", "tests/test_checks.py"],
    "checks.py": ["tests/test_checks.py", "tests/test_resolution.py"],
    "invariants.py": ["tests/test_invariants.py", "tests/test_cli.py"],
    "cli.py": ["tests/test_cli.py", "tests/test_source.py"],
    "graphs.py": ["tests/test_graphs.py", "tests/test_cli.py"],
}

ODD_BASIS = (
    "the basis has 1 + sum 2^|N(p)| elements over p above the bottom, each "
    "|N(p)| >= 1, so its size is odd and never equals 2^NEIGHBOR_CAP >= 2"
)

# (id, module, old text, new text, reason if equivalent)
MUTANTS = [
    # --- oracle.py: the minimal incidence classes ---
    ("all-classes-kept", "oracle.py",
     "if not any(o & ~inc == 0 and o != inc for o in first)",
     "if not any(False for o in first)", None),
    ("minimality-not-strict", "oracle.py",
     "if not any(o & ~inc == 0 and o != inc for o in first)",
     "if not any(o & ~inc == 0 for o in first)", None),
    ("largest-vertex-per-class", "oracle.py",
     "first.setdefault(inc, w)", "first[inc] = w", None),
    ("class-walk-takes-all-of-b", "oracle.py",
     "w = rest & -rest\n        rest ^= w\n        inc = 0",
     "w = rest\n        rest ^= w\n        inc = 0", None),
    ("sphere-degree-plus-1", "oracle.py",
     "return {len(classes) - 1 + shift: 1}",
     "return {len(classes) + shift: 1}", None),
    ("sphere-shift-dropped", "oracle.py",
     "return {len(classes) - 1 + shift: 1}", "return {len(classes) - 1: 1}",
     None),
    ("sphere-test-by-class-count", "oracle.py",
     "if sum(map(int.bit_count, classes)) == len(gens):",
     "if len(classes) == len(gens):", None),
    ("simplex-test-all", "oracle.py",
     "if any(not g & V for g in gens):",
     "if all(not g & V for g in gens):", None),
    ("simplex-test-dropped", "oracle.py",
     "if any(not g & V for g in gens):", "if False:", None),
    ("void-case-dropped", "oracle.py",
     "    if not gens:\n        return {}  # K^b is void\n", "", None),
    ("unit-point-dropped", "oracle.py",
     "    if not classes:\n        return {0: 1}",
     "    if False:\n        return {0: 1}", None),
    ("build-on-supp-b", "oracle.py",
     "reduced_homology_ranks(_induced_complex(V, gens), field)",
     "reduced_homology_ranks(_induced_complex(b, gens), field)", None),
    # --- oracle.py: the quadratic fold ---
    ("matching-degree-plus-1", "oracle.py",
     "return {b.bit_count() - r.bit_count() // 2 - 1: 1}",
     "return {b.bit_count() - r.bit_count() // 2: 1}", None),
    ("residue-shift-dropped", "oracle.py",
     "shift = b.bit_count() - r.bit_count()", "shift = 0", None),
    # --- oracle.py: the dominator pass and its one scan of the residue ---
    ("pass-dominator-includes-v", "oracle.py",
     "if dominators.get(v, 0) & kept:",
     "if (dominators.get(v, 0) | v) & kept:", None),
    ("pass-against-supp-b", "oracle.py",
     "if dominators.get(v, 0) & kept:", "if dominators.get(v, 0) & b:", None),
    ("matching-shortcut-at-two-neighbours", "oracle.py",
     "if nv & (nv - 1):", "if nv.bit_count() > 2:", None),
    ("matching-shortcut-dropped", "oracle.py",
     "        if matching:\n"
     "            return {b.bit_count() - r.bit_count() // 2 - 1: 1}\n", "",
     "a matching residue reaches the sphere case, one class per edge, which "
     "applies the shift |b| - |R|"),
    ("cone-exit-dropped", "oracle.py",
     "        if not nv:\n            return None\n",
     "        if not nv:\n            matching = False\n",
     "an isolated kept vertex lies in no generator, so K^b[V] is a full "
     "simplex or void"),
    # --- oracle.py: the facet walk, its cap and the boundary ---
    ("facet-is-vertex-set", "oracle.py",
     "facet = t = vertices & ~g", "facet = t = vertices", None),
    ("first-facet-only", "oracle.py",
     "    for g in gens:\n        facet", "    for g in gens[:1]:\n        facet",
     None),
    ("empty-face-skipped", "oracle.py",
     "            faces.add(t)\n            if not t:\n                break\n",
     "            if not t:\n                break\n            faces.add(t)\n",
     None),
    ("walk-stops-at-cap", "oracle.py",
     "while len(faces) <= FACE_CAP:", "while len(faces) < FACE_CAP:", None),
    ("cap-refuses-at-cap", "oracle.py",
     "if len(faces) > FACE_CAP:", "if len(faces) >= FACE_CAP:", None),
    ("boundary-signs-constant", "oracle.py",
     "        sign = -sign\n", "", None),
    # --- oracle.py: the degree window ---
    ("window-lo-1", "oracle.py",
     "    if not lo <= b.bit_count() <= hi:\n        return 0",
     "    if not lo - 1 <= b.bit_count() <= hi:\n        return 0", None),
    ("window-hi+1", "oracle.py",
     "    if not lo <= b.bit_count() <= hi:\n        return 0",
     "    if not lo <= b.bit_count() <= hi + 1:\n        return 0", None),
    ("window-narrowed", "oracle.py",
     "return d_min + i, d_max * (i + 1)",
     "return d_min + i + 1, d_max * (i + 1)", None),
    ("totals-filter-lo-1", "oracle.py",
     "for b in closure if lo <= b.bit_count() <= hi",
     "for b in closure if lo - 1 <= b.bit_count() <= hi", None),
    ("totals-filter-hi+1", "oracle.py",
     "for b in closure if lo <= b.bit_count() <= hi",
     "for b in closure if lo <= b.bit_count() <= hi + 1", None),
    ("graded-window-lo-1", "oracle.py",
     "if not lo <= total_degree <= hi:",
     "if not lo - 1 <= total_degree <= hi:", None),
    ("graded-window-hi+1", "oracle.py",
     "if not lo <= total_degree <= hi:",
     "if not lo <= total_degree <= hi + 1:", None),
    # --- oracle.py: the field check at each entry point ---
    ("field-check-dropped-betti-oracle", "oracle.py",
     "    check_field(field)\n    if I.is_zero:\n        raise",
     "    if I.is_zero:\n        raise", None),
    ("field-check-dropped-value-at", "oracle.py",
     "    check_field(field)\n    if I.is_zero:\n        return 0",
     "    if I.is_zero:\n        return 0", None),
    ("field-check-dropped-total", "oracle.py",
     "    check_field(field)\n    closure = lcm_closure(I)\n",
     "    closure = lcm_closure(I)\n", None),
    ("field-check-dropped-graded", "oracle.py",
     "    check_field(field)\n    closure = lcm_closure(I, cap=closure_cap)",
     "    closure = lcm_closure(I, cap=closure_cap)", None),
    # --- ideals.py: the graph and its dominators ---
    ("graph-keeps-last-partner", "ideals.py",
     "nbr[u] = nbr.get(u, 0) | g ^ u", "nbr[u] = g ^ u", None),
    ("graph-one-sided", "ideals.py",
     "            nbr[g ^ u] = nbr.get(g ^ u, 0) | u\n", "", None),
    ("graph-on-mixed-degrees", "ideals.py",
     "if any(g.bit_count() != 2 for g in self.gens):",
     "if all(g.bit_count() != 2 for g in self.gens):", None),
    ("dominators-include-self", "ideals.py",
     "if not nu & ~nv and u != v)", "if not nu & ~nv)", None),
    ("dominators-containment-reversed", "ideals.py",
     "if not nu & ~nv and u != v)", "if not nv & ~nu and u != v)", None),
    # --- ideals.py: the lcm closure, minimalization and the dual ---
    ("closure-cap-refuses-at-cap", "ideals.py",
     "if len(unions) > cap + 1:", "if len(unions) >= cap + 1:", None),
    ("closure-walk-limit-one-less", "ideals.py",
     "unions = down_sets(I.gens, cap + 1)", "unions = down_sets(I.gens, cap)",
     None),
    ("minimalize-skips-last-lower", "ideals.py",
     "            lower = len(out)\n", "            lower = len(out) - 1\n",
     None),
    ("minimalize-tests-same-degree", "ideals.py",
     "if out and out[-1].bit_count() < m.bit_count():",
     "if out and out[-1].bit_count() <= m.bit_count():",
     "a kept monomial of m's degree divides m only by equalling it, and the "
     "sorted input holds each monomial once"),
    ("dual-divisor-test-dropped", "ideals.py",
     "if not any(k & ~m == 0 for k in through):", "if True:", None),
    ("dual-divisor-reversed", "ideals.py",
     "if not any(k & ~m == 0 for k in through):",
     "if not any(m & ~k == 0 for k in through):", None),
    ("dual-divisor-over-all-kept", "ideals.py",
     "if not any(k & ~m == 0 for k in through):",
     "if not any(k & ~m == 0 for k in kept):",
     "a kept k without v divides t*v only by dividing t, and two members of "
     "the antichain of partial transversals never divide each other"),
    ("dual-cap-refuses-at-cap", "ideals.py",
     "if len(trans) > CLOSURE_CAP:", "if len(trans) >= CLOSURE_CAP:", None),
    # --- linalg.py ---
    ("pmod-dropped", "linalg.py",
     "rows = [{c: v % p for c, v in r.items()} for r in rows]",
     "rows = [{c: v for c, v in r.items()} for r in rows]", None),
    ("update-pmod-dropped", "linalg.py",
     "                    if p:\n                        nv %= p\n", "", None),
    ("upper-rank-dropped", "linalg.py",
     "len(cells[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0)",
     "len(cells[d]) - ranks.get(d, 0)", None),
    ("lowest-degree-given-a-boundary", "linalg.py",
     "if not top or lower is None:", "if not top:", None),
    ("fraction-free-scale-dropped", "linalg.py",
     "inv, scale = 1, pval", "inv, scale = 1, 1", None),
    ("gcd-strip-skips-2", "linalg.py",
     "if g > 1:", "if g > 2:",
     "dividing a row by its gcd never changes its rank"),
    ("gcd-strip-divides-by-g+1", "linalg.py",
     "r = {c: v // g for c, v in r.items()}",
     "r = {c: v // (g + 1) for c, v in r.items()}", None),
    ("field-q-lowercase", "linalg.py",
     'if field == "Q":', 'if field in ("Q", "q"):', None),
    ("field-int-test-dropped", "linalg.py",
     "if isinstance(field, int) and is_supported_prime(field):",
     "if is_supported_prime(int(field)):", None),
    ("prime-test-admits-1", "linalg.py",
     "return 2 <= p < MAX_CHARACTERISTIC and all(",
     "return 1 <= p < MAX_CHARACTERISTIC and all(", None),
    # --- resolution.py: the basis guard ---
    ("basis-guard-refuses-at-cap", "resolution.py",
     "if size > 1 << NEIGHBOR_CAP:", "if size >= 1 << NEIGHBOR_CAP:",
     ODD_BASIS),
    ("basis-guard-one-power-up", "resolution.py",
     "if size > 1 << NEIGHBOR_CAP:", "if size > 2 << NEIGHBOR_CAP:", None),
    # --- resolution.py: the width histogram and the Betti count ---
    ("basis-size-unweighted", "resolution.py",
     "size = sum(c << k for k, c in widths.items())",
     "size = sum(1 << k for k, c in widths.items())", None),
    ("top-level-is-least-width", "resolution.py",
     "levels = [[] for _ in range(max(widths) + 1)]",
     "levels = [[] for _ in range(min(widths) + 1)]", None),
    ("rank-weight-dropped", "resolution.py",
     "sum(c * comb(k, i) for k, c in widths.items())",
     "sum(comb(k, i) for k, c in widths.items())", None),
    ("rank-check-dropped", "resolution.py",
     "if ranks != expected:", "if False:", None),
    ("repeated-multidegree-counted-once", "resolution.py",
     "entries.update(zip(repeat(i), level))",
     "entries.update(dict.fromkeys(zip(repeat(i), level), 1))", None),
    # --- resolution.py: the differential and its checks ---
    ("differential-signs-constant", "resolution.py",
     "signs = (1, -1, -1, 1) * (i // 2) + (1, -1) * (i % 2)",
     "signs = (1, -1) * i", None),
    ("x-term-sign-flipped", "resolution.py",
     "signs = (1, -1, -1, 1) * (i // 2) + (1, -1) * (i % 2)",
     "signs = (1, 1, -1, -1) * (i // 2) + (1, 1) * (i % 2)", None),
    ("homogeneity-check-dropped", "resolution.py",
     "if c & ~m:", "if False:", None),
    ("class-test-complemented", "resolution.py",
     "if c & m:", "if c & ~m:", None),
    ("term-count-check-dropped", "resolution.py",
     "if len(targets) != 2 * i:", "if False:", None),
    ("y-and-x-targets-swapped", "resolution.py",
     "y_target, x_target = get(m & ~c), get(m & ~x)",
     "y_target, x_target = get(m & ~x), get(m & ~c)", None),
    ("d-squared-augmentation-skipped", "resolution.py",
     "if i > 1 else ((m, 1),):", "if i > 1 else ():", None),
    ("minimality-never-fails", "resolution.py",
     "if m in targets:", "if False:", None),
    ("debug-flip-flips-nothing", "resolution.py",
     "C.d[m] = (targets, (-signs[0], *signs[1:]))",
     "C.d[m] = (targets, (signs[0], *signs[1:]))", None),
    # --- resolution.py: the strands ---
    ("strand-survivor-meets-b", "resolution.py",
     "[m for m in lv if m & ~b == 0]", "[m for m in lv if m & b]", None),
    ("strand-survivor-filter-dropped", "resolution.py",
     "[m for m in lv if m & ~b == 0]", "[m for m in lv]", None),
    ("strand-point-dropped", "resolution.py",
     "({0: 1} if I.contains_monomial(b) else {})",
     "({} if I.contains_monomial(b) else {})", None),
    ("strand-point-at-level-1", "resolution.py",
     "({0: 1} if I.contains_monomial(b) else {})",
     "({1: 1} if I.contains_monomial(b) else {})", None),
    # --- checks.py: each oracle-level check, and formula_consistency, made
    # to always pass ---
    ("betti-formula-always-passes", "checks.py",
     'report.add("betti_formula_vs_oracle", not differing, differing[:3])',
     'report.add("betti_formula_vs_oracle", True, differing[:3])', None),
    ("i-extremality-always-passes", "checks.py",
     'report.add("oracle_i_extremality_H", i_extremal)',
     'report.add("oracle_i_extremality_H", True)', None),
    ("extremal-H-always-passes", "checks.py",
     "oracle_table.extremal_multigraded() == sorted(expected),", "True,",
     None),
    ("depth-reg-pd-always-passes", "checks.py",
     "quotient.pd() == pd_RI\n"
     "            and quotient.depth(2 * L.n) == depth_edge_ring(L)\n"
     "            and quotient.reg() == regularity_edge_ring(L)",
     "True", None),
    ("depth-reg-pd-reg-dropped", "checks.py",
     "\n            and quotient.reg() == regularity_edge_ring(L)", "", None),
    ("depth-reg-pd-depth-dropped", "checks.py",
     "\n            and quotient.depth(2 * L.n) == depth_edge_ring(L)", "",
     None),
    ("extremal-transfer-always-passes", "checks.py",
     "all(quotient.value(i, b) == v for i, b, v in claimed),", "True,", None),
    ("last-betti-bound-always-passes", "checks.py",
     'report.add("last_betti_bound", t >= bound, (t, bound))',
     'report.add("last_betti_bound", True, (t, bound))', None),
    ("formula-consistency-always-passes", "checks.py",
     'report.add("formula_consistency", ok)',
     'report.add("formula_consistency", True)', None),
    # --- checks.py: each formulas-level check made to always pass ---
    ("distinct-meets-always-passes", "checks.py",
     "if m in seen:", "if False:", None),
    ("corollary-always-passes", "checks.py",
     "if m.bit_count() < C.L.n + i:", "if False:", None),
    ("rank-two-always-passes", "checks.py",
     "    for p in L.elements:\n        nb = L.neighbors(p)\n",
     "    for p in ():\n        nb = L.neighbors(p)\n", None),
    ("monotonicity-always-passes", "checks.py",
     "and fq > f[p]", "and False", None),
    ("bijection-always-passes", "checks.py",
     'report.add("interval_bijection", ok)',
     'report.add("interval_bijection", True)', None),
    ("graph-round-trip-always-passes", "checks.py",
     'report.add("graph_round_trip", ok)',
     'report.add("graph_round_trip", True)', None),
    ("duality-always-passes", "checks.py",
     'report.add("alexander_duality", ok)',
     'report.add("alexander_duality", True)', None),
    ("d-squared-always-passes", "checks.py",
     '"complex_d_squared_zero", d2.ok,', '"complex_d_squared_zero", True,',
     None),
    ("minimality-always-passes", "checks.py",
     '"complex_minimality", minimal.ok,', '"complex_minimality", True,',
     None),
    ("strand-exactness-always-passes", "checks.py",
     'report.add("strand_exactness", not bad, bad[:3])',
     'report.add("strand_exactness", True, bad[:3])', None),
    ("multiplicity-one-always-passes", "checks.py",
     "all(v == 1 for v in table.entries.values()),", "True,", None),
    # --- invariants.py: reg R/I(G) off the width histogram ---
    ("reg-is-least-width", "invariants.py",
     "return max(L.widths)", "return min(L.widths)", None),
    # --- graphs.py: the refusals ---
    ("normalize-ground-refuses-at-bound", "graphs.py",
     "    if n > MAX_GROUND:", "    if n >= MAX_GROUND:", None),
    ("cover-ground-refuses-at-bound", "graphs.py",
     "    if G.n > MAX_GROUND:", "    if G.n >= MAX_GROUND:", None),
    ("transitivity-refusal-dropped", "graphs.py",
     "    if not is_transitive(G):", "    if False:", None),
    ("isolated-vertex-refusal-dropped", "graphs.py",
     "if len(lefts) != self.n_left or len(rights) != self.n_right:",
     "if False:", None),
    ("side-size-refusal-dropped", "graphs.py",
     "    if len(lefts) != len(rights):", "    if False:", None),
    # --- cli.py: one parser per process ---
    ("parser-built-per-call", "cli.py",
     "@cache\ndef build_parser():", "def build_parser():", None),
]


def copy_checkout(dest):
    skip = shutil.ignore_patterns(
        "__pycache__", ".hypothesis", ".pytest_cache"
    )
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_tests(work, files):
    """(passed, first failing test id or the last line of the output)."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *files],
        cwd=work, env=env, capture_output=True, text=True,
    )
    if out.returncode == 0:
        return True, None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", out.stdout, re.M)
    lines = out.stdout.strip().splitlines() or out.stderr.strip().splitlines()
    return False, failed.group(1) if failed else lines[-1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path, help="JSON file for the verdicts")
    ap.add_argument("--only", nargs="+", metavar="ID",
                    help="run only these mutants")
    ap.add_argument("--module", nargs="+", metavar="FILE",
                    help="run only the mutants of these modules, "
                         "e.g. resolution.py")
    args = ap.parse_args(argv)
    ids = [m[0] for m in MUTANTS]
    if len(set(ids)) != len(ids):
        ap.error("duplicate mutant ids")
    unknown = set(args.only or ()) - set(ids)
    if unknown:
        ap.error(f"unknown mutant ids: {', '.join(sorted(unknown))}")
    unknown = set(args.module or ()) - set(TESTS)
    if unknown:
        ap.error(f"no mutants for modules: {', '.join(sorted(unknown))}")
    chosen = [
        m for m in MUTANTS
        if (not args.only or m[0] in args.only)
        and (not args.module or m[1] in args.module)
    ]

    results = []
    with tempfile.TemporaryDirectory(prefix="hibires-mutants-") as tmp:
        work = Path(tmp)
        copy_checkout(work)
        for module in sorted({m[1] for m in chosen}):
            passed, why = run_tests(work, TESTS[module])
            if not passed:
                sys.exit(f"the unmutated {module} fails its tests: {why}")
        for mid, module, old, new, reason in chosen:
            path = work / "src" / "hibires" / module
            original = path.read_text()
            if original.count(old) != 1:
                sys.exit(f"{mid}: the text to replace occurs "
                         f"{original.count(old)} times in {module}, not once")
            path.write_text(original.replace(old, new))
            try:
                passed, why = run_tests(work, TESTS[module])
            finally:
                path.write_text(original)
            entry = {"id": mid, "module": f"src/hibires/{module}",
                     "old": old, "new": new, "tests": TESTS[module]}
            if not passed:
                entry.update(status="killed", killed_by=why)
            elif reason:
                entry.update(status="equivalent", reason=reason)
            else:
                entry["status"] = "survived"
            results.append(entry)
            print(f"{entry['status']:10} {mid}", flush=True)

    counts = {s: sum(e["status"] == s for e in results)
              for s in ("killed", "survived", "equivalent")}
    args.out.write_text(json.dumps(
        {"counts": counts, "mutants": results}, indent=2) + "\n")
    print(", ".join(f"{n} {s}" for s, n in counts.items()))
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
