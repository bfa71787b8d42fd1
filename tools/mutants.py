"""Textual mutation run for the oracle and its linear algebra.

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
    "linalg.py": ["tests/test_linalg.py", "tests/test_oracle.py"],
}

NO_SHIFT = (
    "after Engstrom's fold no residue vertex off a matching component has "
    "its incidence set inside another's, and adjacent vertices share an "
    "edge, so a residue with a nonzero shift never reaches the sphere case"
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
    ("sphere-degree-plus-1", "oracle.py",
     "return {len(classes) - 1 + shift: 1}",
     "return {len(classes) + shift: 1}", None),
    ("sphere-shift-dropped", "oracle.py",
     "return {len(classes) - 1 + shift: 1}",
     "return {len(classes) - 1: 1}", NO_SHIFT),
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
    ("fold-onto-itself", "oracle.py",
     "if not nu & ~nv and u != v:", "if not nu & ~nv:", None),
    # --- oracle.py: the face walk, the builder and its cap ---
    ("faces-revisit-own-vertex", "oracle.py",
     "stack.append((child, ext[k + 1 :]))",
     "stack.append((child, ext[k:]))", None),
    ("boundary-signs-constant", "oracle.py",
     "        sign = -sign\n", "", None),
    ("cap-off-by-one", "oracle.py",
     "if sum(map(len, by_dim.values())) > FACE_CAP:",
     "if sum(map(len, by_dim.values())) >= FACE_CAP:", None),
    ("cap-never-passed", "oracle.py",
     "islice(_faces(vertices, gens), FACE_CAP + 1)",
     "islice(_faces(vertices, gens), FACE_CAP)", None),
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
    args = ap.parse_args(argv)
    ids = [m[0] for m in MUTANTS]
    if len(set(ids)) != len(ids):
        ap.error("duplicate mutant ids")
    chosen = [m for m in MUTANTS if not args.only or m[0] in args.only]
    unknown = set(args.only or ()) - set(ids)
    if unknown:
        ap.error(f"unknown mutant ids: {', '.join(sorted(unknown))}")

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
