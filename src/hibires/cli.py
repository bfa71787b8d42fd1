"""Command-line entry point.

Subcommands: analyze (invariant report for one instance), verify (property
suite), random (generate-and-verify a corpus), search-tightness (audit the
last-Betti-number bound and record strict instances), fixtures (export the
built-in lattices).  Exit codes: 0 success, 1 invalid input, an --out
path that cannot be written, or a closed stdout, 2 verification mismatch.
"""

import argparse
import json
import os
import sys
import time
from functools import cache, partial
from pathlib import Path

from . import checks
from .bitset import MAX_GROUND
from .errors import (
    ClosureTooLarge,
    HibiresError,
    InputFormatError,
    OutputError,
)
from .fixtures import FIXTURES, fixture_files, fixture_lattice
from .graphs import (
    cover_lattice,
    graph_from_json_obj,
    graph_from_lattice,
    normalize_graph,
    parse_graph_text,
)
from .ideals import edge_ideal, hibi_ideal
from .invariants import invariant_report, last_betti_lower_bound, pd_and_reg_H
from .lattice import (
    lattice_from_json_obj,
    lattice_to_text,
    parse_lattice_text,
    random_corpus,
)
from .linalg import is_supported_prime
from .oracle import betti_oracle, total_betti_in_degree
from .resolution import betti_table_from_basis, build_resolution


def _parse_field(text):
    if text in ("q", "Q"):
        return "Q"
    if text.startswith("p:") and text[2:].isdecimal():
        p = int(text[2:])
        if is_supported_prime(p):
            return p
    raise argparse.ArgumentTypeError(
        "field must be 'q' or 'p:<prime>', a prime below 2^31"
    )


def _parse_int(text, option):
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{option} must be an integer, got {text!r}"
        ) from None


def _parse_ground_size(text):
    n = _parse_int(text, "--n")
    if not 2 <= n <= MAX_GROUND:
        raise argparse.ArgumentTypeError(f"--n must be in 2..{MAX_GROUND}")
    return n


def _parse_count(text):
    count = _parse_int(text, "--count")
    if count < 1:
        raise argparse.ArgumentTypeError("--count must be at least 1")
    return count


def load_lattice(path):
    """Read a lattice from a lattice/graph file (text or JSON); a file that
    cannot be read, decoded or parsed as JSON, or that is none of these
    formats, is an InputFormatError."""
    try:
        text = Path(path).read_text()
        stripped = text.lstrip()
        obj = json.loads(text) if stripped.startswith("{") else None
    except (OSError, ValueError, RecursionError) as exc:  # decoding: ValueError
        raise InputFormatError(f"cannot read {path}: {exc!r}") from exc
    if obj is not None:
        if "elements" in obj:
            return lattice_from_json_obj(obj)
        G = graph_from_json_obj(obj)
        return _lattice_of_graph(G)
    head = stripped.split(None, 1)[0] if stripped else ""
    if head == "lattice":
        return parse_lattice_text(text)
    if head == "graph":
        return _lattice_of_graph(parse_graph_text(text))
    raise InputFormatError(f"unrecognized input format in {path}")


def _lattice_of_graph(G):
    if not G.is_normalized:
        G = normalize_graph(sorted(G.edges))
    return cover_lattice(G)


def _out_dir(path):
    """The --out directory, created before any work is done, or None."""
    if not path:
        return None
    outdir = Path(path)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create {path}: {exc!r}") from exc
    return outdir


def _write(path, text):
    try:
        path.write_text(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc!r}") from exc


def _emit(obj, fmt, no_timestamp):
    if fmt == "json":
        if not no_timestamp:
            obj = dict(obj, timestamp=time.strftime("%Y-%m-%dT%H:%M:%S"))
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        _emit_text(obj)


def _emit_text(obj):
    for key, value in obj.items():
        if isinstance(value, str) and "\n" in value:
            print(f"{key}:")
            print(value, end="")
        elif isinstance(value, (list, dict)):
            print(f"{key}: {json.dumps(value)}")
        else:
            print(f"{key}: {value}")


def cmd_analyze(args):
    L = load_lattice(args.input)
    # the oracle first: its refusal (ClosureTooLarge) costs no resolution
    if args.level == "oracle":
        oracle_table = betti_oracle(hibi_ideal(L), field=args.field)
    basis_table = betti_table_from_basis(build_resolution(L))
    out = invariant_report(L)
    out["input"] = str(args.input)
    out["betti_diagram_H"] = basis_table.diagram()
    if args.level == "oracle":
        differing = basis_table.differing(oracle_table)
        out["oracle_verdict"] = "MISMATCH" if differing else "MATCH"
        if differing:
            out["oracle_differing"] = [
                {"i": i, "multidegree": b, "basis": f, "oracle": o}
                for i, b, f, o in differing[:3]
            ]
            _emit(out, args.format, args.no_timestamp)
            return 2
    _emit(out, args.format, args.no_timestamp)
    return 0


def cmd_verify(args):
    if not args.fixtures and not args.input:
        print("verify needs --input files or --fixtures", file=sys.stderr)
        return 1
    if args.fixtures and args.input is not None:
        print("verify takes --input files or --fixtures, not both",
              file=sys.stderr)
        return 1
    if args.fixtures:
        instances = [(name, fixture_lattice(name)) for name in FIXTURES]
    else:
        instances = [(str(p), load_lattice(p)) for p in args.input]
    failed = None
    for name, L in instances:
        run = partial(
            checks.run_checks, L, field=args.field,
            mutate=args.debug_mutate_differential,
        )
        try:
            report = run(level=args.level)
        except ClosureTooLarge:
            # an oracle-level refusal (FIG1's edge-ideal lcm closure passes
            # CLOSURE_CAP) comes before any verdict and before the costly
            # builds, so none is repeated; one at formulas level exits 1
            if args.level != "oracle":
                raise
            report = run(level="formulas")
            print(f"SKIP {name} oracle checks: run at formulas level")
        for check_name, ok, detail in report.results:
            print(f"{'PASS' if ok else 'FAIL'} {name} {check_name}")
            if not ok and failed is None:
                failed = {
                    "instance": name,
                    "check": check_name,
                    "detail": repr(detail),
                }
        for kind, detail in report.findings:
            if kind != "bound_equality":
                print(f"FINDING {name} {kind} {detail}")
    if failed is not None:
        print(json.dumps({"counterexample": failed}), file=sys.stderr)
        return 2
    return 0


def cmd_random(args):
    outdir = _out_dir(args.out)
    corpus = random_corpus(args.count, args.seed, n_max=args.n)
    reports = [
        checks.run_checks(L, level=args.level, field=args.field)
        for L in corpus
    ]
    failures = 0
    for k, (L, report) in enumerate(zip(corpus, reports)):
        verdict = "MATCH" if report.ok else "MISMATCH"
        if not report.ok:
            failures += 1
        print(f"instance {k:04d} n={L.n} size={len(L)} {verdict}")
        if outdir:
            _write(outdir / f"instance_{k:04d}.lat", lattice_to_text(L))
            summary = {
                "index": k,
                "n": L.n,
                "size": len(L),
                "verdict": verdict,
                "checks": [
                    {"name": name, "ok": ok} for name, ok, _ in report.results
                ],
            }
            _write(
                outdir / f"instance_{k:04d}.json",
                json.dumps(summary, indent=2, sort_keys=True),
            )
        if not report.ok and failures == 1:
            first = report.first_failure()
            print(
                json.dumps(
                    {"counterexample": {"index": k, "check": first[0]}}
                ),
                file=sys.stderr,
            )
    print(f"{len(corpus) - failures}/{len(corpus)} MATCH")
    return 2 if failures else 0


def cmd_search_tightness(args):
    outdir = _out_dir(args.out)
    corpus = random_corpus(args.count, args.seed, n_max=args.n)
    lines = []
    strict = 0
    for k, L in enumerate(corpus):
        I = edge_ideal(graph_from_lattice(L))
        pd_RI, _ = pd_and_reg_H(L)
        t = total_betti_in_degree(I, pd_RI - 1, field=args.field)
        bound = last_betti_lower_bound(L)
        record = {
            "index": k,
            "n": L.n,
            "size": len(L),
            "t": t,
            "bound": bound,
            "strict": t > bound,
        }
        if t > bound:
            strict += 1
            lines.append(record)
        print(json.dumps(record, sort_keys=True))
    total = len(corpus)
    equal = total - strict
    print(
        f"equality {equal}/{total}"
        + (f"; {strict} strict instances recorded" if strict else "")
    )
    if outdir:
        _write(
            outdir / "tightness_findings.jsonl",
            "".join(json.dumps(record, sort_keys=True) + "\n" for record in lines),
        )
    return 0


def cmd_fixtures(args):
    outdir = _out_dir(args.out)
    files = fixture_files()
    if outdir:
        for name, text in files.items():
            _write(outdir / f"{name}.lat", text)
            print(f"wrote {outdir / (name + '.lat')}")
    else:
        for name, text in files.items():
            print(f"# {name}")
            print(text, end="")
    return 0


@cache
def build_parser():
    """The argument parser, built once per process: parsing keeps no state
    in it, so every main call reuses it."""
    parser = argparse.ArgumentParser(
        prog="hibires",
        description=(
            "Resolutions and homological invariants of edge ideals of "
            "unmixed bipartite graphs, from their vertex-cover lattices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    level = dict(choices=["formulas", "oracle"], default="formulas")
    field = dict(type=_parse_field, default="Q")

    p = sub.add_parser("analyze", help="invariant report for one instance")
    p.add_argument("--input", required=True)
    p.add_argument("--level", **level)
    p.add_argument("--field", **field)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run the property suite")
    p.add_argument("--input", nargs="*")
    p.add_argument("--fixtures", action="store_true")
    p.add_argument(
        "--debug-mutate-differential",
        action="store_true",
        help="flip one differential sign first (self-test of the checker)",
    )
    p.add_argument("--level", **level)
    p.add_argument("--field", **field)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("random", help="generate and verify random lattices")
    p.add_argument("--n", type=_parse_ground_size, default=6)
    p.add_argument("--count", type=_parse_count, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--level", **level)
    p.add_argument("--field", **field)
    p.set_defaults(func=cmd_random)

    p = sub.add_parser(
        "search-tightness", help="audit the last-Betti-number lower bound"
    )
    p.add_argument("--n", type=_parse_ground_size, default=4)
    p.add_argument("--count", type=_parse_count, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--field", **field)
    p.set_defaults(func=cmd_search_tightness)

    p = sub.add_parser("fixtures", help="export the built-in fixture lattices")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None):
    """Run one subcommand; every HibiresError it raises exits with code 1
    and one JSON line on stderr.  A reader that closes stdout early also
    gives code 1: the rest of the output goes to the null device, so
    nothing is printed at exit."""
    args = build_parser().parse_args(argv)
    try:
        try:
            return args.func(args)
        finally:
            sys.stdout.flush()
    except HibiresError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
