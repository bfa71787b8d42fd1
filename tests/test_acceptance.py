"""Acceptance gate: nine criteria, one printed pass/fail line each.

The shared corpus is 200 random lattices (n <= 6, stream seed 42) plus the
named fixtures; expensive per-instance artifacts (resolution, oracle
tables) are computed once in a session fixture and shared by the criteria.
All comparisons are exact.
"""

import time
from math import comb

import pytest

from hibires.bitset import mask_of
from hibires.fixtures import FIXTURES, fixture_lattice
from hibires.graphs import cover_lattice, graph_from_lattice
from hibires.ideals import alexander_dual, edge_ideal, hibi_ideal, lcm_closure
from hibires.invariants import (
    depth_edge_ring,
    extremal_graded_edge_ring,
    extremal_multigraded_edge_ring,
    extremal_multigraded_H,
    last_betti_lower_bound,
    pd_and_reg_H,
    regularity_edge_ring,
)
from hibires.checks import CheckReport, check_duality, check_graph_round_trip, \
    check_interval_monotonicity, check_lemma_corollary, \
    check_lemma_distinct_meets, check_rank_two, check_resolution
from hibires.lattice import f_value, random_corpus
from hibires.oracle import betti_oracle, graded_betti_in_degree
from hibires.resolution import betti_table_from_basis, build_resolution

CORPUS_COUNT = 200
CORPUS_SEED = 42

FIXTURE_TRIPLES = {
    "E1": (1, 1, 1),
    "CHAIN": (2, 1, 2),
    "B2": (2, 2, 2),
    "K22": (1, 1, 3),
}


def emit(capsys, criterion, ok, extra=""):
    line = f"{'PASS' if ok else 'FAIL'} {criterion}"
    if extra:
        line += f" ({extra})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, criterion


@pytest.fixture(scope="session")
def corpus():
    """Per-instance artifacts for the 200 random lattices, computed once,
    with the seconds spent on the resolution, the Hibi-side oracle and
    the edge-ideal oracle."""
    start = time.time()
    seconds = {"resolution": 0.0, "hibi oracle": 0.0, "edge oracle": 0.0}

    def timed(key, fn, *args):
        t0 = time.time()
        value = fn(*args)
        seconds[key] += time.time() - t0
        return value

    out = []
    for L in random_corpus(CORPUS_COUNT, CORPUS_SEED):
        H = hibi_ideal(L)
        I = edge_ideal(graph_from_lattice(L))
        C = timed("resolution", build_resolution, L)
        out.append(
            {
                "L": L,
                "C": C,
                "basis_table": timed("resolution", betti_table_from_basis, C),
                "oracle_H": timed("hibi oracle", betti_oracle, H),
                "quotient": timed("edge oracle", betti_oracle, I).to_quotient(),
            }
        )
    return out, time.time() - start, seconds


@pytest.fixture(scope="session")
def small_fixtures():
    """All named fixtures with resolution and hibi-oracle artifacts."""
    out = {}
    for name in FIXTURES:
        L = fixture_lattice(name)
        H = hibi_ideal(L)
        C = build_resolution(L)
        out[name] = {
            "L": L,
            "C": C,
            "basis_table": betti_table_from_basis(C),
            "oracle_H": betti_oracle(H),
        }
    return out


def test_criterion_1_fixture_identities(capsys):
    start = time.time()
    ok = True
    for name, expected in FIXTURE_TRIPLES.items():
        L = fixture_lattice(name)
        pd_RI, _ = pd_and_reg_H(L)
        formula = (depth_edge_ring(L), regularity_edge_ring(L), pd_RI)
        quotient = betti_oracle(edge_ideal(graph_from_lattice(L))).to_quotient()
        oracle = (
            quotient.depth(2 * L.n),
            quotient.reg(),
            quotient.pd(),
        )
        ok = ok and formula == expected == oracle
    elapsed = time.time() - start
    ok = ok and elapsed < 5.0
    emit(capsys, "criterion-1 fixture (depth,reg,pd) identities", ok,
         f"{elapsed:.2f}s")


def test_criterion_2_resolution_correctness(capsys, corpus, small_fixtures):
    instances, corpus_time, seconds = corpus
    start = time.time()
    ok = True
    pool = [(d["L"], d["C"]) for d in instances]
    pool += [(d["L"], d["C"]) for d in small_fixtures.values()]
    for L, C in pool:
        report = CheckReport()
        H = hibi_ideal(L)
        check_resolution(C, H, lcm_closure(H), report)
        ok = ok and report.ok
        ok = ok and C.level_ranks() == [
            sum(comb(len(L.neighbors(p)), i) for p in L.elements)
            for i in range(len(C.levels))
        ]
        if not ok:
            break
    elapsed = corpus_time + time.time() - start
    ok = ok and elapsed < 600.0
    emit(capsys, "criterion-2 resolution correctness on fixtures + corpus", ok,
         ", ".join(f"{k} {v:.1f}s" for k, v in seconds.items())
         + f"; {elapsed:.1f}s in all")


def test_criterion_3_betti_table_equality(capsys, corpus, small_fixtures):
    instances, _, _ = corpus
    ok = all(
        d["basis_table"].entries == d["oracle_H"].entries for d in instances
    ) and all(
        d["basis_table"].entries == d["oracle_H"].entries
        for d in small_fixtures.values()
    )
    emit(capsys, "criterion-3 basis Betti table equals homology oracle", ok)


def test_criterion_4_duality_round_trip(capsys, corpus, small_fixtures):
    instances, _, _ = corpus
    ok = True
    pool = [d["L"] for d in instances]
    pool += [d["L"] for d in small_fixtures.values()]
    for L in pool:
        report = CheckReport()
        G = graph_from_lattice(L)
        H, I = hibi_ideal(L), edge_ideal(G)
        check_duality(H, I, alexander_dual(H), alexander_dual(I), report)
        check_graph_round_trip(L, G, cover_lattice(G), report)
        ok = ok and report.ok
        if not ok:
            break
    emit(capsys, "criterion-4 Alexander duality and lattice round-trip", ok)


def test_criterion_5_extremal_transfer(capsys, corpus):
    instances, _, _ = corpus
    ok = True
    for d in instances:
        L, quotient = d["L"], d["quotient"]
        ok = ok and all(
            quotient.value(i, b) == 1 and v == 1
            for i, b, v in extremal_multigraded_edge_ring(L)
        )
        expected_H = [(i, b, 1) for i, b in extremal_multigraded_H(L)]
        ok = ok and d["oracle_H"].extremal_multigraded() == sorted(expected_H)
        if not ok:
            break
    emit(capsys, "criterion-5 extremal positions transfer with value 1", ok)


def test_criterion_6_figure_one(capsys):
    start = time.time()
    L = fixture_lattice("FIG1")
    n = L.n
    f_expect = {
        mask_of([1, 2, 3], n): 1,
        mask_of([1, 2, 3, 4], n): 1,
        mask_of(range(1, 8), n): 1,
        mask_of([1, 2, 3, 5], n): 0,
        mask_of([1, 2, 3, 4, 5], n): 0,
    }
    ok = all(f_value(L, p) == f for p, f in f_expect.items())
    pd_RI, _ = pd_and_reg_H(L)
    ok = ok and pd_RI == 8
    ok = ok and extremal_graded_edge_ring(L) == {(8, 10): 2}
    I = edge_ideal(graph_from_lattice(L))
    # quotient beta_{8,10} is ideal beta_{7,10}
    ok = ok and graded_betti_in_degree(I, 7, 10, closure_cap=200000) == 2
    elapsed = time.time() - start
    ok = ok and elapsed < 600.0
    emit(capsys, "criterion-6 figure-1 lattice: f-values, pd=8, (8,10)->2", ok,
         f"{elapsed:.1f}s")


def test_criterion_7_lemma_suite(capsys, corpus, small_fixtures):
    instances, _, _ = corpus
    ok = True
    pool = [(d["L"], d["C"]) for d in instances]
    pool += [(d["L"], d["C"]) for d in small_fixtures.values()]
    for L, C in pool:
        report = CheckReport()
        check_lemma_distinct_meets(C, report)
        check_lemma_corollary(C, report)
        check_rank_two(L, report)
        check_interval_monotonicity(L, report)
        ok = ok and report.ok
        if not ok:
            break
    emit(capsys, "criterion-7 lemma suite (meets, corollary, rank two, "
                 "monotonicity)", ok)


def test_criterion_8_bound_audit(capsys, corpus):
    instances, _, _ = corpus
    violations = 0
    equal = 0
    for d in instances:
        t = d["quotient"].t()
        bound = last_betti_lower_bound(d["L"])
        if t < bound:
            violations += 1
        elif t == bound:
            equal += 1
    ok = violations == 0
    rate = 100.0 * equal / len(instances)
    emit(capsys, "criterion-8 last Betti number bound t >= |B|", ok,
         f"equality rate {rate:.1f}% over {len(instances)} instances")


def test_criterion_9_cm_placement(capsys, corpus):
    instances, _, _ = corpus
    cm = [d for d in instances if depth_edge_ring(d["L"]) == d["L"].n]
    ok = bool(cm)
    for d in cm:
        quotient = d["quotient"]
        pd = quotient.pd()
        ok = ok and all(
            i == pd for i, _, _ in quotient.extremal_multigraded()
        )
        if not ok:
            break
    emit(capsys, "criterion-9 CM instances: extremal degrees all at pd", ok,
         f"{len(cm)} CM instances")
