import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hibires import checks, invariants
from hibires.bitset import full_mask
from hibires.checks import (
    CheckReport,
    _render_failure,
    check_interval_bijection,
    check_interval_monotonicity,
    check_lemma_corollary,
    check_lemma_distinct_meets,
    check_oracle_hibi,
    check_rank_two,
    run_checks,
)
from hibires.cli import main
from hibires.errors import ClosureTooLarge
from hibires.fixtures import FIXTURES, fixture_lattice
from hibires.graphs import graph_from_lattice
from hibires.ideals import edge_ideal, hibi_ideal, monomial, render_monomial
from hibires.lattice import (
    lattice_to_text,
    random_corpus,
    random_sublattice,
    validate_sublattice,
)
from hibires.oracle import betti_oracle
from hibires.resolution import (
    betti_table_from_basis,
    build_resolution,
    label,
    verify_complex,
    verify_minimality,
)

from conftest import (
    bijection_reference,
    boolean_intervals,
    corollary_reference,
    crown_lattice,
    distinct_meets_reference,
    meet,
    set_term,
)


@pytest.mark.parametrize("name", ["E1", "K22", "CHAIN", "B2"])
def test_fixture_oracle_level(name, request):
    report = run_checks(request.getfixturevalue(name), level="oracle")
    assert report.ok, report.first_failure()


@pytest.mark.parametrize("twin", [False, True])
def test_crown_oracle_level(twin):
    # the k = 3 crown's edge oracle reaches the fold's fallback (Ind(C_6))
    report = run_checks(crown_lattice(3, twin=twin), level="oracle")
    assert report.ok, report.first_failure()


def test_fig1_formulas_level(FIG1):
    report = run_checks(FIG1, level="formulas")
    assert report.ok, report.first_failure()


def test_mutated_differential_is_caught(B2):
    report = run_checks(B2, mutate=True)
    assert not report.ok
    assert report.first_failure()[0] == "complex_d_squared_zero"


@pytest.mark.parametrize("level", ["oracel", "Oracle", "", None])
def test_unknown_level_refused(B2, level, monkeypatch):
    # a misspelt level used to run the formula checks alone and report ok;
    # it is refused before anything is built
    monkeypatch.setattr(checks, "graph_from_lattice", None)
    with pytest.raises(ValueError, match="'formulas' or 'oracle'"):
        run_checks(B2, level=level)


def test_finite_field_level(CHAIN):
    report = run_checks(CHAIN, level="oracle", field=2)
    assert report.ok, report.first_failure()


def test_findings_do_not_fail(B2):
    report = run_checks(B2, level="oracle")
    # the bound audit always records a tightness finding
    assert any(kind.startswith("bound_") for kind, _ in report.findings)
    assert report.ok


def test_random_instance_oracle_level():
    L = random_sublattice(4, 3, 7)
    report = run_checks(L, level="oracle")
    assert report.ok, report.first_failure()


def test_oracle_mismatch_names_the_entry(CHAIN):
    table = betti_table_from_basis(build_resolution(CHAIN))
    (i, b), v = min(table.entries.items())
    table.entries[(i, b)] = v + 1
    report = CheckReport()
    check_oracle_hibi(CHAIN, table, betti_oracle(hibi_ideal(CHAIN)), report)
    name, ok, detail = report.results[0]
    assert (name, ok) == ("betti_formula_vs_oracle", False)
    assert detail == [(i, render_monomial(b, CHAIN.n), v + 1, v)]


def test_not_cm_oracle_table_fails_placement(
    CHAIN, monkeypatch, tmp_path, capsys
):
    # the edge ideal's table gains an entry one homological degree past its
    # top, so the quotient's depth drops to 1; CHAIN is Cohen-Macaulay, and
    # an oracle depth below dim 2 is a failed property, not an error
    I = edge_ideal(graph_from_lattice(CHAIN))
    real = checks.betti_oracle

    def oracle(J, field="Q"):
        table = real(J, field=field)
        if J == I:
            table.add(table.pd() + 1, full_mask(2 * CHAIN.n))
        return table

    monkeypatch.setattr(checks, "betti_oracle", oracle)
    report = run_checks(CHAIN, level="oracle")
    assert ("cm_extremal_placement", False, "depth 1 != dim 2") in report.results
    # verify exits 2 with a counterexample, not 1 as for an invalid input
    path = tmp_path / "chain.lat"
    path.write_text(lattice_to_text(CHAIN))
    assert main(["verify", "--input", str(path), "--level", "oracle"]) == 2
    captured = capsys.readouterr()
    assert f"FAIL {path} cm_extremal_placement" in captured.out
    assert "counterexample" in captured.err


def failed(report):
    return sorted(name for name, ok, _ in report.results if not ok)


# CHAIN's Hibi table: u_0 = y1y2, x1y2, x1x2 at i = 0 and x1y1y2, x1x2y2 at
# i = 1; its edge ideal's: x1y1, x2y2, x1y2 at i = 0 and x1y1y2, x1x2y2 at
# i = 1.  Each forgery changes one ideal's oracle table: (side, forge, the
# checks that FAIL)
FORGED_ORACLE = {
    # a second u_top: the values differ, no position moves
    "betti_formula_vs_oracle": (
        "hibi", lambda T: T.add(0, monomial(0b11, 0b00, 2)),
        ["betti_formula_vs_oracle"],
    ),
    # x1x2y1 at i = 0 lies above u_top, which is then no longer i-extremal
    "oracle_i_extremality_H": (
        "hibi", lambda T: T.add(0, monomial(0b11, 0b01, 2)),
        ["betti_formula_vs_oracle", "extremal_H_vs_oracle",
         "oracle_i_extremality_H"],
    ),
    # x1x2y1 at i = 1 is a third extremal position
    "extremal_H_vs_oracle": (
        "hibi", lambda T: T.add(1, monomial(0b11, 0b01, 2)),
        ["betti_formula_vs_oracle", "extremal_H_vs_oracle"],
    ),
    # a cubic generator raises reg R/I(G) to 2
    "depth_reg_pd_vs_oracle": (
        "edge", lambda T: T.add(0, monomial(0b11, 0b01, 2)),
        ["cm_extremal_placement", "depth_reg_pd_vs_oracle"],
    ),
    # beta_{2, x1y1y2}(R/I) = 2 where the transfer claims 1
    "extremal_transfer": (
        "edge", lambda T: T.add(1, monomial(0b01, 0b11, 2)),
        ["extremal_transfer"],
    ),
    # x1x2y2 dropped at i = 1: t = 1 < |B_G| = 2
    "last_betti_bound": (
        "edge", lambda T: T.entries.pop((1, monomial(0b11, 0b10, 2))),
        ["cm_extremal_placement", "extremal_transfer", "last_betti_bound"],
    ),
}


@pytest.mark.parametrize("name", FORGED_ORACLE)
def test_forged_oracle_table_fails_its_check(name, CHAIN, monkeypatch):
    # each oracle-level check reaches its FAIL through run_checks, from a
    # forged table the patched betti_oracle returns for one of the ideals
    side, forge, expected = FORGED_ORACLE[name]
    H = hibi_ideal(CHAIN)
    real = checks.betti_oracle

    def oracle(J, field="Q"):
        table = real(J, field=field)
        if (J == H) == (side == "hibi"):
            forge(table)
        return table

    monkeypatch.setattr(checks, "betti_oracle", oracle)
    assert failed(run_checks(CHAIN, level="oracle")) == expected


def test_formula_consistency_fails_on_a_forged_depth(CHAIN, monkeypatch):
    # its three relations hold by definition on every lattice (pd and depth
    # read the same max f, CM is max f = 0, the top has a lower neighbour),
    # so only a patched depth_edge_ring reaches its FAIL
    real = checks.depth_edge_ring
    monkeypatch.setattr(checks, "depth_edge_ring", lambda L: real(L) + 1)
    assert failed(run_checks(CHAIN)) == ["formula_consistency"]
    assert failed(run_checks(CHAIN, level="oracle")) == [
        "depth_reg_pd_vs_oracle", "formula_consistency",
    ]


X1Y1 = monomial(0b01, 0b01, 2)  # no basis element of B2


def tampered(tamper):
    """Forges build_resolution: the real resolution, handed to tamper
    before the checks read it."""
    def forge(real):
        def build(L):
            C = real(L)
            tamper(C)
            return C
        return build
    return forge


def extra_element(C):
    # x1y1 at level 2 with no terms: degree 2 < n + 2, an interval [{2},
    # {1}] the scan cannot hold, and a cycle in every strand above x1y1
    C.levels[2].append(X1Y1)
    C.d[X1Y1] = ((), ())


def unit_pair(C):
    # x1y1 at levels 0 and 1, with d x1y1 = x1y1 - x1y1: two unit entries
    # whose sum cancels, so d^2 = 0 and each strand's boundary still lands
    # on a cell of the level below (a lone unit entry targets its own
    # source, which no strand holds one level down)
    C.levels[0].append(X1Y1)
    C.levels[1].append(X1Y1)
    C.d[X1Y1] = ((X1Y1, X1Y1), (1, -1))


def lone_unit(C):
    # the first term of b({1,2}; {{1},{2}}) targets the element itself: a
    # unit entry with no partner, whose strands' boundary leaves the level
    # below
    (m,) = C.levels[2]
    targets, signs = C.d[m]
    C.d[m] = ((m, *targets[1:]), signs)


def zero_top(C):
    # b({1,2}; {{1},{2}}) keeps its targets with zero coefficients
    (m,) = C.levels[2]
    targets, _ = C.d[m]
    C.d[m] = (targets, (0,) * len(targets))


def raised_f_at_1(real):
    # f({1}) read one higher: [empty, {1}] lies in the maximal interval
    # [empty, {1,2}], whose f is 0
    return lambda L, p: real(L, p) + (p == 0b01)


# Each forgery of B2 replaces one name run_checks reads: (the name, a
# forge that takes the real object and returns its replacement, the
# checks that FAIL)
FORGED_FORMULAS = {
    "lemma1_corollary": (
        "build_resolution", tampered(extra_element),
        ["interval_bijection", "lemma1_corollary", "strand_exactness"],
    ),
    "complex_minimality": (
        "build_resolution", tampered(unit_pair),
        ["complex_minimality", "interval_bijection", "lemma1_corollary",
         "lemma1_distinct_meets", "strand_exactness"],
    ),
    # a lone unit entry: d^2 no longer vanishes, and the strands that
    # hold it are no complexes, so they are not exact
    "lone_unit_entry": (
        "build_resolution", tampered(lone_unit),
        ["complex_d_squared_zero", "complex_minimality", "strand_exactness"],
    ),
    # a cycle at the top that bounds nothing: d^2 = 0 and no unit entry
    "strand_exactness": (
        "build_resolution", tampered(zero_top),
        ["strand_exactness"],
    ),
    # the structural scan loses its least interval
    "interval_bijection": (
        "boolean_interval_scan", lambda real: lambda L: set(sorted(real(L))[1:]),
        ["interval_bijection"],
    ),
    # each dual comes back as the ideal itself
    "alexander_duality": (
        "alexander_dual", lambda real: lambda J: J, ["alexander_duality"],
    ),
    "interval_monotonicity": (
        "f_value", raised_f_at_1, ["interval_monotonicity"],
    ),
}


@pytest.mark.parametrize("name", FORGED_FORMULAS)
def test_forged_build_fails_its_check(name, B2, monkeypatch):
    # each formulas-level check reaches its FAIL through run_checks, from
    # one forged object or helper it reads
    target, forge, expected = FORGED_FORMULAS[name]
    monkeypatch.setattr(checks, target, forge(getattr(checks, target)))
    assert failed(run_checks(B2)) == expected


def test_forged_lattice_fails_rank_two():
    # {empty, {1,2}, {3}, [3]} with {1} forged in as an element below
    # {1,2} whose one lower neighbour is the empty set: the build accepts
    # its b({1}; {empty}), and [empty, [3]] then holds five elements
    L = validate_sublattice({0, 0b011, 0b100, 0b111}, 3)
    F = dataclasses.replace(
        L, elements=(0, 0b001, 0b011, 0b100, 0b111),
        lower={**L.lower, 0b001: (0,)}, bottom={**L.bottom, 0b001: 0},
    )
    assert failed(run_checks(F)) == [
        "alexander_duality", "graph_round_trip", "interval_bijection",
        "rank_two_fact", "strand_exactness",
    ]


def test_every_formulas_level_name_reaches_fail(B2):
    # the twelve formulas-level names, each driven to FAIL through
    # run_checks by a tier-1 test: FORGED_FORMULAS (each key but
    # lone_unit_entry names the check it reaches), the forged lattice
    # above, test_mutated_differential_is_caught,
    # TestTamperedLattice::test_other_cover_lattice_fails_graph_round_trip,
    # test_formula_consistency_fails_on_a_forged_depth and
    # test_resolution.py's TestConsistencyChecks::test_shared_multidegree_fails_checks
    elsewhere = {
        "complex_d_squared_zero", "graph_round_trip", "formula_consistency",
        "lemma1_distinct_meets", "basis_betti_multiplicity_one",
        "rank_two_fact",
    }
    names = [name for name, _, _ in run_checks(B2).results]
    assert len(names) == 12
    assert set(names) == set(FORGED_FORMULAS) - {"lone_unit_entry"} | elsewhere


@pytest.mark.parametrize("level", ["formulas", "oracle"])
def test_refused_instance_is_judged_by_no_check(level, monkeypatch):
    # B_8's strand closure passes CLOSURE_CAP; the refusal comes from the
    # build stage, before the first verdict
    def no_verdict(self, name, ok, detail=None):
        raise AssertionError(f"{name} judged a refused instance")

    monkeypatch.setattr(CheckReport, "add", no_verdict)
    L = validate_sublattice(range(256), 8)
    with pytest.raises(ClosureTooLarge, match="^lcm closure exceeds the cap 5000$"):
        run_checks(L, level=level)


def test_verify_runs_each_judge_once_per_fixture(monkeypatch, capsys):
    calls = Counter()

    def counted(name, judge):
        def run(*args, **kwargs):
            calls[name] += 1
            return judge(*args, **kwargs)
        return run

    judges = [name for name in dir(checks) if name.startswith("check_")]
    for name in judges:
        monkeypatch.setattr(checks, name, counted(name, getattr(checks, name)))
    assert main(["verify", "--fixtures", "--level", "oracle"]) == 0
    assert "SKIP FIG1 oracle checks" in capsys.readouterr().out
    # FIG1's edge closure is refused before any verdict, and its formulas
    # level rerun runs no oracle judge
    oracle_judges = {"check_oracle_hibi", "check_oracle_edge_ring"}
    assert len(judges) == 11
    assert calls == {
        name: len(FIXTURES) - (name in oracle_judges) for name in judges
    }


def test_verify_builds_each_object_once_per_fixture(monkeypatch, capsys):
    # both oracle tables are built before the resolution and the duals, so
    # FIG1's refused edge oracle costs neither, and its formulas-level rerun
    # builds each once; the placement check reads run_checks' dual
    calls = Counter()

    def count(module, name):
        real = getattr(module, name, None)

        def run(*args, **kwargs):
            calls[f"{module.__name__}.{name}"] += 1
            return real(*args, **kwargs)
        # raising=False: invariants need not import alexander_dual at all
        monkeypatch.setattr(module, name, run, raising=False)

    for name in ("build_resolution", "alexander_dual", "betti_oracle"):
        count(checks, name)
    count(invariants, "alexander_dual")
    assert main(["verify", "--fixtures", "--level", "oracle"]) == 0
    assert "SKIP FIG1 oracle checks" in capsys.readouterr().out
    assert dict(calls) == {
        "hibires.checks.build_resolution": len(FIXTURES),
        "hibires.checks.alexander_dual": 2 * len(FIXTURES),
        "hibires.checks.betti_oracle": 2 * len(FIXTURES),
    }


BASIS_CHECKS = (
    check_lemma_distinct_meets, check_lemma_corollary, check_interval_bijection
)


def basis_verdicts(C):
    """(name, ok, detail) of each check that reads the basis of C."""
    report = CheckReport()
    for check in BASIS_CHECKS:
        check(C, report)
    return report.results


def reference_verdicts(L):
    return [
        distinct_meets_reference(L),
        corollary_reference(L),
        bijection_reference(L),
    ]


def agree_with_references(L):
    C = build_resolution(L)
    assert [ok for _, ok, _ in basis_verdicts(C)] == reference_verdicts(L)
    # the basis carries the same intervals as the pairs (p, S)
    labels = [label(L, m) for level in C.levels for m in level]
    assert {(meet(S, p), p, len(S)) for p, S in labels} == {
        iv for _, iv in boolean_intervals(L)
    }


class TestBasisReadChecks:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures_agree_with_references(self, name):
        L = fixture_lattice(name)
        assert reference_verdicts(L) == [True, True, True]
        agree_with_references(L)

    def test_corpus_agrees_with_references(self):
        for L in random_corpus(200, 42):
            agree_with_references(L)

    @given(st.integers(2, 5), st.integers(0, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_agrees_with_references(self, n, seeds, seed):
        agree_with_references(random_sublattice(n, seeds, seed))


def tampered(L, level, pos, m):
    """The resolution of L with one basis element replaced by m."""
    C = build_resolution(L)
    C.levels[level][pos] = m
    return C


def verdict(check, C):
    report = CheckReport()
    check(C, report)
    return report.results[0]


class TestTamperedBasis:
    def test_shared_multidegree_fails_distinct_meets(self, B2):
        # level 1 of B2 ends with b({1,2}; {{1}}) and b({1,2}; {{2}})
        C = build_resolution(B2)
        C.levels[1][3] = C.levels[1][2]
        assert verdict(check_lemma_distinct_meets, C) == (
            "lemma1_distinct_meets", False, (0b11, (0b01,))
        )

    def test_flat_step_fails_corollary(self, B2):
        # b({1,2}; {{1},{2}}) at x1*x2*y2: degree 3 < n + 2 at level 2
        C = tampered(B2, 2, 0, monomial(0b11, 0b10, 2))
        assert verdict(check_lemma_corollary, C) == (
            "lemma1_corollary", False, (0b11, (0b01,), 2)
        )

    def test_non_boolean_interval_fails_bijection(self, CHAIN):
        # b({1,2}; {{1}}) moved to [empty, {1,2}], which has three elements
        C = tampered(CHAIN, 1, 1, monomial(0b11, 0b11, 2))
        assert verdict(check_interval_bijection, C)[:2] == (
            "interval_bijection", False
        )

    def test_repeated_interval_fails_bijection(self, CHAIN):
        C = build_resolution(CHAIN)
        C.levels[1][1] = C.levels[1][0]
        assert verdict(check_interval_bijection, C)[:2] == (
            "interval_bijection", False
        )


class TestTamperedLattice:
    def test_other_cover_lattice_fails_graph_round_trip(
        self, B2, CHAIN, monkeypatch
    ):
        # run_checks builds the cover lattice of G once, and the round trip
        # compares that lattice with L
        monkeypatch.setattr(checks, "cover_lattice", lambda G: CHAIN)
        failed = [name for name, ok, _ in run_checks(B2).results if not ok]
        assert failed == ["graph_round_trip"]

    def test_wide_interval_fails_rank_two(self):
        # {empty, {1}, {2}, {1,2}, {1,2,3}} with N({1,2,3}) forged to
        # ({1}, {2}): their meet is empty, and [empty, {1,2,3}] has five
        # elements, not four
        L = validate_sublattice({0, 0b001, 0b010, 0b011, 0b111}, 3)
        L = dataclasses.replace(L, lower={**L.lower, 0b111: (0b001, 0b010)})
        assert verdict(check_rank_two, L) == (
            "rank_two_fact", False,
            (0b111, 0b001, 0b010, [0, 0b001, 0b010, 0b011, 0b111]),
        )

    def test_raised_f_fails_monotonicity(self, B2):
        # N({1}) forged empty: f({1}) = 1 - 0 - 0 exceeds f({1,2}) = 0,
        # and [empty, {1}] lies in the maximal interval [empty, {1,2}]
        L = dataclasses.replace(B2, lower={**B2.lower, 0b01: ()})
        assert verdict(check_interval_monotonicity, L) == (
            "interval_monotonicity", False, (0b11, 0b01)
        )


@pytest.mark.parametrize(
    "tamper, judge, found",
    [
        (
            lambda m, target, sign: (target, -sign), verify_complex,
            {
                ("b({1,2}; {}) at x1*x2", "y1*y2"): -2,
                ("b({2}; {}) at x2*y1", "x1*y2"): 2,
            },
        ),
        (
            lambda m, target, sign: (m, sign), verify_minimality,
            "b({1,2}; {{1}, {2}}) at x1*x2*y1*y2",
        ),
    ],
    ids=["uncancelled-sums", "unit-entry"],
)
def test_render_failure_names_basis_elements(B2, tamper, judge, found):
    # one tampered term of d b({1,2}; {{1},{2}}); the failure reads as
    # basis elements b(p; S) at their multidegree and monomials
    C = build_resolution(B2)
    (m,) = C.levels[2]
    targets, signs = C.d[m]
    set_term(C, m, 0, *tamper(m, targets[0], signs[0]))
    assert _render_failure(C, judge(C).failure) == (
        2, "b({1,2}; {{1}, {2}}) at x1*x2*y1*y2", found
    )
