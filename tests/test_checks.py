import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hibires import checks
from hibires.bitset import full_mask
from hibires.checks import (
    CheckReport,
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
from hibires.resolution import betti_table_from_basis, build_resolution

from conftest import (
    bijection_reference,
    boolean_intervals,
    corollary_reference,
    crown_lattice,
    distinct_meets_reference,
    meet,
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
    assert {
        (meet(g.S, g.p), g.p, g.hom_degree)
        for level in C.levels
        for g in level
    } == {iv for _, iv in boolean_intervals(L)}


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


def tampered(L, level, pos, **changes):
    """The resolution of L with one basis element's fields replaced."""
    C = build_resolution(L)
    C.levels[level][pos] = dataclasses.replace(C.levels[level][pos], **changes)
    return C


def verdict(check, C):
    report = CheckReport()
    check(C, report)
    return report.results[0]


class TestTamperedBasis:
    def test_shared_multidegree_fails_distinct_meets(self, B2):
        # level 1 of B2 ends with b({1,2}; {{1}}) and b({1,2}; {{2}})
        C = build_resolution(B2)
        twin = C.levels[1][2].multidegree
        C.levels[1][3] = dataclasses.replace(C.levels[1][3], multidegree=twin)
        assert verdict(check_lemma_distinct_meets, C) == (
            "lemma1_distinct_meets", False, (0b11, (0b10,), (0b01,))
        )

    def test_flat_step_fails_corollary(self, B2):
        # b({1,2}; {{1},{2}}) at x1*x2*y2: degree 3, as b({1,2}; {{2}})
        C = tampered(B2, 2, 0, multidegree=monomial(0b11, 0b10, 2))
        assert verdict(check_lemma_corollary, C) == (
            "lemma1_corollary", False, (0b11, (0b10,), (0b01, 0b10))
        )

    def test_non_boolean_interval_fails_bijection(self, CHAIN):
        # b({1,2}; {{1}}) moved to [empty, {1,2}], which has three elements
        C = tampered(CHAIN, 1, 1, multidegree=monomial(0b11, 0b11, 2))
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
