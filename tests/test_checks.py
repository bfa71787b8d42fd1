import pytest

from hibires.checks import CheckReport, check_oracle_hibi, run_checks
from hibires.ideals import render_monomial
from hibires.lattice import random_sublattice
from hibires.resolution import betti_table_from_basis, build_resolution


@pytest.mark.parametrize("name", ["E1", "K22", "CHAIN", "B2"])
def test_fixture_oracle_level(name, request):
    report = run_checks(request.getfixturevalue(name), level="oracle")
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
    check_oracle_hibi(CHAIN, table, report)
    name, ok, detail = report.results[0]
    assert (name, ok) == ("betti_formula_vs_oracle", False)
    assert detail == [(i, render_monomial(b, CHAIN.n), v + 1, v)]
