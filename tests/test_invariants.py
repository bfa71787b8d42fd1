import subprocess
import sys
from pathlib import Path

import pytest

import hibires
from hibires.errors import NotCM
from hibires.fixtures import FIXTURES, fixture_lattice
from hibires.graphs import graph_from_lattice
from hibires.ideals import edge_ideal, monomial
from hibires.invariants import (
    cm_extremal_placement_check,
    depth_edge_ring,
    extremal_graded_edge_ring,
    extremal_multigraded_edge_ring,
    extremal_multigraded_H,
    invariant_report,
    is_cohen_macaulay,
    last_betti_lower_bound,
    pd_and_reg_H,
    regularity_edge_ring,
)
from hibires.lattice import random_corpus
from hibires.oracle import betti_oracle
from hibires.resolution import build_resolution

from conftest import m


def triple(L):
    pd, _ = pd_and_reg_H(L)
    return depth_edge_ring(L), regularity_edge_ring(L), pd


class TestFixtureTriples:
    def test_e1(self, E1):
        assert triple(E1) == (1, 1, 1)

    def test_chain(self, CHAIN):
        assert triple(CHAIN) == (2, 1, 2)

    def test_b2(self, B2):
        assert triple(B2) == (2, 2, 2)

    def test_k22(self, K22):
        assert triple(K22) == (1, 1, 3)

    def test_fig1(self, FIG1):
        assert triple(FIG1) == (6, 2, 8)

    def test_pd_plus_depth(self, FIG1, K22):
        for L in (FIG1, K22):
            pd, _ = pd_and_reg_H(L)
            assert pd + depth_edge_ring(L) == 2 * L.n


class TestGradedExtremal:
    def test_e1(self, E1):
        assert extremal_graded_edge_ring(E1) == {(1, 2): 1}

    def test_chain(self, CHAIN):
        assert extremal_graded_edge_ring(CHAIN) == {(2, 3): 2}

    def test_b2(self, B2):
        assert extremal_graded_edge_ring(B2) == {(2, 4): 1}

    def test_k22(self, K22):
        assert extremal_graded_edge_ring(K22) == {(3, 4): 1}

    def test_fig1_unique_position(self, FIG1):
        assert extremal_graded_edge_ring(FIG1) == {(8, 10): 2}


class TestMultigradedExtremal:
    def test_chain_H(self, CHAIN):
        assert extremal_multigraded_H(CHAIN) == [
            (1, monomial(0b01, 0b11, 2)),
            (1, monomial(0b11, 0b10, 2)),
        ]

    def test_fig1_H_degrees(self, FIG1):
        positions = extremal_multigraded_H(FIG1)
        assert len(positions) == 5
        assert sorted((i, b.bit_count()) for i, b in positions) == [
            (1, 9),
            (2, 9),
            (2, 9),
            (2, 10),
            (2, 10),
        ]

    def test_transfer_degree_shift(self, FIG1):
        H = dict()
        for i, b in extremal_multigraded_H(FIG1):
            H[b] = i
        for i, b, v in extremal_multigraded_edge_ring(FIG1):
            assert v == 1
            assert i == b.bit_count() - H[b]


class TestBoundAndCM:
    def test_bounds(self, E1, CHAIN, B2, K22, FIG1):
        assert last_betti_lower_bound(E1) == 1
        assert last_betti_lower_bound(CHAIN) == 2
        assert last_betti_lower_bound(B2) == 1
        assert last_betti_lower_bound(K22) == 1
        assert last_betti_lower_bound(FIG1) == 3

    def test_cm_flags(self, E1, CHAIN, B2, K22, FIG1):
        assert is_cohen_macaulay(E1)
        assert is_cohen_macaulay(CHAIN)
        assert is_cohen_macaulay(B2)
        assert not is_cohen_macaulay(K22)
        assert not is_cohen_macaulay(FIG1)

    def test_cm_placement_chain(self, CHAIN):
        I = edge_ideal(graph_from_lattice(CHAIN))
        table = betti_oracle(I).to_quotient()
        assert cm_extremal_placement_check(I, table)

    def test_cm_placement_rejects_non_cm(self, K22):
        I = edge_ideal(graph_from_lattice(K22))
        table = betti_oracle(I).to_quotient()
        with pytest.raises(NotCM):
            cm_extremal_placement_check(I, table)


# Hands each subject check the wrong kind of table; run both in-process and
# in a python -O subprocess.
WRONG_SUBJECT = """
from hibires.betti import BettiTable
from hibires.errors import ConsistencyError
from hibires.graphs import graph_from_lattice
from hibires.fixtures import chain
from hibires.ideals import edge_ideal
from hibires.invariants import cm_extremal_placement_check
from hibires.lattice import random_corpus
from hibires.oracle import betti_oracle
from hibires.resolution import build_resolution

I = edge_ideal(graph_from_lattice(chain()))
for call in (
    lambda: BettiTable(2, "quotient").to_quotient(),
    lambda: cm_extremal_placement_check(I, betti_oracle(I)),
):
    try:
        call()
    except ConsistencyError as exc:
        print(exc)
"""


class TestSubjectChecks:
    EXPECTED = [
        "to_quotient needs an ideal table, got quotient",
        "the placement check needs a quotient table, got ideal",
    ]

    def test_wrong_subject_raises(self, capsys):
        exec(WRONG_SUBJECT, {})
        assert capsys.readouterr().out.splitlines() == self.EXPECTED

    def test_wrong_subject_raises_under_optimize(self):
        # the checks are plain raises, so python -O keeps them
        src = str(Path(hibires.__file__).resolve().parent.parent)
        code = f"import sys; sys.path.insert(0, {src!r})\n" + WRONG_SUBJECT
        out = subprocess.run(
            [sys.executable, "-O", "-I", "-c", code],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.splitlines() == self.EXPECTED


class TestReport:
    def test_fig1_report_json(self, FIG1):
        obj = invariant_report(FIG1)
        assert obj["depth"] == 6 and obj["pd"] == 8 and obj["reg"] == 2
        assert obj["extremal_graded"] == [{"i": 8, "j": 10, "value": 2}]
        assert sorted(map(tuple, obj["b_set"])) == [
            (1, 2, 3),
            (1, 2, 3, 4),
            (1, 2, 3, 4, 5, 6, 7),
        ]

    @pytest.mark.parametrize("name", FIXTURES)
    def test_level_ranks_match_the_basis_fixtures(self, name):
        L = fixture_lattice(name)
        ranks = invariant_report(L)["resolution_level_ranks"]
        assert ranks == build_resolution(L).level_ranks()

    def test_level_ranks_match_the_basis_corpus(self):
        for L in random_corpus(200, 42):
            ranks = invariant_report(L)["resolution_level_ranks"]
            assert ranks == build_resolution(L).level_ranks()
