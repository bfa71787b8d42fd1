import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hibires
from hibires import resolution
from hibires.errors import ConsistencyError, HomDegreeZero, TooManyNeighbors
from hibires.ideals import hibi_ideal, lcm_closure, monomial
from hibires.lattice import random_sublattice, validate_sublattice
from hibires.resolution import (
    BasisElement,
    betti_table_from_basis,
    build_resolution,
    differential,
    multidegree_of,
    resolution_basis,
    strand_exactness,
    verify_complex,
    verify_minimality,
)
from hibires.checks import _mutate_differential


class TestBasis:
    def test_chain_level_ranks(self, CHAIN):
        levels = resolution_basis(CHAIN)
        assert [len(lv) for lv in levels] == [3, 2]

    def test_chain_multidegrees(self, CHAIN):
        assert multidegree_of(CHAIN, 0b01, ()) == monomial(0b01, 0b10, 2)
        # b({1}; {empty}) has meet the empty set, so Y over everything
        assert multidegree_of(CHAIN, 0b01, (0,)) == monomial(0b01, 0b11, 2)
        assert multidegree_of(CHAIN, 0b11, (0b01,)) == monomial(0b11, 0b10, 2)

    def test_b2_top_element(self, B2):
        levels = resolution_basis(B2)
        assert [len(lv) for lv in levels] == [4, 4, 1]
        (top,) = levels[2]
        assert top.p == 0b11 and top.S == (0b01, 0b10)
        assert top.multidegree == monomial(0b11, 0b11, 2)

    def test_neighbor_cap(self, B2, monkeypatch):
        monkeypatch.setattr(resolution, "NEIGHBOR_CAP", 1)
        with pytest.raises(TooManyNeighbors):
            resolution_basis(B2)

    def test_neighbor_cap_counts_the_whole_basis(self, B2, monkeypatch):
        # every |N(p)| <= 2, but the basis has 9 > 2^2 elements
        monkeypatch.setattr(resolution, "NEIGHBOR_CAP", 2)
        with pytest.raises(TooManyNeighbors):
            resolution_basis(B2)

    @pytest.mark.parametrize("n, refused", [(12, False), (13, True)])
    def test_boolean_basis_guard(self, n, refused, monkeypatch):
        # B_n has a basis of 3^n elements: B_12 is enumerated, B_13 not
        class Enumerated(Exception):
            pass

        def stop(*args):
            raise Enumerated

        monkeypatch.setattr(resolution, "multidegree_of", stop)
        L = validate_sublattice(range(1 << n), n)
        with pytest.raises(TooManyNeighbors if refused else Enumerated):
            resolution_basis(L)

    @given(st.integers(2, 6), st.integers(0, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_level_ranks_formula(self, n, seeds, seed):
        L = random_sublattice(n, seeds, seed)
        levels = resolution_basis(L)
        for i, lv in enumerate(levels):
            assert len(lv) == sum(
                comb(len(L.neighbors(p)), i) for p in L.elements
            )


class TestDifferential:
    def test_degree_zero_raises(self, CHAIN):
        g = BasisElement(0b01, (), multidegree_of(CHAIN, 0b01, ()))
        with pytest.raises(HomDegreeZero):
            differential(CHAIN, g)

    def test_chain_explicit(self, CHAIN):
        # d b({1}; {empty}) = y1 * b({1}; {}) - x1 * b(empty; {})
        g = BasisElement(0b01, (0,), multidegree_of(CHAIN, 0b01, (0,)))
        terms = differential(CHAIN, g)
        assert sorted(terms) == sorted(
            [
                ((0b01, ()), 1, monomial(0, 0b01, 2)),
                ((0, ()), -1, monomial(0b01, 0, 2)),
            ]
        )

    def test_homogeneity(self, FIG1):
        for level in resolution_basis(FIG1)[1:]:
            for g in level:
                for (q, T), _, coeff in differential(FIG1, g):
                    assert coeff & ~g.multidegree == 0
                    assert multidegree_of(FIG1, q, T) | coeff == g.multidegree

    def test_term_count(self, FIG1):
        for level in resolution_basis(FIG1)[1:]:
            for g in level:
                assert len(differential(FIG1, g)) == 2 * g.hom_degree


class TestComplex:
    @pytest.mark.parametrize("name", ["E1", "K22", "CHAIN", "B2", "FIG1"])
    def test_d_squared_and_minimality(self, name, request):
        L = request.getfixturevalue(name)
        C = build_resolution(L)
        assert verify_complex(C)
        assert verify_minimality(C)

    def test_mutated_complex_fails(self, B2):
        C = build_resolution(B2)
        _mutate_differential(C)
        assert not verify_complex(C)

    def test_minimality_detects_unit_entry(self, B2):
        # splice a constant entry in by hand; the checker must flag it
        C = build_resolution(B2)
        tpos, sign, _ = C.diffs[0][0][0]
        C.diffs[0][0][0] = (tpos, sign, 0)
        assert not verify_minimality(C)

    def test_overlapping_product_fails(self, B2):
        # an entry sharing a variable with the next differential's entries
        # has no squarefree product: a failing result, not an exception
        C = build_resolution(B2)
        tpos, sign, _ = C.diffs[1][0][0]
        C.diffs[1][0][0] = (tpos, sign, monomial(0b11, 0b11, 2))
        result = verify_complex(C)
        assert not result
        assert result.failure[0] == 2
        assert result.failure[2][0] == monomial(0b11, 0b11, 2)

    def test_overlapping_augmentation_fails(self, B2):
        C = build_resolution(B2)
        tpos, sign, _ = C.diffs[0][0][0]
        C.diffs[0][0][0] = (tpos, sign, monomial(0b11, 0b11, 2))
        result = verify_complex(C)
        assert not result
        assert result.failure[0] == "augmentation"
        assert result.failure[2][0] == monomial(0b11, 0b11, 2)

    @pytest.mark.parametrize("name", ["E1", "K22", "CHAIN", "B2"])
    def test_strand_exactness_everywhere(self, name, request):
        L = request.getfixturevalue(name)
        C = build_resolution(L)
        H = hibi_ideal(L)
        for b in lcm_closure(H):
            assert strand_exactness(C, H, b)

    def test_strand_exactness_fields_agree(self, B2):
        C = build_resolution(B2)
        H = hibi_ideal(B2)
        for b in lcm_closure(H):
            assert strand_exactness(C, H, b, field=2)
            assert strand_exactness(C, H, b, field=32749)

    @given(st.integers(2, 5), st.integers(0, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_complexes(self, n, seeds, seed):
        L = random_sublattice(n, seeds, seed)
        C = build_resolution(L)
        assert verify_complex(C)
        assert verify_minimality(C)


# Replaces the first coefficient of every differential by the unit (the
# monomial 0); run both in-process and in a python -O subprocess.
WRONG_COEFFICIENT = """
import hibires.resolution as r
from hibires.errors import ConsistencyError
from hibires.fixtures import b2

right = r.differential

def wrong(L, g):
    terms = right(L, g)
    target, sign, _ = terms[0]
    return [(target, sign, 0)] + terms[1:]

r.differential = wrong
try:
    r.build_resolution(b2())
except ConsistencyError as exc:
    print(exc)
finally:
    r.differential = right
"""


class TestConsistencyChecks:
    def test_wrong_coefficient_raises(self, capsys):
        exec(WRONG_COEFFICIENT, {})
        assert "not homogeneous" in capsys.readouterr().out

    def test_wrong_coefficient_raises_under_optimize(self):
        # the checks are plain raises, so python -O keeps them
        src = str(Path(hibires.__file__).resolve().parent.parent)
        code = f"import sys; sys.path.insert(0, {src!r})\n" + WRONG_COEFFICIENT
        out = subprocess.run(
            [sys.executable, "-O", "-I", "-c", code],
            capture_output=True, text=True, check=True,
        )
        assert "not homogeneous" in out.stdout

    def test_unknown_target_raises(self, B2, monkeypatch):
        right = resolution.differential

        def stray(L, g):
            _, sign, coeff = right(L, g)[0]
            return [((g.p, (0b111,)), sign, coeff)]

        monkeypatch.setattr(resolution, "differential", stray)
        with pytest.raises(ConsistencyError, match="not a basis element"):
            build_resolution(B2)

    def test_target_collision_raises(self, B2):
        # a malformed S repeating a neighbor sends two terms to b(p; ())
        S = (0b01, 0b01)
        g = BasisElement(0b11, S, multidegree_of(B2, 0b11, S))
        with pytest.raises(ConsistencyError, match="collided"):
            differential(B2, g)


class TestBettiFromBasis:
    def test_chain_totals(self, CHAIN):
        T = betti_table_from_basis(build_resolution(CHAIN))
        assert T.totals() == {0: 3, 1: 2}

    def test_multiplicity_one(self, FIG1):
        T = betti_table_from_basis(build_resolution(FIG1))
        assert all(v == 1 for v in T.entries.values())

    def test_distinct_multidegrees_within_level(self, FIG1):
        # one basis element per (level, multidegree): the distinct-meets lemma
        for i, level in enumerate(resolution_basis(FIG1)):
            degs = [g.multidegree for g in level]
            assert len(degs) == len(set(degs))
