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
from hibires.fixtures import FIXTURES, fixture_lattice
from hibires.ideals import hibi_ideal, lcm_closure, monomial
from hibires.lattice import random_corpus, random_sublattice, validate_sublattice
from hibires.resolution import (
    betti_table_from_basis,
    build_resolution,
    differential,
    label,
    resolution_basis,
    strand_exactness,
    verify_complex,
    verify_minimality,
)
from hibires.checks import _mutate_differential

from conftest import (
    basis_element,
    crown_lattice,
    reference_resolution,
    reference_strand_exactness,
)


class TestBasis:
    def test_chain_level_ranks(self, CHAIN):
        levels = resolution_basis(CHAIN)
        assert [len(lv) for lv in levels] == [3, 2]

    def test_chain_multidegrees(self, CHAIN):
        degrees = {
            label(CHAIN, m): m for level in resolution_basis(CHAIN) for m in level
        }
        assert degrees[0b01, ()] == monomial(0b01, 0b10, 2)
        # b({1}; {empty}) has meet the empty set, so Y over everything
        assert degrees[0b01, (0,)] == monomial(0b01, 0b11, 2)
        assert degrees[0b11, (0b01,)] == monomial(0b11, 0b10, 2)

    def test_b2_top_element(self, B2):
        levels = resolution_basis(B2)
        assert [len(lv) for lv in levels] == [4, 4, 1]
        (top,) = levels[2]
        assert label(B2, top) == (0b11, (0b01, 0b10))
        assert top == monomial(0b11, 0b11, 2)

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

        monkeypatch.setattr(resolution, "lattice_generator", stop)
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
        g = basis_element(CHAIN, 0b01, ())
        with pytest.raises(HomDegreeZero):
            differential(CHAIN, g)

    def test_chain_explicit(self, CHAIN):
        # d b({1}; {empty}) = y1 * b({1}; {}) - x1 * b(empty; {})
        g = basis_element(CHAIN, 0b01, (0,))
        terms = differential(CHAIN, g)
        assert sorted(terms) == sorted(
            [
                (monomial(0b01, 0b10, 2), 1, monomial(0, 0b01, 2)),
                (monomial(0, 0b11, 2), -1, monomial(0b01, 0, 2)),
            ]
        )

    def test_homogeneity(self, FIG1):
        for level in resolution_basis(FIG1)[1:]:
            for m in level:
                for target, _, coeff in differential(FIG1, m):
                    assert coeff & ~m == 0
                    assert target | coeff == m

    def test_term_count(self, FIG1):
        for i, level in enumerate(resolution_basis(FIG1)[1:], start=1):
            for m in level:
                assert len(differential(FIG1, m)) == 2 * i


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
        # a term targeting its own source has the coefficient m / m = 1; the
        # checker must flag it
        C = build_resolution(B2)
        m = C.levels[1][0]
        _, sign = C.d[m][0]
        C.d[m][0] = (m, sign)
        result = verify_minimality(C)
        assert not result
        assert result.failure == (1, m, m)

    @pytest.mark.parametrize(
        "L",
        [
            fixture_lattice("B2"), fixture_lattice("CHAIN"),
            fixture_lattice("FIG1"), validate_sublattice(range(8), 3),
        ],
        ids=["B2", "CHAIN", "FIG1", "B_3"],
    )
    def test_flipped_sign_fails_at_its_source(self, L):
        # a flipped term (t, s) of d(m) changes m's own composite by
        # -2 * s * s' at every target t'' of t, and touches no other source
        # of its level or below, so d^2 = 0 first fails at m
        C = build_resolution(L)
        for i in range(1, len(C.levels)):
            for m in C.levels[i]:
                terms = C.d[m]
                for k, (target, sign) in enumerate(terms):
                    terms[k] = (target, -sign)
                    result = verify_complex(C)
                    assert not result
                    assert result.failure[:2] == (
                        i if i > 1 else "augmentation", m
                    )
                    terms[k] = (target, sign)
                    assert verify_complex(C)

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


STRAND_LATTICES = {
    "B2": lambda: fixture_lattice("B2"),
    "FIG1": lambda: fixture_lattice("FIG1"),
    "B_4": lambda: validate_sublattice(range(16), 4),
    "B_5": lambda: validate_sublattice(range(32), 5),
    "crown-3": lambda: crown_lattice(3),
    "crown-4": lambda: crown_lattice(4),
}


def strand_cases():
    """(C, H) for the fixtures, random_corpus(200, 42) and the crowns."""
    lattices = [
        *map(fixture_lattice, FIXTURES), *random_corpus(200, 42),
        crown_lattice(3), crown_lattice(4), crown_lattice(3, twin=True),
    ]
    return [(build_resolution(L), hibi_ideal(L)) for L in lattices]


class TestStrandExactness:
    # a flipped sign (d^2 != 0) must make some strands fail over Q; over
    # GF(2) the flip is no change, so every strand stays exact
    @pytest.mark.parametrize(
        "name, failing",
        [("B2", 1), ("FIG1", 5), ("B_4", 7), ("B_5", 15), ("crown-3", 12),
         ("crown-4", 33)],
    )
    def test_mutated_failing_counts(self, name, failing):
        L = STRAND_LATTICES[name]()
        C, H = build_resolution(L), hibi_ideal(L)
        _mutate_differential(C)
        closure = lcm_closure(H)
        assert sum(not strand_exactness(C, H, b) for b in closure) == failing
        assert all(strand_exactness(C, H, b, field=2) for b in closure)

    @pytest.mark.parametrize("mutate", [False, True], ids=["intact", "mutated"])
    def test_matches_reference(self, mutate):
        verdicts = {False: 0, True: 0}
        for C, H in strand_cases():
            if mutate:
                _mutate_differential(C)
            for b in lcm_closure(H):
                for field in ("Q", 2):
                    got = strand_exactness(C, H, b, field=field)
                    assert got == reference_strand_exactness(C, H, b, field=field)
                    verdicts[got] += 1
        # some strand fails exactly when the complexes are mutated
        assert (verdicts[False] > 0) == mutate

    def test_stray_target_raises(self, B2):
        # a survivor whose term names a multidegree outside the strand
        C, H = build_resolution(B2), hibi_ideal(B2)
        b = C.levels[1][0]
        _, sign = C.d[b][0]
        C.d[b][0] = (C.levels[0][-1], sign)
        with pytest.raises(ConsistencyError, match="no cell of degree 0"):
            strand_exactness(C, H, b)


# Replaces the first coefficient of every differential by the unit (the
# monomial 0); run both in-process and in a python -O subprocess.
WRONG_COEFFICIENT = """
import hibires.resolution as r
from hibires.errors import ConsistencyError
from hibires.fixtures import b2

right = r.differential

def wrong(L, m):
    terms = right(L, m)
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


# Gives the first term of every differential the coefficient m itself, so
# target | coeff is still m but the product repeats the target's variables;
# run both in-process and in a python -O subprocess.
COEFFICIENT_SHARES_TARGET = WRONG_COEFFICIENT.replace(
    "[(target, sign, 0)]", "[(target, sign, m)]"
)


# Gives the last basis element the multidegree of the first; run both
# in-process and in a python -O subprocess.
SHARED_MULTIDEGREE = """
import hibires.resolution as r
from hibires.errors import ConsistencyError
from hibires.fixtures import b2

right = r.resolution_basis

def shared(L):
    levels = right(L)
    levels[-1][-1] = levels[0][0]
    return levels

r.resolution_basis = shared
try:
    r.build_resolution(b2())
except ConsistencyError as exc:
    print(exc)
finally:
    r.resolution_basis = right
"""


def run_optimized(code):
    """stdout of code run by python -O on this checkout's package."""
    src = str(Path(hibires.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r})\n" + code
    return subprocess.run(
        [sys.executable, "-O", "-I", "-c", code],
        capture_output=True, text=True, check=True,
    ).stdout


class TestConsistencyChecks:
    # the messages name the basis element as b(p; S) at its multidegree
    NOT_HOMOGENEOUS = (
        "entry 1 of b({1}; {empty}) at x1*y1*y2 is not homogeneous\n"
    )
    SHARES_TARGET = (
        "entry x1*y1*y2 of b({1}; {empty}) at x1*y1*y2 is not homogeneous\n"
    )

    def test_wrong_coefficient_raises(self, capsys):
        exec(WRONG_COEFFICIENT, {})
        assert capsys.readouterr().out == self.NOT_HOMOGENEOUS

    def test_wrong_coefficient_raises_under_optimize(self):
        # the checks are plain raises, so python -O keeps them
        assert run_optimized(WRONG_COEFFICIENT) == self.NOT_HOMOGENEOUS

    def test_coefficient_sharing_target_raises(self, capsys):
        exec(COEFFICIENT_SHARES_TARGET, {})
        assert capsys.readouterr().out == self.SHARES_TARGET

    def test_coefficient_sharing_target_raises_under_optimize(self):
        assert run_optimized(COEFFICIENT_SHARES_TARGET) == self.SHARES_TARGET

    def test_shared_multidegree_raises(self, capsys):
        exec(SHARED_MULTIDEGREE, {})
        assert "share a multidegree" in capsys.readouterr().out

    def test_shared_multidegree_raises_under_optimize(self):
        out = run_optimized(SHARED_MULTIDEGREE)
        assert "share a multidegree" in out

    def test_unknown_target_raises(self, FIG1, monkeypatch):
        right = resolution.differential

        def stray(L, m):
            # no basis element has the unit multidegree
            _, sign, coeff = right(L, m)[0]
            return [(monomial(0, 0, L.n), sign, coeff)]

        monkeypatch.setattr(resolution, "differential", stray)
        with pytest.raises(ConsistencyError) as exc:
            build_resolution(FIG1)
        assert str(exc.value) == (
            "differential of b({3}; {empty}) at x3*y1*y2*y3*y4*y5*y6*y7 "
            "targets degree 1, not a basis element"
        )

    def test_wrong_level_target_raises(self, B2, monkeypatch):
        right = resolution.differential

        def upward(L, m):
            # m itself is a basis element, one level above the right one
            _, sign, coeff = right(L, m)[0]
            return [(m, sign, coeff)]

        monkeypatch.setattr(resolution, "differential", upward)
        with pytest.raises(ConsistencyError, match="lands in level 1"):
            build_resolution(B2)

    def test_level_rank_mismatch_raises(self, B2, monkeypatch):
        right = resolution.resolution_basis

        def short(L):
            # drop the top element b({1,2}; N({1,2})), which no term targets
            levels = right(L)
            levels[-1].pop()
            return levels

        monkeypatch.setattr(resolution, "resolution_basis", short)
        with pytest.raises(ConsistencyError, match=r"level ranks \[4, 4, 0\]"):
            build_resolution(B2)


def assert_matches_reference(L):
    C = build_resolution(L)
    assert (C.levels, C.d) == reference_resolution(L)


class TestAgainstReference:
    # the (p, S)-labelled differential of conftest, found through meets,
    # against the multidegree-keyed one

    @pytest.mark.parametrize("name", ["E1", "K22", "CHAIN", "B2", "FIG1"])
    def test_fixtures(self, name, request):
        assert_matches_reference(request.getfixturevalue(name))

    def test_random_corpus(self):
        for L in random_corpus(200, 42):
            assert_matches_reference(L)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_boolean(self, n):
        assert_matches_reference(validate_sublattice(range(1 << n), n))

    @given(st.integers(1, 8), st.integers(0, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random(self, n, seeds, seed):
        assert_matches_reference(random_sublattice(n, seeds, seed))


class TestBettiFromBasis:
    def test_chain_totals(self, CHAIN):
        T = betti_table_from_basis(build_resolution(CHAIN))
        assert T.totals() == {0: 3, 1: 2}

    def test_multiplicity_one(self, FIG1):
        T = betti_table_from_basis(build_resolution(FIG1))
        assert all(v == 1 for v in T.entries.values())

    def test_distinct_multidegrees_within_level(self, FIG1):
        # one basis element per (level, multidegree): the distinct-meets lemma
        for level in resolution_basis(FIG1):
            assert len(level) == len(set(level))
