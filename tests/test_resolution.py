import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hibires
from hibires import resolution
from hibires.bitset import positions_of
from hibires.errors import TooLarge, TooManyNeighbors
from hibires.fixtures import FIXTURES, fixture_lattice
from hibires.ideals import hibi_ideal, lcm_closure, monomial
from hibires.lattice import (
    preorder_lattice,
    random_corpus,
    random_sublattice,
    validate_sublattice,
)
from hibires.resolution import (
    betti_table_from_basis,
    build_resolution,
    label,
    mutate_differential,
    resolution_basis,
    strand_exactness,
    verify_complex,
    verify_minimality,
)

from conftest import (
    basis_element,
    crown_lattice,
    reference_resolution,
    reference_strand_exactness,
    set_term,
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
        # level-0 elements map through the augmentation: d has no entry
        C = build_resolution(CHAIN)
        with pytest.raises(KeyError):
            C.d[basis_element(CHAIN, 0b01, ())]
        assert C.d.keys() == {m for level in C.levels[1:] for m in level}

    def test_chain_explicit(self, CHAIN):
        # d b({1}; {empty}) = y1 * b({1}; {}) - x1 * b(empty; {})
        g = basis_element(CHAIN, 0b01, (0,))
        targets, signs = build_resolution(CHAIN).d[g]
        assert targets == (monomial(0b01, 0b10, 2), monomial(0, 0b11, 2))
        assert signs == (1, -1)
        assert [g & ~t for t in targets] == [
            monomial(0, 0b01, 2), monomial(0b01, 0, 2)
        ]

    def test_homogeneity(self, FIG1):
        # the coefficients m / target of each class c of S are y^c, then
        # x^c, and each target properly divides m
        C = build_resolution(FIG1)
        for level in C.levels[1:]:
            for m in level:
                p, S = label(FIG1, m)
                targets, _ = C.d[m]
                assert all(t & ~m == 0 and t != m for t in targets)
                coeffs = [m & ~t for t in targets]
                assert coeffs == [
                    (p & ~q) << k * FIG1.n for q in S for k in (0, 1)
                ]

    def test_term_count(self, FIG1):
        C = build_resolution(FIG1)
        for i, level in enumerate(C.levels[1:], start=1):
            for m in level:
                targets, signs = C.d[m]
                assert len(targets) == len(signs) == 2 * i


# Prints the bytes build_resolution(B_8) retains per basis element, as
# tracemalloc counts them.
FOOTPRINT = """
import tracemalloc
from hibires.lattice import validate_sublattice
from hibires.resolution import build_resolution

L = validate_sublattice(range(1 << 8), 8)
tracemalloc.start()
C = build_resolution(L)
retained, _ = tracemalloc.get_traced_memory()
print(retained / sum(C.level_ranks()))
"""


class TestStorage:
    # retained bytes per basis element after build_resolution(B_8): 220.8
    # (1,448,640 over 6,561), plus 25 %; the (target, sign) lists it
    # replaced kept 660.7, and unshared sign tuples 302
    FOOTPRINT_BOUND = 276

    def test_pairs_of_tuples_sharing_the_basis_ints(self):
        # d[m] is one pair of tuples (targets, signs), and each target is
        # the int object its level holds: the multidegrees of B_8 pass 256,
        # so no small-int cache makes them identical
        C = build_resolution(validate_sublattice(range(1 << 8), 8))
        for i in range(1, len(C.levels)):
            below = {id(t) for t in C.levels[i - 1]}
            for m in C.levels[i]:
                pair = C.d[m]
                assert type(pair) is tuple and len(pair) == 2
                assert all(type(part) is tuple for part in pair)
                assert all(id(t) in below for t in pair[0])

    def test_one_sign_tuple_per_level(self):
        # the signs (1, -1, -1, 1, ...) depend only on the level, so every
        # element of a level holds the same tuple object
        C = build_resolution(validate_sublattice(range(1 << 6), 6))
        for i in range(1, len(C.levels)):
            first = C.d[C.levels[i][0]][1]
            assert all(C.d[m][1] is first for m in C.levels[i])
            assert first == tuple(
                s for k in range(i) for s in ((1, -1), (-1, 1))[k % 2]
            )

    def test_footprint_per_basis_element(self):
        # in a fresh interpreter: tuples that earlier tests freed wait in
        # CPython's free lists, where tracemalloc does not see their reuse
        assert float(run_optimized(FOOTPRINT)) < self.FOOTPRINT_BOUND


class TestComplex:
    @pytest.mark.parametrize("name", ["E1", "K22", "CHAIN", "B2", "FIG1"])
    def test_d_squared_and_minimality(self, name, request):
        L = request.getfixturevalue(name)
        C = build_resolution(L)
        assert verify_complex(C)
        assert verify_minimality(C)

    def test_mutated_complex_fails(self, B2):
        C = build_resolution(B2)
        mutate_differential(C)
        assert not verify_complex(C)

    def test_minimality_detects_unit_entry(self, B2):
        # a term targeting its own source has the coefficient m / m = 1; the
        # checker must flag it
        C = build_resolution(B2)
        m = C.levels[1][0]
        set_term(C, m, 0, m, C.d[m][1][0])
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
                intact = C.d[m]
                for k, (target, sign) in enumerate(zip(*intact)):
                    set_term(C, m, k, target, -sign)
                    result = verify_complex(C)
                    assert not result
                    assert result.failure[:2] == (
                        i if i > 1 else "augmentation", m
                    )
                    C.d[m] = intact
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
        mutate_differential(C)
        closure = lcm_closure(H)
        assert sum(not strand_exactness(C, H, b) for b in closure) == failing
        assert all(strand_exactness(C, H, b, field=2) for b in closure)

    @pytest.mark.parametrize("mutate", [False, True], ids=["intact", "mutated"])
    def test_matches_reference(self, mutate):
        verdicts = {False: 0, True: 0}
        for C, H in strand_cases():
            if mutate:
                mutate_differential(C)
            for b in lcm_closure(H):
                for field in ("Q", 2):
                    got = strand_exactness(C, H, b, field=field)
                    assert got == reference_strand_exactness(C, H, b, field=field)
                    verdicts[got] += 1
        # some strand fails exactly when the complexes are mutated
        assert (verdicts[False] > 0) == mutate

    def test_stray_target_is_not_exact(self, B2):
        # a survivor whose term names a multidegree outside the strand: the
        # strand is no complex, so it is not exact
        C, H = build_resolution(B2), hibi_ideal(B2)
        b = C.levels[1][0]
        set_term(C, b, 0, C.levels[0][-1], C.d[b][1][0])
        assert strand_exactness(C, H, b) is False


def forged_build(fixture, forge):
    """Code that builds the resolution of a fixture over its basis levels
    changed by the statement forge and prints the refusal; run both
    in-process and in a python -O subprocess."""
    return f"""
import hibires.resolution as r
from hibires.errors import ConsistencyError
from hibires.fixtures import {fixture}

right = r.resolution_basis

def forged(L):
    levels = right(L)
    {forge}
    return levels

r.resolution_basis = forged
try:
    r.build_resolution({fixture}())
except ConsistencyError as exc:
    print(exc)
finally:
    r.resolution_basis = right
"""


# Gives CHAIN's top level b({1}; {empty}) twice, which no term looks up and
# the build has nothing to refuse in; prints the checks that fail.  Run
# both in-process and in a python -O subprocess.
SHARED_MULTIDEGREE = """
import hibires.resolution as r
from hibires.checks import run_checks
from hibires.fixtures import chain

right = r.resolution_basis

def shared(L):
    levels = right(L)
    levels[1][1] = levels[1][0]
    return levels

r.resolution_basis = shared
try:
    report = run_checks(chain())
    print(*(name for name, ok, _ in report.results if not ok))
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


# Each refusal of build_resolution, reached through a forged basis: the
# fixture, the forging statement on its levels and the message, which
# names the basis element as b(p; S) at its multidegree.
REFUSALS = {
    # FIG1's class {1, 2} cut down to y1 in b({1,2}; {empty}): the class
    # meets m without lying inside it, so y^c does not divide m
    "not_homogeneous": (
        "fig1",
        "m = 0b11 << 7 | 0b1111111; levels[1][levels[1].index(m)] = m & ~0b10",
        "entry y1*y2 of b({1,2}; {empty}) at x1*x2*y1*y3*y4*y5*y6*y7 is "
        "not homogeneous",
    ),
    # u_top dropped from level 0: the y-term of b({1,2}; {{1}}) finds it
    # in no level
    "not_a_basis_element": (
        "b2",
        "levels[0].pop()",
        "differential of b({1,2}; {{1}}) at x1*x2*y2 targets degree "
        "x1*x2, not a basis element",
    ),
    # u_top moved from level 0 to level 2
    "wrong_level": (
        "b2",
        "levels[2].append(levels[0].pop())",
        "differential of b({1,2}; {{1}}) at x1*x2*y2 targets degree "
        "x1*x2, which lands in level 2, not 0",
    ),
    # a level-0 element in place of CHAIN's top b({1,2}; {{1}}): no class
    # of its p meets its y-part, so it has no terms
    "wrong_term_count": (
        "chain",
        "levels[1][-1] = levels[0][0]",
        "differential of b(empty; {}) at y1*y2 has 0 terms, expected 2",
    ),
    # the top element b({1,2}; N({1,2})), which no term targets, dropped
    "level_ranks": (
        "b2",
        "levels[-1].pop()",
        "level ranks [4, 4, 0], expected [4, 4, 1]",
    ),
}


class TestConsistencyChecks:
    # every refusal is a plain raise, so python -O keeps it

    def refused(self, name, capsys):
        fixture, forge, _ = REFUSALS[name]
        exec(forged_build(fixture, forge), {})
        return capsys.readouterr().out

    def refused_under_optimize(self, name):
        fixture, forge, _ = REFUSALS[name]
        return run_optimized(forged_build(fixture, forge))

    @staticmethod
    def message(name):
        return REFUSALS[name][2] + "\n"

    def test_wrong_coefficient_raises(self, capsys):
        name = "not_homogeneous"
        assert self.refused(name, capsys) == self.message(name)

    def test_wrong_coefficient_raises_under_optimize(self):
        name = "not_homogeneous"
        assert self.refused_under_optimize(name) == self.message(name)

    def test_unknown_target_raises(self, capsys):
        name = "not_a_basis_element"
        assert self.refused(name, capsys) == self.message(name)

    def test_unknown_target_raises_under_optimize(self):
        name = "not_a_basis_element"
        assert self.refused_under_optimize(name) == self.message(name)

    def test_wrong_level_target_raises(self, capsys):
        name = "wrong_level"
        assert self.refused(name, capsys) == self.message(name)

    def test_wrong_level_target_raises_under_optimize(self):
        name = "wrong_level"
        assert self.refused_under_optimize(name) == self.message(name)

    def test_wrong_term_count_raises(self, capsys):
        name = "wrong_term_count"
        assert self.refused(name, capsys) == self.message(name)

    def test_wrong_term_count_raises_under_optimize(self):
        name = "wrong_term_count"
        assert self.refused_under_optimize(name) == self.message(name)

    def test_level_rank_mismatch_raises(self, capsys):
        name = "level_ranks"
        assert self.refused(name, capsys) == self.message(name)

    def test_level_rank_mismatch_raises_under_optimize(self):
        name = "level_ranks"
        assert self.refused_under_optimize(name) == self.message(name)

    # a shared multidegree is no refusal: the checks own that verdict
    SHARED = {"lemma1_distinct_meets", "basis_betti_multiplicity_one"}

    def test_shared_multidegree_fails_checks(self, capsys):
        exec(SHARED_MULTIDEGREE, {})
        assert self.SHARED <= set(capsys.readouterr().out.split())

    def test_shared_multidegree_fails_checks_under_optimize(self):
        assert self.SHARED <= set(run_optimized(SHARED_MULTIDEGREE).split())


def assert_matches_reference(L):
    C = build_resolution(L)
    assert (C.levels, C.d) == reference_resolution(L)


def random_preorder(rng, n):
    """D of a random preorder on [n], with D[j-1] = D(j): each j lies over
    each earlier index with chance 0.2, and with chance 0.15 j and j - 1
    are one class; then closed transitively."""
    D = [1 << j for j in range(n)]
    for j in range(1, n):
        D[j] |= sum(1 << i for i in range(j) if rng.random() < 0.2)
        if rng.random() < 0.15:
            D[j] |= 1 << (j - 1)
            D[j - 1] |= 1 << j
    closed = False
    while not closed:
        closed = True
        for j in range(n):
            below = D[j]
            for i in positions_of(D[j]):
                below |= D[i]
            if below != D[j]:
                D[j], closed = below, False
    return D


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

    @pytest.mark.parametrize("n", [13, 14, 15, 16])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_preorders_in_the_hundreds(self, n, seed):
        # down-set lattices of random preorders with |L| in the hundreds,
        # the shape of the graph-ingest benchmark
        rng = random.Random(seed)
        while True:
            try:
                L = preorder_lattice(random_preorder(rng, n))
            except TooLarge:
                continue
            if 100 <= len(L) < 1000:
                break
        assert_matches_reference(L)


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
