from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hibires import ideals, oracle
from hibires.betti import BettiTable
from hibires.errors import ClosureTooLarge, ZeroIdeal
from hibires.fixtures import fixture_lattice
from hibires.graphs import BipartiteGraph, graph_from_lattice
from hibires.ideals import (
    SquarefreeIdeal,
    edge_ideal,
    hibi_ideal,
    lcm_closure,
    monomial,
)
from hibires.lattice import random_sublattice, validate_sublattice
from hibires.oracle import (
    SimplicialComplex,
    _divisors,
    _fold,
    _smaller_side,
    betti_oracle,
    betti_value_at,
    graded_betti_in_degree,
    reduced_homology_ranks,
    total_betti_in_degree,
    upper_koszul_complex,
)

from conftest import crown_lattice

SMALL_FIXTURES = ["E1", "CHAIN", "B2", "K22"]


def koszul_reference(I, b):
    """Upper Koszul complex K^b by the exhaustive scan of all 2^|b| subsets
    of supp(b): the reference the face generator is checked against."""
    gens = [g for g in I.gens if g & ~b == 0]
    faces = {}
    sub = b
    while True:
        rest = b & ~sub
        if any(g & ~rest == 0 for g in gens):
            faces.setdefault(sub.bit_count() - 1, []).append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & b
    all_faces = {f for fs in faces.values() for f in fs}
    for f in all_faces:
        for i in range(2 * I.n):
            if f >> i & 1:
                assert f & ~(1 << i) in all_faces, "complex not downward closed"
    return SimplicialComplex({d: sorted(fs) for d, fs in faces.items()})


def reference_table(I, field="Q"):
    """Betti table with beta_{i,b} = dim H~_{i-1}(K^b) on the reference K^b."""
    table = BettiTable(I.n, "ideal")
    for b in lcm_closure(I):
        for d, h in reduced_homology_ranks(koszul_reference(I, b), field).items():
            table.add(d + 1, b, h)
    return table


def both_ideals(L):
    return hibi_ideal(L), edge_ideal(graph_from_lattice(L))


def simplex_complex(k):
    """Full simplex on k vertices, including the empty face."""
    faces = {}
    for sub in range(1 << k):
        faces.setdefault(sub.bit_count() - 1, []).append(sub)
    return SimplicialComplex({d: sorted(f) for d, f in faces.items()})


def sphere_complex(k):
    """Boundary of the k-vertex simplex: a (k-2)-sphere."""
    full = (1 << k) - 1
    faces = {}
    for sub in range(1 << k):
        if sub != full:
            faces.setdefault(sub.bit_count() - 1, []).append(sub)
    return SimplicialComplex({d: sorted(f) for d, f in faces.items()})


class TestHomologyEngine:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_simplex_is_acyclic(self, k):
        assert reduced_homology_ranks(simplex_complex(k)) == {}

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_sphere(self, k):
        assert reduced_homology_ranks(sphere_complex(k)) == {k - 2: 1}

    def test_two_points(self):
        K = SimplicialComplex({-1: [0], 0: [0b01, 0b10]})
        assert reduced_homology_ranks(K) == {0: 1}

    def test_empty_complex(self):
        K = SimplicialComplex({-1: [0]})
        assert reduced_homology_ranks(K) == {-1: 1}

    def test_void_complex(self):
        assert reduced_homology_ranks(SimplicialComplex({})) == {}

    @pytest.mark.parametrize("k", [3, 4])
    def test_fields_agree_on_spheres(self, k):
        K = sphere_complex(k)
        assert reduced_homology_ranks(K, field=2) == {k - 2: 1}
        assert reduced_homology_ranks(K, field=32749) == {k - 2: 1}


class TestUpperKoszul:
    def test_generator_gives_simplex_minus_nothing(self):
        # at a generator's own degree only the empty face survives removal
        I = SquarefreeIdeal.of(1, [monomial(0b1, 0b1, 1)])
        K = upper_koszul_complex(I, monomial(0b1, 0b1, 1))
        assert K.faces == {-1: [0]}

    def test_chain_hibi_top_lcm_is_acyclic(self, CHAIN):
        # the complex at x1*x2*y1*y2 is the path x1-x2-y1-y2
        H = hibi_ideal(CHAIN)
        K = upper_koszul_complex(H, monomial(0b11, 0b11, 2))
        assert reduced_homology_ranks(K) == {}

    def test_chain_hibi_syzygy_degree(self, CHAIN):
        # two disconnected vertices at x1*y1*y2: one first syzygy
        H = hibi_ideal(CHAIN)
        K = upper_koszul_complex(H, monomial(0b01, 0b11, 2))
        assert reduced_homology_ranks(K) == {0: 1}

    @pytest.mark.parametrize("name", SMALL_FIXTURES)
    def test_matches_exhaustive_scan(self, name):
        for I in both_ideals(fixture_lattice(name)):
            for b in lcm_closure(I):
                assert upper_koszul_complex(I, b) == koszul_reference(I, b)


class TestBettiOracle:
    def test_chain_hibi_totals(self, CHAIN):
        T = betti_oracle(hibi_ideal(CHAIN))
        assert T.totals() == {0: 3, 1: 2}

    def test_chain_edge_quotient(self, CHAIN):
        T = betti_oracle(edge_ideal(graph_from_lattice(CHAIN))).to_quotient()
        assert T.pd() == 2
        assert T.depth(4) == 2
        assert T.reg() == 1

    def test_k22_edge_quotient(self, K22):
        T = betti_oracle(edge_ideal(graph_from_lattice(K22))).to_quotient()
        assert (T.depth(4), T.reg(), T.pd()) == (1, 1, 3)

    def test_zero_ideal(self):
        with pytest.raises(ZeroIdeal):
            betti_oracle(SquarefreeIdeal(1, ()))

    @given(st.integers(2, 4), st.integers(0, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_field_independence_small(self, n, seeds, seed):
        # squarefree Betti numbers here happen to be characteristic-free;
        # a disagreement would be a finding worth recording
        H = hibi_ideal(random_sublattice(n, seeds, seed))
        assert betti_oracle(H).entries == betti_oracle(H, field=2).entries


class TestAgainstReference:
    """betti_oracle reads each multidegree off the smaller of Delta_b and
    K^b; the reference reads every one off the exhaustive K^b scan."""

    @pytest.mark.parametrize("name", SMALL_FIXTURES)
    def test_fixtures_take_both_sides(self, name):
        sides = set()
        for I in both_ideals(fixture_lattice(name)):
            sides |= {_smaller_side(I, b)[1] for b in lcm_closure(I)}
            for field in ("Q", 2):
                assert betti_oracle(I, field).entries == \
                    reference_table(I, field).entries
        assert sides == {True, False}

    @given(st.integers(1, 4), st.integers(0, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_lattices(self, n, seeds, seed):
        for I in both_ideals(random_sublattice(n, seeds, seed)):
            for field in ("Q", 2):
                assert betti_oracle(I, field).entries == \
                    reference_table(I, field).entries


class TestCheapPaths:
    @pytest.mark.parametrize("name", SMALL_FIXTURES)
    def test_value_at_matches_table(self, name):
        I = edge_ideal(graph_from_lattice(fixture_lattice(name)))
        T = betti_oracle(I)
        for b in lcm_closure(I):
            for i in range(5):
                assert betti_value_at(I, b, i) == T.value(i, b)

    def test_total_in_degree(self, K22):
        I = edge_ideal(graph_from_lattice(K22))
        T = betti_oracle(I)
        for i in range(4):
            assert total_betti_in_degree(I, i) == T.totals().get(i, 0)

    def test_graded_in_degree(self, CHAIN):
        I = edge_ideal(graph_from_lattice(CHAIN))
        T = betti_oracle(I)
        g = T.graded()
        for i in range(3):
            for d in range(1, 5):
                assert graded_betti_in_degree(I, i, d) == g.get((i, d), 0)


# --- the fold path --------------------------------------------------------

# the induced 6-cycle of the k = 3 crown's graph: x1 x3 x5 y2 y4 y6
CROWN3_CYCLE = monomial(0b010101, 0b101010, 6)


def residues(I):
    """The multidegrees of the closure whose fold leaves a complex to
    build: neither a cone nor a perfect matching."""
    out = []
    for b in lcm_closure(I, cap=200000):
        folded = _fold(b, _divisors(I, b))
        if folded is not None and not folded[1]:
            out.append(b)
    return out


def unfolded_ranks(I, b, field="Q"):
    """{i: beta_{i,b}(I)} from the smaller of Delta_b and K^b on all of
    supp(b), with no fold."""
    K, on_delta = _smaller_side(I, b)
    return {
        b.bit_count() - d - 2 if on_delta else d + 1: h
        for d, h in reduced_homology_ranks(K, field).items()
    }


def unfolded_table(I, field="Q"):
    table = BettiTable(I.n, "ideal")
    for b in lcm_closure(I, cap=200000):
        for i, h in unfolded_ranks(I, b, field).items():
            table.add(i, b, h)
    return table


def n2_lattices():
    """The four sublattices of B_2 with both bounds."""
    return [validate_sublattice(f, 2) for f in
            ({0, 3}, {0, 1, 3}, {0, 2, 3}, {0, 1, 2, 3})]


N2_HIBI = [f"hibi-n2-{k}" for k in range(4)]
CROWNS = {"crown3": (3, False), "crown4": (4, False),
          "twinned-crown3": (3, True)}
# quadratic ideals whose fold path is compared with the unfolded one;
# the small ones also at every b, not only the closure
SMALL_FOLD_CASES = ["E1", "K22", "CHAIN", "B2", *N2_HIBI]
FOLD_CASES = [*SMALL_FOLD_CASES, "FIG1", *CROWNS]


def quadratic_case(name):
    """The Hibi ideal of a sublattice of B_2, or the edge ideal of a
    fixture or crown lattice."""
    if name in N2_HIBI:
        return hibi_ideal(n2_lattices()[N2_HIBI.index(name)])
    if name in CROWNS:
        return edge_ideal(graph_from_lattice(crown_lattice(*CROWNS[name])))
    return edge_ideal(graph_from_lattice(fixture_lattice(name)))


def assert_fold_matches_unfolded(I, expected, monkeypatch, field="Q"):
    """The table, and the single value at every (i, b) of the closure, equal
    the unfolded oracle's."""
    # FIG1's edge closure has 6,973 elements, past CLOSURE_CAP
    monkeypatch.setattr(oracle, "lcm_closure",
                        partial(ideals.lcm_closure, cap=200000))
    assert betti_oracle(I, field).entries == expected.entries
    for b in lcm_closure(I, cap=200000):
        for i in range(b.bit_count() + 1):
            assert betti_value_at(I, b, i, field) == expected.value(i, b)


class TestFold:
    @pytest.mark.parametrize("name", FOLD_CASES)
    def test_matches_unfolded(self, name, monkeypatch):
        I = quadratic_case(name)
        assert all(g.bit_count() == 2 for g in I.gens)
        assert_fold_matches_unfolded(I, unfolded_table(I), monkeypatch)

    @pytest.mark.parametrize("name", SMALL_FOLD_CASES)
    def test_every_subset_over_gf2(self, name):
        # also the b outside the closure, where Delta_b is a cone
        I = quadratic_case(name)
        support = 0
        for g in I.gens:
            support |= g
        sub = support
        while True:
            expected = unfolded_ranks(I, sub, field=2)
            for i in range(sub.bit_count() + 1):
                assert betti_value_at(I, sub, i, field=2) == expected.get(i, 0)
            if not sub:
                break
            sub = (sub - 1) & support

    @pytest.mark.parametrize("k, i, value", [(3, 3, 2), (4, 4, 1)])
    def test_crown_cycle(self, k, i, value):
        # the cycle C_2k on x1 x3 ... y2 y4 ... is the crown's one residue;
        # Ind(C_6) is a wedge of two circles, Ind(C_8) a 2-sphere (Kozlov 1999)
        I = edge_ideal(graph_from_lattice(crown_lattice(k)))
        full = (1 << 2 * k) - 1
        cycle = monomial(0x55 & full, 0xAA & full, 2 * k)
        assert residues(I) == [cycle]
        assert betti_value_at(I, cycle, i) == value
        assert betti_oracle(I).value(i, cycle) == value

    def test_residue_after_a_fold_is_shifted(self):
        # x7 is x1's twin on the 6-cycle plus x7, so one fold leaves C_6:
        # beta_{3+1} at the seven vertices
        I = edge_ideal(graph_from_lattice(crown_lattice(3, twin=True)))
        b = monomial(0b1010101, 0b0101010, 7)
        assert _fold(b, _divisors(I, b))[0].bit_count() == 6
        assert betti_value_at(I, b, 4) == 2
        assert betti_oracle(I).value(4, b) == 2

    def test_matching_and_cone(self, K22, CHAIN):
        # K22: x1 and x2 are twins on the star x1 - y1 - x2, and one fold
        # leaves a single edge; CHAIN: on the path y1 - x1 - y2 - x2, N(y1)
        # lies in N(y2), and dropping y2 isolates x2
        star = monomial(0b11, 0b01, 2)
        I = edge_ideal(graph_from_lattice(K22))
        r, matching = _fold(star, _divisors(I, star))
        assert matching and r.bit_count() == 2 and r & ~star == 0
        path = monomial(0b11, 0b11, 2)
        I = edge_ideal(graph_from_lattice(CHAIN))
        assert _fold(path, _divisors(I, path)) is None

    @given(st.integers(1, 4), st.integers(0, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_lattices(self, n, seeds, seed):
        I = edge_ideal(graph_from_lattice(random_sublattice(n, seeds, seed)))
        with pytest.MonkeyPatch.context() as mp:
            assert_fold_matches_unfolded(I, unfolded_table(I), mp)

    @given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7))
                   .filter(lambda e: e[0] < e[1]), min_size=1, max_size=16))
    @settings(max_examples=30, deadline=None)
    def test_random_graphs(self, edges):
        # any quadratic ideal on eight variables, odd cycles included
        I = SquarefreeIdeal.of(4, [1 << u | 1 << v for u, v in edges])
        with pytest.MonkeyPatch.context() as mp:
            for field in ("Q", 2):
                expected = unfolded_table(I, field)
                assert_fold_matches_unfolded(I, expected, mp, field)


class TestFaceCap:
    """Only the complexes the oracle builds count toward the cap.  On the
    k = 3 crown's edge ideal the fold leaves one, Ind(C_6) at
    x1x3x5*y2y4y6; the non-quadratic Hibi ideal of B_3 builds one at every
    multidegree."""

    def assert_cap_is_exact(self, I, built, monkeypatch):
        # at the largest complex's face count nothing changes; one below
        # it the oracle refuses
        largest = max(
            sum(map(len, _smaller_side(I, b)[0].faces.values())) for b in built
        )
        expected = betti_oracle(I).entries
        monkeypatch.setattr(oracle, "FACE_CAP", largest)
        assert betti_oracle(I).entries == expected
        monkeypatch.setattr(oracle, "FACE_CAP", largest - 1)
        with pytest.raises(ClosureTooLarge, match="faces"):
            betti_oracle(I)

    def test_cap_is_exact(self, monkeypatch):
        I = edge_ideal(graph_from_lattice(crown_lattice(3)))
        assert residues(I) == [CROWN3_CYCLE]
        self.assert_cap_is_exact(I, residues(I), monkeypatch)

    def test_hibi_cap_is_exact(self, monkeypatch):
        H = hibi_ideal(validate_sublattice(range(8), 3))
        self.assert_cap_is_exact(H, lcm_closure(H), monkeypatch)

    def test_value_at_is_capped(self, monkeypatch):
        I = edge_ideal(graph_from_lattice(crown_lattice(3)))
        monkeypatch.setattr(oracle, "FACE_CAP", 1)
        with pytest.raises(ClosureTooLarge, match="faces"):
            total_betti_in_degree(I, 3)

    def test_hibi_value_at_is_capped(self, monkeypatch):
        H = hibi_ideal(validate_sublattice(range(8), 3))
        monkeypatch.setattr(oracle, "FACE_CAP", 1)
        with pytest.raises(ClosureTooLarge, match="faces"):
            total_betti_in_degree(H, 1)
