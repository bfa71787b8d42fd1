from functools import partial, reduce
from itertools import islice
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hibires import ideals, oracle
from hibires.betti import BettiTable
from hibires.errors import ClosureTooLarge, ZeroIdeal
from hibires.fixtures import fig1, fixture_lattice
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


def subsets(mask):
    """Every submask of mask, from mask itself down to 0."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def support(I):
    return reduce(or_, I.gens, 0)


# --- the fold path --------------------------------------------------------

# the induced 6-cycle of the k = 3 crown's graph: x1 x3 x5 y2 y4 y6
CROWN3_CYCLE = monomial(0b010101, 0b101010, 6)


def residues(I):
    """The multidegrees of the closure whose fold leaves a complex to
    build: neither a cone nor a perfect matching."""
    out = []
    for b in lcm_closure(I, cap=200000):
        folded = _fold(b, I.graph)
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
        for sub in subsets(support(I)):
            expected = unfolded_ranks(I, sub, field=2)
            for i in range(sub.bit_count() + 1):
                assert betti_value_at(I, sub, i, field=2) == expected.get(i, 0)

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
        assert _fold(b, I.graph)[0].bit_count() == 6
        assert betti_value_at(I, b, 4) == 2
        assert betti_oracle(I).value(4, b) == 2

    def test_matching_and_cone(self, K22, CHAIN):
        # K22: x1 and x2 are twins on the star x1 - y1 - x2, and one fold
        # leaves a single edge; CHAIN: on the path y1 - x1 - y2 - x2, N(y1)
        # lies in N(y2), and dropping y2 isolates x2
        star = monomial(0b11, 0b01, 2)
        I = edge_ideal(graph_from_lattice(K22))
        r, matching = _fold(star, I.graph)
        assert matching and r.bit_count() == 2 and r & ~star == 0
        path = monomial(0b11, 0b11, 2)
        I = edge_ideal(graph_from_lattice(CHAIN))
        assert _fold(path, I.graph) is None

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


# --- the degree window and the K^b bound ---------------------------------

def unpruned_value_at(I, b, i, field="Q"):
    """betti_value_at with no degree window: fold, then three face sizes."""
    if I.graph is not None:
        folded = _fold(b, I.graph)
        if folded is None:
            return 0
        r, matching = folded
        if matching:
            return int(i == b.bit_count() - r.bit_count() // 2 - 1)
        i -= b.bit_count() - r.bit_count()
        b = r
    if i <= 0:
        return int(i == 0 and b in I.gens)
    gens = _divisors(I, b)
    k = b.bit_count()
    if k - i <= i + 1:
        family, d = oracle._delta(gens), k - i - 2
    else:
        family, d = oracle._koszul(gens), i - 1
    K = oracle._complex(b, oracle._faces(b, family, max_size=d + 2))
    return (K.face_count(d) - oracle._boundary_rank(K, d, field)
            - oracle._boundary_rank(K, d + 1, field))


def old_smaller_side(I, b):
    """The side rule with no K^b bound: enumerate Delta_b up to half of the
    subsets of supp(b), else K^b."""
    gens = _divisors(I, b)
    limit = min((1 << b.bit_count()) >> 1, oracle.FACE_CAP)
    delta = list(islice(oracle._faces(b, oracle._delta(gens)), limit + 1))
    if 0 < len(delta) <= limit:
        return oracle._complex(b, delta), True
    return oracle._complex(b, oracle._faces(b, oracle._koszul(gens))), False


def koszul_bound_fires(I, b):
    """Whether sum over the generators g dividing b of 2^(|b|-deg g), a
    bound on the faces of K^b, is below half of the subsets of supp(b)."""
    k = b.bit_count()
    return sum(1 << k - g.bit_count() for g in _divisors(I, b)) < (1 << k) >> 1


# a mixed-degree ideal on x1..x3, y1..y3: x1y1, x2y2, x3y3 of degree 2,
# x1x2y3 and x3y1y2 of degree 3
MIXED = SquarefreeIdeal.of(3, [
    monomial(0b001, 0b001, 3), monomial(0b010, 0b010, 3),
    monomial(0b100, 0b100, 3), monomial(0b011, 0b100, 3),
    monomial(0b100, 0b011, 3),
])
B3 = list(range(8))


def window_case(name):
    if name == "unit":
        return SquarefreeIdeal.of(2, [0])
    if name == "mixed":
        return MIXED
    if name == "hibi-B3":
        return hibi_ideal(validate_sublattice(B3, 3))
    return edge_ideal(graph_from_lattice(crown_lattice(3)))


def assert_window_is_exact(I, field="Q"):
    # every b over the 2n variables: for the unit ideal supp is empty
    for b in subsets((1 << 2 * I.n) - 1):
        for i in range(b.bit_count() + 2):
            assert betti_value_at(I, b, i, field) == \
                unpruned_value_at(I, b, i, field)


class TestDegreeWindow:
    """betti_value_at returns 0 outside d_min + i <= |b| <= d_max * (i+1)
    without folding; inside, it is the unpruned value."""

    @pytest.mark.parametrize("name", ["unit", "mixed", "hibi-B3", "crown3"])
    def test_matches_unpruned(self, name):
        assert_window_is_exact(window_case(name), field=2)

    def test_mixed_has_values_in_several_degrees(self):
        T = betti_oracle(MIXED)
        assert MIXED.degree_range == (2, 3)
        assert {i for i, _ in T.entries} == {0, 1, 2, 3}

    @given(st.sets(st.integers(1, 255).filter(lambda g: g.bit_count() <= 4),
                   min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_random_ideals(self, gens):
        # degrees 1..4 on eight variables, minimalized
        assert_window_is_exact(SquarefreeIdeal.of(4, gens))

    def test_generator_at_both_edges(self):
        # beta_{0,g} = 1 at |g| = d_min + 0 and at |g| = d_max * 1
        d_min, d_max = MIXED.degree_range
        for g in MIXED.gens:
            assert g.bit_count() in (d_min, d_max)
            assert betti_value_at(MIXED, g, 0) == 1

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matching_at_upper_edge(self, k):
        # k disjoint edges x_t y_t: the Koszul class at |b| = 2k = 2(i+1)
        I = edge_ideal(BipartiteGraph(k, k, frozenset((t, t) for t in
                                                      range(1, k + 1))))
        b = support(I)
        assert b.bit_count() == I.degree_range[1] * k
        assert betti_value_at(I, b, k - 1) == 1
        assert betti_value_at(I, b, k - 2) == 0

    def test_hibi_at_lower_edge(self):
        # a Hibi ideal has a linear resolution: every value sits at
        # |b| = n + i, the lower edge
        H = hibi_ideal(validate_sublattice(B3, 3))
        T = betti_oracle(H)
        assert all(b.bit_count() == 3 + i for i, b in T.entries)
        for (i, b), h in T.entries.items():
            assert betti_value_at(H, b, i) == h > 0

    @pytest.mark.parametrize("name", ["mixed", "crown3", "K22-edge"])
    def test_no_fold_outside(self, name, monkeypatch):
        if name == "K22-edge":
            I = edge_ideal(graph_from_lattice(fixture_lattice("K22")))
        else:
            I = window_case(name)
        folded = []

        def counted(b, graph):
            folded.append(b)
            return _fold(b, graph)

        monkeypatch.setattr(oracle, "_fold", counted)
        d_min, d_max = I.degree_range
        inside = 0
        for b in subsets(support(I)):
            for i in range(b.bit_count() + 2):
                folded.clear()
                betti_value_at(I, b, i)
                if d_min + i <= b.bit_count() <= d_max * (i + 1):
                    inside += 1
                    assert folded == ([b] if I.graph is not None else [])
                else:
                    assert folded == []
        assert inside > 0


def both_side_cases():
    """B_3's Hibi ideal, and the Hibi and edge ideals of the fixtures and
    crowns.  On an edge ideal the K^b bound fires only at the generators
    (two edges already give 2 * 2^(|b|-2)), so the edge ideals of FIG1
    (6,973 multidegrees, past CLOSURE_CAP) and of the k = 4 crown (4,910)
    are left out: they add time, not cases."""
    out = [hibi_ideal(validate_sublattice(B3, 3)), hibi_ideal(fig1()),
           hibi_ideal(crown_lattice(4))]
    for L in [*map(fixture_lattice, SMALL_FIXTURES), crown_lattice(3),
              crown_lattice(3, twin=True)]:
        out += both_ideals(L)
    return out


class TestKoszulBound:
    """_smaller_side builds K^b at once when the K^b bound is below half of
    the subsets, and takes the same side as the old rule everywhere."""

    def test_same_side_as_old_rule(self):
        fired = 0
        for I in both_side_cases():
            for b in lcm_closure(I):
                K, on_delta = _smaller_side(I, b)
                assert (K, on_delta) == old_smaller_side(I, b)
                fired += koszul_bound_fires(I, b)
        assert fired > 0

    def test_no_delta_face_when_bound_fires(self, monkeypatch):
        delta_faces = []
        delta = oracle._delta

        def counted(gens):
            nonvoid, extends = delta(gens)

            def counting(face, w):
                delta_faces.append(face | w)
                return extends(face, w)

            return nonvoid, counting

        monkeypatch.setattr(oracle, "_delta", counted)
        H = hibi_ideal(crown_lattice(4))
        fired = [b for b in lcm_closure(H) if koszul_bound_fires(H, b)]
        assert fired
        for b in fired:
            _smaller_side(H, b)
        assert delta_faces == []
        # where the bound does not fire, Delta_b is enumerated as before
        B = hibi_ideal(validate_sublattice(B3, 3))
        for b in lcm_closure(B):
            if not koszul_bound_fires(B, b):
                _smaller_side(B, b)
        assert delta_faces


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


# --- the totals visit only the degree window -------------------------------

# "mixed" has d_min < d_max; "unit" is the unit ideal
WINDOW_FILTER_CASES = [
    *(f"{name}-{side}" for name in [*SMALL_FIXTURES, "FIG1"]
      for side in ("hibi", "edge")),
    *CROWNS, *N2_HIBI, "mixed", "unit",
]


def window_filter_case(name):
    if name in ("mixed", "unit"):
        return window_case(name)
    if name in CROWNS or name in N2_HIBI:
        return quadratic_case(name)
    fixture, side = name.split("-")
    L = fixture_lattice(fixture)
    return hibi_ideal(L) if side == "hibi" else \
        edge_ideal(graph_from_lattice(L))


class TestWindowFilter:
    """total_betti_in_degree and graded_betti_in_degree call betti_value_at
    only on closure members inside the degree window; their sums equal the
    sums over the whole closure."""

    @pytest.mark.parametrize("name", WINDOW_FILTER_CASES)
    def test_totals_match_unfiltered(self, name, monkeypatch):
        I = window_filter_case(name)
        # FIG1's edge closure has 6,973 elements, past CLOSURE_CAP
        monkeypatch.setattr(oracle, "lcm_closure",
                            partial(ideals.lcm_closure, cap=200000))
        closure = lcm_closure(I, cap=200000)
        for i in range(-1, 2 * I.n + 1):
            values = [(b.bit_count(), betti_value_at(I, b, i)) for b in closure]
            assert total_betti_in_degree(I, i) == sum(v for _, v in values)
            for d in range(-1, 2 * I.n + 2):
                assert graded_betti_in_degree(I, i, d, closure_cap=200000) \
                    == sum(v for k, v in values if k == d)

    def test_calls_only_inside_the_window(self, monkeypatch):
        I = edge_ideal(graph_from_lattice(crown_lattice(3)))
        seen = []

        def counted(I, b, i, field="Q"):
            seen.append(b)
            return betti_value_at(I, b, i, field)

        monkeypatch.setattr(oracle, "betti_value_at", counted)
        for i in range(2 * I.n):
            seen.clear()
            total_betti_in_degree(I, i)
            assert seen == [b for b in lcm_closure(I)
                            if 2 + i <= b.bit_count() <= 2 * (i + 1)]

    def test_zero_ideal_raises(self):
        zero = SquarefreeIdeal(1, ())
        with pytest.raises(ZeroIdeal):
            total_betti_in_degree(zero, 0)
        with pytest.raises(ZeroIdeal):
            graded_betti_in_degree(zero, 0, 0)
