import random
from collections import Counter
from functools import partial, reduce
from itertools import islice
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hibires import ideals, oracle
from hibires.betti import BettiTable
from hibires.errors import ClosureTooLarge, UnsupportedField, ZeroIdeal
from hibires.fixtures import fixture_lattice
from hibires.graphs import BipartiteGraph, graph_from_lattice
from hibires.ideals import (
    SquarefreeIdeal,
    edge_ideal,
    hibi_ideal,
    lcm_closure,
    monomial,
)
from hibires.lattice import (
    preorder_lattice,
    random_corpus,
    random_sublattice,
    validate_sublattice,
)
from hibires.oracle import (
    SimplicialComplex,
    _divisors,
    _fold,
    _induced_complex,
    betti_oracle,
    betti_value_at,
    graded_betti_in_degree,
    reduced_homology_ranks,
    total_betti_in_degree,
    upper_koszul_complex,
)

from conftest import (
    crown_lattice,
    labelled_preorders,
    reference_reduced_homology,
)

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


def bits(mask):
    return [1 << v for v in range(mask.bit_length()) if mask >> v & 1]


def complex_of(faces):
    by_dim = {}
    for f in faces:
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    return SimplicialComplex({d: sorted(fs) for d, fs in by_dim.items()})


# --- Hochster's side ------------------------------------------------------
# Hochster's restriction Delta_b, the subsets of supp(b) containing no
# generator, carries beta_{i,b} = dim H~_{|b|-i-2}(Delta_b).  Inside supp(b)
# it is Alexander dual to K^b (t is in K^b exactly when supp(b) minus t is
# not in Delta_b), so the two split the 2^|b| subsets.  The oracle builds
# only K^b; this reference reads Delta_b wherever it is the smaller side,
# through the other degree formula, and folds nothing.

def delta_faces(b, gens):
    """Faces of Delta_b, depth-first in increasing vertex order: face | w
    stays in Delta_b when no generator through w lies inside it.  Void for
    the unit ideal."""
    if 0 in gens:
        return
    rest = {}
    for g in gens:
        for w in bits(g):
            rest.setdefault(w, []).append(g & ~w)
    yield 0
    stack = [(0, bits(b))]
    while stack:
        face, cand = stack.pop()
        ext = [w for w in cand if all(r & ~face for r in rest.get(w, ()))]
        for k, w in enumerate(ext):
            yield face | w
            if k + 1 < len(ext):
                stack.append((face | w, ext[k + 1:]))


def hochster_side(I, b):
    """(complex, on_delta): Delta_b while it has at most half of the subsets
    of supp(b) (and at most FACE_CAP faces), else K^b.

    A face of K^b misses some generator g dividing b, so K^b is the union
    of the simplices on supp(b) minus g, with at most sum_g 2^(|b|-deg g)
    faces; when that bound is below half of the subsets, K^b is taken
    without enumerating Delta_b.  A void Delta_b (only the unit ideal has
    one) falls to K^b.
    """
    gens = _divisors(I, b)
    k = b.bit_count()
    half = (1 << k) >> 1
    if sum(1 << k - g.bit_count() for g in gens) >= half:
        limit = min(half, oracle.FACE_CAP)
        delta = list(islice(delta_faces(b, gens), limit + 1))
        if 0 < len(delta) <= limit:
            return complex_of(delta), True
    return complex_of({t for g in gens for t in subsets(b & ~g)}), False


def hochster_ranks(I, b, field="Q"):
    """{i: beta_{i,b}(I)} from hochster_side on all of supp(b)."""
    K, on_delta = hochster_side(I, b)
    return {
        b.bit_count() - d - 2 if on_delta else d + 1: h
        for d, h in reduced_homology_ranks(K, field).items()
    }


def hochster_table(I, field="Q"):
    table = BettiTable(I.n, "ideal")
    for b in lcm_closure(I, cap=200000):
        for i, h in hochster_ranks(I, b, field).items():
            table.add(i, b, h)
    return table


def both_ideals(L):
    return hibi_ideal(L), edge_ideal(graph_from_lattice(L))


def named_lattice(name):
    """A fixture lattice, B_3, or a crown lattice."""
    if name == "B3":
        return validate_sublattice(range(8), 3)
    if name.startswith("crown"):
        return crown_lattice(int(name[5:]))
    if name == "twinned-crown3":
        return crown_lattice(3, twin=True)
    return fixture_lattice(name)


# Hibi ideals compared with hochster_table; TestFold compares the edge
# ideals of the fixtures and the crowns with it
HOCHSTER_CASES = [*SMALL_FIXTURES, "FIG1", "B3", "crown3", "crown4",
                  "twinned-crown3"]


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


def homology_case(name):
    """Ideals whose K^b the boundary-matrix reference reads: the Hibi ideals
    of the fixtures (with the edge ideals of the small ones), of
    random_corpus(200, 42) and of the crowns."""
    if name == "fixtures":
        return [
            *(hibi_ideal(fixture_lattice(f)) for f in [*SMALL_FIXTURES, "FIG1"]),
            *(edge_ideal(graph_from_lattice(fixture_lattice(f)))
              for f in SMALL_FIXTURES),
        ]
    if name == "corpus":
        return [hibi_ideal(L) for L in random_corpus(200, 42)]
    return [hibi_ideal(crown_lattice(k, twin)) for k, twin in CROWNS.values()]


class TestAgainstBoundaryMatrices:
    # linalg.homology_ranks against the hand-built boundary matrices it
    # replaced, on the whole K^b, and every spot value against that reference

    @pytest.mark.parametrize("name", ["fixtures", "corpus", "crowns"])
    def test_spot_values_match_whole_complex(self, name):
        for I in homology_case(name):
            for b in lcm_closure(I):
                K = upper_koszul_complex(I, b)
                assert reduced_homology_ranks(K, 2) == \
                    reference_reduced_homology(K, 2)
                expected = reference_reduced_homology(K)
                assert reduced_homology_ranks(K) == expected
                for i in range(b.bit_count() + 1):
                    assert betti_value_at(I, b, i) == expected.get(i - 1, 0)


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


# "Q" and int primes are the only fields; 4 is composite, "q" is no field
# name, 2.5 is no int and "2" is a string
BAD_FIELDS = [4, "q", 2.5, "2"]


class TestFieldRefused:
    """Every entry point refuses an unsupported field before it walks a
    closure, also where a fold or the window settles every value and no
    complex reaches linalg."""

    @pytest.fixture
    def I(self, B2, monkeypatch):
        I = edge_ideal(graph_from_lattice(B2))

        def no_walk(*args, **kwargs):
            raise AssertionError("the closure was walked")

        monkeypatch.setattr(oracle, "lcm_closure", no_walk)
        monkeypatch.setattr(oracle, "_induced_complex", None)
        return I

    @pytest.mark.parametrize("field", BAD_FIELDS)
    def test_betti_oracle(self, I, field):
        for J in (I, SquarefreeIdeal(I.n, ())):
            with pytest.raises(UnsupportedField):
                betti_oracle(J, field=field)

    @pytest.mark.parametrize("field", BAD_FIELDS)
    def test_betti_value_at(self, I, field):
        # inside the window (the generators at i = 0, the top at i = 1)
        # and outside it (i = 3), and on the zero ideal
        top = support(I)
        for J, b, i in [*((I, g, 0) for g in I.gens), (I, top, 1),
                        (I, top, 3), (SquarefreeIdeal(I.n, ()), top, 0)]:
            with pytest.raises(UnsupportedField):
                betti_value_at(J, b, i, field=field)

    @pytest.mark.parametrize("field", BAD_FIELDS)
    def test_total_betti_in_degree(self, I, field):
        for i in (0, 1, 5):
            with pytest.raises(UnsupportedField):
                total_betti_in_degree(I, i, field=field)

    @pytest.mark.parametrize("field", BAD_FIELDS)
    def test_graded_betti_in_degree(self, I, field):
        for i, d in ((0, 2), (1, 3), (1, 9)):
            with pytest.raises(UnsupportedField):
                graded_betti_in_degree(I, i, d, field=field)


class TestAgainstReference:
    """betti_oracle reads every multidegree off K^b.  One reference reads
    each off the exhaustive K^b scan, the other off Hochster's side."""

    @pytest.mark.parametrize("name", SMALL_FIXTURES)
    def test_fixtures_take_both_sides(self, name):
        sides = set()
        for I in both_ideals(fixture_lattice(name)):
            sides |= {hochster_side(I, b)[1] for b in lcm_closure(I)}
            for field in ("Q", 2):
                expected = betti_oracle(I, field).entries
                assert expected == reference_table(I, field).entries
                assert expected == hochster_table(I, field).entries
        assert sides == {True, False}

    @pytest.mark.parametrize("name", HOCHSTER_CASES)
    def test_hibi_matches_hochster(self, name):
        I = hibi_ideal(named_lattice(name))
        for field in ("Q", 2):
            assert betti_oracle(I, field).entries == \
                hochster_table(I, field).entries

    @given(st.integers(1, 4), st.integers(0, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_lattices(self, n, seeds, seed):
        for I in both_ideals(random_sublattice(n, seeds, seed)):
            for field in ("Q", 2):
                expected = betti_oracle(I, field).entries
                assert expected == reference_table(I, field).entries
                assert expected == hochster_table(I, field).entries


def hibi_spot_ideals(name):
    """Non-quadratic Hibi ideals.  E1's (n = 1, generators x1 and y1) is
    the only fixture ideal on which the oracle once read Delta_b."""
    if name == "corpus":
        return [hibi_ideal(L) for L in random_corpus(40, 7)]
    if name in ("B3", "B4"):
        n = int(name[1])
        return [hibi_ideal(validate_sublattice(range(1 << n), n))]
    return [hibi_ideal(fixture_lattice(name))]


def record_builds(mp):
    """Patch the oracle's one builder through mp; the returned list gets
    (vertices, complex) for each call."""
    built = []

    def counted(vertices, gens):
        K = _induced_complex(vertices, gens)
        built.append((vertices, K))
        return K

    mp.setattr(oracle, "_induced_complex", counted)
    return built


class TestCheapPaths:
    @pytest.mark.parametrize("name", SMALL_FIXTURES)
    def test_value_at_matches_table(self, name):
        I = edge_ideal(graph_from_lattice(fixture_lattice(name)))
        T = betti_oracle(I)
        for b in lcm_closure(I):
            for i in range(-1, 5):
                assert betti_value_at(I, b, i) == T.value(i, b)

    @pytest.mark.parametrize("name", ["B3", "B4", "FIG1", "E1", "corpus"])
    def test_hibi_value_at_matches_table(self, name):
        # every spot value, inside the degree window and outside it
        for I in hibi_spot_ideals(name):
            for field in ("Q", 2):
                T = betti_oracle(I, field)
                for b in lcm_closure(I):
                    for i in range(-1, b.bit_count() + 1):
                        assert betti_value_at(I, b, i, field) == T.value(i, b)

    @pytest.mark.parametrize("name", ["crown3", "hibi-B3"])
    def test_value_at_builds_through_upper_koszul(self, name, monkeypatch):
        # inside the window the one builder gives the whole K^b[V], the
        # faces of K^b inside V, and only where incidence_outcome says
        # "build"; the crown's C_6 is its own residue and keeps its six
        # vertices
        I = window_case(name)
        T = betti_oracle(I)
        built = record_builds(monkeypatch)
        d_min, d_max = I.degree_range
        cases = [CROWN3_CYCLE] if name == "crown3" else lcm_closure(I)
        kinds = set()
        for b in cases:
            kind, V = incidence_outcome(I, b)
            kinds.add(kind)
            for i in range(-1, b.bit_count() + 1):
                built.clear()
                assert betti_value_at(I, b, i) == T.value(i, b)
                inside = d_min + i <= b.bit_count() <= d_max * (i + 1)
                if inside and kind == "build":
                    whole = koszul_reference(I, b).faces
                    assert [(v, K.faces) for v, K in built] == [(V, {
                        d: kept for d, fs in whole.items()
                        if (kept := [f for f in fs if not f & ~V])
                    })]
                else:
                    assert built == []
        assert "build" in kinds

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


def n2_lattices():
    """The four sublattices of B_2 with both bounds."""
    return [validate_sublattice(f, 2) for f in
            ({0, 3}, {0, 1, 3}, {0, 2, 3}, {0, 1, 2, 3})]


N2_HIBI = [f"hibi-n2-{k}" for k in range(4)]
CROWNS = {"crown3": (3, False), "crown4": (4, False),
          "twinned-crown3": (3, True)}
# quadratic ideals whose fold path is compared with hochster_table;
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
    expected, the Hochster-side reference's table, which folds nothing."""
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
        assert_fold_matches_unfolded(I, hochster_table(I), monkeypatch)

    @pytest.mark.parametrize("name", SMALL_FOLD_CASES)
    def test_every_subset_over_gf2(self, name):
        # also the b outside the closure, where Delta_b is a cone
        I = quadratic_case(name)
        for sub in subsets(support(I)):
            expected = hochster_ranks(I, sub, field=2)
            for i in range(-1, sub.bit_count() + 1):
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
            assert_fold_matches_unfolded(I, hochster_table(I), mp)

    @given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7))
                   .filter(lambda e: e[0] < e[1]), min_size=1, max_size=16))
    @settings(max_examples=30, deadline=None)
    def test_random_graphs(self, edges):
        # any quadratic ideal on eight variables, odd cycles included
        I = SquarefreeIdeal.of(4, [1 << u | 1 << v for u, v in edges])
        with pytest.MonkeyPatch.context() as mp:
            for field in ("Q", 2):
                expected = hochster_table(I, field)
                assert_fold_matches_unfolded(I, expected, mp, field)


# --- the degree window ----------------------------------------------------

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
        expected = hochster_ranks(I, b, field)
        for i in range(b.bit_count() + 2):
            assert betti_value_at(I, b, i, field) == expected.get(i, 0)


class TestDegreeWindow:
    """betti_value_at returns 0 outside d_min + i <= |b| <= d_max * (i+1)
    without folding; at every (i, b) it is the value of the Hochster-side
    reference, which has no window and no fold."""

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


class TestFaceCap:
    """Only the complexes the oracle builds count toward the cap.  On the
    k = 3 crown's edge ideal the fold leaves one, K^b at x1x3x5*y2y4y6
    (46 faces, where Ind(C_6) has 18); on the Hibi ideal of B_3 the
    largest is the octahedron K^b[V] at the top multidegree (27 faces)."""

    def assert_cap_is_exact(self, I, monkeypatch):
        # at the largest built complex's face count nothing changes; one
        # below it the oracle refuses
        with monkeypatch.context() as mp:
            built = record_builds(mp)
            expected = betti_oracle(I).entries
        largest = max(sum(map(len, K.faces.values())) for _, K in built)
        monkeypatch.setattr(oracle, "FACE_CAP", largest)
        assert betti_oracle(I).entries == expected
        monkeypatch.setattr(oracle, "FACE_CAP", largest - 1)
        with pytest.raises(ClosureTooLarge, match="faces"):
            betti_oracle(I)
        return largest

    def test_cap_is_exact(self, monkeypatch):
        I = edge_ideal(graph_from_lattice(crown_lattice(3)))
        assert residues(I) == [CROWN3_CYCLE]
        assert self.assert_cap_is_exact(I, monkeypatch) == 46

    def test_hibi_cap_is_exact(self, monkeypatch):
        H = hibi_ideal(validate_sublattice(range(8), 3))
        assert self.assert_cap_is_exact(H, monkeypatch) == 27

    def test_value_at_reads_the_whole_complex_under_the_cap(self, monkeypatch):
        # B_3's top K^b[V] is the 27-face octahedron; at i = 1 its two-vertex
        # skeleton has 19 faces, but a spot value reads the whole complex,
        # so with the cap at 26 every degree inside the window is refused,
        # as the table is
        H = boolean_hibi(3)
        top = monomial(0b111, 0b111, 3)
        monkeypatch.setattr(oracle, "FACE_CAP", 27)
        assert [betti_value_at(H, top, i) for i in (1, 2, 3)] == [0, 0, 1]
        monkeypatch.setattr(oracle, "FACE_CAP", 26)
        for i in (1, 2, 3):
            with pytest.raises(ClosureTooLarge, match="faces"):
                betti_value_at(H, top, i)
        assert betti_value_at(H, top, 4) == 0  # outside the window

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

    def test_graded_calls_only_inside_the_window(self, monkeypatch):
        # outside d_min + i <= d <= d_max * (i+1) no member is visited;
        # inside it, exactly the members of degree d
        I = edge_ideal(graph_from_lattice(crown_lattice(3)))
        seen = []

        def counted(I, b, i, field="Q"):
            seen.append(b)
            return betti_value_at(I, b, i, field)

        monkeypatch.setattr(oracle, "betti_value_at", counted)
        for i in range(2 * I.n):
            for d in range(2 * I.n + 2):
                seen.clear()
                graded_betti_in_degree(I, i, d)
                inside = 2 + i <= d <= 2 * (i + 1)
                assert seen == [b for b in lcm_closure(I)
                                if inside and b.bit_count() == d]

    def test_zero_ideal_raises(self):
        zero = SquarefreeIdeal(1, ())
        with pytest.raises(ZeroIdeal):
            total_betti_in_degree(zero, 0)
        with pytest.raises(ZeroIdeal):
            graded_betti_in_degree(zero, 0, 0)


# --- the minimal incidence classes ------------------------------------------
# After the quadratic fold, _betti_at keeps one vertex per distinct minimal
# incidence set (the generators dividing b that contain the vertex) and
# reads K^b[V]: a full simplex when a generator misses V, the boundary of
# the simplex on V when the incidence sets are disjoint, else a built
# complex.  The references here read K^b on all of supp(b), folding nothing.

def incidence_outcome(I, b):
    """(kind, V) at b, from the incidence sets as sets of generators: V
    keeps the least vertex of each minimal set, and kind is "void" (no
    generator divides b), "point" (V is empty), "simplex", "sphere" or
    "build"."""
    gens = [g for g in I.gens if g & ~b == 0]
    inc = {w: frozenset(g for g in gens if g & w) for w in bits(b)}
    least = {}
    for w, s in sorted(inc.items()):
        if not any(t < s for t in inc.values()):
            least.setdefault(s, w)
    V = sum(least.values())
    if not gens:
        return "void", V
    if not least:
        return "point", V
    if any(g & V == 0 for g in gens):
        return "simplex", V
    if sum(map(len, least)) == len(gens):
        return "sphere", V
    return "build", V


def plain_ranks(I, b, field="Q"):
    """{i: beta_{i,b}} off K^b on all of supp(b)."""
    K = upper_koszul_complex(I, b)
    return {d + 1: h for d, h in reduced_homology_ranks(K, field).items()}


def plain_table(I, field="Q"):
    """The plain path's table, and its ranks at each closure member."""
    plain = {b: plain_ranks(I, b, field) for b in lcm_closure(I)}
    table = BettiTable(I.n, "ideal")
    for b, ranks in plain.items():
        for i, h in ranks.items():
            table.add(i, b, h)
    return table, plain


def assert_matches_plain(I, field, multidegrees=None):
    """The table, and every spot value at the closure members (or at the
    given multidegrees), equal the plain K^b path's."""
    table, plain = plain_table(I, field)
    assert betti_oracle(I, field).entries == table.entries
    for b in plain if multidegrees is None else multidegrees:
        expected = plain[b] if b in plain else plain_ranks(I, b, field)
        for i in range(-1, b.bit_count() + 2):
            assert betti_value_at(I, b, i, field) == expected.get(i, 0)


def boolean_hibi(n):
    return hibi_ideal(validate_sublattice(range(1 << n), n))


def class_case(name):
    if name in ("B3", "B4", "B5"):
        return [boolean_hibi(int(name[1]))]
    return homology_case(name)


def random_mixed_ideal(rng, n):
    """One to six generators of degree 1..4 on 2n variables, minimalized."""
    gens = set()
    for _ in range(rng.randint(1, 6)):
        degree = rng.randint(1, 4)
        gens.add(reduce(or_, (1 << v for v in rng.sample(range(2 * n), degree))))
    return SquarefreeIdeal.of(n, gens)


class TestMinimalClasses:
    @pytest.mark.parametrize(
        "name", ["fixtures", "corpus", "crowns", "B3", "B4", "B5"]
    )
    def test_matches_plain_koszul(self, name):
        for I in class_case(name):
            for field in ("Q", 2):
                assert_matches_plain(I, field)

    def test_every_labelled_preorder(self):
        # every distributive sublattice of B_n with both bounds, n <= 4,
        # as a labelled preorder: 1 + 4 + 29 + 355 lattices
        count = 0
        for n in range(1, 5):
            for D in labelled_preorders(n):
                I = hibi_ideal(preorder_lattice(D))
                assert betti_oracle(I).entries == plain_table(I)[0].entries
                count += 1
        assert count == 389

    @pytest.mark.parametrize("seed", range(4))
    def test_random_mixed_ideals(self, seed):
        # every b over the variables, inside the closure and outside it
        rng = random.Random(seed)
        cases = [random_mixed_ideal(rng, rng.choice((2, 3))) for _ in range(25)]
        if seed == 0:
            cases.append(window_case("unit"))
        for k, I in enumerate(cases):
            everything = list(subsets((1 << 2 * I.n) - 1))
            assert_matches_plain(I, ("Q", 2)[k % 2], everything)

    def test_octahedron_at_the_top_of_B3(self, monkeypatch):
        # at x1x2x3*y1y2y3 every u_p divides b; x_j lies in the u_p with
        # j in p and y_j in the others, so no incidence set holds another,
        # all six vertices stay and K^b[V] is the octahedron x_j | y_j
        I = boolean_hibi(3)
        top = monomial(0b111, 0b111, 3)
        assert incidence_outcome(I, top) == ("build", top)
        built = record_builds(monkeypatch)
        assert oracle._betti_at(I, top) == {3: 1}
        assert [{d: len(fs) for d, fs in K.faces.items()}
                for _, K in built] == [{-1: 1, 0: 6, 1: 12, 2: 8}]

    def test_chain_rank_one_interval_is_s0(self, monkeypatch):
        # on a chain p < q = p + j, only u_p and u_q divide x_q*y_([3]-p);
        # x_j lies in u_q alone and y_j in u_p alone, every other variable
        # in both: V = {x_j, y_j} is S^0 and nothing is built
        chain = [0b000, 0b001, 0b011, 0b111]
        I = hibi_ideal(validate_sublattice(chain, 3))

        def unreachable(vertices, gens):
            raise RuntimeError("a complex was built")

        monkeypatch.setattr(oracle, "_induced_complex", unreachable)
        for p, q in zip(chain, chain[1:]):
            b = monomial(q, 0b111 & ~p, 3)
            j = q & ~p
            assert incidence_outcome(I, b) == ("sphere", monomial(j, j, 3))
            assert oracle._betti_at(I, b) == {1: 1}
            assert betti_value_at(I, b, 1) == 1

    @pytest.mark.parametrize("I, b, expected", [
        # b = 0 in the unit ideal: V is empty and K^b = {empty face}
        (SquarefreeIdeal.of(2, [0]), 0, {0: 1}),
        # no generator divides x1*y2: K^b is void
        (MIXED, monomial(0b001, 0b010, 3), {}),
        # x2 lies in no generator dividing x1*x2*y1: K^b is a cone
        (MIXED, monomial(0b011, 0b001, 3), {}),
    ])
    def test_empty_cases(self, I, b, expected, monkeypatch):
        plain = plain_ranks(I, b)
        monkeypatch.setattr(oracle, "_induced_complex", None)
        assert oracle._betti_at(I, b) == expected == plain

    @pytest.mark.parametrize("name, split", [
        ("B3", {"sphere": 20, "build": 7}),
        ("B4", {"sphere": 48, "build": 33}),
        ("B5", {"sphere": 112, "build": 131}),
        ("FIG1", {"sphere": 23, "simplex": 15, "build": 8}),
        ("crown3", {"sphere": 48, "simplex": 46, "build": 35}),
        ("crown4", {"sphere": 151, "simplex": 209, "build": 290}),
    ])
    def test_hibi_builds_only_in_the_last_case(self, name, split, monkeypatch):
        # the lcm closure of each Hibi ideal by outcome, and the builder
        # called once per "build" member with its V, in closure order
        I = boolean_hibi(int(name[1])) if name[0] == "B" else \
            hibi_ideal(named_lattice(name))
        outcomes = [incidence_outcome(I, b) for b in lcm_closure(I)]
        assert Counter(kind for kind, _ in outcomes) == split
        built = record_builds(monkeypatch)
        betti_oracle(I)
        assert [v for v, _ in built] == \
            [V for kind, V in outcomes if kind == "build"]
