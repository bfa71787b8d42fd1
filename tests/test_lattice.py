import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hibires.lattice as lattice_mod

from hibires.bitset import full_mask, indices_of, is_subset, mask_of, order_key
from hibires.errors import (
    BottomElement,
    InputFormatError,
    MissingBottom,
    MissingTop,
    NotAnElement,
    NotClosed,
    TooLarge,
)
from hibires.fixtures import FIXTURES, fixture_lattice
from hibires.graphs import BipartiteGraph, cover_lattice, graph_from_lattice
from hibires.ideals import edge_ideal, hibi_ideal, lcm_closure
from hibires.invariants import invariant_report
from hibires.lattice import (
    b_set,
    boolean_interval_scan,
    down_sets,
    f_value,
    lattice_from_json_obj,
    lattice_to_text,
    parse_lattice_text,
    random_corpus,
    random_sublattice,
    validate_sublattice,
)

from conftest import boolean_intervals, down_sets_reference, m, meet


def lower_neighbors_reference(elements, p):
    """N(p) by the exhaustive scan: the maximal elements strictly below p."""
    below = [q for q in elements if q != p and is_subset(q, p)]
    return tuple(
        sorted(
            (q for q in below if not any(r != q and is_subset(q, r) for r in below)),
            key=order_key,
        )
    )


def generated(fam):
    """The closure of fam under union and intersection, by pairwise passes."""
    fam = set(fam)
    changed = True
    while changed:
        changed = False
        for p, q in combinations(sorted(fam), 2):
            for x in (p | q, p & q):
                if x not in fam:
                    fam.add(x)
                    changed = True
    return fam


def closure_reference(n, seed_count, rng_seed):
    """The drawn family of random_sublattice, closed by pairwise passes."""
    rng = random.Random(rng_seed)
    fam = {0, full_mask(n)}
    for _ in range(seed_count):
        fam.add(rng.getrandbits(n))
    return generated(fam)


def corpus_reference(count, rng_seed, n_max=6, n_min=2, size_cap=24):
    """random_corpus with every draw closed in full before the size cap."""
    rng = random.Random(rng_seed)
    out = []
    while len(out) < count:
        n = rng.randint(n_min, n_max)
        seed_count = rng.randint(1, n)
        fam = closure_reference(n, seed_count, rng.getrandbits(32))
        if len(fam) <= size_cap:
            out.append((n, tuple(sorted(fam, key=order_key))))
    return out


def closed_by_pairs(fam):
    """The closure check by the pair scan: every union and meet of two
    members is a member."""
    return all(p | q in fam and p & q in fam for p, q in combinations(fam, 2))


def a_set_reference(L):
    """A_G by the element-pair scan: p is kept unless another interval
    [meet(N(q)), q] contains [meet(N(p)), p]."""
    ivals = [(meet(L.lower[p], p), p) for p in L.elements if p != 0]
    return {
        p
        for a, p in ivals
        if not any(q != p and b & a == b and p & q == p for b, q in ivals)
    }


def star_lattice(n):
    """Cover lattice of the star graph: edges (i, i) and (1, j), so L is
    the empty set and every set holding 1, with |L| = 2^(n-1) + 1."""
    return validate_sublattice({0} | {p for p in range(1 << n) if p & 1}, n)


def random_family(rng):
    """A family holding both bounds: random sets, a random sublattice, or
    a random sublattice with one inner element taken out."""
    n = rng.randint(1, 5)
    kind = rng.randrange(3)
    if kind == 0:
        fam = {rng.getrandbits(n) for _ in range(rng.randint(0, 8))}
    else:
        fam = set(random_sublattice(n, rng.randint(0, 4), rng.getrandbits(32)).elements)
        inner = sorted(fam - {0, full_mask(n)})
        if kind == 2 and inner:
            fam.discard(rng.choice(inner))
    return n, fam | {0, full_mask(n)}


def random_preorder_closures(rng, n, density=0.3):
    """D(j) = {i : i <= j} for the reflexive-transitive closure of a random
    relation on [n] that holds each pair with probability density."""
    D = [1 << j for j in range(n)]
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                D[j] |= 1 << i
    changed = True
    while changed:
        changed = False
        for j in range(n):
            grown = D[j]
            for i in range(n):
                if D[j] >> i & 1:
                    grown |= D[i]
            if grown != D[j]:
                D[j] = grown
                changed = True
    return D


class TestValidate:
    def test_minimal(self):
        L = validate_sublattice({0, 1}, 1)
        assert L.elements == (0, 1)

    def test_missing_bottom(self):
        with pytest.raises(MissingBottom):
            validate_sublattice({1}, 1)

    def test_missing_top(self):
        with pytest.raises(MissingTop):
            validate_sublattice({0, 0b01}, 2)

    def test_not_closed_union(self):
        with pytest.raises(NotClosed):
            validate_sublattice({0, 0b001, 0b010, 0b111}, 3)

    def test_not_closed_intersection(self):
        with pytest.raises(NotClosed):
            validate_sublattice({0, 0b011, 0b110, 0b111}, 3)

    def test_out_of_range_bits(self):
        with pytest.raises(InputFormatError):
            validate_sublattice({0, 0b100, 0b11}, 2)

    def test_ground_size_bounds(self):
        with pytest.raises(TooLarge):
            validate_sublattice({0}, 0)
        with pytest.raises(TooLarge):
            validate_sublattice({0}, 33)

    def test_not_closed_names_a_generated_set(self):
        with pytest.raises(NotClosed) as exc:
            validate_sublattice({0, 0b001, 0b010, 0b111}, 3)
        assert exc.value.missing == 0b011

    def test_closure_check_matches_pair_scan(self):
        rng = random.Random(11)
        outcomes = {True: 0, False: 0}
        for _ in range(3000):
            n, fam = random_family(rng)
            closed = closed_by_pairs(fam)
            outcomes[closed] += 1
            if closed:
                assert set(validate_sublattice(fam, n).elements) == fam
                continue
            with pytest.raises(NotClosed) as exc:
                validate_sublattice(fam, n)
            assert exc.value.missing not in fam
            assert exc.value.missing in generated(fam)
        assert min(outcomes.values()) > 400

    def test_closures_are_kept(self, FIG1):
        for j, d in enumerate(FIG1.closures):
            assert d == min(p for p in FIG1.elements if p >> j & 1)

    def test_total_order_extends_containment(self):
        L = validate_sublattice(
            {0, 0b001, 0b010, 0b011, 0b111}, 3
        )
        idx = {p: k for k, p in enumerate(L.elements)}
        for p in L.elements:
            for q in L.elements:
                if p != q and is_subset(p, q):
                    assert idx[p] < idx[q]


class TestNeighbors:
    def test_chain(self, CHAIN):
        assert CHAIN.neighbors(0) == ()
        assert CHAIN.neighbors(0b01) == (0,)
        assert CHAIN.neighbors(0b11) == (0b01,)

    def test_b2(self, B2):
        assert B2.neighbors(0b11) == (0b01, 0b10)

    def test_not_an_element(self, CHAIN):
        with pytest.raises(NotAnElement):
            CHAIN.neighbors(0b10)

    def test_neighbors_sorted_by_order(self, FIG1):
        for p in FIG1.elements:
            nb = FIG1.neighbors(p)
            assert list(nb) == sorted(nb, key=order_key)

    @given(st.integers(2, 6), st.integers(0, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_neighbors_are_maximal_below(self, n, seeds, seed):
        L = random_sublattice(n, seeds, seed)
        for p in L.elements:
            nb = set(L.neighbors(p))
            below = {q for q in L.elements if q != p and is_subset(q, p)}
            maximal = {
                q
                for q in below
                if not any(r != q and is_subset(q, r) for r in below)
            }
            assert nb == maximal


class TestHasseAgainstReference:
    def assert_matches(self, L):
        for p in L.elements:
            assert L.neighbors(p) == lower_neighbors_reference(L.elements, p)

    @pytest.mark.parametrize("name", ["E1", "CHAIN", "B2", "K22", "FIG1"])
    def test_fixtures(self, name, request):
        self.assert_matches(request.getfixturevalue(name))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_boolean(self, n):
        self.assert_matches(validate_sublattice(range(1 << n), n))

    @given(st.integers(1, 7), st.integers(0, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_random(self, n, seeds, seed):
        self.assert_matches(random_sublattice(n, seeds, seed))


class TestDownSets:
    def test_merged_classes(self):
        # K22's preorder has one class {1,2}: adding a lone index would
        # produce {1} or {2}, which are not down-sets
        assert down_sets([0b11, 0b11], 4) == {0, 0b11}

    def test_each_once_empty_first(self):
        assert down_sets([0b001, 0b011, 0b100], 6) == {
            0, 0b001, 0b011, 0b100, 0b101, 0b111
        }

    @pytest.mark.parametrize("limit", range(1, 6))
    def test_stops_past_the_limit(self, limit):
        # six unions in all: the walk returns limit + 1 of them
        out = down_sets([0b001, 0b011, 0b100], limit)
        assert 0 in out and len(out) == limit + 1

    @pytest.mark.parametrize("seed", range(40))
    def test_random_preorders_against_scan(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        D = random_preorder_closures(rng, n)
        scan = {
            p
            for p in range(1 << n)
            if all(D[j] & ~p == 0 for j in range(n) if p >> j & 1)
        }
        assert down_sets(D, 1 << n) == scan


def random_generator_family(rng, n):
    """Subsets of [n] that need not be any preorder's D(j), the way
    generator supports come: repeats, the empty set, and sets nested in or
    overlapping earlier ones."""
    fam = []
    for _ in range(rng.randint(1, 12)):
        r = rng.random()
        if fam and r < 0.15:
            fam.append(rng.choice(fam))
        elif r < 0.25:
            fam.append(0)
        elif fam and r < 0.45:
            fam.append(rng.choice(fam) | rng.getrandbits(n))
        elif fam and r < 0.6:
            fam.append(rng.choice(fam) & rng.getrandbits(n))
        elif r < 0.8:
            fam.append(rng.getrandbits(n))
        else:  # a small set, so that the unions do not all reach [n]
            fam.append(rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n))
    return fam


class TestLevelwiseWalk:
    """down_sets against the depth-first reference walk at every limit
    from 0 to one past the number of unions."""

    def assert_matches_reference(self, fam):
        unions = down_sets_reference(fam, 1 << 10)  # n <= 10: all of them
        for limit in range(len(unions) + 2):
            out = down_sets(fam, limit)
            if len(unions) <= limit:
                assert out == unions == down_sets_reference(fam, limit)
            else:
                assert 0 in out and out <= unions
                assert len(out) == limit + 1

    @pytest.mark.parametrize("seed", range(100))
    def test_generator_families(self, seed):
        rng = random.Random(seed)
        self.assert_matches_reference(
            random_generator_family(rng, rng.randint(1, 10))
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_preorder_closures(self, seed):
        rng = random.Random(1000 + seed)
        n = rng.randint(1, 10)
        self.assert_matches_reference(
            random_preorder_closures(rng, n, density=rng.choice([0.05, 0.3]))
        )

    def test_refusal_returns_limit_plus_one(self, monkeypatch):
        # a 13-pair matching has D(j) = {j} and 2^13 down-sets; with the
        # bound at 2^12 the walk hands back exactly 2^12 + 1 of them
        monkeypatch.setattr(lattice_mod, "NEIGHBOR_CAP", 12)
        sizes = []

        def counted(closures, limit):
            out = down_sets(closures, limit)
            sizes.append(len(out))
            return out

        monkeypatch.setattr(lattice_mod, "down_sets", counted)
        G = BipartiteGraph(13, 13, frozenset((i, i) for i in range(1, 14)))
        with pytest.raises(TooLarge):
            cover_lattice(G)
        assert sizes == [(1 << 12) + 1]


class TestDegreeValueSort:
    """Elements and lcm closures are sorted by a stable sort on bit count
    of the list sorted by value, which is the order_key order."""

    @pytest.mark.parametrize("seed", range(30))
    def test_equals_order_key_sort(self, seed):
        # masks up to 64 bits wide (2n for n <= MAX_GROUND), few distinct
        # bit counts among many masks, repeats and 0
        rng = random.Random(seed)
        width = rng.randint(1, 64)
        counts = rng.sample(range(width + 1), min(3, width + 1))
        xs = [0] * rng.randint(1, 3)
        for _ in range(rng.randint(0, 300)):
            k = rng.choice(counts)
            xs.append(sum(1 << b for b in rng.sample(range(width), k)))
        xs += rng.sample(xs, len(xs) // 4)
        assert sorted(sorted(xs), key=int.bit_count) == sorted(xs, key=order_key)

    def test_elements_and_closures_in_order(self):
        for L in [*map(fixture_lattice, FIXTURES), *random_corpus(200, 42)]:
            assert list(L.elements) == sorted(L.elements, key=order_key)
            for I in hibi_ideal(L), edge_ideal(graph_from_lattice(L)):
                closure = lcm_closure(I, cap=200000)
                assert closure == sorted(closure, key=order_key)


class TestMeet:
    def test_empty_meet_is_context(self, B2):
        assert meet([], 0b11) == 0b11

    def test_pair(self, B2):
        assert meet([0b01, 0b10], 0b11) == 0

    def test_meet_lands_in_lattice(self, FIG1):
        from itertools import combinations

        for p in FIG1.elements:
            nb = FIG1.neighbors(p)
            for k in range(len(nb) + 1):
                for S in combinations(nb, k):
                    assert meet(S, p) in FIG1


class TestIntervals:
    def test_bottom_of_top_b2(self, B2):
        assert (B2.bottom[0b11], len(B2.lower[0b11])) == (0, 2)
        assert B2.bottom[0] == 0

    @pytest.mark.parametrize("name", FIXTURES)
    def test_bottom_is_meet_of_neighbors_fixtures(self, name):
        L = fixture_lattice(name)
        assert all(
            L.bottom[p] == meet(L.lower[p], p) for p in L.elements
        )

    @given(st.integers(1, 10), st.integers(0, 10), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_bottom_is_meet_of_neighbors(self, n, seeds, seed):
        L = random_sublattice(n, seeds, seed)
        assert all(
            L.bottom[p] == meet(L.lower[p], p) for p in L.elements
        )

    def test_bijection_counts(self, FIG1):
        pairs = boolean_intervals(FIG1)
        expected = sum(2 ** len(FIG1.neighbors(p)) for p in FIG1.elements)
        assert len(pairs) == expected
        image = {iv for _, iv in pairs}
        assert len(image) == expected

    @given(st.integers(2, 5), st.integers(0, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bijection_against_structural_scan(self, n, seeds, seed):
        L = random_sublattice(n, seeds, seed)
        image = {iv for _, iv in boolean_intervals(L)}
        assert image == boolean_interval_scan(L)


class TestFAndSets:
    def test_f_chain(self, CHAIN):
        assert f_value(CHAIN, 0b01) == 0
        assert f_value(CHAIN, 0b11) == 0

    def test_f_bottom_raises(self, CHAIN):
        with pytest.raises(BottomElement):
            f_value(CHAIN, 0)

    def test_f_k22(self, K22):
        # top has one neighbor (the bottom), meet is empty: f = 2 - 1 - 0
        assert f_value(K22, 0b11) == 1

    def test_fig1_f_values(self, FIG1):
        expect = {
            m(7, 1, 2, 3): 1,
            m(7, 1, 2, 3, 4): 1,
            m(7, 1, 2, 3, 4, 5, 6, 7): 1,
            m(7, 1, 2, 3, 5): 0,
            m(7, 1, 2, 3, 4, 5): 0,
        }
        for p, f in expect.items():
            assert f_value(FIG1, p) == f

    def test_fig1_a_set(self, FIG1):
        assert FIG1.a_set == {
            m(7, 1, 2, 3),
            m(7, 1, 2, 3, 4),
            m(7, 1, 2, 3, 5),
            m(7, 1, 2, 3, 4, 5),
            m(7, 1, 2, 3, 4, 5, 6, 7),
        }

    def test_fig1_b_set(self, FIG1):
        assert b_set(FIG1) == {
            m(7, 1, 2, 3),
            m(7, 1, 2, 3, 4),
            m(7, 1, 2, 3, 4, 5, 6, 7),
        }

    def test_b2_sets(self, B2):
        assert B2.a_set == {0b11}
        assert b_set(B2) == {0b11}

    def test_a_set_is_frozen(self, FIG1):
        assert isinstance(FIG1.a_set, frozenset)
        assert FIG1.a_set is FIG1.a_set

    @pytest.mark.parametrize("name", FIXTURES)
    def test_width_histogram(self, name):
        # width k -> the number of p with |N(p)| = k, counted once and kept
        L = fixture_lattice(name)
        counts = {}
        for p in L.elements:
            k = len(L.neighbors(p))
            counts[k] = counts.get(k, 0) + 1
        assert L.widths == counts
        assert L.widths is L.widths

    def test_scan_runs_once_per_report(self, FIG1, monkeypatch):
        calls = []
        scan = lattice_mod._maximal_interval_tops

        def counted(L):
            calls.append(L)
            return scan(L)

        monkeypatch.setattr(lattice_mod, "_maximal_interval_tops", counted)
        invariant_report(FIG1)
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", range(200))
    def test_a_set_matches_pair_scan(self, seed):
        rng = random.Random(seed)
        L = random_sublattice(rng.randint(1, 9), rng.randint(0, 9), seed)
        assert L.a_set == a_set_reference(L)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_star_a_set_matches_pair_scan(self, n):
        L = star_lattice(n)
        assert len(L) == 2 ** (n - 1) + 1
        assert L.a_set == a_set_reference(L)

    @given(st.integers(2, 6), st.integers(0, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_a_set_matches_exhaustive_maximality(self, n, seeds, seed):
        # maximality among all Boolean intervals, not only per-element ones
        L = random_sublattice(n, seeds, seed)
        ivals = [iv for _, iv in boolean_intervals(L)]
        per_element = {
            p: (meet(L.lower[p], p), p) for p in L.elements if p != 0
        }
        exhaustive = {
            p
            for p, (a, b) in per_element.items()
            if not any(
                (c, d) != (a, b) and is_subset(c, a) and is_subset(b, d)
                for c, d, _ in ivals
            )
        }
        assert L.a_set == exhaustive


class TestRandom:
    def test_deterministic(self):
        a = random_sublattice(5, 4, 123)
        b = random_sublattice(5, 4, 123)
        assert a.elements == b.elements

    def test_corpus_deterministic_and_capped(self):
        c1 = random_corpus(20, 42)
        c2 = random_corpus(20, 42)
        assert [L.elements for L in c1] == [L.elements for L in c2]
        assert all(2 <= L.n <= 6 and len(L) <= 24 for L in c1)

    def test_corpus_matches_pairwise_closure(self):
        corpus = random_corpus(200, 42)
        assert [(L.n, L.elements) for L in corpus] == corpus_reference(200, 42)

    @given(st.integers(1, 8), st.integers(0, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_family_matches_pairwise_closure(self, n, seeds, seed):
        L = random_sublattice(n, seeds, seed)
        assert set(L.elements) == closure_reference(n, seeds, seed)

    def test_size_bound(self, monkeypatch):
        # with the bound at 2^10, B_10 (2^10 elements) is drawn and B_12
        # (2^12) is refused
        monkeypatch.setattr(lattice_mod, "NEIGHBOR_CAP", 10)
        assert len(random_sublattice(10, 40, 0)) == 1 << 10
        with pytest.raises(TooLarge):
            random_sublattice(12, 40, 0)

    def test_corpus_skips_large_draws_quickly(self):
        # n = 32 draws can close to millions of elements; each is cut at
        # the size cap instead of being closed in full
        corpus = random_corpus(3, 50, n_max=32)
        assert all(len(L) <= 24 for L in corpus)

    @given(st.integers(1, 6), st.integers(0, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_random_is_valid_sublattice(self, n, seeds, seed):
        L = random_sublattice(n, seeds, seed)
        fam = set(L.elements)
        assert 0 in fam and full_mask(n) in fam
        for p in fam:
            for q in fam:
                assert p | q in fam and p & q in fam


class TestSerialization:
    def test_text_round_trip(self, FIG1):
        assert parse_lattice_text(lattice_to_text(FIG1)).elements == FIG1.elements

    def test_text_empty_keyword(self):
        L = parse_lattice_text("lattice 2\nempty\n1\n1 2\n")
        assert L.elements == (0, 0b01, 0b11)

    def test_text_bad_header(self):
        with pytest.raises(InputFormatError):
            parse_lattice_text("lat 2\nempty\n1 2\n")

    def test_json_round_trip(self, FIG1):
        obj = {"n": FIG1.n, "elements": [indices_of(p) for p in FIG1.elements]}
        assert lattice_from_json_obj(obj).elements == FIG1.elements
