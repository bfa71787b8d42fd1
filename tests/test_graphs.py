import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hibires.graphs as graphs_mod
from hibires.bitset import MAX_GROUND, full_mask, is_subset, mask_of
from hibires.errors import EmptyInput, NoPerfectMatching, NotUnmixed, TooLarge
from hibires.graphs import (
    BipartiteGraph,
    VertexCover,
    _implication_lattice_family,
    cover_lattice,
    graph_from_lattice,
    is_transitive,
    minimal_vertex_covers,
    normalize_graph,
    parse_graph_text,
)
from hibires.lattice import random_sublattice, validate_sublattice


def implication_scan(G):
    """Subsets p of [n] with j in p => i in p for every edge (i, j), by
    testing all 2^n subsets against every edge."""
    return {
        p
        for p in range(1 << G.n)
        if all(not (p >> (j - 1) & 1) or (p >> (i - 1) & 1) for i, j in G.edges)
    }


def covers_by_pairwise_filter(G):
    """Minimal vertex covers: every candidate cover of the left-subset
    enumeration that contains no other candidate."""
    candidates = set()
    for xs in range(1 << G.n_left):
        ys = 0
        for i, j in G.edges:
            if not xs >> (i - 1) & 1:
                ys |= 1 << (j - 1)
        candidates.add((xs, ys))
    return {
        VertexCover(xs, ys)
        for xs, ys in candidates
        if not any(
            (oxs, oys) != (xs, ys) and is_subset(oxs, xs) and is_subset(oys, ys)
            for oxs, oys in candidates
        )
    }


def is_unmixed(G):
    """True when all minimal vertex covers have the same cardinality: the
    definition, which the transitivity criterion is checked against."""
    return len({c.size for c in minimal_vertex_covers(G)}) == 1


def normalized_graphs(n):
    """Every normalized graph on n matched pairs."""
    off = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    matching = {(i, i) for i in range(1, n + 1)}
    for k in range(1 << len(off)):
        extra = {e for b, e in enumerate(off) if k >> b & 1}
        yield BipartiteGraph(n, n, frozenset(matching | extra))


def preorder_graph(seed):
    """The transitive graph with edges (i, j) for i <= j in a random preorder."""
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    L = random_sublattice(n, rng.randint(0, n + 2), rng.getrandbits(32))
    return graph_from_lattice(L)


def cover_sets(G):
    """(xs, ys) index pairs for easy comparison."""
    return {
        (tuple(i + 1 for i in range(G.n_left) if c.xs >> i & 1),
         tuple(j + 1 for j in range(G.n_right) if c.ys >> j & 1))
        for c in minimal_vertex_covers(G)
    }


class TestNormalize:
    def test_single_edge(self):
        G = normalize_graph([("a", "b")])
        assert G.n == 1
        assert G.edges == frozenset({(1, 1)})

    def test_k22(self):
        G = normalize_graph(
            [("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2")]
        )
        assert G.n == 2
        assert (1, 1) in G.edges and (2, 2) in G.edges
        assert len(G.edges) == 4

    def test_star_has_no_matching(self):
        with pytest.raises(NoPerfectMatching):
            normalize_graph([("a", "b1"), ("a", "b2")])

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            normalize_graph([])

    def test_labels_recorded(self):
        G = normalize_graph([("u", "v")])
        assert G.raw_labels["left"][1] == "u"
        assert G.raw_labels["right"][1] == "v"

    def test_deterministic(self):
        edges = [("a2", "b2"), ("a1", "b1"), ("a1", "b2")]
        assert normalize_graph(edges) == normalize_graph(list(reversed(edges)))


class TestMinimalVertexCovers:
    def test_single_edge(self):
        G = BipartiteGraph(1, 1, frozenset({(1, 1)}))
        assert cover_sets(G) == {((1,), ()), ((), (1,))}

    def test_k22(self):
        G = BipartiteGraph(2, 2, frozenset({(1, 1), (1, 2), (2, 1), (2, 2)}))
        assert cover_sets(G) == {((1, 2), ()), ((), (1, 2))}

    def test_path(self):
        G = BipartiteGraph(2, 2, frozenset({(1, 1), (1, 2), (2, 2)}))
        assert cover_sets(G) == {((1, 2), ()), ((1,), (2,)), ((), (1, 2))}

    def test_minimality_by_single_removal(self):
        G = BipartiteGraph(2, 2, frozenset({(1, 1), (1, 2), (2, 2)}))
        for c in minimal_vertex_covers(G):
            for i in range(2):
                for xs, ys in ((c.xs & ~(1 << i), c.ys), (c.xs, c.ys & ~(1 << i))):
                    if (xs, ys) == (c.xs, c.ys):
                        continue
                    assert not all(
                        xs >> (a - 1) & 1 or ys >> (b - 1) & 1
                        for a, b in G.edges
                    )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_local_minimality_matches_pairwise_filter(self, n):
        for G in normalized_graphs(n):
            assert minimal_vertex_covers(G) == covers_by_pairwise_filter(G)

    @pytest.mark.parametrize("seed", range(30))
    def test_preorder_graphs_match_pairwise_filter(self, seed):
        G = preorder_graph(seed)
        assert minimal_vertex_covers(G) == covers_by_pairwise_filter(G)

    def test_unbalanced_sides_match_pairwise_filter(self):
        G = BipartiteGraph(2, 3, frozenset({(1, 1), (1, 2), (2, 2), (2, 3)}))
        assert minimal_vertex_covers(G) == covers_by_pairwise_filter(G)

    def test_enumeration_bound(self, monkeypatch):
        G = BipartiteGraph(2, 2, frozenset({(1, 1), (2, 2)}))
        monkeypatch.setattr(graphs_mod, "ENUMERATION_BOUND", 3)
        with pytest.raises(TooLarge):
            minimal_vertex_covers(G)


class TestUnmixed:
    def test_k22(self):
        G = BipartiteGraph(2, 2, frozenset({(1, 1), (1, 2), (2, 1), (2, 2)}))
        assert is_unmixed(G)

    def test_path(self):
        G = BipartiteGraph(2, 2, frozenset({(1, 1), (1, 2), (2, 2)}))
        assert is_unmixed(G)

    def test_non_normalized_star_is_mixed(self):
        G = BipartiteGraph(1, 2, frozenset({(1, 1), (1, 2)}))
        assert not is_unmixed(G)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_transitivity_matches_exhaustive(self, n):
        for G in normalized_graphs(n):
            assert is_transitive(G) == is_unmixed(G), sorted(G.edges)


class TestCoverLattice:
    def test_single_edge(self):
        G = BipartiteGraph(1, 1, frozenset({(1, 1)}))
        assert cover_lattice(G).elements == (0, 1)

    def test_k22(self):
        G = BipartiteGraph(2, 2, frozenset({(1, 1), (1, 2), (2, 1), (2, 2)}))
        assert cover_lattice(G).elements == (0, 0b11)

    def test_chain(self):
        G = BipartiteGraph(2, 2, frozenset({(1, 1), (1, 2), (2, 2)}))
        assert cover_lattice(G).elements == (0, 0b01, 0b11)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_down_sets_match_implication_scan(self, n):
        for G in normalized_graphs(n):
            if is_transitive(G):
                assert _implication_lattice_family(G) == implication_scan(G)

    @pytest.mark.parametrize("seed", range(30))
    def test_preorder_graphs_match_implication_scan(self, seed):
        G = preorder_graph(seed)
        assert _implication_lattice_family(G) == implication_scan(G)

    def test_not_normalized_rejected(self):
        G = BipartiteGraph(2, 2, frozenset({(1, 2), (2, 1)}))
        with pytest.raises(NotUnmixed):
            cover_lattice(G)

    def test_mixed_rejected(self):
        # pendant edge (3,1) makes covers of different sizes
        G = BipartiteGraph(
            3, 3, frozenset({(1, 1), (2, 2), (3, 3), (3, 1), (1, 3), (2, 3)})
        )
        if not is_unmixed(G):
            with pytest.raises(NotUnmixed):
                cover_lattice(G)

    def test_mixed_rejected_above_enumeration_bound(self):
        # 26 vertices: cover enumeration is out of reach, transitivity is not
        edges = {(i, i) for i in range(1, 14)} | {(1, 2), (2, 3)}
        G = BipartiteGraph(13, 13, frozenset(edges))
        with pytest.raises(NotUnmixed):
            cover_lattice(G)

    def test_ground_bound_refused_before_enumeration(self):
        # a matching on MAX_GROUND + 1 pairs has 2^33 down-sets; the size
        # alone refuses it
        n = MAX_GROUND + 1
        G = BipartiteGraph(n, n, frozenset((i, i) for i in range(1, n + 1)))
        with pytest.raises(TooLarge):
            cover_lattice(G)


class TestGraphFromLattice:
    def test_single_edge(self):
        L = validate_sublattice({0, 1}, 1)
        assert graph_from_lattice(L).edges == frozenset({(1, 1)})

    def test_k22(self):
        L = validate_sublattice({0, 0b11}, 2)
        assert graph_from_lattice(L).edges == frozenset(
            {(1, 1), (1, 2), (2, 1), (2, 2)}
        )

    def test_chain(self):
        L = validate_sublattice({0, 0b01, 0b11}, 2)
        assert graph_from_lattice(L).edges == frozenset({(1, 1), (1, 2), (2, 2)})

    @given(st.integers(2, 6), st.integers(0, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, n, seeds, seed):
        L = random_sublattice(n, seeds, seed)
        G = graph_from_lattice(L)
        assert G.is_normalized
        assert cover_lattice(G).elements == L.elements

    @given(st.integers(2, 6), st.integers(0, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_cover_structure(self, n, seeds, seed):
        L = random_sublattice(n, seeds, seed)
        G = graph_from_lattice(L)
        covers = minimal_vertex_covers(G)
        assert all(c.size == n for c in covers)
        assert all(c.ys == full_mask(n) & ~c.xs for c in covers)


class TestTextFormat:
    def test_round_trip(self):
        G = BipartiteGraph(2, 2, frozenset({(1, 1), (1, 2), (2, 2)}))
        assert parse_graph_text("graph 2 2\n1 1\n1 2\n2 2\n") == G

    def test_comments_ignored(self):
        G = parse_graph_text("# a path\ngraph 2 2\n1 1\n\n1 2\n2 2\n")
        assert len(G.edges) == 3

    @pytest.mark.parametrize("text", [
        "graph 2 2\n1 1\n1 2\n",
        "graph 2 2\n1 1\n2 1\n",
        f"graph {10**12} 1\n1 1\n",
        f"graph 1 {10**12}\n1 1\n",
    ])
    def test_isolated_vertex(self, text):
        # the huge headers are decided by counting endpoints, at once
        with pytest.raises(EmptyInput):
            parse_graph_text(text)
