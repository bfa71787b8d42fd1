import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hibires.ideals as ideals_mod
from hibires.bitset import order_key
from hibires.errors import ClosureTooLarge, ConsistencyError, ZeroIdeal
from hibires.graphs import BipartiteGraph, graph_from_lattice
from hibires.ideals import (
    SquarefreeIdeal,
    alexander_dual,
    edge_ideal,
    hibi_ideal,
    lattice_generator,
    lcm_closure,
    monomial,
    render_monomial,
)
from hibires.lattice import random_sublattice
from hibires.oracle import total_betti_in_degree


def dual_reference(I):
    """Alexander dual by expand-and-minimalize: every partial transversal
    times every variable of the next generator, minimalized in full, with
    the same cap on the partial transversal list."""
    trans = (0,)
    for g in I.gens:
        variables = [1 << v for v in range(2 * I.n) if g >> v & 1]
        trans = SquarefreeIdeal.of(
            I.n, [t | v for t in trans for v in variables]
        ).gens
        if len(trans) > ideals_mod.CLOSURE_CAP:
            raise ClosureTooLarge("reference cap")
    return SquarefreeIdeal(I.n, trans)


def closure_reference(I, cap=ideals_mod.CLOSURE_CAP):
    """lcm closure by the frontier loop: lcm every new element with every
    generator until nothing new appears, refusing past cap elements."""
    closure = set(I.gens)
    frontier = set(I.gens)
    while frontier:
        new = set()
        for m in frontier:
            for g in I.gens:
                l = m | g
                if l not in closure:
                    new.add(l)
        closure |= new
        if len(closure) > cap:
            raise ClosureTooLarge("reference cap")
        frontier = new
    return sorted(closure, key=order_key)


def random_ideal(rng):
    """Squarefree monomials on n <= 4, minimalized or kept as drawn (a
    drawn generating set may repeat itself, be redundant or hold 1)."""
    n = rng.randint(1, 4)
    monos = [
        monomial(rng.getrandbits(n), rng.getrandbits(n), n)
        for _ in range(rng.randint(1, 7))
    ]
    if rng.random() < 0.5:
        return SquarefreeIdeal.of(n, monos)
    return SquarefreeIdeal(n, tuple(monos))


class TestMonomial:
    def test_render(self):
        assert render_monomial(monomial(0b011, 0b100, 3), 3) == "x1*x2*y3"
        assert render_monomial(0, 3) == "1"

    def test_order_is_degree_first(self):
        def key(x, y):
            return order_key(monomial(x, y, 2))

        assert key(0b1, 0) < key(0b11, 0)
        assert key(0b01, 0) < key(0b10, 0)

    def test_order_key_is_degree_then_x_then_y(self):
        # the canonical generator order, (degree, x-part, y-part)
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 8)
            triples = [
                (rng.getrandbits(n), rng.getrandbits(n))
                for _ in range(rng.randint(2, 12))
            ]
            by_key = sorted(triples, key=lambda t: order_key(monomial(*t, n)))
            by_tuple = sorted(
                triples, key=lambda t: (t[0].bit_count() + t[1].bit_count(), *t)
            )
            assert by_key == by_tuple


class TestMonomialIdeal:
    def test_minimalization(self):
        x1, x1x2, y1 = monomial(0b1, 0, 2), monomial(0b11, 0, 2), monomial(0, 0b1, 2)
        I = SquarefreeIdeal.of(2, [x1, x1x2, y1])
        assert I.gens == (y1, x1)

    def test_minimalization_matches_pairwise_divisibility(self):
        # kept: the distinct monomials no other one divides, in order_key
        # order; mixed degrees, repeats and the unit monomial 1 included
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 4)
            monos = {
                monomial(rng.getrandbits(n), rng.getrandbits(n), n)
                for _ in range(rng.randint(1, 12))
            }
            minimal = [
                m for m in monos
                if not any(g != m and g & ~m == 0 for g in monos)
            ]
            assert SquarefreeIdeal.of(n, monos).gens == tuple(
                sorted(minimal, key=order_key)
            )

    def test_contains_monomial(self):
        I = SquarefreeIdeal.of(2, [monomial(0b1, 0b1, 2)])
        assert I.contains_monomial(monomial(0b11, 0b11, 2))
        assert not I.contains_monomial(monomial(0b1, 0, 2))


class TestPerIdealFacts:
    """degree_range, graph and dominators are cached on the ideal, like
    CoverLattice.a_set, and the cache takes no part in equality."""

    def test_values(self, CHAIN):
        H = hibi_ideal(CHAIN)  # y1y2, x1y2, x1x2: the path y1 - y2 - x1 - x2
        assert H.degree_range == (2, 2)
        y1, y2, x1, x2 = 0b0001, 0b0010, 0b0100, 0b1000
        assert H.graph == {y1: y2, y2: y1 | x1, x1: y2 | x2, x2: x1}
        mixed = SquarefreeIdeal.of(2, [monomial(0b1, 0b1, 2),
                                       monomial(0b10, 0b11, 2)])
        assert mixed.degree_range == (2, 3)
        assert mixed.graph is None
        assert SquarefreeIdeal.of(1, [0]).degree_range == (0, 0)
        assert SquarefreeIdeal(1, ()).degree_range is None

    def test_computed_once(self, K22, monkeypatch):
        calls = []
        for name in ("degree_range", "graph"):
            prop = SquarefreeIdeal.__dict__[name]

            def counted(I, func=prop.func, name=name):
                calls.append(name)
                return func(I)

            monkeypatch.setattr(prop, "func", counted)
        I = edge_ideal(graph_from_lattice(K22))
        for i in range(4):
            total_betti_in_degree(I, i)
        assert sorted(calls) == ["degree_range", "graph"]
        assert I.graph is I.graph

    def test_dominators(self, CHAIN, K22):
        # on the path y1 - y2 - x1 - x2, N(x2) = {x1} lies in N(y2) and
        # N(y1) = {y2} in N(x1); the ends are dominated by nothing
        y1, y2, x1, x2 = 0b0001, 0b0010, 0b0100, 0b1000
        assert hibi_ideal(CHAIN).dominators == {y1: 0, y2: x2, x1: y1, x2: 0}
        # K22's graph is K_{2,2}: two pairs of twins
        assert edge_ideal(graph_from_lattice(K22)).dominators == {
            y1: y2, y2: y1, x1: x2, x2: x1}
        mixed = SquarefreeIdeal.of(2, [monomial(0b1, 0b1, 2),
                                       monomial(0b10, 0b11, 2)])
        assert mixed.dominators is None

    @given(st.sets(st.integers(0, 255).filter(lambda g: g.bit_count() == 2),
                   max_size=14))
    @settings(max_examples=60, deadline=None)
    def test_dominators_match_pairwise_containment(self, gens):
        I = SquarefreeIdeal.of(4, gens)
        nbr = {1 << v: sum(g & ~(1 << v) for g in I.gens if g >> v & 1)
               for v in range(8) if any(g >> v & 1 for g in I.gens)}
        assert I.graph == nbr
        assert I.dominators == {
            v: sum(u for u in nbr if u != v and nbr[u] | nbr[v] == nbr[v])
            for v in nbr
        }

    def test_dominators_computed_once(self, K22, monkeypatch):
        calls = []
        for name in ("graph", "dominators"):
            prop = SquarefreeIdeal.__dict__[name]

            def counted(I, func=prop.func, name=name):
                calls.append(name)
                return func(I)

            monkeypatch.setattr(prop, "func", counted)
        I = edge_ideal(graph_from_lattice(K22))
        for i in range(4):
            total_betti_in_degree(I, i)
        assert sorted(calls) == ["dominators", "graph"]
        assert I.dominators is I.dominators

    def test_cache_does_not_change_equality(self, K22):
        filled = edge_ideal(graph_from_lattice(K22))
        total_betti_in_degree(filled, 1)
        assert {"degree_range", "graph"} <= filled.__dict__.keys()
        fresh = edge_ideal(graph_from_lattice(K22))
        assert "graph" not in fresh.__dict__
        assert filled == fresh and hash(filled) == hash(fresh)
        assert {filled: 1}[fresh] == 1


class TestHibiIdeal:
    def test_chain(self, CHAIN):
        H = hibi_ideal(CHAIN)
        assert set(H.gens) == {
            monomial(0, 0b11, 2),     # y1*y2 from the empty set
            monomial(0b01, 0b10, 2),  # x1*y2 from {1}
            monomial(0b11, 0, 2),     # x1*x2 from {1,2}
        }

    def test_generator_count_matches_lattice(self, FIG1):
        assert len(hibi_ideal(FIG1).gens) == len(FIG1)

    def test_all_degree_n(self, FIG1):
        assert all(g.bit_count() == FIG1.n for g in hibi_ideal(FIG1).gens)

    def test_generator_count_check_raises(self, FIG1, monkeypatch):
        # a minimalization that drops a generator must not pass silently
        monkeypatch.setattr(ideals_mod, "_minimalize", lambda ms: tuple(ms)[1:])
        with pytest.raises(ConsistencyError):
            hibi_ideal(FIG1)

    def test_lattice_generator(self, CHAIN):
        assert lattice_generator(CHAIN, 0b01) == monomial(0b01, 0b10, 2)


class TestEdgeIdeal:
    def test_chain_graph(self):
        G = BipartiteGraph(2, 2, frozenset({(1, 1), (1, 2), (2, 2)}))
        assert set(edge_ideal(G).gens) == {
            monomial(0b01, 0b01, 2),
            monomial(0b01, 0b10, 2),
            monomial(0b10, 0b10, 2),
        }


class TestAlexanderDual:
    def test_chain_duality(self, CHAIN):
        H = hibi_ideal(CHAIN)
        I = edge_ideal(graph_from_lattice(CHAIN))
        assert alexander_dual(H) == I
        assert alexander_dual(I) == H

    def test_zero_ideal(self):
        with pytest.raises(ZeroIdeal):
            alexander_dual(SquarefreeIdeal(1, ()))

    def test_generator_cap(self, FIG1, monkeypatch):
        monkeypatch.setattr(ideals_mod, "CLOSURE_CAP", 3)
        with pytest.raises(ClosureTooLarge):
            alexander_dual(hibi_ideal(FIG1))

    @pytest.mark.parametrize("cap", [5000, 12])
    def test_matches_expand_and_minimalize(self, cap, monkeypatch):
        # random squarefree ideals, some of them past the cap
        monkeypatch.setattr(ideals_mod, "CLOSURE_CAP", cap)
        rng = random.Random(cap)
        for _ in range(500):
            n = rng.randint(1, 6)
            I = SquarefreeIdeal.of(n, [
                monomial(rng.getrandbits(n), rng.getrandbits(n), n)
                for _ in range(rng.randint(1, 8))
            ])
            outcome = []
            for dual in (alexander_dual, dual_reference):
                try:
                    outcome.append(dual(I))
                except ClosureTooLarge:
                    outcome.append(ClosureTooLarge)
            assert outcome[0] == outcome[1], I

    @given(st.integers(2, 5), st.integers(0, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_involution_and_transversal(self, n, seeds, seed):
        L = random_sublattice(n, seeds, seed)
        H = hibi_ideal(L)
        D = alexander_dual(H)
        assert alexander_dual(D) == H
        # every dual generator meets the support of every generator of H
        for d in D.gens:
            for g in H.gens:
                assert d & g

    @given(st.integers(2, 5), st.integers(0, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_dual_gens_are_minimal_transversals(self, n, seeds, seed):
        L = random_sublattice(n, seeds, seed)
        H = hibi_ideal(L)
        for d in alexander_dual(H).gens:
            for v in range(2 * n):
                drop = d & ~(1 << v)
                if drop == d:
                    continue
                assert not all(drop & g for g in H.gens)


class TestLcmClosure:
    def test_chain(self, CHAIN):
        H = hibi_ideal(CHAIN)
        closure = set(lcm_closure(H))
        assert set(H.gens) <= closure
        for a in closure:
            for b in closure:
                assert (a | b) in closure

    def test_cap(self, FIG1):
        with pytest.raises(ClosureTooLarge):
            lcm_closure(hibi_ideal(FIG1), cap=5)

    def test_zero_ideal(self):
        with pytest.raises(ZeroIdeal):
            lcm_closure(SquarefreeIdeal(1, ()))

    def test_unit_ideal(self):
        assert lcm_closure(SquarefreeIdeal(1, (0,))) == [0]

    def test_random_ideals_match_frontier_loop(self):
        rng = random.Random(7)
        for _ in range(500):
            I = random_ideal(rng)
            assert lcm_closure(I) == closure_reference(I)

    @pytest.mark.parametrize("name", ["E1", "CHAIN", "B2", "K22", "FIG1"])
    @pytest.mark.parametrize("side", ["hibi", "edge"])
    def test_fixtures_match_frontier_loop(self, name, side, request):
        L = request.getfixturevalue(name)
        I = hibi_ideal(L) if side == "hibi" else edge_ideal(graph_from_lattice(L))
        closure = lcm_closure(I, cap=200000)
        assert closure == closure_reference(I, cap=200000)
        if (name, side) == ("FIG1", "edge"):
            assert len(closure) == 6973
        # the cap admits a closure of exactly cap elements, and no larger
        assert lcm_closure(I, cap=len(closure)) == closure
        with pytest.raises(ClosureTooLarge):
            lcm_closure(I, cap=len(closure) - 1)
