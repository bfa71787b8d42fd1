from itertools import combinations

import pytest

from hibires.bitset import mask_of
from hibires.fixtures import b2, chain, e1, fig1, k22
from hibires.lattice import boolean_interval_scan


@pytest.fixture
def E1():
    return e1()


@pytest.fixture
def K22():
    return k22()


@pytest.fixture
def CHAIN():
    return chain()


@pytest.fixture
def B2():
    return b2()


@pytest.fixture
def FIG1():
    return fig1()


def m(n, *indices):
    """Shorthand for a subset mask from 1-based indices."""
    return mask_of(indices, n)


# --- references for the basis-read checks --------------------------------
# Each enumerates the subsets of N(p) itself, independently of
# resolution_basis.

def boolean_intervals(L):
    """All pairs ((p, S), (meet S, p, |S|)) for p in L and S a set of lower
    neighbors.

    The map (p, S) -> [meet(S), p] is a bijection onto the intervals of L
    isomorphic to Boolean lattices; rank-0 intervals [p, p] come from S
    empty.
    """
    out = []
    for p in L.elements:
        nb = L.neighbors(p)
        for k in range(len(nb) + 1):
            for S in combinations(nb, k):
                out.append(((p, S), (L.meet_of(S, p), p, k)))
    return out


def distinct_meets_reference(L):
    """Distinct subsets of N(p) have distinct meets, by the subset scan."""
    for p in L.elements:
        nb = L.neighbors(p)
        meets = [
            L.meet_of(S, p)
            for k in range(len(nb) + 1)
            for S in combinations(nb, k)
        ]
        if len(set(meets)) != len(meets):
            return False
    return True


def corollary_reference(L):
    """|S'| - |S| <= |meet S| - |meet S'| over all 3^|N(p)| nested pairs."""
    for p in L.elements:
        nb = L.neighbors(p)
        for k in range(len(nb) + 1):
            for Sp in combinations(nb, k):
                mp = L.meet_of(Sp, p).bit_count()
                for k2 in range(k + 1):
                    for S in combinations(Sp, k2):
                        m = L.meet_of(S, p).bit_count()
                        if len(Sp) - len(S) > m - mp:
                            return False
    return True


def bijection_reference(L):
    """The pairs (p, S) map one-to-one onto the structural interval scan."""
    pairs = boolean_intervals(L)
    image = {iv for _, iv in pairs}
    return len(image) == len(pairs) and image == boolean_interval_scan(L)
