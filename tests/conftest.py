from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import and_

import pytest

from hibires.bitset import full_mask, mask_of, order_key, positions_of
from hibires.errors import ConsistencyError
from hibires.fixtures import b2, chain, e1, fig1, k22
from hibires.ideals import monomial
from hibires.lattice import boolean_interval_scan, preorder_lattice
from hibires.linalg import rank_exact


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


def meet(S, p):
    """Intersection of the elements S below p; the empty meet is p."""
    return reduce(and_, S, p)


def basis_element(L, p, S):
    """b(p; S), which is its multidegree X_p * Y over the complement of
    meet S."""
    return monomial(p, full_mask(L.n) & ~meet(S, p), L.n)


# --- reference resolution --------------------------------------------------
# The resolution with basis elements labelled by (p, S): every term of the
# differential is named by its (p', S') label, found through meets, with
# its own coefficient.  build_resolution, keyed by multidegree, must agree
# with it.

def reference_differential(L, p, S):
    """(target label (p', S'), sign, coefficient) for each term of
    d b(p; S)."""
    terms = []
    for sigma, q in enumerate(S):
        rest = tuple(r for r in S if r != q)
        sign = -1 if sigma % 2 else 1
        # y-term: stay at p, drop q from S
        terms.append(((p, rest), sign, monomial(0, meet(rest, p) & ~q, L.n)))
        # x-term: descend to q, meet the rest of S into N(q)
        T = tuple(sorted({q & r for r in rest}, key=order_key))
        terms.append(((q, T), -sign, monomial(p & ~q, 0, L.n)))
    if len({label for label, _, _ in terms}) != len(terms):
        raise ConsistencyError(f"differential targets collided at b({p}; {S})")
    return terms


def reference_resolution(L):
    """Levels of multidegrees and the differential keyed by multidegree, in
    the layout of ResolutionComplex; each term's own coefficient must be
    m / target."""
    nb = {p: L.neighbors(p) for p in L.elements}
    labels = [
        [(p, S) for p in L.elements for S in combinations(nb[p], i)]
        for i in range(max(map(len, nb.values())) + 1)
    ]
    d = {}
    for i in range(1, len(labels)):
        below = set(labels[i - 1])
        for p, S in labels[i]:
            m = basis_element(L, p, S)
            terms = []
            for label, sign, coeff in reference_differential(L, p, S):
                assert label in below
                target = basis_element(L, *label)
                assert coeff == m & ~target
                terms.append((target, sign))
            d[m] = tuple(zip(*terms))  # (targets, signs)
    levels = [[basis_element(L, p, S) for p, S in lv] for lv in labels]
    return levels, d


def set_term(C, m, k, target, sign):
    """Replace the k-th term of the differential of m in C by (target,
    sign), keeping the (targets, signs) layout of ResolutionComplex.d."""
    targets, signs = C.d[m]
    C.d[m] = (
        (*targets[:k], target, *targets[k + 1:]),
        (*signs[:k], sign, *signs[k + 1:]),
    )


# --- homology references ----------------------------------------------------
# Homology read off hand-built matrices, one rank_exact call per map, with
# the ranks turned into homology by each complex's own formula: the two
# paths that linalg.homology_ranks replaced, kept to check it against.

def reference_reduced_homology(K, field="Q"):
    """Reduced homology ranks of a simplicial complex (faces as masks) from
    its boundary matrices, one row per face of each dimension."""

    def boundary_rank(d):
        lower = {f: i for i, f in enumerate(K.faces.get(d - 1, ()))}
        rows = []
        for f in K.faces.get(d, ()):
            row, sign, rest = {}, 1, f
            while rest:
                w = rest & -rest
                row[lower[f ^ w]] = sign
                sign, rest = -sign, rest ^ w
            rows.append(row)
        return rank_exact(rows, field=field)

    top = max(K.faces, default=-2)
    ranks = {d: boundary_rank(d) for d in range(0, top + 1)}
    out = {}
    for d in range(-1, top + 1):
        h = len(K.faces.get(d, ())) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if h:
            out[d] = h
    return out


def reference_strand_exactness(C, I, b, field="Q"):
    """Exactness of the degree-b strand of the augmented resolution C, from
    the rank of each restricted sign matrix and the augmentation's rank,
    element by element."""
    survivors = [[m for m in lv if m & ~b == 0] for lv in C.levels]
    local = [{m: k for k, m in enumerate(sv)} for sv in survivors]
    dims = [len(sv) for sv in survivors]
    has_ideal_component = I.contains_monomial(b)
    if has_ideal_component and dims[0] == 0:
        return False  # augmentation cannot be surjective
    ranks = []
    for i in range(len(C.levels) - 1):
        rows = []
        for m in survivors[i + 1]:
            rows.append({
                local[i][t]: sign
                for t, sign in zip(*C.d[m]) if t in local[i]
            })
        ranks.append(rank_exact(rows, field=field))
    # exact at level 0 against the augmentation, then at each level up; at
    # the top the last differential must be injective
    prev = 1 if has_ideal_component else 0
    for i in range(len(C.levels) - 1):
        if ranks[i] + prev != dims[i]:
            return False
        prev = ranks[i]
    return dims[-1] == prev


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
                out.append(((p, S), (meet(S, p), p, k)))
    return out


def distinct_meets_reference(L):
    """Distinct subsets of N(p) have distinct meets, by the subset scan."""
    for p in L.elements:
        nb = L.neighbors(p)
        meets = [
            meet(S, p)
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
                mp = meet(Sp, p).bit_count()
                for k2 in range(k + 1):
                    for S in combinations(Sp, k2):
                        m = meet(S, p).bit_count()
                        if len(Sp) - len(S) > m - mp:
                            return False
    return True


def bijection_reference(L):
    """The pairs (p, S) map one-to-one onto the structural interval scan."""
    pairs = boolean_intervals(L)
    image = {iv for _, iv in pairs}
    return len(image) == len(pairs) and image == boolean_interval_scan(L)


# --- union walk ----------------------------------------------------------
# bitset.down_sets is one levelwise pass; this depth-first walk is the
# reference it is compared with.

def down_sets_reference(closures, limit):
    """Every union of the given sets, the empty union included, or more
    than limit of them: from each union reached, add each given set whole,
    stopping as soon as the set passes limit."""
    closures = set(closures)
    seen = {0}
    stack = [0]
    while stack:
        p = stack.pop()
        for c in closures:
            q = p | c
            if q not in seen:
                seen.add(q)
                if len(seen) > limit:
                    return seen
                stack.append(q)
    return seen


# --- crowns ------------------------------------------------------------------

def crown_lattice(k, twin=False):
    """Down-sets of the 2k-crown poset: minimal elements 1, 3, ..., 2k-1,
    maximal elements 2, 4, ..., 2k, and 2t-1, 2t+1 < 2t (cyclically).  Its
    graph (edges x_i y_j for i <= j) induces the cycle C_2k on
    x_1 x_3 ... x_(2k-1) y_2 y_4 ... y_2k.  With twin, a minimal element
    2k+1 below 2 and 2k is added: on that cycle plus x_(2k+1), the vertex
    x_(2k+1) has the neighbours of x_1."""
    n = 2 * k + twin
    D = [1 << j for j in range(n)]  # D[j-1]: the elements below or at j
    for t in range(1, k + 1):
        D[2 * t - 1] |= 1 << (2 * t - 2) | 1 << (2 * t % (2 * k))
    if twin:
        D[1] |= 1 << 2 * k
        D[2 * k - 1] |= 1 << 2 * k
    return preorder_lattice(D)


def labelled_preorders(n):
    """Every preorder on [n], as the list D with D[j-1] = D(j), the mask of
    the elements below or at j: each D(j) holds j, and i in D(j) implies
    D(i) <= D(j).  There are 1, 4, 29, 355 of them for n = 1..4."""
    choices = [
        [1 << j | rest for rest in range(1 << n) if not rest >> j & 1]
        for j in range(n)
    ]
    out = [[]]
    for options in choices:
        out = [D + [c] for D in out for c in options]
    return [
        D for D in out
        if all(D[i] & ~D[j] == 0 for j in range(n) for i in positions_of(D[j]))
    ]


# --- minimal vertex covers ---------------------------------------------------
# The definition of L_G: cover_lattice builds it from the edge preorder
# (Herzog-Hibi), and the tests check that against this enumeration.

@dataclass(frozen=True)
class VertexCover:
    """Vertex cover split by side: xs over [n_left], ys over [n_right]."""

    xs: int
    ys: int

    @property
    def size(self):
        return self.xs.bit_count() + self.ys.bit_count()


def minimal_vertex_covers(G):
    """All minimal vertex covers, by enumeration over left-side subsets.

    For each subset xs of the left side, xs together with the right
    vertices of the edges it misses is a cover, and every minimal cover
    arises this way.  A cover is minimal exactly when each of its vertices
    has a neighbor outside it; each added right vertex has one by
    construction, so only the left vertices in xs are tested.
    """
    right = [0] * G.n_left
    for i, j in G.edges:
        right[i - 1] |= 1 << (j - 1)
    left = full_mask(G.n_left)
    covers = set()
    for xs in range(1 << G.n_left):
        ys = 0
        for i in positions_of(left & ~xs):
            ys |= right[i]
        if all(right[i] & ~ys for i in positions_of(xs)):
            covers.add(VertexCover(xs, ys))
    return covers
