"""Bipartite graphs and the cover lattice in both directions.

An unmixed bipartite graph G, labelled so that its perfect matching is
x_i y_i, has x_i y_j in E exactly when i <= j in a preorder on [n]; the
x-parts of its minimal vertex covers are the down-sets of that preorder
(Herzog-Hibi).  So cover_lattice reads D(j) = {i : x_i y_j in E} off the
edges and builds L_G from them, and graph_from_lattice goes back.
"""

from dataclasses import dataclass

from .bitset import MAX_GROUND, indices_of
from .errors import (
    EmptyInput,
    InputFormatError,
    NoPerfectMatching,
    NotUnmixed,
    TooLarge,
)
from .lattice import json_int, preorder_lattice


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph with 1-based sides [n_left] x [n_right].

    A normalized graph has equal sides and contains every matching edge
    (i, i); ``n`` is then the number of matched pairs.
    """

    n_left: int
    n_right: int
    edges: frozenset

    @property
    def n(self):
        if not self.is_normalized:
            raise ValueError("n is only defined for normalized graphs")
        return self.n_left

    @property
    def is_normalized(self):
        return self.n_left == self.n_right and all(
            (i, i) in self.edges for i in range(1, self.n_left + 1)
        )

    def __post_init__(self):
        if self.n_left < 1 or self.n_right < 1 or not self.edges:
            raise EmptyInput("graph must have vertices on both sides and an edge")
        for i, j in self.edges:
            if not (1 <= i <= self.n_left and 1 <= j <= self.n_right):
                raise InputFormatError(f"edge ({i},{j}) out of range")
        # the endpoints are in range, so a side is covered iff all its
        # n vertices occur
        lefts = {i for i, _ in self.edges}
        rights = {j for _, j in self.edges}
        if len(lefts) != self.n_left or len(rights) != self.n_right:
            raise EmptyInput("graph has an isolated vertex")


def _perfect_matching(n, adj):
    """Left->right matching by augmenting paths, lowest index first.

    adj[i] is the sorted list of right neighbors of left vertex i.
    Returns match_left (1-based dict) or None.
    """
    match_right = {}
    match_left = {}

    def augment(i, seen):
        for j in adj[i]:
            if j in seen:
                continue
            seen.add(j)
            if j not in match_right or augment(match_right[j], seen):
                match_right[j] = i
                match_left[i] = j
                return True
        return False

    for i in range(1, n + 1):
        if not augment(i, set()):
            return None
    return match_left


def normalize_graph(raw_edges):
    """Relabel so the perfect matching is (i, i) for every i.

    raw_edges are (left-label, right-label) pairs with arbitrary hashable
    labels.  Raises NoPerfectMatching when sides differ in size or no
    perfect matching exists (such a graph cannot be unmixed bipartite),
    and TooLarge past MAX_GROUND pairs, before the matching is searched.
    """
    raw_edges = list(dict.fromkeys(raw_edges))
    if not raw_edges:
        raise EmptyInput("no edges given")
    lefts = sorted({a for a, _ in raw_edges}, key=str)
    rights = sorted({b for _, b in raw_edges}, key=str)
    if len(lefts) != len(rights):
        raise NoPerfectMatching(
            f"side sizes differ: {len(lefts)} vs {len(rights)}"
        )
    n = len(lefts)
    if n > MAX_GROUND:
        raise TooLarge(f"{n} matched pairs exceed the ground set bound {MAX_GROUND}")
    lidx = {a: i for i, a in enumerate(lefts, 1)}
    ridx = {b: j for j, b in enumerate(rights, 1)}
    adj = {i: [] for i in range(1, n + 1)}
    for a, b in raw_edges:
        adj[lidx[a]].append(ridx[b])
    for i in adj:
        adj[i] = sorted(set(adj[i]))
    match = _perfect_matching(n, adj)
    if match is None:
        raise NoPerfectMatching("the graph has no perfect matching")
    # right vertex matched to left i becomes y_i
    right_relabel = {match[i]: i for i in range(1, n + 1)}
    edges = frozenset(
        (lidx[a], right_relabel[ridx[b]]) for a, b in raw_edges
    )
    return BipartiteGraph(n, n, edges)


def is_transitive(G):
    """Villarreal's criterion for a normalized G: x_i y_j, x_j y_k in E
    imply x_i y_k in E.

    It holds for a bipartite graph with a perfect matching exactly when
    the graph is unmixed, whichever perfect matching labels it.
    """
    right = {}
    for i, j in G.edges:
        right.setdefault(i, set()).add(j)
    return all(right[j] <= right[i] for i, j in G.edges)


def cover_lattice(G):
    """The lattice {xs(C) : C minimal vertex cover} for a normalized unmixed G.

    Unmixedness is decided by the transitivity criterion.  For a
    transitive G each D(j) = {i : (i, j) in E} holds j and is a down-set,
    and the x-parts of the minimal covers are the unions of the D(j), so
    L_G is the lattice of down-sets of that preorder.
    """
    if not G.is_normalized:
        raise NotUnmixed("graph must be normalized first (use normalize_graph)")
    if not is_transitive(G):
        raise NotUnmixed("graph has minimal vertex covers of different sizes")
    if G.n > MAX_GROUND:
        raise TooLarge(
            f"{G.n} matched pairs exceed the ground set bound {MAX_GROUND}"
        )
    D = [0] * G.n
    for i, j in G.edges:
        D[j - 1] |= 1 << (i - 1)
    return preorder_lattice(D)


def graph_from_lattice(L):
    """The unmixed bipartite graph whose cover lattice is L.

    Edge (i, j) is present exactly when every lattice element containing j
    also contains i, i.e. i lies in D(j); the result is normalized and
    round-trips through cover_lattice.
    """
    D = L.closures
    edges = frozenset((i, j) for j, d in enumerate(D, 1) for i in indices_of(d))
    return BipartiteGraph(L.n, L.n, edges)


# --- text / JSON formats -------------------------------------------------

def parse_graph_text(text):
    """Parse the graph text format.

    First line "graph <n_left> <n_right>"; further non-comment lines "i j"
    for the edge {left_i, right_j}.
    """
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise InputFormatError("empty graph file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "graph":
        raise InputFormatError("first line must be 'graph <n_left> <n_right>'")
    try:
        nl, nr = int(head[1]), int(head[2])
        edges = set()
        for ln in lines[1:]:
            toks = ln.split()
            if len(toks) != 2:
                raise InputFormatError(f"bad edge line: {ln!r}")
            edges.add((int(toks[0]), int(toks[1])))
    except ValueError as exc:
        raise InputFormatError(f"malformed graph text: {exc}") from exc
    return BipartiteGraph(nl, nr, frozenset(edges))


def graph_from_json_obj(obj):
    """Graph from {"left": n_left, "right": n_right, "edges": [[i, j], ...]}."""
    try:
        nl, nr = json_int(obj["left"]), json_int(obj["right"])
        edges = frozenset((json_int(i), json_int(j)) for i, j in obj["edges"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed graph JSON: {exc!r}") from exc
    return BipartiteGraph(nl, nr, edges)
