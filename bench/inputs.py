"""Seeded input generators for the benchmark.

Everything here is independent of the package under test: lattices and
graphs are produced as text, together with the structural facts the
correctness gate compares the program's answers against (lattice size,
lower-neighbour counts, resolution level ranks, Cohen-Macaulayness).
``relabel`` renames the ground set of a lattice, which changes its text
but none of those facts.

Two families of inputs:

* closure lattices: a few random subsets of [n] plus the bounds, closed
  under union and intersection (the kind of instance the acceptance corpus
  uses);
* down-set lattices of random preorders on [n]: every sublattice of B_n
  containing the bounds is one (Birkhoff), and the preorder gives the
  lower neighbours of each element directly, so large lattices come with
  exact expectations.
"""

import random
from dataclasses import dataclass
from math import comb


CLOSURE_CAP = 24  # closure lattices stay at acceptance-corpus size
MERGE_SHARE = 0.15  # per index after the first: chance of one class fewer


def popcount(mask):
    return bin(mask).count("1")


@dataclass(frozen=True)
class LatticeFacts:
    """What the benchmark knows about a lattice without the program."""

    n: int
    size: int
    neighbor_counts: tuple  # |N(p)| for every element p

    @property
    def max_neighbors(self):
        return max(self.neighbor_counts)

    @property
    def level_ranks(self):
        """Ranks of the paper's resolution: sum over p of C(|N(p)|, i)."""
        top = self.max_neighbors
        return [
            sum(comb(k, i) for k in self.neighbor_counts) for i in range(top + 1)
        ]

    @property
    def basis_size(self):
        return sum(1 << k for k in self.neighbor_counts)


def lattice_text(n, family, rng=None):
    """Lattice text format: header, then one element per line (1-based)."""
    elements = sorted(family)
    if rng is not None:
        rng.shuffle(elements)
    lines = [f"lattice {n}"]
    for p in elements:
        idx = [str(i + 1) for i in range(n) if p >> i & 1]
        lines.append(" ".join(idx) if idx else "empty")
    return "\n".join(lines) + "\n"


# --- closure lattices ---------------------------------------------------

def closure_family(rng, n, cap):
    """Closure of 1..n random subsets and the bounds; None above cap."""
    fam = {0, (1 << n) - 1}
    fam.update(rng.getrandbits(n) for _ in range(rng.randint(1, n)))
    frontier = list(fam)
    while frontier:
        new = []
        for p in frontier:
            for q in list(fam):
                for m in (p | q, p & q):
                    if m not in fam:
                        fam.add(m)
                        new.append(m)
        if len(fam) > cap:
            return None
        frontier = new
    return fam


def forced_masks(family, n):
    """For each j, the smallest element containing j (the class below j)."""
    out = []
    for j in range(n):
        m = (1 << n) - 1
        for p in family:
            if p >> j & 1:
                m &= p
        out.append(m)
    return out


def edge_count(family, n):
    """|E(G)| of the graph whose cover lattice is the family."""
    return sum(popcount(m) for m in forced_masks(family, n))


def is_cohen_macaulay(family, n):
    """R/I(G) is CM exactly when the preorder behind L is a partial order,
    i.e. no two indices have the same smallest containing element."""
    forced = forced_masks(family, n)
    return len(set(forced)) == n


def family_facts(family, n):
    """Lower-neighbour counts by direct search (fine for small lattices)."""
    counts = []
    for p in family:
        below = [q for q in family if q != p and q & ~p == 0]
        counts.append(
            sum(
                1
                for q in below
                if not any(r != q and q & ~r == 0 for r in below)
            )
        )
    return LatticeFacts(n, len(family), tuple(counts))


def closure_instance(rng, n, edges):
    """A closure lattice on [n] with at most CLOSURE_CAP elements and
    exactly the given number of graph edges (rejection sampling)."""
    while True:
        fam = closure_family(rng, n, CLOSURE_CAP)
        if fam is not None and edge_count(fam, n) == edges:
            return fam


# --- preorders and their down-set lattices ------------------------------

@dataclass(frozen=True)
class Preorder:
    """Preorder on [n] given by classes and a DAG between them.

    classes[c] is the element mask of class c; below[c] is the mask of
    classes strictly below c (transitively closed); classes are
    topologically ordered, so below[c] only holds indices smaller than c.
    """

    n: int
    classes: tuple
    below: tuple

    def leq_pairs(self):
        """All (i, j) with i <= j, as 1-based element indices."""
        cls_of = {}
        for c, m in enumerate(self.classes):
            for i in range(self.n):
                if m >> i & 1:
                    cls_of[i] = c
        out = []
        for i in range(self.n):
            for j in range(self.n):
                a, b = cls_of[i], cls_of[j]
                if a == b or self.below[b] >> a & 1:
                    out.append((i + 1, j + 1))
        return out


def random_preorder(rng, n, n_classes, density):
    perm = list(range(n))
    rng.shuffle(perm)
    cuts = sorted(rng.sample(range(1, n), n_classes - 1))
    bounds = [0] + cuts + [n]
    classes = []
    for a, b in zip(bounds, bounds[1:]):
        m = 0
        for i in perm[a:b]:
            m |= 1 << i
        classes.append(m)
    rng.shuffle(classes)
    below = []
    for c in range(n_classes):
        m = 0
        for a in range(c):
            if rng.random() < density:
                m |= (1 << a) | below[a]
        below.append(m)
    return Preorder(n, tuple(classes), tuple(below))


def downsets(P, cap):
    """Down-sets as (element mask, number of maximal classes); None above cap.

    The maximal classes of a down-set are its lower neighbours' witnesses:
    removing one of them gives exactly one element of N(p).
    """
    k = len(P.classes)
    above = [0] * k
    for c in range(k):
        for a in range(k):
            if P.below[c] >> a & 1:
                above[a] |= 1 << c
    sets = [0]
    for c in range(k):
        sets += [d | (1 << c) for d in sets if P.below[c] & ~d == 0]
        if len(sets) > cap:
            return None
    out = []
    for d in sets:
        mask = 0
        maximal = 0
        for c in range(k):
            if d >> c & 1:
                mask |= P.classes[c]
                if above[c] & d == 0:
                    maximal += 1
        out.append((mask, maximal))
    return out


def preorder_instance(rng, n, size_range, basis_range=None):
    """A random preorder whose down-set lattice has size (and optionally
    resolution basis size) inside the given closed ranges."""
    lo, hi = size_range
    while True:
        n_classes = n - sum(rng.random() < MERGE_SHARE for _ in range(n - 1))
        P = random_preorder(rng, n, n_classes, rng.uniform(0.05, 0.45))
        ds = downsets(P, hi)
        if ds is None or len(ds) < lo:
            continue
        facts = LatticeFacts(n, len(ds), tuple(k for _, k in ds))
        if basis_range and not basis_range[0] <= facts.basis_size <= basis_range[1]:
            continue
        return P, [m for m, _ in ds], facts


def boolean_facts(k):
    """B_k: every subset, |N(p)| = |p|."""
    return LatticeFacts(k, 1 << k, tuple(popcount(p) for p in range(1 << k)))


def graph_text(P, rng):
    """Graph with edges x_i y_j for i <= j, both sides relabelled at random
    and the edge lines shuffled, so the program must find the matching."""
    left = list(range(1, P.n + 1))
    right = list(range(1, P.n + 1))
    rng.shuffle(left)
    rng.shuffle(right)
    lines = [f"{left[i - 1]} {right[j - 1]}" for i, j in P.leq_pairs()]
    rng.shuffle(lines)
    return f"graph {P.n} {P.n}\n" + "\n".join(lines) + "\n"


def relabel(family, perm):
    """The family with index i renamed perm[i]: an isomorphic lattice,
    so every structural fact and every invariant stays the same."""
    out = []
    for p in family:
        m = 0
        for i, j in enumerate(perm):
            if p >> i & 1:
                m |= 1 << j
        out.append(m)
    return out


def random_perm(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def make_rng(seed, *salt):
    """Independent stream per (seed, purpose) so workloads do not shift
    each other when one of them changes."""
    return random.Random(repr((seed,) + salt))
