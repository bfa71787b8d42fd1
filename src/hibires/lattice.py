"""Sublattices of the Boolean lattice B_n with Hasse structure.

A :class:`CoverLattice` is a family of subset masks containing the empty
set and the full set, closed under pairwise union and intersection.  It
carries a fixed total order (a linear extension of containment) and the
lower-neighbor sets used throughout the resolution construction.

Such a family is distributive, so it is the set of down-sets of a
preorder on [n] (Birkhoff): i <= j when every element containing j
contains i.  The down-set of j is D(j), the smallest element containing
j, and the elements are exactly the unions of these sets.  Hasse data and
enumeration work on the D(j) rather than on pairs of elements.  A lattice
known by its D(j) (a graph, a random draw) is built by preorder_lattice;
a family given element by element is checked by validate_sublattice.
"""

import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .bitset import (
    MAX_GROUND,
    down_sets,
    full_mask,
    indices_of,
    is_subset,
    mask_of,
    order_key,
    positions_of,
    render_set,
)
from .errors import (
    BottomElement,
    InputFormatError,
    MissingBottom,
    MissingTop,
    NotAnElement,
    NotClosed,
    TooLarge,
)

CORPUS_SIZE_CAP = 24  # max elements of a random_corpus lattice
# A basis past 2^NEIGHBOR_CAP elements is refused, and so is a lattice past
# 2^NEIGHBOR_CAP elements: |L| <= sum_p 2^|N(p)|, so its basis is larger.
NEIGHBOR_CAP = 20


@dataclass(frozen=True)
class CoverLattice:
    """Sublattice of B_n with its Hasse data.

    elements are sorted by the fixed total order (cardinality, then bit
    pattern); ``lower[p]`` is the set of lower neighbors N(p), i.e. the
    maximal elements of the lattice strictly below p; ``bottom[p]`` is
    their meet, the bottom of the Boolean interval [meet N(p), p], with
    bottom[0] = 0; ``closures[j]`` is D(j+1), the smallest element
    containing index j+1.
    """

    n: int
    elements: tuple
    lower: dict = field(compare=False)
    bottom: dict = field(compare=False)
    closures: tuple = field(compare=False)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, mask):
        return mask in self.lower

    def neighbors(self, p):
        """Lower neighbors N(p), as a tuple sorted by the total order."""
        if p not in self.lower:
            raise NotAnElement(f"{render_set(p)} is not a lattice element")
        return self.lower[p]

    @cached_property
    def a_set(self):
        """A_G, the elements p whose interval [meet(N(p)), p] is a maximal
        Boolean interval; scanned on first use and kept."""
        return frozenset(_maximal_interval_tops(self))


def _smallest_containing(family, n):
    """D(i) for each index, at list position i-1: the meet of [n] and of the
    members of family that contain i."""
    D = [full_mask(n)] * n
    for p in family:
        for i in positions_of(p):
            D[i] &= p
    return D


def _lower_covers(elements, D):
    """N(p) and meet N(p) for every element: N(p) holds p minus one
    maximal preorder class of p, and its meet is p minus all of them.

    With U(i) = {j : i in D(j)} and the class cls(i) = D(i) & U(i), the
    class of i is maximal in p when no index of p lies strictly above i,
    i.e. U(i) & p == cls(i).  O(|L| * n) in all.
    """
    U = [0] * len(D)
    for j, d in enumerate(D):
        for i in positions_of(d):
            U[i] |= 1 << j
    cls = [d & u for d, u in zip(D, U)]
    lower, bottom = {}, {}
    for p in elements:
        nb = []
        removed = 0
        rest = p
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= ~cls[i]
            if U[i] & p == cls[i]:
                nb.append(p & ~cls[i])
                removed |= cls[i]
        lower[p] = tuple(sorted(nb, key=order_key))
        bottom[p] = p & ~removed
    return lower, bottom


def _with_hasse(n, family, D):
    """The CoverLattice of a closed family whose closures are D."""
    # order_key order without a Python call per element
    elements = tuple(sorted(sorted(family), key=int.bit_count))
    return CoverLattice(n, elements, *_lower_covers(elements, D), tuple(D))


def preorder_lattice(D):
    """The lattice of down-sets of a preorder on [n], n = len(D) (Birkhoff).

    D[j-1] = D(j) must hold j and be a down-set: i in D(j) implies
    D(i) <= D(j).  The down-sets are then the unions of the D(j), found by
    one walk refused with TooLarge as soon as it passes 2^NEIGHBOR_CAP
    members, and D(j) is the smallest of them containing j.
    """
    fam = down_sets(D, 1 << NEIGHBOR_CAP)
    if len(fam) > 1 << NEIGHBOR_CAP:
        raise TooLarge(f"the lattice has more than 2^{NEIGHBOR_CAP} elements")
    return _with_hasse(len(D), fam, D)


def validate_sublattice(family, n):
    """Check the family is a sublattice of B_n and build its Hasse data.

    Rejects rather than repairs: missing bounds or a missing set raise.
    The unions of the D(i) form the sublattice F generates and include F,
    so F is closed exactly when a walk over them stopped past |F| finds
    none outside F; NotClosed names the least, in the total order, of
    those the walk met.
    """
    if n < 1 or n > MAX_GROUND:
        raise TooLarge(f"ground set size {n} outside 1..{MAX_GROUND}")
    fam = set(family)
    top = full_mask(n)
    for m in fam:
        if m & ~top:
            raise InputFormatError(f"element {m:#x} has bits beyond position {n}")
    if 0 not in fam:
        raise MissingBottom("the empty set is missing")
    if top not in fam:
        raise MissingTop(f"the full set {render_set(top)} is missing")
    D = _smallest_containing(fam, n)
    missing = down_sets(D, len(fam)) - fam
    if missing:
        raise NotClosed(min(missing, key=order_key))
    return _with_hasse(n, fam, D)


def boolean_interval_scan(L):
    """Independent scan: every interval of L that is Boolean, by structure.

    An interval [a, b] is Boolean when its elements are exactly the joins
    of subsets of its atoms and their count is 2^(#atoms).  Used to verify
    that the resolution basis labels biject onto these intervals.
    """
    found = set()
    for a in L.elements:
        for b in L.elements:
            if not is_subset(a, b):
                continue
            members = [c for c in L.elements if is_subset(a, c) and is_subset(c, b)]
            atoms = [
                c
                for c in members
                if c != a
                and not any(
                    d != a and d != c and is_subset(a, d) and is_subset(d, c)
                    for d in members
                )
            ]
            joins = set()
            for k in range(len(atoms) + 1):
                for combo in combinations(atoms, k):
                    j = a
                    for c in combo:
                        j |= c
                    joins.add(j)
            if len(members) == 2 ** len(atoms) and joins == set(members):
                found.add((a, b, len(atoms)))
    return found


def f_value(L, p):
    """|p| - |N(p)| - |meet(N(p))|, the lattice depth defect at p."""
    if p == 0:
        raise BottomElement("f is undefined at the bottom element")
    return p.bit_count() - len(L.neighbors(p)) - L.bottom[p].bit_count()


def _maximal_interval_tops(L):
    """The tops p of maximal intervals [meet(N(p)), p], from upper covers.

    A Boolean interval strictly containing [meet(N(p)), p] contains an
    upper cover q = p | D(j) of p, so lies inside [meet(N(q)), q].  Hence
    p is a top unless some q = p | D(j), j outside p, has meet(N(q))
    within meet(N(p)); q need not be a cover, as any such q rules p out.
    """
    bottom = L.bottom
    return {
        p
        for p in L.elements
        if p
        and not any(
            bottom[p | d] & ~bottom[p] == 0 for d in L.closures if d & ~p
        )
    }


def b_set(L):
    """Elements of A_G attaining the maximal f-value."""
    A = L.a_set
    if not A:
        return set()
    fmax = max(f_value(L, p) for p in A)
    return {p for p in A if f_value(L, p) == fmax}


def _drawn_closures(n, seed_count, rng_seed):
    """D(i) of the sublattice generated by seed_count random subsets and
    the two bounds; deterministic for a fixed rng_seed."""
    if n < 1 or n > MAX_GROUND:
        raise TooLarge(f"ground set size {n} outside 1..{MAX_GROUND}")
    rng = random.Random(rng_seed)
    drawn = [rng.getrandbits(n) for _ in range(seed_count)]
    return _smallest_containing(drawn, n)


def random_sublattice(n, seed_count, rng_seed):
    """Closure of seed_count random subsets together with the two bounds.

    The closure under union and intersection is the set of unions of the
    D(i), so it is the lattice of down-sets of their preorder.
    Deterministic for a fixed rng_seed.
    """
    return preorder_lattice(_drawn_closures(n, seed_count, rng_seed))


def random_corpus(count, rng_seed, n_max=6):
    """Deterministic stream of random lattices on 2..n_max indices.

    Sizes are capped at CORPUS_SIZE_CAP elements so oracle-backed checks
    stay at desk scale; a draw is skipped as soon as its enumeration
    passes the cap, keeping the stream reproducible.
    """
    rng = random.Random(rng_seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, n_max)
        seed_count = rng.randint(1, n)
        D = _drawn_closures(n, seed_count, rng.getrandbits(32))
        fam = down_sets(D, CORPUS_SIZE_CAP)
        if len(fam) <= CORPUS_SIZE_CAP:
            out.append(_with_hasse(n, fam, D))
    return out


# --- text / JSON formats -------------------------------------------------

def parse_lattice_text(text):
    """Parse the lattice text format.

    First line "lattice <n>"; each further non-comment line one element as
    space-separated 1-based indices, or the word "empty".
    """
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise InputFormatError("empty lattice file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "lattice":
        raise InputFormatError("first line must be 'lattice <n>'")
    try:
        n = int(head[1])
        fam = {
            0 if ln == "empty" else mask_of(map(int, ln.split()), n)
            for ln in lines[1:]
        }
    except ValueError as exc:
        raise InputFormatError(f"malformed lattice text: {exc}") from exc
    return validate_sublattice(fam, n)


def lattice_to_text(L):
    lines = [f"lattice {L.n}"]
    for p in L.elements:
        lines.append(" ".join(map(str, indices_of(p))) if p else "empty")
    return "\n".join(lines) + "\n"


def json_int(value):
    """value, if it is a plain JSON integer; a bool or a float raises
    TypeError, which the JSON readers turn into InputFormatError."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def lattice_from_json_obj(obj):
    """Lattice from {"n": n, "elements": [[1-based indices], ...]}."""
    try:
        n = json_int(obj["n"])
        fam = {mask_of(map(json_int, e), n) for e in obj["elements"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed lattice JSON: {exc!r}") from exc
    return validate_sublattice(fam, n)
