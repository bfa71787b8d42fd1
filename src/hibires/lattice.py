"""Sublattices of the Boolean lattice B_n with Hasse structure.

A :class:`CoverLattice` is a family of subset masks containing the empty
set and the full set, closed under pairwise union and intersection.  It
carries a fixed total order (a linear extension of containment) and the
lower-neighbor sets used throughout the resolution construction.
"""

import random
from dataclasses import dataclass, field
from itertools import combinations

from .bitset import (
    MAX_GROUND,
    full_mask,
    indices_of,
    is_subset,
    mask_of,
    order_key,
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


@dataclass(frozen=True)
class CoverLattice:
    """Validated sublattice of B_n.

    elements are sorted by the fixed total order (cardinality, then bit
    pattern); ``lower[p]`` is the set of lower neighbors N(p), i.e. the
    maximal elements of the lattice strictly below p.
    """

    n: int
    elements: tuple
    lower: dict = field(compare=False)
    index: dict = field(compare=False)

    @property
    def bottom(self):
        return 0

    @property
    def top(self):
        return full_mask(self.n)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, mask):
        return mask in self.index

    def neighbors(self, p):
        """Lower neighbors N(p), as a tuple sorted by the total order."""
        if p not in self.index:
            raise NotAnElement(f"{render_set(p)} is not a lattice element")
        return self.lower[p]

    def meet_of(self, masks, context_p):
        """Intersection of the given elements; the empty meet is context_p.

        The empty-meet convention makes the degree-0 basis element b(p; {})
        carry the multidegree of the generator attached to p.
        """
        masks = list(masks)
        if not masks:
            return context_p
        m = full_mask(self.n)
        for q in masks:
            m &= q
        return m

    def render(self):
        return "{" + ", ".join(render_set(p) for p in self.elements) + "}"


def _lower_neighbors(elements, p):
    below = [q for q in elements if q != p and is_subset(q, p)]
    return tuple(
        sorted(
            (q for q in below if not any(r != q and is_subset(q, r) for r in below)),
            key=order_key,
        )
    )


def validate_sublattice(family, n):
    """Check the family is a sublattice of B_n and build its Hasse data.

    Rejects rather than repairs: missing bounds or a violating pair raise.
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
    for p, q in combinations(fam, 2):
        if p | q not in fam:
            raise NotClosed(p, q, "union")
        if p & q not in fam:
            raise NotClosed(p, q, "intersection")
    elements = tuple(sorted(fam, key=order_key))
    lower = {p: _lower_neighbors(elements, p) for p in elements}
    index = {p: i for i, p in enumerate(elements)}
    return CoverLattice(n=n, elements=elements, lower=lower, index=index)


@dataclass(frozen=True)
class BooleanInterval:
    """Closed interval [bottom, top] of L isomorphic to B_rank."""

    bottom: int
    top: int
    rank: int

    def contains(self, other):
        return is_subset(self.bottom, other.bottom) and is_subset(other.top, self.top)


def boolean_intervals(L):
    """All pairs ((p, S), interval) for p in L and S a set of lower neighbors.

    The map (p, S) -> [meet(S), p] is a bijection onto the intervals of L
    isomorphic to Boolean lattices; rank-0 intervals [p, p] come from S
    empty.
    """
    out = []
    for p in L.elements:
        nb = L.neighbors(p)
        for k in range(len(nb) + 1):
            for S in combinations(nb, k):
                out.append(((p, S), BooleanInterval(L.meet_of(S, p), p, k)))
    return out


def scan_boolean_intervals(L):
    """Independent scan: every interval of L that is Boolean, by structure.

    An interval [a, b] is Boolean when its elements are exactly the joins
    of subsets of its atoms and their count is 2^(#atoms).  Used to verify
    the bijection claimed by :func:`boolean_intervals`.
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


def interval_of(L, p):
    """The interval [meet(N(p)), p]; defined for p != bottom."""
    if p == 0:
        raise BottomElement("the bottom element has no lower neighbors")
    nb = L.neighbors(p)
    return BooleanInterval(L.meet_of(nb, p), p, len(nb))


def f_value(L, p):
    """|p| - |N(p)| - |meet(N(p))|, the lattice depth defect at p."""
    if p == 0:
        raise BottomElement("f is undefined at the bottom element")
    nb = L.neighbors(p)
    return p.bit_count() - len(nb) - L.meet_of(nb, p).bit_count()


def a_set(L):
    """Elements p whose interval [meet(N(p)), p] is a maximal Boolean interval.

    Every Boolean interval [meet(S), p] sits inside [meet(N(p)), p], so
    maximality only needs checking among the per-element intervals.
    """
    ivals = {p: interval_of(L, p) for p in L.elements if p != 0}
    out = set()
    for p, ival in ivals.items():
        if not any(q != p and other.contains(ival) and other != ival
                   for q, other in ivals.items()):
            out.add(p)
    return out


def b_set(L):
    """Elements of A_G attaining the maximal f-value."""
    A = a_set(L)
    if not A:
        return set()
    fmax = max(f_value(L, p) for p in A)
    return {p for p in A if f_value(L, p) == fmax}


def random_sublattice(n, seed_count, rng_seed):
    """Closure of seed_count random subsets together with the two bounds.

    Deterministic for a fixed rng_seed.
    """
    if n < 1 or n > MAX_GROUND:
        raise TooLarge(f"ground set size {n} outside 1..{MAX_GROUND}")
    rng = random.Random(rng_seed)
    fam = {0, full_mask(n)}
    for _ in range(seed_count):
        fam.add(rng.getrandbits(n))
    changed = True
    while changed:
        changed = False
        for p, q in combinations(sorted(fam), 2):
            for m in (p | q, p & q):
                if m not in fam:
                    fam.add(m)
                    changed = True
    return validate_sublattice(fam, n)


def random_corpus(count, rng_seed, n_max=6, n_min=2, size_cap=24):
    """Deterministic stream of random lattices for verification runs.

    Sizes are capped so oracle-backed checks stay at desk scale; draws
    above the cap are skipped, keeping the stream reproducible.
    """
    rng = random.Random(rng_seed)
    out = []
    while len(out) < count:
        n = rng.randint(n_min, n_max)
        seed_count = rng.randint(1, n)
        L = random_sublattice(n, seed_count, rng.getrandbits(32))
        if len(L) <= size_cap:
            out.append(L)
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
    n = int(head[1])
    fam = set()
    for ln in lines[1:]:
        if ln == "empty":
            fam.add(0)
        else:
            fam.add(mask_of((int(tok) for tok in ln.split()), n))
    return validate_sublattice(fam, n)


def lattice_to_text(L):
    lines = [f"lattice {L.n}"]
    for p in L.elements:
        lines.append(" ".join(map(str, indices_of(p))) if p else "empty")
    return "\n".join(lines) + "\n"


def lattice_to_json_obj(L):
    return {"n": L.n, "elements": [indices_of(p) for p in L.elements]}


def lattice_from_json_obj(obj):
    n = int(obj["n"])
    fam = {mask_of(e, n) for e in obj["elements"]}
    return validate_sublattice(fam, n)
