"""Explicit minimal multigraded free resolution of the lattice ideal H_L.

The free module at homological degree i has basis elements b(p; S) with p
a lattice element and S an i-element subset of the lower neighbors N(p).
Each q in N(p) is p minus one class c = p \\ q, and the classes are
disjoint and nonempty, so b(p; S) is named by its multidegree
m = X_p * Y_{[n] \\ meet S}, which is u_p times y over the classes of S.
The basis is kept as these ints; label(L, m) gives (p, S) back.  The
differential is d b(p; S) = sum_c +-(y^c * e_{m / y^c} - x^c * e_{m / x^c})
over the classes c of S, with e_{m / y^c} = b(p; S \\ {q}),
e_{m / x^c} = b(q; q meet (S \\ {q})) and alternating signs governed by
the position of q inside S.  build_resolution is its one definition: the
classes of S are those of p = m >> n that meet the y-part of m.  The
basis size, its top level and the level ranks sum_p C(|N(p)|, i) depend
on L only through the |N(p)| histogram ``L.widths``, and are read off it.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, repeat
from math import comb

from .betti import BettiTable
from .bitset import render_set
from .errors import ConsistencyError, TooManyNeighbors
from .ideals import lattice_generator, render_monomial
from .lattice import NEIGHBOR_CAP
from .linalg import homology_ranks


def resolution_basis(L):
    """Levels of multidegrees; level i holds every b(p; S) with |S| = i.

    Within a level, elements are ordered by p in the lattice order, then
    by S lexicographically in the order of N(p).  b(p; S) is u_p times y
    over the classes p \\ q of S, which are disjoint.  The basis has
    sum_k c * 2^k elements over the width histogram (c elements p with
    |N(p)| = k) and is refused past 2^NEIGHBOR_CAP, which also bounds
    every single |N(p)|; its top level is the largest width.
    """
    widths = L.widths
    size = sum(c << k for k, c in widths.items())
    if size > 1 << NEIGHBOR_CAP:
        raise TooManyNeighbors(
            f"the basis has {size} elements, more than 2^{NEIGHBOR_CAP}"
        )
    levels = [[] for _ in range(max(widths) + 1)]
    for p in L.elements:
        classes = [p & ~q for q in L.neighbors(p)]
        u = lattice_generator(L, p)
        for i in range(len(classes) + 1):
            levels[i].extend(sum(S, u) for S in combinations(classes, i))
    return levels


def resolution_level_ranks(L):
    """sum_p C(|N(p)|, i) for i = 0 .. max |N(p)|, the level ranks of the
    resolution of H_L, summed over the width histogram as
    sum_k c * C(k, i)."""
    widths = L.widths
    return [
        sum(c * comb(k, i) for k, c in widths.items())
        for i in range(max(widths) + 1)
    ]


def label(L, m):
    """(p, S) of the basis element at multidegree m: S holds the q in N(p)
    whose class p \\ q lies in the y-part of m."""
    p = m >> L.n
    return p, tuple(q for q in L.neighbors(p) if p & ~q & m)


def render_element(L, m):
    """The basis element at m as b(p; S) at its multidegree."""
    p, S = label(L, m)
    S = ", ".join(map(render_set, S))
    return f"b({render_set(p)}; {{{S}}}) at {render_monomial(m, L.n)}"


@dataclass
class ResolutionComplex:
    """Basis levels plus the differential keyed by multidegree.

    d maps each basis element m of level i >= 1 to the pair of tuples
    (targets, signs) of its terms: per class c of S, in the order of N(p),
    the y-term at m / y^c and then the x-term at m / x^c.
    Each target is the int object held in level i - 1, not a copy, and
    properly divides m; the term's coefficient is the monomial m / target,
    which is m & ~target.
    """

    L: object
    levels: list
    d: dict

    def level_ranks(self):
        return [len(lv) for lv in self.levels]


def build_resolution(L):
    """The resolution of H_L, refusing a target outside level i - 1, a
    class that meets m without lying inside it (y^c must divide m: the
    homogeneity test), a term count other than 2i and level ranks other
    than sum_p C(|N(p)|, i) (resolution_level_ranks)."""
    levels = resolution_basis(L)
    n = L.n
    pairs = {
        p: [(c, c << n) for c in (p & ~q for q in L.neighbors(p))]
        for p in L.elements
    }
    d = {}
    for i in range(1, len(levels)):
        # each stored target is level i - 1's own int: the pairs hold no
        # copies, and the verifiers' lookups hit identical keys
        get = {m: m for m in levels[i - 1]}.get
        # the signs alternate along S, so one tuple serves the whole level
        signs = (1, -1, -1, 1) * (i // 2) + (1, -1) * (i % 2)
        for m in levels[i]:
            targets = []
            for c, x in pairs[m >> n]:
                if c & m:
                    if c & ~m:
                        raise ConsistencyError(
                            f"entry {render_monomial(c, n)} of "
                            f"{render_element(L, m)} is not homogeneous"
                        )
                    y_target, x_target = get(m & ~c), get(m & ~x)
                    if y_target is None or x_target is None:
                        t = m & ~c if y_target is None else m & ~x
                        k = next(
                            (k for k, lv in enumerate(levels) if t in lv), None
                        )
                        where = (
                            "not a basis element" if k is None
                            else f"which lands in level {k}, not {i - 1}"
                        )
                        raise ConsistencyError(
                            f"differential of {render_element(L, m)} targets "
                            f"degree {render_monomial(t, n)}, {where}"
                        )
                    targets += (y_target, x_target)
            if len(targets) != 2 * i:
                raise ConsistencyError(
                    f"differential of {render_element(L, m)} has "
                    f"{len(targets)} terms, expected {2 * i}"
                )
            d[m] = (tuple(targets), signs)
    expected = resolution_level_ranks(L)
    ranks = [len(lv) for lv in levels]
    if ranks != expected:
        raise ConsistencyError(f"level ranks {ranks}, expected {expected}")
    return ResolutionComplex(L, levels, d)


@dataclass
class CheckResult:
    ok: bool
    failure: object = None

    def __bool__(self):
        return self.ok


def verify_complex(C):
    """Check that consecutive differentials compose to zero.

    Every stored target properly divides its source (build_resolution
    checks that homogeneity), so a two-step term m -> m' -> m'' has the
    coefficient (m / m') * (m' / m'') = m / m'', and d(d(m)) is zero
    exactly when the sign products summed per target m'' vanish.  The
    augmentation sends each level-0 element to its multidegree, so after
    the first differential every term lands on the monomial m itself: the
    same sum, kept at m.  Returns a falsy result carrying the first
    violating source's level ("augmentation" at level 1), the source and
    its uncancelled sums, keyed by m'' (by m for the augmentation).
    """
    for i in range(1, len(C.levels)):
        for m in C.levels[i]:
            acc = {}
            for t, s in zip(*C.d[m]):
                for t2, s2 in zip(*C.d[t]) if i > 1 else ((m, 1),):
                    acc[t2] = acc.get(t2, 0) + s * s2
            if any(acc.values()):
                return CheckResult(False, (i if i > 1 else "augmentation", m, acc))
    return CheckResult(True)


def verify_minimality(C):
    """Check no differential entry is a nonzero constant: the coefficient
    m / target is 1 exactly when a term targets its own source m."""
    for i in range(1, len(C.levels)):
        for m in C.levels[i]:
            targets, _ = C.d[m]
            if m in targets:
                return CheckResult(False, (i, m, m))
    return CheckResult(True)


def mutate_differential(C):
    """Negate the first level-1 term (debug aid for the verify command)."""
    for m, (targets, signs) in C.d.items():
        C.d[m] = (targets, (-signs[0], *signs[1:]))
        return
    raise ValueError("resolution has no differential entries to mutate")


def strand_exactness(C, I, b, field="Q"):
    """Exactness of the degree-b strand of the augmented complex.

    The strand keeps the basis elements whose multidegree divides b, with
    their differential terms reduced to integer signs; a survivor's
    targets divide its degree (build_resolution checks that homogeneity),
    so they survive too.  The augmentation maps onto the one-dimensional
    degree-b component of the ideal when some generator divides b.  So the
    strand is exact iff its homology (linalg.homology_ranks) is one
    dimension at level 0 when b lies in the ideal, and zero otherwise.  A
    strand whose boundary leaves its level below (a unit entry targets its
    own source) is no complex, so it is not exact either.
    """
    survivors = {
        i: [m for m in lv if m & ~b == 0] for i, lv in enumerate(C.levels)
    }
    try:
        homology = homology_ranks(
            survivors, lambda i, m: zip(*C.d[m]), field=field
        )
    except ConsistencyError:
        return False
    return homology == ({0: 1} if I.contains_monomial(b) else {})


def betti_table_from_basis(C):
    """Betti table of H_L read off the basis of its resolution C: one count
    per (level, multidegree), so a multidegree held twice counts 2.  The
    counts are taken level by level in one Counter, which is the table's
    entries."""
    entries = Counter()
    for i, level in enumerate(C.levels):
        entries.update(zip(repeat(i), level))
    return BettiTable(C.L.n, "ideal", entries)

