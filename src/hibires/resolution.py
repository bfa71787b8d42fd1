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
the position of q inside S.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .betti import BettiTable
from .bitset import render_set
from .errors import ConsistencyError, HomDegreeZero, TooManyNeighbors
from .ideals import lattice_generator, render_monomial
from .lattice import NEIGHBOR_CAP
from .linalg import homology_ranks


def resolution_basis(L):
    """Levels of multidegrees; level i holds every b(p; S) with |S| = i.

    Within a level, elements are ordered by p in the lattice order, then
    by S lexicographically in the order of N(p).  b(p; S) is u_p times y
    over the classes p \\ q of S, which are disjoint.  The basis has
    sum_p 2^|N(p)| elements and is refused past 2^NEIGHBOR_CAP, which also
    bounds every single |N(p)|.
    """
    size = sum(1 << len(L.neighbors(p)) for p in L.elements)
    if size > 1 << NEIGHBOR_CAP:
        raise TooManyNeighbors(
            f"the basis has {size} elements, more than 2^{NEIGHBOR_CAP}"
        )
    top_level = max(len(L.neighbors(p)) for p in L.elements)
    levels = [[] for _ in range(top_level + 1)]
    for p in L.elements:
        classes = [p & ~q for q in L.neighbors(p)]
        u = lattice_generator(L, p)
        for i in range(len(classes) + 1):
            levels[i].extend(sum(S, u) for S in combinations(classes, i))
    return levels


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


def differential(L, m):
    """Terms of the differential applied to the basis element at m.

    Returns a list of (target multidegree, sign, coefficient monomial): for
    q in S and c = p minus q, y^c on b(p; S \\ {q}) at m / y^c and x^c on
    b(q; q meet (S \\ {q})) at m / x^c.  The targets are distinct: the
    classes c are disjoint and nonempty.
    """
    p = m >> L.n
    terms = []
    sign = 1
    for q in L.neighbors(p):
        c = p & ~q
        if c & m:
            x = c << L.n
            terms.append((m & ~c, sign, c))
            terms.append((m & ~x, -sign, x))
            sign = -sign
    if not terms:
        raise HomDegreeZero("degree-0 elements map through the augmentation")
    return terms


@dataclass
class ResolutionComplex:
    """Basis levels plus the differential keyed by multidegree.

    d maps each basis element m of level i >= 1 to its terms
    (target, sign), each target an element of level i - 1 that properly
    divides m; the term's coefficient is the monomial m / target, which
    is m & ~target.
    """

    L: object
    levels: list
    d: dict

    def level_ranks(self):
        return [len(lv) for lv in self.levels]


def build_resolution(L):
    levels = resolution_basis(L)
    level_of = {m: i for i, lv in enumerate(levels) for m in lv}
    if len(level_of) != sum(map(len, levels)):
        raise ConsistencyError("two basis elements share a multidegree")
    d = {}
    for i in range(1, len(levels)):
        for m in levels[i]:
            terms = d[m] = []
            for target, sign, coeff in differential(L, m):
                ti = level_of.get(target)
                if ti is None:
                    raise ConsistencyError(
                        f"differential of {render_element(L, m)} targets degree "
                        f"{render_monomial(target, L.n)}, not a basis element"
                    )
                if ti != i - 1:
                    raise ConsistencyError(
                        f"differential of a level-{i} element lands in level {ti}"
                    )
                # multigraded homogeneity: target * coeff = m, squarefree, so
                # the coefficient is m / target
                if target | coeff != m or target & coeff:
                    raise ConsistencyError(
                        f"entry {render_monomial(coeff, L.n)} of "
                        f"{render_element(L, m)} is not homogeneous"
                    )
                terms.append((target, sign))
    expected = [
        sum(comb(len(L.neighbors(p)), i) for p in L.elements)
        for i in range(len(levels))
    ]
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
            for t, s in C.d[m]:
                for t2, s2 in C.d[t] if i > 1 else ((m, 1),):
                    acc[t2] = acc.get(t2, 0) + s * s2
            if any(acc.values()):
                return CheckResult(False, (i if i > 1 else "augmentation", m, acc))
    return CheckResult(True)


def verify_minimality(C):
    """Check no differential entry is a nonzero constant: the coefficient
    m / target is 1 exactly when a term targets its own source m."""
    for i in range(1, len(C.levels)):
        for m in C.levels[i]:
            for t, _ in C.d[m]:
                if t == m:
                    return CheckResult(False, (i, m, m))
    return CheckResult(True)


def strand_exactness(C, I, b, field="Q"):
    """Exactness of the degree-b strand of the augmented complex.

    The strand keeps the basis elements whose multidegree divides b, with
    their differential terms reduced to integer signs; a survivor's
    targets divide its degree (build_resolution checks that homogeneity),
    so they survive too.  The augmentation maps onto the one-dimensional
    degree-b component of the ideal when some generator divides b.  So the
    strand is exact iff its homology (linalg.homology_ranks) is one
    dimension at level 0 when b lies in the ideal, and zero otherwise.
    """
    survivors = {
        i: [m for m in lv if m & ~b == 0] for i, lv in enumerate(C.levels)
    }
    homology = homology_ranks(survivors, lambda i, m: C.d[m], field=field)
    return homology == ({0: 1} if I.contains_monomial(b) else {})


def betti_table_from_basis(C):
    """Betti table of H_L read off the basis of its resolution C: one count
    per (level, multidegree)."""
    table = BettiTable(C.L.n, "ideal")
    for i, level in enumerate(C.levels):
        for m in level:
            table.add(i, m, 1)
    return table

