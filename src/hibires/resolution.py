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
    """Basis levels plus sparse differentials with signed monomial entries.

    diffs[i] maps each level-(i+1) source position to its list of
    (target position in level i, sign, coefficient monomial).
    """

    L: object
    levels: list
    diffs: list

    def level_ranks(self):
        return [len(lv) for lv in self.levels]


def build_resolution(L):
    levels = resolution_basis(L)
    index = {m: (i, pos) for i, lv in enumerate(levels) for pos, m in enumerate(lv)}
    if len(index) != sum(map(len, levels)):
        raise ConsistencyError("two basis elements share a multidegree")
    diffs = []
    for i in range(1, len(levels)):
        per_source = []
        for m in levels[i]:
            entries = []
            for target, sign, coeff in differential(L, m):
                found = index.get(target)
                if found is None:
                    raise ConsistencyError(
                        f"differential of {render_element(L, m)} targets degree "
                        f"{render_monomial(target, L.n)}, not a basis element"
                    )
                ti, tpos = found
                if ti != i - 1:
                    raise ConsistencyError(
                        f"differential of a level-{i} element lands in level {ti}"
                    )
                # multigraded homogeneity: lcm(target degree, entry) = m
                if target | coeff != m:
                    raise ConsistencyError(
                        f"entry {render_monomial(coeff, L.n)} of "
                        f"{render_element(L, m)} is not homogeneous"
                    )
                entries.append((tpos, sign, coeff))
            per_source.append(entries)
        diffs.append(per_source)
    expected = [
        sum(comb(len(L.neighbors(p)), i) for p in L.elements)
        for i in range(len(levels))
    ]
    ranks = [len(lv) for lv in levels]
    if ranks != expected:
        raise ConsistencyError(f"level ranks {ranks}, expected {expected}")
    return ResolutionComplex(L, levels, diffs)


@dataclass
class CheckResult:
    ok: bool
    failure: object = None

    def __bool__(self):
        return self.ok


def verify_complex(C):
    """Check that consecutive differentials compose to zero.

    Compositions are expanded symbolically over integer coefficients, keyed
    by the masks of each squarefree product; the augmentation, which sends
    each level-0 element b(p; ()) to its multidegree u_p, composed with the
    first differential must also vanish.  Returns a falsy result carrying
    the first violating source element and its uncancelled sums, keyed by
    target element and monomial, or the product of coefficients that is
    not squarefree.
    """
    # augmentation after the first differential
    if C.diffs:
        for src_pos, m in enumerate(C.levels[1]):
            acc = {}
            for tpos, sign, coeff in C.diffs[0][src_pos]:
                u = C.levels[0][tpos]
                if coeff & u:
                    return CheckResult(False, ("augmentation", m, (coeff, u)))
                key = coeff | u
                acc[key] = acc.get(key, 0) + sign
            if any(acc.values()):
                return CheckResult(False, ("augmentation", m, acc))
    for i in range(1, len(C.diffs)):
        for src_pos, m in enumerate(C.levels[i + 1]):
            acc = {}
            for mid_pos, sign1, coeff1 in C.diffs[i][src_pos]:
                for tpos, sign2, coeff2 in C.diffs[i - 1][mid_pos]:
                    if coeff1 & coeff2:
                        return CheckResult(False, (i + 1, m, (coeff1, coeff2)))
                    key = (tpos, coeff1 | coeff2)
                    acc[key] = acc.get(key, 0) + sign1 * sign2
            if any(acc.values()):
                targets = C.levels[i - 1]
                acc = {(targets[t], k): v for (t, k), v in acc.items()}
                return CheckResult(False, (i + 1, m, acc))
    return CheckResult(True)


def verify_minimality(C):
    """Check no differential entry is a nonzero constant."""
    for i, per_source in enumerate(C.diffs):
        for src_pos, entries in enumerate(per_source):
            for tpos, sign, coeff in entries:
                if coeff == 0:
                    return CheckResult(
                        False, (i + 1, C.levels[i + 1][src_pos], C.levels[i][tpos])
                    )
    return CheckResult(True)


def strand_exactness(C, I, b, field="Q"):
    """Exactness of the degree-b strand of the augmented complex.

    The strand keeps the basis elements whose multidegree divides b, with
    their differential entries reduced to integer signs; a survivor's
    targets divide its degree (build_resolution checks that homogeneity),
    so they survive too.  The augmentation maps onto the one-dimensional
    degree-b component of the ideal when some generator divides b.  So the
    strand is exact iff its homology (linalg.homology_ranks) is one
    dimension at level 0 when b lies in the ideal, and zero otherwise.
    """
    survivors = {
        i: [pos for pos, m in enumerate(lv) if m & ~b == 0]
        for i, lv in enumerate(C.levels)
    }
    homology = homology_ranks(
        survivors, lambda i, pos: C.diffs[i - 1][pos], field=field
    )
    return homology == ({0: 1} if I.contains_monomial(b) else {})


def betti_table_from_basis(C):
    """Betti table of H_L read off the basis of its resolution C: one count
    per (level, multidegree)."""
    table = BettiTable(C.L.n, "ideal")
    for i, level in enumerate(C.levels):
        for m in level:
            table.add(i, m, 1)
    return table

