"""Explicit minimal multigraded free resolution of the lattice ideal H_L.

The free module at homological degree i has basis elements b(p; S) with p
a lattice element and S an i-element subset of the lower neighbors N(p).
The differential sends b(p; S), for each q in S, to a y-monomial multiple
of b(p; S \\ {q}) and an x-monomial multiple of b(q; q meet (S \\ {q})),
with alternating signs governed by the position of q inside S.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .betti import BettiTable
from .bitset import full_mask, order_key
from .errors import ConsistencyError, HomDegreeZero, TooManyNeighbors
from .ideals import lattice_generator, monomial, render_monomial
from .lattice import NEIGHBOR_CAP
from .linalg import rank_exact


@dataclass(frozen=True)
class BasisElement:
    """Basis element b(p; S); S is kept sorted by the lattice total order."""

    p: int
    S: tuple
    multidegree: int

    @property
    def hom_degree(self):
        return len(self.S)


def multidegree_of(L, p, S):
    """X_p * Y over the complement of the meet of S (empty meet = p)."""
    meet = L.meet_of(S, p)
    return monomial(p, full_mask(L.n) & ~meet, L.n)


def resolution_basis(L):
    """Levels of basis elements; level i holds all b(p; S) with |S| = i.

    Within a level, elements are ordered by p in the lattice order, then
    by S lexicographically in the order of N(p).  The basis has
    sum_p 2^|N(p)| elements and is refused past 2^NEIGHBOR_CAP, which
    also bounds every single |N(p)|.
    """
    size = sum(1 << len(L.neighbors(p)) for p in L.elements)
    if size > 1 << NEIGHBOR_CAP:
        raise TooManyNeighbors(
            f"the basis has {size} elements, more than 2^{NEIGHBOR_CAP}"
        )
    top_level = max(len(L.neighbors(p)) for p in L.elements)
    levels = []
    for i in range(top_level + 1):
        level = []
        for p in L.elements:
            nb = L.neighbors(p)
            for S in combinations(nb, i):
                level.append(BasisElement(p, S, multidegree_of(L, p, S)))
        levels.append(level)
    return levels


def differential(L, g):
    """Terms of the differential applied to one basis element.

    Returns a list of (target label (p', S'), sign, coefficient monomial);
    the label names a basis element, whose multidegree the basis holds.
    The two term families never share a target: one keeps p, the other
    moves to some q in S.
    """
    if g.hom_degree == 0:
        raise HomDegreeZero("degree-0 elements map through the augmentation")
    p, S = g.p, g.S
    terms = []
    for sigma, q in enumerate(S):
        rest = tuple(r for r in S if r != q)
        sign = -1 if sigma % 2 else 1
        # y-term: stay at p, drop q from S
        terms.append(((p, rest), sign, monomial(0, L.meet_of(rest, p) & ~q, L.n)))
        # x-term: descend to q, meet the rest of S into N(q)
        T = tuple(sorted({q & r for r in rest}, key=order_key))
        terms.append(((q, T), -sign, monomial(p & ~q, 0, L.n)))
    if len({label for label, _, _ in terms}) != len(terms):
        raise ConsistencyError(f"differential targets collided at b({p}; {S})")
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
    index = {
        (g.p, g.S): (i, pos)
        for i, lv in enumerate(levels)
        for pos, g in enumerate(lv)
    }
    diffs = []
    for i in range(1, len(levels)):
        per_source = []
        for g in levels[i]:
            deg = g.multidegree
            entries = []
            for label, sign, coeff in differential(L, g):
                found = index.get(label)
                if found is None:
                    raise ConsistencyError(
                        f"differential of b({g.p}; {g.S}) names b{label}, "
                        "which is not a basis element"
                    )
                ti, tpos = found
                if ti != i - 1:
                    raise ConsistencyError(
                        f"differential of a level-{i} element lands in level {ti}"
                    )
                # multigraded homogeneity: lcm(target degree, entry) = deg
                if levels[ti][tpos].multidegree | coeff != deg:
                    raise ConsistencyError(
                        f"entry {render_monomial(coeff, L.n)} of b({g.p}; {g.S}) "
                        "is not homogeneous"
                    )
                if coeff & ~deg:
                    raise ConsistencyError(
                        f"entry {render_monomial(coeff, L.n)} does not divide "
                        f"the degree of b({g.p}; {g.S})"
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
    by the masks of each squarefree product; the augmentation b(p; ()) ->
    u_p composed with the first differential must also vanish.  Returns a
    falsy result carrying the first violating source element and its
    uncancelled sums, keyed by target element and monomial, or the product
    of coefficients that is not squarefree.
    """
    # augmentation after the first differential
    if C.diffs:
        for src_pos, g in enumerate(C.levels[1]):
            acc = {}
            for tpos, sign, coeff in C.diffs[0][src_pos]:
                u = lattice_generator(C.L, C.levels[0][tpos].p)
                if coeff & u:
                    return CheckResult(False, ("augmentation", g, (coeff, u)))
                key = coeff | u
                acc[key] = acc.get(key, 0) + sign
            if any(acc.values()):
                return CheckResult(False, ("augmentation", g, acc))
    for i in range(1, len(C.diffs)):
        for src_pos, g in enumerate(C.levels[i + 1]):
            acc = {}
            for mid_pos, sign1, coeff1 in C.diffs[i][src_pos]:
                for tpos, sign2, coeff2 in C.diffs[i - 1][mid_pos]:
                    if coeff1 & coeff2:
                        return CheckResult(False, (i + 1, g, (coeff1, coeff2)))
                    key = (tpos, coeff1 | coeff2)
                    acc[key] = acc.get(key, 0) + sign1 * sign2
            if any(acc.values()):
                targets = C.levels[i - 1]
                acc = {(targets[t], m): v for (t, m), v in acc.items()}
                return CheckResult(False, (i + 1, g, acc))
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

    Basis elements survive when their multidegree divides b; entries
    become their integer signs.  The augmentation maps onto the
    one-dimensional degree-b component of the ideal when some generator
    divides b.  True iff the resulting complex of vector spaces is exact
    in every positive position and the augmentation is onto when present.
    """
    survivors = [
        [pos for pos, g in enumerate(lv) if g.multidegree & ~b == 0]
        for lv in C.levels
    ]
    local = [
        {pos: k for k, pos in enumerate(sv)} for sv in survivors
    ]
    dims = [len(sv) for sv in survivors]
    has_ideal_component = I.contains_monomial(b)
    if has_ideal_component and dims[0] == 0:
        return False  # augmentation cannot be surjective
    # ranks of the restricted sign matrices, one per differential
    ranks = []
    for i, per_source in enumerate(C.diffs):
        rows = []
        for pos in survivors[i + 1]:
            row = {}
            for tpos, sign, _ in per_source[pos]:
                if tpos in local[i]:
                    row[local[i][tpos]] = sign
            rows.append(row)
        ranks.append(rank_exact(rows, field=field))
    aug_rank = 1 if has_ideal_component else 0
    # exactness at level 0 against the augmentation, then at each level up;
    # at the top the last differential must be injective
    prev = aug_rank
    for i in range(len(C.diffs)):
        if ranks[i] + prev != dims[i]:
            return False
        prev = ranks[i]
    return dims[-1] == prev


def betti_table_from_basis(C):
    """Betti table of H_L read off the basis of its resolution C: one count
    per (level, multidegree)."""
    table = BettiTable(C.L.n, "ideal")
    for i, level in enumerate(C.levels):
        for g in level:
            table.add(i, g.multidegree, 1)
    return table

