"""Brute-force Betti numbers via simplicial homology.

Independent of the closed-form resolution.  For a squarefree multidegree b
the upper Koszul complex K^b on the vertex set supp(b), the subsets t of
supp(b) with b/t still in the ideal, carries the Betti numbers of a
squarefree monomial ideal I: beta_{i,b}(I) = dim H~_{i-1}(K^b)
(Miller-Sturmfels, "Combinatorial Commutative Algebra", GTM 227, 2005).
A face of K^b is a subset of supp(b) that some generator g dividing b
avoids, so the faces inside a vertex set V are generated by the facets
V minus g: one walk adds every subset of each facet, and the reduced
homology ranks come from linalg.homology_ranks over Q or F_p.
_induced_complex is the only builder of a complex, and it always builds
every face, as a plain {dimension: sorted faces} dict; a complex past
FACE_CAP faces is refused with ClosureTooLarge.  Every value, the whole
tables of betti_oracle and the single values of betti_value_at alike,
goes through one routine, _betti_at, which folds b twice before it builds
anything.

When every generator has degree 2 (every edge ideal, and the Hibi ideals
with n = 2), Hochster's restriction Delta_b, the subsets of supp(b) that
contain no generator (beta_{i,b}(I) = dim H~_{|b|-i-2}(Delta_b)), is the
independence complex Ind(G[W]) of the graph G the generators span, on
W = supp(b).  Engstrom's fold lemma ("Complexes of directed trees and
independence complexes", Discrete Math. 309, 2009) says Ind(G) and
Ind(G - v) are homotopy equivalent when N(u) is contained in N(v) for
some u other than v.  N(u) inside N(v) in the whole graph stays true
inside every vertex set holding both u and v, so these dominations are
found once per ideal (SquarefreeIdeal.dominators), and _fold makes one
pass over W that drops each v with a dominator still kept.  It reads the
residue R once: an isolated vertex makes Ind a cone (no homology), a
perfect matching with k edges makes it S^{k-1} (beta_{|W|-k-1,b} = 1),
and any other residue is read off K^R, through the second fold below,
its homological degree shifted by |W| - |R|.  On the 27,501 edge-closure
members of the benchmark's verify-q lattices the pass leaves 13,394
cones, 13,814 matchings and 293 other residues, which the second fold
reads as 290 spheres, 2 full simplices and 1 built complex.

Every ideal then gets the second fold, on supp(b) or on R.  The incidence
set inc(w) of a vertex w is the set of generators dividing b that contain
w, and t is a face of K^b exactly when the inc(w), w in t, do not cover
all of them.  When inc(u) lies in inc(v) for some u other than v, the
link of v is a cone with apex u, so K^b and K^b minus v are homotopy
equivalent (the collapse of interchangeable variables in Gasharov,
Peeva and Welker, "The lcm-lattice in monomial resolutions", Math. Res.
Lett. 6, 1999).  A deletion changes no other vertex's incidence set, so
_minimal_classes keeps one vertex for each distinct inclusion-minimal
incidence set, the vertex set V, and K^b[V], the faces of K^b inside V,
has the reduced homology of K^b over every field, in the same degrees.
_betti_at reads it as the quadratic fold reads its residue:
- no generator divides b: K^b is void, no homology;
- V is empty, which happens only at b = 0 in the unit ideal: K^b is
  {empty face} and beta_{0,b} = 1;
- a generator meets no vertex of V (among these, every b with a vertex in
  no generator): K^b[V] is a full simplex, no homology;
- pairwise disjoint incidence sets over V: K^b[V] is the boundary of the
  simplex on V, and beta_{|V|-1,b} = 1 (shifted for a quadratic residue);
- any other V: K^b[V] is built, and FACE_CAP counts its faces.
On the 2,515 lcm-closure members of the non-quadratic Hibi ideals of the
benchmark's verify-q lattices (n = 3..5) these are 1,535 spheres, 517
full simplices and 463 built complexes on 4 to 8 vertices.

A single value beta_{i,b} is 0 outside the window
d_min + i <= |b| <= d_max * (i+1) of the generator degrees (K^b has no
face past |b| - d_min vertices, and by Taylor's resolution a multidegree
that carries beta_i is the lcm of i+1 generators), so betti_value_at
returns 0 there without folding or building a complex, and the totals
read only the b inside it, through _betti_at, with the field and the
window checked once.  Inside the window a value reads the same folded
complex as the tables.  The degree range, the quadratic graph and its
dominators are computed once per ideal (SquarefreeIdeal.degree_range,
.graph and .dominators).  Every entry point refuses a field other than
"Q" or a supported prime (linalg.check_field) before it walks a closure.
"""

from .betti import BettiTable
from .errors import ClosureTooLarge, ZeroIdeal
from .ideals import CLOSURE_CAP, lcm_closure
from .linalg import check_field, homology_ranks

FACE_CAP = 1 << 16  # max faces of one complex before the oracle refuses


def _divisors(I, b):
    """The generators of I dividing b; b is also the mask of supp(b)."""
    return [g for g in I.gens if g & ~b == 0]


def _fold(I, b):
    """Fold the quadratic ideal's graph restricted to supp(b) by its
    dominations: drop each v with some u != v, N(u) inside N(v), kept.

    One pass over supp(b) in increasing bit order drops each v with a
    dominator (I.dominators) still kept: N(u) inside N(v) in the whole
    graph stays true inside every vertex set holding both, so of two twins
    the first is dropped.  None when a kept vertex has no kept neighbour:
    Delta_b is a cone.  Otherwise (R, matching): the kept vertex mask R,
    and whether every kept vertex has exactly one kept neighbour, so that
    the induced graph on R is a perfect matching.
    """
    dominators = I.dominators
    kept = rest = b
    while rest:
        v = rest & -rest
        rest ^= v
        if dominators.get(v, 0) & kept:
            kept ^= v
    graph = I.graph
    matching = True
    rest = kept
    while rest:
        v = rest & -rest
        rest ^= v
        nv = graph.get(v, 0) & kept
        if not nv:
            return None
        if nv & (nv - 1):
            matching = False
    return kept, matching


def _induced_complex(vertices, gens):
    """K^b[vertices], the faces of K^b inside the mask vertices, gens being
    the generators dividing b, as {d: sorted faces of dimension d}; the
    empty face (d = -1) is present iff the complex is nonvoid.
    ClosureTooLarge past FACE_CAP faces.

    A subset of vertices is a face exactly when some generator avoids it,
    so the complex is generated by the facets vertices & ~g: one walk adds
    every subset of each facet, and stops once the cap is passed.
    """
    faces = set()
    for g in gens:
        facet = t = vertices & ~g
        while len(faces) <= FACE_CAP:
            faces.add(t)
            if not t:
                break
            t = (t - 1) & facet
    if len(faces) > FACE_CAP:
        raise ClosureTooLarge(
            f"a complex on {vertices.bit_count()} vertices passes the cap of "
            f"{FACE_CAP} faces"
        )
    by_dim = {}
    for f in sorted(faces):
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    return by_dim


def _minimal_classes(b, gens):
    """{incidence: vertex}: the least vertex of supp(b) for each distinct
    inclusion-minimal incidence set, the set of generators in gens that
    contain the vertex, written as a bit mask over the positions in gens.
    """
    first = {}
    rest = b
    while rest:
        w = rest & -rest
        rest ^= w
        inc = 0
        for k, g in enumerate(gens):
            if g & w:
                inc |= 1 << k
        first.setdefault(inc, w)
    return {
        inc: w for inc, w in first.items()
        if not any(o & ~inc == 0 and o != inc for o in first)
    }


def _face_boundary(d, f):
    """The simplicial boundary of the face f: f minus each of its vertices,
    in increasing order, with alternating signs."""
    sign = 1
    rest = f
    while rest:
        w = rest & -rest
        yield f ^ w, sign
        sign = -sign
        rest ^= w


def reduced_homology_ranks(faces, field="Q"):
    """Ranks of reduced homology of the complex {d: faces of dimension d},
    as a dict degree -> rank (degree >= -1)."""
    return homology_ranks(faces, _face_boundary, field=field)


def _betti_at(I, b, field="Q"):
    """{i: beta_{i,b}(I)} for the nonzero values, a quadratic ideal's b
    folded first, then K^b folded onto its minimal incidence classes (see
    the module docstring)."""
    shift = 0
    if I.graph is not None:
        folded = _fold(I, b)
        if folded is None:
            return {}
        r, matching = folded
        if matching:
            return {b.bit_count() - r.bit_count() // 2 - 1: 1}
        shift = b.bit_count() - r.bit_count()
        b = r
    gens = _divisors(I, b)
    if not gens:
        return {}  # K^b is void
    classes = _minimal_classes(b, gens)
    if not classes:
        return {0: 1}  # b = 0 in the unit ideal: K^b = {empty face}
    V = sum(classes.values())
    if any(not g & V for g in gens):
        return {}  # a generator misses V: K^b[V] is a full simplex
    if sum(map(int.bit_count, classes)) == len(gens):
        # disjoint incidence sets: K^b[V] is the boundary of a simplex
        return {len(classes) - 1 + shift: 1}
    ranks = reduced_homology_ranks(_induced_complex(V, gens), field)
    return {d + 1 + shift: h for d, h in ranks.items()}


def betti_oracle(I, field="Q"):
    """Multigraded Betti table of the ideal from simplicial homology, over
    the candidate multidegrees of the lcm closure of the generators."""
    check_field(field)
    if I.is_zero:
        raise ZeroIdeal("the zero ideal has no Betti table")
    table = BettiTable(I.n, "ideal")
    for b in lcm_closure(I):
        for i, h in _betti_at(I, b, field).items():
            table.add(i, b, h)
    return table


def betti_value_at(I, b, i, field="Q"):
    """Single Betti number beta_{i,b}(I) = dim H~_{i-1}(K^b).

    Much cheaper than the full table when only a few positions matter
    (last-column totals, single graded values).  It is 0 outside the
    degree window (see the module docstring); inside it, it is read off
    the same folded complex as the tables, FACE_CAP included.
    """
    check_field(field)
    if I.is_zero:
        return 0
    lo, hi = _degree_window(I, i)
    if not lo <= b.bit_count() <= hi:
        return 0
    return _betti_at(I, b, field).get(i, 0)


def _degree_window(I, i):
    """(lo, hi): beta_{i,b} of the nonzero ideal I can be nonzero only where
    lo <= |b| <= hi, that is d_min + i <= |b| <= d_max * (i+1)."""
    d_min, d_max = I.degree_range
    return d_min + i, d_max * (i + 1)


def total_betti_in_degree(I, i, field="Q"):
    """Total Betti number of the ideal in one homological degree.

    The whole lcm closure is walked first (ZeroIdeal and ClosureTooLarge
    come from there), but only its members inside the degree window, where
    a value can be nonzero, are read; the field and the window are checked
    once, not per member as betti_value_at would.
    """
    check_field(field)
    closure = lcm_closure(I)
    lo, hi = _degree_window(I, i)
    return sum(
        _betti_at(I, b, field).get(i, 0)
        for b in closure if lo <= b.bit_count() <= hi
    )


def graded_betti_in_degree(
    I, i, total_degree, field="Q", closure_cap=CLOSURE_CAP
):
    """Graded Betti number beta_{i, total_degree}(I), summed multigrade-wise
    over the closure members of that degree; none outside the degree
    window is visited."""
    check_field(field)
    closure = lcm_closure(I, cap=closure_cap)
    lo, hi = _degree_window(I, i)
    if not lo <= total_degree <= hi:
        return 0
    return sum(
        _betti_at(I, b, field).get(i, 0)
        for b in closure if b.bit_count() == total_degree
    )
