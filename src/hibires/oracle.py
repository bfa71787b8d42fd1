"""Brute-force Betti numbers via simplicial homology.

Independent of the closed-form resolution.  For a squarefree multidegree b
the upper Koszul complex K^b on the vertex set supp(b), the subsets t of
supp(b) with b/t still in the ideal, carries the Betti numbers of a
squarefree monomial ideal I: beta_{i,b}(I) = dim H~_{i-1}(K^b)
(Miller-Sturmfels, "Combinatorial Commutative Algebra", GTM 227, 2005).
A face of K^b is a subset of supp(b) that some generator dividing b
avoids, so one depth-first walk enumerates the faces inside a vertex set
from the list of those generators, and the reduced homology ranks come
from linalg.homology_ranks over Q or F_p.  _induced_complex is the only
builder of a complex, whole or truncated at a number of vertices; a
complex past FACE_CAP faces is refused with ClosureTooLarge.
upper_koszul_complex builds K^b on all of supp(b).  Every value, the
whole tables of betti_oracle and the single values of betti_value_at
alike, goes through one routine, _betti_at, which folds b twice before
it builds anything.

When every generator has degree 2 (every edge ideal, and the Hibi ideals
with n = 2), Hochster's restriction Delta_b, the subsets of supp(b) that
contain no generator (beta_{i,b}(I) = dim H~_{|b|-i-2}(Delta_b)), is the
independence complex Ind(G[W]) of the graph G the generators span, on
W = supp(b).  Engstrom's fold lemma ("Complexes of directed trees and
independence complexes", Discrete Math. 309, 2009) says Ind(G) and
Ind(G - v) are homotopy equivalent when N(u) is contained in N(v) for
some u other than v.  _betti_at folds G[W] until no fold applies and
reads the residue R: an isolated vertex makes Ind a cone (no homology), a
perfect matching with k edges makes it S^{k-1} (beta_{|W|-k-1,b} = 1),
and any other residue is read off K^R, through the second fold below, its
homological degree shifted by |W| - |R|.

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
  simplex on V, and beta_{|V|-1,b} = 1 (plus the quadratic shift);
- any other V: K^b[V] is built, and FACE_CAP counts its faces.
On the 2,515 lcm-closure members of the non-quadratic Hibi ideals of the
benchmark's verify-q lattices (n = 3..5) these are 1,535 spheres, 517
full simplices and 463 built complexes on 4 to 8 vertices.

A single value beta_{i,b} is 0 outside the window
d_min + i <= |b| <= d_max * (i+1) of the generator degrees (K^b has no
face past |b| - d_min vertices, and by Taylor's resolution a multidegree
that carries beta_i is the lcm of i+1 generators), so betti_value_at
returns 0 there without folding or building a complex, and the totals
skip those b before they call it.  Inside the window K^b[V] is truncated
at j + 1 vertices, j = i - (|b| - |R|), which gives beta_{0,b} = 1
exactly at a generator and 0 for every negative degree.  The degree
range and the quadratic graph are computed once per ideal
(SquarefreeIdeal.degree_range and SquarefreeIdeal.graph).
"""

from dataclasses import dataclass
from itertools import islice

from .betti import BettiTable
from .errors import ClosureTooLarge, ZeroIdeal
from .ideals import CLOSURE_CAP, lcm_closure
from .linalg import homology_ranks

FACE_CAP = 1 << 16  # max faces of one complex before the oracle refuses


@dataclass(frozen=True)
class SimplicialComplex:
    """Faces stored as bit masks over the vertex set, grouped by dimension.

    faces[d] lists the faces of dimension d; the empty face has dimension
    -1 and is present iff the complex is nonvoid.
    """

    faces: dict


def _divisors(I, b):
    """The generators of I dividing b; b is also the mask of supp(b)."""
    return [g for g in I.gens if g & ~b == 0]


def _fold(b, graph):
    """Fold the quadratic ideal's graph restricted to supp(b): drop a
    vertex v while some u != v has N(u) inside N(v).

    None when some vertex is (or becomes) isolated: Delta_b is a cone.
    Otherwise (R, matching): the residue's vertex mask R, and whether the
    induced graph on R is a perfect matching.  The order of the folds does
    not matter: the residue is the same graph up to isomorphism.
    """
    nbr = {}  # vertex bit -> mask of its neighbours inside supp(b)
    rest = b
    while rest:
        v = rest & -rest
        rest ^= v
        nbr[v] = graph.get(v, 0) & b
        if not nbr[v]:
            return None
    folded = True
    while folded:
        folded = False
        for v in list(nbr):
            nv = nbr[v]
            for u, nu in nbr.items():
                if not nu & ~nv and u != v:
                    break
            else:
                continue  # no other neighbourhood lies inside N(v)
            del nbr[v]
            while nv:
                w = nv & -nv
                nv ^= w
                nbr[w] ^= v
                if not nbr[w]:
                    return None
            folded = True
    return sum(nbr), all(nv & (nv - 1) == 0 for nv in nbr.values())


def _faces(bmask, gens, max_size=None):
    """Faces (as masks) of K^b inside bmask, where gens are the generators
    dividing b and bmask is supp(b) or part of it: the subsets of bmask
    that some generator avoids.

    Depth-first extension in increasing vertex order: a face is extended
    only by the vertices above its largest one that also extended its
    parent, so each face is produced once and the work is proportional to
    the faces found times |bmask|.  max_size stops the extension at faces
    with that many vertices.
    """
    if not gens:
        return
    yield 0
    if max_size is None:
        max_size = bmask.bit_count()
    # (face, its size, vertices above its top that may extend it)
    stack = [(0, 0, _bits(bmask))] if max_size > 0 else []
    while stack:
        face, size, cand = stack.pop()
        ext = [w for w in cand if any(not g & (face | w) for g in gens)]
        for k, w in enumerate(ext):
            child = face | w
            yield child
            if size + 1 < max_size and k + 1 < len(ext):
                stack.append((child, size + 1, ext[k + 1 :]))


def _bits(mask):
    return [1 << v for v in range(mask.bit_length()) if mask >> v & 1]


def upper_koszul_complex(I, b, max_size=None):
    """Subsets t of supp(b) with b/t still in the ideal, or those with at
    most max_size vertices; ClosureTooLarge past FACE_CAP faces."""
    return _induced_complex(b, _divisors(I, b), max_size)


def _induced_complex(vertices, gens, max_size=None):
    """K^b[vertices], the faces of K^b inside the mask vertices, gens being
    the generators dividing b, or those faces with at most max_size
    vertices; ClosureTooLarge past FACE_CAP faces."""
    by_dim = {}
    for f in islice(_faces(vertices, gens, max_size), FACE_CAP + 1):
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    if sum(map(len, by_dim.values())) > FACE_CAP:
        raise ClosureTooLarge(
            f"a complex on {vertices.bit_count()} vertices passes the cap of "
            f"{FACE_CAP} faces"
        )
    return SimplicialComplex({d: sorted(fs) for d, fs in by_dim.items()})


def _minimal_classes(b, gens):
    """{incidence: vertex}: the least vertex of supp(b) for each distinct
    inclusion-minimal incidence set, the set of generators in gens that
    contain the vertex, written as a bit mask over the positions in gens.
    """
    first = {}
    for w in _bits(b):
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


def reduced_homology_ranks(K, field="Q"):
    """Ranks of reduced homology, as a dict degree -> rank (degree >= -1)."""
    return homology_ranks(K.faces, _face_boundary, field=field)


def _betti_at(I, b, field="Q", only=None):
    """{i: beta_{i,b}(I)} for the nonzero values, a quadratic ideal's b
    folded first, then K^b folded onto its minimal incidence classes (see
    the module docstring).  With only=i just the value at i is exact: it
    is read off K^b[V] truncated at i + 1 vertices, its degrees i-2, i-1
    and i, and the other keys are truncation artifacts.
    """
    shift = 0
    if I.graph is not None:
        folded = _fold(b, I.graph)
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
    if only is None:
        K = _induced_complex(V, gens)
    else:
        i = only - shift
        faces = _induced_complex(V, gens, max_size=i + 1).faces
        K = SimplicialComplex({d: faces.get(d, []) for d in (i - 2, i - 1, i)})
    ranks = reduced_homology_ranks(K, field)
    return {d + 1 + shift: h for d, h in ranks.items()}


def betti_oracle(I, field="Q"):
    """Multigraded Betti table of the ideal from simplicial homology, over
    the candidate multidegrees of the lcm closure of the generators."""
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
    degree window (see the module docstring); inside it, after both folds,
    it is read off K^b[V] truncated at i + 1 vertices, which stops at
    FACE_CAP faces (ClosureTooLarge past it).
    """
    if I.is_zero:
        return 0
    lo, hi = _degree_window(I, i)
    if not lo <= b.bit_count() <= hi:
        return 0
    return _betti_at(I, b, field, only=i).get(i, 0)


def _degree_window(I, i):
    """(lo, hi): beta_{i,b} of the nonzero ideal I can be nonzero only where
    lo <= |b| <= hi, that is d_min + i <= |b| <= d_max * (i+1)."""
    d_min, d_max = I.degree_range
    return d_min + i, d_max * (i + 1)


def total_betti_in_degree(I, i, field="Q"):
    """Total Betti number of the ideal in one homological degree.

    The whole lcm closure is walked first (ZeroIdeal and ClosureTooLarge
    come from there), but betti_value_at is called only on its members
    inside the degree window, where a value can be nonzero.
    """
    closure = lcm_closure(I)
    lo, hi = _degree_window(I, i)
    return sum(
        betti_value_at(I, b, i, field=field)
        for b in closure if lo <= b.bit_count() <= hi
    )


def graded_betti_in_degree(
    I, i, total_degree, field="Q", closure_cap=CLOSURE_CAP
):
    """Graded Betti number beta_{i, total_degree}(I), summed multigrade-wise
    over the closure members of that degree; none outside the degree
    window is visited."""
    closure = lcm_closure(I, cap=closure_cap)
    lo, hi = _degree_window(I, i)
    if not lo <= total_degree <= hi:
        return 0
    return sum(
        betti_value_at(I, b, i, field=field)
        for b in closure if b.bit_count() == total_degree
    )
