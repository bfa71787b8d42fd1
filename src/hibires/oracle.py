"""Brute-force Betti numbers via simplicial homology.

Independent of the closed-form resolution.  For a squarefree multidegree b
two complexes on the vertex set supp(b) carry the Betti numbers of a
squarefree monomial ideal I:

* Hochster's restriction Delta_b: the subsets of supp(b) that contain no
  generator of I (for I(G), the independent sets of G inside supp(b)),
  with beta_{i,b}(I) = dim H~_{|b|-i-2}(Delta_b);
* the upper Koszul complex K^b: the subsets t of supp(b) with b/t still in
  I, with beta_{i,b}(I) = dim H~_{i-1}(K^b).

When every generator has degree 2 (every edge ideal, and the Hibi ideals
with n = 2), Delta_b is the independence complex Ind(G[W]) of the graph G
the generators span, on W = supp(b).  Engstrom's fold lemma ("Complexes
of directed trees and independence complexes", Discrete Math. 309, 2009)
says Ind(G) and Ind(G - v) are homotopy equivalent when N(u) is contained
in N(v) for some u other than v.  The oracle folds G[W] until no fold
applies and reads the residue R: an isolated vertex makes Ind a cone (no
homology), a perfect matching with k edges makes it S^{k-1}
(beta_{|W|-k-1,b} = 1), and any other residue is computed like the
multidegree R below, its homological degree shifted by |W| - |R|.

A subset t lies in K^b exactly when its complement in supp(b) does not lie
in Delta_b (Alexander duality inside supp(b)), so the two complexes split
the 2^|b| subsets of supp(b) between them.  Where it builds a complex,
the oracle builds the smaller one.  A face of K^b misses a generator
dividing b, so K^b has at most sum_g 2^(|b|-deg g) faces over those
generators; when that bound is below half of the subsets, K^b is built
at once.  Otherwise the oracle enumerates Delta_b up to half of the
subsets and switches to K^b once Delta_b has more.  Both come from one
depth-first face generator, and the reduced homology ranks come from
exact linear algebra over Q or F_p.  A complex past FACE_CAP faces is
refused with ClosureTooLarge.

A single value beta_{i,b} is 0 outside the window
d_min + i <= |b| <= d_max * (i+1) of the generator degrees (K^b has no
face past |b| - d_min vertices, and by Taylor's resolution a multidegree
that carries beta_i is the lcm of i+1 generators), so betti_value_at
returns 0 there without folding or building a complex, and the totals
skip those b before they call it.  The degree range and the quadratic
graph are computed once per ideal (SquarefreeIdeal.degree_range and
SquarefreeIdeal.graph).
"""

from dataclasses import dataclass
from itertools import islice

from .betti import BettiTable
from .errors import ClosureTooLarge, ZeroIdeal
from .ideals import CLOSURE_CAP, lcm_closure
from .linalg import rank_exact

FACE_CAP = 1 << 16  # max faces of one complex before the oracle refuses


@dataclass(frozen=True)
class SimplicialComplex:
    """Faces stored as bit masks over the vertex set, grouped by dimension.

    faces[d] lists the faces of dimension d; the empty face has dimension
    -1 and is present iff the complex is nonvoid.
    """

    faces: dict

    @property
    def dim(self):
        return max(self.faces, default=-2)

    def face_count(self, d):
        return len(self.faces.get(d, ()))


def _divisors(I, b):
    """The generators of I dividing b; b is also the mask of supp(b)."""
    return [g for g in I.gens if g & ~b == 0]


def _delta(gens):
    """Delta_b as (nonvoid, extends): face | w stays in Delta_b when no
    generator through w lies inside it."""
    rest = {}
    for g in gens:
        for w in _bits(g):
            rest.setdefault(w, []).append(g & ~w)
    return 0 not in gens, lambda face, w: all(r & ~face for r in rest.get(w, ()))


def _koszul(gens):
    """K^b as (nonvoid, extends): face | w stays in K^b when some generator
    avoids it."""
    return bool(gens), lambda face, w: any(not g & (face | w) for g in gens)


def _bits(mask):
    return [1 << v for v in range(mask.bit_length()) if mask >> v & 1]


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


def _faces(bmask, family, max_size=None):
    """Faces (as masks) of a downward-closed family of subsets of bmask.

    family is (nonvoid, extends), where extends(face, w) tells whether
    face | w is in the family given that face is.  Depth-first extension
    in increasing vertex order: a face is extended only by the vertices
    above its largest one that also extended its parent, so each face is
    produced once and the work is proportional to the faces found times
    |bmask|.  max_size stops the extension at faces with that many
    vertices.
    """
    nonvoid, extends = family
    if not nonvoid:
        return
    yield 0
    if max_size is None:
        max_size = bmask.bit_count()
    # (face, its size, vertices above its top that may extend it)
    stack = [(0, 0, _bits(bmask))] if max_size > 0 else []
    while stack:
        face, size, cand = stack.pop()
        ext = [w for w in cand if extends(face, w)]
        for k, w in enumerate(ext):
            child = face | w
            yield child
            if size + 1 < max_size and k + 1 < len(ext):
                stack.append((child, size + 1, ext[k + 1 :]))


def _complex(bmask, faces):
    by_dim = {}
    for f in islice(faces, FACE_CAP + 1):
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    if sum(map(len, by_dim.values())) > FACE_CAP:
        raise ClosureTooLarge(
            f"a complex on {bmask.bit_count()} vertices passes the cap of "
            f"{FACE_CAP} faces"
        )
    return SimplicialComplex({d: sorted(fs) for d, fs in by_dim.items()})


def upper_koszul_complex(I, b):
    """Subsets t of supp(b) with b/t still in the ideal."""
    return _complex(b, _faces(b, _koszul(_divisors(I, b))))


def _smaller_side(I, b):
    """(complex, on_delta): Delta_b while it has at most half of the
    subsets of supp(b), else K^b.  Either side stops at FACE_CAP faces,
    past which ClosureTooLarge is raised.

    A face of K^b misses some generator g dividing b, so K^b has at most
    sum_g 2^(|b|-deg g) faces; when that bound is below half of the
    subsets, K^b is built at once.  Otherwise Delta_b is enumerated up to
    half of them.  A void Delta_b (only the unit ideal has one) falls to
    K^b, where the homology degree still reads off directly.
    """
    gens = _divisors(I, b)
    k = b.bit_count()
    half = (1 << k) >> 1
    if sum(1 << k - g.bit_count() for g in gens) < half:
        return _complex(b, _faces(b, _koszul(gens))), False
    limit = min(half, FACE_CAP)
    delta = list(islice(_faces(b, _delta(gens)), limit + 1))
    if 0 < len(delta) <= limit:
        return _complex(b, delta), True
    return _complex(b, _faces(b, _koszul(gens))), False


def _boundary_matrix(K, d):
    """Sparse rows (one per d-face) of the boundary map into dimension d-1."""
    lower = {f: i for i, f in enumerate(K.faces.get(d - 1, ()))}
    rows = []
    for f in K.faces.get(d, ()):
        row = {}
        sign = 1
        rest = f
        while rest:
            w = rest & -rest
            row[lower[f ^ w]] = sign
            sign = -sign
            rest ^= w
        rows.append(row)
    return rows


def _boundary_rank(K, d, field):
    return rank_exact(_boundary_matrix(K, d), field=field)


def reduced_homology_ranks(K, field="Q"):
    """Ranks of reduced homology, as a dict degree -> rank (degree >= -1)."""
    if K.dim < -1:
        return {}
    boundary_rank = {d: _boundary_rank(K, d, field) for d in range(0, K.dim + 1)}
    out = {}
    for d in range(-1, K.dim + 1):
        h = (
            K.face_count(d)
            - boundary_rank.get(d, 0)
            - boundary_rank.get(d + 1, 0)
        )
        if h:
            out[d] = h
    return out


def betti_oracle(I, field="Q"):
    """Multigraded Betti table of the ideal from simplicial homology.

    Candidate multidegrees are the lcm closure of the generators.  For a
    quadratic ideal each is folded first (see the module docstring);
    a residue that is neither a cone nor a matching, and every multidegree
    of any other ideal, is read off the smaller of Delta_b and K^b.
    """
    if I.is_zero:
        raise ZeroIdeal("the zero ideal has no Betti table")
    table = BettiTable(I.n, "ideal")
    for b in lcm_closure(I):
        r, shift = b, 0
        if I.graph is not None:
            folded = _fold(b, I.graph)
            if folded is None:
                continue
            r, matching = folded
            if matching:
                table.add(b.bit_count() - r.bit_count() // 2 - 1, b)
                continue
            shift = b.bit_count() - r.bit_count()
        K, on_delta = _smaller_side(I, r)
        for d, h in reduced_homology_ranks(K, field).items():
            i = r.bit_count() - d - 2 if on_delta else d + 1
            table.add(i + shift, b, h)
    return table


def betti_value_at(I, b, i, field="Q"):
    """Single Betti number beta_{i,b}(I), touching only three face sizes.

    Much cheaper than the full table when only a few positions matter
    (last-column totals, single graded values).  It is 0 outside the
    window d_min + i <= |b| <= d_max * (i+1) of the generator degrees:
    K^b has no face with more than |b| - d_min vertices, and by Taylor's
    resolution a b that carries beta_i is the lcm of i+1 generators.
    Inside the window a quadratic ideal folds b first, as betti_oracle
    does.  The faces come from Delta_b up to |b|-i vertices or from K^b up
    to i+1 vertices, whichever limit is smaller, and stop at FACE_CAP
    faces (ClosureTooLarge past it).
    """
    if I.is_zero:
        return 0
    k = b.bit_count()
    lo, hi = _degree_window(I, i)
    if not lo <= k <= hi:
        return 0
    if I.graph is not None:
        folded = _fold(b, I.graph)
        if folded is None:
            return 0
        r, matching = folded
        if matching:
            return int(i == k - r.bit_count() // 2 - 1)
        i -= k - r.bit_count()
        b, k = r, r.bit_count()
    if i <= 0:
        return int(i == 0 and b in I.gens)
    gens = _divisors(I, b)
    if k - i <= i + 1:
        family, d = _delta(gens), k - i - 2
    else:
        family, d = _koszul(gens), i - 1
    K = _complex(b, _faces(b, family, max_size=d + 2))
    return (
        K.face_count(d) - _boundary_rank(K, d, field) - _boundary_rank(K, d + 1, field)
    )


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
