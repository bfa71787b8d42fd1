"""Squarefree monomials and monomial ideals in K[x_1..x_n, y_1..y_n].

A squarefree monomial is one int over the 2n variables: x_i at bit
n+i-1 and y_j at bit j-1.  Divisibility is containment of masks, the lcm
is their union and the degree their bit count.  With the x-variables in
the high bits, ``bitset.order_key`` orders monomials by degree, then by
the x-part, then by the y-part.  Only :func:`monomial` and
:func:`render_monomial` know the layout.
"""

from dataclasses import dataclass
from functools import cached_property

from .bitset import down_sets, full_mask, indices_of, order_key, positions_of
from .errors import ClosureTooLarge, ConsistencyError, ZeroIdeal

CLOSURE_CAP = 5000  # cap for lcm-closure and transversal-list sizes


def monomial(xs, ys, n):
    """X_xs * Y_ys, from subset masks of [n] for the x- and y-indices."""
    return xs << n | ys


def render_monomial(m, n):
    """Human-readable monomial over 2n variables, e.g. 'x1*x2*y3' or '1'."""
    parts = [f"x{i}" for i in indices_of(m >> n)]
    parts += [f"y{j}" for j in indices_of(m & full_mask(n))]
    return "*".join(parts) if parts else "1"


def _minimalize(monomials):
    """Keep the divisibility-minimal monomials, canonically sorted."""
    out = []
    for m in sorted(set(monomials), key=order_key):
        if not any(g & ~m == 0 for g in out):
            out.append(m)
    return tuple(out)


@dataclass(frozen=True)
class SquarefreeIdeal:
    """Minimal generating set of squarefree monomials, 2n ambient variables."""

    n: int
    gens: tuple

    @staticmethod
    def of(n, monomials):
        return SquarefreeIdeal(n, _minimalize(monomials))

    @property
    def is_zero(self):
        return not self.gens

    def contains_monomial(self, m):
        return any(g & ~m == 0 for g in self.gens)

    @cached_property
    def degree_range(self):
        """(d_min, d_max) over the generator degrees, or None for the zero
        ideal; computed on first use and kept."""
        degrees = [g.bit_count() for g in self.gens]
        return (min(degrees), max(degrees)) if degrees else None

    @cached_property
    def graph(self):
        """The graph the generators span when every one has degree 2, as
        variable bit -> mask of its partners; None for any other ideal.
        Computed on first use and kept."""
        if any(g.bit_count() != 2 for g in self.gens):
            return None
        nbr = {}
        for g in self.gens:
            u = g & -g
            nbr[u] = nbr.get(u, 0) | g ^ u
            nbr[g ^ u] = nbr.get(g ^ u, 0) | u
        return nbr


def hibi_ideal(L):
    """Generators u_p = X_p * Y_(complement of p) over the lattice elements.

    Distinct p give incomparable monomials, so no minimalization happens.
    """
    I = SquarefreeIdeal.of(L.n, [lattice_generator(L, p) for p in L.elements])
    if len(I.gens) != len(L.elements):
        raise ConsistencyError(
            f"{len(I.gens)} minimal generators for {len(L.elements)} elements"
        )
    return I


def lattice_generator(L, p):
    """The generator u_p attached to a lattice element."""
    return monomial(p, full_mask(L.n) & ~p, L.n)


def edge_ideal(G):
    """Generators x_i * y_j over the edges of a normalized graph."""
    gens = [monomial(1 << (i - 1), 1 << (j - 1), G.n) for i, j in G.edges]
    return SquarefreeIdeal.of(G.n, gens)


def alexander_dual(I):
    """Minimal transversals of the generator supports.

    Fold the generators in one at a time.  Of the minimal partial
    transversals (an antichain), those that meet the next generator g
    stay; each t that misses g is multiplied by each variable v of g, and
    only a staying transversal through v can divide t*v.  Involutive on
    minimalized squarefree ideals.  Raises ClosureTooLarge once the list
    of partial transversals passes CLOSURE_CAP.
    """
    if I.is_zero:
        raise ZeroIdeal("the zero ideal has no Alexander dual")
    trans = [0]
    for g in I.gens:
        kept = [t for t in trans if t & g]
        missing = [t for t in trans if not t & g]
        trans = kept[:]
        for v in positions_of(g):
            through = [k for k in kept if k >> v & 1]
            for t in missing:
                m = t | 1 << v
                if not any(k & ~m == 0 for k in through):
                    trans.append(m)
        if len(trans) > CLOSURE_CAP:
            raise ClosureTooLarge(
                f"{len(trans)} partial transversals exceed the cap {CLOSURE_CAP}"
            )
    return SquarefreeIdeal(I.n, tuple(sorted(trans, key=order_key)))


def lcm_closure(I, cap=CLOSURE_CAP):
    """Smallest set containing the generators and closed under pairwise lcm.

    A squarefree lcm is a union of supports, so these are the unions of
    nonempty sets of generator supports: the lcm-lattice elements above
    the bottom, where every nonzero Betti multidegree lies.  One
    ``down_sets`` walk finds them, refused with ClosureTooLarge past cap.
    The list is sorted by ``order_key`` (degree, then value).
    """
    if I.is_zero:
        raise ZeroIdeal("the zero ideal has an empty lcm closure")
    unions = down_sets(I.gens, cap + 1)
    if len(unions) > cap + 1:
        raise ClosureTooLarge(f"lcm closure exceeds the cap {cap}")
    if 0 not in I.gens:
        unions.discard(0)
    # order_key order, keyed by a C function: a stable sort by degree of
    # the list sorted by value
    return sorted(sorted(unions), key=int.bit_count)
