"""Squarefree monomials and monomial ideals in K[x_1..x_n, y_1..y_n]."""

from dataclasses import dataclass
from itertools import islice

from .bitset import down_sets, full_mask, indices_of, is_subset, positions_of
from .errors import ClosureTooLarge, ConsistencyError, ZeroIdeal

CLOSURE_CAP = 5000  # cap for lcm-closure and transversal-list sizes


@dataclass(frozen=True, order=True)
class Monomial:
    """Squarefree monomial: xmask over the x-variables, ymask over the y's.

    Ordering is (degree, xmask, ymask), the canonical generator order.
    """

    degree: int
    xmask: int
    ymask: int

    @staticmethod
    def of(xmask, ymask):
        return Monomial(xmask.bit_count() + ymask.bit_count(), xmask, ymask)

    @property
    def is_unit(self):
        return self.xmask == 0 and self.ymask == 0

    def divides(self, other):
        return is_subset(self.xmask, other.xmask) and is_subset(
            self.ymask, other.ymask
        )

    def lcm(self, other):
        return Monomial.of(self.xmask | other.xmask, self.ymask | other.ymask)

    def strictly_divides(self, other):
        return self != other and self.divides(other)

    def render(self):
        parts = [f"x{i}" for i in indices_of(self.xmask)]
        parts += [f"y{j}" for j in indices_of(self.ymask)]
        return "*".join(parts) if parts else "1"


UNIT = Monomial.of(0, 0)


def variable_mask(m, n):
    """Support of m over 2n variables: x_i at bit i-1, y_j at bit n+j-1."""
    return m.xmask | (m.ymask << n)


def _monomial_of(mask, n):
    return Monomial.of(mask & full_mask(n), mask >> n)


def _minimalize(monomials):
    """Keep the divisibility-minimal monomials, canonically sorted."""
    ms = sorted(set(monomials))
    out = []
    for m in ms:
        if not any(g.divides(m) for g in out):
            out.append(m)
    return tuple(out)


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal generating set of squarefree monomials, 2n ambient variables."""

    n: int
    gens: tuple

    @staticmethod
    def of(n, monomials):
        return MonomialIdeal(n, _minimalize(monomials))

    @property
    def is_zero(self):
        return not self.gens

    def contains_monomial(self, m):
        return any(g.divides(m) for g in self.gens)


def hibi_ideal(L):
    """Generators u_p = X_p * Y_(complement of p) over the lattice elements.

    Distinct p give incomparable monomials, so no minimalization happens.
    """
    I = MonomialIdeal.of(L.n, [lattice_generator(L, p) for p in L.elements])
    if len(I.gens) != len(L.elements):
        raise ConsistencyError(
            f"{len(I.gens)} minimal generators for {len(L.elements)} elements"
        )
    return I


def lattice_generator(L, p):
    """The generator u_p attached to a lattice element."""
    return Monomial.of(p, full_mask(L.n) & ~p)


def edge_ideal(G):
    """Generators x_i * y_j over the edges of a normalized graph."""
    gens = [
        Monomial.of(1 << (i - 1), 1 << (j - 1)) for i, j in G.edges
    ]
    return MonomialIdeal.of(G.n, gens)


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
        g = variable_mask(g, I.n)
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
    return MonomialIdeal(I.n, tuple(sorted(_monomial_of(t, I.n) for t in trans)))


def lcm_closure(I, cap=CLOSURE_CAP):
    """Smallest set containing the generators and closed under pairwise lcm.

    A squarefree lcm is a union of supports, so these are the unions of
    nonempty sets of generator supports, sorted: the lcm-lattice elements
    above the bottom, where every nonzero Betti multidegree lies.
    """
    if I.is_zero:
        raise ZeroIdeal("the zero ideal has an empty lcm closure")
    masks = {variable_mask(g, I.n) for g in I.gens}
    unions = list(islice(down_sets(masks), cap + 2))
    if len(unions) > cap + 1:
        raise ClosureTooLarge(f"lcm closure exceeds the cap {cap}")
    return sorted(_monomial_of(u, I.n) for u in unions if u or 0 in masks)
