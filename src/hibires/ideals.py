"""Squarefree monomials and monomial ideals in K[x_1..x_n, y_1..y_n]."""

from dataclasses import dataclass

from .bitset import full_mask, indices_of, is_subset
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


def x_monomial(mask):
    return Monomial.of(mask, 0)


def y_monomial(mask):
    return Monomial.of(0, mask)


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
    trans = [UNIT]
    for g in I.gens:
        kept = [t for t in trans if t.xmask & g.xmask or t.ymask & g.ymask]
        missing = [t for t in trans if not (t.xmask & g.xmask or t.ymask & g.ymask)]
        variables = [x_monomial(1 << (i - 1)) for i in indices_of(g.xmask)]
        variables += [y_monomial(1 << (j - 1)) for j in indices_of(g.ymask)]
        trans = kept[:]
        for v in variables:
            through = [k for k in kept if v.divides(k)]
            for t in missing:
                m = t.lcm(v)
                if not any(k.divides(m) for k in through):
                    trans.append(m)
        if len(trans) > CLOSURE_CAP:
            raise ClosureTooLarge(
                f"{len(trans)} partial transversals exceed the cap {CLOSURE_CAP}"
            )
    return MonomialIdeal(I.n, tuple(sorted(trans)))


def lcm_closure(I, cap=CLOSURE_CAP):
    """Smallest set containing the generators and closed under pairwise lcm.

    These are the lcm-lattice elements above the bottom; every multidegree
    with a nonzero Betti number lies here.
    """
    if I.is_zero:
        raise ZeroIdeal("the zero ideal has an empty lcm closure")
    closure = set(I.gens)
    frontier = set(I.gens)
    while frontier:
        new = set()
        for m in frontier:
            for g in I.gens:
                l = m.lcm(g)
                if l not in closure:
                    new.add(l)
        closure |= new
        if len(closure) > cap:
            raise ClosureTooLarge(f"lcm closure exceeds the cap {cap}")
        frontier = new
    return sorted(closure)
