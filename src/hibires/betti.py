"""Multigraded Betti tables and the data read off from them."""

from dataclasses import dataclass, field

from .bitset import order_key
from .errors import ConsistencyError
from .ideals import render_monomial


def position_key(entry):
    """Sort key for (i, multidegree, ...) entries: i, then the monomial order."""
    return entry[0], order_key(entry[1])


@dataclass
class BettiTable:
    """Map (homological degree, multidegree) -> positive integer.

    Multidegrees are squarefree monomials over 2n variables (see
    ``ideals``).  subject is "ideal" or "quotient"; graded and total views
    are always derived from the multigraded entries.
    """

    n: int
    subject: str
    entries: dict = field(default_factory=dict)

    def add(self, i, b, value=1):
        if value:
            key = (i, b)
            self.entries[key] = self.entries.get(key, 0) + value

    def value(self, i, b):
        return self.entries.get((i, b), 0)

    def graded(self):
        out = {}
        for (i, b), v in self.entries.items():
            key = (i, b.bit_count())
            out[key] = out.get(key, 0) + v
        return out

    def totals(self):
        out = {}
        for (i, _), v in self.entries.items():
            out[i] = out.get(i, 0) + v
        return out

    def pd(self):
        """Largest homological degree with a nonzero entry."""
        return max((i for (i, _) in self.entries), default=0)

    def reg(self):
        """max(|b| - i) over the nonzero entries."""
        return max((b.bit_count() - i for (i, b) in self.entries), default=0)

    def t(self):
        """Last nonzero total Betti number."""
        return self.totals().get(self.pd(), 0)

    def depth(self, ambient_vars):
        """Auslander-Buchsbaum: ambient variable count minus pd."""
        return ambient_vars - self.pd()

    def to_quotient(self):
        """Shift an ideal table to the table of the quotient ring."""
        if self.subject != "ideal":
            raise ConsistencyError(
                f"to_quotient needs an ideal table, got {self.subject}"
            )
        out = BettiTable(self.n, "quotient")
        out.add(0, 0, 1)
        for (i, b), v in self.entries.items():
            out.add(i + 1, b, v)
        return out

    # --- extremality ----------------------------------------------------

    def is_i_extremal(self, i, b):
        """No nonzero entry at (i, c) with c strictly above b."""
        return not any(
            j == i and c != b and b & ~c == 0 for (j, c) in self.entries
        )

    def extremal_multigraded(self):
        """Positions (i, b) heading a box of zeroes in the multigraded diagram.

        (i, b) is extremal when no nonzero (j, c) exists with j >= i,
        b strictly dividing c, and |c| - |b| >= j - i.
        """
        out = []
        for (i, b), v in self.entries.items():
            blocked = any(
                j >= i
                and c != b
                and b & ~c == 0
                and c.bit_count() - b.bit_count() >= j - i
                for (j, c) in self.entries
            )
            if not blocked:
                out.append((i, b, v))
        return sorted(out)

    def extremal_graded(self):
        """Graded positions (i, j) heading a box of zeroes, with values."""
        g = self.graded()
        out = {}
        for (i, r), v in g.items():
            blocked = any(
                j >= i and l > r and l - r >= j - i for (j, l) in g
            )
            if not blocked:
                out[(i, r)] = v
        return out

    # --- rendering --------------------------------------------------------

    def differing(self, other):
        """(i, rendered multidegree, own value, other's value) at every
        position where the two tables differ, in position order."""
        keys = sorted(self.entries.keys() | other.entries.keys(), key=position_key)
        return [
            (i, render_monomial(b, self.n), self.value(i, b), other.value(i, b))
            for i, b in keys
            if self.value(i, b) != other.value(i, b)
        ]

    def diagram(self):
        """Betti diagram text: rows are j - i, columns are i."""
        if not self.entries:
            return "(zero table)\n"
        g = self.graded()
        imax = max(i for i, _ in g)
        rows = sorted({r - i for (i, r) in g})
        width = max(len(str(v)) for v in g.values())
        width = max(width, len(str(imax)), 1) + 2
        lines = ["".join(str(i).rjust(width) for i in range(imax + 1))]
        lines[0] = "     " + lines[0]
        for r in rows:
            cells = []
            for i in range(imax + 1):
                v = g.get((i, r + i), 0)
                cells.append((str(v) if v else ".").rjust(width))
            lines.append(str(r).rjust(4) + ":" + "".join(cells))
        return "\n".join(lines) + "\n"
