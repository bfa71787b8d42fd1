from hibires.betti import BettiTable
from hibires.ideals import monomial


def mono(x, y):
    """A monomial over the 2 x 2 variables every table here uses."""
    return monomial(x, y, 2)


def table(n, subject, entries):
    t = BettiTable(n, subject)
    for i, b, v in entries:
        t.add(i, b, v)
    return t


class TestAccumulation:
    def test_add_merges(self):
        t = BettiTable(2, "ideal")
        b = mono(0b1, 0)
        t.add(0, b, 1)
        t.add(0, b, 2)
        assert t.value(0, b) == 3

    def test_add_zero_is_noop(self):
        t = BettiTable(2, "ideal")
        t.add(0, mono(0b1, 0), 0)
        assert t.entries == {}

    def test_graded_and_totals(self):
        t = table(
            2,
            "ideal",
            [
                (0, mono(0b01, 0), 1),
                (0, mono(0b10, 0), 1),
                (1, mono(0b11, 0), 1),
            ],
        )
        assert t.graded() == {(0, 1): 2, (1, 2): 1}
        assert t.totals() == {0: 2, 1: 1}

    def test_pd_reg_t_depth(self):
        t = table(
            2,
            "ideal",
            [(0, mono(0b01, 0b01), 1), (1, mono(0b11, 0b01), 2)],
        )
        assert t.pd() == 1
        assert t.reg() == 2
        assert t.t() == 2
        assert t.depth(4) == 3

    def test_to_quotient(self):
        t = table(2, "ideal", [(0, mono(0b1, 0), 1)])
        q = t.to_quotient()
        assert q.subject == "quotient"
        assert q.value(0, mono(0, 0)) == 1
        assert q.value(1, mono(0b1, 0)) == 1


class TestExtremality:
    def test_i_extremal(self):
        t = table(
            2,
            "ideal",
            [(1, mono(0b01, 0), 1), (1, mono(0b11, 0), 1)],
        )
        assert not t.is_i_extremal(1, mono(0b01, 0))
        assert t.is_i_extremal(1, mono(0b11, 0))

    def test_multigraded_extremal_blocks_diagonal(self):
        # (1, x1) is blocked by (2, x1*x2*y1): degree gap 2 >= hom gap 1
        t = table(
            2,
            "ideal",
            [(1, mono(0b01, 0), 1), (2, mono(0b11, 0b01), 1)],
        )
        assert t.extremal_multigraded() == [(2, mono(0b11, 0b01), 1)]

    def test_multigraded_not_blocked_when_gap_too_small(self):
        # degree gap 1 < hom gap 2: both survive
        t = table(
            2,
            "ideal",
            [(0, mono(0b01, 0), 1), (2, mono(0b11, 0), 1)],
        )
        assert len(t.extremal_multigraded()) == 2

    def test_graded_extremal(self):
        t = table(
            2,
            "ideal",
            [(0, mono(0b01, 0), 1), (1, mono(0b01, 0b11), 1)],
        )
        # (0,1) is blocked by (1,3): l - r = 2 >= j - i = 1
        assert t.extremal_graded() == {(1, 3): 1}


class TestRendering:
    def test_diagram_contains_values(self):
        t = table(
            2,
            "ideal",
            [(0, mono(0b01, 0b01), 3), (1, mono(0b11, 0b01), 2)],
        )
        d = t.diagram()
        assert "3" in d and "2" in d

    def test_empty_diagram(self):
        assert BettiTable(2, "ideal").diagram() == "(zero table)\n"

    def test_differing_entries(self):
        # both sides of each differing position, in position order, with
        # the multidegree rendered over the table's own n
        a = table(2, "ideal", [(1, mono(0b11, 0), 1), (0, mono(0b01, 0b10), 2)])
        b = table(2, "ideal", [(1, mono(0b11, 0), 1), (0, mono(0, 0b01), 1)])
        assert a.differing(b) == [(0, "y1", 0, 1), (0, "x1*y2", 2, 0)]
        assert a.differing(a) == []
