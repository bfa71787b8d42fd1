"""Property suite run over a lattice instance.

Each check verifies one structural claim: the distinct-meets lemma and its
cardinality corollary, the rank-two neighbor fact, interval monotonicity,
the basis/interval bijection, graph and duality round-trips, resolution
correctness, and (at oracle level) agreement of every closed-form value
with the homology oracle.  ``run_checks`` builds what they read, then
the checks only compare; the lemma and bijection checks read the basis of
the built resolution.  Each check adds (name, ok, detail) to a report;
findings that are not failures (bound strictness, graded mismatches)
are kept apart.
"""

from dataclasses import dataclass, field
from functools import partial
from itertools import combinations

from .bitset import full_mask, is_subset
from .errors import NotCM
from .graphs import cover_lattice, graph_from_lattice
from .ideals import alexander_dual, edge_ideal, hibi_ideal, lcm_closure, render_monomial
from .invariants import (
    cm_extremal_placement_check,
    depth_edge_ring,
    extremal_graded_edge_ring,
    extremal_multigraded_edge_ring,
    extremal_multigraded_H,
    is_cohen_macaulay,
    last_betti_lower_bound,
    pd_and_reg_H,
    regularity_edge_ring,
)
from .lattice import boolean_interval_scan, f_value
from .oracle import betti_oracle
from .resolution import (
    betti_table_from_basis,
    build_resolution,
    label,
    mutate_differential,
    render_element,
    strand_exactness,
    verify_complex,
    verify_minimality,
)


@dataclass
class CheckReport:
    results: list = field(default_factory=list)
    findings: list = field(default_factory=list)

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.results)

    def add(self, name, ok, detail=None):
        self.results.append((name, ok, detail))

    def find(self, kind, detail):
        self.findings.append((kind, detail))

    def first_failure(self):
        for name, ok, detail in self.results:
            if not ok:
                return (name, detail)
        return None


def check_lemma_distinct_meets(C, report):
    """Distinct subsets of N(p) have distinct meets (empty meet is p).

    The multidegree X_p * Y_{[n] - meet S} of b(p; S) determines the pair
    (p, meet S), so the lemma holds exactly when no two basis elements of
    C share a multidegree.
    """
    seen = set()
    for level in C.levels:
        for m in level:
            if m in seen:
                report.add("lemma1_distinct_meets", False, label(C.L, m))
                return
            seen.add(m)
    report.add("lemma1_distinct_meets", True)


def check_lemma_corollary(C, report):
    """Nested subsets S in S' of N(p): |S'| - |S| <= |meet S| - |meet S'|.

    b(p; S) sits at level |S| with degree |p| + n - |meet S|, and b(p; ())
    at degree n, so on the pair () in S the corollary says that a level-i
    element has degree at least n + i.  It is checked there, on every
    basis element: that pair is the one the level and the degree of m
    name without a second element.
    """
    for i, level in enumerate(C.levels):
        for m in level:
            if m.bit_count() < C.L.n + i:
                report.add("lemma1_corollary", False, (*label(C.L, m), i))
                return
    report.add("lemma1_corollary", True)


def check_rank_two(L, report):
    """Distinct lower neighbors meet into a lower neighbor; the interval
    [q_i meet q_j, p] has exactly four elements."""
    for p in L.elements:
        nb = L.neighbors(p)
        for qi, qj in combinations(nb, 2):
            m = qi & qj
            if m not in L.neighbors(qi):
                report.add("rank_two_fact", False, (p, qi, qj))
                return
            members = [
                c for c in L.elements if is_subset(m, c) and is_subset(c, p)
            ]
            if len(members) != 4:
                report.add("rank_two_fact", False, (p, qi, qj, members))
                return
    report.add("rank_two_fact", True)


def check_interval_monotonicity(L, report):
    """Interval containment into a maximal interval forces f(q) <= f(p):
    [meet N(q), q] inside [meet N(p), p] means meet N(p) within
    meet N(q) and q within p."""
    f = {q: f_value(L, q) for q in L.elements if q}
    for p in L.a_set:
        for q, fq in f.items():
            if (
                is_subset(L.bottom[p], L.bottom[q])
                and is_subset(q, p)
                and fq > f[p]
            ):
                report.add("interval_monotonicity", False, (p, q))
                return
    report.add("interval_monotonicity", True)


def check_interval_bijection(C, report):
    """Basis labels biject onto the Boolean intervals of L.

    b(p; S) goes to [meet S, p] of rank |S|, with meet S read off the
    y-part of its multidegree and |S| its level; the image must have one
    member per basis element and equal the structural scan of L.
    """
    n = C.L.n
    image = {
        (full_mask(n) & ~m, m >> n, i)
        for i, level in enumerate(C.levels)
        for m in level
    }
    ok = (
        len(image) == sum(C.level_ranks())
        and image == boolean_interval_scan(C.L)
    )
    report.add("interval_bijection", ok)


def check_graph_round_trip(L, G, L_G, report):
    """G is normalized and its cover lattice L_G is L again."""
    ok = G.is_normalized and L_G.elements == L.elements
    report.add("graph_round_trip", ok)


def check_duality(H, I, dual_H, dual_I, report):
    """Alexander duality swaps the lattice ideal and the edge ideal."""
    ok = dual_H == I and dual_I == H
    report.add("alexander_duality", ok)


def check_resolution(C, H, closure, report, field="Q"):
    """d^2 = 0, minimality and strand exactness of C at each b in closure,
    the lcm closure of H; returns the Betti table of C."""
    d2 = verify_complex(C)
    report.add("complex_d_squared_zero", d2.ok, _render_failure(C, d2.failure))
    minimal = verify_minimality(C)
    report.add(
        "complex_minimality", minimal.ok, _render_failure(C, minimal.failure)
    )
    bad = [b for b in closure if not strand_exactness(C, H, b, field=field)]
    report.add("strand_exactness", not bad, bad[:3])
    table = betti_table_from_basis(C)
    report.add(
        "basis_betti_multiplicity_one",
        all(v == 1 for v in table.entries.values()),
    )
    return table


def _render_failure(C, failure):
    """A complex check's failure in the paper's terms: basis elements as
    b(p; S) at their multidegree, monomials in x and y, no cancelled sums.

    A unit entry's target is its source m; the uncancelled sums of
    verify_complex are keyed by target m'', shown with its coefficient
    m / m'', or for the augmentation by the monomial m.
    """
    if failure is None:
        return None
    level, m, found = failure
    element = partial(render_element, C.L)
    mono = partial(render_monomial, n=C.L.n)
    if isinstance(found, int):
        found = element(found)
    elif level == "augmentation":
        found = {mono(k): v for k, v in found.items() if v}
    else:
        found = {(element(k), mono(m & ~k)): v for k, v in found.items() if v}
    return (level, element(m), found)


def check_formula_consistency(L, report):
    """Internal relations among the closed-form invariants."""
    pd_RI, _ = pd_and_reg_H(L)
    ok = (
        pd_RI == 2 * L.n - depth_edge_ring(L)
        and is_cohen_macaulay(L) == (depth_edge_ring(L) == L.n)
        and regularity_edge_ring(L) >= 1
    )
    report.add("formula_consistency", ok)


def check_oracle_hibi(L, basis_table, oracle_table, report):
    """The decisive cross-check: basis counts equal the homology oracle."""
    differing = basis_table.differing(oracle_table)
    report.add("betti_formula_vs_oracle", not differing, differing[:3])
    i_extremal = all(
        oracle_table.is_i_extremal(i, b) for (i, b) in oracle_table.entries
    )
    report.add("oracle_i_extremality_H", i_extremal)
    expected = [
        (i, b, 1) for i, b in extremal_multigraded_H(L)
    ]
    report.add(
        "extremal_H_vs_oracle",
        oracle_table.extremal_multigraded() == sorted(expected),
    )


def check_oracle_edge_ring(L, dual_I, quotient, report):
    """Formula invariants of R/I(G) against quotient, its oracle table;
    dual_I, the dual of I(G), gives the placement check its codimension."""
    pd_RI, _ = pd_and_reg_H(L)
    report.add(
        "depth_reg_pd_vs_oracle",
        (
            quotient.pd() == pd_RI
            and quotient.depth(2 * L.n) == depth_edge_ring(L)
            and quotient.reg() == regularity_edge_ring(L)
        ),
        (quotient.pd(), quotient.depth(2 * L.n), quotient.reg()),
    )
    claimed = extremal_multigraded_edge_ring(L)
    report.add(
        "extremal_transfer",
        all(quotient.value(i, b) == v for i, b, v in claimed),
    )
    graded_formula = extremal_graded_edge_ring(L)
    graded_oracle = quotient.extremal_graded()
    if graded_formula != graded_oracle:
        report.find(
            "graded_extremal_mismatch", (graded_formula, graded_oracle)
        )
    bound = last_betti_lower_bound(L)
    t = quotient.t()
    report.add("last_betti_bound", t >= bound, (t, bound))
    if t > bound:
        report.find("bound_strict", (t, bound))
    else:
        report.find("bound_equality", (t, bound))
    if is_cohen_macaulay(L):
        try:
            placed, why = cm_extremal_placement_check(dual_I, quotient), None
        except NotCM as exc:  # the oracle's depth is not the dimension
            placed, why = False, str(exc)
        report.add("cm_extremal_placement", placed, why)


def run_checks(L, level="formulas", field="Q", mutate=False):
    """Run the property suite on one lattice: build first, then judge.

    Everything that can be refused or that two checks read is built once,
    before the first verdict, so a refused instance (ClosureTooLarge) is
    judged by no check.  The oracle tables (Hibi before edge) come before
    the resolution, the duals and the strand closure, so an oracle-level
    refusal costs none of those builds.  level "formulas" runs the
    structural and resolution checks; "oracle" additionally compares
    everything against the homology oracle.  The mutate flag flips the sign of one
    differential entry of C, as a self-test that d^2 = 0 can fail.  Any
    other level is a ValueError.
    """
    if level not in ("formulas", "oracle"):
        raise ValueError(
            f"unknown level {level!r}: expected 'formulas' or 'oracle'"
        )
    G = graph_from_lattice(L)
    L_G = cover_lattice(G)
    H = hibi_ideal(L)
    I = edge_ideal(G)
    if level == "oracle":
        oracle_H = betti_oracle(H, field=field)
        quotient = betti_oracle(I, field=field).to_quotient()
    C = build_resolution(L)
    dual_H, dual_I = alexander_dual(H), alexander_dual(I)
    closure = lcm_closure(H)
    if mutate:
        mutate_differential(C)
    report = CheckReport()
    check_lemma_distinct_meets(C, report)
    check_lemma_corollary(C, report)
    check_rank_two(L, report)
    check_interval_monotonicity(L, report)
    check_interval_bijection(C, report)
    check_graph_round_trip(L, G, L_G, report)
    check_duality(H, I, dual_H, dual_I, report)
    check_formula_consistency(L, report)
    basis_table = check_resolution(C, H, closure, report, field=field)
    if level == "oracle":
        check_oracle_hibi(L, basis_table, oracle_H, report)
        check_oracle_edge_ring(L, dual_I, quotient, report)
    return report
