"""Closed-form homological invariants of the edge ring from the lattice.

Everything here is a direct lattice computation: depth, regularity and
projective dimension of R/I(G), the extremal Betti data transferred from
the lattice ideal by Alexander duality, and the lower bound on the last
total Betti number.
"""

from math import comb

from .betti import position_key
from .bitset import full_mask, indices_of
from .errors import ConsistencyError, NotCM
from .ideals import alexander_dual, monomial, render_monomial
from .lattice import b_set, f_value


def _max_f(L):
    return max(f_value(L, p) for p in L.a_set)


def depth_edge_ring(L):
    """depth(R/I(G)) = n - max f(p) over the maximal-interval elements."""
    return L.n - _max_f(L)


def regularity_edge_ring(L):
    """reg(R/I(G)) = max |N(p)| over the lattice."""
    return max(len(L.neighbors(p)) for p in L.elements)


def pd_and_reg_H(L):
    """(pd(R/I(G)) = reg(H_L), pd(H_L) = top resolution level)."""
    return L.n + _max_f(L), regularity_edge_ring(L)


def extremal_multigraded_H(L):
    """Extremal positions of the lattice ideal: (|N(p)|, multideg(b(p;N(p)))).

    One position per element of A_G, each with Betti value 1; b(p; N(p))
    sits at X_p * Y over the complement of meet N(p).
    """
    top = full_mask(L.n)
    out = [
        (len(L.lower[p]), monomial(p, top & ~L.bottom[p], L.n))
        for p in L.a_set
    ]
    return sorted(out, key=position_key)


def extremal_multigraded_edge_ring(L):
    """Extremal positions transferred to R/I(G) by duality.

    For p in A_G with b = multideg(b(p; N(p))), the quotient ring has
    Betti value 1 at homological degree |b| - |N(p)| and multidegree b.
    """
    out = []
    for i, b in extremal_multigraded_H(L):
        out.append((b.bit_count() - i, b, 1))
    return sorted(out, key=position_key)


def extremal_graded_edge_ring(L):
    """Graded extremal positions (i, i+j) of R/I(G), with witness counts.

    A witness is p in A_G with i = n + f(p), j = |N(p)| such that every
    q in A_G with more lower neighbors has a strictly smaller f-value, and
    every q with equally many satisfies |q| - |meet(N(q))| <= the same
    quantity for p.
    """
    A = sorted(L.a_set)
    stats = {
        p: (
            len(L.lower[p]),
            f_value(L, p),
            p.bit_count() - L.bottom[p].bit_count(),
        )
        for p in A
    }
    out = {}
    for p in A:
        j, fp, span_p = stats[p]
        ok = all(
            fq < fp for q, (jq, fq, _) in stats.items() if jq > j
        ) and all(
            span_q <= span_p
            for q, (jq, _, span_q) in stats.items()
            if jq == j and q != p
        )
        if ok:
            i = L.n + fp
            key = (i, i + j)
            out[key] = out.get(key, 0) + 1
    return out


def last_betti_lower_bound(L):
    """|B_G|, a lower bound for the last total Betti number of R/I(G)."""
    return len(b_set(L))


def is_cohen_macaulay(L):
    """depth = dim = n, equivalently max f over A_G is zero."""
    return _max_f(L) == 0


def cm_extremal_placement_check(I, oracle_table):
    """Every extremal position of a CM quotient sits at pd(R/I).

    oracle_table must be the full multigraded table of R/I.  Raises NotCM
    when depth differs from dim (computed as ambient minus the smallest
    generator degree of the Alexander dual, the codimension).
    """
    if oracle_table.subject != "quotient":
        raise ConsistencyError(
            f"the placement check needs a quotient table, got {oracle_table.subject}"
        )
    ambient = 2 * I.n
    codim = min(g.bit_count() for g in alexander_dual(I).gens)
    depth = oracle_table.depth(ambient)
    if depth != ambient - codim:
        raise NotCM(f"depth {depth} != dim {ambient - codim}")
    pd = oracle_table.pd()
    return all(i == pd for i, _, _ in oracle_table.extremal_multigraded())


def invariant_report(L):
    """Every lattice-side invariant of L, as the JSON object `analyze`
    prints; resolution_level_ranks are the sums over p of C(|N(p)|, i)."""
    pd_RI, pd_H = pd_and_reg_H(L)
    widths = [len(nb) for nb in L.lower.values()]
    return {
        "n": L.n,
        "depth": depth_edge_ring(L),
        "reg": regularity_edge_ring(L),
        "pd": pd_RI,
        "reg_H": pd_RI,
        "pd_H": pd_H,
        "a_set": [indices_of(p) for p in sorted(L.a_set)],
        "b_set": [indices_of(p) for p in sorted(b_set(L))],
        "extremal_H": [
            {"i": i, "deg": render_monomial(b, L.n)}
            for i, b in extremal_multigraded_H(L)
        ],
        "extremal_multigraded": [
            {"i": i, "deg": render_monomial(b, L.n), "value": v}
            for i, b, v in extremal_multigraded_edge_ring(L)
        ],
        "extremal_graded": [
            {"i": i, "j": j, "value": v}
            for (i, j), v in sorted(extremal_graded_edge_ring(L).items())
        ],
        "last_betti_lower_bound": last_betti_lower_bound(L),
        "cohen_macaulay": is_cohen_macaulay(L),
        "lattice_size": len(L),
        "resolution_level_ranks": [
            sum(comb(k, i) for k in widths) for i in range(max(widths) + 1)
        ],
    }
