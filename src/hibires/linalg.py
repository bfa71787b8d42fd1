"""Exact homology ranks of chain complexes over Q and over prime fields.

Every chain complex in this package (the upper Koszul complexes K^b of the
oracle and the degree-b strands of the resolution) goes through
homology_ranks, which builds each boundary matrix once and ranks it with
rank_exact.  The matrices have small integer entries.  One sparse
elimination serves every field: it takes the shortest row as pivot row
and a unit entry as pivot where there is one.  Over Q it stays
fraction-free and divides rows by their gcd, which keeps entries small on
the near-unimodular boundary maps; over F_p every nonzero entry is a unit,
so rows are updated with the pivot's inverse and kept reduced mod p.
check_field is the one test of a field argument: "Q" or an int prime
below MAX_CHARACTERISTIC.
"""

from functools import cache
from math import gcd, isqrt

from .errors import ConsistencyError, UnsupportedField

# bounds the trial division in is_supported_prime; the CLI documents the
# same limit when it refuses a field
MAX_CHARACTERISTIC = 2**31


@cache
def is_supported_prime(p):
    """p is a prime below MAX_CHARACTERISTIC."""
    return 2 <= p < MAX_CHARACTERISTIC and all(
        p % d for d in range(2, isqrt(p) + 1)
    )


def _pivot_key(entry):
    v = abs(entry[1])
    return v != 1, v


def check_field(field):
    """0 for the field "Q", p for an int p that is a prime below
    MAX_CHARACTERISTIC; UnsupportedField for anything else: a float, a
    string other than "Q", a composite (a bool is 0 or 1, never prime)."""
    if field == "Q":
        return 0
    if isinstance(field, int) and is_supported_prime(field):
        return field
    raise UnsupportedField(
        f"field {field!r} is neither 'Q' nor a prime below 2^31"
    )


def homology_ranks(cells, boundary, *, field="Q"):
    """{d: h} for the nonzero h = |cells_d| - r_d - r_{d+1}, the homology
    ranks of a chain complex over Q or a prime field.

    cells maps each degree d to a list of hashable cells; boundary(d, cell)
    yields (face, coefficient, ...) with each face a cell of degree d - 1,
    else ConsistencyError.  r_d is the rank of the boundary out of degree
    d, taken by rank_exact when that matrix is nonzero; it is 0 when d - 1
    is not a key: the lowest degree has no boundary.
    """
    check_field(field)
    ranks = {}
    for d, top in cells.items():
        lower = cells.get(d - 1)
        if not top or lower is None:
            continue
        index = {cell: k for k, cell in enumerate(lower)}
        rows = []
        for cell in top:
            row = {}
            for entry in boundary(d, cell):
                k = index.get(entry[0])
                if k is None:
                    raise ConsistencyError(
                        f"boundary face {entry[0]!r} is no cell of degree {d - 1}"
                    )
                row[k] = row.get(k, 0) + entry[1]
            rows.append(row)
        if any(rows):
            ranks[d] = rank_exact(rows, field=field)
    h = {d: len(cells[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0) for d in cells}
    return {d: h[d] for d in sorted(h) if h[d]}


def rank_exact(rows, *, field="Q"):
    """Rank of a sparse integer matrix over Q or a prime field.

    rows is a list of {col: int} dicts; field is "Q" or a prime below
    MAX_CHARACTERISTIC.
    """
    p = check_field(field)
    if p:
        rows = [{c: v % p for c, v in r.items()} for r in rows]
    work = [r2 for r in rows if (r2 := {c: v for c, v in r.items() if v})]
    rank = 0
    while work:
        work.sort(key=len)
        piv = work.pop(0)
        col, pval = min(piv.items(), key=_pivot_key)
        del piv[col]
        rank += 1
        # each row r becomes scale * r - r[col] * inv * piv; inv is the
        # pivot's inverse except for a non-unit pivot over Q, which takes
        # the fraction-free step (scale = pval) and then strips the row gcd
        if p:
            inv, scale = pow(pval, -1, p), 1
        elif pval == 1 or pval == -1:
            inv, scale = pval, 1  # pval**-1 == pval for units
        else:
            inv, scale = 1, pval
        remaining = []
        for r in work:
            rv = r.pop(col, 0)
            if rv:
                if scale != 1:
                    r = {c: scale * v for c, v in r.items()}
                s = rv * inv
                for c, v in piv.items():
                    nv = r.get(c, 0) - s * v
                    if p:
                        nv %= p
                    if nv:
                        r[c] = nv
                    else:
                        r.pop(c, None)
                if scale != 1:
                    g = 0
                    for v in r.values():
                        g = gcd(g, v)
                        if g == 1:
                            break
                    if g > 1:
                        r = {c: v // g for c, v in r.items()}
            if r:
                remaining.append(r)
        work = remaining
    return rank
