"""Exact rank computation for integer matrices.

All matrices in this package (simplicial boundary maps, strand sign
matrices, differential compositions) have small integer entries, so rank
over the rationals reduces to integer elimination.  The workhorse is a
sparse fraction-free elimination that prefers unit pivots and strips row
gcds to keep entries small; a dense Bareiss elimination serves as an
independent cross-check on small matrices.  Prime fields go through
numpy.
"""

from functools import cache
from math import gcd, isqrt

import numpy as np

from .errors import UnsupportedField

# rank_mod_p forms products of two residues in int64; below 2^31 they stay exact
MAX_CHARACTERISTIC = 2**31


@cache
def is_supported_prime(p):
    """p is a prime below MAX_CHARACTERISTIC."""
    return 2 <= p < MAX_CHARACTERISTIC and all(
        p % d for d in range(2, isqrt(p) + 1)
    )


def rank_bareiss(rows):
    """Rank of a dense integer matrix via Bareiss fraction-free elimination."""
    a = [list(map(int, r)) for r in rows]
    if not a or not a[0]:
        return 0
    m, n = len(a), len(a[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, m) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        pivot = a[row][col]
        arow = a[row]
        for r in range(row + 1, m):
            ar = a[r]
            factor = ar[col]
            for c in range(col, n):
                ar[c] = (pivot * ar[c] - factor * arow[c]) // prev
        prev = pivot
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def rank_sparse_int(rows):
    """Rank over Q of a sparse integer matrix, by fraction-free elimination.

    rows is a list of {col: value} dicts.  Pivot rows are chosen short,
    pivot entries unit where possible, and rows are divided by their gcd
    after each update, which keeps intermediate entries small on the
    near-unimodular matrices arising from boundary maps.
    """
    work = [r2 for r in rows if (r2 := {c: v for c, v in r.items() if v})]
    rank = 0
    while work:
        work.sort(key=len)
        piv = work.pop(0)
        col, pval = min(piv.items(), key=lambda cv: (abs(cv[1]) != 1, abs(cv[1])))
        rank += 1
        remaining = []
        for r in work:
            rv = r.pop(col, 0)
            if rv:
                if pval == 1 or pval == -1:
                    s = rv * pval  # pval**-1 == pval for units
                    for c, v in piv.items():
                        if c == col:
                            continue
                        nv = r.get(c, 0) - s * v
                        if nv:
                            r[c] = nv
                        else:
                            r.pop(c, None)
                else:
                    r = {c: pval * v for c, v in r.items()}
                    for c, v in piv.items():
                        if c == col:
                            continue
                        nv = r.get(c, 0) - rv * v
                        if nv:
                            r[c] = nv
                        else:
                            r.pop(c, None)
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


def rank_mod_p(rows, ncols, p):
    """Rank over the prime field F_p, via numpy integer elimination."""
    if not rows or ncols == 0:
        return 0
    a = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, r in enumerate(rows):
        for c, v in r.items():
            a[i, c] = v % p
    m, n = a.shape
    rank = 0
    row = 0
    for col in range(n):
        piv = None
        for r in range(row, m):
            if a[r, col]:
                piv = r
                break
        if piv is None:
            continue
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        inv = pow(int(a[row, col]), p - 2, p)
        a[row] = a[row] * inv % p
        nz = np.nonzero(a[row + 1 :, col])[0] + row + 1
        if nz.size:
            a[nz] = (a[nz] - np.outer(a[nz, col], a[row])) % p
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def rank_exact(sparse_rows, ncols, field="Q"):
    """Rank of a sparse integer matrix over Q or a prime field.

    sparse_rows is a list of {col: int} dicts; field is "Q" or a prime.
    """
    if field != "Q" and not is_supported_prime(int(field)):
        raise UnsupportedField(
            f"field characteristic {field} is not a prime below 2^31"
        )
    if not sparse_rows or ncols == 0:
        return 0
    if field == "Q":
        return rank_sparse_int(sparse_rows)
    return rank_mod_p(sparse_rows, ncols, int(field))
