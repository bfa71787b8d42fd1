"""Exact rank of sparse integer matrices over Q and over prime fields.

All matrices in this package (simplicial boundary maps, strand sign
matrices, differential compositions) have small integer entries.  One
sparse elimination serves every field: it takes the shortest row as pivot
row and a unit entry as pivot where there is one.  Over Q it stays
fraction-free and divides rows by their gcd, which keeps entries small on
the near-unimodular boundary maps; over F_p every nonzero entry is a unit,
so rows are updated with the pivot's inverse and kept reduced mod p.
"""

from functools import cache
from math import gcd, isqrt

from .errors import UnsupportedField

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


def rank_exact(rows, *, field="Q"):
    """Rank of a sparse integer matrix over Q or a prime field.

    rows is a list of {col: int} dicts; field is "Q" or a prime below
    MAX_CHARACTERISTIC.
    """
    if field != "Q" and not is_supported_prime(int(field)):
        raise UnsupportedField(
            f"field characteristic {field} is not a prime below 2^31"
        )
    p = 0 if field == "Q" else int(field)
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
