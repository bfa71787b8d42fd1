"""Subsets of [n] as machine integers.

A subset mask stores index i (1-based in all user-facing formats) at bit
i-1.  All lattice and monomial code works on these plain ints; the ground
set size n travels with the containing object.
"""

MAX_GROUND = 32


def mask_of(indices, n):
    """Build a mask from 1-based indices."""
    m = 0
    for i in indices:
        if not 1 <= i <= n:
            raise ValueError(f"index {i} out of range 1..{n}")
        m |= 1 << (i - 1)
    return m


def indices_of(mask):
    """1-based indices of the set bits, ascending."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def positions_of(mask):
    """0-based positions of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def down_sets(closures, limit):
    """The set of every union of the given sets, the empty union included,
    or exactly limit + 1 of them once there are more than limit.

    One levelwise pass: after the step for c, seen holds every union of
    the sets met so far, so it ends with every union.  A step that cannot
    pass limit (it at most doubles seen) is one bulk update; a step
    that could adds one union at a time and stops at limit + 1, so seen
    never grows past that.  With closures[j] = D(j) of a distributive
    family the unions are the down-sets of its preorder (adding a lone
    index would not do).
    """
    seen = {0}
    for c in set(closures):
        if 2 * len(seen) <= limit:
            seen.update([p | c for p in seen])
            continue
        for p in list(seen):
            if len(seen) > limit:
                return seen
            seen.add(p | c)
    return seen


def full_mask(n):
    return (1 << n) - 1


def is_subset(a, b):
    return a & b == a


def order_key(mask):
    """Sort key for the fixed total order: cardinality, then bit pattern.

    Any linear extension of containment works for the resolution; this one
    is deterministic and cheap.
    """
    return (mask.bit_count(), mask)


def render_set(mask):
    """Human-readable set, e.g. '{1,3}' or 'empty'."""
    idx = indices_of(mask)
    return "{" + ",".join(map(str, idx)) + "}" if idx else "empty"
