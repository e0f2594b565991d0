"""Integer helpers shared by the modules: the check of integer entries, a
fraction-free row echelon form, the rendering of a ratio of integers, and
the bound of the caches keyed by a moduli setup."""

from __future__ import annotations

from math import gcd
from operator import index

#: Entries kept by each cache keyed by a moduli setup or a part of one: the
#: lattices of d of ``quiver``, the leaf maps of ``bundles`` and the stratum
#: records and strata of ``strata``.  A caller that scans many d or theta
#: then holds at most this many of each, the most recently used.
MAX_CACHED_SETUPS = 256


def _int_entries(values, what: str) -> tuple[int, ...]:
    """The entries of values as ints, refusing any that is not an integer
    (int() would truncate 1.5 to 1)."""
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        raise ValueError(f"{what} has a non-integer entry") from None


def render_ratio(n: int, d: int):
    """The rational n / d, d > 0, as the JSON output shows it: an int when
    d divides n, else the string "p/q" in lowest terms."""
    g = gcd(n, d)
    return n // d if g == d else f"{n // g}/{d // g}"


def echelon(rows):
    """(rows, pivot_columns): a row echelon form of an integer matrix, by
    fraction-free elimination (Bareiss, Math. Comp. 22, 1968).  The rows
    span the row space of the input, which is not modified, and those past
    the rank are zero.  After k steps each entry below the k pivot rows is
    a (k+1)-minor of the input (Sylvester's identity), so the division by
    the previous pivot is exact and every entry stays an integer."""
    m = [list(row) for row in rows]
    pivots, previous = [], 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        p, top = m[r][c], m[r]
        for i in range(r + 1, len(m)):
            q = m[i][c]
            m[i] = [(p * x - q * y) // previous for x, y in zip(m[i], top)]
        previous = p
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return m, pivots
