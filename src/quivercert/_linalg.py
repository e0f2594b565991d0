"""Small exact linear algebra over the rationals, and dense polynomials in
one variable with integer or rational coefficients."""

from __future__ import annotations

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form of a matrix of Fractions.

    Returns (echelon, pivot_columns).  The input is not modified.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows) -> int:
    if not rows:
        return 0
    return len(rref(rows)[1])


def row_space_basis(rows):
    """Canonical basis of the row space, usable for comparing spans."""
    m, pivots = rref(rows)
    return tuple(tuple(m[i]) for i in range(len(pivots)))


# -- dense polynomials in one variable, coefficients ascending ---------------

def poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def poly_add(p, q):
    n = max(len(p), len(q))
    return poly_trim([
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    ])


def poly_neg(p):
    return tuple(-a for a in p)


def poly_sub(p, q):
    return poly_add(p, poly_neg(q))


def poly_mul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_divmod(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    p = list(p)
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    lead = q[-1]
    while len(p) >= len(q) and poly_trim(p):
        shift = len(p) - len(q)
        f = p[-1] / lead
        quot[shift] = f
        for i, b in enumerate(q):
            p[shift + i] -= f * b
        p = list(poly_trim(p))
    return poly_trim(quot), poly_trim(p)


def poly_gcd(p, q):
    p, q = poly_trim(p), poly_trim(q)
    while q:
        p, q = q, poly_divmod(p, q)[1]
    if p:
        lead = p[-1]
        p = tuple(a / lead for a in p)
    return p

