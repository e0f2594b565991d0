"""Stability and syzygies of 2x3 matrices of linear forms.

A point of the moduli space Y is an orbit of 2x3 matrices with entries
in W = <x, y, z>.  Stability is linear independence of the three maximal
2x2 minors inside Sym^2 W: they span the net of conics that embeds Y in
Gr(3, Sym^2 W), and ``is_stable`` is a rank test on them, by the
fraction-free elimination ``_linalg.echelon``.

A stable matrix determines a canonical pair of syzygy tensors in
Sym^2 W (x) W that lie in the kernel of the multiplication map to
Sym^3 W, hence in the irreducible summand that we identify with
traceless 3x3 matrices.  Stability lands the resulting plane inside
the commuting (abelian) planes.

All of this is polynomial in the entries, so no fraction is ever built:
the parser clears each row of its denominators as it reads it, a matrix
is two integer rows over one denominator each, and the minors, tensors
and traceless matrices are integer multiples of the true ones, kept with
the denominator that divides them out.  Rendering divides each entry by
its gcd with that denominator, and only when output is produced.
"""

from __future__ import annotations

import re
from collections import namedtuple
from math import gcd, lcm
from operator import add, mul, sub

from ._linalg import echelon, render_ratio

VARS = ("x", "y", "z")

# Exponent vectors over (x, y, z) of the monomial bases of W, Sym^2 W and
# Sym^3 W; a product of monomials adds exponents.
_LINEAR_EXPONENTS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_QUAD_EXPONENTS = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))
_CUBIC_EXPONENTS = (
    (3, 0, 0), (0, 3, 0), (0, 0, 3),
    (2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 2, 1), (1, 0, 2), (0, 1, 2),
    (1, 1, 1),
)


def _monomial_name(exponents) -> str:
    return "".join(v if e == 1 else f"{v}^{e}" for v, e in zip(VARS, exponents) if e)


def _product_indices(left, right, basis):
    """``[i][j]``: the index in ``basis`` of left[i] * right[j]."""
    index = {m: k for k, m in enumerate(basis)}
    return tuple(tuple(index[tuple(map(add, m, n))] for n in right) for m in left)


#: Monomial basis of Sym^2 W.
QUAD_MONOMIALS = tuple(map(_monomial_name, _QUAD_EXPONENTS))

_QUAD_OF_VARS = _product_indices(_LINEAR_EXPONENTS, _LINEAR_EXPONENTS, _QUAD_EXPONENTS)
_CUBIC_OF_QUAD_VAR = _product_indices(_QUAD_EXPONENTS, _LINEAR_EXPONENTS, _CUBIC_EXPONENTS)

LinearForm = tuple[int, int, int]
QuadraticForm = tuple[int, ...]  # length 6 over QUAD_MONOMIALS


def lf_mul(u: LinearForm, v: LinearForm) -> QuadraticForm:
    """Product of two linear forms in the quadratic monomial basis
    x^2, y^2, z^2, xy, xz, yz."""
    (a, b, c), (d, e, f) = u, v
    return a * d, b * e, c * f, a * e + b * d, a * f + c * d, b * f + c * e


class LinearFormMatrix(namedtuple("LinearFormMatrix", "rows dens")):
    """A 2x3 matrix of linear forms in x, y, z with rational coefficients:
    row i is ``rows[i]``, three integer coefficient triples, divided by
    ``dens[i] > 0``, in lowest terms (coprime to the row's integers)."""

    __slots__ = ()

    def __str__(self) -> str:
        return ";".join(",".join(render_linear_form(entry, den) for entry in row)
                        for row, den in zip(self.rows, self.dens))


def minors(r: LinearFormMatrix) -> tuple[tuple[QuadraticForm, ...], int]:
    """The maximal minors (BF - CE, AF - CD, AE - BD) of the integer rows
    (A, B, C), (D, E, F), and their denominator: the product of the row
    denominators."""
    (a, b, c), (d, e, f) = r.rows
    return (tuple(tuple(map(sub, lf_mul(p, q), lf_mul(u, v)))
                  for p, q, u, v in ((b, f, c, e), (a, f, c, d), (a, e, b, d))),
            r.dens[0] * r.dens[1])


def is_stable(r: LinearFormMatrix) -> bool:
    """GIT stability of the representation given by the matrix: its three
    maximal minors m1, m2, m3 are linearly independent in Sym^2 W.  Row and
    column operations act on the minors by invertible linear maps, so both
    conditions are invariant under them.  Scaling a row by d multiplies
    every minor by d and leaves the rank unchanged, so the rank is taken
    on the integer minors of the rows cleared of denominators.

    Unstable implies dependent: a (1,0) or (1,1) subrepresentation gives a
    row (l, 0, 0), so m1 = 0; a (2,1) or (2,2) one gives a zero column, so
    two minors vanish.

    Dependent implies unstable: a relation c1 m1 + c2 m2 + c3 m3 = 0 is the
    identically vanishing determinant of the 3x3 matrix with constant top
    row (c1, -c2, c3) above r.  A column operation moves that row to
    (1, 0, 0) and leaves a 2x2 matrix of linear forms with zero determinant,
    so its span consists of matrices of rank at most 1.  Those share a
    kernel, which gives a zero column, or an image, which gives a row
    (l, 0, 0).
    """
    return len(echelon(minors(r)[0])[1]) == 3


# -- syzygies and the traceless-matrix identification -------------------------

# Tensors in Sym^2 W (x) W are stored as 18-tuples indexed by
# (quadratic monomial, variable): entry 3 * qi + vi is at (QUAD_MONOMIALS[qi],
# VARS[vi]).

#: ``(qi, vi)`` of each entry of a tensor, in order.
_TENSOR_ENTRIES = tuple((qi, vi) for qi in range(len(_QUAD_EXPONENTS)) for vi in range(3))

#: ``[k]``: the one to three entries of a tensor whose products are the k-th
#: cubic monomial, padded to three with 18, the index of a 0 appended to it.
_CUBIC_GROUPS = tuple(tuple([3 * qi + vi for qi, vi in _TENSOR_ENTRIES
                             if _CUBIC_OF_QUAD_VAR[qi][vi] == k] + [18, 18])[:3]
                      for k in range(len(_CUBIC_EXPONENTS)))


def tensor_to_cubic(t) -> tuple[int, ...]:
    """Image under the multiplication map Sym^2 W (x) W -> Sym^3 W."""
    t = (*t, 0)
    return tuple(t[a] + t[b] + t[c] for a, b, c in _CUBIC_GROUPS)


Sl3Element = tuple[tuple[int, ...], ...]


def _syzygy(row, m):
    """u1 (x) m1 - u2 (x) m2 + u3 (x) m3 for the row (u1, u2, u3)."""
    (u1, u2, u3), (m1, m2, m3) = row, m
    return tuple(m1[qi] * u1[vi] - m2[qi] * u2[vi] + m3[qi] * u3[vi]
                 for qi, vi in _TENSOR_ENTRIES)


def syzygies(r: LinearFormMatrix) -> tuple[tuple[Sl3Element, int], tuple[Sl3Element, int]]:
    """The traceless 3x3 matrices of the canonical syzygy tensors, each as
    ``(integers, den)``, the true matrix times ``den > 0``.  The tensors,
    reordered into Sym^2 W (x) W, are s1 = A(x)(BF-CE) - B(x)(AF-CD) +
    C(x)(AE-BD) and the same with the second row; ``to_sl3`` refuses them
    unless both lie in the kernel of multiplication to Sym^3 W.

    On the integer rows, over denominators da and db, the minors are
    da * db times the true ones, and s1 and s2 are da^2 * db and
    da * db^2 times the true tensors."""
    m, den = minors(r)
    return tuple(to_sl3(_syzygy(row, m), den * d) for row, d in zip(r.rows, r.dens))


def to_sl3(t, scale=1) -> tuple[Sl3Element, int]:
    """The traceless 3x3 matrix of the kernel tensor t / scale, as an
    integer matrix over the denominator 3 * scale.

    With t[m (x) v] the entry of t at quadratic monomial m and variable
    v, and eps(i,k,j) the sign of the permutation (i,k,j), the
    identification of the kernel of Sym^2 W (x) W -> Sym^3 W with sl3 is:

    - E_ij (i != j, k the third index) is eps(i,k,j) * (x_i^2 (x) x_k -
      x_i x_k (x) x_i), so A_ij = eps(i,k,j) * t[x_i^2 (x) x_k];
    - diag(a,b,c) is (b-c)*yz (x) x + (c-a)*xz (x) y + (a-b)*xy (x) z, so
      a = (t[xy (x) z] - t[xz (x) y])/3, and b and c follow cyclically.

    These eight tensors are a basis of the kernel (18 - 10 = 8), so a
    tensor lies in their span exactly when it multiplies to zero.
    """
    if any(tensor_to_cubic(t)):
        raise ValueError("tensor outside the span of the dictionary")

    def at(i, j, k):  # t[x_i x_j (x) x_k]
        return t[_QUAD_OF_VARS[i][j] * 3 + k]

    out = [[None] * 3 for _ in range(3)]
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3  # (i, j, k) is cyclic
        out[i][i] = at(i, j, k) - at(i, k, j)
        out[i][k] = 3 * at(i, i, j)
        out[i][j] = -3 * at(i, i, k)
    return tuple(map(tuple, out)), 3 * scale


def commutes(p) -> bool:
    """Whether two 3x3 matrices a / da and b / db commute, given as the
    pairs (a, da) and (b, db): ab - ba = da db (AB - BA), so it is decided
    on the integer matrices."""
    (a, _), (b, _) = p

    def product(m, n):
        columns = tuple(zip(*n))
        return [[sum(map(mul, row, column)) for column in columns] for row in m]

    return product(a, b) == product(b, a)


# -- parsing and rendering -----------------------------------------------------

def _render_form(nums, den, monomials, times: str) -> str:
    """The linear combination of monomials with coefficients nums / den,
    e.g. ``x - 2y`` or ``xy + 2*z^2``."""
    parts = []
    for n, name in zip(nums, monomials):
        if not n:
            continue
        if n == den:
            term = name
        elif n == -den:
            term = f"-{name}"
        else:
            term = f"{render_ratio(n, den)}{times}{name}"
        parts.append(term)
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def render_linear_form(form: LinearForm, den: int = 1) -> str:
    return _render_form(form, den, VARS, "")


def render_quadratic_form(q: QuadraticForm, den: int = 1) -> str:
    return _render_form(q, den, QUAD_MONOMIALS, "*")


def _ratio(number: str, text: str) -> tuple[int, int]:
    """``(p, q)`` for a numeral ``p`` or ``p/q`` of decimal digits, refused
    with the messages of ``Fraction(number)``, at the same points."""
    p, slash, q = number.partition("/")
    if not p.isdecimal() or slash and not q.isdecimal():
        raise ValueError(f"Invalid literal for Fraction: {number!r}")
    p, q = int(p), int(q) if slash else 1
    if q == 0:
        raise ValueError(f"zero denominator in linear form {text!r}")
    return p, q


#: One term of a matrix entry: signs, with spaces around them, a
#: coefficient of decimal digits and "/" with an optional "*" after it, and
#: a variable.
_TERM = re.compile(r"((?: *[+-] *)*)(?:([\d/]+)\*?)?([xyz]?)")


def _terms(text: str) -> list[tuple[int, int, int]]:
    """The terms of an entry like ``x``, ``-y``, ``2x+3z``, ``1/2x - y`` or
    ``0``: ``(v, p, q)`` for p/q times the variable ``VARS[v]``.  Every term
    after the first starts with a sign, spaces stand only at the ends of the
    entry and next to a sign, and "*" only after a coefficient."""
    s = text.strip(" ")
    if not s:
        raise ValueError("empty entry")
    terms = []
    i = 0
    while i < len(s):
        match = _TERM.match(s, i)
        signs, number, var = match.groups()
        if i and not signs:  # a term with no sign before it
            raise ValueError(f"cannot parse linear form {text!r}")
        p, q = _ratio(number, text) if number else (1, 1)
        if var:
            terms.append((VARS.index(var), -p if signs.count("-") % 2 else p, q))
        elif not number or p:  # only a zero constant may stand alone
            raise ValueError(f"cannot parse linear form {text!r}")
        i = match.end()
    return terms


def _parse_row(text: str) -> tuple[tuple[LinearForm, ...], int]:
    """Three comma-separated entries as integer forms over the lcm of their
    denominators, in lowest terms."""
    entries = text.split(",")
    if len(entries) != 3:
        raise ValueError("expected three entries per row")
    terms = [_terms(entry) for entry in entries]
    den = lcm(*[q for entry in terms for _, _, q in entry])
    forms = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    for form, entry in zip(forms, terms):
        for v, p, q in entry:
            form[v] += p * (den // q)
    g = gcd(den, *forms[0], *forms[1], *forms[2])
    return tuple([tuple([n // g for n in form]) for form in forms]), den // g


def parse_matrix(text: str) -> LinearFormMatrix:
    """Parse ``"x,y,0;0,y,z"``: semicolon-separated rows, comma-separated
    entries, entries linear forms in x, y, z with rational coefficients."""
    rows = text.split(";")
    if len(rows) != 2:
        raise ValueError("expected two rows separated by ';'")
    (top, da), (bottom, db) = map(_parse_row, rows)
    return LinearFormMatrix((top, bottom), (da, db))
