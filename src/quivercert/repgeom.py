"""Stability and syzygies of 2x3 matrices of linear forms.

A point of the moduli space Y is an orbit of 2x3 matrices with entries
in W = <x, y, z>.  Stability is linear independence of the three maximal
2x2 minors inside Sym^2 W: they span the net of conics that embeds Y in
Gr(3, Sym^2 W), and ``is_stable`` is a rank test on them, by the
fraction-free elimination ``_linalg.echelon``.  All of this is polynomial
in the entries, so each row is cleared of denominators once and the work
runs on integers.

A stable matrix determines a canonical pair of syzygy tensors in
Sym^2 W (x) W that lie in the kernel of the multiplication map to
Sym^3 W, hence in the irreducible summand that we identify with
traceless 3x3 matrices.  Stability lands the resulting plane inside
the commuting (abelian) planes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, sub

from ._linalg import echelon

F = Fraction

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

LinearForm = tuple[Fraction, Fraction, Fraction]
QuadraticForm = tuple[Fraction, ...]  # length 6 over QUAD_MONOMIALS


def linear_form(cx=0, cy=0, cz=0) -> LinearForm:
    return (F(cx), F(cy), F(cz))


X = linear_form(1, 0, 0)
Y = linear_form(0, 1, 0)
Z = linear_form(0, 0, 1)
ZERO_FORM = linear_form()


def lf_mul(u: LinearForm, v: LinearForm) -> QuadraticForm:
    """Product of two linear forms in the quadratic monomial basis."""
    q = [0] * 6
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            q[_QUAD_OF_VARS[i][j]] += a * b
    return tuple(q)


@dataclass(frozen=True)
class LinearFormMatrix:
    """A 2x3 matrix of linear forms in x, y, z with rational coefficients."""

    rows: tuple[tuple[LinearForm, LinearForm, LinearForm], ...]

    def __post_init__(self):
        rows = tuple(
            tuple(tuple(F(c) for c in entry) for entry in row) for row in self.rows
        )
        object.__setattr__(self, "rows", rows)
        if len(rows) != 2 or any(len(row) != 3 for row in rows):
            raise ValueError("expected a 2x3 matrix")
        if any(len(entry) != 3 for row in rows for entry in row):
            raise ValueError("entries must be linear forms in x, y, z")

    def __str__(self) -> str:
        return ";".join(
            ",".join(render_linear_form(entry) for entry in row) for row in self.rows
        )


def matrix(rows) -> LinearFormMatrix:
    return LinearFormMatrix(tuple(tuple(row) for row in rows))


def _cleared(m):
    """Rationals m[i][j] times the lcm d of their denominators, as integers; and d."""
    d = lcm(*(x.denominator for row in m for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in m], d


def _minors(top, bottom):
    """The maximal minors (BF - CE, AF - CD, AE - BD) of rows (A, B, C), (D, E, F)."""
    (a, b, c), (d, e, f) = top, bottom
    return tuple(tuple(map(sub, lf_mul(p, q), lf_mul(u, v)))
                 for p, q, u, v in ((b, f, c, e), (a, f, c, d), (a, e, b, d)))


def minors(r: LinearFormMatrix) -> tuple[QuadraticForm, QuadraticForm, QuadraticForm]:
    """The maximal minors (BF - CE, AF - CD, AE - BD) as quadratic forms."""
    (top, da), (bottom, db) = map(_cleared, r.rows)
    return tuple(tuple(F(n, da * db) for n in q) for q in _minors(top, bottom))


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
    (top, _), (bottom, _) = map(_cleared, r.rows)
    return len(echelon(_minors(top, bottom))[1]) == 3


# -- syzygies and the traceless-matrix identification -------------------------

# Tensors in Sym^2 W (x) W are stored as 18-tuples indexed by
# (quadratic monomial, variable).

def tensor_to_cubic(t) -> tuple[Fraction, ...]:
    """Image under the multiplication map Sym^2 W (x) W -> Sym^3 W."""
    out = [0] * len(_CUBIC_EXPONENTS)
    for qi, row in enumerate(_CUBIC_OF_QUAD_VAR):
        for vi, k in enumerate(row):
            out[k] += t[qi * 3 + vi]
    return tuple(out)


Sl3Element = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class SyzygyPair:
    """The minors of a matrix, its two canonical syzygy tensors, their
    traceless 3x3 matrices, and a degeneracy flag for unstable input."""

    minors: tuple[QuadraticForm, QuadraticForm, QuadraticForm]
    tensors: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]
    sl3: tuple[Sl3Element, Sl3Element]
    degenerate: bool


def _syzygy(row, m):
    """u1 (x) m1 - u2 (x) m2 + u3 (x) m3 for the row (u1, u2, u3)."""
    t = [0] * 18
    for form, sign, mi in zip(row, (1, -1, 1), m):
        for vi, c in enumerate(form):
            if c:
                for qi, q in enumerate(mi):
                    t[qi * 3 + vi] += sign * c * q
    return t


def syzygies(r: LinearFormMatrix) -> SyzygyPair:
    """Canonical syzygy tensors, reordered into Sym^2 W (x) W:
    s1 = A(x)(BF-CE) - B(x)(AF-CD) + C(x)(AE-BD) and the same with the
    second row, both in the kernel of multiplication to Sym^3 W.

    On the rows cleared of denominators da and db, the integer minors are
    da * db times the true ones, and s1 and s2 are da^2 * db and da * db^2
    times the true tensors."""
    (top, da), (bottom, db) = map(_cleared, r.rows)
    m = _minors(top, bottom)
    t1, d1 = _syzygy(top, m), da * da * db
    t2, d2 = _syzygy(bottom, m), da * db * db
    return SyzygyPair(minors=tuple(tuple(F(n, da * db) for n in q) for q in m),
                      tensors=(tuple(F(n, d1) for n in t1), tuple(F(n, d2) for n in t2)),
                      sl3=(to_sl3(t1, d1), to_sl3(t2, d2)),
                      degenerate=len(echelon(m)[1]) != 3)  # not is_stable(r)


def to_sl3(t, scale=1) -> Sl3Element:
    """The traceless 3x3 matrix of the kernel tensor t / scale.

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
        out[i][i] = F(at(i, j, k) - at(i, k, j), 3 * scale)
        out[i][k] = F(at(i, i, j), scale)
        out[i][j] = F(-at(i, i, k), scale)
    return tuple(tuple(row) for row in out)


def commutes(p) -> bool:
    """Whether two 3x3 matrices commute, decided on integer multiples of
    them: (da A)(db B) - (db B)(da A) = da db (AB - BA)."""
    (a, _), (b, _) = map(_cleared, p)

    def mul(m, n):
        return [
            [sum(m[i][k] * n[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]

    return mul(a, b) == mul(b, a)


def blp2_point(a, b, c, direction=None) -> LinearFormMatrix:
    """The representation matrix of the point of Y attached to
    (a : b : c), via the family (x, y, z | a y, b z, c x).

    At the three coordinate points the family is undefined and the
    blown-up formulas apply, parametrized by a nonzero ``direction``
    pair, e.g. (1, 0, 0) with direction (b', c') gives
    (0, y, z | y, b' z, c' x).
    """
    a, b, c = F(a), F(b), F(c)
    nonzero = [v != 0 for v in (a, b, c)]
    if not any(nonzero):
        raise ValueError("(a, b, c) must be nonzero")
    if sum(nonzero) >= 2:
        return matrix([
            (X, Y, Z),
            (linear_form(0, a, 0), linear_form(0, 0, b), linear_form(c, 0, 0)),
        ])
    if direction is None:
        raise ValueError("coordinate points need a blow-up direction")
    u, v = F(direction[0]), F(direction[1])
    if u == 0 and v == 0:
        raise ValueError("direction must be nonzero")
    if a != 0:
        return matrix([
            (ZERO_FORM, Y, Z),
            (Y, linear_form(0, 0, u), linear_form(v, 0, 0)),
        ])
    if b != 0:
        return matrix([
            (X, ZERO_FORM, Z),
            (linear_form(0, u, 0), Z, linear_form(v, 0, 0)),
        ])
    return matrix([
        (X, Y, ZERO_FORM),
        (linear_form(0, u, 0), linear_form(0, 0, v), X),
    ])


# -- parsing and rendering -----------------------------------------------------

def _render_form(coeffs, monomials, times: str) -> str:
    """A linear combination of monomials, e.g. ``x - 2y`` or ``xy + 2*z^2``."""
    parts = []
    for coeff, name in zip(coeffs, monomials):
        if coeff == 0:
            continue
        if coeff == 1:
            term = name
        elif coeff == -1:
            term = f"-{name}"
        else:
            term = f"{coeff}{times}{name}"
        parts.append(term)
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def render_linear_form(form: LinearForm) -> str:
    return _render_form(form, VARS, "")


def render_quadratic_form(q: QuadraticForm) -> str:
    return _render_form(q, QUAD_MONOMIALS, "*")


def parse_linear_form(text: str) -> LinearForm:
    """Parse forms like ``x``, ``-y``, ``2x+3z``, ``1/2x - y``, ``0``."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty entry")
    coeffs = [F(0), F(0), F(0)]
    i = 0
    while i < len(s):
        sign = 1
        while i < len(s) and s[i] in "+-":
            if s[i] == "-":
                sign = -sign
            i += 1
        start = i
        while i < len(s) and (s[i].isdigit() or s[i] == "/"):
            i += 1
        number = s[start:i]
        if i < len(s) and s[i] == "*":
            i += 1
        try:
            coeff = F(number) if number else None
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in linear form {text!r}") from None
        if i < len(s) and s[i] in "xyz":
            coeffs[VARS.index(s[i])] += sign * (F(1) if coeff is None else coeff)
            i += 1
        elif coeff is None or coeff != 0:
            raise ValueError(f"cannot parse linear form {text!r}")
    return tuple(coeffs)


def parse_matrix(text: str) -> LinearFormMatrix:
    """Parse ``"x,y,0;0,y,z"``: semicolon-separated rows, comma-separated
    entries, entries linear forms in x, y, z."""
    rows = text.split(";")
    if len(rows) != 2:
        raise ValueError("expected two rows separated by ';'")
    parsed = []
    for row in rows:
        entries = row.split(",")
        if len(entries) != 3:
            raise ValueError("expected three entries per row")
        parsed.append(tuple(parse_linear_form(e) for e in entries))
    return matrix(parsed)
