"""Stability and syzygies of 2x3 matrices of linear forms.

A point of the moduli space Y is an orbit of 2x3 matrices with entries
in W = <x, y, z>.  Stability is equivalent both to linear independence
of the three maximal 2x2 minors inside Sym^2 W and to a rank condition
on the adjoint map; we implement the rank condition exactly and keep
the minor criterion as an independent oracle for tests.

A stable matrix determines a canonical pair of syzygy tensors in
Sym^2 W (x) W that lie in the kernel of the multiplication map to
Sym^3 W, hence in the irreducible summand that we identify with
traceless 3x3 matrices.  Stability lands the resulting plane inside
the commuting (abelian) planes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from ._linalg import poly_gcd, poly_trim, rank, row_space_basis

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

#: Monomial basis of Sym^3 W.
CUBIC_MONOMIALS = tuple(map(_monomial_name, _CUBIC_EXPONENTS))

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
    q = [F(0)] * 6
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

    def coefficient_matrix(self, var_index: int):
        """The 2x3 rational matrix of a single variable's coefficients."""
        return [[entry[var_index] for entry in row] for row in self.rows]

    def __str__(self) -> str:
        return ";".join(
            ",".join(render_linear_form(entry) for entry in row) for row in self.rows
        )


def matrix(rows) -> LinearFormMatrix:
    return LinearFormMatrix(tuple(tuple(row) for row in rows))


def minors(r: LinearFormMatrix) -> tuple[QuadraticForm, QuadraticForm, QuadraticForm]:
    """The maximal minors (BF - CE, AF - CD, AE - BD) as quadratic forms."""
    (a, b, c), (d, e, f) = r.rows
    m1 = tuple(p - q for p, q in zip(lf_mul(b, f), lf_mul(c, e)))
    m2 = tuple(p - q for p, q in zip(lf_mul(a, f), lf_mul(c, d)))
    m3 = tuple(p - q for p, q in zip(lf_mul(a, e), lf_mul(b, d)))
    return (m1, m2, m3)


def minors_independent(r: LinearFormMatrix) -> bool:
    """Linear independence of the three maximal minors inside Sym^2 W."""
    return rank(list(minors(r))) == 3


def _binary_quadratic_common_zero(forms) -> bool:
    """Whether binary quadratics alpha*s^2 + beta*s*t + gamma*t^2 share a
    projective zero; decided via gcd degree, no enumeration."""
    nonzero = [f for f in forms if any(c != 0 for c in f)]
    if not nonzero:
        return True
    if all(f[0] == 0 for f in nonzero):
        return True  # common zero at (1 : 0)
    g = None
    for alpha, beta, gamma in nonzero:
        p = poly_trim((gamma, beta, alpha))  # dehomogenize at t = 1
        g = p if g is None else poly_gcd(g, p)
        if len(g) == 1:
            return False
    return len(g) != 1


def is_stable(r: LinearFormMatrix) -> bool:
    """GIT stability of the representation given by the matrix.

    Surjectivity of the adjoint map plus, for every nonzero v in C^2,
    rank at least 2 of the three images of v; the second condition is
    decided by the gcd of the nine 2x2-minor binary quadratics in v.
    """
    coeff = [r.coefficient_matrix(k) for k in range(3)]
    stacked = [row for m in coeff for row in m]
    if rank(stacked) != 3:
        return False
    # M(v)[k][j] = alpha*s + beta*t with v = (s, t)
    alpha = [[coeff[k][0][j] for j in range(3)] for k in range(3)]
    beta = [[coeff[k][1][j] for j in range(3)] for k in range(3)]
    quadratics = []
    for p in range(3):
        for q in range(p + 1, 3):
            for u in range(3):
                for v in range(u + 1, 3):
                    a2 = alpha[p][u] * alpha[q][v] - alpha[p][v] * alpha[q][u]
                    c2 = beta[p][u] * beta[q][v] - beta[p][v] * beta[q][u]
                    b2 = (
                        alpha[p][u] * beta[q][v] + beta[p][u] * alpha[q][v]
                        - alpha[p][v] * beta[q][u] - beta[p][v] * alpha[q][u]
                    )
                    quadratics.append((a2, b2, c2))
    return not _binary_quadratic_common_zero(quadratics)


# -- syzygies and the traceless-matrix identification -------------------------

# Tensors in Sym^2 W (x) W are stored as 18-tuples indexed by
# (quadratic monomial, variable).

def tensor_to_cubic(t) -> tuple[Fraction, ...]:
    """Image under the multiplication map Sym^2 W (x) W -> Sym^3 W."""
    out = [F(0)] * len(CUBIC_MONOMIALS)
    for qi, row in enumerate(_CUBIC_OF_QUAD_VAR):
        for vi, k in enumerate(row):
            out[k] += t[qi * 3 + vi]
    return tuple(out)


Sl3Element = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class SyzygyPair:
    """The two canonical syzygy tensors of a matrix, their images as
    traceless 3x3 matrices, and a degeneracy flag for unstable input."""

    tensors: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]
    sl3: tuple[Sl3Element, Sl3Element]
    degenerate: bool


def syzygies(r: LinearFormMatrix) -> SyzygyPair:
    """Canonical syzygy tensors, reordered into Sym^2 W (x) W:
    s1 = A(x)(BF-CE) - B(x)(AF-CD) + C(x)(AE-BD) and the same with the
    second row, both in the kernel of multiplication to Sym^3 W."""
    (a, b, c), (d, e, f) = r.rows
    m1, m2, m3 = minors(r)

    def build(u1, u2, u3):
        t = [F(0)] * 18
        for form, sign, mi in ((u1, 1, m1), (u2, -1, m2), (u3, 1, m3)):
            for vi in range(3):
                if form[vi] == 0:
                    continue
                for qi in range(6):
                    t[qi * 3 + vi] += sign * form[vi] * mi[qi]
        return tuple(t)

    t1 = build(a, b, c)
    t2 = build(d, e, f)
    p = (to_sl3(t1), to_sl3(t2))
    return SyzygyPair(tensors=(t1, t2), sl3=p, degenerate=not is_stable(r))


def to_sl3(t) -> Sl3Element:
    """The traceless 3x3 matrix of a kernel tensor.

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
        return F(t[_QUAD_OF_VARS[i][j] * 3 + k])

    out = [[F(0)] * 3 for _ in range(3)]
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3  # (i, j, k) is cyclic
        out[i][i] = (at(i, j, k) - at(i, k, j)) / 3
        out[i][k] = at(i, i, j)
        out[i][j] = -at(i, i, k)
    return tuple(tuple(row) for row in out)


def to_sl3_plane(r: LinearFormMatrix) -> tuple[Sl3Element, Sl3Element]:
    return syzygies(r).sl3


def commutes(p) -> bool:
    """Whether two 3x3 matrices commute."""
    a, b = p

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


def quadric_span_basis(quadrics):
    """Canonical basis of the span of quadratic forms, for comparing
    minor spaces."""
    return row_space_basis(list(quadrics))


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
        if i < len(s) and s[i] in "xyz":
            coeff = F(number) if number else F(1)
            coeffs[VARS.index(s[i])] += sign * coeff
            i += 1
        else:
            if number == "" or F(number) != 0:
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
