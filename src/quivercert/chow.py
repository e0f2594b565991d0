"""Exact model of the Chow ring of the moduli space Y and
Hirzebruch-Riemann-Roch Euler characteristics.

Y is the moduli space of stable 3-Kronecker representations of
dimension vector (2,3), a smooth Fano sixfold.  Its rational Chow ring
is free of total rank 13 with generators c_i = c_i(U2*) and
d_i = c_i(U1*), subject to c_1 = d_1 and one relation table per degree;
the point class is c3^2.

The 14 intersection numbers (degree-6 integrals of monomials) fix the
product table, since the pairing of complementary degrees is perfect: it
is solved at import into one flat table, a row of ``(j, k, 3c)`` triples
per basis class.  A power x^n, x = a + y with a the degree-0 coordinate
and y nilpotent, is the binomial series in a and y truncated at y^6: at
most five products for any n.  The powers of each class c_i and d_i up to
6 are stored at import; ch(det E) = exp(c_1(E)) and ch(O(n)) = exp(n c_1)
are combinations of the powers of c_1.  The polynomials of the command
line read a class's power from that table and multiply by an integer
coefficient as a scaling, so only products of two ring elements cost a
ring product.
Chern characters of bundle expressions are evaluated compositionally
from the Chern classes of the universal bundles via Newton's identities;
td(Y) comes from the K-class 3 Hom(U1, U2) - End U1 - End U2 + O of the
tangent bundle.  chi(E, F), the integral of dual(ch(E)) * ch(F) * td(Y), is
one integer bilinear form, with one cached row per expression.  Coordinates
are exact rationals, stored as integers over one common denominator; three
times every structure constant is an integer, so all ring arithmetic and
the form run on integers.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from operator import mul

from ._linalg import echelon, render_ratio
from .bundles import MAX_CACHED_EXPRS, MAX_DEPTH, U1, U2, BundleExpr, O, dual, evaluate, tensor

# Exponent vectors (a, b, e, f) for c1^a c2^b d2^e c3^f.
_BASIS_MONOMIALS = (
    (0, 0, 0, 0),
    (1, 0, 0, 0),
    (2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
    (1, 1, 0, 0), (1, 0, 1, 0), (0, 0, 0, 1),
    (0, 2, 0, 0), (0, 1, 1, 0), (0, 0, 2, 0),
    (0, 1, 0, 1),
    (0, 0, 0, 2),
)


def _label(monomial) -> str:
    """``c1^a*c2^b*d2^e*c3^f``, writing ``^k`` only for k > 1 and ``[Y]``
    for the unit."""
    return "*".join(name if k == 1 else f"{name}^{k}"
                    for name, k in zip(("c1", "c2", "d2", "c3"), monomial) if k) or "[Y]"


#: Basis labels in order, grouped by codimension 0..6.
BASIS = tuple(map(_label, _BASIS_MONOMIALS))

DEGREES = tuple(a + 2 * b + 2 * e + 3 * f for a, b, e, f in _BASIS_MONOMIALS)

#: The factor of each coordinate under ``dual``, (-1)^k, and under ``psi2``,
#: 2^k, for the basis class of degree k.
_DUAL_SIGNS = tuple((-1) ** k for k in DEGREES)
_PSI2_SCALES = tuple(2 ** k for k in DEGREES)

_INDEX = {label: i for i, label in enumerate(BASIS)}


#: The intersection numbers of Y: the degree-6 integrals of the monomials
#: c1^a c2^b d2^e c3^f, keyed by (a, b, e, f).
_INTEGRALS = {
    (6, 0, 0, 0): 57, (4, 1, 0, 0): 27, (4, 0, 1, 0): 18, (3, 0, 0, 1): 5,
    (2, 2, 0, 0): 14, (2, 1, 1, 0): 9, (2, 0, 2, 0): 6, (1, 1, 0, 1): 3,
    (1, 0, 1, 1): 2, (0, 3, 0, 0): 9, (0, 2, 1, 0): 5, (0, 1, 2, 0): 3,
    (0, 0, 3, 0): 2, (0, 0, 0, 2): 1,
}


def _build_products():
    """``[i]``: a ``(j, k, 3c)`` triple for each term c * basis_k of each
    nonzero basis_i * basis_j, by j and then by k.

    The pairing of complementary degrees is perfect, so the coordinates x
    of a monomial m of degree k solve sum_i x_i * integral(basis_i *
    basis'_j) = integral(m * basis'_j), with basis_i over the degree-k and
    basis'_j over the degree-(6 - k) basis classes.  The fraction-free
    ``echelon`` triangulates the integer system [Gram | monomial columns]
    of each degree, and back-substitution solves it for 3x in integers,
    each division exact."""
    def product(*monomials):
        return tuple(map(sum, zip(*monomials)))

    graded = tuple(zip(_BASIS_MONOMIALS, DEGREES))
    coords = {}
    for k in range(7):
        basis = [m for m, d in graded if d == k]
        dual = [m for m, d in graded if d == 6 - k]
        monomials = sorted({product(mi, mj) for mi, di in graded for mj, dj in graded
                            if di + dj == k})
        rows, pivots = echelon([[_INTEGRALS[product(m, mj)] for m in basis + monomials]
                                for mj in dual])
        n = len(basis)
        if pivots[:n] != list(range(n)):
            raise AssertionError(f"the pairing of degrees {k} and {6 - k} is not perfect")
        for column, m in enumerate(monomials, start=n):
            y = [0] * n
            for r in reversed(range(n)):
                y[r], rest = divmod(3 * rows[r][column]
                                    - sum(rows[r][s] * y[s] for s in range(r + 1, n)), rows[r][r])
                if rest:
                    raise AssertionError(f"3 times the reduction of monomial {m} is not integral")
            coords[m] = tuple((DEGREES.index(k) + r, c) for r, c in enumerate(y) if c)
    return tuple(tuple((j, k, c) for j, mj in enumerate(_BASIS_MONOMIALS)
                       for k, c in coords.get(product(mi, mj), ()))
                 for mi in _BASIS_MONOMIALS)


#: ``_TRIPLED[i]``: ``(j, k, 3c)`` for each term c * basis_k of basis_i * basis_j.
_TRIPLED = _build_products()

#: ``(i, j, c)`` for the nonzero integrals c of basis_i * basis_j, all with
#: complementary degrees, all integers.
_PAIRING = tuple((i, j, c // 3) for i, row in enumerate(_TRIPLED) for j, k, c in row
                 if k == _INDEX["c3^2"])


class ChowElement:
    """An element of the Chow ring with coordinates ``nums[i] / den`` over the
    13-class basis, in lowest terms: ``den > 0`` and ``gcd(den, *nums) == 1``,
    so equal elements store equal integers, and zero has ``den == 1``."""

    __slots__ = ("nums", "den")

    def __init__(self, nums, den: int):
        """The element with coordinates ``nums[i] / den``, den > 0."""
        g = gcd(den, *nums)
        self.nums = tuple(nums) if g == 1 else tuple(n // g for n in nums)
        self.den = den // g

    @classmethod
    def zero(cls) -> "ChowElement":
        return cls([0] * len(BASIS), 1)

    @classmethod
    def unit(cls) -> "ChowElement":
        return cls.basis("[Y]")

    @classmethod
    def basis(cls, label: str) -> "ChowElement":
        nums = [0] * len(BASIS)
        nums[_INDEX[label]] = 1
        return cls(nums, 1)

    def degree_part(self, k: int) -> "ChowElement":
        return ChowElement([n if DEGREES[i] == k else 0 for i, n in enumerate(self.nums)],
                           self.den)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __add__(self, other):
        if not isinstance(other, ChowElement):
            return NotImplemented
        m = lcm(self.den, other.den)
        p, q = m // self.den, m // other.den
        return ChowElement([a * p + b * q for a, b in zip(self.nums, other.nums)], m)

    def __sub__(self, other):
        if not isinstance(other, ChowElement):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return ChowElement([-a for a in self.nums], self.den)

    def __mul__(self, other):
        if isinstance(other, int):
            return ChowElement([a * other for a in self.nums], self.den)
        if not isinstance(other, ChowElement):
            return NotImplemented
        out = [0] * len(BASIS)
        ys = other.nums
        for a, row in zip(self.nums, _TRIPLED):
            if a:
                for j, k, c in row:
                    b = ys[j]
                    if b:
                        out[k] += a * b * c
        return ChowElement(out, 3 * self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """x^n for x = a + y, a = p / q the degree-0 coordinate and y
        nilpotent: the sum of C(n, k) a^(n - k) y^k over k <= min(n, 6), from
        the products y^2 ... y^min(n, 6), or y^n alone when a = 0."""
        if n < 2:
            if n < 0:
                raise ValueError("negative powers are not defined")
            return self if n else ChowElement.unit()
        a = self.nums[0]
        if not a and n > 6:
            return ChowElement.zero()  # nilpotent: products vanish past degree 6
        y = ChowElement((0, *self.nums[1:]), self.den) if a else self
        powers = [y]
        while len(powers) < min(n, 6) and not powers[-1].is_zero():
            powers.append(powers[-1] * y)
        if not a:
            return powers[-1]  # y^n, or zero where the products vanished
        g = gcd(a, self.den)
        p, q = a // g, self.den // g
        m = lcm(*(z.den for z in powers))
        out = [p ** n * m] + [0] * (len(BASIS) - 1)
        for k, z in enumerate(powers, start=1):
            s = comb(n, k) * p ** (n - k) * q ** k * (m // z.den)
            for i, v in enumerate(z.nums):
                out[i] += s * v
        return ChowElement(out, q ** n * m)

    def dual(self) -> "ChowElement":
        """Chern character of the dual: negate odd-degree parts."""
        return ChowElement(tuple(map(mul, self.nums, _DUAL_SIGNS)), self.den)

    def psi2(self) -> "ChowElement":
        """Second Adams operation on Chern characters: scale the degree-k
        part by 2^k."""
        return ChowElement(tuple(map(mul, self.nums, _PSI2_SCALES)), self.den)

    def det(self) -> "ChowElement":
        """Chern character of the determinant: exp of the degree-1 part."""
        return _exp_c1(self.nums[_INDEX["c1"]], self.den)

    def half(self) -> "ChowElement":
        return ChowElement(self.nums, 2 * self.den)

    def __eq__(self, other):
        return isinstance(other, ChowElement) and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        return " + ".join(f"{render_ratio(n, self.den)}*{label}"
                          for label, n in zip(BASIS, self.nums) if n) or "0"

    def to_json_dict(self) -> dict:
        return {label: render_ratio(n, self.den) for label, n in zip(BASIS, self.nums)}


def scaled_pairing(row: tuple[int, tuple[int, ...]], y: ChowElement, *objects) -> int:
    """The integer chi(objects) = r . y.nums / (D * y.den) from a row ``(D, r)``
    of ``chi_row``, rendering the label only when it is not an integer."""
    d, r = row
    total = sum(map(mul, r, y.nums))
    value, rest = divmod(total, d * y.den)
    if rest:
        raise RingInconsistencyError(f"ring inconsistency: chi({', '.join(map(str, objects))})"
                                     f" = {render_ratio(total, d * y.den)} is not an integer")
    return value


_C1 = ChowElement.basis("c1")
_C2 = ChowElement.basis("c2")
_C3 = ChowElement.basis("c3")
_D2 = ChowElement.basis("d2")


def _tangent_ch() -> ChowElement:
    """Chern character of the tangent bundle, from its class
    3 Hom(U1, U2) - End U1 - End U2 + O in K-theory."""
    return (3 * ch_of(tensor(dual(U1), U2)) - ch_of(tensor(dual(U1), U1))
            - ch_of(tensor(dual(U2), U2)) + ChowElement.unit())


@lru_cache(maxsize=1)
def todd_y() -> ChowElement:
    """Todd class of Y: exp of the sum over Chern roots of
    log(x / (1 - e^-x)) = x/2 - x^2/24 + x^4/2880 - x^6/181440 + ..., whose
    degree-k part is its x^k coefficient times k! ch_k: 1/2, -1/12, 1/120 and
    -1/252 for k = 1, 2, 4, 6, here over their common denominator 2520."""
    ch = _tangent_ch()
    x = sum((c * ch.degree_part(k) for k, c in ((1, 1260), (2, -210), (4, 21), (6, -10))),
            ChowElement.zero())
    return _exp(ChowElement(x.nums, 2520 * x.den))


def _exp(x: ChowElement) -> ChowElement:
    """exp of an element with zero degree-0 part, truncated in degree 6: the
    sum of 6!/k! x^k over k <= 6, divided by 6!."""
    if not x.degree_part(0).is_zero():
        raise ValueError("exp needs vanishing degree-0 part")
    power = ChowElement.unit()
    out = 720 * power
    for k in range(1, 7):
        power = power * x
        if power.is_zero():
            break
        out = out + 720 // factorial(k) * power
    return ChowElement(out.nums, 720 * out.den)


#: The powers 0 to 6 of each class by name, then 0 for every higher power;
#: d1 is identified with c1 on input.
_POWERS = {name: (*(x ** k for k in range(7)), ChowElement.zero())
           for name, x in (("c1", _C1), ("c2", _C2), ("c3", _C3), ("d2", _D2))}
_POWERS["d1"] = _POWERS["c1"]

#: ``(i, k, 720 / k! * c)`` for each coordinate c of c1^k at basis_i, k <= 6:
#: ten integers, since every c1^k has integer coordinates (den 1).
_EXP_C1 = tuple((i, k, 720 // factorial(k) * c) for k in range(7)
                for i, c in enumerate(_POWERS["c1"][k].nums) if c)


def _exp_c1(num: int, den: int) -> ChowElement:
    """exp(t c1) for t = num / den: the sum of t^k c1^k / k! over k <= 6, over
    the denominator 720 q^6 for t = p / q in lowest terms."""
    g = gcd(num, den)
    p, q = num // g, den // g
    out = [0] * len(BASIS)
    for i, k, c in _EXP_C1:
        out[i] += c * p ** k * q ** (6 - k)
    return ChowElement(out, 720 * q ** 6)


def _ch_from_chern(rank: int, e: tuple[ChowElement, ...]) -> ChowElement:
    """Chern character from the Chern classes e via Newton's identities on
    power sums p_k of the Chern roots: rank plus the sum of p_k / k!, summed
    over the denominator 6! and divided once."""
    p: list[ChowElement] = []
    for k in range(1, 7):
        term = ChowElement.zero()
        for i in range(1, min(k, len(e)) + 1):
            sign = -1 if i % 2 == 0 else 1
            if i == k:
                term = term + sign * k * e[i - 1]
            else:
                term = term + sign * (e[i - 1] * p[k - i - 1])
        p.append(term)
    out = 720 * rank * ChowElement.unit()
    for k, pk in enumerate(p, start=1):
        out = out + 720 // factorial(k) * pk
    return ChowElement(out.nums, 720 * out.den)


def _ch_leaf(e: BundleExpr) -> ChowElement:
    """Leaf values, which ch_of caches."""
    if e.op == "O":
        return _exp_c1(e.args[0], 1)
    if e.op == "U1":
        return _ch_from_chern(2, (_C1, _D2)).dual()
    return _ch_from_chern(3, (_C1, _C2, _C3)).dual()


@lru_cache(maxsize=MAX_CACHED_EXPRS)
def ch_of(e: BundleExpr) -> ChowElement:
    """Chern character of a bundle expression, evaluated compositionally."""
    return evaluate(e, _ch_leaf, ch_of)


class RingInconsistencyError(ArithmeticError):
    """A Riemann-Roch integral that must be an integer failed to be one."""


@lru_cache(maxsize=1)
def chi_form() -> tuple[int, tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """``(M, B, C)``, integers with B[a][b] / M the integral of dual(basis_a)
    * basis_b * td(Y), so chi(E, F) = x B y / (M d e) for ch(E) = x / d and
    ch(F) = y / e, and C the columns of B, which ``chi_row`` reads.  Row a
    pairs dual(basis_a) * td(Y) with the basis."""
    products = [ChowElement.basis(label).dual() * todd_y() for label in BASIS]
    m = lcm(*(z.den for z in products))
    rows = [[0] * len(BASIS) for _ in BASIS]
    for row, z in zip(rows, products):
        for i, j, c in _PAIRING:
            row[j] += z.nums[i] * c * (m // z.den)
    return m, tuple(map(tuple, rows)), tuple(zip(*rows))


@lru_cache(maxsize=MAX_CACHED_EXPRS)
def chi_row(e: BundleExpr) -> tuple[int, tuple[int, ...]]:
    """``(M * d, x B)`` for ch(e) = x / d: the left factor of every chi(e, -),
    whose right factor is ``ch_of`` of the other object itself."""
    (m, _, columns), x = chi_form(), ch_of(e)
    return m * x.den, tuple(sum(map(mul, x.nums, column)) for column in columns)


def chi(e: BundleExpr) -> int:
    """Euler characteristic chi(Y, e) = chi(O, e), from the row of O."""
    return scaled_pairing(chi_row(O(0)), ch_of(e), e)


# -- polynomial input for the command line ------------------------------------

class ChowSyntaxError(ValueError):
    pass


#: Whitespace, then a token: a number of decimal digits, a class name (two
#: word characters: c12 is c1 times 2), any other one character or, at the
#: end, nothing.
_TOKEN = re.compile(r"\s*(\d+|\w\w?|.?)")


def _refuse_digits(bits: int, what: str, pos: int) -> None:
    """Refuse a numerator or denominator of at least 2^bits, over 0.3 * bits
    digits, that Python cannot print; the CLI reports it as its digit limit."""
    limit = sys.get_int_max_str_digits()
    if limit and 3 * bits >= 10 * limit:
        raise ValueError(f"the {what} exceeds the limit ({limit} digits)"
                         f" for integer string conversion (at position {pos})")


class _PolyParser:
    """Integer-coefficient polynomials in c1, c2, c3, d1, d2 with + - * ^
    and parentheses, read one token at a time.  Integer coefficients are
    scalings: an integer factor stays an int within its term, and a term
    that ends as an int k is k * [Y], whose numerator bound and degree-0
    coordinate are |k| and k, as the digit-limit checks read them.  A
    class's power comes from the table ``_POWERS``."""

    def __init__(self, text: str):
        self.tokens = _TOKEN.finditer(text)
        self.depth = 0  # parentheses open at the cursor
        self.advance()

    def advance(self):
        """Move to the next token: its text and the position of its start."""
        match = next(self.tokens)
        self.token, self.pos = match[1], match.start(1)

    def fail(self, message):
        raise ChowSyntaxError(f"{message} (at position {self.pos})")

    def sum_expr(self) -> ChowElement:
        out = self.term()
        while self.token in ("+", "-"):
            out = out + self.term()
        return out

    def term(self) -> ChowElement:
        """A signed product of factors, such as ``-3c1^2*c2``.  Integer
        factors multiply as integers and scale a ring element; a term that
        stays an integer k is k * [Y]."""
        sign = 1
        while self.token in ("+", "-"):
            if self.token == "-":
                sign = -sign
            self.advance()
        out = self.factor()[0]
        while True:
            if self.token == "*":
                self.advance()
            elif not (self.token[:1].isalnum() or self.token == "("):  # else implicit, as in "3c1"
                if type(out) is int:
                    return ChowElement([sign * out] + [0] * (len(BASIS) - 1), 1)
                return out if sign > 0 else -out
            factor, end = self.factor()
            out = factor * out if type(out) is int else out * factor
            # an unprintable numerator, at least |n| // den (|k| for an
            # integer k), only grows, ever slower, in further products
            # (denominators here divide 3)
            top = abs(out) if type(out) is int else max(map(abs, out.nums)) // out.den
            _refuse_digits(top.bit_length() - 1, "product", end)

    def factor(self) -> tuple[ChowElement | int, int]:
        """An atom, to the power after "^" if any, and the position after it:
        the end of the exponent's digits, else the start of the next token.
        A number is an int; a class's powers come from ``_POWERS``."""
        token = self.token
        powers = _POWERS.get(token)
        if token == "(":
            self.depth += 1
            if self.depth > MAX_DEPTH:
                self.fail(f"parentheses nested deeper than {MAX_DEPTH}")
            self.advance()
            base = self.sum_expr()
            if self.token != ")":
                self.fail("expected ')'")
            self.depth -= 1
        elif token.isdecimal():
            base = int(token)
        elif powers:
            base = powers[1]
        else:
            self.fail("unknown class name" if token[:1].isalpha() else "expected class, number, or '('")
        self.advance()
        if self.token != "^":
            return base, self.pos
        self.advance()
        digits, end = self.token, self.pos + len(self.token)
        if not digits.isdecimal():
            self.fail("expected exponent")
        self.advance()
        n = int(digits)
        if powers:  # a class: degree-0 coordinate 0, never refused
            return powers[min(n, 7)], end
        a, den = (abs(base), 1) if type(base) is int else (abs(base.nums[0]), base.den)
        # refuse before squaring: the degree-0 coordinate, in lowest terms,
        # grows n-fold in bits
        _refuse_digits(n * ((max(a, den) // gcd(a, den)).bit_length() - 1), "power", end)
        return base ** n, end


def parse_chow_poly(text: str) -> ChowElement:
    """Parse a polynomial such as ``c1^6 + 2c2*d2 - (c1+c3)^2``.

    A syntax error points at the first character of its token, after
    whitespace.  The digit limit of a power points at the end of the
    exponent's digits, that of a product at the end of its last factor:
    after the exponent's digits, else at the next token."""
    parser = _PolyParser(text)
    out = parser.sum_expr()
    if parser.token:
        parser.fail("trailing input")
    return out
