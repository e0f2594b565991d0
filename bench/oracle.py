"""Reference computations the benchmark checks the program against.

Nothing here imports quivercert.  Bundle expressions are nested tuples
(("U1",), ("O", n), ("tensor", a, b), ...), rendered into the program's
text grammar; ranks, first Chern classes and one-parameter-subgroup
weight characters are evaluated here with their own rules, weights as
weight -> multiplicity maps rather than expanded lists.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

UNARY = ("dual", "det", "sl", "sym2", "wedge2")
BINARY = ("tensor", "sum")


def render(e) -> str:
    op = e[0]
    if op in ("U1", "U2"):
        return op
    if op == "O":
        return f"O({e[1]})"
    return f"{op}({','.join(render(a) for a in e[1:])})"


def twist(e, n: int):
    return e if n == 0 else ("tensor", e, ("O", n))


def parse(text: str):
    """Parse the program's printed form of an expression (``str`` of a
    BundleExpr): leaves U1, U2, O(n), and op(arg, ...) folded left."""
    pos = 0

    def expr():
        nonlocal pos
        start = pos
        while text[pos].isalnum() or text[pos] == "_":
            pos += 1
        name = text[start:pos]
        if name in ("U1", "U2"):
            return (name,)
        pos += 1  # "("
        if name == "O":
            end = text.index(")", pos)
            n = int(text[pos:end])
            pos = end + 1
            return ("O", n)
        args = [expr()]
        while text[pos] == ",":
            pos += 1
            args.append(expr())
        pos += 1  # ")"
        out = (name, args[0]) if name in UNARY else (name, args[0], args[1])
        for extra in args[2:]:
            out = (name, out, extra)
        return out

    out = expr()
    if pos != len(text):
        raise ValueError(f"trailing input in {text!r}")
    return out


def rank(e) -> int:
    op = e[0]
    if op == "U1":
        return 2
    if op == "U2":
        return 3
    if op in ("O", "det"):
        return 1
    if op == "dual":
        return rank(e[1])
    if op == "tensor":
        return rank(e[1]) * rank(e[2])
    if op == "sum":
        return rank(e[1]) + rank(e[2])
    r = rank(e[1])
    return {"sl": r * r - 1, "sym2": r * (r + 1) // 2, "wedge2": r * (r - 1) // 2}[op]


def c1(e) -> int:
    """First Chern class as a multiple of the ample generator H = c1(O(1)),
    with det U1 = det U2 = O(-1)."""
    op = e[0]
    if op in ("U1", "U2"):
        return -1
    if op == "O":
        return e[1]
    if op == "dual":
        return -c1(e[1])
    if op == "tensor":
        return rank(e[2]) * c1(e[1]) + rank(e[1]) * c1(e[2])
    if op == "sum":
        return c1(e[1]) + c1(e[2])
    if op == "det":
        return c1(e[1])
    if op == "sl":
        return 0
    r = rank(e[1])
    return (r + 1) * c1(e[1]) if op == "sym2" else (r - 1) * c1(e[1])


def character(e, u1, u2) -> Counter:
    """Weight -> multiplicity map of an expression on a stratum whose
    universal bundles have weights u1 and u2; O(1) has weight -sum(u1)."""
    op = e[0]
    if op == "U1":
        return Counter(u1)
    if op == "U2":
        return Counter(u2)
    if op == "O":
        return Counter({-e[1] * sum(u1): 1})
    if op == "tensor":
        a, b = character(e[1], u1, u2), character(e[2], u1, u2)
        out = Counter()
        for wa, ma in a.items():
            for wb, mb in b.items():
                out[wa + wb] += ma * mb
        return out
    if op == "sum":
        return character(e[1], u1, u2) + character(e[2], u1, u2)
    x = character(e[1], u1, u2)
    if op == "dual":
        return Counter({-w: m for w, m in x.items()})
    if op == "det":
        return Counter({sum(w * m for w, m in x.items()): 1})
    if op == "sl":
        out = Counter()
        for wa, ma in x.items():
            for wb, mb in x.items():
                out[wa - wb] += ma * mb
        out[0] -= 1
        return +out
    out = Counter()
    items = sorted(x.items())
    for i, (wa, ma) in enumerate(items):
        same = ma * (ma + 1) // 2 if op == "sym2" else ma * (ma - 1) // 2
        if same:
            out[2 * wa] += same
        for wb, mb in items[i + 1:]:
            out[wa + wb] += ma * mb
    return out


# -- Chow ring: the paper's top intersection numbers --------------------------

#: Exponents (c1, c2, c3, d2) of every degree-6 monomial, with its degree
#: against the point class, from the paper's table of intersection numbers.
TOP_INTERSECTIONS = {
    (6, 0, 0, 0): 57, (4, 1, 0, 0): 27, (4, 0, 0, 1): 18, (3, 0, 1, 0): 5,
    (2, 2, 0, 0): 14, (2, 0, 0, 2): 6, (2, 1, 0, 1): 9, (1, 0, 1, 1): 2,
    (1, 1, 1, 0): 3, (0, 3, 0, 0): 9, (0, 2, 0, 1): 5, (0, 1, 0, 2): 3,
    (0, 0, 2, 0): 1, (0, 0, 0, 3): 2,
}

CLASS_DEGREES = (1, 2, 3, 2)  # c1, c2, c3, d2


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def top_integral(p: dict) -> int:
    """Degree-6 integral of a polynomial in c1, c2, c3, d2: its degree-6
    part paired with the top intersection numbers."""
    total = 0
    for m, c in p.items():
        if sum(k * d for k, d in zip(m, CLASS_DEGREES)) == 6:
            total += c * TOP_INTERSECTIONS[m]
    return total


# -- matrices of linear forms in x, y, z --------------------------------------

def minors(rows):
    """The three maximal minors of a 2x3 matrix of linear forms (integer
    coefficient triples) as maps from exponent triples to coefficients."""
    def mul(u, v):
        out: dict = {}
        for i in range(3):
            for j in range(3):
                if u[i] and v[j]:
                    m = tuple((k == i) + (k == j) for k in range(3))
                    out[m] = out.get(m, 0) + u[i] * v[j]
        return out

    def sub(p, q):
        out = dict(p)
        for m, c in q.items():
            out[m] = out.get(m, 0) - c
        return out

    (a, b, c), (d, e, f) = rows
    return (sub(mul(b, f), mul(c, e)), sub(mul(a, f), mul(c, d)), sub(mul(a, e), mul(b, d)))


def matrix_rank(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    rank_ = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank_, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank_], m[pivot] = m[pivot], m[rank_]
        for i in range(len(m)):
            if i != rank_ and m[i][col]:
                f = m[i][col] / m[rank_][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank_])]
        rank_ += 1
    return rank_


QUADRATIC_EXPONENTS = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))


def minors_independent(rows) -> bool:
    return matrix_rank(
        [[q.get(m, 0) for m in QUADRATIC_EXPONENTS] for q in minors(rows)]
    ) == 3


def render_linear_form(form) -> str:
    out = ""
    for coeff, var in zip(form, "xyz"):
        if coeff:
            sign = "-" if coeff < 0 else ("+" if out else "")
            out += sign + ("" if abs(coeff) == 1 else str(abs(coeff))) + var
    return out or "0"


def render_matrix(rows) -> str:
    return ";".join(",".join(render_linear_form(f) for f in row) for row in rows)


def parse_rational(value) -> Fraction:
    return Fraction(value) if isinstance(value, int) else Fraction(str(value))


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
