"""Quiver combinatorics in exact arithmetic.

Dimension vectors, slopes, the Euler form, existence of semistable
representations for a given stability parameter, and enumeration of
Harder-Narasimhan types.  The built-in instance of interest is the
3-Kronecker quiver (two vertices, three parallel arrows).

Existence of semistable representations is decided by a counting
recursion over Z[q]: the representations of a dimension vector over a
field with q elements split by their first Harder-Narasimhan part, which
determines the number of semistable ones, a polynomial in q with integer
coefficients, from the counts of smaller dimension vectors.  The
semistable locus is nonempty exactly when its counting polynomial is
nonzero.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from ._linalg import poly_add, poly_mul, poly_sub

#: Largest arrow count of a quiver, which builds one entry per arrow.
MAX_ARROWS = 10 ** 4

#: Largest vertex count of a quiver, which builds one entry per vertex.
MAX_VERTICES = 10 ** 4

#: Largest count prod(d_i + 1) of subvectors 0 <= f <= d of a dimension vector
#: whose semistable counts are computed: the counting recursion visits every
#: subvector of every subvector, so its work grows faster than this count.
MAX_SUBVECTORS = 64

#: Largest estimate prod(d_i + 1)^3 * (sum_{a: i->j} d_i d_j + 200) of the work
#: of the counting recursion for d, about a second: it multiplies polynomials
#: about a tenth of the cube of the subvector count times, each product costing
#: a fixed part and a part that grows with the degree sum_{a: i->j} d_i d_j.
MAX_COUNTING_WORK = 15 * 10 ** 7

DimVector = tuple[int, ...]
HNType = tuple[DimVector, ...]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class Quiver:
    """A finite acyclic directed graph, parallel arrows allowed.

    Vertices are indexed 0..vertex_count-1; arrows are (source, target)
    pairs.
    """

    vertex_count: int
    arrows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.vertex_count <= 0:
            raise ValueError("vertex_count must be positive")
        if self.vertex_count > MAX_VERTICES:
            raise ValueError(f"vertex count above {MAX_VERTICES}")
        arrows = tuple((int(i), int(j)) for i, j in self.arrows)
        if len(arrows) > MAX_ARROWS:
            raise ValueError(f"arrow count above {MAX_ARROWS}")
        object.__setattr__(self, "arrows", arrows)
        for i, j in arrows:
            if not (0 <= i < self.vertex_count and 0 <= j < self.vertex_count):
                raise ValueError(f"arrow ({i},{j}) out of range")
        if self._has_cycle():
            raise ValueError("quiver must be acyclic")

    def _has_cycle(self) -> bool:
        """Whether removing sources one at a time leaves some vertex (without
        recursion, so a long path cannot exhaust the stack)."""
        succ = [[] for _ in range(self.vertex_count)]
        indegree = [0] * self.vertex_count
        for i, j in self.arrows:
            succ[i].append(j)
            indegree[j] += 1
        sources = [v for v, n in enumerate(indegree) if n == 0]
        removed = 0
        while sources:
            removed += 1
            for w in succ[sources.pop()]:
                indegree[w] -= 1
                if indegree[w] == 0:
                    sources.append(w)
        return removed < self.vertex_count

    @classmethod
    def kronecker(cls, m: int) -> "Quiver":
        """The m-Kronecker quiver: m parallel arrows from vertex 0 to vertex 1."""
        if m < 1:
            raise ValueError("arrow count must be positive")
        if m > MAX_ARROWS:
            raise ValueError(f"arrow count above {MAX_ARROWS}")
        return cls(2, ((0, 1),) * m)

    @classmethod
    def from_spec(cls, text: str) -> "Quiver":
        """Parse either the shorthand ``kronecker:m`` or a JSON document
        ``{"vertices": n, "arrows": [[i, j], ...]}``."""
        text = text.strip()
        if text.startswith("kronecker:"):
            return cls.kronecker(int(text.split(":", 1)[1]))
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("quiver JSON nested too deeply") from None
        for key in ("vertices", "arrows"):
            if not isinstance(data, dict) or key not in data:
                raise ValueError(f"quiver JSON needs a {key!r} key")
        vertices, arrows = data["vertices"], data["arrows"]
        # JSON booleans are ints to Python, and int() would truncate 1.5
        if not (_is_int(vertices) and isinstance(arrows, list)
                and all(isinstance(a, list) and len(a) == 2 and all(map(_is_int, a))
                        for a in arrows)):
            raise ValueError("quiver JSON needs an integer vertex count and arrow pairs")
        return cls(vertices, tuple(map(tuple, arrows)))

    def to_json_dict(self) -> dict:
        return {"vertices": self.vertex_count, "arrows": [list(a) for a in self.arrows]}

    def check_dim(self, e) -> DimVector:
        e = tuple(int(x) for x in e)
        if len(e) != self.vertex_count:
            raise ValueError(f"dimension vector {e} has wrong length")
        if any(x < 0 for x in e):
            raise ValueError(f"dimension vector {e} has negative entries")
        return e


def slope(theta, e) -> Fraction:
    """Slope of a nonzero dimension vector: (theta . e) / (total dimension)."""
    e = tuple(int(x) for x in e)
    if len(theta) != len(e):
        raise ValueError("length mismatch between theta and dimension vector")
    total = sum(e)
    if total == 0:
        raise ValueError("undefined slope: zero dimension vector")
    return Fraction(sum(t * x for t, x in zip(theta, e)), total)


def euler_form(quiver: Quiver, d, e) -> int:
    """Euler form <d, e> = sum_i d_i e_i - sum_{a: i->j} d_i e_j."""
    d = quiver.check_dim(d)
    e = quiver.check_dim(e)
    return sum(a * b for a, b in zip(d, e)) - sum(d[i] * e[j] for i, j in quiver.arrows)


def _subvectors(e):
    """All nonzero dimension vectors f with 0 <= f <= e componentwise."""
    for f in itertools.product(*(range(x + 1) for x in e)):
        if any(f):
            yield f


# -- counting recursion for semistable existence -----------------------------

@lru_cache(maxsize=None)
def _q_binomial(n: int, k: int) -> tuple:
    """The Gaussian binomial coefficient [n choose k] as a polynomial in q."""
    if k in (0, n):
        return (1,)
    return poly_add(_q_binomial(n - 1, k - 1), (0,) * k + _q_binomial(n - 1, k))


def _reduced_slope(theta, f) -> tuple[int, int]:
    """The slope (theta . f) / |f| of a nonzero f as a pair (a, b) of
    coprime integers with b > 0, compared by cross-multiplying."""
    a, b = sum(t * x for t, x in zip(theta, f)), sum(f)
    g = gcd(a, b)
    return a // g, b // g


@lru_cache(maxsize=None)
def _sst_count(quiver: Quiver, e: DimVector, theta: tuple) -> tuple:
    """Number of theta-semistable representations of dimension vector e
    over a field with q elements, as a polynomial in q with integer
    coefficients (Reineke's recursion).

    Sorting the representations of dimension g by the dimension vector f
    of their first Harder-Narasimhan part, those with first part f number

        |R_f^sst| * prod_i [g_i choose f_i]_q * q^(sum_{a: i->j} (g-f)_i f_j)
                  * T(g - f, slope f),

    where T(h, mu) counts the representations of dimension h whose
    Harder-Narasimhan parts all have slope below mu (T(0, mu) = 1) and is
    the sum of the same terms over the f <= h of slope below mu.  The group
    order ratio |G_g| / (|G_f| |G_{g-f}|) contributes the binomials and a
    power of q that cancels against q^(-<g-f, f>), leaving the arrow
    exponent.  All q^(dim R_e) representations of dimension e sum over all
    f; the term f = e is the semistable count.

    Slopes are reduced integer pairs (a, b), b > 0, one per subvector of e,
    so that slope f < a / b is the integer test a_f * b < a * b_f.
    """
    slopes = {f: _reduced_slope(theta, f) for f in _subvectors(e)}
    # Tail counts live for this call only, keyed by (h, a, b) for the bound
    # a / b in lowest terms: recomputing them is cheap, while keeping every
    # (h, bound) state for the life of the process is not.
    tails = {}

    def first_part(g, f):
        rest = tuple(a - b for a, b in zip(g, f))
        out = _sst_count(quiver, f, theta)
        for n, k in zip(g, f):
            out = poly_mul(out, _q_binomial(n, k))
        shift = sum(rest[i] * f[j] for i, j in quiver.arrows)
        return poly_mul((0,) * shift + out, tail(rest, *slopes[f]))

    def tail(h, a, b):
        if not any(h):
            return (1,)
        key = h, a, b
        if key not in tails:
            total = ()
            for f in _subvectors(h):
                af, bf = slopes[f]
                if af * b < a * bf:
                    total = poly_add(total, first_part(h, f))
            tails[key] = total
        return tails[key]

    total = (0,) * sum(e[i] * e[j] for i, j in quiver.arrows) + (1,)
    for f in _subvectors(e):
        if f != e:
            total = poly_sub(total, first_part(e, f))
    return total


def _check_counting_input(quiver: Quiver, e, theta) -> tuple[DimVector, tuple]:
    """``(e, theta)`` as integer tuples, refused unless e is a nonzero
    dimension vector within ``MAX_SUBVECTORS`` and ``MAX_COUNTING_WORK`` and
    theta has one entry per vertex."""
    e = quiver.check_dim(e)
    if not any(e):
        raise ValueError("dimension vector must be nonzero")
    theta = tuple(int(t) for t in theta)
    if len(theta) != quiver.vertex_count:
        raise ValueError("theta has wrong length")
    box = 1
    for x in e:  # stop before multiplying past the limit
        box *= x + 1
        if box > MAX_SUBVECTORS:
            raise ValueError(f"subvector count above {MAX_SUBVECTORS}")
    degree = sum(e[i] * e[j] for i, j in quiver.arrows)
    if box ** 3 * (degree + 200) > MAX_COUNTING_WORK:
        raise ValueError(f"counting work above {MAX_COUNTING_WORK}")
    return e, theta


def has_semistable(quiver: Quiver, e, theta) -> bool:
    """Whether a theta-semistable representation of dimension vector e exists."""
    e, theta = _check_counting_input(quiver, e, theta)
    return bool(_sst_count(quiver, e, theta))


def enumerate_hn_types(quiver: Quiver, d, theta) -> list[HNType]:
    """All Harder-Narasimhan types for (quiver, d, theta).

    A type is an ordered tuple of nonzero dimension vectors summing to d,
    with strictly decreasing slopes, each admitting a semistable
    representation.  Requires theta . d = 0; the output is sorted
    lexicographically on the flattened parts and includes the trivial
    type (d,) exactly when d itself admits a semistable representation.
    """
    d, theta = _check_counting_input(quiver, d, theta)
    if sum(t * x for t, x in zip(theta, d)) != 0:
        raise ValueError("theta . d must be zero")

    types: list[HNType] = []

    def extend(remaining, bound, prefix):
        if not any(remaining):
            types.append(tuple(prefix))
            return
        for f in _subvectors(remaining):
            a, b = mu = _reduced_slope(theta, f)
            if bound is not None and a * bound[1] >= bound[0] * b:
                continue
            if not _sst_count(quiver, f, theta):
                continue
            extend(tuple(x - y for x, y in zip(remaining, f)), mu, prefix + [f])

    extend(d, None, [])
    types.sort(key=lambda tau: tuple(itertools.chain.from_iterable(tau)))
    return types


def hn_stratum_codim(quiver: Quiver, tau) -> int:
    """Codimension of the stratum of a Harder-Narasimhan type:
    -sum_{k<l} <d^k, d^l>."""
    parts = [quiver.check_dim(p) for p in tau]
    return -sum(
        euler_form(quiver, parts[k], parts[l])
        for k in range(len(parts))
        for l in range(k + 1, len(parts))
    )


def is_hn_type(quiver: Quiver, d, theta, tau) -> bool:
    """Validate the defining conditions of a Harder-Narasimhan type."""
    parts = [quiver.check_dim(p) for p in tau]
    if not parts or any(not any(p) for p in parts):
        return False
    d, theta = _check_counting_input(quiver, d, theta)
    if tuple(map(sum, zip(*parts))) != d:
        return False
    slopes = [_reduced_slope(theta, p) for p in parts]
    if any(a * e <= c * b for (a, b), (c, e) in zip(slopes, slopes[1:])):
        return False
    return all(_sst_count(quiver, p, theta) for p in parts)


KRONECKER3 = Quiver.kronecker(3)
