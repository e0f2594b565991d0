"""Quiver combinatorics in exact arithmetic.

Dimension vectors, slopes, the Euler form, existence of semistable
representations for a given stability parameter, and enumeration of
Harder-Narasimhan types.  The built-in instance of interest is the
3-Kronecker quiver (two vertices, three parallel arrows).

Existence of semistable representations is decided by a counting
recursion over the field of rational functions in a formal variable q:
the stacky point count of the representation space splits over
Harder-Narasimhan strata, which determines the semistable count from
the counts of smaller dimension vectors.  The semistable locus is
nonempty exactly when its counting function is nonzero.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ._linalg import poly_gcd, poly_divmod, poly_mul, poly_pow_x, poly_sub, poly_trim

DimVector = tuple[int, ...]
HNType = tuple[DimVector, ...]


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
        arrows = tuple((int(i), int(j)) for i, j in self.arrows)
        object.__setattr__(self, "arrows", arrows)
        for i, j in arrows:
            if not (0 <= i < self.vertex_count and 0 <= j < self.vertex_count):
                raise ValueError(f"arrow ({i},{j}) out of range")
        if self._has_cycle():
            raise ValueError("quiver must be acyclic")

    def _has_cycle(self) -> bool:
        succ = {i: [] for i in range(self.vertex_count)}
        for i, j in self.arrows:
            succ[i].append(j)
        state = {}  # 1 = on stack, 2 = done

        def visit(v):
            state[v] = 1
            for w in succ[v]:
                s = state.get(w)
                if s == 1:
                    return True
                if s is None and visit(w):
                    return True
            state[v] = 2
            return False

        return any(visit(v) for v in range(self.vertex_count) if v not in state)

    @classmethod
    def kronecker(cls, m: int) -> "Quiver":
        """The m-Kronecker quiver: m parallel arrows from vertex 0 to vertex 1."""
        if m < 1:
            raise ValueError("arrow count must be positive")
        return cls(2, ((0, 1),) * m)

    @classmethod
    def from_spec(cls, text: str) -> "Quiver":
        """Parse either the shorthand ``kronecker:m`` or a JSON document
        ``{"vertices": n, "arrows": [[i, j], ...]}``."""
        text = text.strip()
        if text.startswith("kronecker:"):
            return cls.kronecker(int(text.split(":", 1)[1]))
        data = json.loads(text)
        for key in ("vertices", "arrows"):
            if not isinstance(data, dict) or key not in data:
                raise ValueError(f"quiver JSON needs a {key!r} key")
        try:
            return cls(int(data["vertices"]), tuple((i, j) for i, j in data["arrows"]))
        except TypeError:
            raise ValueError("quiver JSON needs an integer vertex count and arrow pairs") from None

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

def _gl_order(e):
    """Point count of GL(e) over a field with q elements, as a polynomial in q."""
    out = (Fraction(1),)
    for n in e:
        for k in range(n):
            out = poly_mul(out, poly_sub(poly_pow_x(n), poly_pow_x(k)))
    return out


def _proper_slope_chains(e, theta, bound=None):
    """Ordered decompositions of e into >=2 nonzero parts of strictly
    decreasing slope (parts below ``bound`` when given)."""
    for f in _subvectors(e):
        mu = slope(theta, f)
        if bound is not None and mu >= bound:
            continue
        rest = tuple(a - b for a, b in zip(e, f))
        if not any(rest):
            if bound is not None:
                yield (f,)
            continue
        for tail in _proper_slope_chains(rest, theta, mu):
            yield (f,) + tail


@lru_cache(maxsize=None)
def _sst_mass(quiver: Quiver, e: DimVector, theta: tuple) -> tuple:
    """Stacky point count of the semistable locus of dimension vector e,
    as a reduced rational function (numerator, denominator) in q.

    Recursion: the count of all representations equals the sum over
    Harder-Narasimhan types (d^1, ..., d^l) of
    q^(-sum_{k<l} <d^l, d^k>) * prod_s sst_mass(d^s).
    """
    dim_r = sum(e[i] * e[j] for i, j in quiver.arrows)
    num, den = poly_pow_x(dim_r), _gl_order(e)
    for chain in _proper_slope_chains(e, theta):
        # exponent of q correcting for the stratum fibration
        exp = -sum(
            euler_form(quiver, chain[l], chain[k])
            for k in range(len(chain))
            for l in range(k + 1, len(chain))
        )
        tnum, tden = (Fraction(1),), (Fraction(1),)
        for part in chain:
            pnum, pden = _sst_mass(quiver, part, theta)
            tnum, tden = poly_mul(tnum, pnum), poly_mul(tden, pden)
        if exp >= 0:
            tnum = poly_mul(tnum, poly_pow_x(exp))
        else:
            tden = poly_mul(tden, poly_pow_x(-exp))
        # num/den -= tnum/tden
        num = poly_sub(poly_mul(num, tden), poly_mul(tnum, den))
        den = poly_mul(den, tden)
    num = poly_trim(num)
    if not num:
        return (), (Fraction(1),)
    g = poly_gcd(num, den)
    if len(g) > 1:
        num = poly_divmod(num, g)[0]
        den = poly_divmod(den, g)[0]
    return num, den


def has_semistable(quiver: Quiver, e, theta) -> bool:
    """Whether a theta-semistable representation of dimension vector e exists."""
    e = quiver.check_dim(e)
    if not any(e):
        raise ValueError("dimension vector must be nonzero")
    theta = tuple(int(t) for t in theta)
    if len(theta) != quiver.vertex_count:
        raise ValueError("theta has wrong length")
    num, _ = _sst_mass(quiver, e, theta)
    return bool(num)


def enumerate_hn_types(quiver: Quiver, d, theta) -> list[HNType]:
    """All Harder-Narasimhan types for (quiver, d, theta).

    A type is an ordered tuple of nonzero dimension vectors summing to d,
    with strictly decreasing slopes, each admitting a semistable
    representation.  Requires theta . d = 0; the output is sorted
    lexicographically on the flattened parts and includes the trivial
    type (d,) exactly when d itself admits a semistable representation.
    """
    d = quiver.check_dim(d)
    if not any(d):
        raise ValueError("dimension vector must be nonzero")
    theta = tuple(int(t) for t in theta)
    if len(theta) != quiver.vertex_count:
        raise ValueError("theta has wrong length")
    if sum(t * x for t, x in zip(theta, d)) != 0:
        raise ValueError("theta . d must be zero")

    types: list[HNType] = []

    def extend(remaining, bound, prefix):
        if not any(remaining):
            types.append(tuple(prefix))
            return
        for f in _subvectors(remaining):
            mu = slope(theta, f)
            if bound is not None and mu >= bound:
                continue
            if not has_semistable(quiver, f, theta):
                continue
            extend(tuple(a - b for a, b in zip(remaining, f)), mu, prefix + [f])

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
    total = tuple(sum(col) for col in zip(*parts))
    if total != quiver.check_dim(d):
        return False
    slopes = [slope(theta, p) for p in parts]
    if any(a <= b for a, b in zip(slopes, slopes[1:])):
        return False
    return all(has_semistable(quiver, p, theta) for p in parts)


KRONECKER3 = Quiver.kronecker(3)
