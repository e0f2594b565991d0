"""Quiver combinatorics in exact arithmetic.

Dimension vectors, slopes, the Euler form, existence of semistable
representations for a given stability parameter, and enumeration of
Harder-Narasimhan types.  The built-in instance of interest is the
3-Kronecker quiver (two vertices, three parallel arrows).

Existence of semistable representations is decided from the one dense
Harder-Narasimhan stratum (Reineke, Invent. Math. 152, 2003).  The stratum
of a type (d^1, ..., d^k) of h is nonempty exactly when every part has
semistable representations, and its codimension is
-sum_{k<l} <d^k, d^l> >= 0.  The representation space Rep(h) is
irreducible, so exactly one stratum has codimension 0: (h) when h has
semistable representations, and otherwise (f, tau') for the one first part
f with <f, h - f> = 0 and tau' the dense type of h - f.  The dense type
starts at the least slope that starts any type.  Indeed, the slope
mu_max(M) of the first part of M is the largest slope of a
subrepresentation of M, and for each f the M of dimension h with a
subrepresentation of dimension f form a closed set, the image of a proper
map from a Grassmannian bundle (Schofield, Proc. London Math. Soc. 65,
1992, section 3; King, Quart. J. Math. 45, 1994).  So mu_max is upper
semicontinuous and takes its least value on a dense open set of Rep(h),
which meets the dense stratum; and every type has a nonempty stratum.
Hence a first part f of h (semistable, with some type of h - f starting
below its slope) has the dense type of h - f below its slope too, and h is
not semistable exactly when some first part f has <f, h - f> = 0.  So
existence is a boolean recursion over the pairs f < h, with no counting.
One table, built bottom up for a dimension vector d, holds for every
subvector of d whether it is semistable, integer keys that order the
slopes, and the first parts its types can start with; the existence test
and the type enumeration read it.  Its lists are indexed by the position of
a subvector in product order, where the index of h - f is the index of h
less that of f, so neither reader builds a subvector to look one up: the
enumeration walks indices and builds the parts of a type only when it
returns it.  What the table needs of d alone (the subvectors in product
order, the pairs f < h, and for each subvector the scaled row that makes
its slope an integer) is one lattice per d, cached and shared by the tables
of every quiver and stability parameter.  The table itself is not cached:
``strata`` keeps what it reads of it.
"""

from __future__ import annotations

import itertools
import json
import operator
from bisect import bisect_left
from collections import Counter, namedtuple
from functools import lru_cache
from math import gcd, inf, lcm

from ._linalg import MAX_CACHED_SETUPS, _int_entries

#: Largest arrow count of a quiver, which builds one entry per arrow.
MAX_ARROWS = 10 ** 4

#: Largest vertex count of a quiver, which builds one entry per vertex.
MAX_VERTICES = 10 ** 4

#: Largest count prod(d_i + 1) of subvectors 0 <= f <= d of a dimension vector
#: whose HN table is built: the table visits every pair f < h of subvectors of
#: d, fewer than this count squared, and its work per pair does not grow with
#: the arrow count.
MAX_SUBVECTORS = 64

DimVector = tuple[int, ...]
HNType = tuple[DimVector, ...]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


#: The two forms of a quiver spec that ``Quiver.from_spec`` reads.
SPEC_FORMS = "'kronecker:m' or JSON {\"vertices\":n,\"arrows\":[[i,j],..]}"


class Quiver(namedtuple("Quiver", "vertex_count arrows groups")):
    """A finite acyclic directed graph, parallel arrows allowed.

    Vertices are indexed 0..vertex_count-1; arrows are (source, target)
    pairs, kept in the order given.  ``groups`` holds them grouped, as
    ``(i, j, m)`` for the m parallel arrows i -> j in the order of their
    first arrows, so that the HN table and the strata loop over groups at
    a cost that does not grow with the number of parallel arrows.  It is a
    function of the arrows, built once here: a quiver is made from, and
    equal as, its vertex count and arrows.
    """

    __slots__ = ()

    def __new__(cls, vertex_count: int, arrows):
        if vertex_count <= 0:
            raise ValueError("vertex_count must be positive")
        if vertex_count > MAX_VERTICES:
            raise ValueError(f"vertex count above {MAX_VERTICES}")
        arrows = tuple(_int_entries(a, "arrow") for a in arrows)
        if len(arrows) > MAX_ARROWS:
            raise ValueError(f"arrow count above {MAX_ARROWS}")
        groups = tuple((i, j, m) for (i, j), m in Counter(arrows).items())
        for i, j, _ in groups:
            if not (0 <= i < vertex_count and 0 <= j < vertex_count):
                raise ValueError(f"arrow ({i},{j}) out of range")
        self = super().__new__(cls, vertex_count, arrows, groups)
        if self._has_cycle():
            raise ValueError("quiver must be acyclic")
        return self

    def __getnewargs__(self):
        # copy and pickle rebuild a quiver through __new__, from its arrows
        return self.vertex_count, self.arrows

    def _has_cycle(self) -> bool:
        """Whether removing sources one at a time leaves some vertex (without
        recursion, so a long path cannot exhaust the stack)."""
        succ = [[] for _ in range(self.vertex_count)]
        indegree = [0] * self.vertex_count
        for i, j, _ in self.groups:
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
    def from_spec(cls, text: str, name: str = "a quiver spec") -> "Quiver":
        """Parse either the shorthand ``kronecker:m`` or a JSON document
        ``{"vertices": n, "arrows": [[i, j], ...]}``; text of neither form is
        refused with a message that calls it ``name``."""
        text = text.strip()
        kronecker = text.startswith("kronecker:")
        if kronecker and "_" in text:  # int() reads 0_3 as 3
            raise ValueError(f"{name} must be {SPEC_FORMS}")
        try:
            data = int(text.split(":", 1)[1]) if kronecker else json.loads(text)
        except RecursionError:
            raise ValueError("quiver JSON nested too deeply") from None
        except ValueError as exc:
            if "integer string conversion" in str(exc):
                raise  # a numeral over the digit limit, a message of its own
            raise ValueError(f"{name} must be {SPEC_FORMS}") from None
        if kronecker:
            return cls.kronecker(data)
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
        return {"vertices": self.vertex_count, "arrows": self.arrows}

    def check_dim(self, e) -> DimVector:
        e = _int_entries(e, "dimension vector")
        if len(e) != self.vertex_count:
            raise ValueError(f"dimension vector {e} has wrong length")
        if any(x < 0 for x in e):
            raise ValueError(f"dimension vector {e} has negative entries")
        return e


def reduced_slope(theta, f) -> tuple[int, int]:
    """The slope (theta . f) / |f| of a nonzero f as a pair (a, b) of
    coprime integers with b > 0, compared by cross-multiplying.  Unchecked:
    it reads the parts of types that ``enumerate_hn_types`` gated."""
    a, b = sum(t * x for t, x in zip(theta, f)), sum(f)
    g = gcd(a, b)
    return a // g, b // g


@lru_cache(maxsize=MAX_CACHED_SETUPS)
def _lattice(d: DimVector) -> tuple[list, list, list, list]:
    """``(box, pairs, columns, scaled)``: the part of the HN table of d that
    depends on d alone, shared by the tables of every quiver and theta.

    ``box`` lists the subvectors 0 <= f <= d in product order, zero first,
    so that the index of h - f is the index of h less that of f.
    ``pairs[x]`` lists, for h = ``box[x]``, the indices of the 0 < f < h in
    product order.  ``columns[i]`` lists the entries f_i of the box, and
    ``scaled[x]`` the row of f_i * L / |f| over i, f = ``box[x]``, with
    L = lcm(1, ..., |d|) (zeros for f = 0), so that the slopes theta.f / |f|
    of the nonzero subvectors compare as the integers theta . ``scaled[x]``.

    The f <= h of a nonzero h = ``box[x]`` come from one comprehension over
    those of h with its last nonzero entry h_i set to 0, at x - h_i * s_i
    for the stride s_i of vertex i: each extended by f_i = 0, ..., h_i,
    which keeps product order since h is 0 after vertex i.  The lists are
    built vertex by vertex, so the one extended is always there, and only
    their proper nonzero entries are kept.
    """
    box = list(itertools.product(*(range(x + 1) for x in d)))
    strides = [1]
    for x in reversed(d[1:]):
        strides.append(strides[-1] * (x + 1))
    strides.reverse()
    below = [[0]] * len(box)  # the index of every f <= box[x]
    done = [0]  # the indices of the h that are 0 from vertex i on
    for m, s in zip(d, strides):
        heads = done[:]
        for n in range(1, m + 1):  # the h = box[y] of heads with h_i set to n
            steps = range(0, (n + 1) * s, s)
            for y in heads:
                below[y + n * s] = [z + step for z in below[y] for step in steps]
            done += [y + n * s for y in heads]
    pairs = [row[1:-1] for row in below]
    common = lcm(*range(1, sum(d) + 1))
    scales = [0] + [common // sum(f) for f in box[1:]]
    columns = list(zip(*box))
    return box, pairs, columns, list(zip(*(map(operator.mul, c, scales) for c in columns)))


def _hn_table(quiver: Quiver, d: DimVector, theta: tuple) -> tuple[list, list, list, list]:
    """``(box, keys, semistable, firsts)``, the last three lists indexed
    like the subvectors ``box`` of ``_lattice(d)``, zero first.  For h =
    ``box[x]``, ``keys[x]`` is the integer theta.h * L / |h| of
    ``_lattice``, so that slopes compare as their keys do;
    ``semistable[x]`` is whether h has a theta-semistable representation;
    and ``firsts[x]`` holds the keys and the indices of the first parts of
    the types of h, h among them exactly when it is semistable, in key
    order, equal keys in product order.

    The table walks the pairs f < h of ``_lattice(d)`` bottom up, so that
    the entries of f and of the rest h - f, at the index of h less that of
    f, are known.  It also keeps, for each h, the least key of a first part
    of any type.  f is a first part of h when f is semistable and some type
    of h - f starts below the slope of f: the least key of h - f is below
    that of f.  h is semistable unless some first part f has
    <f, h - f> = 0 (the module docstring says why), a dot product of h - f
    with the Euler row of f, (f_j - sum_{a: i->j} f_i) over j.
    """
    box, pairs, columns, scaled = _lattice(d)
    keys = [sum(map(operator.mul, theta, row)) for row in scaled]
    flows = list(columns)  # the Euler rows by vertex j, over the box
    for i, j, m in quiver.groups:
        flows[j] = list(map(operator.sub, flows[j], map(m.__mul__, columns[i])))
    rows = list(zip(*flows))
    semistable = [False] * len(box)
    least = [-inf] * len(box)  # the least key of a first part
    firsts = [((), ())] * len(box)
    for x in range(1, len(box)):
        parts, dense = [], False  # whether a type (f, ...) of h is dense
        for y in pairs[x]:
            key = keys[y]
            if semistable[y] and least[x - y] < key:
                parts.append((key, y))
                dense = dense or not sum(map(operator.mul, rows[y], box[x - y]))
        if not dense:
            semistable[x] = True
            parts.append((keys[x], x))
        parts.sort()
        below, ys = zip(*parts)
        firsts[x] = below, ys
        least[x] = below[0]
    return box, keys, semistable, firsts


def _check_hn_input(quiver: Quiver, e, theta) -> tuple[DimVector, tuple]:
    """``(e, theta)`` as integer tuples, refused unless e is a nonzero
    dimension vector within ``MAX_SUBVECTORS`` and theta has one entry per
    vertex: the gate of the existence test and of the type enumeration."""
    e = quiver.check_dim(e)
    if not any(e):
        raise ValueError("dimension vector must be nonzero")
    theta = _int_entries(theta, "theta")
    if len(theta) != quiver.vertex_count:
        raise ValueError("theta has wrong length")
    box = 1
    for x in e:  # stop before multiplying past the limit
        box *= x + 1
        if box > MAX_SUBVECTORS:
            raise ValueError(f"subvector count above {MAX_SUBVECTORS}")
    return e, theta


def has_semistable(quiver: Quiver, e, theta) -> bool:
    """Whether a theta-semistable representation of dimension vector e exists."""
    e, theta = _check_hn_input(quiver, e, theta)
    return _hn_table(quiver, e, theta)[2][-1]


def enumerate_hn_types(quiver: Quiver, d, theta) -> list[HNType]:
    """All Harder-Narasimhan types for (quiver, d, theta).

    A type is an ordered tuple of nonzero dimension vectors summing to d,
    with strictly decreasing slopes, each admitting a semistable
    representation.  Requires theta . d = 0; the output is sorted
    lexicographically on the flattened parts and includes the trivial
    type (d,) exactly when d itself admits a semistable representation.
    The walk reads the first parts of each remainder from the table, by
    index, and enters no dead end: a first part f leaves a rest with a
    type of slopes all below that of f.  It keeps the prefixes still to
    extend on a stack, with no call per prefix.
    """
    d, theta = _check_hn_input(quiver, d, theta)
    if sum(t * x for t, x in zip(theta, d)) != 0:
        raise ValueError("theta . d must be zero")

    box, keys, _, firsts = _hn_table(quiver, d, theta)
    types = []
    stack = [(len(box) - 1, inf, ())]  # (rest, bound, prefix) of the prefixes to extend
    while stack:
        x, bound, prefix = stack.pop()
        below, parts = firsts[x]
        for y in parts[:bisect_left(below, bound)]:
            if y == x:  # the last part
                types.append(prefix + (y,))
            else:
                stack.append((x - y, keys[y], prefix + (y,)))
    # product order is lexicographic, so sorting the index sequences sorts
    # the types by their flattened parts
    types.sort()
    return [tuple(map(box.__getitem__, tau)) for tau in types]

