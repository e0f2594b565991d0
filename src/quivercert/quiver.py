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
nonzero.  One table, built bottom up for a dimension vector d, holds the
counts of all subvectors of d, integer keys that order their slopes and,
for each subvector, the first parts its types can start with; the
existence test and the type enumeration read it.  Its lists are indexed
by the position of a subvector in product order, where the index of
h - f is the index of h less that of f, so neither reader builds a
subvector to look one up: the enumeration walks indices and builds the
parts of a type only when it returns it.  A row of the table with one
term, the common case, holds it as it is, unsorted, and most pairs f < h
are dead, with a zero count of f or a zero tail of h - f: the cheapest
test that finds one runs first, and a dead pair costs no product.
Each count is held as its value at q = 2^K, one integer (Kronecker
substitution), with K large enough that the value is zero exactly when
the polynomial is.  What the table needs of d alone (the subvectors in
product order, the pairs f < h with their q-binomial factors, and for
each subvector the scaled row that makes its slope an integer) is one
lattice per d, cached and shared by the tables of every quiver and
stability parameter.  The table itself is not cached: ``strata`` keeps
what it reads of it.
"""

from __future__ import annotations

import itertools
import json
import operator
from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache
from math import comb, gcd, inf, lcm
from operator import mul

from ._linalg import MAX_CACHED_SETUPS, _int_entries

#: Largest arrow count of a quiver, which builds one entry per arrow.
MAX_ARROWS = 10 ** 4

#: Largest vertex count of a quiver, which builds one entry per vertex.
MAX_VERTICES = 10 ** 4

#: Largest count prod(d_i + 1) of subvectors 0 <= f <= d of a dimension vector
#: whose semistable counts are computed: the counting recursion visits every
#: subvector of every subvector, so its work grows faster than this count.
MAX_SUBVECTORS = 64

#: Largest estimate prod(d_i + 1)^3 * (sum_{a: i->j} d_i d_j + 200) of the work
#: of the counting table for d.  The table multiplies packed polynomials at
#: most (n + 1) * sum_{0 < h <= d} (prod(h_i + 1) - 2) times on n vertices,
#: each product costing a fixed part and a part that grows with the degree
#: sum_{a: i->j} d_i d_j, so the estimate is loose: the slowest admitted shape
#: measured, (31, 1) on 12 arrows, takes 0.038 s cold (0.034-0.066 s): one
#: ``enumerate_hn_types`` call timed after the import, median of 7 fresh
#: interpreters on a 2-vCPU host, Python 3.11.
MAX_COUNTING_WORK = 15 * 10 ** 7

DimVector = tuple[int, ...]
HNType = tuple[DimVector, ...]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


#: The two forms of a quiver spec that ``Quiver.from_spec`` reads.
SPEC_FORMS = "'kronecker:m' or JSON {\"vertices\":n,\"arrows\":[[i,j],..]}"


class Quiver(namedtuple("Quiver", "vertex_count arrows")):
    """A finite acyclic directed graph, parallel arrows allowed.

    Vertices are indexed 0..vertex_count-1; arrows are (source, target)
    pairs.
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
        for i, j in arrows:
            if not (0 <= i < vertex_count and 0 <= j < vertex_count):
                raise ValueError(f"arrow ({i},{j}) out of range")
        self = super().__new__(cls, vertex_count, arrows)
        if self._has_cycle():
            raise ValueError("quiver must be acyclic")
        return self

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


def reduced_slope(theta, e) -> tuple[int, int]:
    """``_reduced_slope`` of a nonzero integer vector e, checked."""
    e, theta = _int_entries(e, "dimension vector"), _int_entries(theta, "theta")
    if len(theta) != len(e):
        raise ValueError("length mismatch between theta and dimension vector")
    if sum(e) == 0:
        raise ValueError("undefined slope: zero dimension vector")
    return _reduced_slope(theta, e)


def _euler_form(quiver: Quiver, d: DimVector, e: DimVector) -> int:
    """Euler form <d, e> = sum_i d_i e_i - sum_{a: i->j} d_i e_j of two
    checked dimension vectors."""
    return sum(a * b for a, b in zip(d, e)) - sum(d[i] * e[j] for i, j in quiver.arrows)


# -- counting recursion for semistable existence -----------------------------

# Unbounded: the gate admits no d with more than MAX_SUBVECTORS = 64
# subvectors, so n, k and the total |d| that sets ``bits`` are at most 63, and
# the keys number fewer than 63 * 2016.
@lru_cache(maxsize=None)
def _q_binomial(n: int, k: int, bits: int) -> int:
    """The Gaussian binomial coefficient [n choose k] at q = 2^bits, by
    Pascal's rule [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    if k in (0, n):
        return 1
    return _q_binomial(n - 1, k - 1, bits) + (_q_binomial(n - 1, k, bits) << bits * k)


# Unbounded: the gate admits only totals n = |d| <= 63, as for ``_q_binomial``.
@lru_cache(maxsize=None)
def _coefficient_bits(n: int) -> int:
    """A width K such that every count and tail of the table of a dimension
    vector of total n has coefficients below 2^(K-1) in absolute value.

    The coefficient sum N(p) = sum_i |p_i| is subadditive and
    submultiplicative, N([n choose k]_q) = C(n, k), and by Vandermonde
    sum_{|f| = k, f <= h} prod_i C(h_i, f_i) = C(|h|, k).  So the recursion
    of ``_sst_table`` bounds N of a count of total n by m(n) and N of a
    tail (or of any sum of the terms of h) by t(n), where t(0) = 1 and

        m(n) = 1 + sum_{0<k<n} C(n, k) m(k) t(n-k),
        t(n) = sum_{0<k<=n} C(n, k) m(k) t(n-k),

    both increasing in n.
    """
    m, t = [0], [1]
    for j in range(1, n + 1):
        below = sum(comb(j, k) * m[k] * t[j - k] for k in range(1, j))
        m.append(1 + below)
        t.append(below + m[j])
    return max(m[n], t[n]).bit_length() + 1


def _reduced_slope(theta, f) -> tuple[int, int]:
    """The slope (theta . f) / |f| of a nonzero f as a pair (a, b) of
    coprime integers with b > 0, compared by cross-multiplying."""
    a, b = sum(t * x for t, x in zip(theta, f)), sum(f)
    g = gcd(a, b)
    return a // g, b // g


@lru_cache(maxsize=MAX_CACHED_SETUPS)
def _lattice(d: DimVector) -> tuple[list, list, list, list]:
    """``(box, pairs, columns, scaled)``: the part of the counting table of
    d that depends on d alone, shared by the tables of every quiver and
    theta.

    ``box`` lists the subvectors 0 <= f <= d in product order, zero first,
    so that the index of h - f is the index of h less that of f.
    ``pairs[x]`` lists, for h = ``box[x]``, the pairs ``(index of f,
    factors)`` over 0 < f < h in product order, where ``factors`` holds the
    ``(h_i, f_i)`` with 0 < f_i < h_i: prod_i [h_i choose f_i]_q is the
    product of their ``_q_binomial``, which a table computes only for the
    terms it keeps.  ``columns[i]`` lists the entries f_i of the box, and
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
    below = [[(0, ())]] * len(box)  # (index, factors) of every f <= box[x]
    done = [0]  # the indices of the h that are 0 from vertex i on
    for m, s in zip(d, strides):
        heads = done[:]
        for n in range(1, m + 1):  # the h = box[y] of heads with h_i set to n
            steps = [(k * s, ((n, k),) if 0 < k < n else ()) for k in range(n + 1)]
            for y in heads:
                below[y + n * s] = [(z + step, factors + factor)
                                    for z, factors in below[y] for step, factor in steps]
            done += [y + n * s for y in heads]
    pairs = [row[1:-1] for row in below]
    common = lcm(*range(1, sum(d) + 1))
    scales = [0] + [common // sum(f) for f in box[1:]]
    columns = list(zip(*box))
    return box, pairs, columns, list(zip(*(map(operator.mul, c, scales) for c in columns)))


def _sst_table(quiver: Quiver, d: DimVector, theta: tuple) -> tuple[list, list, list, list]:
    """``(box, counts, keys, tails)``, the last three lists indexed like the
    subvectors ``box`` of ``_lattice(d)``, zero first.  For h = ``box[x]``,
    ``counts[x]`` is the number of theta-semistable representations of
    dimension vector h over a field with q elements, a polynomial in q with
    integer coefficients (Reineke's recursion); ``keys[x]`` is the integer
    theta.h * L / |h| of ``_lattice``, so that slopes compare as their keys
    do; and ``tails[x]`` holds the keys, prefix sums and indices of the
    first parts f of the nonzero terms of h below, in key order.
    ``counts[0]`` and ``keys[0]`` are 0.

    Sorting the representations of dimension g by the dimension vector f
    of their first Harder-Narasimhan part, those with first part f number

        |R_f^sst| * prod_i [g_i choose f_i]_q * q^(sum_{a: i->j} (g-f)_i f_j)
                  * T(g - f, slope f),

    where T(h, mu) counts the representations of dimension h whose
    Harder-Narasimhan parts all have slope below mu (T(0, mu) = 1) and is
    the sum of the same terms over the f <= h of slope below mu.  The group
    order ratio |G_g| / (|G_f| |G_{g-f}|) contributes the binomials and a
    power of q that cancels against q^(-<g-f, f>), leaving the arrow
    exponent.  All q^(dim R_h) representations of dimension h sum over all
    f; the term f = h is the semistable count.

    Every polynomial is packed: held as its value at q = 2^K, an int, with
    K = ``_coefficient_bits(|d|)``.  Evaluation is a ring homomorphism, so
    sums and products are those of the values and q^s is a shift by K * s.
    Every count and tail has coefficients below 2^(K-1) in absolute value,
    so it is zero exactly when its value is, and its balanced base-2^K
    digits are its coefficients.  Every product of packed values is a call
    of ``mul``, the one name by which products can be counted.

    The table walks the pairs f < h of ``_lattice(d)`` bottom up: every
    f <= h comes before h in product order, so each term is built once,
    from counts and tails already known, read by index, the rest h - f at
    the index of h less that of f.  With the arrow column M.f, (M.f)_i =
    sum_{a: i->j} f_j, the arrow exponent of f in h is (h - f).(M.f).  The
    terms of h, sorted by the key of f, are kept as prefix sums, and
    T(h, slope f) is the sum of those of key below that of f.  The f of
    the nonzero terms of h, h among them, are the first parts of its types.
    Every h has a nonzero term, since they sum to q^(dim R_h); most rows of
    a small table have only one, the count of h or a single f < h, and hold
    it as it is, unsorted.  Most pairs are dead, with a zero count of f or
    a zero tail of h - f, and cost no product.  A key of f at most the
    least key of the rest's terms leaves the tail sums[0] = 0, so such a
    pair is dropped before the bisection; a row with no live pair holds
    its own count without a list of terms.
    """
    box, pairs, columns, scaled = _lattice(d)
    keys = [sum(map(operator.mul, theta, row)) for row in scaled]
    parallel = {}
    for arrow in quiver.arrows:
        parallel[arrow] = parallel.get(arrow, 0) + 1
    zero = (0,) * len(box)
    flows = [zero] * quiver.vertex_count  # (M.f)_i over the box, by vertex i
    for (i, j), m in parallel.items():
        flow = map(m.__mul__, columns[j])
        flows[i] = list(flow if flows[i] is zero else map(operator.add, flows[i], flow))
    column = list(zip(*flows))
    bits = _coefficient_bits(sum(d))
    counts = [0] * len(box)
    tails = [((), (1,), ())]  # the tail of the zero vector is 1 below every bound
    for x in range(1, len(box)):
        # dot products of small ints, not products of packed values
        total = 1 << bits * sum(map(operator.mul, box[x], column[x]))
        terms = []
        for y, factors in pairs[x]:
            count = counts[y]
            if not count:
                continue
            below, sums, _ = tails[x - y]
            key = keys[y]
            if key <= below[0]:  # bisect_left would find 0, and sums[0] is 0
                continue
            t = sums[bisect_left(below, key)]
            if not t:
                continue
            for n, k in factors:
                count = mul(count, _q_binomial(n, k, bits))
            term = mul(count, t) << bits * sum(map(operator.mul, box[x - y], column[y]))
            terms.append((key, y, term))
            total -= term
        counts[x] = total
        if not terms:  # the count alone, nonzero since the terms sum to q^(dim R_h)
            tails.append(((keys[x],), (0, total), (x,)))
            continue
        if total:
            terms.append((keys[x], x, total))
        if len(terms) == 1:
            (key, y, term), = terms
            tails.append(((key,), (0, term), (y,)))
            continue
        terms.sort()  # by key, then in product order
        below, parts, partial = zip(*terms)
        tails.append((below, (0, *itertools.accumulate(partial)), parts))
    return box, counts, keys, tails


def _check_counting_input(quiver: Quiver, e, theta) -> tuple[DimVector, tuple]:
    """``(e, theta)`` as integer tuples, refused unless e is a nonzero
    dimension vector within ``MAX_SUBVECTORS`` and ``MAX_COUNTING_WORK`` and
    theta has one entry per vertex: the gate of the existence test and of
    the type enumeration."""
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
    degree = sum(e[i] * e[j] for i, j in quiver.arrows)
    if box ** 3 * (degree + 200) > MAX_COUNTING_WORK:
        raise ValueError(f"counting work above {MAX_COUNTING_WORK}")
    return e, theta


def has_semistable(quiver: Quiver, e, theta) -> bool:
    """Whether a theta-semistable representation of dimension vector e exists."""
    e, theta = _check_counting_input(quiver, e, theta)
    return bool(_sst_table(quiver, e, theta)[1][-1])


def enumerate_hn_types(quiver: Quiver, d, theta) -> list[HNType]:
    """All Harder-Narasimhan types for (quiver, d, theta).

    A type is an ordered tuple of nonzero dimension vectors summing to d,
    with strictly decreasing slopes, each admitting a semistable
    representation.  Requires theta . d = 0; the output is sorted
    lexicographically on the flattened parts and includes the trivial
    type (d,) exactly when d itself admits a semistable representation.
    The walk reads the first parts of each remainder from the table, by
    index, and enters no dead end: a nonzero term of f leaves a rest with a
    type of slopes all below that of f.  It keeps the prefixes still to
    extend on a stack, with no call per prefix.
    """
    d, theta = _check_counting_input(quiver, d, theta)
    if sum(t * x for t, x in zip(theta, d)) != 0:
        raise ValueError("theta . d must be zero")

    box, _, keys, tails = _sst_table(quiver, d, theta)
    types = []
    stack = [(len(box) - 1, inf, ())]  # (rest, bound, prefix) of the prefixes to extend
    while stack:
        x, bound, prefix = stack.pop()
        below, _, parts = tails[x]
        for y in parts[:bisect_left(below, bound)]:
            if y == x:  # the last part
                types.append(prefix + (y,))
            else:
                stack.append((x - y, keys[y], prefix + (y,)))
    # product order is lexicographic, so sorting the index sequences sorts
    # the types by their flattened parts
    types.sort()
    return [tuple(map(box.__getitem__, tau)) for tau in types]


def hn_stratum_codim(quiver: Quiver, tau) -> int:
    """Codimension of the stratum of a Harder-Narasimhan type:
    -sum_{k<l} <d^k, d^l> = -sum_l <d^1 + ... + d^(l-1), d^l>, since the
    Euler form is bilinear.  Each part is checked once."""
    parts = [quiver.check_dim(p) for p in tau]
    codim, before = 0, (0,) * quiver.vertex_count
    for part in parts:
        codim -= _euler_form(quiver, before, part)
        before = tuple(map(operator.add, before, part))
    return codim
