"""Reference routes and random generators used by the test suite.

Each fast path of the package keeps one reference route here, chosen to
share as little code with it as the mathematics allows, and a test compares
the two.  A mutant in code that both share is invisible to that comparison,
so each kept route names what it shares with ``src/quivercert``:

- Chow ring products, powers, det and exp: ``FractionChowElement`` and
  ``exp_by_fractions`` in Fraction coordinates, over ``PRODUCTS``, which is
  read from the hand-typed reductions ``_EXTRA_REDUCTIONS``.  They share the
  basis of ``chow`` (``BASIS``, ``DEGREES``, ``_INDEX`` and
  ``_BASIS_MONOMIALS``), which ``BASIS_BY_HAND`` and ``DEGREES_BY_HAND``
  check.  The 14 intersection numbers are integrated by torus localization,
  which shares ``quiver.Quiver`` and ``quiver.has_semistable`` (to find the
  fixed points); c(T_Y) and td(Y) are typed by hand as well.
- Chern characters: ``ch_by_fractions``, whose leaves come from Newton's
  identities here (``power_sums``).  It shares ``bundles.evaluate``, the one
  recursion over the operators.
- chi: ``euler_pairing_by_fractions``, dual(ch(E)) paired with ch(F) td(Y)
  by ``PAIRING`` of the hand-typed table, with td(Y) from the hand-typed
  Chern class (``todd_from_chern_roots``).  It shares ``bundles.evaluate``,
  through ``ch_by_fractions``.
- Ranks and characters: ``rank_by_ops`` and ``weights_by_lists``, one branch
  per operator over expanded weight lists, share only the expression trees
  and ``StratumWeights``.  ``weight_ranges_by_walk``, the reference for the
  twist rule of ``strata.weight_ranges``, walks the whole tree with
  ``bundles.characters`` over ``strata.unstable_strata``.
- Parsers: ``parse_chow_poly_by_scanner`` and ``parse_expr_by_scanner`` step
  one character at a time.  They share the ``ChowElement`` arithmetic and
  class elements of ``chow``, the node constructors of ``bundles``
  (``BundleExpr``, ``_fold``, ``twist`` and ``O``) and the names and limits
  of the grammars (``_FUNCTIONS``, ``_UNARY`` and ``MAX_DEPTH``).
- ``verify_collection``: ``verify_collection_by_fractions``, one
  ``StratumCheck`` per stratum and pair from the objects' weight ranges,
  chi from ``euler_pairing_by_fractions`` and the verdict from
  ``verdict_by_cases``.  It shares ``strata.weight_ranges``,
  ``strata.unstable_strata`` and the records of ``verify``.
- Harder-Narasimhan types and strata: brute force over small finite fields
  and King's criterion on Schofield's general subrepresentations, which
  share ``quiver.Quiver`` and ``quiver._check_hn_input``.  The slopes,
  one-parameter subgroups, codimensions and eta of the printed records are
  re-derived by ``check_hn``, which imports nothing from the package.
- Stability and syzygies: the Fraction parser and arithmetic, the gcd
  criterion ``is_stable_by_gcd`` and the row reduction ``sl3_by_dictionary``
  stand alone; ``pair_by_fractions`` and ``syzygy_tensors`` read
  ``repgeom.minors``, ``repgeom._syzygy``, ``repgeom.syzygies`` and
  ``repgeom.is_stable``.
- The command line: ``cli_by_argparse`` and its kin run ``cli.main`` on argv
  parsed by a fresh argparse parser built from ``cli.COMMANDS``, some of
  them with handlers replaced.

Helpers that left the package when nothing there called them any more stay
here too, for the tests that state properties with them.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import operator
import pkgutil
import random
import re
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from operator import mul, sub
from unittest import mock

from hypothesis import strategies as st

import check_hn
import quivercert
from quivercert import cli
from quivercert._linalg import render_ratio
from quivercert.bundles import (_FUNCTIONS, _UNARY, MAX_DEPTH, O, U1, U2, BundleExpr,
                                ExprSyntaxError, StratumWeights, WorkBudget, _fold, characters,
                                direct_sum, dual, evaluate, sl, tensor, twist)
from quivercert.chow import (_BASIS_MONOMIALS, _C1, _C2, _C3, _D2, _INDEX, BASIS, DEGREES,
                             ChowElement, ChowSyntaxError, RingInconsistencyError, ch_of)
from quivercert.quiver import (DimVector, Quiver, _check_hn_input, enumerate_hn_types,
                               has_semistable, reduced_slope)
from quivercert.repgeom import (QUAD_MONOMIALS, VARS, LinearFormMatrix, _syzygy, is_stable, minors,
                                syzygies)
from quivercert.strata import (Moduli, StratumCheck, one_ps_from_hn, unstable_strata,
                               weight_ranges)
from quivercert.verify import (EXCEPTIONAL, ORTHOGONAL, STRONG_EXT, UNDETERMINED, CollectionSpec,
                               PairStatus, VerificationMatrix)

F = Fraction


# -- names that nothing in the package calls ------------------------------------
#
# Helpers that left the package when its last caller did; the tests still
# use them to state and check properties.

#: The 3-Kronecker quiver.
KRONECKER3 = Quiver.kronecker(3)


def is_hn_type(quiver: Quiver, d, theta, tau) -> bool:
    """Validate the defining conditions of a Harder-Narasimhan type: nonzero
    parts that sum to d, of strictly decreasing slope compared by
    cross-multiplying, each with a semistable representation by
    ``semistable_by_subrepresentations``."""
    parts = [quiver.check_dim(p) for p in tau]
    if not parts or any(not any(p) for p in parts):
        return False
    d, theta = _check_hn_input(quiver, d, theta)
    if tuple(map(sum, zip(*parts))) != d:
        return False
    dots = [sum(map(mul, theta, p)) for p in parts]
    if any(a * sum(g) <= b * sum(f) for f, g, a, b in zip(parts, parts[1:], dots, dots[1:])):
        return False
    semistable = semistable_by_subrepresentations(quiver, d, theta)
    return all(semistable[p] for p in parts)


def _subvectors(e):
    """All nonzero dimension vectors f with 0 <= f <= e componentwise."""
    for f in itertools.product(*(range(x + 1) for x in e)):
        if any(f):
            yield f


def symmetry_functor(e: BundleExpr) -> BundleExpr:
    """The contravariant symmetry dual(e) (x) O(3)."""
    return twist(dual(e), 3)


@lru_cache(maxsize=1)
def mutation_ledger() -> dict[str, ChowElement]:
    """The K-theory classes l6 ... l2 of the shifted mutation bundles, by the
    exact-sequence recursion that ``verify.mutation_ledger_check`` checks."""
    ledger = {"l6": ch_of(twist(U2, 1))}
    ledger["l5"] = 6 * ch_of(O(1)) - ledger["l6"]
    ledger["l4"] = ledger["l5"] + 3 * ch_of(twist(dual(U2), 1))
    ledger["l3"] = 9 * ch_of(twist(dual(U1), 1)) - ledger["l4"]
    ledger["l2"] = (3 * ch_of(tensor(dual(U1), twist(U1, 2)))
                    - ch_of(tensor(dual(U1), twist(U2, 2))))
    return ledger


def tangent_chern() -> ChowElement:
    """Total Chern class of the tangent bundle: exp of the sum over Chern
    roots of log(1 + x), whose degree-k part is (-1)^(k-1) (k-1)! ch_k, in
    Fraction coordinates."""
    ch = tangent_ch_by_fractions()
    return from_coords(exp_by_fractions(sum(
        ((-1) ** (k - 1) * factorial(k - 1) * ch.degree_part(k) for k in range(1, 7)),
        FractionChowElement.zero())).coords)


# -- a ChowElement in Fraction coordinates -------------------------------------
#
# ChowElement holds integers over one denominator; these build and read it
# in Fraction coordinates, as its Fraction API did.

def from_coords(coords) -> ChowElement:
    """The element with the rational coordinates ``coords``."""
    coords = tuple(map(F, coords))
    if len(coords) != len(BASIS):
        raise ValueError("expected one coordinate per basis class")
    den = lcm(*(c.denominator for c in coords))
    return ChowElement([c.numerator * (den // c.denominator) for c in coords], den)


def coords_of(x: ChowElement) -> tuple[Fraction, ...]:
    """The exact rational coordinates of x."""
    return tuple(F(n, x.den) for n in x.nums)


def coefficient(x: ChowElement, label: str) -> Fraction:
    return F(x.nums[_INDEX[label]], x.den)


def integral(x: ChowElement) -> Fraction:
    """Degree-6 integral: the coefficient of the point class c3^2."""
    return coefficient(x, "c3^2")


def integer(value: Fraction, what: str) -> int:
    """A Riemann-Roch integral ``what``, which must be an integer: the check
    that ``chow.scaled_pairing`` makes on integers."""
    if value.denominator != 1:
        raise RingInconsistencyError(f"ring inconsistency: {what} = {value} is not an integer")
    return int(value)


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
    """Rank of a rational matrix by row reduction."""
    return len(rref(rows)[1]) if rows else 0


# -- tiny finite fields --------------------------------------------------------

class GF:
    """GF(q) for q prime or q = 4, elements encoded as 0..q-1."""

    def __init__(self, q: int):
        self.q = q
        if q == 4:
            # bit encoding a0 + a1*w with w^2 = w + 1
            self.add_table = [[a ^ b for b in range(4)] for a in range(4)]
            mul = [[0] * 4 for _ in range(4)]
            for a in range(4):
                for b in range(4):
                    a0, a1 = a & 1, a >> 1
                    b0, b1 = b & 1, b >> 1
                    c0 = (a0 * b0 + a1 * b1) % 2
                    c1 = (a0 * b1 + a1 * b0 + a1 * b1) % 2
                    mul[a][b] = c0 + 2 * c1
            self.mul_table = mul
        else:
            if any(q % p == 0 for p in range(2, q)):
                raise ValueError(f"GF({q}) not supported")
            self.add_table = [[(a + b) % q for b in range(q)] for a in range(q)]
            self.mul_table = [[(a * b) % q for b in range(q)] for a in range(q)]
        self.neg_table = [next(b for b in range(q) if self.add(a, b) == 0) for a in range(q)]
        self.inv_table = [None] + [
            next(b for b in range(1, q) if self.mul(a, b) == 1) for a in range(1, q)
        ]

    def __hash__(self):
        return hash(("GF", self.q))

    def __eq__(self, other):
        return isinstance(other, GF) and other.q == self.q

    def add(self, a, b):
        return self.add_table[a][b]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def neg(self, a):
        return self.neg_table[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError
        return self.inv_table[a]

    def elements(self):
        return range(self.q)


def gf_rref(field: GF, rows):
    """Reduced row echelon form over GF; returns (rows, pivots)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [field.add(x, field.neg(field.mul(f, y))) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def gf_rank(field, rows):
    return len(gf_rref(field, rows)[1])


def gf_in_span(field, basis, vec):
    return gf_rank(field, list(basis) + [list(vec)]) == gf_rank(field, list(basis))


@lru_cache(maxsize=None)
def gf_subspaces(field: GF, n: int, r: int):
    """All r-dimensional subspaces of GF(q)^n as canonical RREF bases."""
    if r == 0:
        return [()]
    vectors = [v for v in itertools.product(field.elements(), repeat=n) if any(v)]
    seen = {}
    for combo in itertools.combinations(vectors, r):
        m, pivots = gf_rref(field, [list(v) for v in combo])
        if len(pivots) != r:
            continue
        key = tuple(tuple(row) for row in m[:r])
        seen[key] = key
    return sorted(seen)


def gf_matvec(field, m, v):
    out = []
    for row in m:
        acc = 0
        for a, b in zip(row, v):
            acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return tuple(out)


class BruteRep:
    """A representation over GF(q): one matrix per arrow, shape d_target x d_source."""

    def __init__(self, quiver: Quiver, dims, mats):
        self.quiver = quiver
        self.dims = tuple(dims)
        self.mats = tuple(mats)


def all_reps(field: GF, quiver: Quiver, dims):
    """Every representation of the given dimension vector, enumerated."""
    shapes = [(dims[j], dims[i]) for i, j in quiver.arrows]
    entry_counts = [r * c for r, c in shapes]
    for flat in itertools.product(field.elements(), repeat=sum(entry_counts)):
        mats = []
        pos = 0
        for (r, c) in shapes:
            mats.append(tuple(tuple(flat[pos + i * c:pos + (i + 1) * c]) for i in range(r)))
            pos += r * c
        yield BruteRep(quiver, dims, mats)


def random_rep(field: GF, quiver: Quiver, dims, rng: random.Random):
    mats = []
    for i, j in quiver.arrows:
        mats.append(tuple(
            tuple(rng.randrange(field.q) for _ in range(dims[i])) for _ in range(dims[j])
        ))
    return BruteRep(quiver, dims, mats)


def subrep_dim_vectors(field: GF, rep: BruteRep):
    """Dimension vectors of all subrepresentations, with their witnesses."""
    quiver = rep.quiver
    per_vertex = [
        {r: gf_subspaces(field, rep.dims[i], r) for r in range(rep.dims[i] + 1)}
        for i in range(quiver.vertex_count)
    ]
    out = []
    dims_ranges = [range(d + 1) for d in rep.dims]
    for f in itertools.product(*dims_ranges):
        for choice in itertools.product(*(per_vertex[i][f[i]] for i in range(len(f)))):
            ok = True
            for a, (i, j) in enumerate(quiver.arrows):
                target_basis = [list(v) for v in choice[j]]
                for v in choice[i]:
                    image = gf_matvec(field, rep.mats[a], v)
                    if any(image) and not gf_in_span(field, target_basis, image):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append((f, choice))
    return out


def is_semistable_brute(field: GF, rep: BruteRep, theta) -> bool:
    mu_total = slope(theta, rep.dims)
    for f, _ in subrep_dim_vectors(field, rep):
        if not any(f) or f == rep.dims:
            continue
        if slope(theta, f) > mu_total:
            return False
    return True


def exists_semistable_brute(field: GF, quiver: Quiver, dims, theta,
                            rng: random.Random | None = None,
                            random_tries: int = 40) -> bool:
    """Positive-witness search: random sampling first, then exhaustion."""
    if rng is not None:
        for _ in range(random_tries):
            if is_semistable_brute(field, random_rep(field, quiver, dims, rng), theta):
                return True
    return any(is_semistable_brute(field, rep, theta) for rep in all_reps(field, quiver, dims))


def _quotient_rep(field: GF, rep: BruteRep, witness):
    """The quotient representation by an arrow-invariant subspace tuple."""
    quiver = rep.quiver
    comp_bases = []
    full_bases = []
    for i in range(quiver.vertex_count):
        sub = [list(v) for v in witness[i]]
        basis = [list(v) for v in witness[i]]
        comp = []
        for k in range(rep.dims[i]):
            unit = [0] * rep.dims[i]
            unit[k] = 1
            if not gf_in_span(field, basis, unit):
                basis.append(unit)
                comp.append(tuple(unit))
        comp_bases.append(comp)
        full_bases.append([tuple(v) for v in witness[i]] + comp)
    mats = []
    for a, (i, j) in enumerate(quiver.arrows):
        cols = []
        for v in comp_bases[i]:
            image = gf_matvec(field, rep.mats[a], v)
            coords = _gf_solve(field, full_bases[j], image)
            cols.append(coords[len(witness[j]):])
        rows = len(comp_bases[j])
        mats.append(tuple(
            tuple(cols[c][r] for c in range(len(cols))) for r in range(rows)
        ))
    dims = tuple(rep.dims[i] - len(witness[i]) for i in range(quiver.vertex_count))
    return BruteRep(quiver, dims, mats)


def _gf_solve(field: GF, basis, vec):
    """Coordinates of vec in the given basis (assumed spanning)."""
    n = len(vec)
    aug = [[basis[k][row] for k in range(len(basis))] + [vec[row]] for row in range(n)]
    m, pivots = gf_rref(field, aug)
    coords = [0] * len(basis)
    for row, c in zip(m, pivots):
        if c == len(basis):
            raise ValueError("vector outside span")
        coords[c] = row[-1]
    return coords


def hn_type_brute(field: GF, rep: BruteRep, theta):
    """Harder-Narasimhan type of a representation by direct maximization:
    the first part is the subrepresentation maximizing (slope, dimension),
    which is unique; recurse on the quotient."""
    if not any(rep.dims):
        return ()
    candidates = [
        (f, w) for f, w in subrep_dim_vectors(field, rep) if any(f)
    ]
    best = max((slope(theta, f), sum(f)) for f, _ in candidates)
    winners = [(f, w) for f, w in candidates if (slope(theta, f), sum(f)) == best]
    assert len(winners) == 1, "maximal destabilizing subrepresentation must be unique"
    f, witness = winners[0]
    if f == rep.dims:
        return (f,)
    return (f,) + hn_type_brute(field, _quotient_rep(field, rep, witness), theta)


# -- slopes as Fractions ---------------------------------------------------------

def slope(theta, e) -> Fraction:
    """The slope (theta . e) / sum(e) of a nonzero vector e as a Fraction,
    computed without ``quiver.reduced_slope``."""
    e = tuple(int(x) for x in e)
    if len(theta) != len(e):
        raise ValueError("length mismatch between theta and dimension vector")
    if sum(e) == 0:
        raise ValueError("undefined slope: zero dimension vector")
    return Fraction(sum(t * x for t, x in zip(theta, e)), sum(e))


# -- dense polynomials in one variable, coefficients ascending ------------------

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


@lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> tuple:
    """The Gaussian binomial coefficient [n choose k] as a polynomial in q."""
    if k in (0, n):
        return (1,)
    return poly_add(q_binomial(n - 1, k - 1), (0,) * k + q_binomial(n - 1, k))


# -- semistable existence from general subrepresentations ---------------------
#
# King (1994): a theta-semistable representation of dimension h exists
# exactly when theta.f / |f| <= theta.h / |h| for every nonzero dimension
# vector f of a subrepresentation of a general representation of dimension
# h, written f -> h.  Schofield (1992): f -> h exactly when ext(f, h - f) =
# 0, where ext(a, b) is the largest -<a', b> over the a' -> a.  So the
# relation is built bottom up over the subvectors of d from the Euler form
# alone, with no count, no polynomial and no q-binomial.


def general_subvectors(quiver: Quiver, d) -> dict:
    """For every h <= d, the f <= h with f -> h: f = h, or <g, h - f> >= 0
    for every g -> f, so that ext(f, h - f) = 0.  The zero vector is always
    among them.  The Euler form is written out here, so that this route
    shares no code with the package's."""
    arrows = Counter(quiver.arrows).items()

    def no_ext(gs, rest):  # ext(f, rest) = 0, given the g -> f
        return all(sum(map(mul, g, rest)) >= sum(m * g[i] * rest[j] for (i, j), m in arrows)
                   for g in gs)

    subs = {}
    for h in itertools.product(*(range(x + 1) for x in d)):  # every f < h comes first
        subs[h] = [f for f in itertools.product(*(range(x + 1) for x in h))
                   if f == h or no_ext(subs[f], tuple(map(sub, h, f)))]
    return subs


def semistable_by_subrepresentations(quiver: Quiver, d, theta) -> dict:
    """``{h: whether a theta-semistable representation of dimension h
    exists}`` over the nonzero h <= d: no f -> h has a slope above that of
    h, compared by cross-multiplying."""
    def dot(f):
        return sum(map(mul, theta, f))

    return {h: all(dot(f) * sum(h) <= dot(h) * sum(f) for f in fs)
            for h, fs in general_subvectors(quiver, d).items() if any(h)}


def hn_types_by_subvectors(quiver: Quiver, d, theta):
    """The Harder-Narasimhan types of d, found by walking every subvector f
    of each remainder and keeping those of Fraction slope below the last
    part that have a semistable representation by
    ``semistable_by_subrepresentations``, sorted like
    ``enumerate_hn_types``.  It enters dead ends, remainders with no type
    below the bound, and shares no code with the HN table."""
    d, theta = tuple(d), tuple(theta)
    semistable = semistable_by_subrepresentations(quiver, d, theta)
    slopes = {f: slope(theta, f) for f in semistable}
    types = []

    def extend(remaining, bound, prefix):
        if not any(remaining):
            types.append(tuple(prefix))
            return
        for f in _subvectors(remaining):
            if semistable[f] and (bound is None or slopes[f] < bound):
                extend(tuple(map(sub, remaining, f)), slopes[f], prefix + [f])

    extend(d, None, [])
    return sorted(types, key=lambda tau: tuple(itertools.chain.from_iterable(tau)))


# -- semistable representations counted over finite fields ----------------------


def poly_divmod(p, q):
    """Quotient and remainder of dense polynomials with rational
    coefficients, coefficients ascending."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    p = list(p)
    quot = [F(0)] * max(0, len(p) - len(q) + 1)
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
    """The monic greatest common divisor; () when both are zero."""
    p, q = poly_trim(p), poly_trim(q)
    while q:
        p, q = q, poly_divmod(p, q)[1]
    if p:
        lead = p[-1]
        p = tuple(a / lead for a in p)
    return p


def _monomial(n):
    return (F(0),) * n + (F(1),)


def gl_order(e):
    """Point count of GL(e) over a field with q elements, as a polynomial in q."""
    out = (F(1),)
    for n in e:
        for k in range(n):
            out = poly_mul(out, poly_sub(_monomial(n), _monomial(k)))
    return out


@lru_cache(maxsize=None)
def sst_count_by_fraction_slopes(quiver: Quiver, e: DimVector, theta: tuple) -> tuple:
    """Number of theta-semistable representations of dimension vector e
    over a field with q elements, as a polynomial in q with integer
    coefficients (Reineke's recursion), with every slope a Fraction: the
    one counting route, which the point-count and Poincare tests read.

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
    """
    # Tail counts live for this call only: recomputing them is cheap, while
    # keeping every (h, bound) state for the life of the process is not.
    tails = {}

    def first_part(g, f):
        rest = tuple(a - b for a, b in zip(g, f))
        out = sst_count_by_fraction_slopes(quiver, f, theta)
        for n, k in zip(g, f):
            out = poly_mul(out, q_binomial(n, k))
        shift = sum(rest[i] * f[j] for i, j in quiver.arrows)
        return poly_mul((0,) * shift + out, tail(rest, slope(theta, f)))

    def tail(h, bound):
        if not any(h):
            return (1,)
        if (h, bound) not in tails:
            total = ()
            for f in _subvectors(h):
                if slope(theta, f) < bound:
                    total = poly_add(total, first_part(h, f))
            tails[h, bound] = total
        return tails[h, bound]

    total = (0,) * sum(e[i] * e[j] for i, j in quiver.arrows) + (1,)
    for f in _subvectors(e):
        if f != e:
            total = poly_sub(total, first_part(e, f))
    return total


# -- Todd class from Chern roots ----------------------------------------------

def _series_mul(a, b, order=7):
    out = [F(0)] * order
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if i + j < order:
                out[i + j] += x * y
    return out


def _series_log(q, order=7):
    u = list(q)
    u[0] -= 1
    out = [F(0)] * order
    power = [F(1)] + [F(0)] * (order - 1)
    for k in range(1, order):
        power = _series_mul(power, u, order)
        sign = F(-1) ** (k + 1)
        for i, x in enumerate(power):
            out[i] += sign * x / k
    return out


def power_sums(e, cls):
    """Power sums p_1, ..., p_6 of the Chern roots, from the Chern classes
    e = (e_1, e_2, ...) via Newton's identities, in the element class cls."""
    p = []
    for k in range(1, 7):
        term = cls.zero()
        for i in range(1, min(k, len(e)) + 1):
            sign = 1 if i % 2 == 1 else -1
            term = term + sign * (k * e[i - 1] if i == k else e[i - 1] * p[k - i - 1])
        p.append(term)
    return p


def todd_from_chern_roots() -> "FractionChowElement":
    """Todd class rebuilt from the coordinates of the tangent Chern classes:
    power sums via Newton's identities, then exp of sum_m a_m p_m where a_m
    are the series coefficients of log(t / (1 - exp(-t))); the arithmetic
    runs in Fraction coordinates."""
    total = FractionChowElement(coords_of(tangent_chern_by_hand()))
    p = power_sums([total.degree_part(k) for k in range(1, 7)], FractionChowElement)
    q_series = [F(1), F(1, 2), F(1, 12), F(0), F(-1, 720), F(0), F(1, 30240)]
    a = _series_log(q_series)
    arg = FractionChowElement.zero()
    for m in range(1, 7):
        arg = arg + a[m] * p[m - 1]
    out = FractionChowElement.unit()
    power = FractionChowElement.unit()
    fact = 1
    for k in range(1, 7):
        power = power * arg
        fact *= k
        out = out + F(1, fact) * power
    return out


# -- ranks and weights, one branch per operator ------------------------------
#
# The routes that bundles.evaluate replaced, written out operator by
# operator: ranks, and weights as expanded lists.  They share nothing with
# the package but the expression trees.

def rank_by_ops(e: BundleExpr) -> int:
    if e.op == "U1":
        return 2
    if e.op == "U2":
        return 3
    if e.op in ("O", "det"):
        return 1
    if e.op == "dual":
        return rank_by_ops(e.args[0])
    if e.op == "tensor":
        return rank_by_ops(e.args[0]) * rank_by_ops(e.args[1])
    if e.op == "sum":
        return rank_by_ops(e.args[0]) + rank_by_ops(e.args[1])
    r = rank_by_ops(e.args[0])
    if e.op == "sl":
        return r * r - 1
    if e.op == "sym2":
        return r * (r + 1) // 2
    if e.op == "wedge2":
        return r * (r - 1) // 2
    raise ValueError(f"unknown operator {e.op!r}")


def weights_by_lists(e: BundleExpr, base: StratumWeights) -> list[int]:
    """The weight multiset of an expression as an expanded list."""
    if e.op == "U1":
        return list(base.u1)
    if e.op == "U2":
        return list(base.u2)
    if e.op == "O":
        return [-e.args[0] * sum(base.u1)]
    if e.op == "tensor":
        left = weights_by_lists(e.args[0], base)
        right = weights_by_lists(e.args[1], base)
        return [a + b for a in left for b in right]
    if e.op == "sum":
        return weights_by_lists(e.args[0], base) + weights_by_lists(e.args[1], base)
    ws = weights_by_lists(e.args[0], base)
    if e.op == "dual":
        return [-w for w in ws]
    if e.op == "det":
        return [sum(ws)]
    if e.op == "sl":
        out = [a - b for i, a in enumerate(ws) for j, b in enumerate(ws) if i != j]
        return out + [0] * (len(ws) - 1)
    if e.op == "sym2":
        return [ws[i] + ws[j] for i in range(len(ws)) for j in range(i, len(ws))]
    if e.op == "wedge2":
        return [ws[i] + ws[j] for i in range(len(ws)) for j in range(i + 1, len(ws))]
    raise ValueError(f"unknown operator {e.op!r}")


def weights_of(e: BundleExpr, base: StratumWeights) -> tuple[int, ...]:
    """The weight multiset of an expression, sorted descending, from its
    character: the helper ``bundles`` dropped when no route needed it."""
    ws = [w for w, m in characters([base], e, WorkBudget()).maps[0].items() for _ in range(m)]
    return tuple(sorted(ws, reverse=True))


def weight_ranges_by_walk(e: BundleExpr, moduli: Moduli, budget: WorkBudget) -> tuple:
    """``strata.weight_ranges`` from one uncached walk of the whole tree, twists included."""
    maps = characters([s.weights for s in unstable_strata(moduli)], e, budget).maps
    return tuple((min(c), max(c)) if c else None for c in maps)


def hostile_two_node_expr() -> BundleExpr:
    """(U1 (x) U2)^6 (x) P + (U1 (x) U2)^8 (x) P, P a product of 12 sums
    O(0) + O(2^k) with 4096 weights on every stratum of Y."""
    p = tensor(*[direct_sum(O(0), O(2 ** k)) for k in range(12)])
    return direct_sum(*[tensor(tensor(*[tensor(U1, U2)] * n), p) for n in (6, 8)])


# -- the Chow ring in Fraction coordinates ------------------------------------
#
# The route that integer coordinates over one common denominator replaced:
# ChowElement, exp and the pairing as they were, with coordinates stored as a
# tuple of Fractions, over the product table of the hand-typed reductions
# below.  They share only the basis labels and degrees with ``chow``.

class FractionChowElement:
    """An element of the Chow ring, stored as exact rational coordinates
    over the 13-class basis."""

    __slots__ = ("coords", "_hash")

    def __init__(self, coords):
        coords = tuple(F(x) for x in coords)
        if len(coords) != len(BASIS):
            raise ValueError("expected one coordinate per basis class")
        self.coords = coords

    @classmethod
    def zero(cls) -> "FractionChowElement":
        return cls([0] * len(BASIS))

    @classmethod
    def unit(cls) -> "FractionChowElement":
        return cls([1] + [0] * (len(BASIS) - 1))

    @classmethod
    def basis(cls, label: str) -> "FractionChowElement":
        coords = [F(0)] * len(BASIS)
        coords[_INDEX[label]] = F(1)
        return cls(coords)

    def coefficient(self, label: str) -> Fraction:
        return self.coords[_INDEX[label]]

    def degree_part(self, k: int) -> "FractionChowElement":
        return FractionChowElement(
            [c if DEGREES[i] == k else F(0) for i, c in enumerate(self.coords)]
        )

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other):
        if not isinstance(other, FractionChowElement):
            return NotImplemented
        return FractionChowElement([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        if not isinstance(other, FractionChowElement):
            return NotImplemented
        return FractionChowElement([a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return FractionChowElement([-a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionChowElement([a * other for a in self.coords])
        if not isinstance(other, FractionChowElement):
            return NotImplemented
        out = [F(0)] * len(BASIS)
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            for j, b in enumerate(other.coords):
                if b == 0:
                    continue
                ab = a * b
                for k, c in PRODUCTS[i][j]:
                    out[k] += ab * c
        return FractionChowElement(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        if n == 0:
            return FractionChowElement.unit()
        if n > 6 and self.coords[0] == 0:
            return FractionChowElement.zero()  # nilpotent: products vanish past degree 6
        root = self ** (n // 2)
        return root * root * self if n % 2 else root * root

    def dual(self) -> "FractionChowElement":
        """Chern character of the dual: negate odd-degree parts."""
        return FractionChowElement(
            [-c if DEGREES[i] % 2 else c for i, c in enumerate(self.coords)]
        )

    def psi2(self) -> "FractionChowElement":
        """Second Adams operation on Chern characters: scale the degree-k
        part by 2^k."""
        return FractionChowElement([c * (2 ** DEGREES[i]) for i, c in enumerate(self.coords)])

    def det(self) -> "FractionChowElement":
        """Chern character of the determinant: exp of the degree-1 part."""
        return exp_by_fractions(self.degree_part(1))

    def half(self) -> "FractionChowElement":
        return F(1, 2) * self

    def __eq__(self, other):
        return isinstance(other, FractionChowElement) and self.coords == other.coords

    def __hash__(self):
        # cached: hashing 13 fractions is slow, and the Todd class is hashed
        # once per object in every certified collection
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self.coords)
            return self._hash

    def __repr__(self):
        terms = [
            f"{c}*{BASIS[i]}" for i, c in enumerate(self.coords) if c != 0
        ]
        return " + ".join(terms) if terms else "0"

    def to_json_dict(self) -> dict:
        return {label: render_by_fractions(c) for label, c in zip(BASIS, self.coords)}


def exp_by_fractions(x: FractionChowElement) -> FractionChowElement:
    """exp of an element with zero degree-0 part, truncated in degree 6."""
    if not x.degree_part(0).is_zero():
        raise ValueError("exp needs vanishing degree-0 part")
    out = FractionChowElement.unit()
    power = FractionChowElement.unit()
    for k in range(1, 7):
        power = power * x
        if power.is_zero():
            break
        out = out + F(1, factorial(k)) * power
    return out


def pairing_by_fractions(x: FractionChowElement, y: FractionChowElement) -> Fraction:
    """The integral of x * y, without forming the product."""
    xs, ys = x.coords, y.coords
    return sum(xs[i] * ys[j] * c for i, j, c in PAIRING)


# -- the hand-typed Chow ring data ---------------------------------------------
#
# The tables that chow now derives from its basis monomials, the 14
# intersection numbers and the K-class of the tangent bundle; the product
# table of FractionChowElement is read from them.

#: Basis labels in order, grouped by codimension 0..6.
BASIS_BY_HAND = (
    "[Y]",
    "c1",
    "c1^2", "c2", "d2",
    "c1*c2", "c1*d2", "c3",
    "c2^2", "c2*d2", "d2^2",
    "c2*c3",
    "c3^2",
)

DEGREES_BY_HAND = (0, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 6)

# Reductions of non-basis monomials into basis coordinates.
_EXTRA_REDUCTIONS: dict[tuple[int, int, int, int], dict[str, Fraction]] = {
    # degree 3
    (3, 0, 0, 0): {"c1*d2": F(4), "c3": F(-3)},
    # degree 4
    (4, 0, 0, 0): {"c2^2": F(-3), "c2*d2": F(9), "d2^2": F(3)},
    (2, 1, 0, 0): {"c2*d2": F(1), "d2^2": F(3)},
    (2, 0, 1, 0): {"d2^2": F(3)},
    (1, 0, 0, 1): {"c2^2": F(1), "c2*d2": F(-3), "d2^2": F(3)},
    # degree 5, all proportional to c2*c3
    (5, 0, 0, 0): {"c2*c3": F(19)},
    (3, 1, 0, 0): {"c2*c3": F(9)},
    (3, 0, 1, 0): {"c2*c3": F(6)},
    (2, 0, 0, 1): {"c2*c3": F(5, 3)},
    (1, 2, 0, 0): {"c2*c3": F(14, 3)},
    (1, 1, 1, 0): {"c2*c3": F(3)},
    (1, 0, 2, 0): {"c2*c3": F(2)},
    (0, 0, 1, 1): {"c2*c3": F(2, 3)},
    # degree 6, all proportional to the point class c3^2
    (6, 0, 0, 0): {"c3^2": F(57)},
    (4, 1, 0, 0): {"c3^2": F(27)},
    (4, 0, 1, 0): {"c3^2": F(18)},
    (3, 0, 0, 1): {"c3^2": F(5)},
    (2, 2, 0, 0): {"c3^2": F(14)},
    (2, 1, 1, 0): {"c3^2": F(9)},
    (2, 0, 2, 0): {"c3^2": F(6)},
    (1, 1, 0, 1): {"c3^2": F(3)},
    (1, 0, 1, 1): {"c3^2": F(2)},
    (0, 3, 0, 0): {"c3^2": F(9)},
    (0, 2, 1, 0): {"c3^2": F(5)},
    (0, 1, 2, 0): {"c3^2": F(3)},
    (0, 0, 3, 0): {"c3^2": F(2)},
}


def products_by_hand():
    """``[i][j]``: the nonzero ``(k, c)`` with basis_i * basis_j = sum of
    c * basis_k, c a Fraction, by k.  A product that is a basis monomial is
    itself, any other of degree at most 6 is read from ``_EXTRA_REDUCTIONS``,
    and one of higher degree vanishes."""
    units = {m: {label: F(1)} for m, label in zip(_BASIS_MONOMIALS, BASIS_BY_HAND)}
    table = []
    for mi in _BASIS_MONOMIALS:
        row = []
        for mj in _BASIS_MONOMIALS:
            m = tuple(map(operator.add, mi, mj))
            terms = ({} if sum(map(mul, m, (1, 2, 2, 3))) > 6
                     else units.get(m) or _EXTRA_REDUCTIONS[m])
            row.append(tuple(sorted((BASIS_BY_HAND.index(label), c)
                                    for label, c in terms.items())))
        table.append(tuple(row))
    return tuple(table)


#: The product table of FractionChowElement.
PRODUCTS = products_by_hand()

#: ``(i, j, c)`` for the nonzero integrals c of basis_i * basis_j, from
#: ``PRODUCTS``.
PAIRING = tuple((i, j, c) for i, row in enumerate(PRODUCTS) for j, terms in enumerate(row)
                for k, c in terms if BASIS_BY_HAND[k] == "c3^2")


def _from_labels(terms) -> ChowElement:
    coefficients = dict(terms)
    return from_coords(coefficients.get(label, 0) for label in BASIS)


def tangent_chern_by_hand() -> ChowElement:
    """Total Chern class of the tangent bundle, graded pieces in basis
    coordinates."""
    return _from_labels([
        ("[Y]", 1), ("c1", 3), ("c1^2", 3), ("d2", 5), ("c1*d2", 16), ("c3", -9),
        ("c2^2", -9), ("c2*d2", 27), ("d2^2", 4), ("c2*c3", 17), ("c3^2", 13),
    ])


def todd_by_hand() -> ChowElement:
    """Todd class of Y; the degree-3 piece is stated with c1^3 already
    reduced to basis coordinates."""
    return _from_labels([
        ("[Y]", 1), ("c1", F(3, 2)), ("c1^2", 1), ("d2", F(5, 12)), ("c1*d2", F(17, 8)),
        ("c3", F(-9, 8)), ("c2^2", F(-1, 4)), ("c2*d2", F(3, 4)), ("d2^2", F(553, 360)),
        ("c2*c3", F(77, 60)), ("c3^2", 1),
    ])


# -- the intersection numbers by torus localization -------------------------
#
# T = (C*)^3 scales the three arrows.  Its fixed points on Y are the stable
# lifts of (2,3) to the covering quiver with vertices (i, w), w in Z^3, and
# an arrow (1, w) -> (2, w + e_k) for each k, one isolated point each; then
# the integral of a class f over Y is the sum of f(p) / e(T_p Y) over the
# fixed points p (Atiyah-Bott, Topology 23, 1984; Weist, Represent. Theory
# 17, 2013).  Weights are read as integers by their dot product with the
# generic vector EPSILON.

EPSILON = (1, 7, 31)
_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _plus(*weights):
    return tuple(map(sum, zip(*weights)))


def _minus(w, v):
    return tuple(a - b for a, b in zip(w, v))


def _at_epsilon(w) -> int:
    return sum(a * b for a, b in zip(w, EPSILON))


@lru_cache(maxsize=1)
def localization_fixed_points() -> tuple:
    """The T-fixed points of Y, one per translation class, as pairs (V1, V2)
    of weight tuples: V1 = (0, a) with a in [-2, 2]^3 lexicographically at
    least 0, since (0, a) and (0, -a) differ by a translation, and V2 three
    weights u + e_k with u in V1.  A lift is a fixed point when its moduli
    space on the covering quiver is one point: 1 - <d, d> = 0 and a
    representation semistable for theta = 3 on V1 and -2 on V2 exists
    ((2,3) is coprime, so it is stable)."""
    points = []
    for a in itertools.product(range(-2, 3), repeat=3):
        if a < (0, 0, 0):
            continue
        v1 = ((0, 0, 0), a)
        targets = sorted({_plus(u, e) for u in v1 for e in _UNITS})
        for v2 in itertools.combinations_with_replacement(targets, 3):
            first, second = sorted(set(v1)), sorted(set(v2))
            quiver = Quiver(len(first) + len(second), tuple(
                (i, len(first) + second.index(_plus(u, e)))
                for i, u in enumerate(first) for e in _UNITS if _plus(u, e) in second))
            dim = tuple(v1.count(u) for u in first) + tuple(v2.count(v) for v in second)
            theta = (3,) * len(first) + (-2,) * len(second)
            euler = sum(x * x for x in dim) - sum(dim[i] * dim[j] for i, j in quiver.arrows)
            if euler == 1 and has_semistable(quiver, dim, theta):
                points.append((v1, v2))
    return tuple(points)


def tangent_weights(v1, v2) -> list:
    """The six weights of T_p Y = sum_k Hom(V1, V2 (x) t_k^-1) - End V1 -
    End V2 + 1 at the fixed point (V1, V2)."""
    weights = Counter(_minus(_minus(v, u), e) for u in v1 for v in v2 for e in _UNITS)
    weights.subtract(_minus(x, y) for x in v1 for y in v1)
    weights.subtract(_minus(x, y) for x in v2 for y in v2)
    weights[(0, 0, 0)] += 1
    assert min(weights.values()) >= 0 and weights[(0, 0, 0)] == 0, (v1, v2)
    return list(weights.elements())


def _elementary(roots) -> list:
    """(1, e_1, e_2, ...): the elementary symmetric functions of the roots."""
    e = [1]
    for r in roots:
        e = [a + r * b for a, b in zip(e + [0], [0] + e)]
    return e


@lru_cache(maxsize=1)
def _localization_data() -> tuple:
    """Per fixed point, the Chern classes (1, c_1, ...) of U2*, U1* and T_Y
    at EPSILON.  The roots of U_i* are -(w + s) over the weights w of V_i,
    with s = sum w(V1) - sum w(V2) from the twist (1, -1)."""
    out = []
    for v1, v2 in localization_fixed_points():
        s = _minus(_plus(*v1), _plus(*v2))
        c, d = (_elementary([-_at_epsilon(_plus(w, s)) for w in v]) for v in (v2, v1))
        assert c[1] == d[1]  # c_1(U2*) = c_1(U1*)
        out.append((c, d, _elementary(map(_at_epsilon, tangent_weights(v1, v2)))))
    return tuple(out)


def localization_integral(f) -> Fraction:
    """The integral over Y of the degree-6 class f(c, d, t), where c, d and
    t are the lists (1, c_1, ...) of Chern classes of U2*, U1* and T_Y."""
    return sum((F(f(c, d, t), t[6]) for c, d, t in _localization_data()), F(0))


def monomial_degree(m) -> int:
    a, b, e, f = m
    return a + 2 * b + 2 * e + 3 * f


def monomials_of_degree(k: int) -> list:
    """The exponent vectors (a, b, e, f) of c1^a c2^b d2^e c3^f of degree k."""
    return [m for m in itertools.product(range(7), range(4), range(4), range(3))
            if monomial_degree(m) == k]


def monomial_at(m, c, d):
    """c1^a c2^b d2^e c3^f from the Chern classes c of U2* and d of U1*."""
    a, b, e, f = m
    return c[1] ** a * c[2] ** b * d[2] ** e * c[3] ** f


def integrals_by_localization() -> dict:
    """The 14 intersection numbers of Y, keyed by (a, b, e, f) as
    ``chow._INTEGRALS``."""
    return {m: localization_integral(lambda c, d, t, m=m: monomial_at(m, c, d))
            for m in monomials_of_degree(6)}


# -- the sl3 dictionary by row reduction ---------------------------------------
#
# The route that the closed-form sl3 coordinates replaced.

def _tensor(terms):
    """An 18-tuple over (quadratic monomial, variable) from (m, v, c) terms."""
    t = [F(0)] * 18
    for qm, v, coeff in terms:
        t[QUAD_MONOMIALS.index(qm) * 3 + VARS.index(v)] += coeff
    return tuple(t)


def _unit_matrix(i, j):
    m = [[F(0)] * 3 for _ in range(3)]
    m[i - 1][j - 1] = F(1)
    return m


def _diagonal(*entries):
    return [[F(entries[i]) if i == j else F(0) for j in range(3)] for i in range(3)]


#: Kernel tensors of Sym^2 W (x) W -> Sym^3 W and their traceless matrices;
#: unit matrix positions are (row, column), 1-based.
SL3_DICTIONARY = (
    (_unit_matrix(1, 3), _tensor([("x^2", "y", 1), ("xy", "x", -1)])),
    (_unit_matrix(1, 2), _tensor([("x^2", "z", -1), ("xz", "x", 1)])),
    (_unit_matrix(2, 3), _tensor([("y^2", "x", -1), ("xy", "y", 1)])),
    (_unit_matrix(3, 1), _tensor([("z^2", "y", -1), ("yz", "z", 1)])),
    (_unit_matrix(2, 1), _tensor([("y^2", "z", 1), ("yz", "y", -1)])),
    (_unit_matrix(3, 2), _tensor([("z^2", "x", 1), ("xz", "z", -1)])),
    (_diagonal(-1, 1, 0), _tensor([("yz", "x", 1), ("xz", "y", 1), ("xy", "z", -2)])),
    (_diagonal(0, -1, 1), _tensor([("xz", "y", 1), ("xy", "z", 1), ("yz", "x", -2)])),
)


def sl3_by_dictionary(t):
    """The traceless matrix of a kernel tensor, by solving for its
    coordinates over the dictionary with an 18 x 9 row reduction."""
    k = len(SL3_DICTIONARY)
    aug = [[vec[i] for _, vec in SL3_DICTIONARY] + [F(t[i])] for i in range(18)]
    m, pivots = rref(aug)
    if k in pivots:
        raise ValueError("tensor outside the span of the dictionary")
    coeffs = [F(0)] * k
    for row, c in zip(m, pivots):
        coeffs[c] = row[k]
    out = [[F(0)] * 3 for _ in range(3)]
    for (unit, _), coeff in zip(SL3_DICTIONARY, coeffs):
        for i in range(3):
            for j in range(3):
                out[i][j] += coeff * unit[i][j]
    return tuple(tuple(row) for row in out)


# -- the acceptance rule of the summary ----------------------------------------

def accepted_by_four_keys(matrix: VerificationMatrix) -> bool:
    """The acceptance rule that ``VerificationMatrix.accepted`` replaced: all
    four keys of the summary hold, including that undetermined pairs lie
    only below the diagonal, which the other three imply."""
    pairs = [p for row in matrix.pairs for p in row]
    return (all(p.verdict == EXCEPTIONAL for p in pairs if p.i == p.j)
            and all(p.verdict == STRONG_EXT for p in pairs if p.i < p.j)
            and all(p.chi == 0 for p in pairs if p.i > p.j)
            and all(p.i > p.j for p in pairs if p.verdict == UNDETERMINED))


# -- stratum checks by margins ------------------------------------------------
#
# The route that ``teleman_certify`` replaced by one loop: margins first,
# then the rule, then the checks.

def _margins(strata, max_weights) -> list[int | None]:
    """eta - max_weight on each stratum, from a bundle's largest weight
    there; None for the zero bundle (max weight None)."""
    return [None if w is None else s.eta - w for s, w in zip(strata, max_weights)]


def _certified(margin: int | None) -> bool:
    """The rule margin >= 1.  The zero bundle has no weights to bound and is
    vacuously certified."""
    return margin is None or margin >= 1


def stratum_checks(strata, max_weights) -> tuple[StratumCheck, ...]:
    """One check per stratum from a bundle's largest weight there."""
    return tuple(StratumCheck(s.hn_type, s.eta, w, m, _certified(m))
                 for s, w, m in zip(strata, max_weights, _margins(strata, max_weights)))


# -- collection verification by rational pairings ----------------------------
#
# The route that integer Gram rows and comparison vectors replaced: the
# per-object weight ranges, combined per pair into one StratumCheck per
# stratum, and chi in Fraction arithmetic.  Chern characters and the Todd
# class are evaluated in FractionChowElement, so no integer ChowElement is
# involved; the Todd class comes from the hand-typed Chern class.

def ch_leaf_by_fractions(e: BundleExpr) -> FractionChowElement:
    c1, c2, c3, d2 = (FractionChowElement.basis(label) for label in ("c1", "c2", "c3", "d2"))
    if e.op == "O":
        return exp_by_fractions(e.args[0] * c1)
    chern, n = ((c1, d2), 2) if e.op == "U1" else ((c1, c2, c3), 3)
    out = n * FractionChowElement.unit()
    for k, pk in enumerate(power_sums(chern, FractionChowElement), start=1):
        out = out + F(1, factorial(k)) * pk
    return out.dual()


@lru_cache(maxsize=None)
def ch_by_fractions(e: BundleExpr) -> FractionChowElement:
    """The Chern character of an expression in Fraction coordinates."""
    return evaluate(e, ch_leaf_by_fractions, ch_by_fractions)


@lru_cache(maxsize=1)
def todd_by_fractions() -> FractionChowElement:
    return todd_from_chern_roots()


@lru_cache(maxsize=None)
def euler_pairing_by_fractions(e: BundleExpr, f: BundleExpr) -> int:
    """chi(dual(e) (x) f) as the 31-term rational pairing of dual(ch(e))
    with ch(f) * Todd(Y), all in Fraction coordinates."""
    value = pairing_by_fractions(ch_by_fractions(e).dual(),
                                 ch_by_fractions(f) * todd_by_fractions())
    return integer(value, f"chi({e}, {f})")


def tangent_ch_by_fractions() -> FractionChowElement:
    """ch(T_Y) from the K-class 3 Hom(U1, U2) - End U1 - End U2 + O."""
    return (3 * ch_by_fractions(tensor(dual(U1), U2)) - ch_by_fractions(tensor(dual(U1), U1))
            - ch_by_fractions(tensor(dual(U2), U2)) + FractionChowElement.unit())


def verdict_by_cases(i: int, j: int, chi_value: int, passed: bool) -> str:
    """The verdict on the pair (i, j) as the docstring of ``verify`` states
    it: a certificate plus chi 1 on the diagonal, chi at least 0 above it
    and chi 0 below it."""
    if not passed:
        return UNDETERMINED
    if i == j:
        return EXCEPTIONAL if chi_value == 1 else UNDETERMINED
    if i < j:
        return STRONG_EXT if chi_value >= 0 else UNDETERMINED
    return ORTHOGONAL if chi_value == 0 else UNDETERMINED


def verify_collection_by_fractions(spec: CollectionSpec, moduli: Moduli) -> VerificationMatrix:
    objects = [e for _, e in spec.objects]
    ranges = [weight_ranges(e, moduli, WorkBudget()) for e in objects]
    strata = unstable_strata(moduli)
    grid = []
    for i, low in enumerate(ranges):
        row = []
        for j, high in enumerate(ranges):
            checks = stratum_checks(strata, [None if a is None or b is None else b[1] - a[0]
                                             for a, b in zip(low, high)])
            chi_value = euler_pairing_by_fractions(objects[i], objects[j])
            passed = all(c.passed for c in checks)
            blocking = tuple((c.hn_type, c.margin) for c in checks if not c.passed)
            row.append(PairStatus(i, j, chi_value, passed,
                                  verdict_by_cases(i, j, chi_value, passed), blocking))
        grid.append(tuple(row))
    return VerificationMatrix(tuple(grid))


# -- variant collections and Chern-character identities typed by hand ----------
#
# The data that ``verify.VARIANTS`` and ``verify.mutate`` replaced.

def _block_by_hand(k: int) -> list[tuple[str, BundleExpr]]:
    """The four objects O(k), U2*(k), U1*(k), U2(k+1), labelled."""
    return [
        (f"O({k})", O(k)),
        (f"U2*({k})", twist(dual(U2), k)),
        (f"U1*({k})", twist(dual(U1), k)),
        (f"U2({k + 1})", twist(U2, k + 1)),
    ]


def _variants_by_hand() -> dict[str, tuple[tuple[str, BundleExpr], ...]]:
    slv = sl(dual(U1))
    a0, a1, a2 = _block_by_hand(0), _block_by_hand(1), _block_by_hand(2)
    variants = {
        "sl_after_block0": a0 + [("sl(U1*)(1)", twist(slv, 1))] + a1 + a2,
        "sl_after_block1": a0 + a1 + [("sl(U1*)(2)", twist(slv, 2))] + a2,
        "sl_after_block2": a0 + a1 + a2 + [("sl(U1*)(3)", twist(slv, 3))],
        "tensor_for_u2_1": [
            ("O", O(0)), ("U2*", dual(U2)), ("U1*", dual(U1)),
            ("O(1)", O(1)), ("U2*(1)", twist(dual(U2), 1)), ("U1*(1)", twist(dual(U1), 1)),
            ("U2(2)", twist(U2, 2)), ("sl(U1*)(2)", twist(slv, 2)), ("O(2)", O(2)),
            ("U1*xU2(2)", tensor(dual(U1), twist(U2, 2))),
            ("U2*(2)", twist(dual(U2), 2)), ("U1*(2)", twist(dual(U1), 2)),
            ("U2(3)", twist(U2, 3)),
        ],
        "tensor_for_u2star_2": [
            ("O", O(0)), ("U2*", dual(U2)), ("U1*", dual(U1)), ("U2(1)", twist(U2, 1)),
            ("U1*xU2*", tensor(dual(U1), dual(U2))),
            ("O(1)", O(1)), ("sl(U1*)(1)", twist(slv, 1)),
            ("U2*(1)", twist(dual(U2), 1)), ("U1*(1)", twist(dual(U1), 1)),
            ("U2(2)", twist(U2, 2)), ("O(2)", O(2)),
            ("U1*(2)", twist(dual(U1), 2)), ("U2(3)", twist(U2, 3)),
        ],
    }
    return {name: tuple(objects) for name, objects in variants.items()}


#: The five variant collections as literal lists, block 0 spelled
#: O(0), U2*(0) = twist(dual(U2), 0) and U1*(0) = twist(dual(U1), 0).
VARIANTS_BY_HAND = _variants_by_hand()


def ch_identities_by_hand() -> dict[str, tuple[ChowElement, ChowElement]]:
    """The four identities of ``verify.check_ch_identities`` as ``(lhs, rhs)``
    Chern characters, their right-hand sides typed as coefficient sums."""
    slv = sl(dual(U1))
    return {
        "sl_twist_exchange": (
            ch_of(slv),
            ch_of(twist(slv, 1)) + 3 * ch_of(dual(U2)) - 3 * ch_of(twist(U2, 1))),
        "rank6_tensor_twist1": (
            ch_of(tensor(dual(U1), twist(U2, 1))),
            -ch_of(U2) + 6 * ch_of(O(0)) + 3 * ch_of(dual(U2)) - 9 * ch_of(dual(U1))
            + 3 * ch_of(twist(slv, 1)) + 3 * ch_of(O(1))),
        "rank6_tensor_twist2": (
            ch_of(tensor(dual(U1), twist(U2, 2))),
            -ch_of(twist(U2, 1)) + 6 * ch_of(O(1)) + 3 * ch_of(twist(dual(U2), 1))
            - 9 * ch_of(twist(dual(U1), 1)) + 3 * ch_of(twist(slv, 2)) + 3 * ch_of(O(2))),
        "rank6_tensor_expanded": (
            ch_of(tensor(dual(U1), twist(U2, 1))),
            -ch_of(U2) + 3 * ch_of(slv) + 6 * ch_of(O(0)) - 6 * ch_of(dual(U2))
            - 9 * ch_of(dual(U1)) + 9 * ch_of(twist(U2, 1)) + 3 * ch_of(O(1))),
    }


# -- stability by a rank test and a gcd --------------------------------------
#
# The route that the rank of the minors replaced.

def row_space_basis(rows):
    """Canonical basis of the row space, usable for comparing spans."""
    m, pivots = rref(rows)
    return tuple(tuple(m[i]) for i in range(len(pivots)))


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


def is_stable_by_gcd(r: FractionMatrix) -> bool:
    """GIT stability as surjectivity of the adjoint map plus, for every
    nonzero v in C^2, rank at least 2 of the three images of v; the second
    condition is decided by the gcd of the nine 2x2-minor binary quadratics
    in v."""
    # coeff[k]: the 2x3 rational matrix of the coefficients of variable k
    coeff = [[[entry[k] for entry in row] for row in r.rows] for k in range(3)]
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


# -- matrices of linear forms in Fraction arithmetic --------------------------
#
# The route that integer rows over one denominator replaced: the parser
# into Fraction coefficients, the Fraction-valued matrix and syzygy
# records, every product and sum in Fraction arithmetic, the rank by row
# reduction, the rendering of Fraction coefficients, and the stability
# and syzygies commands built on them.

def linear_form(cx=0, cy=0, cz=0):
    return (F(cx), F(cy), F(cz))


X = linear_form(1, 0, 0)
Y = linear_form(0, 1, 0)
Z = linear_form(0, 0, 1)
ZERO_FORM = linear_form()


def render_form_by_fractions(coeffs, monomials, times: str) -> str:
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


def render_by_fractions(x):
    """A rational as the JSON output shows it: an int, or "p/q"."""
    x = Fraction(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class FractionMatrix:
    """A 2x3 matrix of linear forms in x, y, z with Fraction coefficients."""

    rows: tuple

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
            ",".join(render_form_by_fractions(entry, VARS, "") for entry in row)
            for row in self.rows
        )


@dataclass(frozen=True)
class FractionSyzygyPair:
    """The minors, syzygy tensors and traceless matrices of a matrix, as
    Fractions, and its degeneracy flag."""

    minors: tuple
    tensors: tuple
    sl3: tuple
    degenerate: bool


def matrix(rows) -> LinearFormMatrix:
    """The integer matrix of rows of rational linear forms: each row over
    the lcm of its reduced denominators, which is coprime to the row."""
    cleared = []
    for row in FractionMatrix(tuple(map(tuple, rows))).rows:
        d = lcm(*(c.denominator for entry in row for c in entry))
        cleared.append((tuple(tuple(c.numerator * (d // c.denominator) for c in entry)
                              for entry in row), d))
    (top, da), (bottom, db) = cleared
    return LinearFormMatrix((top, bottom), (da, db))


def fraction_matrix(r: LinearFormMatrix) -> FractionMatrix:
    """The Fraction coefficients of an integer matrix."""
    return FractionMatrix(tuple(tuple(tuple(F(n, d) for n in entry) for entry in row)
                                for row, d in zip(r.rows, r.dens)))


def syzygy_tensors(r: LinearFormMatrix):
    """The two integer syzygy tensors that ``repgeom.syzygies`` maps to sl3,
    each as ``(integers, den)``, the true tensor times ``den > 0``."""
    m, den = minors(r)
    return tuple((_syzygy(row, m), den * d) for row, d in zip(r.rows, r.dens))


def pair_by_fractions(r: LinearFormMatrix) -> FractionSyzygyPair:
    """The integer route's minors, syzygy tensors, sl3 plane and stability
    of a matrix, with every value divided by its denominator."""
    forms, den = minors(r)
    return FractionSyzygyPair(
        minors=tuple(tuple(F(n, den) for n in q) for q in forms),
        tensors=tuple(tuple(F(n, d) for n in t) for t, d in syzygy_tensors(r)),
        sl3=tuple(tuple(tuple(F(n, d) for n in row) for row in m) for m, d in syzygies(r)),
        degenerate=not is_stable(r))


def parse_linear_form_by_fractions(text: str):
    """Parse forms like ``x``, ``-y``, ``2x+3z``, ``1/2x - y``, ``0``: every
    term after the first starts with a sign, spaces stand only at the ends
    and next to a sign, and "*" only after a coefficient; a digit is a
    decimal digit (str.isdecimal), which int reads."""
    s = text.strip(" ")
    if not s:
        raise ValueError("empty entry")
    coeffs = [F(0), F(0), F(0)]
    i = 0
    while i < len(s):
        start = i
        while i < len(s) and s[i] in "+- ":
            i += 1
        signs = s[start:i].replace(" ", "")
        if start and not signs:  # a term with no sign before it
            raise ValueError(f"cannot parse linear form {text!r}")
        sign = -1 if signs.count("-") % 2 else 1
        start = i
        while i < len(s) and (s[i].isdecimal() or s[i] == "/"):
            i += 1
        number = s[start:i]
        if number and i < len(s) and s[i] == "*":
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


def parse_matrix_by_fractions(text: str) -> FractionMatrix:
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
        parsed.append(tuple(parse_linear_form_by_fractions(e) for e in entries))
    return FractionMatrix(tuple(parsed))


#: ``_QUAD_INDEX[i][j]``: the index in QUAD_MONOMIALS of x_i * x_j.
_QUAD_INDEX = [[QUAD_MONOMIALS.index(f"{VARS[i]}^2" if i == j else VARS[min(i, j)]
                                     + VARS[max(i, j)]) for j in range(3)] for i in range(3)]


def _lf_mul_by_fractions(u, v):
    q = [F(0)] * 6
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            q[_QUAD_INDEX[i][j]] += a * b
    return tuple(q)


def _sl3_by_fractions(t):
    """The traceless matrix of a kernel tensor by the formulas of
    ``repgeom.to_sl3``, entry by entry in Fraction arithmetic."""
    def at(i, j, k):
        return F(t[_QUAD_INDEX[i][j] * 3 + k])

    out = [[F(0)] * 3 for _ in range(3)]
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        out[i][i] = (at(i, j, k) - at(i, k, j)) / 3
        out[i][k] = at(i, i, j)
        out[i][j] = -at(i, i, k)
    return tuple(tuple(row) for row in out)


def syzygies_by_fractions(r: FractionMatrix) -> FractionSyzygyPair:
    """The minors, syzygy tensors, sl3 plane and degeneracy of a matrix,
    all in Fraction arithmetic."""
    (a, b, c), (d, e, f) = r.rows
    quadrics = tuple(
        tuple(p - q for p, q in zip(_lf_mul_by_fractions(u, v), _lf_mul_by_fractions(w, z)))
        for u, v, w, z in ((b, f, c, e), (a, f, c, d), (a, e, b, d)))

    def build(row):
        t = [F(0)] * 18
        for form, sign, mi in zip(row, (1, -1, 1), quadrics):
            for vi in range(3):
                for qi in range(6):
                    t[qi * 3 + vi] += sign * form[vi] * mi[qi]
        return tuple(t)

    tensors = (build((a, b, c)), build((d, e, f)))
    return FractionSyzygyPair(minors=quadrics, tensors=tensors,
                              sl3=tuple(_sl3_by_fractions(t) for t in tensors),
                              degenerate=rank(list(quadrics)) != 3)


def commutes_by_fractions(p) -> bool:
    """Whether two 3x3 Fraction matrices commute."""
    a, b = p

    def mul(m, n):
        return [[sum(m[i][k] * n[k][j] for k in range(3)) for j in range(3)] for i in range(3)]

    return mul(a, b) == mul(b, a)


def stability_command_by_fractions(args) -> tuple[dict, int]:
    """The ``stability`` handler on the Fraction route."""
    r = parse_matrix_by_fractions(args.matrix)
    pair = syzygies_by_fractions(r)
    stable = not pair.degenerate
    return {
        "matrix": str(r),
        "stable": stable,
        "minors": [render_form_by_fractions(q, QUAD_MONOMIALS, "*") for q in pair.minors],
        "minors_independent": stable,
        "abelian_plane": commutes_by_fractions(pair.sl3) if stable else None,
    }, 0


def syzygies_command_by_fractions(args) -> tuple[dict, int]:
    """The ``syzygies`` handler on the Fraction route."""
    r = parse_matrix_by_fractions(args.matrix)
    pair = syzygies_by_fractions(r)
    doc = {
        "matrix": str(r),
        "sl3": [[[render_by_fractions(x) for x in row] for row in m] for m in pair.sl3],
        "kernel_ok": True,
        "commute": commutes_by_fractions(pair.sl3),
    }
    if pair.degenerate:
        doc["warning"] = "degenerate syzygy: input matrix is unstable"
    return doc, 0


def hn_types_command_by_calls(args) -> tuple[dict, int]:
    """The ``hn-types`` handler that rebuilt every row on each call, each
    type and block copied into lists, before the rows were read from
    ``strata.hn_records``: the slopes through ``reduced_slope``, the
    subgroup from them through ``one_ps_from_hn``, and the
    codimension and eta from the outside checker ``check_hn``."""
    quiver = Quiver.from_spec(args.quiver, "--quiver")
    d = cli._parse_int_tuple(args.dim, "--dim")
    theta = cli._parse_int_tuple(args.theta, "--theta")
    counts = Counter(quiver.arrows)
    rows = []
    for tau in enumerate_hn_types(quiver, d, theta):
        slopes = [reduced_slope(theta, p) for p in tau]
        blocks = one_ps_from_hn(tau, slopes)
        codim, eta = check_hn.codim_and_eta(counts, blocks)
        row = {"parts": [list(p) for p in tau], "codim": codim, "semistable_stratum": len(tau) == 1,
               "slopes": [render_ratio(*slope) for slope in slopes],
               "eta": None if len(tau) == 1 else eta}
        if len(tau) > 1:
            row["one_ps"] = [[list(block) for block in vertex] for vertex in blocks]
        rows.append(row)
    return {"quiver": {"vertices": quiver.vertex_count, "arrows": [list(a) for a in quiver.arrows]},
            "dim": list(d), "theta": list(theta), "types": rows}, 0


#: The encoders of the CLI before they skipped the check for cycles.
_ENCODERS_WITH_CYCLE_CHECK = (json.JSONEncoder(sort_keys=True, separators=(",", ":")),
                              json.JSONEncoder(sort_keys=True, indent=2))


@lru_cache(maxsize=None)
def _argparse_parser(replaced=()) -> argparse.ArgumentParser:
    """A fresh full parser of the CLI, built from ``cli.COMMANDS`` with the
    handlers of the ``(command, handler)`` pairs ``replaced`` in its place."""
    handlers = dict(replaced)
    commands = {name: (handlers.get(name, func), *rest)
                for name, (func, *rest) in cli.COMMANDS.items()}
    with mock.patch.object(cli, "COMMANDS", commands):
        return cli.build_parser.__wrapped__()


def parse_by_argparse(argv, replaced=()):
    """``argv`` parsed by a fresh full parser alone, the value of
    "--opt=--" read as the text "--": the route of every argv before
    ``cli`` read valid ones from its table (``replaced`` as for
    ``_argparse_parser``)."""
    args = _argparse_parser(replaced).parse_args(argv)
    for name, value in vars(args).items():
        if value == []:
            setattr(args, name, "--")
    return args


def cli_by_argparse(argv, replaced=()) -> tuple[int, str]:
    """Exit code and stdout of ``cli.main(argv)`` with ``argv`` parsed by
    ``parse_by_argparse``."""
    out = io.StringIO()
    with mock.patch.object(cli, "_parse_args", lambda argv: parse_by_argparse(argv, replaced)), \
            contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_by_fractions(argv) -> tuple[int, str]:
    """Exit code and stdout of ``cli.main(argv)`` with the stability and
    syzygies commands on the Fraction route, parsed by argparse."""
    return cli_by_argparse(argv, (("stability", stability_command_by_fractions),
                                  ("syzygies", syzygies_command_by_fractions)))


def cli_by_calls(argv) -> tuple[int, str]:
    """Exit code and stdout of ``cli.main(argv)`` with ``hn-types`` rebuilding
    its rows per call, the encoders checking for cycles and every moduli flag
    read on each call, parsed by argparse."""
    compact, pretty = _ENCODERS_WITH_CYCLE_CHECK
    with mock.patch.object(cli, "_COMPACT", compact), mock.patch.object(cli, "_PRETTY", pretty):
        return cli_by_argparse(argv, (("hn-types", hn_types_command_by_calls),))


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


# -- the character-stepping parsers -------------------------------------------
#
# The bundle-expression and Chow-polynomial parsers as they stepped through
# their input one character at a time.  They read a digit as anything that
# str.isdigit accepts, so text with a digit that int rejects, such as "²",
# gets Python's own int() message (or a different position) from them.

#: Whitespace, then an identifier.
_IDENTIFIER_BY_SCANNER = re.compile(r"\s*(\w*)")


class Scanner:
    """A cursor over input text, shared by the hand-written parsers."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, accept) -> str:
        """Skip whitespace, then consume the longest run of characters
        that ``accept`` accepts."""
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and accept(self.text[self.pos]):
            self.pos += 1
        return self.text[start:self.pos]


class _ExprScanner(Scanner):
    def expect(self, ch: str):
        if self.peek() != ch:
            raise ExprSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def name(self) -> str:
        match = _IDENTIFIER_BY_SCANNER.match(self.text, self.pos)
        self.pos = match.end()
        ident = match[1]
        if not ident:
            raise ExprSyntaxError("expected identifier", self.pos)
        return ident

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() in "+-":
            self.pos += 1
        self.take(str.isdigit)
        try:
            return int(self.text[start:self.pos])
        except ValueError:
            raise ExprSyntaxError("expected integer", start) from None

    def expr(self, level: int = 1) -> tuple[BundleExpr, int]:
        start = self.pos
        if level > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH}", start)
        ident = self.name()
        if ident in ("U1", "U2"):
            return BundleExpr(ident), 1
        if ident == "O":
            self.expect("(")
            n = self.integer()
            self.expect(")")
            return O(n), 1
        if ident not in _FUNCTIONS:
            raise ExprSyntaxError(f"unknown identifier {ident!r}", start)
        self.expect("(")
        first, depth = self.expr(level + 1)
        args = [first]
        while self.peek() == ",":
            self.pos += 1
            if ident == "twist" and len(args) == 1:
                arg, arg_depth = self.integer(), 1
            else:
                arg, arg_depth = self.expr(level + 1)
            args.append(arg)
            depth = max(depth, arg_depth) + 1
        self.expect(")")
        if len(args) == 1:
            depth += 1
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH}", start)
        if ident in _UNARY:
            if len(args) != 1:
                raise ExprSyntaxError(f"{ident} takes one argument", start)
            return BundleExpr(ident, tuple(args)), depth
        if ident == "twist":
            if len(args) != 2 or not isinstance(args[1], int):
                raise ExprSyntaxError("twist takes an expression and an integer", start)
            return twist(args[0], args[1]), depth
        if len(args) < 2:
            raise ExprSyntaxError(f"{ident} takes at least two arguments", start)
        return _fold(ident, args), depth


def parse_expr_by_scanner(text: str) -> BundleExpr:
    """``bundles.parse_expr`` one character at a time."""
    p = _ExprScanner(text)
    e, _ = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        raise ExprSyntaxError("trailing input", p.pos)
    return e


class _PolyScanner(Scanner):
    _ATOMS = {"c1": _C1, "c2": _C2, "c3": _C3, "d1": _C1, "d2": _D2}

    depth = 0  # parentheses open at the cursor

    def fail(self, message):
        raise ChowSyntaxError(f"{message} (at position {self.pos})")

    def parse(self) -> ChowElement:
        out = self.sum_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail("trailing input")
        return out

    def refuse_digits(self, bits: int, what: str) -> None:
        limit = sys.get_int_max_str_digits()
        if limit and 3 * bits >= 10 * limit:
            raise ValueError(f"the {what} exceeds the limit ({limit} digits)"
                             f" for integer string conversion (at position {self.pos})")

    def sign(self) -> int:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.peek() == "-":
                sign = -sign
            self.pos += 1
        return sign

    def sum_expr(self) -> ChowElement:
        out = self.sign() * self.term()
        while self.peek() in ("+", "-"):
            out = out + self.sign() * self.term()
        return out

    def term(self) -> ChowElement:
        out = self.power()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
            elif not (ch.isalnum() or ch == "("):
                return out
            out = out * self.power()
            self.refuse_digits((max(map(abs, out.nums)) // out.den).bit_length() - 1, "product")

    def power(self) -> ChowElement:
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            digits = self.take(str.isdigit)
            if not digits:
                self.fail("expected exponent")
            n, a, den = int(digits), abs(base.nums[0]), base.den
            self.refuse_digits(n * ((max(a, den) // gcd(a, den)).bit_length() - 1), "power")
            return base ** n
        return base

    def atom(self) -> ChowElement:
        ch = self.peek()
        if ch == "(":
            self.depth += 1
            if self.depth > MAX_DEPTH:
                self.fail(f"parentheses nested deeper than {MAX_DEPTH}")
            self.pos += 1
            out = self.sum_expr()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.pos += 1
            self.depth -= 1
            return out
        if ch.isdigit():
            return int(self.take(str.isdigit)) * ChowElement.unit()
        if ch.isalpha():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isalnum():
                name = self.text[start:self.pos + 1]
                self.pos += 1
                if name in self._ATOMS:
                    return self._ATOMS[name]
            self.pos = start
            self.fail("unknown class name")
        self.fail("expected class, number, or '('")


def parse_chow_poly_by_scanner(text: str) -> ChowElement:
    """``chow.parse_chow_poly`` one character at a time."""
    return _PolyScanner(text).parse()


# -- the package's caches --------------------------------------------------------

def package_modules() -> list:
    """The modules of the package, all but ``__main__``, whose import runs
    the command line."""
    return [importlib.import_module(f"quivercert.{info.name}")
            for info in pkgutil.iter_modules(quivercert.__path__) if info.name != "__main__"]


def package_caches() -> dict:
    """Every cache of the package by qualified name: those among the module
    globals and among the attributes of the classes a module defines, so that
    a cached classmethod is found too."""
    found = {}
    for module in package_modules():
        values = list(vars(module).values())
        values += [value for cls in values if isinstance(cls, type)
                   and cls.__module__ == module.__name__ for value in vars(cls).values()]
        for value in values:
            value = getattr(value, "__func__", value)
            if hasattr(value, "cache_info"):
                found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


def clear_package_caches() -> None:
    """Empty every cache that ``package_caches`` finds, so that no entry made
    before answers for a patched class or a refused constructor."""
    for cached in package_caches().values():
        cached.cache_clear()


# -- random generators ---------------------------------------------------------

#: Characters that parser texts mix in besides their grammar's: whitespace
#: that is not ASCII, a letter that is not ASCII, a decimal digit that int
#: reads but that is not ASCII, and "_", which a word may hold.
ODD_CHARACTERS = ("\t", "\u3000", "é", "٣", "_")


def decimal_digits_only(text: str) -> bool:
    """Whether every character of ``text`` that str.isdigit accepts is a
    decimal digit, which int reads."""
    return all(ch.isdecimal() for ch in text if ch.isdigit())


def parser_texts(tokens, samples) -> st.SearchStrategy[str]:
    """Texts for a parser: runs of its grammar's ``tokens`` and of
    ODD_CHARACTERS, and ``samples`` with one to three characters inserted,
    deleted or replaced; none with a digit that int rejects, such as "²"."""
    chars = st.sampled_from(sorted(set("".join(tokens)).union(ODD_CHARACTERS))) | st.characters()

    @st.composite
    def mutated(draw):
        text = draw(st.sampled_from(samples))
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(text)))
            kind = draw(st.integers(0, 2))  # insert, delete, replace
            text = text[:i] + (draw(chars) if kind != 1 else "") + text[i + (kind > 0):]
        return text

    runs = st.lists(st.sampled_from(tuple(tokens) + ODD_CHARACTERS), max_size=16).map("".join)
    return (runs | mutated()).filter(decimal_digits_only)


def parse_outcome(parse, text: str):
    """The value of ``parse(text)``, or the type and message of its error."""
    try:
        return parse(text)
    except Exception as exc:  # noqa: BLE001 (every outcome is compared)
        return type(exc), str(exc)


_LEAVES = [U1, U2]


def random_expr(rng: random.Random, depth: int = 3, max_rank: int = 48) -> BundleExpr:
    """A random bundle expression with bounded rank."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.3:
            return O(rng.randint(-3, 3))
        return rng.choice(_LEAVES)
    op = rng.choice(["dual", "tensor", "sum", "det", "sl", "sym2", "wedge2", "twist"])
    child = random_expr(rng, depth - 1, max_rank)
    if op == "sl" and rank_by_ops(child) < 1:
        op = "dual"
    if op == "dual":
        out = BundleExpr("dual", (child,))
    elif op == "det":
        out = BundleExpr("det", (child,))
    elif op in ("sl", "sym2", "wedge2"):
        out = BundleExpr(op, (child,))
    elif op == "twist":
        out = BundleExpr("tensor", (child, O(rng.randint(-3, 3))))
    else:
        other = random_expr(rng, depth - 1, max_rank)
        out = BundleExpr(op, (child, other))
    if rank_by_ops(out) > max_rank or rank_by_ops(out) == 0:
        return rng.choice(_LEAVES)
    return out


def random_linear_form(rng: random.Random, lo=-2, hi=2):
    return (F(rng.randint(lo, hi)), F(rng.randint(lo, hi)), F(rng.randint(lo, hi)))


def random_matrix(rng: random.Random) -> LinearFormMatrix:
    return matrix([
        tuple(random_linear_form(rng) for _ in range(3)),
        tuple(random_linear_form(rng) for _ in range(3)),
    ])


def random_rational_matrix(rng: random.Random) -> LinearFormMatrix:
    """A matrix with coefficients p/q, q in 1..12, distinct denominators
    within each row, and about a third of them zero."""
    rows = []
    for _ in range(2):
        dens = rng.sample(range(1, 13), 9)
        coeffs = [F(rng.randint(-5, 5), q) if rng.random() > 0.3 else F(0) for q in dens]
        rows.append(tuple(tuple(coeffs[3 * j:3 * j + 3]) for j in range(3)))
    return matrix(rows)


#: Matrix entries that a parser must read as the ``Fraction`` route does, or
#: refuse with its message: malformed numerals, spaces inside numbers,
#: digits that ``str.isdigit`` accepts but ``int`` does not read (the
#: superscript two), decimal digits of other scripts (Arabic-Indic three,
#: fullwidth three and four), a numeral past the digit limit, and others.
ODD_ENTRIES = (
    "1/", "/2", "1/2/3", "0/0", "0/0x", "1/0", "x*", "0*", "2*", "2**x", "1 2x", "1 / 2y",
    "- 3 z", "\u0663x", "1/\u0663y", "\uff13/\uff14z", "\u00b2x", "x+\u00b2", "1\u00b2/3z",
    "\u2167x", "0", "00/7", "+", "--x", "-+-y", "xy", "xx", "1\tx", "0\u00a0", "w", " ", "",
    "3", "1" + "0" * 4300 + "x", "1/" + "7" * 4301 + "y",
)


def _random_term(rng: random.Random, var: str) -> str:
    number = rng.choice(("", "", "1", "2", "0", str(rng.randint(0, 99))))
    if number and rng.random() < 0.4:
        number += f"/{rng.randint(0, 12)}"  # zero denominators included
    if number and rng.random() < 0.2:
        number += rng.choice(("*", " * "))
    return number + var


def random_entry_text(rng: random.Random) -> str:
    """A linear form as text: mostly well formed, with spaces, signs and
    rational coefficients, sometimes one of ``ODD_ENTRIES``."""
    if rng.random() < 0.2:
        return rng.choice(ODD_ENTRIES)
    terms = [_random_term(rng, v) for v in rng.sample(VARS, rng.randint(0, 3))] or ["0"]
    out = rng.choice(("", "", "-", " -", "+"))
    for i, term in enumerate(terms):
        out += (rng.choice(("+", "-", " + ", " - ")) if i else "") + term
    return out


def random_matrix_text(rng: random.Random) -> str:
    """Text for ``--matrix``: the rendering of an integer or rational
    matrix, or two rows of random entries, now and then misshapen."""
    kind = rng.random()
    if kind < 0.2:
        return str(fraction_matrix(random_matrix(rng)))
    if kind < 0.4:
        return str(fraction_matrix(random_rational_matrix(rng)))
    rows = [[random_entry_text(rng) for _ in range(3)] for _ in range(2)]
    if rng.random() < 0.05:
        rng.choice(rows).pop()
    return ";".join(map(",".join, rows))


def random_stable_matrix(rng: random.Random) -> LinearFormMatrix:
    while True:
        r = random_matrix(rng)
        if is_stable(r):
            return r


def random_invertible(rng: random.Random, n: int):
    while True:
        m = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if rank(m) == n:
            return m
