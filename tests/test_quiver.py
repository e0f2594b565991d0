import gc
import itertools
import json
import math
import operator
import random
import re
import sys
import time
import tracemalloc
from bisect import bisect_left
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from golden import HN_TYPES_23
from oracles import (
    GF,
    KRONECKER3,
    all_reps,
    euler_form,
    exists_semistable_brute,
    gl_order,
    hn_stratum_codim,
    hn_stratum_codim_by_pairs,
    hn_table_with_generic,
    hn_type_brute,
    hn_types_by_subvectors,
    is_hn_type,
    is_hn_type_by_fraction_slopes,
    is_semistable_brute,
    poly_mul,
    semistable_by_subrepresentations,
    slope,
    sst_count_by_fraction_slopes,
)
from quivercert import _linalg
from quivercert import quiver as quiver_module
from quivercert.chow import DEGREES
from quivercert.quiver import (
    MAX_ARROWS,
    MAX_CACHED_SETUPS,
    MAX_SUBVECTORS,
    MAX_VERTICES,
    Quiver,
    _check_hn_input,
    _hn_table,
    _lattice,
    enumerate_hn_types,
    has_semistable,
    reduced_slope,
)

A2 = Quiver(2, ((0, 1),))

#: The 3-Kronecker ladder with theta = (d_1, -d_0).
LADDER = ((2, 3), (3, 4), (3, 5), (4, 5), (4, 7))


def _poly_at(p, q):
    return sum(c * q ** i for i, c in enumerate(p))


@st.composite
def quiver_dim_theta(draw, balanced=False):
    """An acyclic quiver on up to 3 vertices, a nonzero dimension vector of
    total at most 6 and a stability parameter, with theta . e = 0 when
    ``balanced``."""
    n = draw(st.integers(1, 3))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    arrows = tuple(p for p in pairs for _ in range(draw(st.integers(0, 3))))
    e = draw(st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: any(e) and sum(e) <= 6))
    theta = draw(st.tuples(*[st.integers(-3, 3)] * n))
    if balanced:
        dot = sum(t * x for t, x in zip(theta, e))
        theta = tuple(t * sum(e) - dot for t in theta)
    return Quiver(n, arrows), e, theta


@st.composite
def benchmark_shapes(draw):
    """A quiver, dimension vector and theta as the hn_ladder workload of the
    benchmark draws them: three vertices, 0-3 arrows i -> j for each i < j
    (at least one arrow), d a permutation of (1,1,1), (1,1,2), (1,2,2) or
    (1,1,3), and theta = d x v, nonzero, for v in [-3, 3]^3."""
    d = draw(st.permutations(draw(st.sampled_from(((1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 1, 3))))))
    counts = draw(st.tuples(*[st.integers(0, 3)] * 3).filter(any))
    arrows = tuple(p for p, c in zip(((0, 1), (0, 2), (1, 2)), counts) for _ in range(c))
    v = draw(st.tuples(*[st.integers(-3, 3)] * 3))
    theta = (d[1] * v[2] - d[2] * v[1], d[2] * v[0] - d[0] * v[2], d[0] * v[1] - d[1] * v[0])
    assume(any(theta))
    return Quiver(3, arrows), tuple(d), theta


@st.composite
def hn_candidates(draw, balanced=False):
    """``quiver_dim_theta`` with a candidate chain tau: parts that sum to d,
    parts drawn below d, zero parts and parts of the wrong shape included,
    or, for balanced theta, one of the enumerated types."""
    quiver, d, theta = draw(quiver_dim_theta(balanced=balanced))
    kinds = ["split", "random"] + ["enumerated"] * balanced
    kind = draw(st.sampled_from(kinds))
    if kind == "enumerated":
        return quiver, d, theta, draw(st.sampled_from(enumerate_hn_types(quiver, d, theta)))
    if kind == "split":
        tau, rest = (), d
        for _ in range(draw(st.integers(0, 3))):
            part = draw(st.tuples(*[st.integers(0, x) for x in rest]))
            tau, rest = tau + (part,), tuple(a - b for a, b in zip(rest, part))
        return quiver, d, theta, tau + ((rest,) if any(rest) else ())
    part = st.one_of(st.tuples(*[st.integers(0, x) for x in d]),
                     st.lists(st.integers(-1, 3), max_size=4).map(tuple))
    return quiver, d, theta, draw(st.lists(part, max_size=4).map(tuple))


class TestQuiver:
    def test_kronecker_shorthand(self):
        q = Quiver.from_spec("kronecker:3")
        assert q == KRONECKER3
        assert q.vertex_count == 2
        assert q.arrows == ((0, 1),) * 3

    def test_arrow_count_is_bounded(self):
        assert len(Quiver.kronecker(MAX_ARROWS).arrows) == MAX_ARROWS
        with pytest.raises(ValueError, match=f"above {MAX_ARROWS}"):
            Quiver.from_spec(f"kronecker:{MAX_ARROWS + 1}")

    def test_arrow_count_is_bounded_on_every_route(self):
        spec = {"vertices": 2, "arrows": [[0, 1]] * MAX_ARROWS}
        assert len(Quiver.from_spec(json.dumps(spec)).arrows) == MAX_ARROWS
        spec["arrows"].append([0, 1])
        with pytest.raises(ValueError, match=f"^arrow count above {MAX_ARROWS}$"):
            Quiver.from_spec(json.dumps(spec))
        with pytest.raises(ValueError, match=f"^arrow count above {MAX_ARROWS}$"):
            Quiver(3, ((0, 1), (1, 2)) * (MAX_ARROWS // 2) + ((0, 2),))

    def test_vertex_count_is_bounded(self):
        assert Quiver(MAX_VERTICES, ()).vertex_count == MAX_VERTICES
        with pytest.raises(ValueError, match=f"vertex count above {MAX_VERTICES}"):
            Quiver(10 ** 12, ())

    def test_long_path_is_acyclic_and_a_long_cycle_is_not(self):
        n = MAX_VERTICES
        path = tuple((i, i + 1) for i in range(n - 1))
        assert Quiver(n, path).arrows == path
        with pytest.raises(ValueError, match="acyclic"):
            Quiver(n, path + ((n - 1, 0),))

    def test_interleaved_arrows_keep_their_order(self):
        # the groups are a function of the arrows: equality, hashing and the
        # JSON follow the arrows as given
        q = Quiver(3, ((0, 1), (1, 2), (0, 1)))
        assert q.to_json_dict() == {"vertices": 3, "arrows": ((0, 1), (1, 2), (0, 1))}
        assert q.groups == tuple((i, j, m) for (i, j), m in Counter(q.arrows).items())
        assert q.groups == ((0, 1, 2), (1, 2, 1))
        again = Quiver.from_spec(json.dumps(q.to_json_dict()))
        assert again == q and hash(again) == hash(q)
        assert Quiver(3, ((0, 1), (0, 1), (1, 2))) != q

    def test_json_roundtrip(self):
        q = Quiver(3, ((0, 1), (1, 2), (0, 2)))
        import json

        assert Quiver.from_spec(json.dumps(q.to_json_dict())) == q

    @pytest.mark.parametrize("spec,key", [
        ('{"vertices": 2}', "arrows"),
        ('{"arrows": [[0, 1]]}', "vertices"),
        ("[2]", "vertices"),
        ('{"vertices": 2, "arrows": [5]}', "arrow pairs"),
    ])
    def test_incomplete_json_names_the_key(self, spec, key):
        with pytest.raises(ValueError, match=key):
            Quiver.from_spec(spec)

    @pytest.mark.parametrize("spec", ["foo", "kronecker:x", "kronecker:1.5", "kronecker", "{",
                                      "kronecker:0_3"])
    def test_unreadable_spec_names_both_forms(self, spec):
        forms = "'kronecker:m' or JSON {\"vertices\":n,\"arrows\":[[i,j],..]}"
        with pytest.raises(ValueError, match=re.escape(f"a quiver spec must be {forms}")):
            Quiver.from_spec(spec)
        with pytest.raises(ValueError, match=re.escape(f"--q must be {forms}")):
            Quiver.from_spec(spec, "--q")

    @pytest.mark.parametrize("spec", [
        '{"vertices": 2, "arrows": [[0, 1.5]]}',
        '{"vertices": 2, "arrows": [[0, true]]}',
        '{"vertices": true, "arrows": []}',
        '{"vertices": 2.0, "arrows": [[0, 1]]}',
        '{"vertices": "2", "arrows": [[0, 1]]}',
        '{"vertices": 2, "arrows": [[0, 1, 1]]}',
        '{"vertices": 2, "arrows": {"0": 1}}',
    ])
    def test_json_non_integers_are_refused(self, spec):
        with pytest.raises(ValueError, match="integer vertex count and arrow pairs"):
            Quiver.from_spec(spec)

    @pytest.mark.parametrize("call,what", [
        (lambda: enumerate_hn_types(KRONECKER3, (1.7, 1), (1, -1)), "dimension vector"),
        (lambda: has_semistable(KRONECKER3, (1, 1), (0.9, -0.9)), "theta"),
        (lambda: euler_form(KRONECKER3, (1.5, 1), (1, 1)), "dimension vector"),
        (lambda: is_hn_type(KRONECKER3, (2, 3), (3, -2), ((2, 3.0),)), "dimension vector"),
        (lambda: hn_stratum_codim(KRONECKER3, ((0, 1), (2, 2.0))), "dimension vector"),
    ])
    def test_non_integer_entries_are_refused(self, call, what):
        # int() would truncate them to the nearest integer toward zero
        with pytest.raises(ValueError, match=f"^{what} has a non-integer entry$"):
            call()

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="acyclic"):
            Quiver(2, ((0, 1), (1, 0)))
        with pytest.raises(ValueError, match="acyclic"):
            Quiver(1, ((0, 0),))

    def test_arrow_range_checked(self):
        with pytest.raises(ValueError):
            Quiver(2, ((0, 2),))


class TestSlope:
    def test_working_vector(self):
        assert reduced_slope((3, -2), (2, 3)) == (0, 1)

    def test_generic(self):
        assert reduced_slope((3, -2), (1, 1)) == (1, 2)
        assert reduced_slope((3, -2), (2, 2)) == (1, 2)

    def test_single_vertex(self):
        assert reduced_slope((3, -2), (0, 1)) == (-2, 1)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="undefined slope"):
            reduced_slope((3, -2), (0, 0))


class TestEulerForm:
    def test_working_vector(self):
        assert euler_form(KRONECKER3, (2, 3), (2, 3)) == -5
        assert 1 - euler_form(KRONECKER3, (2, 3), (2, 3)) == 6  # dim Y

    def test_simples(self):
        assert euler_form(KRONECKER3, (1, 0), (0, 1)) == -3

    def test_zero(self):
        assert euler_form(KRONECKER3, (2, 3), (0, 0)) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            euler_form(KRONECKER3, (1, 2, 3), (2, 3))

    @given(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
    )
    def test_bilinear(self, d, dprime, e):
        total = tuple(a + b for a, b in zip(d, dprime))
        assert euler_form(KRONECKER3, total, e) == euler_form(
            KRONECKER3, d, e
        ) + euler_form(KRONECKER3, dprime, e)
        assert euler_form(A2, e, total) == euler_form(A2, e, d) + euler_form(
            A2, e, dprime
        )


class TestHasSemistable:
    def test_working_vector(self):
        assert has_semistable(KRONECKER3, (2, 3), (3, -2))

    def test_part_of_stratum(self):
        assert has_semistable(KRONECKER3, (1, 2), (3, -2))

    def test_a2_none(self):
        # every map from a plane to a line has a kernel line of slope 1 > 0
        assert not has_semistable(A2, (2, 1), (1, -2))
        for q in (2, 3):
            assert not exists_semistable_brute(GF(q), A2, (2, 1), (1, -2))

    def test_all_constituents(self):
        for tau in HN_TYPES_23:
            for part in tau:
                assert has_semistable(KRONECKER3, part, (3, -2))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            has_semistable(KRONECKER3, (0, 0), (3, -2))

    def test_a2_line_target_none(self):
        # every image inside the target line spans a subrepresentation of
        # dimension (1,1) and slope -1/2 > -1, over any field
        assert not has_semistable(A2, (1, 2), (1, -2))
        for q in (2, 3):
            assert not exists_semistable_brute(GF(q), A2, (1, 2), (1, -2))

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize(
        "quiver,e,theta",
        [
            (KRONECKER3, (1, 1), (3, -2)),
            (KRONECKER3, (1, 2), (3, -2)),
            (KRONECKER3, (2, 1), (3, -2)),
            (KRONECKER3, (1, 0), (3, -2)),
            (KRONECKER3, (0, 2), (3, -2)),
            (A2, (1, 1), (1, -2)),
            (A2, (1, 2), (1, -2)),
        ],
    )
    def test_brute_force_witnesses(self, q, quiver, e, theta):
        # a semistable point over a finite field forces nonemptiness over C
        rng = random.Random(q * 1000 + sum(e))
        if exists_semistable_brute(GF(q), quiver, e, theta, rng=rng):
            assert has_semistable(quiver, e, theta)

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize(
        "quiver,e,theta",
        [
            (KRONECKER3, (1, 1), (3, -2)),
            (KRONECKER3, (1, 2), (2, -1)),
            (A2, (1, 1), (1, -2)),
            (A2, (2, 1), (1, -2)),
            (A2, (0, 2), (1, -2)),
        ],
    )
    def test_counting_recursion_matches_point_counts(self, q, quiver, e, theta):
        # the decision procedure's counting polynomial, evaluated at a prime
        # power, is the literal number of semistable representations over
        # that field
        field = GF(q)
        count = sum(
            1 for rep in all_reps(field, quiver, e) if is_semistable_brute(field, rep, theta)
        )
        assert _poly_at(sst_count_by_fraction_slopes(quiver, e, tuple(theta)), q) == count

    def test_poincare_polynomial_of_y(self):
        # (q-1)|R^sst_(2,3)|/|G_(2,3)| is the point count of Y, whose
        # coefficients are the Betti numbers, i.e. the Chow ranks per degree
        betti = (1, 1, 3, 3, 3, 1, 1)
        sst = sst_count_by_fraction_slopes(KRONECKER3, (2, 3), (3, -2))
        assert poly_mul((-1, 1), sst) == poly_mul(betti, gl_order((2, 3)))
        assert betti == tuple(DEGREES.count(k) for k in range(7))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(quiver_dim_theta(), quiver_dim_theta(balanced=True)))
    def test_table_equals_replaced_routes(self, case):
        # a subvector is semistable in the HN table exactly when the counting
        # route finds semistable representations over finite fields
        quiver, d, theta = case
        box, _, semistable, _ = _hn_table(quiver, d, theta)
        for e, flag in zip(box[1:], semistable[1:]):
            assert flag == bool(sst_count_by_fraction_slopes(quiver, e, theta))
        assert has_semistable(quiver, d, theta) == semistable[-1]

    @pytest.mark.parametrize("d", LADDER)
    def test_ladder_table_equals_replaced_routes(self, d):
        theta = (d[1], -d[0])
        box, _, semistable, _ = _hn_table(KRONECKER3, d, theta)
        assert box == list(itertools.product(range(d[0] + 1), range(d[1] + 1)))
        for e, flag in zip(box[1:], semistable[1:]):
            assert flag == bool(sst_count_by_fraction_slopes(KRONECKER3, e, theta))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(quiver_dim_theta(), quiver_dim_theta(balanced=True)))
    def test_rank_orders_like_fraction_slopes(self, case):
        # the slope keys of the HN table order the nonzero subvectors as
        # their Fraction slopes do
        quiver, d, theta = case
        box, keys, _, _ = _hn_table(quiver, d, theta)
        for (f, a), (g, b) in itertools.product(zip(box[1:], keys[1:]), repeat=2):
            assert (a < b) == (slope(theta, f) < slope(theta, g))
            assert (a == b) == (slope(theta, f) == slope(theta, g))


#: Quiver on six vertices for the dimension vector (1, ..., 1) with 2^6 =
#: MAX_SUBVECTORS subvectors, and a theta with theta . (1, ..., 1) = 0.
SIX_VERTICES = Quiver(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)))
SIX_THETA = (5, -1, -1, -1, -1, -1)

#: Admitted shapes with many subvectors or a long arrow exponent.
WIDE_SHAPES = [
    (Quiver.kronecker(12), (31, 1), (1, -31)),
    (Quiver.kronecker(7), (7, 7), (1, -1)),
    (SIX_VERTICES, (1,) * 6, SIX_THETA),
]
WIDE_IDS = ["kronecker12-31-1", "kronecker7-7-7", "six-vertices"]


def _cold_and_warm(call):
    """``call()`` with the lattices cleared, then again, reading the
    lattice it built from the cache."""
    _lattice.cache_clear()
    return call(), call()


def _lattice_by_enumeration(d):
    """``_lattice(d)`` as its docstring states it, each part built on its
    own: the f <= h of every h enumerated in product order and looked up by
    value in the box, and the row f_i * L / |f| of every f with
    L = lcm(1, ..., |d|)."""
    box = list(itertools.product(*(range(x + 1) for x in d)))
    index = {f: y for y, f in enumerate(box)}
    pairs = [[index[f] for f in itertools.product(*(range(x + 1) for x in h))][1:-1]
             for h in box]
    common = math.lcm(*range(1, sum(d) + 1))
    scaled = [tuple(common * x // sum(f) for x in f) if any(f) else (0,) * len(d) for f in box]
    return box, pairs, list(zip(*box)), scaled


def _deep_size(obj, seen):
    """The bytes of obj and of the lists, tuples and integers in it, each
    object counted once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, (list, tuple)):
        return sys.getsizeof(obj) + sum(_deep_size(item, seen) for item in obj)
    return sys.getsizeof(obj)


class TestLattice:
    def test_one_lattice_per_dimension_vector(self):
        # the lattice depends on d alone: a theta scan over two quivers at
        # one d builds it once
        opposite = Quiver(2, ((1, 0),) * 3)
        thetas = [(4, -3), (1, -1), (-4, 3), (2, -5), (0, 1)]
        _lattice.cache_clear()
        for quiver in (KRONECKER3, opposite):
            for theta in thetas:
                has_semistable(quiver, (3, 4), theta)
        assert _lattice.cache_info().misses == 1

    def test_scan_of_d_keeps_the_bound(self):
        # more distinct d than the bound: the least recently used lattices
        # go, and every table equals one built on a cold lattice
        path = Quiver(12, tuple((i, i + 1) for i in range(11)))
        theta = tuple(range(6, -6, -1))
        dims = [tuple(int(i in ones) for i in range(12))
                for ones in itertools.combinations(range(12), 4)][:MAX_CACHED_SETUPS + 20]
        _lattice.cache_clear()
        tables = [_hn_table(path, d, theta) for d in dims]
        info = _lattice.cache_info()
        assert (info.misses, info.currsize, info.maxsize) == (
            len(dims), MAX_CACHED_SETUPS, MAX_CACHED_SETUPS)
        for d, table in zip(dims, tables):
            _lattice.cache_clear()
            assert _hn_table(path, d, theta) == table

    def test_lattice_layout(self):
        box, pairs, columns, scaled = _lattice((2, 3))
        assert box == list(itertools.product(range(3), range(4)))
        for x, h in enumerate(box):
            assert [box[y] for y in pairs[x]] == [f for f in box if f != h and any(f)
                                                  and all(a <= b for a, b in zip(f, h))]
            for y in pairs[x]:
                assert box[x - y] == tuple(a - b for a, b in zip(h, box[y]))
        assert list(zip(*columns)) == box
        # one row f_i * L / |f| per f, with L = lcm(1, ..., 5) = 60, so the
        # entries of a row sum to L
        assert len(scaled) == len(box) and all(len(row) == 2 for row in scaled)
        assert [sum(row) for row in scaled] == [0] + [60] * (len(box) - 1)
        assert all(s * sum(f) == 60 * f[i]
                   for row, f in zip(scaled, box) for i, s in enumerate(row))
        assert _lattice((2, 3)) == _lattice_by_enumeration((2, 3))

    @pytest.mark.parametrize("d", [(31, 1), (7, 7)], ids=["31-1", "7-7"])
    def test_lattice_keeps_no_more_than_it_returns(self, d):
        # the lists of every f <= h that the build extends do not outlive
        # it: what stays allocated is the lattice returned, give or take the
        # objects the interpreter keeps on its free lists (about a tenth)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            lattice = _lattice.__wrapped__(d)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert lattice == _lattice_by_enumeration(d)
        assert kept <= 1.2 * _deep_size(lattice, set())


@st.composite
def gated_quiver_dim_theta(draw):
    """An acyclic quiver on 2-4 vertices with 0-3 arrows i -> j for each
    i < j, a nonzero dimension vector with entries up to 3 that the gate
    admits, and theta in [-4, 4]^n."""
    n = draw(st.integers(2, 4))
    arrows = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                   for _ in range(draw(st.integers(0, 3))))
    e = draw(st.tuples(*[st.integers(0, 3)] * n).filter(any))
    assume(math.prod(x + 1 for x in e) <= MAX_SUBVECTORS)
    return Quiver(n, arrows), e, draw(st.tuples(*[st.integers(-4, 4)] * n))


@st.composite
def many_arrows_quiver_dim_theta(draw, balanced=False):
    """``gated_quiver_dim_theta`` with 0-300 arrows i -> j for each i < j,
    and theta . e = 0 when ``balanced``."""
    n = draw(st.integers(2, 4))
    arrows = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                   for _ in range(draw(st.integers(0, 300))))
    e = draw(st.tuples(*[st.integers(0, 3)] * n).filter(any))
    assume(math.prod(x + 1 for x in e) <= MAX_SUBVECTORS)
    theta = draw(st.tuples(*[st.integers(-4, 4)] * n))
    if balanced:
        dot = sum(t * x for t, x in zip(theta, e))
        theta = tuple(t * sum(e) - dot for t in theta)
    return Quiver(n, arrows), e, theta


class TestReplacedRoutes:
    """With the lattice cold and warm, the lattice equals the one enumerated
    subvector by subvector, ``_lattice_by_enumeration``, and the table and
    the walk equal the table they replaced, ``hn_table_with_generic``, and
    the subvector walk over King's criterion, ``hn_types_by_subvectors``."""

    @staticmethod
    def assert_equal_routes(quiver, d, theta):
        lattice = _lattice_by_enumeration(d)
        assert _cold_and_warm(lambda: _lattice(d)) == (lattice, lattice)
        table = hn_table_with_generic(quiver, d, theta)[:4]
        assert _cold_and_warm(lambda: _hn_table(quiver, d, theta)) == (table, table)
        assert _lattice.cache_info().hits >= 1
        if sum(map(operator.mul, theta, d)) == 0:
            types = hn_types_by_subvectors(quiver, d, theta)
            assert _cold_and_warm(lambda: enumerate_hn_types(quiver, d, theta)) == (types, types)

    @settings(max_examples=100, deadline=None)
    @given(benchmark_shapes())
    def test_benchmark_shapes(self, case):
        self.assert_equal_routes(*case)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(quiver_dim_theta(), quiver_dim_theta(balanced=True)))
    def test_small_quivers(self, case):
        self.assert_equal_routes(*case)

    @pytest.mark.parametrize("quiver,d,theta", WIDE_SHAPES, ids=WIDE_IDS)
    def test_wide_shapes(self, quiver, d, theta):
        assert _check_hn_input(quiver, d, theta)
        self.assert_equal_routes(quiver, d, theta)


class TestDenseTypeStartsLowest:
    """The argument of the ``quiver`` module docstring: the dense type of h
    starts at the least slope of a first part of any type, so the table that
    kept the first part of each dense (generic) type kept a copy of
    ``least``, and the table without it equals it."""

    @staticmethod
    def assert_generic_is_least(quiver, d, theta):
        box, keys, semistable, firsts, generic, least = hn_table_with_generic(quiver, d, theta)
        assert generic == least
        assert _hn_table(quiver, d, theta) == (box, keys, semistable, firsts)

    @pytest.mark.parametrize("quiver,d,theta", WIDE_SHAPES, ids=WIDE_IDS)
    def test_wide_shapes(self, quiver, d, theta):
        self.assert_generic_is_least(quiver, d, theta)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(gated_quiver_dim_theta(), many_arrows_quiver_dim_theta(), benchmark_shapes()))
    def test_random_quivers(self, case):
        self.assert_generic_is_least(*case)


class TestGeneralSubrepresentations:
    """King's criterion on the general subrepresentations (Schofield's ext
    recursion, ``semistable_by_subrepresentations``), which shares no code
    with the HN table, decides existence as the table does."""

    @settings(max_examples=150, deadline=None)
    @given(gated_quiver_dim_theta())
    def test_equals_the_hn_table(self, case):
        quiver, e, theta = case
        assert _check_hn_input(quiver, e, theta)
        expected = semistable_by_subrepresentations(quiver, e, theta)
        assert has_semistable(quiver, e, theta) == expected[e]
        box, _, semistable, _ = _hn_table(quiver, e, theta)
        assert dict(zip(box[1:], semistable[1:])) == expected

    @pytest.mark.parametrize("m", [13, 100, 1000])
    @pytest.mark.parametrize("e,theta", [((31, 1), (1, -31)), ((7, 7), (1, -1))],
                             ids=["31-1", "7-7"])
    def test_equals_the_hn_table_past_the_old_counting_gate(self, m, e, theta):
        # shapes that the counting gate refused, "counting work above
        # 150000000"
        quiver = Quiver.kronecker(m)
        box, _, semistable, _ = _hn_table(quiver, e, theta)
        assert dict(zip(box[1:], semistable[1:])) == semistable_by_subrepresentations(
            quiver, e, theta)

    @settings(max_examples=40, deadline=None)
    @given(many_arrows_quiver_dim_theta())
    def test_equals_the_hn_table_on_hundreds_of_arrows(self, case):
        quiver, e, theta = case
        box, _, semistable, _ = _hn_table(quiver, e, theta)
        assert dict(zip(box[1:], semistable[1:])) == semistable_by_subrepresentations(
            quiver, e, theta)

    @pytest.mark.parametrize("quiver,e,theta,exists", [
        (A2, (2, 1), (1, -2), False),
        (A2, (1, 2), (1, -2), False),
        (A2, (1, 1), (1, -2), True),
        (KRONECKER3, (2, 3), (3, -2), True),
        (KRONECKER3, (1, 3), (3, -1), True),
        (KRONECKER3, (1, 4), (4, -1), False),
    ])
    def test_known_cases(self, quiver, e, theta, exists):
        # (1, 4) on three arrows: a general map from a line to a 4-space
        # spans at most a 3-space, which leaves a quotient (0, 1) of slope
        # -1 below that of (1, 4), 0
        assert semistable_by_subrepresentations(quiver, e, theta)[e] == exists
        assert has_semistable(quiver, e, theta) == exists


class TestTableRows:
    """The rows of ``_hn_table``: the first parts of h in slope key order,
    equal keys in product order, h among them exactly when it is
    semistable."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(quiver_dim_theta(), quiver_dim_theta(balanced=True)))
    def test_every_row_has_a_term(self, case):
        # every representation has a type, so no row is empty, and h is a
        # first part of its own types exactly when it is semistable
        quiver, d, theta = case
        box, keys, semistable, firsts = _hn_table(quiver, d, theta)
        for x in range(1, len(box)):
            below, parts = firsts[x]
            assert below and len(below) == len(parts)
            assert list(below) == sorted(below) == [keys[y] for y in parts]
            assert (x in parts) == semistable[x]

    def test_row_with_its_own_count_alone(self):
        # (0, 2) splits only as (0, 1) + (0, 1), of equal slope: no first
        # part below, and (0, 2) is semistable
        table = _hn_table(KRONECKER3, (2, 3), (3, -2))
        box, keys, semistable, firsts = table
        x = box.index((0, 2))
        assert _lattice((2, 3))[1][x] == [box.index((0, 1))]
        assert semistable[x] and firsts[x] == ((keys[x],), (x,))

    def test_row_with_one_lower_term(self):
        # on A2 with slope (0, 1) above (1, 0), every representation of
        # (1, 1) has first part (0, 1), and none is semistable
        table = _hn_table(A2, (1, 1), (-1, 1))
        box, keys, semistable, firsts = table
        assert box == [(0, 0), (0, 1), (1, 0), (1, 1)] and keys == [0, 2, -2, 0]
        assert not semistable[3] and firsts[3] == ((2,), (1,))

    def test_equal_keys_keep_product_order(self):
        # (1, 0) and (2, 0) have one slope; the sort keeps them in product
        # order
        box, keys, semistable, firsts = _hn_table(A2, (2, 1), (-1, -2))
        x = box.index((2, 1))
        assert firsts[x] == ((-6, -6), (box.index((1, 0)), box.index((2, 0))))
        assert not semistable[x]


class TestEnumerateHnTypes:
    def test_kronecker23(self):
        types = enumerate_hn_types(KRONECKER3, (2, 3), (3, -2))
        assert types == HN_TYPES_23
        assert len(types) == 8

    def test_simple_vertex(self):
        assert enumerate_hn_types(KRONECKER3, (1, 0), (0, 5)) == [((1, 0),)]

    def test_theta_d_nonzero_rejected(self):
        with pytest.raises(ValueError, match="theta . d"):
            enumerate_hn_types(KRONECKER3, (2, 3), (1, -1))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            enumerate_hn_types(KRONECKER3, (0, 0), (0, 0))

    def test_a2_21(self):
        types = enumerate_hn_types(A2, (2, 1), (1, -2))
        assert types == [((1, 0), (1, 1)), ((2, 0), (0, 1))]

    def test_a2_21_against_brute_force(self):
        field = GF(3)
        seen = {hn_type_brute(field, rep, (1, -2)) for rep in all_reps(field, A2, (2, 1))}
        assert seen == set(enumerate_hn_types(A2, (2, 1), (1, -2)))

    @pytest.mark.parametrize("q", [2, 3])
    def test_kronecker_12_against_brute_force(self, q):
        field = GF(q)
        theta = (2, -1)
        seen = {
            hn_type_brute(field, rep, theta)
            for rep in all_reps(field, KRONECKER3, (1, 2))
        }
        assert seen == set(enumerate_hn_types(KRONECKER3, (1, 2), theta))

    @pytest.mark.parametrize("d", LADDER)
    def test_ladder_equals_subvector_walk(self, d):
        theta = (d[1], -d[0])
        assert enumerate_hn_types(KRONECKER3, d, theta) == hn_types_by_subvectors(KRONECKER3, d,
                                                                                  theta)

    @settings(max_examples=60, deadline=None)
    @given(quiver_dim_theta(balanced=True))
    def test_equals_subvector_walk(self, case):
        quiver, d, theta = case
        assert enumerate_hn_types(quiver, d, theta) == hn_types_by_subvectors(quiver, d, theta)

    @settings(max_examples=200, deadline=None)
    @given(benchmark_shapes())
    def test_equals_the_subvector_walk_on_benchmark_shapes(self, case):
        # the walk and the existence test on the random quivers of the
        # hn_ladder workload, against King's criterion
        quiver, d, theta = case
        assert enumerate_hn_types(quiver, d, theta) == hn_types_by_subvectors(quiver, d, theta)
        for e, exists in semistable_by_subrepresentations(quiver, d, theta).items():
            assert has_semistable(quiver, e, theta) == exists

    def test_walk_reads_only_the_table(self, monkeypatch):
        expected = hn_types_by_subvectors(KRONECKER3, (4, 7), (7, -4))
        assert len(expected) == 69
        assert has_semistable(KRONECKER3, (4, 7), (7, -4))
        table = _hn_table(KRONECKER3, (4, 7), (7, -4))

        def refuse(d):
            raise AssertionError("subvectors listed after the table was built")

        monkeypatch.setattr(quiver_module, "_hn_table", lambda *args: table)
        monkeypatch.setattr(quiver_module, "_lattice", refuse)
        assert enumerate_hn_types(KRONECKER3, (4, 7), (7, -4)) == expected

    @pytest.mark.parametrize("d", LADDER)
    def test_walk_enters_only_prefixes_of_types(self, monkeypatch, d):
        # with the table built, the walk looks up the first parts of each
        # remainder it enters once; the remainders are those of the proper
        # prefixes of the types, so no branch ends without a type
        theta = (d[1], -d[0])
        table = _hn_table(KRONECKER3, d, theta)
        monkeypatch.setattr(quiver_module, "_hn_table", lambda *args: table)
        lookups = []

        def counted(*args):
            lookups.append(args)
            return bisect_left(*args)

        monkeypatch.setattr(quiver_module, "bisect_left", counted)
        types = enumerate_hn_types(KRONECKER3, d, theta)
        prefixes = {tau[:k] for tau in types for k in range(len(tau))}
        assert len(lookups) == len(prefixes)
        if d == (4, 7):
            assert (len(types), len(lookups)) == (69, 82)

    @pytest.mark.parametrize("d", LADDER)
    def test_ladder_opposite_quiver_duality(self, d):
        theta = (d[1], -d[0])
        opposite = Quiver(2, ((1, 0),) * 3)
        reversed_types = sorted(tau[::-1] for tau in enumerate_hn_types(KRONECKER3, d, theta))
        assert sorted(enumerate_hn_types(opposite, d, (-d[1], d[0]))) == reversed_types

    @settings(max_examples=60, deadline=None)
    @given(quiver_dim_theta(balanced=True))
    def test_opposite_quiver_duality(self, case):
        # the HN types of Q^op for -theta are the reversed types of (Q, theta)
        quiver, d, theta = case
        opposite = Quiver(quiver.vertex_count, tuple((j, i) for i, j in quiver.arrows))
        reversed_types = sorted(tau[::-1] for tau in enumerate_hn_types(quiver, d, theta))
        assert sorted(enumerate_hn_types(opposite, d, tuple(-t for t in theta))) == reversed_types

    def test_no_fraction_on_the_path(self, monkeypatch):
        expected = hn_types_by_subvectors(KRONECKER3, (3, 5), (5, -3))

        def refuse(*args, **kwargs):
            raise AssertionError("Fraction built on the HN path")

        _lattice.cache_clear()
        monkeypatch.setattr(Fraction, "__new__", refuse)
        monkeypatch.setattr(quiver_module, "has_semistable", refuse)
        assert enumerate_hn_types(KRONECKER3, (3, 5), (5, -3)) == expected
        assert all(is_hn_type(KRONECKER3, (3, 5), (5, -3), tau) for tau in expected)
        assert not is_hn_type(KRONECKER3, (3, 5), (5, -3), expected[0][::-1])
        # the table holds flags, and no tuple polynomial is in reach
        assert all(type(flag) is bool for flag in _hn_table(KRONECKER3, (3, 5), (5, -3))[2])
        assert not [name for name in vars(quiver_module) if name.startswith("poly_")]
        assert not [name for name in vars(_linalg) if name.startswith("poly_")]

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(hn_candidates(), hn_candidates(balanced=True)))
    def test_is_hn_type_equals_fraction_slope_oracle(self, case):
        quiver, d, theta, tau = case
        try:
            expected = is_hn_type_by_fraction_slopes(quiver, d, theta, tau)
        except ValueError:
            with pytest.raises(ValueError):
                is_hn_type(quiver, d, theta, tau)
        else:
            assert is_hn_type(quiver, d, theta, tau) == expected

    @settings(max_examples=200, deadline=None)
    @given(hn_candidates(balanced=True))
    def test_is_hn_type_holds_exactly_for_enumerated_types(self, case):
        quiver, d, theta, tau = case
        try:
            verdict = is_hn_type(quiver, d, theta, tau)
        except ValueError:  # a part of the wrong shape
            assert any(len(p) != len(d) or min(p, default=0) < 0 for p in tau)
        else:
            assert verdict == (tau in enumerate_hn_types(quiver, d, theta))

    def test_is_hn_type_refuses_theta_of_the_wrong_length(self):
        # the gate runs before the total is compared
        for tau in (((2, 3),), ((1, 0), (1, 1))):
            with pytest.raises(ValueError, match="^theta has wrong length$"):
                is_hn_type(KRONECKER3, (2, 3), (3, -2, 0), tau)

    def test_defining_conditions(self):
        # semistable parts of equal slope summing to d
        assert not is_hn_type(KRONECKER3, (2, 2), (1, -1), ((1, 1), (1, 1)))
        for tau in enumerate_hn_types(KRONECKER3, (2, 3), (3, -2)):
            assert is_hn_type(KRONECKER3, (2, 3), (3, -2), tau)
            slopes = [slope((3, -2), p) for p in tau]
            assert all(a > b for a, b in zip(slopes, slopes[1:]))
            assert tuple(map(sum, zip(*tau))) == (2, 3)


class TestDenseStratum:
    """Reineke's two facts on which the HN table rests, checked on the
    enumerated types: every stratum has codimension at least 0, and the
    representation space is irreducible, so exactly one type has
    codimension 0, the trivial one exactly when d is semistable."""

    @staticmethod
    def assert_one_dense_type(quiver, d, theta):
        types = enumerate_hn_types(quiver, d, theta)
        codims = [hn_stratum_codim(quiver, tau) for tau in types]
        assert min(codims) >= 0
        dense = [tau for tau, codim in zip(types, codims) if codim == 0]
        assert len(dense) == 1
        assert (dense == [(d,)]) == has_semistable(quiver, d, theta)

    @pytest.mark.parametrize("d", LADDER)
    def test_ladder(self, d):
        self.assert_one_dense_type(KRONECKER3, d, (d[1], -d[0]))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(quiver_dim_theta(balanced=True), benchmark_shapes()))
    def test_small_quivers(self, case):
        self.assert_one_dense_type(*case)

    @settings(max_examples=40, deadline=None)
    @given(many_arrows_quiver_dim_theta(balanced=True))
    def test_hundreds_of_arrows(self, case):
        self.assert_one_dense_type(*case)


class TestSubvectorLimit:
    # 2^6 = MAX_SUBVECTORS subvectors on six vertices, 2^7 on seven
    @pytest.mark.parametrize("n,allowed", [(6, True), (7, False)])
    def test_every_route_is_bounded(self, n, allowed):
        assert 2 ** 6 == MAX_SUBVECTORS
        q, d = Quiver(n, ()), (1,) * n
        theta = (0,) * n
        routes = [lambda: has_semistable(q, d, theta), lambda: enumerate_hn_types(q, d, theta),
                  lambda: is_hn_type(q, d, theta, (d,))]
        for route in routes:
            if allowed:
                assert route()
            else:
                with pytest.raises(ValueError, match=f"^subvector count above {MAX_SUBVECTORS}$"):
                    route()

    @pytest.mark.parametrize("m,d,theta", [(1000, (7, 7), (1, -1)), (30, (1, 31), (31, -1)),
                                           (3000, (2, 20), (10, -1)), (MAX_ARROWS, (7, 7), (7, -7))])
    def test_shapes_past_the_deleted_counting_gate_are_admitted_and_fast(self, m, d, theta):
        # the first three were refused with "counting work above 150000000";
        # the HN table's work does not grow with the arrow count
        q = Quiver.kronecker(m)
        start = time.process_time()
        types = enumerate_hn_types(q, d, theta)
        assert has_semistable(q, d, theta) == ((d,) in types)
        assert time.process_time() - start < 0.5

    @pytest.mark.parametrize("m,d", [(2000, (2, 3)), (MAX_ARROWS, (3, 2)), (3, (7, 7)),
                                     (3, (4, 7))])
    def test_cheap_shapes_are_admitted(self, m, d):
        assert _check_hn_input(Quiver.kronecker(m), d, (d[1], -d[0]))

    def test_huge_entries_are_refused_at_once(self):
        with pytest.raises(ValueError, match="subvector count above"):
            enumerate_hn_types(KRONECKER3, (10 ** 100, 10 ** 100), (1, -1))


class TestStratumCodim:
    def test_rank_one_wall(self):
        assert hn_stratum_codim(KRONECKER3, ((1, 1), (1, 2))) == 3

    def test_open_stratum(self):
        assert hn_stratum_codim(KRONECKER3, ((2, 3),)) == 0

    def test_deepest(self):
        assert hn_stratum_codim(KRONECKER3, ((2, 0), (0, 3))) == 18

    @settings(max_examples=200, deadline=None)
    @given(hn_candidates())
    def test_equals_sum_over_pairs(self, case):
        quiver, _, _, tau = case
        try:
            expected = hn_stratum_codim_by_pairs(quiver, tau)
        except ValueError as error:
            with pytest.raises(ValueError, match=f"^{re.escape(str(error))}$"):
                hn_stratum_codim(quiver, tau)
        else:
            assert hn_stratum_codim(quiver, tau) == expected

    def test_malformed_part_is_refused(self):
        cases = [(((1, 0), (1, -1), (0, 2)), r"dimension vector \(1, -1\) has negative entries"),
                 (((1, 0), (0, -1, 0)), r"dimension vector \(0, -1, 0\) has wrong length")]
        for tau, message in cases:
            for route in (hn_stratum_codim, hn_stratum_codim_by_pairs):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    route(KRONECKER3, tau)
