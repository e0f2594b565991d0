import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from golden import STRATUM_TABLE
from oracles import (KRONECKER3, count_negative_directions, dim_vector, eta, hn_stratum_codim,
                     one_ps_by_fraction_slopes, random_expr, stratum_checks, weight_ranges_by_walk,
                     weights_of)
from test_quiver import many_arrows_quiver_dim_theta, quiver_dim_theta
from test_verify import EXPRS
from quivercert import bundles
from quivercert.bundles import (MAX_TERMS, MAX_WORK_TERMS, O, U1, U2, StratumWeights, WorkBudget,
                                characters, direct_sum, dual, evaluate, sl, sym2, tensor, twist)
from quivercert.quiver import MAX_CACHED_SETUPS, Quiver, _lattice, enumerate_hn_types, reduced_slope
from quivercert.cli import main
from quivercert.strata import (
    Moduli,
    _hn_records,
    _weigh,
    OnePS,
    codim_and_eta,
    descent_shift,
    hn_records,
    one_ps_from_hn,
    teleman_certify,
    universal_weights,
    unstable_strata,
    weight_ranges,
)
from quivercert.verify import collection_variants, standard_collection

Y23 = Moduli.kronecker23()


def one_ps(tau):
    """The one-parameter subgroup of a stratum of Y."""
    return one_ps_from_hn(tau, Y23.theta)


@pytest.fixture(scope="module")
def strata():
    return {s.hn_type: s for s in unstable_strata(Y23)}


class TestOnePS:
    def test_block_construction(self):
        s = one_ps_from_hn(((1, 1), (1, 2)), (3, -2))
        assert s.blocks == (((3, 1), (-2, 1)), ((3, 1), (-2, 2)))

    def test_no_gcd_reduction(self):
        # slopes 4/3 and -2 clear to weights (4, -6), gcd 2 kept
        s = one_ps_from_hn(((2, 1), (0, 2)), (3, -2))
        assert s.blocks == (((4, 2),), ((4, 1), (-6, 2)))

    def test_trivial_type(self):
        s = one_ps_from_hn(((2, 3),), (3, -2))
        assert s.blocks == (((0, 2),), ((0, 3),))

    def test_weights_strictly_decrease(self):
        with pytest.raises(ValueError):
            OnePS((((1, 1), (1, 2)), ()))

    @pytest.mark.parametrize("d", [(2, 3), (3, 4), (3, 5), (4, 5), (4, 7)])
    def test_equals_fraction_slope_oracle_on_the_ladder(self, d):
        theta = (d[1], -d[0])
        for tau in enumerate_hn_types(KRONECKER3, d, theta):
            assert one_ps_from_hn(tau, theta).blocks == one_ps_by_fraction_slopes(tau, theta).blocks

    @settings(max_examples=200, deadline=None)
    @given(quiver_dim_theta(balanced=True))
    def test_equals_fraction_slope_oracle(self, case):
        quiver, d, theta = case
        for tau in enumerate_hn_types(quiver, d, theta):
            assert one_ps_from_hn(tau, theta).blocks == one_ps_by_fraction_slopes(tau, theta).blocks

    @settings(max_examples=100, deadline=None)
    @given(quiver_dim_theta(balanced=True))
    def test_multiplicities_sum_to_the_dimension_vector(self, case):
        quiver, d, theta = case
        for tau in enumerate_hn_types(quiver, d, theta):
            assert dim_vector(one_ps_from_hn(tau, theta)) == d

    @pytest.mark.parametrize("tau", [((2, 3), (0, 0)), ((0, 0), (2, 3)), ((1, 1), (1, 2, 0)),
                                     ((1, 1, 0), (1, 2))])
    def test_zero_or_misshapen_part_is_refused(self, tau):
        with pytest.raises(ValueError):
            one_ps_from_hn(tau, (3, -2))


@pytest.mark.parametrize("build", [
    lambda: Quiver(2, ((0.5, 1),)),
    lambda: reduced_slope((1, -1), (1.5, 1)),
    lambda: reduced_slope((1.5, 1), (1, 1)),
    lambda: Moduli(KRONECKER3, (2, 3), (3.7, -2.2), (1, -1)),
    lambda: Moduli(KRONECKER3, (2, 3), (3, -2), (1.5, -1)),
    lambda: O(1.5),
    lambda: one_ps_from_hn(((1.5, 1), (0.5, 2)), (3, -2)),
], ids=["quiver-arrow", "slope-dim", "slope-theta", "moduli-theta", "moduli-twist", "O(n)",
        "one-ps-part"])
def test_non_integer_input_is_refused(build):
    # int() would truncate each of these to an integer and carry on
    with pytest.raises(ValueError, match="integer"):
        build()


def test_no_fraction_on_the_strata_path(monkeypatch):
    expected = unstable_strata(Y23), teleman_certify(sl(U1))

    def refuse(*args, **kwargs):
        raise AssertionError("Fraction built on the strata path")

    for cached in (_lattice, _hn_records, unstable_strata, _weigh):
        cached.cache_clear()
    monkeypatch.setattr(Fraction, "__new__", refuse)
    assert unstable_strata(Moduli.kronecker23()) == expected[0]
    assert teleman_certify(sl(U1)) == expected[1]


def records_by_calls(quiver, d, theta):
    """The records of ``hn_records``, each field from its checking function,
    the codimension and eta from the routes that ``codim_and_eta`` replaced."""
    out = []
    for tau in enumerate_hn_types(quiver, d, theta):
        s = one_ps_from_hn(tau, theta) if len(tau) > 1 else None
        out.append((tau, tuple(reduced_slope(theta, p) for p in tau),
                    hn_stratum_codim(quiver, tau), s, None if s is None else eta(quiver, s)))
    return tuple(out)


class TestHnRecords:
    @pytest.mark.parametrize("d,theta", [((2.0, 3), (3, -2)), ((2, 3), (3.0, -2)),
                                         ((2, 3), (3, -2.0))],
                             ids=["dim-float", "theta-float", "theta-last-float"])
    def test_gate_comes_before_the_cache(self, d, theta):
        # (2.0, 3) == (2, 3) and hash alike, so a lookup first would answer it
        hn_records(KRONECKER3, (2, 3), (3, -2))
        with pytest.raises(ValueError, match="non-integer"):
            hn_records(KRONECKER3, d, theta)

    def test_list_input_shares_the_entry(self):
        assert hn_records(KRONECKER3, [2, 3], [3, -2]) is hn_records(KRONECKER3, (2, 3), (3, -2))

    def test_caches_stay_within_their_bound(self):
        # more distinct theta than an entry bound: the least recently used go
        thetas = [(3 * k, -2 * k) for k in range(1, MAX_CACHED_SETUPS + 21)]
        first = [unstable_strata(Moduli(KRONECKER3, (2, 3), theta, (1, -1))) for theta in thetas]
        for cached in (_hn_records, unstable_strata):
            assert 0 < cached.cache_info().currsize <= MAX_CACHED_SETUPS == cached.cache_info().maxsize
        again = [unstable_strata(Moduli(KRONECKER3, (2, 3), theta, (1, -1)))
                 for theta in reversed(thetas)]
        assert again[::-1] == first
        assert [hn_records(KRONECKER3, (2, 3), theta) for theta in thetas[:3]] == [
            records_by_calls(KRONECKER3, (2, 3), theta) for theta in thetas[:3]]

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(quiver_dim_theta(balanced=True), many_arrows_quiver_dim_theta(balanced=True)))
    def test_equal_the_replaced_codim_and_eta(self, case):
        # one walk per stratum gives the codimension of the Euler form and
        # the eta of the negative directions
        assert hn_records(*case) == records_by_calls(*case)


class TestGoldenTable:
    def test_stratum_count(self, strata):
        assert len(strata) == 7

    def test_cell_for_cell(self, strata):
        for tau, row in STRATUM_TABLE.items():
            s = strata[tau]
            assert one_ps(tau).blocks == row["one_ps"], tau
            assert s.weights[0] == row["u1"], tau
            assert s.weights[1] == row["u2"], tau
            assert sum(s.weights[0]) == row["det_u1"], tau
            assert s.eta == row["eta"], tau

    def test_eta_positive(self, strata):
        assert all(s.eta > 0 for s in strata.values())

    def test_codim_equals_direction_count(self, strata):
        for tau, s in strata.items():
            neg_r, neg_g = count_negative_directions(KRONECKER3, one_ps(tau))
            assert neg_r - neg_g == hn_stratum_codim(KRONECKER3, tau)
            assert codim_and_eta(KRONECKER3, one_ps(tau)) == (neg_r - neg_g, s.eta)

    def test_direction_counts_spot_values(self, strata):
        assert count_negative_directions(
            KRONECKER3, one_ps(((1, 1), (1, 2)))
        ) == (6, 3)
        assert count_negative_directions(
            KRONECKER3, one_ps(((2, 0), (0, 3)))
        ) == (18, 0)


class TestUniversalWeights:
    def test_stratum_records_hold_declared_fields_only(self, strata):
        for s in strata.values():
            assert s._fields == ("hn_type", "eta", "weights")
            # without a __dict__, each record holds its tuple fields and nothing else
            assert not hasattr(s, "__dict__")
            assert type(s.weights) is StratumWeights and not hasattr(s.weights, "__dict__")

    def test_shift_values(self):
        assert descent_shift(one_ps(((1, 1), (1, 2))), Y23.twist) == 2
        assert descent_shift(one_ps(((2, 1), (0, 2))), Y23.twist) == 16
        assert descent_shift(one_ps(((2, 0), (0, 3))), Y23.twist) == 12

    def test_one_shift_per_stratum(self, monkeypatch):
        calls = []

        def counted(s, twist):
            calls.append(s)
            return descent_shift(s, twist)

        monkeypatch.setattr("quivercert.strata.descent_shift", counted)
        _hn_records.cache_clear()
        unstable_strata.cache_clear()
        try:
            computed = unstable_strata(Y23)
        finally:
            unstable_strata.cache_clear()
        assert len(calls) == len(computed) == 7
        assert [one_ps(s.hn_type) for s in computed] == calls

    def test_twist_normalization_enforced(self):
        # Moduli is the one place that checks it: universal_weights takes the
        # shift that unstable_strata computes once per stratum
        with pytest.raises(ValueError, match="twist . d must be -1"):
            Moduli(KRONECKER3, (2, 3), (3, -2), (1, 1))
        s = one_ps_from_hn(((1, 1), (1, 2)), (3, -2))
        with pytest.raises(ValueError, match="twist vector has wrong length"):
            descent_shift(s, (1, -1, 0))

    def test_moduli_validation(self):
        with pytest.raises(ValueError, match="theta . d"):
            Moduli(KRONECKER3, (2, 3), (1, -1), (1, -1))
        with pytest.raises(ValueError, match="twist . d"):
            Moduli(KRONECKER3, (2, 3), (3, -2), (-1, 1))
        with pytest.raises(ValueError, match="length"):
            Moduli(KRONECKER3, (2, 3), (3, -2, 0), (1, -1))

    def test_kronecker23_is_one_shared_instance(self):
        assert Moduli.kronecker23() is Moduli.kronecker23()
        assert Moduli.kronecker23() == Moduli(KRONECKER3, (2, 3), (3, -2), (1, -1))

    def test_central_weight_nullity(self):
        ones = OnePS((((1, 2),), ((1, 3),)))
        base = universal_weights(ones, descent_shift(ones, (1, -1)))
        assert all(w == 0 for vertex in base for w in vertex)
        rng = random.Random(7)
        for _ in range(25):
            e = random_expr(rng)
            assert all(w == 0 for w in weights_of(e, base))
        # Moduli admits only twists with a . d = -1, and under each of them
        # the central subgroup acts trivially on every leaf, hence on every
        # expression: no bundle needs a descent check of its own.
        rng = random.Random(8)
        checked = 0
        while checked < 60:
            d = (rng.randint(0, 9), rng.randint(1, 9))
            solutions = [(a, b) for a in range(-40, 41) for b in range(-40, 41)
                         if a * d[0] + b * d[1] == -1]
            if not solutions:
                continue  # gcd(d) > 1: no twist descends
            twist = rng.choice(solutions)
            ones = OnePS(tuple(((1, n),) if n > 0 else () for n in d))
            base = universal_weights(ones, descent_shift(ones, twist))
            for leaf in (U1, U2, O(rng.randint(-20, 20))):
                assert set(characters([base], leaf, WorkBudget()).maps[0]) <= {0}, (d, twist, leaf)
            checked += 1

    def test_scale_invariance(self, strata):
        rng = random.Random(11)
        for s in strata.values():
            for n in (2, 5):
                scaled = OnePS(tuple(tuple((w * n, m) for w, m in vertex)
                                     for vertex in one_ps(s.hn_type).blocks))
                assert codim_and_eta(KRONECKER3, scaled)[1] == n * s.eta
                ws = universal_weights(scaled, descent_shift(scaled, Y23.twist))
                assert ws == tuple(
                    tuple(n * w for w in vertex) for vertex in s.weights
                )
                e = random_expr(rng, depth=2)
                assert max(weights_of(e, ws)) == n * max(weights_of(e, s.weights))


def untwisted(e) -> list:
    """``e`` and the bases under its root's twists by O(n), the untwisted one
    last; of two O factors, the right one is the twist."""
    chain = [e]
    while e.op == "tensor" and "O" in (e.args[0].op, e.args[1].op):
        e = e.args[0] if e.args[1].op == "O" else e.args[1]
        chain.append(e)
    return chain


def twisted(e, twists):
    """``e`` twisted by O(n) for each ``(n, right)`` in turn, on the right or the left."""
    for n, right in twists:
        e = tensor(e, O(n)) if right else tensor(O(n), e)
    return e


def outcome(route, e) -> tuple:
    """What ``route`` gives for ``e`` on Y, or its error, and the budget left after it."""
    budget = WorkBudget()
    try:
        result = route(e, Y23, budget)
    except ValueError as exc:
        result = str(exc)
    return result, budget.left


class TestTwistRule:
    """A twist by O(n) weighed from its base's entry, against the walk of the whole tree."""

    @settings(max_examples=150, deadline=None)
    @given(EXPRS, st.lists(st.tuples(st.integers(-3, 3), st.booleans()), min_size=1, max_size=3),
           st.booleans())
    @example(sl(O(1)), [(2, True)], False)  # a twisted zero bundle
    @example(sl(O(1)), [(0, False), (-1, True)], True)
    @example(U2, [(0, True)], False)
    def test_equals_the_whole_tree_walk(self, e, twists, base_first):
        root = twisted(e, twists)
        _weigh.cache_clear()
        if base_first:
            weight_ranges(untwisted(root)[-1], Y23, WorkBudget())
        want = outcome(weight_ranges_by_walk, root)
        assert outcome(weight_ranges, root) == want
        assert outcome(weight_ranges, root) == want  # warm

    @pytest.mark.parametrize("e", [
        twisted(direct_sum(*map(O, range(10))), [(2, True)]),
        twisted(direct_sum(*map(O, range(10))), [(-1, False)]),
        twisted(sym2(direct_sum(O(0), O(1), U1)), [(1, True), (-2, False), (0, True)]),
        twisted(sl(O(1)), [(3, False)]),
    ])
    def test_limits_refuse_as_the_walk_does(self, monkeypatch, e):
        # every MAX_TERMS up to above the widest product and every
        # MAX_WORK_TERMS up to above the cost: the same ranges or error text,
        # with the base cold and warm, and the same budget left where the walk
        # succeeds; a refusal ends the request, and a refused walk charges nothing
        _, left = outcome(weight_ranges_by_walk, e)
        limits = [(t, MAX_WORK_TERMS) for t in range(20)]
        limits += [(MAX_TERMS, w) for w in range(MAX_WORK_TERMS - left + 2)]
        chain = untwisted(e)
        refusals = 0
        for max_terms, max_work in limits:
            monkeypatch.setattr(bundles, "MAX_TERMS", max_terms)
            monkeypatch.setattr(bundles, "MAX_WORK_TERMS", max_work)
            want = outcome(weight_ranges_by_walk, e)
            refused = isinstance(want[0], str)
            refusals += refused
            for base_first in (False, True):
                _weigh.cache_clear()
                if base_first:
                    outcome(weight_ranges, chain[-1])
                got = outcome(weight_ranges, e)
                assert got[0] == want[0] and (refused or got[1] == want[1]), (
                    max_terms, max_work, base_first)
        assert refusals > 0
        _weigh.cache_clear()


class TestTelemanCertify:
    def test_sl_u1_passes(self):
        rows = teleman_certify(sl(U1), Y23)
        assert all(r.passed for r in rows)
        first = next(r for r in rows if r.hn_type == ((1, 1), (1, 2)))
        assert first.max_weight == 5
        assert first.eta == 15

    def test_anticanonical_cube_fails_with_zero_margin(self):
        # Serre duality forces nonvanishing top cohomology, so no
        # certificate may exist; strictness fails exactly at margin 0.
        rows = teleman_certify(O(-3), Y23)
        assert not all(r.passed for r in rows)
        row = next(r for r in rows if r.hn_type == ((1, 1), (1, 2)))
        assert row.margin == 0 and not row.passed

    def test_dual_pair_passes(self):
        assert all(r.passed for r in teleman_certify(tensor(dual(U1), dual(U1)), Y23))

    def test_report_serialization(self, capsys):
        assert main(["teleman", "--expr", "sl(U1)"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is True
        assert len(doc["strata"]) == 7
        record = doc["strata"][0]
        assert set(record) == {"hn_type", "eta", "max_weight", "margin", "pass"}

    def test_margin_is_strict_integer_rule(self):
        for row in teleman_certify(O(-3), Y23):
            assert row.passed == (row.margin >= 1)

    def test_max_weight_is_the_top_of_the_weight_range(self):
        rng = random.Random(12)
        for _ in range(20):
            e = random_expr(rng, depth=2)
            ranges = weight_ranges(e, Y23, WorkBudget())
            for row, stratum, r in zip(teleman_certify(e, Y23), unstable_strata(Y23), ranges):
                ws = weights_of(e, stratum.weights)
                assert r == (ws[-1], ws[0]) and row.max_weight == ws[0]

    def test_zero_bundle_is_vacuously_certified(self):
        assert weight_ranges(sl(O(1)), Y23, WorkBudget()) == (None,) * 7
        rows = teleman_certify(sl(O(1)), Y23)
        assert all(r.passed for r in rows)
        assert all(r.max_weight is None and r.margin is None for r in rows)

    def test_strata_share_one_work_budget(self):
        # about 200,000 terms on each stratum, over MAX_WORK_TERMS on all seven
        block = sym2(tensor(*[direct_sum(O(0), O(2 ** k)) for k in range(8)]))
        e = direct_sum(direct_sum(block, block), direct_sum(block, block))
        for stratum in unstable_strata(Y23):
            characters([stratum.weights], e, WorkBudget())
        for _ in range(2):  # exceptions are not cached
            with pytest.raises(ValueError, match=f"exceed {MAX_WORK_TERMS} terms"):
                weight_ranges(e, Y23, WorkBudget())

    def test_cached_ranges_equal_uncached(self):
        rng = random.Random(13)
        for _ in range(20):
            e = random_expr(rng, depth=2)
            _weigh.cache_clear()
            cold, warm = WorkBudget(), WorkBudget()
            first = weight_ranges(e, Y23, cold)
            assert weight_ranges(e, Y23, warm) is first
            assert warm.left == cold.left

    def test_repeated_certificates_hit_one_entry(self):
        e = sym2(tensor(U1, dual(U2)))
        _weigh.cache_clear()
        first = teleman_certify(e, Y23)
        for hits in range(4):
            info = _weigh.cache_info()
            assert (info.hits, info.misses, info.currsize) == (hits, 1, 1)
            assert teleman_certify(e, Y23) == first

    def test_one_walk_for_all_strata(self, monkeypatch):
        # a cold weight_ranges evaluates each node of the tree once, and an
        # sl node also its O(0), however many strata there are; a twist by
        # O(n) evaluates only the nodes of its untwisted base, and none when
        # the base is warm
        def nodes(e):
            if e.op in ("U1", "U2", "O"):
                return 1
            return 1 + (e.op == "sl") + sum(nodes(a) for a in e.args)

        calls = []

        def counted(*args):
            calls.append(args[0])
            return evaluate(*args)

        monkeypatch.setattr(bundles, "evaluate", counted)
        rng = random.Random(15)
        extra = [sl(sym2(U2)), sl(O(1)), twist(twist(sym2(U1), 1), -2), tensor(O(2), sl(U2)),
                 twist(sl(O(1)), 3), twist(U1, 0), tensor(O(1), O(2))]
        for e in [random_expr(rng) for _ in range(20)] + extra:
            chain = untwisted(e)
            _weigh.cache_clear()
            calls.clear()
            weight_ranges(e, Y23, WorkBudget())
            assert len(calls) == nodes(chain[-1]), e
            calls.clear()
            weight_ranges(e, Y23, WorkBudget())  # warm
            assert calls == []
            _weigh.cache_clear()
            weight_ranges(chain[-1], Y23, WorkBudget())
            calls.clear()
            weight_ranges(e, Y23, WorkBudget())  # only the base warm
            assert calls == []

    def test_equals_the_stratum_checks_route(self):
        # the one loop of teleman_certify against margins, rule and checks
        rng = random.Random(14)
        exprs = [random_expr(rng, depth=2) for _ in range(30)] + [sl(O(1))]
        for spec in [standard_collection(), *collection_variants().values()]:
            exprs += [e for _, e in spec.objects]
        for e in exprs:
            highest = [None if r is None else r[1] for r in weight_ranges(e, Y23, WorkBudget())]
            assert teleman_certify(e, Y23) == stratum_checks(unstable_strata(Y23), highest)

    def test_huge_rank_is_never_expanded(self):
        inner = tensor(sl(U2), sl(U2))
        e = sym2(sym2(sym2(inner)))
        assert e.rank == 2_341_968_470_920
        big, small = teleman_certify(e, Y23), teleman_certify(inner, Y23)
        for row, inner_row in zip(big, small):
            assert row.max_weight == 8 * inner_row.max_weight
