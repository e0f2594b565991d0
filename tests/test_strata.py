import ast
import json
import operator
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import check_hn
from golden import HN_TYPES_23, STRATUM_TABLE
from oracles import KRONECKER3, random_expr, stratum_checks, weight_ranges_by_walk, weights_of
from test_cli import TESTS, TRANSCRIPT, main_output
from test_quiver import hn_candidates, many_arrows_quiver_dim_theta, quiver_dim_theta
from test_verify import EXPRS
from quivercert import bundles
from quivercert.bundles import (MAX_TERMS, MAX_WORK_TERMS, O, U1, U2, StratumWeights, WorkBudget,
                                characters, direct_sum, dual, evaluate, sl, sym2, tensor, twist)
from quivercert.quiver import (MAX_CACHED_SETUPS, Quiver, _lattice, enumerate_hn_types,
                               has_semistable, reduced_slope)
from quivercert.cli import main
from quivercert.strata import (
    Moduli,
    _weigh,
    codim_and_eta,
    hn_records,
    one_ps_from_hn,
    teleman_certify,
    universal_weights,
    unstable_strata,
    weight_ranges,
)
from quivercert.verify import collection_variants, standard_collection

Y23 = Moduli.kronecker23()

HN_RECORDS = [r for r in TRANSCRIPT if r["argv"][0] in ("hn-types", "teleman")]


def as_json(value):
    """``value`` as it reads back from JSON: tuples become lists."""
    return json.loads(json.dumps(value))


def blocks_of(tau, theta):
    """The one-parameter subgroup of the stratum of tau, from its parts' slopes."""
    return one_ps_from_hn(tau, tuple(reduced_slope(theta, part) for part in tau))


def one_ps(tau):
    """The one-parameter subgroup of a stratum of Y."""
    return blocks_of(tau, Y23.theta)


@st.composite
def with_vertices_where_d_is_zero(draw):
    """``(small, big, at)``: a setup ``(quiver, d, theta)`` of
    ``quiver_dim_theta`` and the same with 1-3 vertices added where d is 0,
    at drawn positions and with any theta there.  Each added vertex is the
    source or the target of all of its arrows, 0-2 to each old vertex, and
    arrows run from added sources to added targets, so the quiver stays
    acyclic.  ``at[v]`` is the index in ``big`` of vertex v of ``small``."""
    quiver, d, theta = small = draw(quiver_dim_theta(balanced=True))
    n, k = quiver.vertex_count, draw(st.integers(1, 3))
    at = sorted(draw(st.permutations(range(n + k)))[:n])  # in order, as types sort by parts
    added = [x for x in range(n + k) if x not in at]
    sources = [draw(st.booleans()) for _ in added]
    arrows = [(at[i], at[j]) for i, j in quiver.arrows]
    for x, source in zip(added, sources):
        for v in at:
            arrows += [(x, v) if source else (v, x)] * draw(st.integers(0, 2))
        if source:
            arrows += [(x, y) for y, s in zip(added, sources) if not s] * draw(st.integers(0, 1))
    big_d, big_theta = [0] * (n + k), [draw(st.integers(-3, 3)) for _ in range(n + k)]
    for v, x in enumerate(at):
        big_d[x], big_theta[x] = d[v], theta[v]
    return small, (Quiver(n + k, arrows), tuple(big_d), tuple(big_theta)), tuple(at)


#: The 3-Kronecker quiver at (7, 7) and the same with 198 vertices added where
#: d is 0, four arrows touching them.
KRONECKER_200 = (
    (KRONECKER3, (7, 7), (7, -7)),
    (Quiver(200, ((0, 1),) * 3 + ((1, 2), (0, 199), (150, 0), (2, 3))), (7, 7) + (0,) * 198,
     (7, -7) + tuple(x % 5 - 2 for x in range(198))),
    (0, 1))


@pytest.fixture(scope="module")
def strata():
    return {s.hn_type: s for s in unstable_strata(Y23)}


class TestOnePS:
    def test_block_construction(self):
        s = blocks_of(((1, 1), (1, 2)), (3, -2))
        assert s == (((3, 1), (-2, 1)), ((3, 1), (-2, 2)))

    def test_no_gcd_reduction(self):
        # slopes 4/3 and -2 clear to weights (4, -6), gcd 2 kept
        s = blocks_of(((2, 1), (0, 2)), (3, -2))
        assert s == (((4, 2),), ((4, 1), (-6, 2)))

    def test_trivial_type(self):
        s = blocks_of(((2, 3),), (3, -2))
        assert s == (((0, 2),), ((0, 3),))

    @settings(max_examples=100, deadline=None)
    @given(quiver_dim_theta(balanced=True))
    def test_weights_strictly_decrease(self, case):
        # what no check on the record path enforces: the slopes of a type's
        # parts strictly decrease and the build keeps only m > 0
        quiver, d, theta = case
        for tau in enumerate_hn_types(quiver, d, theta):
            for vertex in blocks_of(tau, theta):
                assert all(m > 0 for _, m in vertex), tau
                assert all(a > b for (a, _), (b, _) in zip(vertex, vertex[1:])), tau

    @pytest.mark.parametrize("d", [(2, 3), (3, 4), (3, 5), (4, 5), (4, 7)])
    def test_equals_fraction_slope_oracle_on_the_ladder(self, d):
        # the outside checker's one-PS, from Fraction slopes and their lcm
        theta = (d[1], -d[0])
        for tau in enumerate_hn_types(KRONECKER3, d, theta):
            assert as_json(blocks_of(tau, theta)) == check_hn.one_ps(theta, tau)

    @settings(max_examples=200, deadline=None)
    @given(quiver_dim_theta(balanced=True))
    def test_equals_fraction_slope_oracle(self, case):
        quiver, d, theta = case
        for tau in enumerate_hn_types(quiver, d, theta):
            assert as_json(blocks_of(tau, theta)) == check_hn.one_ps(theta, tau)

    @settings(max_examples=100, deadline=None)
    @given(quiver_dim_theta(balanced=True))
    def test_multiplicities_sum_to_the_dimension_vector(self, case):
        quiver, d, theta = case
        for tau in enumerate_hn_types(quiver, d, theta):
            blocks = blocks_of(tau, theta)
            assert tuple(sum(m for _, m in vertex) for vertex in blocks) == d

    @pytest.mark.parametrize("tau", [((2, 3), (0, 0)), ((0, 0), (2, 3)), ((1, 1), (1, 2, 0)),
                                     ((1, 1, 0), (1, 2))])
    def test_zero_or_misshapen_part_is_refused(self, tau):
        # one_ps_from_hn reads only enumerated types: the gate refuses such a
        # part as a dimension vector, and no type of (2, 3) holds one
        bad = next(part for part in tau if len(part) != 2 or not any(part))
        with pytest.raises(ValueError, match="must be nonzero|has wrong length"):
            has_semistable(KRONECKER3, bad, (3, -2))
        assert tau not in enumerate_hn_types(KRONECKER3, (2, 3), (3, -2))


@pytest.mark.parametrize("build", [
    lambda: Quiver(2, ((0.5, 1),)),
    lambda: hn_records(KRONECKER3, (1.5, 1), (1, -1)),
    lambda: hn_records(KRONECKER3, (1, 1), (1.5, -1.5)),
    lambda: Moduli(KRONECKER3, (2, 3), (3.7, -2.2), (1, -1)),
    lambda: Moduli(KRONECKER3, (2, 3), (3, -2), (1.5, -1)),
    lambda: O(1.5),
    lambda: hn_records(KRONECKER3, (2, 2.5), (3, -2)),
], ids=["quiver-arrow", "slope-dim", "slope-theta", "moduli-theta", "moduli-twist", "O(n)",
        "one-ps-part"])
def test_non_integer_input_is_refused(build):
    # int() would truncate each of these to an integer and carry on
    with pytest.raises(ValueError, match="integer"):
        build()


def test_no_fraction_on_the_strata_path(monkeypatch):
    expected = unstable_strata(Y23), teleman_certify(sl(U1), Y23)

    def refuse(*args, **kwargs):
        raise AssertionError("Fraction built on the strata path")

    for cached in (_lattice, unstable_strata, _weigh):
        cached.cache_clear()
    monkeypatch.setattr(Fraction, "__new__", refuse)
    assert unstable_strata(Moduli.kronecker23()) == expected[0]
    assert teleman_certify(sl(U1), Y23) == expected[1]


class TestHnRecords:
    @pytest.mark.parametrize("d,theta", [((2.0, 3), (3, -2)), ((2, 3), (3.0, -2)),
                                         ((2, 3), (3, -2.0))],
                             ids=["dim-float", "theta-float", "theta-last-float"])
    def test_non_integer_input_is_refused_after_the_integer_one(self, d, theta):
        # (2.0, 3) == (2, 3) and hash alike: no cache may answer it
        hn_records(KRONECKER3, (2, 3), (3, -2))
        with pytest.raises(ValueError, match="non-integer"):
            hn_records(KRONECKER3, d, theta)

    def test_list_input_gives_the_tuple_input_s_records(self):
        assert hn_records(KRONECKER3, [2, 3], [3, -2]) == hn_records(KRONECKER3, (2, 3), (3, -2))

    def test_caches_stay_within_their_bound(self):
        # more distinct theta than an entry bound: the least recently used go
        thetas = [(3 * k, -2 * k) for k in range(1, MAX_CACHED_SETUPS + 21)]
        first = [unstable_strata(Moduli(KRONECKER3, (2, 3), theta, (1, -1))) for theta in thetas]
        info = unstable_strata.cache_info()
        assert 0 < info.currsize <= MAX_CACHED_SETUPS == info.maxsize
        again = [unstable_strata(Moduli(KRONECKER3, (2, 3), theta, (1, -1)))
                 for theta in reversed(thetas)]
        assert again[::-1] == first

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(quiver_dim_theta(balanced=True), many_arrows_quiver_dim_theta(balanced=True)))
    def test_pass_the_outside_check(self, case):
        # each slope, one-parameter subgroup, codim and eta that hn-types prints
        quiver, d, theta = case
        argv = ["hn-types", "--quiver", json.dumps(quiver.to_json_dict()),
                "--dim=" + ",".join(map(str, d)), "--theta=" + ",".join(map(str, theta))]
        code, out = main_output(argv)
        assert check_hn.check_document(argv, json.loads(out), code) == "hn-types"

    @settings(max_examples=200, deadline=None)
    @given(with_vertices_where_d_is_zero())
    @example(KRONECKER_200)
    def test_vertices_where_d_is_zero_only_pad_the_records(self, case):
        # each part zero-padded, and an empty block at each added vertex
        small, big, at = case
        size = big[0].vertex_count

        def padded(entries, fill):
            out = [fill] * size
            for x, entry in zip(at, entries):
                out[x] = entry
            return tuple(out)

        assert hn_records(*big) == tuple(
            (tuple(padded(part, 0) for part in parts), slopes, codim,
             None if blocks is None else padded(blocks, ()), eta)
            for parts, slopes, codim, blocks, eta in hn_records(*small))


class TestGoldenTable:
    def test_stratum_count(self, strata):
        assert len(strata) == 7

    def test_cell_for_cell(self, strata):
        for tau, row in STRATUM_TABLE.items():
            s = strata[tau]
            assert one_ps(tau) == row["one_ps"], tau
            assert s.weights[0] == row["u1"], tau
            assert s.weights[1] == row["u2"], tau
            assert sum(s.weights[0]) == row["det_u1"], tau
            assert s.eta == row["eta"], tau

    def test_eta_positive(self, strata):
        assert all(s.eta > 0 for s in strata.values())

    def test_codim_spot_values(self):
        codims = {parts: codim for parts, _, codim, _, _ in hn_records(*Y23[:3])}
        assert (codims[((1, 1), (1, 2))], codims[((2, 3),)], codims[((2, 0), (0, 3))]) == (3, 0, 18)

    def test_codim_equals_direction_count(self, strata):
        # the package's walk against the outside checker's, on every stratum of Y
        codims = {parts: codim for parts, _, codim, _, _ in hn_records(*Y23[:3])}
        arrows = Counter(KRONECKER3.arrows)
        for tau, s in strata.items():
            outside = check_hn.codim_and_eta(arrows, check_hn.one_ps(Y23.theta, tau))
            assert codim_and_eta(KRONECKER3, one_ps(tau)) == outside == (codims[tau], s.eta)

    def test_direction_counts_spot_values(self):
        # with no arrows the checker's walk counts the gauge directions alone, negated
        def counts(tau):
            blocks = check_hn.one_ps(Y23.theta, tau)
            gauge = -check_hn.codim_and_eta(Counter(), blocks)[0]
            return check_hn.codim_and_eta(Counter(KRONECKER3.arrows), blocks)[0] + gauge, gauge

        assert counts(((1, 1), (1, 2))) == (6, 3)
        assert counts(((2, 0), (0, 3))) == (18, 0)


def assert_each_move_named(rows, where: str, check) -> Counter:
    """``check`` refuses ``rows`` with any one integer in the JSON text of a
    field moved by one, a slope's numerator or denominator included, or any
    one flag flipped, and names the row and the field; returns the number
    of moves per field."""
    moved = Counter()
    for k, row in enumerate(rows):
        for field in {"slopes", "semistable_stratum", "one_ps", "codim", "eta", "margin",
                      "pass"} & row.keys():
            text = json.dumps(row[field])
            for m in re.finditer(r"-?\d+|true|false", text):
                flipped = {"true": ["false"], "false": ["true"]}.get(m[0])
                for new in flipped or [str(int(m[0]) + step) for step in (-1, 1)]:
                    copy = as_json(rows)
                    copy[k][field] = json.loads(text[:m.start()] + new + text[m.end():])
                    moved[field] += 1
                    with pytest.raises(check_hn.Mismatch, match=rf"^{where}\[{k}\]\.{field}:"):
                        check(copy)
    return moved


def seeded_calls(seed=51) -> list:
    """Gated argv: ``hn-types`` on 2-3-vertex quivers (up to three parallel arrows,
    zeros in d), on the ladder and on ``kronecker:10000`` (7, 7); ``teleman`` on the ladder."""
    rng = random.Random(seed)
    calls = [["hn-types", "--quiver", "kronecker:10000", "--dim", "7,7", "--theta", "7,-7"]]
    for (a, b), twist in (((2, 3), "1,-1"), ((3, 4), "1,-1"), ((3, 5), "-2,1"), ((4, 5), "1,-1"),
                          ((4, 7), "-2,1")):
        setup = [f"--dim={a},{b}", f"--theta={b},{-a}"]
        calls += [["hn-types", *setup]] + [["teleman", *setup, f"--twist={twist}", "--expr", e]
                                           for e in ("U1", "sl(U2)", "O(-3)", "dual(U2)")]
    while len(calls) < 340:
        n = rng.randint(2, 3)
        arrows = [[i, j] for i in range(n) for j in range(i + 1, n)
                  for _ in range(rng.randint(0, 3))]
        d, theta = [rng.randint(0, 3) for _ in range(n)], [rng.randint(-3, 3) for _ in range(n)]
        dot = sum(map(operator.mul, theta, d))
        calls.append(["hn-types", "--quiver", json.dumps({"vertices": n, "arrows": arrows}),
                      "--dim=" + ",".join(map(str, d)),
                      "--theta=" + ",".join(str(t * sum(d) - dot) for t in theta)])
    return calls


class TestOutsideChecker:
    """``tests/check_hn.py`` re-derives every printed HN record from the
    quiver, theta and the parts alone, and names the first field that does
    not follow."""

    def test_transcript_records_pass_and_each_moved_field_is_named(self):
        for record in HN_RECORDS:
            argv, code, doc = record["argv"], record["code"], json.loads(record["stdout"])
            assert check_hn.check_document(argv, doc, code) == argv[0]
            where = "types" if argv[0] == "hn-types" else "strata"
            assert_each_move_named(doc[where], where, lambda rows: check_hn.check_document(
                argv, {**doc, where: rows}, code))
            if argv[0] == "teleman":
                with pytest.raises(check_hn.Mismatch, match=r"^pass:"):
                    check_hn.check_document(argv, {**doc, "pass": not doc["pass"]}, code)

    def test_golden_tables_pass_and_each_moved_field_is_named(self):
        # HN_TYPES_23, with the one_ps and eta of STRATUM_TABLE
        rows = as_json([{"parts": tau, "semistable_stratum": len(tau) == 1,
                         **{key: STRATUM_TABLE[tau][key] for key in ("one_ps", "eta")
                            if tau in STRATUM_TABLE}} for tau in HN_TYPES_23])
        quiver = as_json(KRONECKER3.to_json_dict())
        check_hn.check_rows(quiver, [2, 3], [3, -2], rows, "types", full=False)
        moved = assert_each_move_named(rows, "types", lambda copy: check_hn.check_rows(
            quiver, [2, 3], [3, -2], copy, "types", full=False))
        assert moved["eta"] == 2 * len(STRATUM_TABLE) and moved["one_ps"] >= 4 * len(STRATUM_TABLE)

    def test_seeded_cli_documents_pass(self):
        checked = Counter()
        for argv in seeded_calls():
            code, out = main_output(argv)
            if code != 2:  # refused by the gate: nothing printed to check
                checked[check_hn.check_document(argv, json.loads(out), code)] += 1
        assert checked["hn-types"] >= 300 and checked["teleman"] == 20

    @pytest.mark.parametrize("parts", [[[1, 0], [1, -1], [0, 4]], [[2, 0], [0, 3, 0]],
                                       [[2, 3], [0, 0]], [[2, 3.0]], [[2, True], [0, 2]], []],
                             ids=["negative", "wrong-length", "zero", "float", "flag", "empty"])
    def test_malformed_part_is_refused(self, parts):
        with pytest.raises(check_hn.Mismatch,
                           match=r"^types\[0\]\.parts: not a list of nonzero dimension vectors$"):
            check_hn.check_rows(as_json(KRONECKER3.to_json_dict()), [2, 3], [3, -2],
                                [{"parts": parts}], "types")

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(hn_candidates(), hn_candidates(balanced=True)))
    def test_codim_and_eta_equal_the_package_s_on_any_chain(self, case):
        # an HN type or not: any nonzero parts of strictly decreasing slope
        quiver, d, theta, tau = case
        assume(tau and all(len(p) == len(d) and min(p) >= 0 and any(p) for p in tau))
        slopes = [Fraction(sum(map(operator.mul, theta, p)), sum(p)) for p in tau]
        assume(all(a > b for a, b in zip(slopes, slopes[1:])))
        blocks = check_hn.one_ps(theta, tau)
        s = blocks_of(tau, theta)
        assert as_json(s) == blocks
        assert codim_and_eta(quiver, s) == check_hn.codim_and_eta(Counter(quiver.arrows), blocks)

    def test_runs_as_a_script(self):
        # -I: no PYTHONPATH, no script directory and no user site on sys.path
        script = [sys.executable, "-I", str(TESTS / "check_hn.py")]
        argv = ["hn-types", "--dim=3,5", "--theta", "5,-3"]
        doc = json.loads(main_output(argv)[1])
        for stdin, args, code in [(json.dumps(TRANSCRIPT), [], 0), (json.dumps(doc), argv, 0),
                                  (json.dumps({**doc, "dim": [3, 4]}), argv, 1)]:
            done = subprocess.run(script + args, input=stdin, capture_output=True, text=True)
            assert done.returncode == code
        assert done.stderr.startswith("hn-types --dim=3,5 --theta 5,-3: dim: printed [3, 4]")

    def test_imports_the_standard_library_only(self):
        for node in ast.walk(ast.parse((TESTS / "check_hn.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0 and node.module in sys.stdlib_module_names, node.module
            elif isinstance(node, ast.Import):
                assert all(a.name.split(".")[0] in sys.stdlib_module_names for a in node.names)
            assert getattr(node, "id", getattr(node, "attr", None)) not in (
                "__import__", "import_module"), "an import at run time"


class TestUniversalWeights:
    def test_stratum_records_hold_declared_fields_only(self, strata):
        for s in strata.values():
            assert s._fields == ("hn_type", "eta", "weights")
            # without a __dict__, each record holds its tuple fields and nothing else
            assert not hasattr(s, "__dict__")
            assert type(s.weights) is StratumWeights and not hasattr(s.weights, "__dict__")

    def test_shift_values(self):
        for tau, shift in [(((1, 1), (1, 2)), 2), (((2, 1), (0, 2)), 16), (((2, 0), (0, 3)), 12)]:
            s = one_ps(tau)
            assert universal_weights(s, Y23.twist) == tuple(
                tuple(w + shift for w, m in vertex for _ in range(m)) for vertex in s)

    def test_one_shift_per_stratum(self, monkeypatch):
        calls = []

        def counted(s, twist):
            calls.append(s)
            return universal_weights(s, twist)

        monkeypatch.setattr("quivercert.strata.universal_weights", counted)
        unstable_strata.cache_clear()
        try:
            computed = unstable_strata(Y23)
        finally:
            unstable_strata.cache_clear()
        assert len(calls) == len(computed) == 7
        assert [one_ps(s.hn_type) for s in computed] == calls

    def test_twist_normalization_enforced(self):
        # Moduli is the one place that checks the twist: its normalization and its length
        with pytest.raises(ValueError, match="twist . d must be -1"):
            Moduli(KRONECKER3, (2, 3), (3, -2), (1, 1))
        with pytest.raises(ValueError, match="length mismatch"):
            Moduli(KRONECKER3, (2, 3), (3, -2), (1, -1, 0))

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
        ones = (((1, 2),), ((1, 3),))
        base = universal_weights(ones, (1, -1))
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
            ones = tuple(((1, n),) if n > 0 else () for n in d)
            base = universal_weights(ones, twist)
            for leaf in (U1, U2, O(rng.randint(-20, 20))):
                assert set(characters([base], leaf, WorkBudget()).maps[0]) <= {0}, (d, twist, leaf)
            checked += 1

    def test_scale_invariance(self, strata):
        rng = random.Random(11)
        for s in strata.values():
            for n in (2, 5):
                scaled = tuple(tuple((w * n, m) for w, m in vertex) for vertex in one_ps(s.hn_type))
                assert codim_and_eta(KRONECKER3, scaled)[1] == n * s.eta
                ws = universal_weights(scaled, Y23.twist)
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
