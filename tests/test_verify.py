import contextlib
import copy
import functools
import gc
import inspect
import io
import json
import pickle
import random
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from golden import CHI_VALUES
from oracles import (KRONECKER3, VARIANTS_BY_HAND, accepted_by_four_keys, ch_identities_by_hand,
                     clear_package_caches, coefficient, euler_pairing_by_fractions, integral,
                     mutation_ledger, package_caches, package_modules, random_expr,
                     symmetry_functor, verify_collection_by_fractions)
from quivercert import bundles, chow, quiver, repgeom, strata, verify
from quivercert.bundles import (O, U1, U2, BundleExpr, WorkBudget, det, direct_sum, dual,
                                parse_expr, sl, sym2, tensor, twist, wedge2)
from quivercert.chow import (ChowElement, RingInconsistencyError, ch_of, chi, chi_row,
                             scaled_pairing, todd_y)
from quivercert.cli import main
from quivercert.quiver import Quiver
from quivercert.strata import Moduli, teleman_certify, unstable_strata, weight_ranges
from quivercert.verify import (
    EXCEPTIONAL,
    MAX_OBJECTS,
    ORTHOGONAL,
    STRONG_EXT,
    UNDETERMINED,
    VARIANTS,
    CollectionSpec,
    check_ch_identities,
    collection_variants,
    mutate,
    mutation_ledger_check,
    standard_collection,
    verify_collection,
)

Y23 = Moduli.kronecker23()


@pytest.fixture(scope="module")
def standard_result():
    return verify_collection(standard_collection(), Y23)


def chi_pair(e: BundleExpr, f: BundleExpr) -> int:
    """chi(e, f) as ``verify_collection`` and ``mutate`` take it: the row of
    e of the bilinear form of chi, paired with ch(f)."""
    return scaled_pairing(chi_row(e), ch_of(f), e, f)


def undetermined(result) -> list:
    """The pairs of a result whose verdict is undetermined."""
    return [p for row in result.pairs for p in row if p.verdict == UNDETERMINED]


@contextlib.contextmanager
def bent_todd():
    """A Todd class with top coefficient lowered by 1/2, under which chi(O, O)
    would be 1/2.  Every cache of the package is cleared before and after the
    bend, so that no chi form or row made under one class answers for the
    other."""
    bent = todd_y() - ChowElement.basis("c3^2").half()
    clear_package_caches()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(chow, "todd_y", lambda: bent)
            yield
    finally:
        clear_package_caches()


@pytest.fixture
def bent():
    with bent_todd():
        yield


class TestEulerPairing:
    def test_traceless_to_dual(self):
        assert chi_pair(sl(U1), dual(U2)) == 3

    def test_shifted_hom(self):
        assert chi_pair(tensor(dual(U1), twist(U2, 2)), twist(U2, 1)) == -1

    def test_unit(self):
        assert chi_pair(O(0), O(0)) == 1

    def test_symmetry_functor_reverses(self):
        rng = random.Random(21)
        for _ in range(15):
            e = random_expr(rng, depth=2, max_rank=20)
            f = random_expr(rng, depth=2, max_rank=20)
            assert chi_pair(e, f) == chi_pair(
                symmetry_functor(f), symmetry_functor(e)
            )

    def test_serre_pairing(self):
        rng = random.Random(22)
        for _ in range(15):
            e = random_expr(rng, depth=2, max_rank=20)
            f = random_expr(rng, depth=2, max_rank=20)
            assert chi_pair(e, f) == chi_pair(f, twist(e, -3))


class TestStandardCollection:
    def test_size_and_labels(self):
        spec = standard_collection()
        assert len(spec.objects) == 13
        assert spec.labels()[0] == "sl(U1)"
        assert spec.labels()[-1] == "U2(3)"

    def test_diagonal(self, standard_result):
        for i in range(13):
            assert standard_result.pairs[i][i].verdict == EXCEPTIONAL
            assert standard_result.pairs[i][i].chi == 1

    def test_forward_strong(self, standard_result):
        for i in range(13):
            for j in range(i + 1, 13):
                status = standard_result.pairs[i][j]
                assert status.verdict == STRONG_EXT
                assert status.chi >= 0

    def test_backward_chi_zero(self, standard_result):
        for i in range(13):
            for j in range(i):
                assert standard_result.pairs[i][j].chi == 0

    def test_undetermined_only_backward(self, standard_result):
        for p in undetermined(standard_result):
            assert p.i > p.j
            assert p.blocking  # names the blocking strata with margins

    def test_accepted(self, standard_result):
        assert standard_result.accepted

    def test_sl_and_o_mutually_orthogonal(self, standard_result):
        spec = standard_collection()
        i_sl = spec.labels().index("sl(U1)")
        i_o = spec.labels().index("O")
        assert standard_result.pairs[i_o][i_sl].verdict == ORTHOGONAL
        forward = standard_result.pairs[i_sl][i_o]
        assert forward.verdict == STRONG_EXT and forward.chi == 0

    def test_hom_dimension_spot_values(self, standard_result):
        spec = standard_collection()
        labels = spec.labels()
        # forward morphism spaces sit in degree 0 of dimension chi
        assert standard_result.pairs[labels.index("sl(U1)")][labels.index("U2*")].chi == 3
        assert standard_result.pairs[labels.index("O")][labels.index("O(1)")].chi == 20

    def test_json_shape(self, capsys):
        assert main(["verify-collection"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["pairs"]) == 13
        assert doc["accepted"] is True
        assert "fullness" in doc["summary"]["note"]


class TestSmallCollections:
    def test_two_line_bundles(self):
        result = verify_collection(
            CollectionSpec((("O", O(0)), ("O(1)", O(1)))), Y23
        )
        assert result.pairs[0][0].verdict == EXCEPTIONAL
        assert result.pairs[0][1].verdict == STRONG_EXT
        assert result.pairs[0][1].chi == 20
        back = result.pairs[1][0]
        assert back.verdict == ORTHOGONAL and back.chi == 0

    def test_traceless_and_unit(self):
        result = verify_collection(
            CollectionSpec((("sl(U1)", sl(U1)), ("O", O(0)))), Y23
        )
        assert result.pairs[0][1].chi == 0
        assert result.pairs[1][0].chi == 0
        assert result.pairs[0][1].teleman_pass
        assert result.pairs[1][0].teleman_pass

    def test_json_labels_and_object_count(self):
        spec = CollectionSpec.from_json(json.dumps(
            {"objects": [{"expr": "twist(U1, 1)"}, {"expr": "O(0)", "label": "O"}]}))
        assert spec.labels() == ("tensor(U1,O(1))", "O")
        def ones(n):
            return CollectionSpec.from_json(json.dumps({"objects": [{"expr": "O(0)"}] * n}))

        assert len(ones(MAX_OBJECTS).objects) == MAX_OBJECTS
        with pytest.raises(ValueError, match=f"object count above {MAX_OBJECTS}"):
            ones(MAX_OBJECTS + 1)

    def test_distinct_objects_share_one_work_budget(self):
        # each object costs about 928,000 of the MAX_WORK_TERMS weight pairs
        block = sym2(tensor(*[direct_sum(O(0), O(2 ** k)) for k in range(8)]))
        heavy = [twist(direct_sum(block, block), k) for k in (1, 2)]
        # a repeated object is charged once
        assert len(verify_collection(CollectionSpec((("a", heavy[0]),) * 3), Y23).pairs) == 3
        both = CollectionSpec(tuple((str(e), e) for e in heavy))
        for warm in (False, True):
            # a cached object is charged what it cost, so warm and cold agree
            strata._weigh.cache_clear()
            if warm:
                for e in heavy:
                    weight_ranges(e, Y23, WorkBudget())
            with pytest.raises(ValueError, match=f"exceed {bundles.MAX_WORK_TERMS} terms in one"):
                verify_collection(both, Y23)

    def test_an_object_above_the_term_limit_is_refused_for_it(self):
        # each object is weighed on its own before the shared budget is
        # charged: an object that breaks MAX_TERMS alone is refused for that,
        # though the object before it has spent most of the budget
        block = sym2(tensor(*[direct_sum(O(0), O(2 ** k)) for k in range(8)]))
        wide = tensor(*[direct_sum(O(0), O(3 ** k)) for k in range(9)])  # 512 weights
        first, second = twist(direct_sum(block, block), 1), direct_sum(block, tensor(wide, wide))
        message = f"product of characters with 512 and 512 weights exceeds {bundles.MAX_TERMS} terms"
        with pytest.raises(ValueError) as alone:
            verify_collection(CollectionSpec((("b", second),)), Y23)
        assert str(alone.value) == message
        both = CollectionSpec((("a", first), ("b", second)))
        for warm in (False, True):
            strata._weigh.cache_clear()
            if warm:
                weight_ranges(first, Y23, WorkBudget())
            with pytest.raises(ValueError) as refused:
                verify_collection(both, Y23)
            assert str(refused.value) == message

    def test_verdict_table(self):
        from quivercert.verify import _pair_verdict

        assert _pair_verdict(2, 2, 1, True) == EXCEPTIONAL
        assert _pair_verdict(2, 2, 2, True) == UNDETERMINED
        assert _pair_verdict(0, 1, -1, True) == UNDETERMINED
        assert _pair_verdict(1, 0, 0, False) == UNDETERMINED
        assert _pair_verdict(1, 0, 0, True) == ORTHOGONAL


class TestVariants:
    def test_names_and_order(self):
        assert list(collection_variants()) == list(VARIANTS_BY_HAND)

    @pytest.mark.parametrize("name", list(VARIANTS_BY_HAND))
    def test_equal_to_the_lists_by_hand(self, name):
        # the same classes in the same order, and the same pairs; only block 0
        # is spelled as in the standard collection
        spec, by_hand = collection_variants()[name], CollectionSpec(VARIANTS_BY_HAND[name])
        assert len(spec.objects) == 13
        assert [ch_of(e) for _, e in spec.objects] == [ch_of(e) for _, e in by_hand.objects]
        renamed = {"O(0)": "O", "U2*(0)": "U2*", "U1*(0)": "U1*"}
        assert spec.labels() == tuple(renamed.get(label, label) for label in by_hand.labels())
        assert verify_collection(spec, Y23).pairs == verify_collection(by_hand, Y23).pairs

    def test_eighteen_objects_for_eighteen_classes(self):
        specs = [standard_collection(), *collection_variants().values()]
        objects = {e for spec in specs for _, e in spec.objects}
        assert len(objects) == len({ch_of(e) for e in objects}) == 18
        # the lists by hand spelled U2* and U1* of block 0 a second time
        by_hand = {e for _, e in standard_collection().objects} | {
            e for objects in VARIANTS_BY_HAND.values() for _, e in objects}
        assert len(by_hand) == 20 and len({ch_of(e) for e in by_hand}) == 18

    @pytest.mark.parametrize("name", sorted(collection_variants()))
    def test_chi_consistency(self, name):
        spec = collection_variants()[name]
        assert len(spec.objects) == 13
        result = verify_collection(spec, Y23)
        n = len(spec.objects)
        for i in range(n):
            assert result.pairs[i][i].chi == 1, (name, i)
        for i in range(n):
            for j in range(i):
                assert result.pairs[i][j].chi == 0, (name, i, j)
        # undetermined pairs are reported, never asserted empty
        for p in undetermined(result):
            assert p.verdict == UNDETERMINED


POOL = (
    O(0), O(1), O(-1), O(2), U1, U2, dual(U1), dual(U2), twist(U2, 1), twist(dual(U1), 1),
    sl(U1), sl(O(1)), sl(O(0)), det(U2), sym2(dual(U1)), wedge2(U2),
    direct_sum(dual(U1), O(1)), direct_sum(U2, O(-1), sl(O(2))),
    tensor(dual(U1), twist(U2, 2)),
)
#: Spaces other than Y, each with what sets it apart.
NOT_Y = {
    "twist 4,-3": Moduli(KRONECKER3, (2, 3), (3, -2), (4, -3)),
    "P2": Moduli(KRONECKER3, (1, 2), (2, -1), (1, -1)),
    "theta 0,0": Moduli(KRONECKER3, (2, 3), (0, 0), (1, -1)),
    "kronecker:4": Moduli(Quiver.kronecker(4), (2, 3), (3, -2), (1, -1)),
}


def _unary(op, arg):
    # sl of a rank-0 bundle is refused, so take its dual instead
    return BundleExpr(op, (arg,)) if op != "sl" or arg.rank else dual(arg)


_LEAVES = st.one_of(st.sampled_from([U1, U2]), st.integers(-2, 3).map(O),
                    st.integers(-1, 2).map(lambda n: sl(O(n))))  # zero-rank objects
EXPRS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.builds(_unary, st.sampled_from(["dual", "det", "sl", "sym2", "wedge2"]), inner),
    st.builds(twist, inner, st.integers(-2, 3)),
    st.builds(tensor, inner, inner),
    st.builds(direct_sum, inner, inner),
), max_leaves=4).filter(lambda e: e.rank <= 24)


#: Zero-rank objects, which have no weights on any stratum.
ZERO_RANK = st.one_of(st.integers(-1, 2).map(lambda n: sl(O(n))),
                      st.builds(tensor, st.integers(-1, 2).map(lambda n: sl(O(n))), EXPRS))


def _assert_replaced_routes(spec, moduli):
    result = verify_collection(spec, moduli)
    assert result == verify_collection_by_fractions(spec, moduli)
    assert result.accepted == accepted_by_four_keys(result)
    return result


class TestPerObjectRoute:
    """verify_collection against the route it replaced: per-object data
    combined per pair into stratum checks, with chi in Fraction
    arithmetic."""

    @pytest.mark.parametrize("name", ["standard"] + sorted(collection_variants()))
    def test_builtin_collections(self, name):
        spec = standard_collection() if name == "standard" else collection_variants()[name]
        _assert_replaced_routes(spec, Y23)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(POOL), EXPRS), min_size=1, max_size=8))
    def test_random_collections(self, objects):
        _assert_replaced_routes(CollectionSpec(tuple((str(e), e) for e in objects)), Y23)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(POOL), EXPRS), max_size=6), ZERO_RANK, st.data())
    def test_zero_rank_objects(self, objects, zero, data):
        # the zero bundle at position k sits in row k, column k and on the
        # diagonal; it bounds no weight, so all its pairs pass vacuously
        k = data.draw(st.integers(0, len(objects)))
        objects.insert(k, zero)
        assert all(r is None for r in weight_ranges(zero, Y23, WorkBudget()))
        result = _assert_replaced_routes(CollectionSpec(tuple((str(e), e) for e in objects)), Y23)
        for p in result.pairs[k] + tuple(row[k] for row in result.pairs):
            assert p.teleman_pass and p.blocking == () and p.chi == 0, p

    @pytest.mark.parametrize("shift", range(5))
    def test_margin_boundary(self, shift, monkeypatch):
        # on Y every margin is a multiple of 5; shifting eta by 1 puts pairs
        # at margin 1 (certified) next to margin -4, and by 0 at margin 0
        shifted = tuple(s._replace(eta=s.eta + shift) for s in unstable_strata(Y23))
        monkeypatch.setattr(verify, "unstable_strata", lambda moduli: shifted)
        monkeypatch.setattr(oracles, "unstable_strata", lambda moduli: shifted)
        margins = set()
        for spec in [standard_collection(), *collection_variants().values()]:
            result = verify_collection(spec, Y23)
            assert result == verify_collection_by_fractions(spec, Y23)
            margins.update(m for row in result.pairs for p in row for _, m in p.blocking)
        assert max(margins) == -((5 - shift) % 5)  # the blocking margin nearest to 1

    def test_pair_records_are_named_tuples(self, standard_result):
        p = standard_result.pairs[0][1]
        assert isinstance(p, tuple) and p._fields == (
            "i", "j", "chi", "teleman_pass", "verdict", "blocking")
        assert p == (0, 1, p.chi, True, STRONG_EXT, ())

    def test_labels_are_rendered_on_the_error_path_only(self, monkeypatch):
        def refuse(expr):
            raise AssertionError(f"label of {expr.op} rendered")

        spec = standard_collection()
        expected = verify_collection(spec, Y23)
        monkeypatch.setattr(BundleExpr, "__str__", refuse)
        assert verify_collection(spec, Y23) == expected
        assert chi_pair(O(0), O(1)) == 20
        assert chi(O(1)) == 20

    def test_euler_pairing_on_integer_rows(self):
        denominators = set()
        for e in POOL:
            for f in POOL:
                assert chi_pair(e, f) == euler_pairing_by_fractions(e, f), (e, f)
                denominators.add(chow.chi_row(e)[0] * ch_of(f).den)
        assert max(denominators) > 1  # the division is exercised

    def test_fractional_pair_is_ring_inconsistency(self, bent):
        spec = CollectionSpec((("O", O(0)), ("O(1)", O(1))))
        with pytest.raises(RingInconsistencyError, match=r"chi\(O\(0\), O\(0\)\) = 1/2"):
            verify_collection(spec, Y23)
        with pytest.raises(RingInconsistencyError):
            chi_pair(O(0), O(1))

    def test_fractional_pair_with_warm_caches(self):
        # the rows are keyed on the expression only: the chi rows cached
        # under the true Todd class are cleared by the bend, not kept for it
        spec = CollectionSpec((("O", O(0)), ("O(1)", O(1))))
        verify_collection(spec, Y23)
        assert chi_pair(O(0), O(1)) == 20
        with bent_todd():
            with pytest.raises(RingInconsistencyError, match=r"chi\(O\(0\), O\(0\)\) = 1/2"):
                verify_collection(spec, Y23)
            with pytest.raises(RingInconsistencyError, match=r"chi\(O\(0\), O\(1\)\) = 39/2"):
                chi_pair(O(0), O(1))

    def test_no_bent_column_leaks(self, standard_result):
        # the bend fills the caches with a bent form and rows, and none
        # outlives it
        with bent_todd():
            with pytest.raises(RingInconsistencyError):
                verify_collection(standard_collection(), Y23)
        result = verify_collection(standard_collection(), Y23)
        assert result == standard_result and result.accepted
        assert {text: chi_pair(O(0), parse_expr(text)) for text in CHI_VALUES} == CHI_VALUES

    def test_two_vertex_error_comes_first(self):
        path = Moduli(Quiver(3, ((0, 1), (1, 2))), (1, 1, 1), (1, 0, -1), (-1, 0, 0))
        before = unstable_strata.cache_info()
        with pytest.raises(ValueError, match="certified on Y only"):
            verify_collection(standard_collection(), path)
        assert unstable_strata.cache_info() == before

    @pytest.mark.parametrize("name", sorted(NOT_Y))
    def test_spaces_other_than_y_are_refused(self, name):
        # chi comes from the Chow ring of Y whatever the strata, so a
        # certificate on another space would be unfounded
        before = unstable_strata.cache_info()
        with pytest.raises(ValueError, match=r"^collections are certified on Y only"):
            verify_collection(standard_collection(), NOT_Y[name])
        assert unstable_strata.cache_info() == before
        assert verify_collection(standard_collection(), Y23).accepted

    def test_unstable_strata_need_two_vertices(self):
        path = Moduli(Quiver(3, ((0, 1), (1, 2))), (1, 1, 1), (1, 0, -1), (-1, 0, 0))
        with pytest.raises(ValueError, match="two-vertex quiver"):
            unstable_strata(path)


class TestAcceptedRule:
    """``accepted`` against the four-key rule of the summary it replaced."""

    @pytest.mark.parametrize("name", ["standard"] + sorted(collection_variants()))
    def test_builtin_collections(self, name):
        spec = standard_collection() if name == "standard" else collection_variants()[name]
        result = verify_collection(spec, Y23)
        assert result.accepted and accepted_by_four_keys(result)

    def test_golden_collection(self):
        text = (Path(__file__).parent / "golden_collection.json").read_text(encoding="utf-8")
        result = verify_collection(CollectionSpec.from_json(text), Y23)
        # its undetermined pairs are all backward, but two backward chi are not 0
        assert not result.accepted and not accepted_by_four_keys(result)

    def test_reversed_standard_collection_is_rejected(self):
        result = verify_collection(CollectionSpec(standard_collection().objects[::-1]), Y23)
        assert not result.accepted and not accepted_by_four_keys(result)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 12), min_size=1, max_size=6, unique=True), st.booleans(),
           st.lists(st.one_of(st.sampled_from(POOL), EXPRS), max_size=2))
    def test_drawn_collections(self, positions, in_order, extra):
        # positions of the standard collection, in its order or drawn, then extra objects
        std = [e for _, e in standard_collection().objects]
        objects = [std[k] for k in (sorted(positions) if in_order else positions)] + extra
        result = verify_collection(CollectionSpec(tuple((str(e), e) for e in objects)), Y23)
        assert result.accepted == accepted_by_four_keys(result)


class TestChIdentities:
    def test_all_hold(self):
        checks = check_ch_identities()
        assert all(holds for _, holds in checks)
        assert len(checks) == 4

    def test_cached_equals_fresh(self):
        assert check_ch_identities() is check_ch_identities()
        assert check_ch_identities() == check_ch_identities.__wrapped__()

    def test_twisting_second_gives_third(self):
        typed = ch_identities_by_hand()
        (lhs2, rhs2), (lhs3, rhs3) = typed["rank6_tensor_twist1"], typed["rank6_tensor_twist2"]
        o1 = ch_of(O(1))
        assert lhs2 * o1 == lhs3
        assert rhs2 * o1 == rhs3

    def test_typed_sides_hold_in_the_same_order(self):
        typed = ch_identities_by_hand()
        assert [name for name, _ in check_ch_identities()] == list(typed)
        assert all(lhs == rhs for lhs, rhs in typed.values())


STD = tuple(e for _, e in standard_collection().objects)
SLV = sl(dual(U1))


def combination(e, block, c) -> ChowElement:
    """ch(e) - sum c_i ch(A_i), from typed coefficients c."""
    assert len(c) == len(block)
    return ch_of(e) - sum((k * ch_of(a) for k, a in zip(c, block)), ChowElement.zero())


def is_exceptional_block(block) -> bool:
    """Whether chi(A_i, A_j) is upper unitriangular."""
    return all(euler_pairing_by_fractions(a, b) == (i == j) for i, a in enumerate(block)
               for j, b in enumerate(block) if i >= j)


def variant_moves() -> dict:
    """Per record of ``VARIANTS``: the parent's objects, the moved object, the
    block's objects, the side, the sign and the new object."""
    built = {"standard": standard_collection(), **collection_variants()}
    moves = {}
    for name, parent, moved, block, side, sign, (_, text) in VARIANTS:
        objects = [e for _, e in built[parent].objects]
        moves[name] = (objects, objects[moved], [objects[p] for p in block], side, sign,
                       parse_expr(text))
    return moves


class TestMutate:
    #: the coefficients c of each variant's mutation, in the block's order
    VARIANT_COEFFICIENTS = {
        "sl_after_block0": (0, 3, 0, -3),
        "sl_after_block1": (0, 3, 0, -3) * 2,
        "sl_after_block2": (0, 3, 0, -3) * 3,
        "tensor_for_u2_1": (6, 3, -9, 0, 3, 3),
        "tensor_for_u2star_2": (3, 3, 0, -9, 3, 6),
    }
    #: each identity as one right mutation: (new object, sign, moved, block, c)
    IDENTITIES = {
        "sl_twist_exchange": (twist(SLV, 1), 1, sl(U1), STD[1:5], (0, 3, 0, -3)),
        "rank6_tensor_twist1": (tensor(dual(U1), twist(U2, 1)), -1, U2,
                                (*STD[1:5], twist(SLV, 1), STD[5]), (6, 3, -9, 0, 3, 3)),
        "rank6_tensor_twist2": (tensor(dual(U1), twist(U2, 2)), -1, twist(U2, 1),
                                (*STD[5:9], twist(SLV, 2), STD[9]), (6, 3, -9, 0, 3, 3)),
        "rank6_tensor_expanded": (tensor(dual(U1), twist(U2, 1)), -1, U2, STD[:6],
                                  (3, 6, -6, -9, 9, 3)),
    }

    def test_records_are_plain_data(self):
        # no expression is built at import: each record holds text, numbers and positions
        def plain(x):
            return isinstance(x, (str, int, range)) or (
                isinstance(x, tuple) and not isinstance(x, BundleExpr) and all(map(plain, x)))

        assert [name for name, *_ in VARIANTS] == list(self.VARIANT_COEFFICIENTS)
        assert all(plain(record) for record in VARIANTS)

    @pytest.mark.parametrize("name", list(VARIANT_COEFFICIENTS))
    def test_variant_record(self, name):
        objects, moved, block, side, sign, new = variant_moves()[name]
        assert is_exceptional_block(block)
        span = sorted({objects.index(moved), *map(objects.index, block)})
        assert span == list(range(span[0], span[-1] + 1))  # the moved object is adjacent
        assert (objects.index(moved) == span[0]) == (side == "right")
        assert ch_of(new) == sign * mutate(moved, block, side)
        assert mutate(moved, block, side) == combination(moved, block,
                                                         self.VARIANT_COEFFICIENTS[name])

    @pytest.mark.parametrize("name", list(IDENTITIES))
    def test_identity_is_one_mutation(self, name):
        new, sign, moved, block, c = self.IDENTITIES[name]
        assert is_exceptional_block(block)
        assert ch_of(new) == sign * mutate(moved, block, "right") == sign * combination(
            moved, block, c)
        lhs, rhs = ch_identities_by_hand()[name]
        if name != "sl_twist_exchange":  # the others type the new object's class
            assert lhs == rhs == ch_of(new)

    @pytest.mark.parametrize("name", list(IDENTITIES) + list(VARIANT_COEFFICIENTS))
    def test_the_class_is_orthogonal_to_the_block(self, name):
        # checked by integrals in Fraction coordinates, apart from the substitution
        if name in self.IDENTITIES:
            _, _, moved, block, _ = self.IDENTITIES[name]
            side = "right"
        else:
            _, moved, block, side, _, _ = variant_moves()[name]
        x, todd = mutate(moved, block, side), todd_y()
        for a in block:
            if side == "right":
                assert integral(x.dual() * ch_of(a) * todd) == 0
            else:
                assert integral(ch_of(a).dual() * x * todd) == 0

    @pytest.mark.parametrize("name", ["standard"] + list(VARIANT_COEFFICIENTS))
    def test_helix(self, name):
        # omega_Y = O(-3): the last object left-mutated across the other twelve
        # is the last object twisted by -3; this says nothing about fullness
        spec = standard_collection() if name == "standard" else collection_variants()[name]
        objects = [e for _, e in spec.objects]
        assert is_exceptional_block(objects[:-1])
        assert mutate(objects[-1], objects[:-1], "left") == ch_of(twist(objects[-1], -3))
        if name == "standard":
            c = (-3, -6, 6, 9, -9, -3, 3, 0, 0, -6, 0, 3)
            assert mutate(objects[-1], objects[:-1], "left") == combination(
                objects[-1], objects[:-1], c)

    def test_one_object_block(self):
        # across one exceptional object A: ch(E) - chi(E, A) ch(A) to the right,
        # ch(E) - chi(A, E) ch(A) to the left
        assert mutate(O(0), [O(1)], "right") == ch_of(O(0)) - 20 * ch_of(O(1))
        assert mutate(O(1), [O(0)], "left") == ch_of(O(1)) - 20 * ch_of(O(0))
        assert mutate(O(0), [], "left") == ch_of(O(0))

    def test_side_is_checked(self):
        with pytest.raises(ValueError, match="side must be"):
            mutate(O(0), [O(1)], "up")

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_one_chi_row_per_object(self, monkeypatch, side):
        # one chi row and one Chern character per object, whatever the
        # block's length, and the class of the substitution pairing by pairing
        block = list(STD[1:9])
        moved = STD[0] if side == "right" else STD[9]
        reads = []
        for name in ("chi_row", "ch_of"):
            def counted(*args, read=getattr(verify, name), name=name):
                reads.append(name)
                return read(*args)
            monkeypatch.setattr(verify, name, counted)
        x = mutate(moved, block, side)
        assert sorted(reads) == ["ch_of"] * 9 + ["chi_row"] * 9
        pair = (euler_pairing_by_fractions if side == "right"
                else lambda e, f: euler_pairing_by_fractions(f, e))
        c = {}
        for j in range(len(block)) if side == "right" else reversed(range(len(block))):
            c[j] = pair(moved, block[j]) - sum(k * pair(block[i], block[j]) for i, k in c.items())
        assert x == combination(moved, block, [c[j] for j in range(len(block))])


class TestMutationLedger:
    def test_all_checks(self):
        assert all(holds for _, holds in mutation_ledger_check())

    def test_cached_equals_fresh(self):
        assert mutation_ledger_check() is mutation_ledger_check()
        assert mutation_ledger_check() == mutation_ledger_check.__wrapped__()

    def test_ranks(self):
        ledger = mutation_ledger()
        assert coefficient(ledger["l5"], "[Y]") == 3
        assert coefficient(ledger["l4"], "[Y]") == 12
        assert coefficient(ledger["l3"], "[Y]") == 6
        assert coefficient(ledger["l2"], "[Y]") == 6

    def test_two_routes_agree(self):
        ledger = mutation_ledger()
        assert ledger["l3"] == ledger["l2"]

    def test_l6_is_twisted_bundle(self):
        assert mutation_ledger()["l6"] == ch_of(twist(U2, 1))

    def test_l5_to_l3_are_partial_mutations(self):
        # U2(1) right-mutated across the first one, two and three objects of
        # O(1), U2*(1), U1*(1), with the signs of the shifts
        ledger, block = mutation_ledger(), STD[5:8]
        for k, (name, sign) in enumerate((("l5", -1), ("l4", -1), ("l3", 1)), start=1):
            assert ledger[name] == sign * mutate(twist(U2, 1), block[:k], "right")


# -- record semantics ------------------------------------------------------------

#: The record classes of the package: the tuple subclasses it defines, all
#: of them named tuples.  No module may define a dataclass: the child-process
#: import tests of ``test_cli.py`` refuse the ``dataclasses`` module.
RECORD_CLASSES = {cls for module in (bundles, chow, quiver, repgeom, strata, verify)
                  for cls in vars(module).values() if isinstance(cls, type)
                  and cls.__module__ == module.__name__ and issubclass(cls, tuple)}


#: A builder of one instance of each record class, from real data.
RECORD_BUILDERS = {
    "BundleExpr": lambda: parse_expr("sl(U1)"),
    "StratumWeights": lambda: unstable_strata(Y23)[0].weights,
    "Quiver": lambda: Y23.quiver,
    "OnePS": lambda: strata.one_ps_from_hn(unstable_strata(Y23)[0].hn_type, Y23.theta),
    "Moduli": lambda: Y23,
    "CollectionSpec": lambda: collection_variants()["sl_after_block0"],
    "PairStatus": lambda: verify_collection(standard_collection(), Y23).pairs[1][2],
    "StratumData": lambda: unstable_strata(Y23)[0],
    "StratumCheck": lambda: teleman_certify(parse_expr("sl(U1)"))[0],
    "VerificationMatrix": lambda: verify_collection(standard_collection(), Y23),
    "LinearFormMatrix": lambda: repgeom.parse_matrix("x,y,0;0,y,z"),
    # a quiver whose grouped arrows differ from its arrows in order and length
    "InterleavedQuiver": lambda: Quiver(3, ((0, 1), (1, 2), (0, 1))),
}

#: The record class names, known without building any record, so that one
#: record that fails to build fails its own tests only.
RECORD_NAMES = sorted(cls.__name__ for cls in RECORD_CLASSES)


class TestRecordSemantics:
    def test_every_record_class_is_covered(self):
        assert len(RECORD_CLASSES) == 11
        assert {type(build()) for build in RECORD_BUILDERS.values()} == RECORD_CLASSES
        assert RECORD_CLASSES == {
            BundleExpr, bundles.StratumWeights, Quiver, strata.OnePS, Moduli, CollectionSpec,
            verify.PairStatus, strata.StratumData, strata.StratumCheck, verify.VerificationMatrix,
            repgeom.LinearFormMatrix}
        assert all(hasattr(cls, "_fields") for cls in RECORD_CLASSES)

    @pytest.mark.parametrize("name", sorted(RECORD_BUILDERS))
    def test_copies_are_equal(self, name):
        record = RECORD_BUILDERS[name]()
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record

    @pytest.mark.parametrize("name", RECORD_NAMES)
    def test_fields_cannot_be_set(self, name):
        record = RECORD_BUILDERS[name]()
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.undeclared = 0
        assert not hasattr(record, "__dict__")

    def test_equal_values_built_twice_are_equal(self):
        for build in RECORD_BUILDERS.values():
            first, second = build(), build()
            assert first == second and hash(first) == hash(second)

    def test_equal_expressions_share_one_cache_entry(self):
        first, second = parse_expr("sl(U1)"), parse_expr("sl(U1)")
        assert first is not second and first == second and hash(first) == hash(second)
        ch_of.cache_clear()
        ch_of(first)
        misses = ch_of.cache_info().misses
        assert ch_of(second) is ch_of(first)
        assert ch_of.cache_info().misses == misses

    def test_moduli_built_field_by_field_is_y(self):
        moduli = Moduli(Quiver.from_spec("kronecker:3"), [2, 3], [3, -2], [1, -1])
        assert moduli is not Y23 and moduli == Y23 and hash(moduli) == hash(Y23)
        assert unstable_strata(moduli) is unstable_strata(Y23)
        assert verify_collection(standard_collection(), moduli).accepted


# -- caches ----------------------------------------------------------------------

#: Every cache of the package, by qualified name, with its ``maxsize``.  None
#: only for a cache that takes no arguments, so holds one entry.
CACHES = {
    "quivercert.bundles._leaf_maps": quiver.MAX_CACHED_SETUPS,
    "quivercert.chow.todd_y": 1,
    "quivercert.chow.chi_form": 1,
    "quivercert.chow.ch_of": chow.MAX_CACHED_EXPRS,
    "quivercert.chow.chi_row": chow.MAX_CACHED_EXPRS,
    "quivercert.cli.build_parser": None,  # no arguments: one entry
    "quivercert.cli._moduli_setup": quiver.MAX_CACHED_SETUPS,
    "quivercert.quiver._lattice": quiver.MAX_CACHED_SETUPS,
    "quivercert.strata.Moduli.kronecker23": None,  # no arguments: one entry
    "quivercert.strata._hn_records": quiver.MAX_CACHED_SETUPS,
    "quivercert.strata.unstable_strata": quiver.MAX_CACHED_SETUPS,
    "quivercert.strata._weigh": bundles.MAX_CACHED_EXPRS,
    "quivercert.verify.standard_collection": 1,
    "quivercert.verify.check_ch_identities": 1,
    "quivercert.verify.mutation_ledger_check": 1,
}


def test_every_cache_is_listed_with_its_bound():
    found = {name: cached.cache_info().maxsize for name, cached in package_caches().items()}
    assert found == CACHES


def test_every_unbounded_cache_takes_no_arguments():
    # an unbounded cache with a key would grow with the keys it is asked
    # for; a cached classmethod takes its class alone, one key
    unbounded = {name: cached for name, cached in package_caches().items()
                 if cached.cache_info().maxsize is None}
    assert unbounded
    for name, cached in unbounded.items():
        assert list(inspect.signature(cached.__wrapped__).parameters) in ([], ["cls"]), name


def test_clearing_the_caches_empties_the_range_cache():
    clear_package_caches()
    teleman_certify(parse_expr("twist(sl(U1),2)"))
    assert strata._weigh.cache_info().currsize == 2
    clear_package_caches()
    assert strata._weigh.cache_info().currsize == 0


def test_every_cache_is_a_functools_cache():
    # only a functools cache has cache_parameters: a cache written by hand fails here
    assert [name for name, cached in package_caches().items()
            if not hasattr(cached, "cache_parameters")] == []


@contextlib.contextmanager
def caches_bounded(size, module, *names):
    """The caches ``names`` of ``module`` rebuilt empty with ``maxsize``
    ``size``, as if their bound were ``size``, in every module that holds
    them."""
    with pytest.MonkeyPatch.context() as patch:
        for name in names:
            cached = getattr(module, name)
            bounded = functools.lru_cache(maxsize=size)(cached.__wrapped__)
            for holder in package_modules():
                if getattr(holder, name, None) is cached:
                    patch.setattr(holder, name, bounded)
        yield


TRANSCRIPT = json.loads((Path(__file__).parent / "cli_transcript.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("size", [1, 2])
def test_expression_cache_bound_changes_no_result(size, capsys, monkeypatch):
    # caches that evict on almost every call give the same matrices, chi
    # values, refusals of a bent Todd class, mutations and CLI transcript
    monkeypatch.chdir(Path(__file__).parent.parent)
    specs = [standard_collection(), *collection_variants().values()]

    def results():
        refusals = []
        with bent_todd():
            for spec in specs:
                with pytest.raises(RingInconsistencyError) as refused:
                    verify_collection(spec, Y23)
                refusals.append(str(refused.value))
        return ([verify_collection(spec, Y23) for spec in specs],
                {text: chi(parse_expr(text)) for text in CHI_VALUES}, refusals,
                check_ch_identities.__wrapped__(), mutation_ledger_check.__wrapped__())

    expected = results()
    assert expected[1] == CHI_VALUES and len(set(expected[2])) > 1
    with caches_bounded(size, chow, "ch_of", "chi_row"):
        assert chow.ch_of.cache_info().maxsize == verify.chi_row.cache_info().maxsize == size
        assert results() == expected
        for record in TRANSCRIPT:
            assert (main(record["argv"]), capsys.readouterr().out) == (
                record["code"], record["stdout"]), record["argv"]


#: ``(MAX_TERMS, MAX_WORK_TERMS)``, None for the package's value: the six
#: collections cost 101 to 135 weight pairs, in products of at most 4 terms,
#: so these limits let them pass or meet either refusal first.
RANGE_LIMITS = [(None, None), (2, None), (None, 80), (3, 110), (2, 40), (1, 125), (4, 120)]


def ranges_outcome(sequence, limits) -> tuple:
    """The weight ranges on Y of each expression of ``sequence`` under one
    ``WorkBudget`` and ``limits``, from an empty ``strata._weigh``, and the
    budget left; or the ranges before a refusal and its message."""
    max_terms, max_work = limits
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bundles, "MAX_TERMS", max_terms or bundles.MAX_TERMS)
        patch.setattr(bundles, "MAX_WORK_TERMS", max_work or bundles.MAX_WORK_TERMS)
        strata._weigh.cache_clear()
        budget, ranges = WorkBudget(), []
        try:
            for e in sequence:
                ranges.append(weight_ranges(e, Y23, budget))
        except ValueError as exc:
            return ranges, str(exc)
        finally:
            strata._weigh.cache_clear()
        return ranges, budget.left


def collection_outcomes(specs) -> list:
    """Per ``RANGE_LIMITS``: each collection's matrix or refusal, the six
    sharing the cache, then each one's ``ranges_outcome`` over its objects
    and over them again."""
    out = []
    for limits in RANGE_LIMITS:
        max_terms, max_work = limits
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bundles, "MAX_TERMS", max_terms or bundles.MAX_TERMS)
            patch.setattr(bundles, "MAX_WORK_TERMS", max_work or bundles.MAX_WORK_TERMS)
            strata._weigh.cache_clear()
            for spec in specs:
                try:
                    out.append(verify_collection(spec, Y23))
                except ValueError as exc:
                    out.append(str(exc))
        for spec in specs:
            objects = [e for _, e in spec.objects]
            out.append(ranges_outcome(objects + objects, limits))
    strata._weigh.cache_clear()
    return out


@pytest.mark.parametrize("size", [1, 2])
def test_range_cache_bound_changes_no_result(size, capsys, monkeypatch):
    # a range cache that evicts on almost every call gives the same
    # matrices, refusals, budgets and CLI transcript: an evicted entry is
    # walked again and charges the budget what it did before
    monkeypatch.chdir(Path(__file__).parent.parent)
    specs = [standard_collection(), *collection_variants().values()]
    expected = collection_outcomes(specs)
    refusals = [x for x in expected if isinstance(x, str)]
    assert any("in one request" in x for x in refusals)
    assert any("terms in one" not in x for x in refusals)
    with caches_bounded(size, strata, "_weigh"):
        assert collection_outcomes(specs) == expected
        for record in TRANSCRIPT:
            assert (main(record["argv"]), capsys.readouterr().out) == (
                record["code"], record["stdout"]), record["argv"]


def test_range_cache_bound_holds_across_threads():
    # with one entry kept, threads that miss at once all evict and store:
    # none raises, each gets the ranges and budget of a lone walk, and the
    # cache stays within its bound
    exprs = [twist(e, n) for e in (U1, U2, sym2(U1), tensor(U1, U2), wedge2(U2), U1)
             for n in (0, -2, 3)]

    def walk():
        budget = WorkBudget()
        return [weight_ranges(e, Y23, budget) for e in exprs], budget.left

    strata._weigh.cache_clear()
    expected = walk()
    outcomes, errors = [], []

    def run():
        try:
            for _ in range(20):
                outcomes.append(walk())
        except Exception as exc:  # noqa: BLE001 - any error fails the test below
            errors.append(exc)

    interval = sys.getswitchinterval()
    with caches_bounded(1, strata, "_weigh"):
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=run) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert strata._weigh.cache_info().currsize <= 1
    assert errors == []
    assert outcomes == [expected] * 80


@pytest.mark.parametrize("size", [1, 2])
@settings(max_examples=100, deadline=None)
@given(exprs=st.lists(EXPRS, min_size=1, max_size=4), shifts=st.lists(st.integers(-2, 3),
                                                                      min_size=1, max_size=3),
       limits=st.sampled_from(RANGE_LIMITS))
def test_range_cache_bound_changes_no_range(size, exprs, shifts, limits):
    # expressions, their twists and the expressions again, under one budget
    sequence = exprs + [twist(e, n) for e in exprs for n in shifts] + exprs
    expected = ranges_outcome(sequence, limits)
    with caches_bounded(size, strata, "_weigh"):
        assert ranges_outcome(sequence, limits) == expected


def soak_memory(texts, every):
    """The bytes that tracemalloc traces after ``gc.collect()``, read after
    each ``every`` of the ``chi``, ``ch`` and ``teleman`` requests, in turn on
    the expressions ``texts``, sent through ``cli.main`` in this process."""
    totals = []
    tracemalloc.start()
    try:
        for k, text in enumerate(texts, 1):
            with contextlib.redirect_stdout(io.StringIO()):
                main([("chi", "ch", "teleman")[k % 3], "--expr", text])
            if k % every == 0:
                gc.collect()
                totals.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    return totals


#: The most that traced memory may grow from the 2000th to the 3000th
#: request when the expression caches keep 64 entries: 64 bytes a request.
#: With the bounds at 8192 it grows about 1.9 MiB there.
SOAK_GROWTH_BOUND = 64 * 1024


def test_memory_levels_off_under_the_cache_bounds():
    # 3000 distinct expressions, drawn before tracing starts so that the
    # test's own strings are not counted; with ch_of, chi_row and _weigh
    # bounded at 64 every other cache holds few entries by construction
    rng = random.Random(44)
    texts = list(dict.fromkeys(str(random_expr(rng)) for _ in range(9000)))[:3000]
    assert len(texts) == 3000
    clear_package_caches()
    with caches_bounded(64, chow, "ch_of", "chi_row"), caches_bounded(64, strata, "_weigh"):
        totals = soak_memory(texts, 1000)
        assert chow.ch_of.cache_info().currsize == 64
    assert totals[2] - totals[1] < SOAK_GROWTH_BOUND, totals
