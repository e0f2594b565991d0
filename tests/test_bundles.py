import copy
import itertools
import operator
import random
import sys
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (hostile_two_node_expr, parse_expr_by_scanner, parse_outcome, parser_texts,
                     random_expr, rank_by_ops, weights_by_lists, weights_of)
from quivercert.bundles import (
    _TOKEN,
    MAX_RANK,
    MAX_TERMS,
    MAX_WORK_TERMS,
    O,
    U1,
    U2,
    BundleExpr,
    Character,
    ExprSyntaxError,
    WorkBudget,
    StratumWeights,
    _leaf_maps,
    characters,
    det,
    direct_sum,
    dual,
    parse_expr,
    sl,
    sym2,
    tensor,
    twist,
    wedge2,
)
from quivercert.quiver import Quiver
from quivercert.strata import Moduli, universal_weights, unstable_strata
from test_cli import SAMPLES

#: Tokens of the bundle-expression grammar, with words it refuses.
EXPR_TOKENS = ("U1", "U2", "O", "tensor", "sum", "twist", "dual", "det", "sl", "sym2", "wedge2",
               "frob", "(", ")", ",", "+", "-", "0", "3", "12", " ")

# weight data of the rank-one wall stratum
BASE = StratumWeights(u1=(5, 0), u2=(5, 0, 0))


def exprs(depth=3):
    return st.builds(lambda seed: random_expr(random.Random(seed), depth), st.integers(0, 10**6))


class TestRankLimit:
    def test_limit_is_checked_node_by_node(self):
        two = direct_sum(O(0), O(0))
        assert tensor(*[two] * 64).rank == MAX_RANK
        with pytest.raises(ValueError, match="rank above"):
            tensor(*[two] * 65)
        with pytest.raises(ValueError, match="rank above"):
            parse_expr("sym2(" * 7 + "U2" + ")" * 7)


class TestTermLimit:
    def test_product_size_is_bounded(self):
        side = int(MAX_TERMS ** 0.5)
        square = Character([{w: 1 for w in range(side)}], WorkBudget())
        assert [len(x) for x in (square * square).maps] == [2 * side - 1]
        with pytest.raises(ValueError, match=f"exceeds {MAX_TERMS} terms"):
            square * Character([{w: 1 for w in range(side + 1)}], WorkBudget())

    def test_products_share_one_budget(self):
        side = int(MAX_TERMS ** 0.5)
        square = Character([{w: 1 for w in range(side)}], WorkBudget())
        products = [square * square for _ in range(MAX_WORK_TERMS // MAX_TERMS)]
        assert products[-1].budget is square.budget
        assert square.budget.left == 0
        with pytest.raises(ValueError, match=f"exceed {MAX_WORK_TERMS} terms"):
            square * Character([{0: 1}], WorkBudget())

    def test_each_stratum_is_bounded_and_charged(self):
        side = int(MAX_TERMS ** 0.5)
        small, square = {0: 1, 1: 1}, {w: 1 for w in range(side)}
        mixed = Character([small, square, small], WorkBudget())
        assert [len(x) for x in (mixed * mixed).maps] == [3, 2 * side - 1, 3]
        assert mixed.budget.left == MAX_WORK_TERMS - MAX_TERMS - 8
        # the first stratum above the limit is reported
        wide = Character([small, {w: 1 for w in range(side + 1)}, {w: 1 for w in range(side + 2)}],
                         WorkBudget())
        with pytest.raises(ValueError, match=f"with {side + 1} and {side + 1} weights"):
            wide * wide

    def test_earliest_node_above_the_limit_is_reported(self):
        # Two strata of Y exceed MAX_TERMS at different nodes: at the first
        # summand on the second stratum, where (U1 (x) U2)^6 has 19 weights,
        # and only at the second summand on the first, where it has 13.  One
        # walk reports the earlier node.
        e = hostile_two_node_expr()
        ws = [s.weights for s in unstable_strata(Moduli.kronecker23())]
        assert [len(x) for x in characters(ws, tensor(*[tensor(U1, U2)] * 6),
                                           WorkBudget()).maps][:2] == [13, 19]
        with pytest.raises(ValueError) as one_walk:
            characters(ws, e, WorkBudget())
        message = "product of characters with {} and 4096 weights exceeds %d terms" % MAX_TERMS
        assert str(one_walk.value) == message.format(19)


class TestParse:
    def test_plain(self):
        assert parse_expr("tensor(dual(U1),U2)") == tensor(dual(U1), U2)

    def test_sl(self):
        assert parse_expr("sl(U1)") == sl(U1)

    def test_twist_sugar(self):
        assert parse_expr("twist(U2,1)") == tensor(U2, O(1))

    def test_sum_and_variadic_fold(self):
        assert parse_expr("sum(U1,U2)") == direct_sum(U1, U2)
        assert parse_expr("tensor(U1,U2,O(1))") == tensor(tensor(U1, U2), O(1))

    def test_whitespace_and_negative(self):
        assert parse_expr(" tensor( U2 , O( -3 ) ) ") == tensor(U2, O(-3))

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError, match="unknown identifier"):
            parse_expr("frobenius(U1)")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("tensor(U1")
        assert "position" in str(err.value)

    def test_identifier_pattern_is_the_character_tests(self):
        # \s*(([+-]?\d*)\w*)\s* against one code point: (1, 0, 0) for
        # whitespace, (1, 1, 1) for a sign or a decimal digit, (1, 1, 0) for
        # any other identifier character, else (0, 0, 0)
        def pattern(ch):
            match = _TOKEN.match(ch)
            return match.end(), len(match[1]), len(match[2])

        def tests(ch):
            if ch.isspace():
                return 1, 0, 0
            if ch in "+-" or ch.isdecimal():
                return 1, 1, 1
            return (1, 1, 0) if ch.isalnum() or ch == "_" else (0, 0, 0)

        chars = list(map(chr, range(sys.maxunicode + 1)))
        assert [ch for ch in chars if pattern(ch) != tests(ch)] == []
        # a decimal digit is what int reads; other str.isdigit characters it refuses
        digits = [ch for ch in chars if ch.isdigit()]
        assert all(int(ch) < 10 for ch in digits if ch.isdecimal())
        for ch in (ch for ch in digits if not ch.isdecimal()):
            with pytest.raises(ValueError):
                int(ch)

    def test_identifier_after_whitespace(self):
        assert parse_expr("\u3000sym2(\x0bU1 )") == sym2(U1)
        with pytest.raises(ExprSyntaxError, match=r"expected identifier \(at position 9\)"):
            parse_expr("tensor( \t-U1,U2)")
        with pytest.raises(ExprSyntaxError, match="unknown identifier 'U1é'"):
            parse_expr("U1é")

    @settings(max_examples=300, deadline=None)
    @given(parser_texts(EXPR_TOKENS, SAMPLES["--expr"][:2]))
    @example("O(- 3)")
    @example("O(3abc)")
    @example("tensor(3abc)")
    @example("tensor(U1 , frob(U1))")
    @example("twist(U1 ,-2 ) ")
    @example("O(" + "9" * 5000 + ")")
    @example("sym2(" * 101 + "U1" + ")" * 101)
    def test_equals_the_character_stepping_parser(self, text):
        # the same tree, or the same error type and message, position included
        assert parse_outcome(parse_expr, text) == parse_outcome(parse_expr_by_scanner, text)

    def test_a_digit_is_a_decimal_digit(self):
        # "²" passes str.isdigit but not int; the character-stepping parser
        # read it as a digit
        with pytest.raises(ExprSyntaxError, match=r"^expected '\)' \(at position 3\)$"):
            parse_expr("O(3²)")
        with pytest.raises(ExprSyntaxError, match=r"^expected integer \(at position 2\)$"):
            parse_expr_by_scanner("O(3²)")
        assert parse_expr("O(-٣)") == O(-3)

    def test_roundtrip_through_str(self):
        rng = random.Random(3)
        for _ in range(50):
            e = random_expr(rng)
            assert parse_expr(str(e)) == e

    def test_sl_needs_positive_rank(self):
        assert sl(O(1)).rank == 0  # sl of a line bundle is the zero bundle
        with pytest.raises(ValueError, match="rank at least 1"):
            sl(sl(O(1)))

    def test_sl_needs_positive_rank_on_every_semantics(self):
        # where U1 has rank 1, sl(U1) and wedge2(U1) are zero and the
        # characters refuse sl of them, although Y's ranks admit the trees
        rank_one = StratumWeights(u1=(4,), u2=(1, 0))
        for e in (sl(sl(U1)), sl(wedge2(U1))):
            with pytest.raises(ValueError, match="rank at least 1"):
                characters([rank_one], e, WorkBudget())


class TestRank:
    @pytest.mark.parametrize(
        "expr,expected",
        [
            (U1, 2),
            (U2, 3),
            (O(7), 1),
            (sl(U1), 3),
            (tensor(dual(U1), U2), 6),
            (wedge2(U2), 3),
            (sym2(U2), 6),
            (direct_sum(U1, U2), 5),
            (det(tensor(U1, U2)), 1),
        ],
    )
    def test_values(self, expr, expected):
        assert expr.rank == expected


class TestWeights:
    def test_u1(self):
        assert weights_of(U1, BASE) == (5, 0)

    def test_sl_u1(self):
        assert weights_of(sl(U1), BASE) == (5, 0, -5)

    def test_dual_square(self):
        assert weights_of(tensor(dual(U1), dual(U1)), BASE) == (0, -5, -5, -10)

    def test_unit(self):
        assert weights_of(O(0), BASE) == (0,)

    def test_o1_is_minus_det_u1(self):
        assert weights_of(O(1), BASE) == (-5,)
        assert weights_of(O(-1), BASE) == weights_of(det(U1), BASE)

    @given(exprs())
    def test_cardinality_is_rank(self, e):
        assert len(weights_of(e, BASE)) == e.rank

    @given(exprs())
    def test_double_dual(self, e):
        assert weights_of(dual(dual(e)), BASE) == weights_of(e, BASE)

    @given(exprs(depth=2))
    def test_sl_weights_sum_to_zero(self, e):
        for stratum in unstable_strata(Moduli.kronecker23()):
            assert sum(weights_of(sl(e), stratum.weights)) == 0

    @given(exprs(depth=2))
    def test_sym_wedge_partition_tensor_square(self, e):
        combined = sorted(weights_of(sym2(e), BASE) + weights_of(wedge2(e), BASE))
        assert combined == sorted(weights_of(tensor(e, e), BASE))

    @given(exprs())
    def test_dual_negates(self, e):
        assert weights_of(dual(e), BASE) == tuple(
            sorted((-w for w in weights_of(e, BASE)), reverse=True)
        )


def _all_bases():
    """The base weights of every unstable stratum, of the central subgroup,
    and BASE."""
    moduli = Moduli.kronecker23()
    ones = tuple(((1, n),) for n in moduli.dim)
    central = universal_weights(ones, moduli.twist)
    return [s.weights for s in unstable_strata(moduli)] + [central, BASE]


#: A moduli space other than Y, whose U1 and U2 have rank 1.
KRONECKER2 = Moduli(Quiver.kronecker(2), (1, 1), (1, -1), (0, -1))

#: Y's quiver and dimension vector at theta = 0: everything is semistable, so
#: there are no unstable strata.
NO_STRATA = Moduli(Quiver.kronecker(3), (2, 3), (0, 0), (1, -1))


def outcome(route):
    """What ``route()`` returns, or the message of the ValueError it raises."""
    try:
        return route()
    except ValueError as err:
        return str(err)


class TestEvaluatorMatchesOracles:
    @given(exprs())
    def test_character_expands_to_weight_list(self, e):
        bases = _all_bases()
        for base, character in zip(bases, characters(bases, e, WorkBudget()).maps, strict=True):
            assert all(m > 0 for m in character.values())
            expanded = sorted(w for w, m in character.items() for _ in range(m))
            assert expanded == sorted(weights_by_lists(e, base))

    @pytest.mark.parametrize("moduli", [Moduli.kronecker23(), KRONECKER2, NO_STRATA],
                             ids=["Y", "kronecker2", "no-strata"])
    @given(e=exprs())
    def test_one_walk_equals_the_weight_lists(self, moduli, e):
        # or, where an sl node has no weights on a stratum (U1 has rank 1 on
        # kronecker2), the refusal of sl
        bases = [s.weights for s in unstable_strata(moduli)]
        maps = outcome(lambda: characters(bases, e, WorkBudget()).maps)
        if any(not weights_by_lists(node.args[0], base)
               for node in nodes(e) if node.op == "sl" for base in bases):
            assert maps == "sl needs an argument of rank at least 1"
        else:
            assert maps == [dict(Counter(weights_by_lists(e, base))) for base in bases]

    @given(exprs())
    def test_rank(self, e):
        assert e.rank == rank_by_ops(e)

    @given(exprs())
    def test_rank_equals_the_operator_route(self, e):
        # every node of e, and every operator on each node of e beside a
        # rank-0 node and a node of rank MAX_RANK: equal ranks, or the refusal
        # of sl of rank 0 and of a rank above MAX_RANK
        refusals = set()
        for node in nodes(e):
            assert node.rank == rank_by_ops(node)
            for other in (node, ZERO_RANK, AT_THE_RANK_LIMIT):
                for op, args in ([(op, (other,)) for op in UNARY_OPS]
                                 + [(op, (node, other)) for op in ("tensor", "sum")]):
                    built = outcome(lambda: BundleExpr(op, args).rank)
                    rank = rank_by_ops(SimpleNamespace(op=op, args=args))
                    want = ("sl needs an argument of rank at least 1" if op == "sl" and not other.rank
                            else f"expression {op}(...) has rank above {MAX_RANK}"
                            if rank > MAX_RANK else rank)
                    assert built == want, (op, args)
                    if isinstance(built, str):
                        refusals.add(built.partition(" ")[0])
        assert refusals == {"sl", "expression"}  # sl of rank 0, and MAX_RANK


UNARY_OPS = ("dual", "det", "sl", "sym2", "wedge2")
#: wedge2 of a line bundle: the zero bundle, which sl refuses
ZERO_RANK = wedge2(O(0))
AT_THE_RANK_LIMIT = tensor(*[direct_sum(O(0), O(0))] * 64)


def character_pairs(lowest=-3):
    """Two characters on one to three strata: weight -> nonzero multiplicity
    maps over few weights, with multiplicities from ``lowest`` to 3, so that
    sums cancel when it is negative."""
    def maps(n):
        return st.lists(st.dictionaries(st.integers(-3, 3), st.integers(lowest, 3).filter(bool),
                                        max_size=6), min_size=n, max_size=n)

    return st.integers(1, 3).flatmap(lambda n: st.tuples(maps(n), maps(n)))


def combined(op, x: dict, y: dict) -> dict:
    """The map of ``op`` on two weight -> multiplicity maps, weight by weight
    in a Counter: a sum or difference without the weights that reach 0, a
    product with every weight it reaches."""
    z = Counter()
    if op is operator.mul:
        for (a, m), (b, n) in itertools.product(x.items(), y.items()):
            z[a + b] += m * n
        return dict(z)
    z.update(x)
    (z.update if op is operator.add else z.subtract)(y)
    return {w: m for w, m in z.items() if m}


class TestCharacterOperations:
    @given(character_pairs())
    def test_equal_the_counter_route(self, pair):
        # the same maps and the charges of the products; neither operand
        # changes
        x, y = pair
        before = copy.deepcopy(pair)
        for op in (operator.add, operator.sub, operator.mul):
            budget = WorkBudget()
            got = op(Character(x, budget), Character(y, WorkBudget()))
            assert got.maps == [combined(op, a, b) for a, b in zip(x, y)]
            charged = sum(len(a) * len(b) for a, b in zip(x, y)) if op is operator.mul else 0
            assert got.budget is budget and budget.left == MAX_WORK_TERMS - charged
        assert (x, y) == before
        assert (Character(x, budget) - Character(x, WorkBudget())).maps == [{}] * len(x)

    @given(signed=character_pairs(), positive=character_pairs(lowest=1))
    def test_multiplicities_of_zero(self, signed, positive):
        # a sum or difference of maps with no 0 makes none, whatever the
        # signs; a product of maps with positive multiplicities makes
        # positive ones only
        x, y = signed
        budget = WorkBudget()
        for op in (operator.add, operator.sub):
            assert all(all(z.values()) for z in op(Character(x, budget), Character(y, budget)).maps)
        x, y = positive
        assert all(m > 0 for z in (Character(x, budget) * Character(y, budget)).maps
                   for m in z.values())

    def test_a_product_of_signed_maps_can_keep_a_zero(self):
        budget = WorkBudget()
        product = Character([{0: -1, 2: 1}], budget) * Character([{1: -1, 3: -1}], budget)
        assert product.maps == [{1: 1, 3: 0, 5: -1}]


class TestLeafMaps:
    """The maps of U1 and U2 and the weights of O(1) are built once per
    tuple of strata and shared by every walk over it."""

    WALKED = ["sum(U1,U2,dual(U1))", "sl(U1)", "sl(sum(U2,O(1)))", "wedge2(sum(U1,U2))",
              "sym2(U2)", "sym2(sum(dual(U1),U1))", "sum(sl(U2),wedge2(U2),sym2(U1),O(-2))"]

    def test_a_second_walk_builds_no_leaf_map(self):
        ws = [s.weights for s in unstable_strata(Moduli.kronecker23())]
        characters(ws, sl(U1), WorkBudget())
        misses = _leaf_maps.cache_info().misses
        for text in self.WALKED:
            characters(ws, parse_expr(text), WorkBudget())
        assert _leaf_maps.cache_info().misses == misses

    @pytest.mark.parametrize("moduli", [Moduli.kronecker23(), KRONECKER2],
                             ids=["Y", "kronecker2"])
    def test_no_walk_changes_the_leaf_maps(self, moduli):
        ws = tuple(s.weights for s in unstable_strata(moduli))
        shared = _leaf_maps(ws)
        before = copy.deepcopy(shared)
        for text in self.WALKED:
            characters(ws, parse_expr(text), WorkBudget())
        assert _leaf_maps(ws) is shared and shared == before


def nodes(e):
    """Every node of the tree ``e``, ``e`` first."""
    yield e
    for arg in e.args:
        if isinstance(arg, BundleExpr):
            yield from nodes(arg)
