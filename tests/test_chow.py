import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from golden import CH_ROWS, CHI_VALUES, INTERSECTION_NUMBERS
from oracles import (
    BASIS_BY_HAND,
    DEGREES_BY_HAND,
    PAIRING,
    PRODUCTS,
    FractionChowElement,
    ch_by_fractions,
    ch_leaf_by_fractions,
    coefficient,
    coords_of,
    euler_pairing_by_fractions,
    exp_by_fractions,
    from_coords,
    integral,
    integrals_by_localization,
    localization_fixed_points,
    localization_integral,
    monomial_at,
    monomials_of_degree,
    parse_chow_poly_by_scanner,
    parse_outcome,
    parser_texts,
    random_expr,
    tangent_chern,
    tangent_chern_by_hand,
    todd_by_fractions,
    todd_by_hand,
    todd_from_chern_roots,
)
from quivercert._linalg import render_ratio
from quivercert.bundles import (O, U1, U2, det, direct_sum, dual, parse_expr, sl, sym2, tensor,
                                twist, wedge2)
from quivercert.chow import (
    _EXP_C1,
    _INDEX,
    _INTEGRALS,
    _PAIRING,
    _TRIPLED,
    BASIS,
    DEGREES,
    ChowElement,
    _exp,
    ch_of,
    chi,
    chi_form,
    chi_row,
    parse_chow_poly,
    scaled_pairing,
    todd_y,
)
from test_cli import SAMPLES

#: Tokens of the Chow polynomial grammar, with names it refuses.
POLY_TOKENS = ("c1", "c2", "c3", "d1", "d2", "c", "c4", "x", "0", "2", "12", "+", "-", "*", "^",
               "(", ")", " ")

C1 = ChowElement.basis("c1")
C2 = ChowElement.basis("c2")
C3 = ChowElement.basis("c3")
D2 = ChowElement.basis("d2")


#: Numerals and exponents for polynomials that meet the digit limit: 2^7000,
#: 9...9 with 4299 digits and 3^9100 are printable, but not twice as large.
POLY_NUMBERS = st.sampled_from([*map(str, range(13)), "99", "9" * 400, "9" * 4299])
POLY_EXPONENTS = st.sampled_from([*map(str, range(13)), "7000", "7400", "9100", "9" * 400])


@st.composite
def poly_texts(draw, depth=2):
    """Sums of signed products of numerals, classes and parenthesized sums,
    each to a power or not, nested ``depth`` deep."""
    kinds = st.sampled_from(("number", "class", "parens") if depth else ("number", "class"))
    text = ""
    for i in range(draw(st.integers(1, 3))):
        factors = []
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(kinds)
            factor = (draw(POLY_NUMBERS) if kind == "number" else
                      draw(st.sampled_from(("c1", "c2", "c3", "d1", "d2"))) if kind == "class" else
                      f"({draw(poly_texts(depth - 1))})")
            if not draw(st.integers(0, 2)):
                factor += "^" + draw(POLY_EXPONENTS)
            factors.append(factor)
        sign = draw(st.sampled_from(("", "-", "--", "+") if i else ("", "-")))
        text += (draw(st.sampled_from(("+", " - "))) if i else "") + sign
        text += draw(st.sampled_from(("*", " ", " * "))).join(factors)
    return text


def exprs(depth=3):
    return st.builds(
        lambda seed: random_expr(random.Random(seed), depth, max_rank=30),
        st.integers(0, 10**6),
    )


class TestRingStructure:
    def test_unit(self):
        rng = random.Random(0)
        for _ in range(10):
            x = ChowElement([rng.randint(-5, 5) for _ in BASIS], 1)
            assert ChowElement.unit() * x == x

    def test_stated_cubic_relation(self):
        assert C1 ** 3 == 4 * ChowElement.basis("c1*d2") - 3 * C3

    def test_degree4_relations(self):
        assert C1 ** 4 == -3 * ChowElement.basis("c2^2") + 9 * ChowElement.basis(
            "c2*d2"
        ) + 3 * ChowElement.basis("d2^2")
        assert C1 ** 2 * C2 == ChowElement.basis("c2*d2") + 3 * ChowElement.basis("d2^2")
        assert C1 ** 2 * D2 == 3 * ChowElement.basis("d2^2")
        assert C1 * C3 == ChowElement.basis("c2^2") - 3 * ChowElement.basis(
            "c2*d2"
        ) + 3 * ChowElement.basis("d2^2")

    def test_degree5_relations(self):
        cc = ChowElement.basis("c2*c3")
        assert C1 ** 5 == 19 * cc
        assert 3 * (C3 * D2) == 2 * cc
        assert 3 * (C1 ** 2 * C3) == 5 * cc

    def test_associativity_and_commutativity_on_basis(self):
        classes = [ChowElement.basis(label) for label in BASIS]
        for x, y in itertools.product(classes, repeat=2):
            assert x * y == y * x
        for x, y, z in itertools.product(classes, repeat=3):
            assert (x * y) * z == x * (y * z)

    def test_high_degree_vanishes(self):
        assert (C3 * C3 * C1).is_zero()

    def test_powers_match_repeated_products(self):
        rng = random.Random(5)
        for constant in (0, 0, 1, -2):
            x = from_coords([constant] + [F(rng.randint(-3, 3), rng.randint(1, 3))
                                          for _ in BASIS[1:]])
            product = ChowElement.unit()
            for n in range(10):
                assert x ** n == product, (x, n)
                product = product * x

    def test_nilpotent_power_is_zero_without_multiplying(self):
        assert (C1 + C2) ** 10**12 == ChowElement.zero()


class TestDerivedTables:
    """The product table, c(T_Y) and td(Y) that chow derives against the
    hand-typed ones."""

    def test_basis_equals_hand_typed(self):
        assert BASIS == BASIS_BY_HAND
        assert DEGREES == DEGREES_BY_HAND

    def test_integer_tables_equal_the_hand_typed_table(self):
        # back-substitution for 3c in integers gives 3 times the table of the
        # hand-typed reductions, one flat (j, k, 3c) triple per term
        assert _TRIPLED == tuple(tuple((j, k, 3 * c) for j, terms in enumerate(row)
                                       for k, c in terms)
                                 for row in PRODUCTS)
        assert all(type(c) is int for row in _TRIPLED for _, _, c in row)
        assert _PAIRING == PAIRING
        assert all(type(c) is int for _, _, c in _PAIRING)

    def test_tangent_chern_equals_hand_typed(self):
        assert tangent_chern() == tangent_chern_by_hand()

    def test_todd_equals_hand_typed(self):
        assert todd_y() == todd_by_hand()


def monomial(m) -> ChowElement:
    a, b, e, f = m
    return C1 ** a * C2 ** b * D2 ** e * C3 ** f


class TestLocalization:
    """Torus localization on the fixed points of the covering quiver, which
    uses neither the product table nor the tangent class of chow."""

    def test_fixed_points_are_the_betti_sum(self):
        assert len(localization_fixed_points()) == 13 == len(BASIS)

    def test_intersection_numbers(self):
        integrals = integrals_by_localization()
        assert integrals == _INTEGRALS
        names = {"c1": 0, "c2": 1, "d2": 2, "c3": 3}
        for name, value in INTERSECTION_NUMBERS.items():
            m = [0, 0, 0, 0]
            for factor in name.split("*"):
                base, _, power = factor.partition("^")
                m[names[base]] += int(power or 1)
            assert integrals[tuple(m)] == value, name

    def test_tangent_chern_pairings(self):
        pairs = [(k, m) for k in range(7) for m in monomials_of_degree(6 - k)]
        assert len(pairs) == 39
        for k, m in pairs:
            expected = localization_integral(lambda c, d, t: t[k] * monomial_at(m, c, d))
            assert integral(tangent_chern().degree_part(k) * monomial(m)) == expected, (k, m)


class TestIntegral:
    def test_all_top_intersections(self):
        for name, value in INTERSECTION_NUMBERS.items():
            assert integral(parse_chow_poly(name)) == value, name

    def test_point_class(self):
        assert integral(C3 * C3) == 1

    def test_lower_degree_is_zero(self):
        for label in BASIS[:-1]:
            assert integral(ChowElement.basis(label)) == 0


fractions = st.builds(F, st.integers(-50, 50), st.integers(1, 12))


class TestPairing:
    def test_pairs_complementary_degrees_only(self):
        assert len(_PAIRING) == 31
        assert all(DEGREES[i] + DEGREES[j] == 6 and c != 0 for i, j, c in _PAIRING)


coordinates = st.lists(st.one_of(st.just(F(0)), fractions),
                       min_size=len(BASIS), max_size=len(BASIS))
scalars = st.one_of(st.integers(-20, 20), fractions)


def assert_same(x: ChowElement, oracle: FractionChowElement):
    assert coords_of(x) == oracle.coords, (x, oracle)


class TestIntegerCoordinates:
    """ChowElement against the Fraction route it replaced, and its lowest
    terms."""

    @given(coordinates, coordinates, scalars)
    # a c1 coordinate with a denominator: det is exp(c1 / 2) over 720 * 2^6
    @example([F(0), F(1, 2)] + [F(0)] * (len(BASIS) - 2), [F(0)] * len(BASIS), 1)
    def test_operations_match_fraction_route(self, xs, ys, s):
        x, y = from_coords(xs), from_coords(ys)
        fx, fy = FractionChowElement(xs), FractionChowElement(ys)
        assert_same(x, fx)
        assert_same(x + y, fx + fy)
        assert_same(x - y, fx - fy)
        assert_same(-x, -fx)
        if isinstance(s, int):
            assert_same(x * s, fx * s)
            assert_same(s * x, s * fx)
        # a rational scalar scales the numerators and the denominator
        assert_same(ChowElement([n * s.numerator for n in x.nums], x.den * s.denominator), fx * s)
        assert_same(x * y, fx * fy)
        assert_same(x.dual(), fx.dual())
        assert_same(x.psi2(), fx.psi2())
        assert_same(x.half(), fx.half())
        assert_same(x.det(), fx.det())
        for k in range(7):
            assert_same(x.degree_part(k), fx.degree_part(k))
            assert x.degree_part(k).is_zero() == fx.degree_part(k).is_zero()
        assert x.is_zero() == fx.is_zero()
        assert (x - x).is_zero() and (fx - fx).is_zero()
        assert x.to_json_dict() == fx.to_json_dict()
        assert repr(x) == repr(fx)
        for label in BASIS:
            assert coefficient(x, label) == fx.coefficient(label)

    @given(coordinates, st.integers(0, 9))
    def test_powers_match_fraction_route(self, xs, n):
        assert_same(from_coords(xs) ** n, FractionChowElement(xs) ** n)

    @given(coordinates)
    def test_lowest_terms(self, xs):
        x = from_coords(xs)
        routes = [x, ChowElement(x.nums, x.den), from_coords(coords_of(x)), (x + x).half(),
                  ChowElement([6 * n for n in x.nums], 6 * x.den), -(-x), x * 2 - x,
                  x * ChowElement.unit(), from_coords([2 * c for c in xs]).half()]
        for y in routes:
            assert y == x and hash(y) == hash(x)
            assert y.den > 0 and math.gcd(y.den, *y.nums) == 1
            assert (y.nums, y.den) == (x.nums, x.den)
        for zero in (x - x, x * 0, x.degree_part(7), ChowElement.zero()):
            assert zero == ChowElement.zero() and zero.den == 1 and not any(zero.nums)

    def test_lowest_terms_examples(self):
        half = ChowElement([2] + [0] * (len(BASIS) - 1), 4)
        assert half == ChowElement.unit().half() == from_coords([F(1, 2)] + [0] * (len(BASIS) - 1))
        assert hash(half) == hash(ChowElement.unit().half())
        assert (half.den, half.nums[0]) == (2, 1)
        # degree-5 products carry the factor 3 of the table into the denominator
        assert (C1 ** 2 * C3).nums[BASIS.index("c2*c3")] == 5 and (C1 ** 2 * C3).den == 3
        assert coefficient(C3 * D2, "c2*c3") == F(2, 3)


non_integers = fractions.filter(lambda t: t.denominator > 1)


class TestReplacedRoutes:
    """The binomial powers and det from the stored powers of c1 against the
    Fraction route."""

    @given(coordinates, st.sampled_from((None, F(0), F(1), F(-1))), st.integers(0, 20))
    def test_powers_equal_the_fraction_route(self, xs, constant, n):
        xs = xs if constant is None else [constant, *xs[1:]]
        assert_same(from_coords(xs) ** n, FractionChowElement(xs) ** n)

    @given(coordinates, non_integers)
    def test_det_equals_the_fraction_route(self, xs, t):
        xs = [xs[0], t, *xs[2:]]
        assert_same(from_coords(xs).det(), FractionChowElement(xs).det())

    def test_stored_powers_of_c1_equal_the_fraction_route(self):
        power = FractionChowElement.unit()
        for k in range(7):
            stored = {i: F(c, 720 // math.factorial(k)) for i, j, c in _EXP_C1 if j == k}
            assert stored == {i: c for i, c in enumerate(power.coords) if c}, k
            power = power * FractionChowElement.basis("c1")
        assert stored == {_INDEX["c3^2"]: 57}
        assert len(_EXP_C1) == 10 and all(type(c) is int for _, _, c in _EXP_C1)


@pytest.fixture
def products(monkeypatch):
    """The ChowElement x ChowElement products made, through ``__mul__`` or
    ``__rmul__``, while the test runs; scaling by an int is not counted."""
    made = []
    mul = ChowElement.__mul__

    def counted(x, y):
        if isinstance(y, ChowElement):
            made.append((x, y))
        return mul(x, y)

    monkeypatch.setattr(ChowElement, "__mul__", counted)
    monkeypatch.setattr(ChowElement, "__rmul__", counted)
    return made


class TestProductCounts:
    """Powers, det and O(n) multiply nothing by the unit and nothing that the
    stored powers of c1 hold."""

    BASES = [from_coords([F(2, 3), F(-1, 2), 1, 0, F(5, 7), 2, -3, 1, 0, 4, F(1, 3), -1, 2]),
             from_coords([1, 1] + [0] * (len(BASIS) - 2)),
             from_coords([-1, F(1, 2), 3] + [1] * (len(BASIS) - 3))]

    @pytest.mark.parametrize("x", BASES)
    def test_powers(self, products, x):
        for n, count in ((0, 0), (1, 0), (2, 1), (3, 2)):
            products.clear()
            assert_same(x ** n, FractionChowElement(coords_of(x)) ** n)
            assert len(products) == count, n
        assert x ** 1 is x
        limit = 20 if abs(x.nums[0]) != x.den else 10 ** 300
        for n in (4, 5, 6, 7, 20, limit - 1, limit):
            products.clear()
            x ** n
            assert len(products) <= 5, n

    def test_nilpotent_powers(self, products):
        x = from_coords([0, 2, F(1, 3)] + [1] * (len(BASIS) - 3))
        for n in range(7):
            products.clear()
            x ** n
            assert len(products) == max(n - 1, 0), n
        for n in (7, 10 ** 300):
            products.clear()
            assert x ** n == ChowElement.zero() and not products

    def test_line_bundles_and_det(self, products):
        ch_of.cache_clear()
        for n in (-4, -1, 0, 1, 3, 10 ** 6):
            ch_of(O(n))
        for x in self.BASES:
            x.det()
        assert not products

    def test_negated_power(self, products):
        value = parse_chow_poly("-c1^2")
        assert len(products) == 0
        assert value == -ChowElement.basis("c1^2")

    @pytest.mark.parametrize("text, count", [("3*c1^2*c2", 1), ("c2^3", 0), ("7*d2^3+3*c3^2", 0),
                                             ("3*(c1+c2)^2*d2", 2), ("2^3*5*c3^9", 0)])
    def test_integers_scale_and_class_powers_are_stored(self, products, text, count):
        # an integer factor is a scaling and a class's power is read from a
        # table, so only products of two ring elements remain
        value = parse_chow_poly(text)
        assert len(products) == count
        assert value == parse_chow_poly_by_scanner(text)


class TestToddAndTangent:
    def test_todd_degree0(self):
        assert coefficient(todd_y(), "[Y]") == 1

    def test_todd_degree3_reduced(self):
        part = todd_y().degree_part(3)
        assert coefficient(part, "c1*c2") == 0
        assert coefficient(part, "c1*d2") == F(17, 8)
        assert coefficient(part, "c3") == F(-9, 8)

    def test_todd_top_gives_chi_o(self):
        assert coefficient(todd_y(), "c3^2") == 1
        assert chi(O(0)) == 1

    def test_todd_matches_chern_root_expansion(self):
        assert coords_of(todd_y()) == todd_from_chern_roots().coords

    def test_tangent_degree1(self):
        assert tangent_chern().degree_part(1) == 3 * C1

    def test_euler_number(self):
        assert coefficient(tangent_chern(), "c3^2") == 13
        assert integral(tangent_chern().degree_part(6)) == 13
        # matches the total rank of the basis
        assert len(BASIS) == 13


class TestChernCharacters:
    @pytest.mark.parametrize(
        "expr,row",
        [
            (U2, "U2"),
            (dual(U2), "U2*"),
            (dual(U1), "U1*"),
            (O(0), "O"),
            (O(1), "O(1)"),
            (twist(U2, 1), "U2(1)"),
            (sl(dual(U1)), "sl(U1*)"),
            (tensor(dual(U1), twist(U2, 1)), "U1*xU2(1)"),
        ],
    )
    def test_golden_rows(self, expr, row):
        assert coords_of(ch_of(expr)) == tuple(F(x) for x in CH_ROWS[row])
        assert ch_by_fractions(expr).coords == tuple(F(x) for x in CH_ROWS[row])

    def test_o1_is_exponential(self):
        expected = FractionChowElement.unit()
        power = FractionChowElement.unit()
        fact = 1
        for k in range(1, 7):
            power = power * FractionChowElement.basis("c1")
            fact *= k
            expected = expected + F(1, fact) * power
        assert_same(ch_of(O(1)), expected)

    @pytest.mark.parametrize("leaf", [U1, U2] + [O(n) for n in range(-4, 5)])
    def test_leaves_equal_the_fraction_route(self, leaf):
        # _ch_from_chern and _exp scale by the integer denominator 6!
        assert_same(ch_of(leaf), ch_leaf_by_fractions(leaf))

    @given(exprs(depth=2))
    def test_det_equals_the_fraction_route(self, e):
        assert_same(ch_of(det(e)), ch_by_fractions(det(e)))
        assert_same(ch_of(e).det(), exp_by_fractions(ch_by_fractions(e).degree_part(1)))

    @given(coordinates)
    def test_exp_equals_the_fraction_route(self, xs):
        xs = [0] + xs[1:]
        assert_same(_exp(from_coords(xs)), exp_by_fractions(FractionChowElement(xs)))

    def test_sl_u1_equals_sl_u1_star(self):
        assert ch_of(sl(U1)) == ch_of(sl(dual(U1)))

    def test_double_dual(self):
        assert ch_of(dual(dual(U2))) == ch_of(U2)

    def test_det_dual_u1_is_o1(self):
        assert ch_of(det(dual(U1))) == ch_of(O(1))

    @given(exprs(depth=2), exprs(depth=2))
    def test_ring_homomorphism(self, e, f):
        assert ch_of(tensor(e, f)) == ch_of(e) * ch_of(f)
        assert ch_of(direct_sum(e, f)) == ch_of(e) + ch_of(f)

    @given(exprs(depth=2))
    def test_rank_is_degree0(self, e):
        assert coefficient(ch_of(e), "[Y]") == e.rank

    @given(exprs())
    def test_equals_the_fraction_route(self, e):
        assert_same(ch_of(e), ch_by_fractions(e))

    @given(exprs(depth=2))
    def test_sym_plus_wedge(self, e):
        assert ch_of(sym2(e)) + ch_of(wedge2(e)) == ch_of(tensor(e, e))


class TestChi:
    def test_golden_values(self):
        for text, value in CHI_VALUES.items():
            assert chi(parse_expr(text)) == value, text

    def test_line_bundle_sections(self):
        # the ample generator embeds Y in P^19
        assert chi(O(1)) == 20

    @given(exprs())
    def test_equals_integral_of_product(self, e):
        assert chi(e) == integral(ch_of(e) * todd_y()) == euler_pairing_by_fractions(O(0), e)

    @given(exprs(depth=2))
    def test_serre_duality(self, e):
        assert chi(e) == chi(twist(dual(e), -3))

    @given(exprs(depth=2), exprs(depth=2))
    def test_additive(self, e, f):
        assert chi(direct_sum(e, f)) == chi(e) + chi(f)


class TestChiForm:
    """The integer bilinear form B / M of chi, whose columns C = B^T
    ``chi_form`` returns, against the Fraction route."""

    def test_shape(self):
        m, columns = chi_form()
        assert m == 360 and len(columns) == len(BASIS)
        assert {len(column) for column in columns} == {len(BASIS)}
        assert sum(map(bool, itertools.chain(*columns))) == 100

    def test_unit_row_is_the_todd_row(self):
        # row b of the unit is the integral of td(Y) * basis_b
        m, columns = chi_form()
        b = list(zip(*columns))
        assert chi_row(O(0)) == (m, b[0])
        assert [F(n, m) for n in b[0]] == [
            (todd_by_fractions() * FractionChowElement.basis(label)).coefficient("c3^2")
            for label in BASIS]

    def test_serre_duality_on_the_basis(self):
        # omega_Y = O(-3) on the sixfold Y, so chi(E, F) = chi(F, E(-3)):
        # B^T = B T, with T the multiplication by ch(O(-3)), on all 13 x 13
        # basis pairs
        m, columns = chi_form()
        b = list(zip(*columns))
        shifted = [ChowElement.basis(label) * ch_of(O(-3)) for label in BASIS]
        transpose = [[F(b[c][a], m) for c in range(len(BASIS))] for a in range(len(BASIS))]
        composed = [[F(sum(map(math.prod, zip(b[a], z.nums))), m * z.den) for z in shifted]
                    for a in range(len(BASIS))]
        assert transpose == composed

    @given(exprs(depth=2), exprs(depth=2))
    def test_equals_the_fraction_route(self, e, f):
        assert scaled_pairing(chi_row(e), ch_of(f), e, f) == euler_pairing_by_fractions(e, f)


class TestOrbitClasses:
    def test_minimal_orbit_degree(self):
        cls = -3 * ChowElement.basis("c2*d2") + 6 * ChowElement.basis("d2^2")
        assert integral(C1 * C1 * cls) == 9

    def test_divisor_meets_minimal_orbits(self):
        first = -3 * ChowElement.basis("c2*d2") + 6 * ChowElement.basis("d2^2")
        second = 3 * ChowElement.basis("c2*d2") - 3 * ChowElement.basis("d2^2")
        assert integral(D2 * first) == 3
        assert integral(D2 * second) == 3


class TestPolynomialInput:
    def test_d1_is_c1(self):
        assert parse_chow_poly("d1") == C1
        assert parse_chow_poly("d1^6") == parse_chow_poly("c1^6")

    def test_arithmetic(self):
        assert parse_chow_poly("(c1+c2)^2") == C1 * C1 + 2 * C1 * C2 + C2 * C2
        assert parse_chow_poly("2*c1*d2 - c3") == 2 * C1 * D2 - C3

    def test_implicit_products(self):
        assert parse_chow_poly("c1c2c3") == C1 * C2 * C3
        assert parse_chow_poly("3c1^2") == 3 * C1 * C1

    def test_rejects_unknown(self):
        from quivercert.chow import ChowSyntaxError

        with pytest.raises(ChowSyntaxError):
            parse_chow_poly("c4")

    @settings(max_examples=300, deadline=None)
    @given(parser_texts(POLY_TOKENS, SAMPLES["--expr"][2:]))
    @example("c12")
    @example("c1^ 2 c")
    @example("3c1^" + "1" * 5000)
    @example("(2^5000)(2^5000) 2^5000 ")
    @example("(2^5000) (2^5000) (2^5000) x")
    @example("2^9999999999 ")
    @example("(" * 101 + "c1")
    def test_equals_the_character_stepping_parser(self, text):
        # the same class, or the same error type and message, position included
        want = parse_outcome(parse_chow_poly_by_scanner, text)
        assert parse_outcome(parse_chow_poly, text) == want

    @settings(max_examples=300, deadline=None)
    @given(poly_texts())
    @example("2^14000*c1")
    @example("(2^14000)*c1^3")
    @example("3^4000*3^4000*c2")
    @example("1^" + "9" * 400 + "*c1^6")
    @example("2^7000*2^7400")
    @example("2^7000*c1*2^7400*c1")
    @example("3^9100*c1^6")
    @example("9" * 4299 + "*c1^6")
    @example("c2^2*2^9000*2^9000")
    @example("0^0*c3^0 - 5^" + "9" * 400 + "c1^7")
    def test_products_and_powers_equal_the_character_stepping_parser(self, text):
        # integer factors as scalings and class powers from a table give the
        # value of ring products, or the same error, position included
        want = parse_outcome(parse_chow_poly_by_scanner, text)
        assert parse_outcome(parse_chow_poly, text) == want

    @pytest.mark.parametrize("text,what,position", [
        ("2^7000*2^7400", "product", 13),
        ("2^7000*c1*2^7400*c1", "product", 16),
        ("c2^2*2^9000*2^9000", "product", 18),
        ("3^9100*c1^6", "product", 11),
        ("9" * 4299 + "*c1^6", None, None),
        ("c1*3^14400", "power", 10),
    ])
    def test_digit_limit_positions_of_integer_factors(self, text, what, position):
        # a product or power of integers is refused where the ring products
        # refused it; a printable value is not refused here
        want = parse_outcome(parse_chow_poly_by_scanner, text)
        assert parse_outcome(parse_chow_poly, text) == want
        if what is None:
            assert isinstance(want, ChowElement)
        else:
            assert want == (ValueError, f"the {what} exceeds the limit (4300 digits) for integer"
                                        f" string conversion (at position {position})")

    @pytest.mark.parametrize("text,message", [
        ("c1²", "expected class, number, or '(' (at position 2)"),
        ("c1^²", "expected exponent (at position 3)"),
        ("3²c1", "expected class, number, or '(' (at position 1)"),
    ])
    def test_a_digit_is_a_decimal_digit(self, text, message):
        # "²" passes str.isdigit but not int: the character-stepping parser
        # handed it to int and raised int's own message, with no position
        from quivercert.chow import ChowSyntaxError

        with pytest.raises(ChowSyntaxError) as info:
            parse_chow_poly(text)
        assert str(info.value) == message
        with pytest.raises(ValueError, match="invalid literal for int"):
            parse_chow_poly_by_scanner(text)


class TestRendering:
    def test_fraction_rendering(self):
        assert render_ratio(3, 1) == 3
        assert render_ratio(-7, 24) == "-7/24"
        assert render_ratio(-14, 48) == "-7/24"

    def test_coordinates_json(self):
        doc = ch_of(U2).to_json_dict()
        assert doc["[Y]"] == 3
        assert doc["c1*d2"] == "-2/3"
