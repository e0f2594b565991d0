import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    SL3_DICTIONARY,
    X,
    Y,
    Z,
    ZERO_FORM,
    blp2_point,
    fraction_matrix,
    is_stable_by_gcd,
    linear_form,
    matrix,
    pair_by_fractions,
    parse_matrix_by_fractions,
    parse_outcome,
    parser_texts,
    random_invertible,
    random_matrix,
    random_matrix_text,
    random_rational_matrix,
    random_stable_matrix,
    rank,
    row_space_basis,
    rref,
    sl3_by_dictionary,
    syzygies_by_fractions,
    syzygy_tensors,
)
from quivercert._linalg import echelon
from quivercert.repgeom import (
    QUAD_MONOMIALS,
    VARS,
    LinearFormMatrix,
    commutes,
    is_stable,
    minors,
    parse_matrix,
    render_quadratic_form,
    syzygies,
    tensor_to_cubic,
    to_sl3,
)
from test_cli import SAMPLES

#: Tokens of the matrix grammar, with a variable it refuses.
MATRIX_TOKENS = ("x", "y", "z", "w", "0", "1", "2", "/", "+", "-", "*", ",", ";", " ")

OPEN_ORBIT = parse_matrix("x,y,0;0,y,z")

# orbit representatives, largest orbit first
ORBIT_REPRESENTATIVES = [
    "x,y,0;0,y,z",
    "x,z,0;0,x,y",
    "x,y,z;0,x,y",
    "x,0,z;0,x,y",
    "x,y,0;0,x,y",
]


def act(g, r, h):
    """The matrix g * r * h for constant invertible g (2x2) and h (3x3)."""
    rows = fraction_matrix(r).rows
    return matrix([
        [
            tuple(
                sum(g[i][k] * rows[k][l][v] * h[l][j] for k in range(2) for l in range(3))
                for v in range(3)
            )
            for j in range(3)
        ]
        for i in range(2)
    ])


coefficients = st.integers(-3, 3).map(F) | st.builds(F, st.integers(-3, 3), st.integers(1, 4))
forms = st.tuples(coefficients, coefficients, coefficients)


def invertible(n):
    entries = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    return st.lists(entries, min_size=n, max_size=n).filter(lambda m: rank(m) == n)


#: Entries that each unstable pattern sets to zero, by (row, column):
#: a zero row, a row (l, 0, 0), a zero column and two zero columns.
UNSTABLE_PATTERNS = (
    {(0, 0), (0, 1), (0, 2)},
    {(0, 1), (0, 2)},
    {(0, 0), (1, 0)},
    {(0, 0), (1, 0), (0, 1), (1, 1)},
)


@st.composite
def stability_cases(draw):
    """``(r, unstable)``: a generic matrix, or one of the unstable patterns
    moved by random invertible row and column operations."""
    entries = draw(st.lists(forms, min_size=6, max_size=6))
    rows = [entries[:3], entries[3:]]
    if draw(st.booleans()):
        return matrix(rows), False
    zeros = draw(st.sampled_from(UNSTABLE_PATTERNS))
    r = matrix([[ZERO_FORM if (i, j) in zeros else rows[i][j] for j in range(3)]
                for i in range(2)])
    return act(draw(invertible(2)), r, draw(invertible(3))), True


@st.composite
def integer_matrices(draw):
    """0-5 rows of 0-7 integers, mostly small or zero, some up to 10^6 in
    size; a row may be an integer combination of two earlier ones."""
    ncols = draw(st.integers(0, 7))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-10**6, 10**6))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        if rows and draw(st.booleans()):
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append([a * x + b * y for x, y in zip(u, v)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return rows


#: (generator, count): the seeded samples on which the integer route is
#: compared with the oracles, integer matrices and rational ones with
#: distinct denominators in each row.
SEEDED_SAMPLES = ((random_matrix, 2000), (random_rational_matrix, 500))


class TestMinors:
    def test_open_orbit(self):
        q, den = minors(OPEN_ORBIT)
        assert [render_quadratic_form(f, den) for f in q] == ["yz", "xz", "xy"]

    def test_rational_family(self):
        a, b, c = F(2), F(3), F(5)
        r = blp2_point(a, b, c)
        got = row_space_basis(minors(r)[0])
        expected = row_space_basis(
            [
                # b z^2 - c xy, c x^2 - a yz, b xz - a y^2
                (0, 0, b, -c, 0, 0),
                (c, 0, 0, 0, 0, -a),
                (0, -a, 0, 0, b, 0),
            ]
        )
        assert got == expected

    def test_degenerate(self):
        r = parse_matrix("x,0,0;0,y,0")
        q, den = minors(r)
        assert [render_quadratic_form(f, den) for f in q] == ["0", "0", "xy"]
        assert not is_stable(r)


class TestOrbitData:
    # representative matrix -> spanned minor space, largest orbit first
    SPANS = {
        "x,y,0;0,y,z": ["xy", "xz", "yz"],
        "x,z,0;0,x,y": ["x^2", "xy", "yz"],
        "x,y,z;0,x,y": ["x^2", "xy", "y^2 - xz"],
        "x,0,z;0,x,y": ["x^2", "xy", "xz"],
        "x,y,0;0,x,y": ["x^2", "xy", "y^2"],
    }

    def test_minor_spans(self):
        def quadric(text):
            # parse simple quadratic expressions over the fixed monomials
            from quivercert.repgeom import QUAD_MONOMIALS

            coeffs = [F(0)] * 6
            for chunk in text.replace("- ", "+ -").split("+"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                sign = 1
                if chunk.startswith("-"):
                    sign, chunk = -1, chunk[1:].strip()
                coeffs[QUAD_MONOMIALS.index(chunk)] += sign
            return tuple(coeffs)

        for text, span in self.SPANS.items():
            got = row_space_basis(minors(parse_matrix(text))[0])
            expected = row_space_basis([quadric(s) for s in span])
            assert got == expected, text


class TestStability:
    def test_orbit_representatives_stable(self):
        for text in ORBIT_REPRESENTATIVES:
            assert is_stable(parse_matrix(text)), text

    def test_zero_row_unstable(self):
        assert not is_stable(parse_matrix("x,y,z;0,0,0"))

    def test_rank_deficient_unstable(self):
        assert not is_stable(parse_matrix("x,0,0;0,y,0"))

    def test_surjective_but_vector_degenerate(self):
        # images of (1,0) span only a line
        assert not is_stable(parse_matrix("x,0,0;0,y,z"))

    def test_gcd_oracle_agreement_bulk(self):
        for generator, count in SEEDED_SAMPLES:
            rng = random.Random(2024)
            both = {True: 0, False: 0}
            for _ in range(count):
                r = generator(rng)
                stable = is_stable(r)
                assert stable == is_stable_by_gcd(fraction_matrix(r))
                both[stable] += 1
            # the sample must exercise both branches
            assert both[True] > 0 and both[False] > 0, generator.__name__

    def test_bareiss_rank_equals_row_reduction(self):
        # products of 3 x k and k x 6 integer matrices, k = 0..3, with zero
        # columns: every rank deficiency, and pivot columns skipped
        rng = random.Random(1968)
        for _ in range(500):
            k = rng.randint(0, 3)
            left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(3)]
            right = [[rng.randint(-3, 3) if rng.random() > 0.3 else 0 for _ in range(6)]
                     for _ in range(k)]
            m = [[sum(left[i][l] * right[l][j] for l in range(k)) for j in range(6)]
                 for i in range(3)]
            assert len(echelon(m)[1]) == rank(m), m

    @settings(max_examples=300, deadline=None)
    @given(integer_matrices())
    def test_echelon_agrees_with_rref(self, m):
        before = [list(row) for row in m]
        rows, pivots = echelon(m)
        assert m == before
        assert pivots == rref(m)[1]
        assert len(rows) == len(m) and not any(map(any, rows[len(pivots):]))
        assert rref(rows) == rref(m)  # the same row space
        assert all(type(x) is int for row in rows for x in row)

    def test_gl_action_invariance(self):
        rng = random.Random(5)
        for _ in range(25):
            r = random_stable_matrix(rng)
            moved = act(random_invertible(rng, 2), r, random_invertible(rng, 3))
            assert is_stable(moved)
            assert row_space_basis(minors(moved)[0]) == row_space_basis(minors(r)[0])

    @settings(max_examples=200, deadline=None)
    @given(stability_cases())
    # each off-diagonal slot of its sl3 plane is nonzero in one of the two matrices
    @example((parse_matrix("x,y,z;y,z,x"), False))
    # its first sl3 matrix, diag(-1, -1, 2) / 3, puts -1 at yz (x) x of its tensor
    @example((parse_matrix("y,x,0;0,y,z"), False))
    def test_gcd_oracle_agreement(self, case):
        r, unstable = case
        stable = is_stable(r)
        assert stable == is_stable_by_gcd(fraction_matrix(r))
        if unstable:
            assert not stable
        assert pair_by_fractions(r) == syzygies_by_fractions(fraction_matrix(r))


class TestSyzygies:
    def test_kernel_membership(self):
        for t, _ in syzygy_tensors(OPEN_ORBIT):
            assert all(c == 0 for c in tensor_to_cubic(t))

    def test_bulk_kernel_and_commutation(self):
        rng = random.Random(77)
        for _ in range(100):
            r = random_stable_matrix(rng)
            assert is_stable(r)
            for t, _ in syzygy_tensors(r):
                assert all(c == 0 for c in tensor_to_cubic(t))
            assert commutes(syzygies(r))

    def test_row_scaling_scales_tensor(self):
        r = fraction_matrix(OPEN_ORBIT)
        scaled = matrix(
            [
                tuple(tuple(3 * c for c in entry) for entry in r.rows[0]),
                r.rows[1],
            ]
        )
        p, q = pair_by_fractions(OPEN_ORBIT), pair_by_fractions(scaled)
        # first-row tensor picks up the row factor and the minors' factor
        assert q.tensors[0] == tuple(9 * c for c in p.tensors[0])
        assert q.tensors[1] == tuple(3 * c for c in p.tensors[1])

    def test_equals_the_fraction_route(self):
        for generator, count in SEEDED_SAMPLES:
            rng = random.Random(2024)
            degenerate = 0
            for _ in range(count):
                r = generator(rng)
                pair = pair_by_fractions(r)
                assert pair == syzygies_by_fractions(fraction_matrix(r)), str(r)
                (forms, den), tensors, sl3 = minors(r), syzygy_tensors(r), syzygies(r)
                values = [x for q in forms for x in q] + [x for t, _ in tensors for x in t]
                values += [x for m, _ in sl3 for row in m for x in row]
                dens = [den] + [d for _, d in tensors + sl3]
                assert all(type(x) is int for x in values + dens) and min(dens) > 0
                degenerate += pair.degenerate
            assert 0 < degenerate < count, generator.__name__

    def test_unstable_flagged_degenerate(self):
        assert pair_by_fractions(parse_matrix("x,0,0;0,y,0")).degenerate


class TestSl3Plane:
    def test_open_orbit_is_diagonal_plane(self):
        m1, m2 = pair_by_fractions(OPEN_ORBIT).sl3
        for m in (m1, m2):
            # diagonal and traceless
            assert all(m[i][j] == 0 for i in range(3) for j in range(3) if i != j)
            assert sum(m[i][i] for i in range(3)) == 0
        # spans <E22 - E11, E33 - E22>
        got = row_space_basis([[m[i][i] for i in range(3)] for m in (m1, m2)])
        expected = row_space_basis([[-1, 1, 0], [0, -1, 1]])
        assert got == expected

    def test_family_formulas(self):
        a, b, c = F(2), F(3), F(5)
        s1, s2 = pair_by_fractions(blp2_point(a, b, c)).sl3
        expected1 = [[0, 0, -c], [-a, 0, 0], [0, -b, 0]]
        expected2 = [[0, b * c, 0], [0, 0, a * c], [a * b, 0, 0]]
        assert [list(row) for row in s1] == expected1
        assert [list(row) for row in s2] == expected2

    def test_traceless(self):
        rng = random.Random(13)
        for _ in range(20):
            (m1, _), (m2, _) = syzygies(random_stable_matrix(rng))
            assert sum(m1[i][i] for i in range(3)) == 0
            assert sum(m2[i][i] for i in range(3)) == 0

    def test_every_unit_tensor_multiplies_to_its_monomial(self):
        # entry 3 * qi + vi is QUAD_MONOMIALS[qi] (x) VARS[vi]; the cubic
        # monomials in the order of tensor_to_cubic
        cubics = ["xxx", "yyy", "zzz", "xxy", "xxz", "xyy", "yyz", "xzz", "yzz", "xyz"]
        squares = {"x^2": "xx", "y^2": "yy", "z^2": "zz"}
        for qi, name in enumerate(QUAD_MONOMIALS):
            for vi, var in enumerate(VARS):
                unit = [0] * 18
                unit[3 * qi + vi] = 1
                product = "".join(sorted(squares.get(name, name) + var))
                assert tensor_to_cubic(tuple(unit)) == tuple(int(c == product) for c in cubics)
                with pytest.raises(ValueError, match="outside the span"):
                    to_sl3(tuple(unit))

    def test_outside_span_rejected(self):
        # x^2 (x) x multiplies to x^3, so it is not a kernel tensor
        bad = [0] * 18
        bad[0] = 1
        with pytest.raises(ValueError, match="outside the span"):
            to_sl3(tuple(bad))


class TestSl3DictionaryOracle:
    def test_dictionary_is_a_basis_of_the_kernel(self):
        # rank 8 = 18 - 10, the dimension of the kernel: so a tensor is in
        # the span exactly when it multiplies to zero
        tensors = [t for _, t in SL3_DICTIONARY]
        assert rank(tensors) == 8
        for t in tensors:
            assert not any(tensor_to_cubic(t))

    def test_dictionary_tensors_map_to_their_matrices(self):
        for unit, t in SL3_DICTIONARY:
            m, den = to_sl3(tuple(map(int, t)))
            assert den == 3 and [[F(x, den) for x in row] for row in m] == unit

    def test_equals_row_reduction_on_syzygy_tensors(self):
        # coefficients zero with probability 0.6, so about half are unstable
        rng = random.Random(2718)
        stable = unstable = 0
        for _ in range(300):
            r = matrix([
                tuple(tuple(F(rng.randint(-4, 4), rng.randint(1, 5)) if rng.random() > 0.6
                            else F(0) for _ in range(3)) for _ in range(3))
                for _ in range(2)
            ])
            pair = pair_by_fractions(r)
            if pair.degenerate:
                unstable += 1
            else:
                stable += 1
            for t, m in zip(pair.tensors, pair.sl3):
                assert m == sl3_by_dictionary(t)
        assert stable >= 100 and unstable >= 100

    def test_both_routes_reject_non_kernel_tensors(self):
        rng = random.Random(31)
        for _ in range(50):
            t = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(18))
            assert any(tensor_to_cubic(t))
            for route in (to_sl3, sl3_by_dictionary):
                with pytest.raises(ValueError, match="outside the span"):
                    route(t)


class TestCommutes:
    def test_diagonal_pair(self):
        h1 = ((-1, 0, 0), (0, 1, 0), (0, 0, 0))
        h2 = ((0, 0, 0), (0, -1, 0), (0, 0, 1))
        assert commutes(((h1, 1), (h2, 5)))

    def test_family_products(self):
        rng = random.Random(99)
        for _ in range(20):
            a, b, c = (F(rng.randint(1, 9)) for _ in range(3))
            assert commutes(syzygies(blp2_point(a, b, c)))

    def test_unit_matrices_do_not_commute(self):
        e12 = ((0, 1, 0), (0, 0, 0), (0, 0, 0))
        e21 = ((0, 0, 0), (1, 0, 0), (0, 0, 0))
        assert not commutes(((e12, 2), (e21, 1)))


class TestBlp2Family:
    def test_generic_point(self):
        r = blp2_point(1, 1, 1)
        assert r == matrix([(X, Y, Z), (Y, Z, X)])
        assert is_stable(r)

    def test_coordinate_point_with_direction(self):
        r = blp2_point(1, 0, 0, direction=(1, 0))
        assert r == matrix([(ZERO_FORM, Y, Z), (Y, Z, ZERO_FORM)])
        assert is_stable(r)

    def test_all_coordinate_charts(self):
        for point in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            for direction in [(1, 0), (0, 1), (2, 3)]:
                assert is_stable(blp2_point(*point, direction=direction))

    def test_family_stable_everywhere(self):
        rng = random.Random(31)
        for _ in range(50):
            coords = [F(rng.randint(-4, 4)) for _ in range(3)]
            if sum(1 for v in coords if v != 0) < 2:
                continue
            assert is_stable(blp2_point(*coords))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            blp2_point(0, 0, 0)
        with pytest.raises(ValueError):
            blp2_point(1, 0, 0)
        with pytest.raises(ValueError):
            blp2_point(1, 0, 0, direction=(0, 0))

    def test_scaling_preserves_plane(self):
        base = syzygies(blp2_point(2, 3, 5))
        scaled = syzygies(blp2_point(4, 6, 10))
        flat = lambda pair: row_space_basis(
            [[m[i][j] for i in range(3) for j in range(3)] for m, _ in pair]
        )
        assert flat(base) == flat(scaled)


class TestParsing:
    def test_entry_forms(self):
        r = parse_matrix("2x+3y, -z, 1/2x - y; 0, x, y+z")
        assert r.rows[0] == ((4, 6, 0), (0, 0, -2), (1, -2, 0)) and r.dens == (2, 1)
        rows = fraction_matrix(r).rows
        assert rows[0][0] == linear_form(2, 3, 0)
        assert rows[0][1] == linear_form(0, 0, -1)
        assert rows[0][2] == linear_form(F(1, 2), -1, 0)
        assert rows[1][0] == ZERO_FORM

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            parse_matrix("x,y;z,x")
        with pytest.raises(ValueError):
            parse_matrix("x,y,z")

    def test_bad_entry(self):
        with pytest.raises(ValueError):
            parse_matrix("x,y,w;0,x,y")

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            parse_matrix("x,y,3;0,x,y")

    def test_equals_the_fraction_parser(self):
        # the same matrix or the same refusal, message included
        rng = random.Random(1880)
        outcomes = {True: 0, False: 0}
        for _ in range(1500):
            text = random_matrix_text(rng)
            try:
                want = parse_matrix_by_fractions(text)
            except ValueError as exc:
                with pytest.raises(ValueError) as info:
                    parse_matrix(text)
                assert str(info.value) == str(exc), text
                outcomes[False] += 1
                continue
            r = parse_matrix(text)
            assert fraction_matrix(r) == want, text
            assert all(d > 0 for d in r.dens) and matrix(want.rows) == r
            outcomes[True] += 1
        assert min(outcomes.values()) > 300

    @settings(max_examples=300, deadline=None)
    @given(parser_texts(MATRIX_TOKENS, SAMPLES["--matrix"]))
    @example("x,y,0;0,y,*")
    @example("x,y,0;0,y,1/2/3x")
    @example("x,y,0;0,y,٣x-0")
    def test_equals_the_fraction_parser_on_mutations(self, text):
        # the same matrix, or the same error type and message
        got = parse_outcome(parse_matrix, text)
        if isinstance(got, LinearFormMatrix):
            assert fraction_matrix(got) == parse_matrix_by_fractions(text)
        else:
            assert got == parse_outcome(parse_matrix_by_fractions, text)

    @pytest.mark.parametrize("entry", ["xy", "x y", "2x3y", "3 4x", "1 / 2 x", "*x", "x0",
                                       "2 * x", "x - y z"])
    def test_entries_once_read_as_other_forms_are_refused(self, entry):
        # read before as x + y, x + y, 2x + 3y, 34x, 1/2 x, x, x, 2x and x - y + z
        for parse in (parse_matrix, parse_matrix_by_fractions):
            with pytest.raises(ValueError) as info:
                parse("x,y,0;0,y," + entry)
            assert str(info.value) == f"cannot parse linear form {entry!r}"

    def test_spaces_at_the_ends_and_next_to_signs_are_read(self):
        r = parse_matrix(" - x , y -  - 2*z ,0;0, + y , x +   1/2y ")
        assert r == parse_matrix("-x,y+2z,0;0,y,x+1/2y")

    @pytest.mark.parametrize("entry,message", [
        ("²z", "cannot parse linear form '²z'"),
        ("x+²", "cannot parse linear form 'x+²'"),
        ("1²/3z", "cannot parse linear form '1²/3z'"),
        ("1/²z", "Invalid literal for Fraction: '1/'"),
    ])
    def test_a_digit_is_a_decimal_digit(self, entry, message):
        # "²" passes str.isdigit but not int, so it ends a numeral; it was
        # read into one and refused with Fraction's message, e.g. for '²'
        with pytest.raises(ValueError) as info:
            parse_matrix("x,y,0;0,y," + entry)
        assert str(info.value) == message
