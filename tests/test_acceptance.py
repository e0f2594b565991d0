"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All comparisons are exact; there are no tolerances anywhere.
"""

import contextlib
import io
import itertools
import random
from fractions import Fraction

from golden import CH_ROWS, CHI_VALUES, HN_TYPES_23, INTERSECTION_NUMBERS, STRATUM_TABLE
from oracles import (KRONECKER3, coefficient, coords_of, fraction_matrix, integral,
                     is_stable_by_gcd, mutation_ledger, random_expr, random_matrix,
                     random_stable_matrix, syzygy_tensors, tangent_chern)
from quivercert.bundles import O, U1, U2, dual, parse_expr, sl, tensor, twist
from quivercert.chow import BASIS, ChowElement, ch_of, chi, parse_chow_poly
from quivercert.quiver import enumerate_hn_types, reduced_slope
from quivercert.repgeom import (
    commutes,
    is_stable,
    parse_matrix,
    syzygies,
    tensor_to_cubic,
)
from quivercert.strata import Moduli, one_ps_from_hn, teleman_certify, unstable_strata
from quivercert.verify import (
    EXCEPTIONAL,
    STRONG_EXT,
    UNDETERMINED,
    check_ch_identities,
    mutation_ledger_check,
    standard_collection,
    verify_collection,
)

Y23 = Moduli.kronecker23()

ORBIT_REPRESENTATIVES = [
    "x,y,0;0,y,z",
    "x,z,0;0,x,y",
    "x,y,z;0,x,y",
    "x,0,z;0,x,y",
    "x,y,0;0,x,y",
]


@contextlib.contextmanager
def criterion(n, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n:02d} FAIL: {text}")
        raise
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


def test_01_hn_enumeration():
    with criterion(1, "8 Harder-Narasimhan types: 7 unstable strata plus the open one"):
        types = enumerate_hn_types(KRONECKER3, (2, 3), (3, -2))
        assert set(types) == set(HN_TYPES_23)
        assert len(types) == 8
        assert set(types) - {((2, 3),)} == set(STRATUM_TABLE)


def test_02_stratum_table_reproduction():
    with criterion(2, "one-PS weights, U1/U2 weight rows, det weights, and eta all match"):
        strata = {s.hn_type: s for s in unstable_strata(Y23)}
        assert set(strata) == set(STRATUM_TABLE)
        for tau, row in STRATUM_TABLE.items():
            s = strata[tau]
            slopes = [reduced_slope(Y23.theta, part) for part in tau]
            assert one_ps_from_hn(tau, slopes) == row["one_ps"], tau
            assert s.weights[0] == row["u1"], tau
            assert s.weights[1] == row["u2"], tau
            assert sum(s.weights[0]) == row["det_u1"], tau
            assert s.eta == row["eta"], tau


def test_03_teleman_certificates():
    with criterion(3, "six bundles certified; O(-3) fails strictness with margin 0"):
        passing = [U1, U2, tensor(U1, U2), O(-1), sl(U1), tensor(dual(U1), dual(U1))]
        for expr in passing:
            assert all(r.passed for r in teleman_certify(expr, Y23)), str(expr)
        failing = teleman_certify(O(-3), Y23)
        assert not all(r.passed for r in failing)
        wall = next(r for r in failing if r.hn_type == ((1, 1), (1, 2)))
        assert wall.margin == 0


def test_04_intersection_numbers():
    with criterion(4, "all 14 top intersection numbers reproduce exactly"):
        for name, value in INTERSECTION_NUMBERS.items():
            assert integral(parse_chow_poly(name)) == value, name
        assert len(INTERSECTION_NUMBERS) == 14


def test_05_euler_characteristics():
    with criterion(5, "eleven Riemann-Roch Euler characteristics match"):
        for text, value in CHI_VALUES.items():
            assert chi(parse_expr(text)) == value, text
        assert chi(tensor(dual(sl(U1)), dual(U2))) == 3
        assert chi(tensor(dual(tensor(dual(U1), twist(U2, 2))), twist(U2, 1))) == -1


def test_06_chern_character_cross_checks():
    with criterion(6, "compositional Chern characters match golden rows; 4 identities hold"):
        for expr, row in [
            (O(1), "O(1)"),
            (twist(U2, 1), "U2(1)"),
            (tensor(dual(U1), twist(U2, 1)), "U1*xU2(1)"),
        ]:
            assert coords_of(ch_of(expr)) == tuple(Fraction(x) for x in CH_ROWS[row]), row
        identities = check_ch_identities()
        assert all(holds for _, holds in identities)
        assert len(identities) == 4


def test_07_collection_verification():
    with criterion(7, "13-object collection certified; undetermined only backward; exit 0"):
        result = verify_collection(standard_collection(), Y23)
        n = 13
        for i in range(n):
            assert result.pairs[i][i].verdict == EXCEPTIONAL
        for i in range(n):
            for j in range(i + 1, n):
                assert result.pairs[i][j].verdict == STRONG_EXT
        for i in range(n):
            for j in range(i):
                assert result.pairs[i][j].chi == 0
        assert all(p.i > p.j for row in result.pairs for p in row if p.verdict == UNDETERMINED)
        assert result.accepted
        from quivercert.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["verify-collection"])
        assert code == 0


def test_08_mutation_ledger():
    with criterion(8, "mutation routes agree in K-theory; ranks 3 and 12; degree-1 part"):
        ledger = mutation_ledger()
        assert ledger["l3"] == ledger["l2"]
        assert coefficient(ledger["l4"], "[Y]") == 12
        assert coefficient(ledger["l5"], "[Y]") == 3
        c1 = ChowElement.basis("c1")
        assert ledger["l5"].degree_part(1) == 6 * c1 - ch_of(twist(U2, 1)).degree_part(1)
        assert all(holds for _, holds in mutation_ledger_check())


def test_09_property_suites():
    with criterion(9, "Serre duality, ring laws, 1005 stability oracles, 100 syzygies, e(Y)=13"):
        # Serre duality on random expressions
        rng = random.Random(20240601)
        for _ in range(20):
            e = random_expr(rng, depth=2, max_rank=24)
            assert chi(e) == chi(twist(dual(e), -3))
        # exhaustive ring laws on basis classes
        classes = [ChowElement.basis(label) for label in BASIS]
        for x, y in itertools.product(classes, repeat=2):
            assert x * y == y * x
        for x, y, z in itertools.product(classes, repeat=3):
            assert (x * y) * z == x * (y * z)
        # stability against the independent gcd oracle
        rng = random.Random(2024)
        for _ in range(1000):
            r = random_matrix(rng)
            assert is_stable(r) == is_stable_by_gcd(fraction_matrix(r))
        for text in ORBIT_REPRESENTATIVES:
            r = parse_matrix(text)
            assert is_stable(r) and is_stable_by_gcd(fraction_matrix(r))
        # syzygy kernel membership and commutation
        rng = random.Random(77)
        for _ in range(100):
            r = random_stable_matrix(rng)
            for t, _ in syzygy_tensors(r):
                assert all(c == 0 for c in tensor_to_cubic(t))
            assert commutes(syzygies(r))
        # topological Euler number
        assert integral(tangent_chern().degree_part(6)) == 13


def test_10_orbit_class_integrals():
    with criterion(10, "orbit-class integrals 9, 3, 3 reproduce"):
        c1 = ChowElement.basis("c1")
        d2 = ChowElement.basis("d2")
        smallest = -3 * ChowElement.basis("c2*d2") + 6 * ChowElement.basis("d2^2")
        second = 3 * ChowElement.basis("c2*d2") - 3 * ChowElement.basis("d2^2")
        assert integral(c1 * c1 * smallest) == 9
        assert integral(d2 * smallest) == 3
        assert integral(d2 * second) == 3
