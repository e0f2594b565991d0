"""The three workloads: inputs made from a seed, the timed operations, and
the checks on their outputs.

Each workload has a seed-independent fixed part, timed once per run, and
rounds of seeded operations whose make-up is the same in every round.
Checks run after the measured phase, so they cannot warm a cache that a
timed operation would then use.  A check returns None when the output
is right and a short description of the problem otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

import oracle
from quivercert import bundles, chow, strata
from quivercert.cli import main as cli_main
from quivercert.quiver import Quiver, enumerate_hn_types, has_semistable
from quivercert.verify import (
    EXCEPTIONAL,
    ORTHOGONAL,
    STRONG_EXT,
    UNDETERMINED,
    CollectionSpec,
    collection_variants,
    standard_collection,
    verify_collection,
)

MODULI = strata.Moduli.kronecker23()

#: The paper's eight Harder-Narasimhan types of (2,3) for theta = (3,-2).
PAPER_HN_TYPES_23 = {
    ((2, 3),), ((1, 1), (1, 2)), ((2, 2), (0, 1)), ((2, 1), (0, 2)), ((1, 0), (1, 3)),
    ((1, 0), (1, 2), (0, 1)), ((1, 0), (1, 1), (0, 2)), ((2, 0), (0, 3)),
}


class Op:
    """One operation: ``run`` makes the output inside the timed span,
    ``check`` judges it afterwards.  ``known_fault`` recognises the
    failure of a known program fault; ``argv`` marks a request that runs
    in the isolated fault-probe process."""

    def __init__(self, label, run=None, check=None, known_fault=None, argv=None):
        self.label = label
        self.run = run
        self.check = check
        self.known_fault = known_fault
        self.argv = argv


def to_program(e):
    """Build the program's expression for an oracle expression tree."""
    op = e[0]
    if op in ("U1", "U2"):
        return getattr(bundles, op)
    if op == "O":
        return bundles.O(e[1])
    args = [to_program(a) for a in e[1:]]
    if op == "sum":
        return bundles.direct_sum(*args)
    return getattr(bundles, op)(*args)


def stratum_table():
    """(hn_type, eta, u1 weights, u2 weights) for each unstable stratum."""
    return [(s.hn_type, s.eta, s.weights[0], s.weights[1])
            for s in strata.unstable_strata(MODULI)]


# -- collections ---------------------------------------------------------------

_COLLECTION_BASES = (
    ("U1",), ("U2",), ("dual", ("U1",)), ("dual", ("U2",)),
    ("sl", ("U1",)), ("sl", ("U2",)), ("sym2", ("U1",)), ("sym2", ("dual", ("U1",))),
    ("wedge2", ("U2",)), ("wedge2", ("dual", ("U2",))),
    ("tensor", ("dual", ("U1",)), ("U2",)), ("tensor", ("U1",), ("dual", ("U2",))),
)
_COLLECTION_POOL = tuple(
    oracle.twist(base, n) for base in _COLLECTION_BASES for n in range(-1, 4)
) + tuple(("O", n) for n in range(-1, 4))
COLLECTION_SIZES = tuple(range(6, 14))
SERRE_PAIRS_PER_COLLECTION = 3


class Collections:
    name = "collections"

    def __init__(self):
        self.strata = stratum_table()

    def _op(self, label, trees, spec, rng, extra_check=None):
        n = len(trees)
        serre = [(rng.randrange(n), rng.randrange(n)) for _ in range(SERRE_PAIRS_PER_COLLECTION)]

        def run():
            return verify_collection(spec, MODULI)

        def check(result):
            return self._check(trees, spec, result, serre) or (
                extra_check(result) if extra_check else None)

        return Op(label, run, check)

    def fixed(self, rng):
        ops = []
        named = [("standard", standard_collection(), _check_standard)]
        named += [(name, spec, _check_variant) for name, spec in collection_variants().items()]
        for name, spec, extra in named:
            trees = [oracle.parse(str(expr)) for _, expr in spec.objects]
            ops.append(self._op(name, trees, spec, rng, extra))
        return ops

    def round(self, rng):
        sizes = list(COLLECTION_SIZES)
        rng.shuffle(sizes)
        ops = []
        for k in sizes:
            trees = rng.sample(_COLLECTION_POOL, k)
            spec = CollectionSpec(tuple((oracle.render(t), to_program(t)) for t in trees))
            ops.append(self._op(f"random size {k}", trees, spec, rng))
        return ops

    def _check(self, trees, spec, result, serre):
        n = len(trees)
        # per object and stratum: (max weight, min weight)
        extremes = []
        for tree in trees:
            row = []
            for _, _, u1, u2 in self.strata:
                ws = oracle.character(tree, u1, u2)
                row.append((max(ws), min(ws)))
            extremes.append(row)
        for i in range(n):
            for j in range(n):
                p = result.pairs[i][j]
                if (p.i, p.j) != (i, j):
                    return f"pair ({i},{j}) reported as ({p.i},{p.j})"
                margins = [eta - (extremes[j][s][0] - extremes[i][s][1])
                           for s, (_, eta, _, _) in enumerate(self.strata)]
                passed = all(m >= 1 for m in margins)
                blocking = tuple((self.strata[s][0], m) for s, m in enumerate(margins) if m < 1)
                if p.teleman_pass != passed or tuple(p.blocking) != blocking:
                    return f"pair ({i},{j}): Teleman margins differ from the object weights"
                if p.verdict != _verdict(i, j, p.chi, p.teleman_pass):
                    return f"pair ({i},{j}): verdict {p.verdict} breaks the rules"
        for i, j in serre:
            ei, ej = spec.objects[i][1], spec.objects[j][1]
            dual_pair = chow.chi(bundles.tensor(bundles.dual(ej), bundles.twist(ei, -3)))
            if dual_pair != result.pairs[i][j].chi:
                return f"pair ({i},{j}): Serre duality fails"
        return None


def _verdict(i, j, chi_value, passed):
    if i == j and passed and chi_value == 1:
        return EXCEPTIONAL
    if i < j and passed and chi_value >= 0:
        return STRONG_EXT
    if i > j and passed and chi_value == 0:
        return ORTHOGONAL
    return UNDETERMINED


def _check_standard(result):
    pairs = [p for row in result.pairs for p in row]
    diagonal = sum(p.verdict == EXCEPTIONAL for p in pairs if p.i == p.j)
    forward = sum(p.verdict == STRONG_EXT for p in pairs if p.i < p.j)
    if (diagonal, forward) != (13, 78) or not result.accepted:
        return f"standard collection: {diagonal} exceptional, {forward} strong forward"
    if any(p.chi != 0 for p in pairs if p.i > p.j):
        return "standard collection: nonzero backward chi"
    return None


def _check_variant(result):
    for p in (p for row in result.pairs for p in row):
        if (p.i == p.j and p.chi != 1) or (p.i > p.j and p.chi != 0):
            return f"variant: chi({p.i},{p.j}) = {p.chi}"
    return None


# -- hn_ladder -----------------------------------------------------------------

LADDER = ((2, 3), (3, 4), (3, 5), (4, 5))
KRONECKER = Quiver(2, ((0, 1),) * 3)
KRONECKER_OP = Quiver(2, ((1, 0),) * 3)
#: Dimension vectors of one round of random 3-vertex quivers, each used three
#: times with its entries in a random order.  Larger ones, such as (2,2,2)
#: at up to 0.3 s, vary so much in cost that they would make a seed's
#: figures depend on which quivers it draws; the ladder covers large ones.
RANDOM_DIMS = ((1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 1, 3))
#: Random quivers that also get the opposite-quiver duality check, per run.
DUALITY_SAMPLE = 24


class HNLadder:
    name = "hn_ladder"

    def __init__(self):
        self.dual_budget = DUALITY_SAMPLE

    @staticmethod
    def _op(label, q, q_op, d, theta, exact=None):
        """``q_op``, the opposite quiver, asks for the duality check."""

        def run():
            return enumerate_hn_types(q, d, theta)

        def check(types):
            problem = _check_types(q, d, theta, types)
            if problem:
                return problem
            if exact is not None and set(types) != exact:
                return "types differ from the paper's"
            if q_op is not None:
                opposite = enumerate_hn_types(q_op, d, tuple(-t for t in theta))
                if sorted(opposite) != sorted(tuple(reversed(t)) for t in types):
                    return "opposite-quiver duality fails"
            return None

        return Op(label, run, check)

    def fixed(self, rng):
        ops = []
        for d in LADDER:
            theta = (d[1], -d[0])
            # (4,5) is left out of the duality check: it would add 4 s per run
            q_op = KRONECKER_OP if d != (4, 5) else None
            exact = PAPER_HN_TYPES_23 if d == (2, 3) else None
            ops.append(self._op(f"kronecker {d}", KRONECKER, q_op, d, theta, exact))
        return ops

    def round(self, rng):
        ops = []
        for dims in RANDOM_DIMS * 3:
            d = tuple(rng.sample(dims, 3))
            counts = [rng.randint(0, 3) for _ in range(3)]
            if not any(counts):
                counts[rng.randrange(3)] = 1
            pairs = ((0, 1), (0, 2), (1, 2))
            arrows = tuple(p for p, c in zip(pairs, counts) for _ in range(c))
            theta = (0, 0, 0)
            while not any(theta):
                v = [rng.randint(-3, 3) for _ in range(3)]
                theta = (d[1] * v[2] - d[2] * v[1], d[2] * v[0] - d[0] * v[2],
                         d[0] * v[1] - d[1] * v[0])
            q_op = None
            if self.dual_budget:
                self.dual_budget -= 1
                q_op = Quiver(3, tuple((j, i) for i, j in arrows))
            ops.append(self._op(f"quiver {arrows} d={d} theta={theta}", Quiver(3, arrows),
                                q_op, d, theta))
        return ops


def _check_types(q, d, theta, types):
    def slope(p):
        return Fraction(sum(t * x for t, x in zip(theta, p)), sum(p))

    if len(set(types)) != len(types):
        return "repeated type"
    for tau in types:
        if not tau or any(len(p) != len(d) or min(p) < 0 or not any(p) for p in tau):
            return f"malformed type {tau}"
        if tuple(map(sum, zip(*tau))) != tuple(d):
            return f"type {tau} does not sum to {d}"
        slopes = [slope(p) for p in tau]
        if any(a <= b for a, b in zip(slopes, slopes[1:])):
            return f"type {tau}: slopes do not decrease"
        if not all(has_semistable(q, p, theta) for p in tau):
            return f"type {tau}: a part has no semistable point"
    if ((tuple(d),) in types) != has_semistable(q, d, theta):
        return "trivial type present exactly when d has no semistable point"
    return None


# -- requests ------------------------------------------------------------------

#: Request kinds and their count in every round of 200.
REQUEST_MIX = (
    ("stability", 28), ("syzygies", 20), ("chi", 28), ("ch", 28), ("teleman", 28),
    ("chow-eval", 28), ("hn-types", 8), ("ledger-check", 8), ("malformed", 24),
)
MAX_DEPTH = 4
MAX_RANK = 400
PROBE_LIMIT_S = 0.25
_CLASSES = {"c1": (1, 0, 0, 0), "c2": (0, 1, 0, 0), "c3": (0, 0, 1, 0),
            "d1": (1, 0, 0, 0), "d2": (0, 0, 0, 1)}
_MALFORMED = (
    ["stability", "--matrix", "x,y;z"],
    ["syzygies", "--matrix", "x,y,q;0,y,z"],
    ["chow-eval", "--expr", "c4^2"],
    ["chow-eval", "--expr", "c1^"],
    ["hn-types", "--dim", "2,a"],
    ["teleman", "--theta", "1,1", "--expr", "U1"],
    ["chi", "--expr", "twist(U1,x)"],
)


def _sl_ok(e):
    if e[0] == "sl" and oracle.rank(e[1]) < 1:
        return False
    return all(_sl_ok(a) for a in e[1:] if isinstance(a, tuple))


def random_expr(rng):
    """A random expression of depth 1 to MAX_DEPTH and rank at most
    MAX_RANK; sl never gets a zero-rank argument."""
    while True:
        e = _random_tree(rng, MAX_DEPTH)
        if oracle.rank(e) <= MAX_RANK and _sl_ok(e):
            return e


def _random_tree(rng, depth):
    if depth == 0 or (depth < MAX_DEPTH and rng.random() < 0.25):
        leaf = rng.randrange(4)
        return ("O", rng.randint(-2, 3)) if leaf == 3 else (("U1",), ("U2",), ("U2",))[leaf]
    op = rng.choice(("dual", "tensor", "tensor", "sum", "det", "sl", "sym2", "wedge2", "twist"))
    if op == "twist":
        return oracle.twist(_random_tree(rng, depth - 1), rng.choice((-2, -1, 1, 2, 3)))
    if op in oracle.BINARY:
        return (op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    return (op, _random_tree(rng, depth - 1))


def random_poly(rng):
    """Text of a random polynomial in c1, c2, c3, d1, d2 and its expansion."""
    names = tuple(_CLASSES)
    terms, total = [], {}
    for _ in range(rng.randint(1, 4)):
        coeff = rng.choice((-5, -3, -2, -1, 1, 1, 2, 3, 4, 7))
        target = rng.choice((4, 5, 6, 6, 6, 6, 7))
        factors, poly, degree = [], {(0, 0, 0, 0): coeff}, 0
        while degree < target:
            if rng.random() < 0.25:
                a, b = rng.sample(names, 2)
                sign = rng.choice("+-")
                k = rng.randint(1, 2)
                factors.append(f"({a}{sign}{b})" + (f"^{k}" if k > 1 else ""))
                base = {_CLASSES[a]: 1}
                base[_CLASSES[b]] = base.get(_CLASSES[b], 0) + (1 if sign == "+" else -1)
                base = {m: c for m, c in base.items() if c}
                factor = {(0, 0, 0, 0): 1}
                for _ in range(k):
                    factor = oracle.poly_mul(factor, base)
                degree += k * min(sum(x * w for x, w in zip(_CLASSES[n], oracle.CLASS_DEGREES))
                                  for n in (a, b))
            else:
                name = rng.choice(names)
                k = rng.randint(1, 3)
                factors.append(name + (f"^{k}" if k > 1 else ""))
                factor = {tuple(k * x for x in _CLASSES[name]): 1}
                degree += k * sum(x * w for x, w in zip(_CLASSES[name], oracle.CLASS_DEGREES))
            poly = oracle.poly_mul(poly, factor)
        terms.append((coeff, "*".join(factors)))
        for m, c in poly.items():
            total[m] = total.get(m, 0) + c
    text = ""
    for coeff, body in terms:
        sign = "-" if coeff < 0 else ("+" if text else "")
        text += f"{sign}{abs(coeff)}*{body}"
    return text, total


def random_form(rng):
    if rng.random() < 0.2:
        return (0, 0, 0)
    while True:
        form = tuple(rng.randint(-2, 2) for _ in range(3))
        if any(form):
            return form


def _unimodular(rng, n):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        m[i] = [a + k * b for a, b in zip(m[i], m[j])]
    return m


def random_matrix(rng, unstable):
    """A 2x3 matrix of linear forms as integer triples: generic, or an
    unstable pattern moved by random unimodular row and column operations."""
    forms = [random_form(rng) for _ in range(6)]
    if not unstable:
        return (tuple(forms[:3]), tuple(forms[3:]))
    zero = (0, 0, 0)
    pattern = rng.randrange(4)
    a, b, c, d, e, f = forms
    if pattern == 0:
        rows = [[a, b, c], [zero, zero, zero]]
    elif pattern == 1:
        rows = [[a, b, zero], [d, e, zero]]
    elif pattern == 2:
        rows = [[a, zero, zero], [d, e, f]]
    else:
        k = rng.choice((-2, -1, 2, 3))
        rows = [[a, b, c], [tuple(k * x for x in a), tuple(k * x for x in b),
                            tuple(k * x for x in c)]]
    left, right = _unimodular(rng, 2), _unimodular(rng, 3)

    def combine(coeffs, entries):
        return tuple(sum(k * entry[v] for k, entry in zip(coeffs, entries)) for v in range(3))

    rows = [[combine(left[i], [rows[0][j], rows[1][j]]) for j in range(3)] for i in range(2)]
    rows = [[combine([right[k][j] for k in range(3)], row) for j in range(3)] for row in rows]
    return tuple(tuple(row) for row in rows)


def run_request(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def _load(output, want_code=0):
    code, text = output
    if code != want_code:
        return None, f"exit code {code}, expected {want_code}"
    try:
        return json.loads(text), None
    except json.JSONDecodeError:
        return None, "stdout is not one JSON document"


def _error_problem(output):
    """A malformed request must exit 2 with a JSON error."""
    doc, problem = _load(output, 2)
    return problem or (None if "error" in doc else "no error key")


def _teleman_problem(tree, output, strata_rows):
    code = output[0]
    doc, problem = _load(output, code if code in (0, 1) else 0)
    if problem:
        return problem
    if code != (0 if doc["pass"] else 1):
        return "teleman: exit code does not match the verdict"
    rows = doc.get("strata", [])
    if [tuple(tuple(p) for p in r["hn_type"]) for r in rows] != [s[0] for s in strata_rows]:
        return "teleman: strata differ from the stratum table"
    for row, (_, eta, u1, u2) in zip(rows, strata_rows):
        ws = oracle.character(tree, u1, u2)
        top = max(ws) if ws else None
        margin = None if top is None else eta - top
        if (row["eta"], row["max_weight"], row["margin"]) != (eta, top, margin):
            return f"teleman: stratum {row['hn_type']} weights differ"
        if row["pass"] != (margin is None or margin >= 1):
            return f"teleman: stratum {row['hn_type']} pass flag wrong"
    if doc["pass"] != all(r["pass"] for r in rows):
        return "teleman: overall pass flag wrong"
    return None


class Requests:
    name = "requests"

    def __init__(self):
        self.strata = stratum_table()

    def fixed(self, rng):
        return self.round(rng)

    def round(self, rng):
        kinds = [kind for kind, count in REQUEST_MIX for _ in range(count)]
        rng.shuffle(kinds)
        return [getattr(self, "_" + kind.replace("-", "_"))(rng) for kind in kinds]

    def probes(self):
        """The four known faults, attempted once per round."""
        deep = "dual(" * 3000 + "U1" + ")" * 3000
        sym = oracle.parse("sym2(sym2(sym2(tensor(sl(U2),sl(U2)))))")

        def power_ok(output):
            doc, problem = _load(output)
            if problem:
                return problem
            if Fraction(str(doc["integral"])) != 0 or any(
                    Fraction(str(v)) for v in doc["coordinates"].values()):
                return "c1^100000000 is not zero"
            return None

        def hang(result):
            return result.get("timeout") or result.get("exception") == "MemoryError"

        return [
            Op("chi on 3000-deep dual", check=_error_problem, argv=["chi", "--expr", deep],
               known_fault=lambda r: r.get("exception") == "RecursionError"),
            Op("chow-eval c1^100000000", check=power_ok,
               argv=["chow-eval", "--expr", "c1^100000000"], known_fault=hang),
            Op("teleman triple sym2",
               check=lambda output: _teleman_problem(sym, output, self.strata),
               argv=["teleman", "--expr", oracle.render(sym)], known_fault=hang),
            Op("hn-types dim 0,0", check=_error_problem,
               argv=["hn-types", "--dim", "0,0", "--theta", "0,0"],
               known_fault=lambda r: r.get("code") == 0),
        ]

    @staticmethod
    def _request(label, argv, check):
        return Op(label, lambda: run_request(argv), check)

    def _stability(self, rng):
        rows = random_matrix(rng, unstable=rng.random() < 0.5)
        stable = oracle.minors_independent(rows)

        def check(output):
            doc, problem = _load(output)
            if problem:
                return problem
            want = (stable, stable, True if stable else None)
            got = (doc["stable"], doc["minors_independent"], doc["abelian_plane"])
            return None if got == want else f"stability of {rows}: {got}, expected {want}"

        return self._request("stability", ["stability", "--matrix=" + oracle.render_matrix(rows)],
                             check)

    def _syzygies(self, rng):
        rows = random_matrix(rng, unstable=rng.random() < 0.5)
        stable = oracle.minors_independent(rows)

        def check(output):
            doc, problem = _load(output)
            if problem:
                return problem
            if doc["kernel_ok"] is not True:
                return "syzygies: tensors outside the kernel"
            if not stable:
                return None if "warning" in doc else "syzygies: unstable input not flagged"
            a, b = ([[oracle.parse_rational(x) for x in row] for row in m] for m in doc["sl3"])
            if any(sum(m[i][i] for i in range(3)) for m in (a, b)):
                return "syzygies: sl3 matrix with nonzero trace"
            if oracle.mat_mul(a, b) != oracle.mat_mul(b, a) or not doc["commute"]:
                return "syzygies: sl3 plane does not commute"
            return None if "warning" not in doc else "syzygies: stable input flagged"

        return self._request("syzygies", ["syzygies", "--matrix=" + oracle.render_matrix(rows)],
                             check)

    def _chi(self, rng):
        tree = random_expr(rng)

        def check(output):
            doc, problem = _load(output)
            if problem:
                return problem
            serre = chow.chi(to_program(oracle.twist(("dual", tree), -3)))
            return None if doc["chi"] == serre else f"chi({oracle.render(tree)}): Serre fails"

        return self._request("chi", ["chi", "--expr=" + oracle.render(tree)], check)

    def _ch(self, rng):
        tree = random_expr(rng)

        def check(output):
            doc, problem = _load(output)
            if problem:
                return problem
            got = (doc["ch"]["[Y]"], doc["ch"]["c1"])
            want = (oracle.rank(tree), oracle.c1(tree))
            return None if got == want else f"ch({oracle.render(tree)}): rank, c1 {got} != {want}"

        return self._request("ch", ["ch", "--expr=" + oracle.render(tree)], check)

    def _teleman(self, rng):
        tree = random_expr(rng)

        def check(output):
            return _teleman_problem(tree, output, self.strata)

        return self._request("teleman", ["teleman", "--expr=" + oracle.render(tree)], check)

    def _chow_eval(self, rng):
        text, poly = random_poly(rng)
        want = oracle.top_integral(poly)

        def check(output):
            doc, problem = _load(output)
            if problem:
                return problem
            got = oracle.parse_rational(doc["integral"])
            return None if got == want else f"chow-eval {text}: {got}, expected {want}"

        return self._request("chow-eval", ["chow-eval", "--expr=" + text], check)

    def _hn_types(self, rng):
        def check(output):
            doc, problem = _load(output)
            if problem:
                return problem
            types = [tuple(tuple(p) for p in row["parts"]) for row in doc["types"]]
            if set(types) != PAPER_HN_TYPES_23 or len(types) != len(PAPER_HN_TYPES_23):
                return "hn-types: types differ from the paper's"
            for row in doc["types"]:
                slopes = [oracle.parse_rational(s) for s in row["slopes"]]
                if any(a <= b for a, b in zip(slopes, slopes[1:])):
                    return "hn-types: slopes do not decrease"
                if row["semistable_stratum"] != (len(row["parts"]) == 1):
                    return "hn-types: semistable flag wrong"
            return None

        return self._request("hn-types", ["hn-types"], check)

    def _ledger_check(self, rng):
        def check(output):
            doc, problem = _load(output)
            if problem:
                return problem
            checks = doc["ch_identities"]["checks"] + doc["mutation_ledger"]["checks"]
            ok = doc["pass"] and all(c["holds"] for c in checks)
            return None if ok else "ledger-check: an identity fails"

        return self._request("ledger-check", ["ledger-check"], check)

    def _malformed(self, rng):
        if rng.random() < 0.5:
            argv = list(rng.choice(_MALFORMED))
        else:
            # every proper prefix of an expression is malformed
            text = oracle.render(random_expr(rng))
            argv = [rng.choice(("chi", "ch", "teleman")),
                    "--expr=" + text[:rng.randrange(1, len(text))]]

        def check(output):
            problem = _error_problem(output)
            return problem and f"malformed {argv}: {problem}"

        return self._request("malformed", argv, check)


WORKLOADS = {w.name: w for w in (Collections, HNLadder, Requests)}
