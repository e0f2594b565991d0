"""A mutation catalogue for every module of ``quivercert`` that defines a function.

Each entry of ``CATALOGUE`` names a module of ``src/quivercert``, a piece of
its text that occurs there exactly once, the text that replaces it, a label,
and the test files that should fail on the mutated program.  Run

    python tests/mutants.py

from any directory; it takes no options.  It copies the checkout (without
``.git``) once into a temporary directory, checks that the named test files
pass there unmutated, then applies one mutant at a time to the copy's
``src/``, runs each named test file in one pytest child at a time, never
more than one, and restores the module.  The kill matrix, killed or
survived per (mutant, test file), goes to ``MUTANTS_52.json`` at the
repository root, with the test that failed first in each killing file and
the Python and hypothesis versions that drew the examples.  A mutant that
no test file kills must be listed in ``EQUIVALENT`` with the reason that
no input tells it from the program.

Each child runs with a fixed hypothesis seed, and the example database that
hypothesis leaves in the copy is deleted before the next mutant, so a run
over the same program and tests gives the same matrix.  The tier-1 test
``tests/test_mutants.py`` checks the catalogue against ``src/`` and the
checked-in matrix; the full run stays out of tier-1 (about 19 minutes
for 96 mutants on a 2-vCPU host).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hypothesis

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "MUTANTS_52.json"

#: pytest options of every child: stop at the first failure, a fixed
#: hypothesis seed, and no cache written into the copy.
PYTEST_ARGS = ("-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0")

#: Seconds a child may take before its mutant counts as killed.
CHILD_TIMEOUT_S = 900

QUIVER_TESTS = ("test_quiver.py", "test_strata.py")
STRATA_TESTS = ("test_strata.py", "test_verify.py")
LINALG_TESTS = ("test_repgeom.py", "test_chow.py")
BUNDLES_TESTS = ("test_bundles.py", "test_strata.py")
CHOW_TESTS = ("test_chow.py", "test_verify.py")
CHI_TESTS = ("test_chow.py", "test_verify.py", "test_acceptance.py")
POLY_TESTS = ("test_chow.py", "test_cli.py")
CLI_TESTS = ("test_cli.py",)
REPGEOM_TESTS = ("test_repgeom.py", "test_cli.py")
VERIFY_TESTS = ("test_verify.py", "test_cli.py")

#: (module, old text, new text, label, test files).
CATALOGUE = (
    # -- quiver.py: the HN table ------------------------------------------------
    ("quiver.py",
     "dense = dense or not sum(map(operator.mul, rows[y], box[x - y]))",
     "dense = dense or sum(map(operator.mul, rows[y], box[x - y])) <= 0",
     "euler-pairing-zero-to-at-most-zero", QUIVER_TESTS),
    ("quiver.py",
     "if semistable[y] and least[x - y] < key:",
     "if semistable[y] and least[x - y] <= key:",
     "first-part-strict-to-weak", QUIVER_TESTS),
    ("quiver.py",
     "if semistable[y] and least[x - y] < key:",
     "if least[x - y] < key:",
     "first-part-without-semistable-f", QUIVER_TESTS),
    ("quiver.py",
     "return box, pairs, columns, list(zip(*(map(operator.mul, c, scales) for c in columns)))",
     "return box, pairs, columns, list(zip(*columns))",
     "slope-keys-without-scales", QUIVER_TESTS),
    ("quiver.py",
     "        heads = done[:]\n",
     "        heads = done\n",
     "lattice-heads-alias-the-done-list", QUIVER_TESTS),
    ("quiver.py",
     "below[y + n * s] = [z + step for z in below[y] for step in steps]",
     "below[y + n * s] = [z + step for step in steps for z in below[y]]",
     "lattice-pairs-out-of-product-order", QUIVER_TESTS),
    ("quiver.py",
     "pairs = [row[1:-1] for row in below]",
     "pairs = [row[1:] for row in below]",
     "lattice-pairs-keep-h-itself", QUIVER_TESTS),
    ("quiver.py",
     "common = lcm(*range(1, sum(d) + 1))",
     "common = sum(d)",
     "scale-common-total-not-lcm", QUIVER_TESTS),
    ("quiver.py",
     "flows[j] = list(map(operator.sub, flows[j], map(m.__mul__, columns[i])))",
     "flows[i] = list(map(operator.sub, flows[i], map(m.__mul__, columns[j])))",
     "euler-rows-arrows-transposed", QUIVER_TESTS),
    ("quiver.py",
     "flows[j] = list(map(operator.sub, flows[j], map(m.__mul__, columns[i])))",
     "flows[j] = list(map(operator.sub, flows[j], columns[i]))",
     "euler-rows-without-multiplicity", QUIVER_TESTS),
    ("quiver.py",
     "        least[x] = below[0]\n",
     "        least[x] = below[-1]\n",
     "least-key-is-the-largest", QUIVER_TESTS),
    ("quiver.py",
     "                parts.append((key, y))\n"
     "                dense = dense or not sum(map(operator.mul, rows[y], box[x - y]))\n",
     "                parts.append((key, y))\n"
     "            if semistable[y]:\n"
     "                dense = dense or not sum(map(operator.mul, rows[y], box[x - y]))\n",
     "dense-test-on-every-semistable-f", QUIVER_TESTS),
    # -- quiver.py: the walk, the gate and the quiver -----------------------------
    ("quiver.py",
     "from bisect import bisect_left",
     "from bisect import bisect_right as bisect_left",
     "walk-bisect-left-to-right", QUIVER_TESTS),
    ("quiver.py",
     "stack.append((x - y, keys[y], prefix + (y,)))",
     "stack.append((x - y, bound, prefix + (y,)))",
     "walk-bound-not-lowered", QUIVER_TESTS),
    ("quiver.py",
     "if box > MAX_SUBVECTORS:",
     "if box >= MAX_SUBVECTORS:",
     "max-subvectors-strict-to-weak", QUIVER_TESTS),
    ("quiver.py",
     "if sum(t * x for t, x in zip(theta, d)) != 0:",
     "if sum(t * x for t, x in zip(theta, d)) > 0:",
     "balance-check-one-sided", QUIVER_TESTS),
    ("quiver.py",
     "groups = tuple((i, j, m) for (i, j), m in Counter(arrows).items())",
     "groups = tuple((i, j, 1) for (i, j), m in Counter(arrows).items())",
     "groups-drop-multiplicity", QUIVER_TESTS),
    ("quiver.py",
     "        if m < 1:\n",
     "        if m < 0:\n",
     "kronecker-admits-no-arrows", ("test_quiver.py", "test_cli.py")),
    ("quiver.py",
     "return removed < self.vertex_count",
     "return removed < self.vertex_count - 1",
     "cycle-check-off-by-one", QUIVER_TESTS),
    ("quiver.py",
     "    g = gcd(a, b)\n",
     "    g = gcd(a, b, 2)\n",
     "reduced-slope-half-reduced", QUIVER_TESTS),
    # -- strata.py: codimension and eta ----------------------------------------
    ("strata.py",
     "if wt < ws:",
     "if wt <= ws:",
     "negative-directions-weak", STRATA_TESTS),
    ("strata.py",
     "codim += m * ms * mt",
     "codim += ms * mt",
     "codim-without-group-multiplicity", STRATA_TESTS),
    ("strata.py",
     "eta += m * ms * mt * (ws - wt)",
     "eta += ms * mt * (ws - wt)",
     "eta-without-group-multiplicity", STRATA_TESTS),
    ("strata.py",
     "tuple((i, i, -1) for i in range(len(blocks)))",
     "tuple((i, i, 1) for i in range(len(blocks)))",
     "gauge-directions-added", STRATA_TESTS),
    ("strata.py",
     "scale = lcm(*(b for _, b in slopes))",
     "scale = 2 * lcm(*(b for _, b in slopes))",
     "one-ps-scale-doubled", STRATA_TESTS),
    ("strata.py",
     "weights = [a * (scale // b) for a, b in slopes]",
     "weights = [a for a, b in slopes]",
     "one-ps-weights-unscaled", STRATA_TESTS),
    ("strata.py",
     "for w, m in zip(weights, column) if m > 0)",
     "for w, m in zip(weights, column))",
     "one-ps-keeps-zero-multiplicities", STRATA_TESTS),
    ("strata.py",
     "blocks = one_ps_from_hn(tau, slopes) if",
     "blocks = one_ps_from_hn(tau, slopes[::-1]) if",
     "hn-records-slopes-reversed", STRATA_TESTS),
    # -- strata.py: descent, margins and the twist rule --------------------------
    ("strata.py",
     "shift = sum(a * w * m for a, vertex in zip(twist, blocks) for w, m in vertex)",
     "shift = -sum(a * w * m for a, vertex in zip(twist, blocks) for w, m in vertex)",
     "descent-shift-sign", STRATA_TESTS),
    ("strata.py",
     "tuple(w + shift for w, m in vertex for _ in range(m))",
     "tuple(w for w, m in vertex for _ in range(m))",
     "universal-weights-without-shift", STRATA_TESTS),
    ("strata.py",
     "margin is None or margin >= 1",
     "margin is None or margin >= 0",
     "margin-rule-at-least-zero", STRATA_TESTS),
    ("strata.py",
     "(r[1], s.eta - r[1])",
     "(r[0], s.eta - r[0])",
     "margin-from-the-least-weight", STRATA_TESTS),
    ("strata.py",
     "(r[0] + t, r[1] + t) for r, t in zip(ranges, shifts)",
     "(r[0] - t, r[1] - t) for r, t in zip(ranges, shifts)",
     "twist-rule-shift-sign", STRATA_TESTS),
    ("strata.py",
     "charge_product(budget, *((count, 1) if right else (1, count)))",
     "charge_product(budget, *((1, count) if right else (count, 1)))",
     "twist-rule-charge-order", STRATA_TESTS),
    ("strata.py",
     "        budget.charge(cost)\n        for count in counts:\n",
     "        for count in counts:\n",
     "twist-rule-base-cost-dropped", STRATA_TESTS),
    ("strata.py",
     "    budget.charge(cost)\n    return ranges\n",
     "    return ranges\n",
     "cached-ranges-charge-nothing", STRATA_TESTS),
    # -- _linalg.py: the echelon form, integer entries and ratios -----------------
    ("_linalg.py",
     "        m[r], m[pivot] = m[pivot], m[r]\n",
     "",
     "echelon-row-swap-dropped", LINALG_TESTS),
    ("_linalg.py",
     "m[i] = [(p * x - q * y) // previous for x, y in zip(m[i], top)]",
     "m[i] = [(p * x - q * y) / previous for x, y in zip(m[i], top)]",
     "echelon-true-division", LINALG_TESTS),
    ("_linalg.py",
     "for i in range(r + 1, len(m)):",
     "for i in range(r + 1, len(m) - 1):",
     "echelon-last-row-skipped", LINALG_TESTS),
    ("_linalg.py",
     'return n // d if g == d else f"{n // g}/{d // g}"',
     'return n // d if g == d else f"{n}/{d}"',
     "render-ratio-not-reduced", ("test_chow.py", "test_cli.py")),
    ("_linalg.py",
     "return tuple(map(index, values))",
     "return tuple(map(int, values))",
     "int-entries-truncate", ("test_quiver.py", "test_strata.py")),
    # -- bundles.py: characters, ranks and the parser ------------------------------
    ("bundles.py",
     "z = x.copy()",
     "z = x",
     "character-sum-without-copy", BUNDLES_TESTS),
    ("bundles.py",
     "if not x:  # a zero character",
     "if x is None:  # a zero character",
     "sl-zero-check-dropped", BUNDLES_TESTS),
    ("bundles.py",
     "if terms > MAX_TERMS:",
     "if terms >= MAX_TERMS:",
     "term-limit-weak", BUNDLES_TESTS),
    ("bundles.py",
     "    budget.charge(terms)\n",
     "",
     "product-charges-nothing", BUNDLES_TESTS),
    ("bundles.py",
     "return Character([{sum(w * m for w, m in x.items()): 1}",
     "return Character([{sum(x): 1}",
     "character-det-without-multiplicity", BUNDLES_TESTS),
    ("bundles.py",
     "return -sum(self.u1)",
     "return sum(self.u1)",
     "o1-weight-sign", BUNDLES_TESTS),
    ("bundles.py",
     "return (x * x + x.psi2()).half()",
     "return (x * x - x.psi2()).half()",
     "sym2-as-wedge2", BUNDLES_TESTS),
    ("bundles.py",
     "if level > MAX_DEPTH:",
     "if level >= MAX_DEPTH:",
     "expr-nesting-limit-weak", ("test_bundles.py", "test_cli.py")),
    ("bundles.py",
     "z[w] = get(w, 0) + m * n",
     "z[w] = get(w, 0) + m",
     "character-product-without-multiplicity", BUNDLES_TESTS),
    ("bundles.py",
     "return Character([_added(x, y, -1) for",
     "return Character([_added(y, x, -1) for",
     "character-difference-reversed", BUNDLES_TESTS),
    ("bundles.py",
     "return Character([{x.args[0] * w: 1} for w in o1], budget)",
     "return Character([{w: 1} for w in o1], budget)",
     "line-bundle-leaf-ignores-n", BUNDLES_TESTS),
    ("bundles.py",
     "if rank > MAX_RANK:",
     "if rank >= MAX_RANK:",
     "rank-limit-weak", BUNDLES_TESTS),
    ("bundles.py",
     "return _Rank(1)",
     "return _Rank(2)",
     "rank-of-det-two", BUNDLES_TESTS),
    ("bundles.py",
     '_LEAVES = {"U1": U1, "U2": U2}',
     '_LEAVES = {"U1": U2, "U2": U2}',
     "parser-returns-u2-for-u1", BUNDLES_TESTS),
    ("bundles.py",
     "        if len(args) != 2:\n",
     "        if len(args) < 2:\n",
     "twist-arity-at-least-two", ("test_bundles.py", "test_cli.py")),
    # -- chow.py: the ring, ch and chi ---------------------------------------------
    ("chow.py",
     "y[r], rest = divmod(3 * rows[r][column]",
     "y[r], rest = divmod(6 * rows[r][column]",
     "back-substitution-doubled", CHOW_TESTS),
    ("chow.py",
     "_PAIRING = tuple((i, j, c // 3)",
     "_PAIRING = tuple((i, j, c // 2)",
     "pairing-not-divided-by-three", CHI_TESTS),
    ("chow.py",
     "b = ys[j]",
     "b = ys[k]",
     "product-reads-the-result-index", CHOW_TESTS),
    ("chow.py",
     "s = comb(n, k) * p ** (n - k)",
     "s = comb(n - 1, k) * p ** (n - k)",
     "power-binomial-off-by-one", CHOW_TESTS),
    ("chow.py",
     "if not a and n > 6:",
     "if not a and n > 5:",
     "nilpotent-shortcut-at-six", CHOW_TESTS),
    ("chow.py",
     "_PSI2_SCALES = tuple(2 ** k for k in DEGREES)",
     "_PSI2_SCALES = tuple(3 ** k for k in DEGREES)",
     "chow-psi2-as-psi3", CHOW_TESTS),
    ("chow.py",
     "_DUAL_SIGNS = tuple((-1) ** k for k in DEGREES)",
     "_DUAL_SIGNS = tuple((-1) ** k if k < 6 else -1 for k in DEGREES)",
     "dual-sign-wrong-at-the-point-class", CHOW_TESTS),
    ("chow.py",
     "out[i] += c * p ** k * q ** (6 - k)",
     "out[i] += c * p ** k * q ** (5 - k)",
     "exp-c1-denominator-power", CHOW_TESTS),
    ("chow.py",
     "sign = -1 if i % 2 == 0 else 1",
     "sign = 1",
     "newton-identities-without-sign", CHOW_TESTS),
    ("chow.py",
     "(4, 21), (6, -10))",
     "(4, 21), (6, 10))",
     "todd-degree-six-sign", CHOW_TESTS),
    ("chow.py",
     "products = [ChowElement.basis(label).dual() * todd_y() for label in BASIS]",
     "products = [ChowElement.basis(label) * todd_y() for label in BASIS]",
     "chi-form-without-dual", CHI_TESTS),
    ("chow.py",
     "    if rest:\n        raise RingInconsistencyError",
     "    if False:\n        raise RingInconsistencyError",
     "scaled-pairing-remainder-unchecked", CHI_TESTS),
    ("chow.py",
     "    return m, tuple(zip(*rows))\n",
     "    return m, tuple(map(tuple, rows))\n",
     "chi-row-reads-rows", CHI_TESTS),
    # -- chow.py: the polynomial parser --------------------------------------------
    ("chow.py",
     "return powers[min(n, 7)], end",
     "return powers[min(n, 6)], end",
     "class-power-past-six-not-zero", POLY_TESTS),
    ("chow.py",
     "return ChowElement([sign * out] + [0] * (len(BASIS) - 1), 1)",
     "return ChowElement([out] + [0] * (len(BASIS) - 1), 1)",
     "integer-term-drops-its-sign", POLY_TESTS),
    ("chow.py",
     '_refuse_digits(top.bit_length() - 1, "product", end)',
     '_refuse_digits(top.bit_length() - 1, "product", self.pos)',
     "product-limit-at-the-next-token", POLY_TESTS),
    # -- cli.py: the table reader and the handlers ----------------------------------
    ("cli.py",
     'if dest is None or (not eq and (not value or value[0] == "-")):',
     "if dest is None or (not eq and not value):",
     "table-accepts-dash-leading-value", CLI_TESTS),
    ("cli.py",
     "    for dest in required:\n        if values[dest] is None:\n            return None\n",
     "",
     "table-skips-required-flags", CLI_TESTS),
    ("cli.py",
     'if "_" not in text:  # int() reads 1_0 as 10',
     "if True:  # int() reads 1_0 as 10",
     "int-tuple-accepts-underscores", CLI_TESTS),
    ("cli.py",
     '"integral": coordinates["c3^2"]',
     '"integral": coordinates["c2*c3"]',
     "chow-eval-integral-wrong-class", CLI_TESTS),
    ("cli.py",
     "(_PRETTY if pretty else _COMPACT)",
     "(_COMPACT if pretty else _PRETTY)",
     "pretty-flag-inverted", CLI_TESTS),
    ("cli.py",
     "        return 2\n",
     "        return 1\n",
     "usage-error-exit-one", CLI_TESTS),
    ("cli.py",
     "    moduli = _moduli_setup(args.quiver, args.dim, args.theta, args.twist)\n",
     "    key = args.quiver, args.dim, args.theta\n"
     "    moduli = _moduli_setup(*key, _cmd_teleman.__dict__.setdefault(key, args.twist))\n",
     "setup-cache-keyed-without-twist", CLI_TESTS),
    ("cli.py",
     '                setattr(args, name, "--")\n',
     "                pass\n",
     "argparse-empty-list-kept", CLI_TESTS),
    # -- repgeom.py: stability, syzygies and the matrix parser ---------------------
    ("repgeom.py",
     "out[i][j] = -3 * at(i, i, k)",
     "out[i][j] = 3 * at(i, i, k)",
     "sl3-off-diagonal-sign", REPGEOM_TESTS),
    ("repgeom.py",
     "out[i][k] = 3 * at(i, i, j)",
     "out[i][k] = 2 * at(i, i, j)",
     "sl3-off-diagonal-scale", REPGEOM_TESTS),
    ("repgeom.py",
     "    if any(tensor_to_cubic(t)):\n",
     "    if False:\n",
     "sl3-kernel-check-dropped", REPGEOM_TESTS),
    ("repgeom.py",
     "if _CUBIC_OF_QUAD_VAR[qi][vi] == k]",
     "if _CUBIC_OF_QUAD_VAR[qi][vi] == k and 3 * qi + vi != 15]",
     "cubic-group-drops-yz-times-x", REPGEOM_TESTS),
    ("repgeom.py",
     'terms.append((VARS.index(var), -p if signs.count("-") % 2 else p, q))',
     'terms.append((VARS.index(var), -p if "-" in signs else p, q))',
     "entry-sign-from-any-minus", REPGEOM_TESTS),
    ("repgeom.py",
     "return len(echelon(minors(r)[0])[1]) == 3",
     "return len(echelon(minors(r)[0])[1]) >= 2",
     "stable-at-rank-two", REPGEOM_TESTS),
    ("repgeom.py",
     "g = gcd(den, *forms[0], *forms[1], *forms[2])",
     "g = gcd(den, *forms[0], *forms[1])",
     "row-gcd-skips-the-third-entry", REPGEOM_TESTS),
    ("repgeom.py",
     "(a, f, c, d), (a, e, b, d))",
     "(a, f, c, d), (a, d, b, e))",
     "third-minor-wrong-columns", REPGEOM_TESTS),
    # -- verify.py: the comparison vectors, verdicts and mutations ------------------
    ("verify.py",
     "blocking = tuple((tau, b - t + 1) for",
     "blocking = tuple((tau, b - t) for",
     "blocking-margin-minus-one", VERIFY_TESTS),
    ("verify.py",
     "if all(map(le, top, limit)):",
     "if all(t < b for t, b in zip(top, limit)):",
     "pass-rule-le-to-lt", VERIFY_TESTS),
    ("verify.py",
     "zip(types, top, limit) if t > b)",
     "zip(types, top, limit) if t >= b)",
     "blocking-strata-weak", VERIFY_TESTS),
    ("verify.py",
     "r[0] + s.eta - 1",
     "r[1] + s.eta - 1",
     "limit-from-the-largest-weight", VERIFY_TESTS),
    ("verify.py",
     "tuple(inf if r is None else r[0]",
     "tuple(-inf if r is None else r[0]",
     "zero-bundle-limit-minus-inf", VERIFY_TESTS),
    ("verify.py",
     "return all(p.chi == 0 if p.i > p.j",
     "return all(True if p.i > p.j",
     "accepted-ignores-backward-chi", VERIFY_TESTS),
    ("verify.py",
     "if i > j and passed and chi_value == 0:",
     "if i > j and passed:",
     "orthogonal-without-chi-zero", VERIFY_TESTS),
    ("verify.py",
     "c[j] = pairing(-1, j) - sum(",
     "c[j] = pairing(-1, j) + sum(",
     "mutate-substitution-sign", VERIFY_TESTS),
)

#: Mutants that no test file kills, with the reason that no input tells them
#: from the program.
EQUIVALENT: dict[str, str] = {}


def _run_file(tree: Path, name: str) -> tuple[bool, str, str | None]:
    """Whether ``tests/name`` passes in ``tree``, the last line pytest
    printed (or the timeout), and the id of the test that failed first."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", *PYTEST_ARGS, f"tests/{name}"],
                              cwd=tree, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timeout after {CHILD_TIMEOUT_S} s", None
    lines = done.stdout.strip().splitlines() or [f"exit {done.returncode}"]
    # the short summary of -q names each failure "FAILED <id> - <message>"
    failed = next((line[len("FAILED "):].split(" - ")[0] for line in lines
                   if line.startswith("FAILED ")), None)
    return done.returncode == 0, lines[-1], failed


def main() -> int:
    files = sorted({name for *_, names in CATALOGUE for name in names})
    with tempfile.TemporaryDirectory(prefix="quivercert-mutants-") as tmp:
        tree = Path(tmp) / "checkout"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "BENCH_*.json", "MUTANTS_*.json"))
        for name in files:
            passed, last, _ = _run_file(tree, name)
            print(f"unmutated {name}: {last}", flush=True)
            if not passed:
                print("the unmutated tests must pass first", file=sys.stderr)
                return 1
        rows = []
        for module, old, new, label, names in CATALOGUE:
            shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
            path = tree / "src" / "quivercert" / module
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"{label}: old text occurs {text.count(old)} times", file=sys.stderr)
                return 1
            path.write_text(text.replace(old, new), encoding="utf-8")
            status, first = {}, {}
            for name in names:
                start = time.monotonic()
                passed, last, first[name] = _run_file(tree, name)
                status[name] = "survived" if passed else "killed"
                print(f"{label} {name}: {status[name]} ({time.monotonic() - start:.1f} s; {last})",
                      flush=True)
            path.write_text(text, encoding="utf-8")
            killed = "killed" in status.values()
            rows.append({"label": label, "module": module, "old": old, "new": new,
                         "files": status, "first_failures": first, "killed": killed,
                         "equivalent": None if killed else EQUIVALENT.get(label)})
    survivors = [row["label"] for row in rows if not row["killed"]]
    document = {
        "command": "python tests/mutants.py",
        "python": sys.version,
        "hypothesis": hypothesis.__version__,
        "pytest_args": list(PYTEST_ARGS),
        "modules": sorted({row["module"] for row in rows}),
        "mutants": rows,
        "summary": {"mutants": len(rows), "killed": len(rows) - len(survivors),
                    "survived": survivors},
    }
    OUTPUT.write_text(json.dumps(document, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    unexplained = [label for label in survivors if label not in EQUIVALENT]
    print(f"{len(rows)} mutants, {len(survivors)} survived; wrote {OUTPUT.name}")
    if unexplained:
        print(f"survivors not listed as equivalent: {unexplained}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
