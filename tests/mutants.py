"""A mutation catalogue for ``quivercert.quiver`` and ``quivercert.strata``.

Each entry of ``CATALOGUE`` names a module of ``src/quivercert``, a piece of
its text that occurs there exactly once, the text that replaces it, a label,
and the test files that should fail on the mutated program.  Run

    python tests/mutants.py

from any directory; it takes no options.  It copies the checkout (without
``.git``) once into a temporary directory, checks that the named test files
pass there unmutated, then applies one mutant at a time to the copy's
``src/``, runs each named test file in one pytest child at a time, never
more than one, and restores the module.  The kill matrix, killed or
survived per (mutant, test file), goes to ``MUTANTS_47.json`` at the
repository root.  A mutant that no test file kills must be listed in
``EQUIVALENT`` with the reason that no input tells it from the program.

Each child runs with a fixed hypothesis seed, and the example database that
hypothesis leaves in the copy is deleted before the next mutant, so a run
over the same program and tests gives the same matrix.  The tier-1 test
``tests/test_mutants.py`` checks the catalogue against ``src/`` and the
checked-in matrix; the full run stays out of tier-1 (about four minutes on
a 2-vCPU host).
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

ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "MUTANTS_47.json"

#: pytest options of every child: stop at the first failure, a fixed
#: hypothesis seed, and no cache written into the copy.
PYTEST_ARGS = ("-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0")

#: Seconds a child may take before its mutant counts as killed.
CHILD_TIMEOUT_S = 900

QUIVER_TESTS = ("test_quiver.py", "test_strata.py")
STRATA_TESTS = ("test_strata.py", "test_verify.py")

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
     "tuple((i, i, -1) for i in range(len(s.blocks)))",
     "tuple((i, i, 1) for i in range(len(s.blocks)))",
     "gauge-directions-added", STRATA_TESTS),
    ("strata.py",
     "scale = lcm(*(b for _, b in slopes))",
     "scale = 2 * lcm(*(b for _, b in slopes))",
     "one-ps-scale-doubled", STRATA_TESTS),
    ("strata.py",
     "weights = [a * (scale // b) for a, b in slopes]",
     "weights = [a for a, b in slopes]",
     "one-ps-weights-unscaled", STRATA_TESTS),
    # -- strata.py: descent, margins and the twist rule --------------------------
    ("strata.py",
     "return sum(a * s.trace(i) for i, a in enumerate(twist))",
     "return -sum(a * s.trace(i) for i, a in enumerate(twist))",
     "descent-shift-sign", STRATA_TESTS),
    ("strata.py",
     "ws.extend([w + shift] * m)",
     "ws.extend([w] * m)",
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
)

#: Mutants that no test file kills, with the reason that no input tells them
#: from the program.
EQUIVALENT: dict[str, str] = {}


def _run_file(tree: Path, name: str) -> tuple[bool, str]:
    """Whether ``tests/name`` passes in ``tree``, and the last line pytest
    printed (or the timeout)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", *PYTEST_ARGS, f"tests/{name}"],
                              cwd=tree, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timeout after {CHILD_TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines() or [f"exit {done.returncode}"]
    return done.returncode == 0, lines[-1]


def main() -> int:
    files = sorted({name for *_, names in CATALOGUE for name in names})
    with tempfile.TemporaryDirectory(prefix="quivercert-mutants-") as tmp:
        tree = Path(tmp) / "checkout"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "BENCH_*.json", "MUTANTS_*.json"))
        for name in files:
            passed, last = _run_file(tree, name)
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
            status = {}
            for name in names:
                start = time.monotonic()
                passed, last = _run_file(tree, name)
                status[name] = "survived" if passed else "killed"
                print(f"{label} {name}: {status[name]} ({time.monotonic() - start:.1f} s; {last})",
                      flush=True)
            path.write_text(text, encoding="utf-8")
            killed = "killed" in status.values()
            rows.append({"label": label, "module": module, "old": old, "new": new,
                         "files": status, "killed": killed,
                         "equivalent": None if killed else EQUIVALENT.get(label)})
    survivors = [row["label"] for row in rows if not row["killed"]]
    document = {
        "command": "python tests/mutants.py",
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
