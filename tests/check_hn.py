"""An outside check of the Harder-Narasimhan records that ``quivercert`` prints.

It uses the standard library only and imports nothing from ``quivercert``.
From the argv of an ``hn-types`` or ``teleman`` call and the JSON document
it printed, it re-derives every field from the quiver, theta and the parts:
the reduced slopes, strictly decreasing; the one-parameter subgroup, weight
N * slope and the part's entry as multiplicity at each vertex where that
entry is nonzero, N the lcm of the slope denominators; codim and eta, from
the negative weight directions of Rep(d) (one Hom(V_i, V_j) per arrow) less
those of gl(d) (Reineke 2003; Teleman 2000); exactly one type of codim 0,
and a type trivial exactly when ``semistable_stratum`` holds; for
``teleman``, margin = eta - max_weight and every pass flag.  It exits 1
naming the first field that does not follow, else 0.  Stdin holds the
document, or with no argv a list of records ``{"argv", "stdout"[, "code"]}``
as in ``tests/cli_transcript.json``, other commands skipped:

    quivercert hn-types --dim 3,5 --theta 5,-3 \\
        | python tests/check_hn.py hn-types --dim 3,5 --theta 5,-3
    python tests/check_hn.py < tests/cli_transcript.json
"""

from __future__ import annotations

import json
import shlex
import sys
from collections import Counter
from fractions import Fraction
from math import lcm


class Mismatch(ValueError):
    """A printed field that does not follow; the message starts with its place."""


def read_argv(argv) -> tuple[str, dict, list, list]:
    """``(command, quiver, d, theta)`` of a call, the quiver as printed."""
    flags = {"--quiver": "kronecker:3", "--dim": "2,3", "--theta": "3,-2"}
    tokens = iter(argv[1:])
    for token in tokens:
        if token != "--pretty":
            flag, eq, value = token.partition("=")
            flags[flag] = value if eq else next(tokens, "")
    spec = flags["--quiver"].strip()
    if spec.startswith("kronecker:"):
        quiver = {"arrows": [[0, 1]] * int(spec[len("kronecker:"):]), "vertices": 2}
    else:
        quiver = {key: json.loads(spec)[key] for key in ("arrows", "vertices")}
    d, theta = ([int(x) for x in flags[flag].split(",")] for flag in ("--dim", "--theta"))
    return argv[0], quiver, d, theta


def one_ps(theta, parts) -> list:
    """The weight blocks ``[[weight, multiplicity], ...]`` per vertex of the
    one-parameter subgroup of the type ``parts``."""
    slopes = [Fraction(sum(map(int.__mul__, theta, p)), sum(p)) for p in parts]
    scale = lcm(*(mu.denominator for mu in slopes))
    return [[[int(mu * scale), p[i]] for mu, p in zip(slopes, parts) if p[i]]
            for i in range(len(theta))]


def codim_and_eta(arrows: Counter, blocks) -> tuple[int, int]:
    """dim Rep(d)_{<0} - dim gl(d)_{<0} and sum |w| over Rep(d)_{<0} - sum |w|
    over gl(d)_{<0} under the subgroup ``blocks``, with ``arrows`` the
    number of arrows by ``(i, j)``."""
    codim = eta = 0
    for pairs, sign in ((arrows, 1), ({(i, i): 1 for i in range(len(blocks))}, -1)):
        for (i, j), count in pairs.items():
            for ws, ms in blocks[i]:
                for wt, mt in blocks[j]:
                    if wt < ws:  # a direction of negative weight wt - ws
                        codim += sign * count * ms * mt
                        eta += sign * count * ms * mt * (ws - wt)
    return codim, eta


def expect(where: str, printed, derived) -> None:
    # JSON text tells true from 1 and 1 from 1.0, as == does not
    printed, derived = (json.dumps(x, sort_keys=True) for x in (printed, derived))
    if printed != derived:
        raise Mismatch(f"{where}: printed {printed}, derived {derived}")


def check_rows(quiver: dict, d, theta, rows, where: str, full: bool = True) -> list[dict]:
    """The fields derived for the rows ``where`` of a document, ``types`` of
    ``hn-types`` or ``strata`` of ``teleman``, once each printed field
    equals its derived value, checked in the order derived; with ``full``,
    a row must hold exactly the fields derived for it."""
    arrows = Counter(map(tuple, quiver["arrows"]))
    name, out = "parts" if where == "types" else "hn_type", []
    for k, row in enumerate(rows):
        at, parts = f"{where}[{k}]", row.get(name) if isinstance(row, dict) else None
        if not (isinstance(parts, list) and parts and all(
                isinstance(p, list) and len(p) == len(d) and any(p)
                and all(type(x) is int and x >= 0 for x in p) for p in parts)):
            raise Mismatch(f"{at}.{name}: not a list of nonzero dimension vectors")
        expect(f"{at}.{name} total", list(map(sum, zip(*parts))), d)
        slopes = [Fraction(sum(map(int.__mul__, theta, p)), sum(p)) for p in parts]
        if any(a <= b for a, b in zip(slopes, slopes[1:])):
            raise Mismatch(f"{at}.{name}: slopes {list(map(str, slopes))} do not decrease")
        blocks, trivial = one_ps(theta, parts), len(parts) == 1
        codim, eta = codim_and_eta(arrows, blocks)
        if where == "types":
            rendered = [mu.numerator if mu.denominator == 1 else str(mu) for mu in slopes]
            derived = {"slopes": rendered, "semistable_stratum": trivial,
                       **({} if trivial else {"one_ps": blocks}),
                       "codim": codim, "eta": None if trivial else eta}
        elif trivial:
            raise Mismatch(f"{at}.hn_type: the trivial type has no stratum to certify")
        else:
            top = row.get("max_weight")
            if not (top is None or type(top) is int):
                raise Mismatch(f"{at}.max_weight: printed {json.dumps(top)}")
            margin = None if top is None else eta - top
            derived = {"eta": eta, "max_weight": top, "margin": margin,
                       "pass": margin is None or margin >= 1}
        if full and set(row) != {name, *derived}:
            raise Mismatch(f"{at}: printed keys {sorted(row)}, derived {sorted({name, *derived})}")
        for field, value in derived.items():
            if field in row:
                expect(f"{at}.{field}", row[field], value)
        out.append(derived)
    if where == "types":
        dense = [k for k, row in enumerate(out) if row["codim"] <= 0]
        if len(dense) != 1 or out[dense[0]]["codim"]:
            raise Mismatch(f"types: codim 0 or less at {dense}, where exactly one type has 0")
    return out


def check_document(argv, doc, code=None) -> str:
    """Check the document that the call ``argv`` printed, and its exit code
    when given; returns the command, or raises ``Mismatch``."""
    command, quiver, d, theta = read_argv(argv)
    keys = {"hn-types": {"quiver", "dim", "theta", "types"},
            "teleman": {"expression", "strata", "pass"}}.get(command)
    if keys is None:
        raise Mismatch(f"command: {command!r} prints no HN records")
    if not isinstance(doc, dict) or set(doc) != keys:
        raise Mismatch(f"document: printed {json.dumps(doc)[:200]}, with keys {sorted(keys)}")
    if command == "hn-types":
        for field, value in (("quiver", quiver), ("dim", d), ("theta", theta)):
            expect(field, doc[field], value)
        check_rows(quiver, d, theta, doc["types"], "types")
        passed = True
    else:
        passed = all(row["pass"] for row in check_rows(quiver, d, theta, doc["strata"], "strata"))
        expect("pass", doc["pass"], passed)
    if code is not None:
        expect("code", code, 0 if passed else 1)
    return command


def main(argv, stdin) -> int:
    text = stdin.read()
    records = ([{"argv": argv, "stdout": text}] if argv else
               [r for r in json.loads(text) if r["argv"][:1] in (["hn-types"], ["teleman"])])
    for record in records:
        try:
            check_document(record["argv"], json.loads(record["stdout"]), record.get("code"))
        except Mismatch as exc:
            print(f"{shlex.join(record['argv'])}: {exc}", file=sys.stderr)
            return 1
    print(f"checked {len(records)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], sys.stdin))
