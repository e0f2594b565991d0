"""Command-line surface with machine-readable JSON output.

Every subcommand prints a single JSON document on stdout, in one write.
Exit codes: 0 on success, 1 on a verification failure (a failed
certificate or a broken identity), 2 on malformed input.  Rational numbers
render as "p/q" strings, integers as JSON integers; output is
byte-deterministic for a fixed invocation (sorted keys, no locale
dependence).  When the reader closes stdout early, the command ends
quietly with status 141 (128 + SIGPIPE), as a shell pipeline expects.

The commands are one table, ``COMMANDS``: each one's handler, help and
flags.  A valid argv is read from the table alone, and no parser is built:
a known command, then only exact ``--flag=value`` tokens of its flags, each
value taken as written, exact ``--flag value`` pairs, each value non-empty
and not starting with "-", and bare ``--pretty``, with every required flag
present.  Any other argv (help, an abbreviated or unknown flag, an extra
token, "--", a space-form value that is missing, empty or dash-leading, a
missing flag, no command or an unknown one) goes to the one argparse parser
that ``build_parser`` builds from the same table on first need and keeps
for the process, so argparse alone writes help and usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import repgeom
from ._linalg import MAX_CACHED_SETUPS, render_ratio
from .bundles import parse_expr
from .chow import ch_of, chi, parse_chow_poly
from .quiver import SPEC_FORMS, Quiver
from .strata import Moduli, hn_records, teleman_certify
from .verify import (
    EXCEPTIONAL,
    FULLNESS_NOTE,
    ORTHOGONAL,
    STRONG_EXT,
    UNDETERMINED,
    CollectionSpec,
    check_ch_identities,
    mutation_ledger_check,
    standard_collection,
    verify_collection,
)


#: The encoders of the compact output and of ``--pretty``, built once.  Every
#: document is a fresh tree, so no encoder looks for cycles; tuples encode as
#: arrays, so a document holds the library's tuples as they are.
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
_PRETTY = json.JSONEncoder(sort_keys=True, indent=2, check_circular=False)


def _print(doc: dict, pretty: bool) -> None:
    sys.stdout.write((_PRETTY if pretty else _COMPACT).encode(doc) + "\n")


def _parse_int_tuple(text: str, flag: str) -> tuple[int, ...]:
    if "_" not in text:  # int() reads 1_0 as 10
        try:
            return tuple(map(int, text.split(",")))
        except ValueError as exc:
            if "integer string conversion" in str(exc):
                raise  # a numeral over the digit limit, a message of its own
    raise ValueError(f"{flag} must be integers separated by commas, e.g. 2,3")


@functools.lru_cache(maxsize=MAX_CACHED_SETUPS)
def _moduli_setup(quiver: str, dim: str, theta: str, twist: str | None = None):
    """The quiver, d and theta read from the texts of ``--quiver``, ``--dim``
    and ``--theta``, or with the text of ``--twist`` their ``Moduli``: read
    and checked once per texts, flag by flag in that order.  A refusal
    raises on every call, since no exception is cached."""
    q = Quiver.from_spec(quiver, "--quiver")
    d, theta = _parse_int_tuple(dim, "--dim"), _parse_int_tuple(theta, "--theta")
    if twist is None:
        return q, d, theta
    return Moduli(q, d, theta, _parse_int_tuple(twist, "--twist"))


def _cmd_hn_types(args) -> tuple[dict, int]:
    quiver, d, theta = _moduli_setup(args.quiver, args.dim, args.theta)
    rows = []
    for parts, slopes, codim, s, threshold in hn_records(quiver, d, theta):
        row = {"parts": parts, "slopes": [render_ratio(*slope) for slope in slopes],
               "codim": codim, "semistable_stratum": s is None, "eta": threshold}
        if s is not None:
            row["one_ps"] = s.blocks
        rows.append(row)
    return {"quiver": quiver.to_json_dict(), "dim": d, "theta": theta, "types": rows}, 0


def _cmd_teleman(args) -> tuple[dict, int]:
    moduli = _moduli_setup(args.quiver, args.dim, args.theta, args.twist)
    expr = parse_expr(args.expr)
    rows = teleman_certify(expr, moduli)
    passed = all(row.passed for row in rows)
    strata = [{"hn_type": row.hn_type, "eta": row.eta, "max_weight": row.max_weight,
               "margin": row.margin, "pass": row.passed} for row in rows]
    return {"expression": str(expr), "strata": strata, "pass": passed}, 0 if passed else 1


def _cmd_chi(args) -> tuple[dict, int]:
    expr = parse_expr(args.expr)
    return {"expr": str(expr), "chi": chi(expr)}, 0


def _cmd_ch(args) -> tuple[dict, int]:
    expr = parse_expr(args.expr)
    return {"expr": str(expr), "ch": ch_of(expr).to_json_dict()}, 0


def _cmd_chow_eval(args) -> tuple[dict, int]:
    coordinates = parse_chow_poly(args.expr).to_json_dict()
    # the integral is the coordinate of the point class
    return {"expr": args.expr, "coordinates": coordinates, "integral": coordinates["c3^2"]}, 0


def _cmd_stability(args) -> tuple[dict, int]:
    r = repgeom.parse_matrix(args.matrix)
    forms, den = repgeom.minors(r)
    # rendered first, so that an unprintable input is refused before the
    # rank and syzygy work
    doc = {"matrix": str(r), "minors": [repgeom.render_quadratic_form(q, den) for q in forms]}
    stable = repgeom.is_stable(r)
    doc.update(stable=stable, minors_independent=stable,
               abelian_plane=repgeom.commutes(repgeom.syzygies(r)) if stable else None)
    return doc, 0


def _cmd_syzygies(args) -> tuple[dict, int]:
    r = repgeom.parse_matrix(args.matrix)
    matrix = str(r)
    sl3 = repgeom.syzygies(r)
    doc = {
        "matrix": matrix,
        # rendered before the rank of the minors is taken
        "sl3": [[[render_ratio(x, den) for x in row] for row in m] for m, den in sl3],
        # syzygies raises unless both integer tensors multiply to zero
        "kernel_ok": True,
        "commute": repgeom.commutes(sl3),
    }
    if not repgeom.is_stable(r):
        doc["warning"] = "degenerate syzygy: input matrix is unstable"
    return doc, 0


#: Largest collection file read, far above what ``MAX_OBJECTS`` objects need.
MAX_FILE_BYTES = 2 ** 20


def _cmd_verify_collection(args) -> tuple[dict, int]:
    if args.file is not None:
        try:
            with open(args.file, "rb") as fh:
                data = fh.read(MAX_FILE_BYTES + 1)
        except OSError as exc:
            raise ValueError(str(exc)) from exc
        if len(data) > MAX_FILE_BYTES:
            raise ValueError(f"collection file above {MAX_FILE_BYTES} bytes")
        spec = CollectionSpec.from_json(data.decode("utf-8"))
    else:
        spec = standard_collection()
    matrix = verify_collection(spec)
    pairs = [p for row in matrix.pairs for p in row]
    undetermined = [p for p in pairs if p.verdict == UNDETERMINED]
    summary = {
        "size": len(spec.objects),
        "counts": {v: sum(p.verdict == v for p in pairs)
                   for v in (EXCEPTIONAL, STRONG_EXT, ORTHOGONAL, UNDETERMINED)},
        "diagonal_all_exceptional": all(p.verdict == EXCEPTIONAL for p in pairs if p.i == p.j),
        "forward_all_strong": all(p.verdict == STRONG_EXT for p in pairs if p.i < p.j),
        "backward_all_chi_zero": all(p.chi == 0 for p in pairs if p.i > p.j),
        "undetermined_only_backward": all(p.i > p.j for p in undetermined),
        "undetermined_pairs": [[p.i, p.j] for p in undetermined],
        "note": FULLNESS_NOTE,
    }
    grid, accepted = [[_pair(p) for p in row] for row in matrix.pairs], matrix.accepted
    return {"labels": spec.labels(), "pairs": grid, "summary": summary,
            "accepted": accepted}, 0 if accepted else 1


def _pair(p) -> dict:
    doc = {"i": p.i, "j": p.j, "chi": p.chi, "teleman_pass": p.teleman_pass, "verdict": p.verdict}
    if p.blocking:
        doc["blocking"] = [{"hn_type": tau, "margin": margin}
                           for tau, margin in p.blocking]
    return doc


def _checks(checks) -> dict:
    passed = all(holds for _, holds in checks)
    return {"checks": [{"name": name, "holds": holds} for name, holds in checks], "pass": passed}


def _cmd_ledger_check(args) -> tuple[dict, int]:
    doc = {"ch_identities": _checks(check_ch_identities()),
           "mutation_ledger": _checks(mutation_ledger_check())}
    doc["pass"] = doc["ch_identities"]["pass"] and doc["mutation_ledger"]["pass"]
    return doc, 0 if doc["pass"] else 1


#: The flags of the commands on a quiver moduli setup, each ``(flag, default,
#: required, help)``.
_MODULI_FLAGS = (
    ("--quiver", "kronecker:3", False, SPEC_FORMS),
    ("--dim", "2,3", False, "dimension vector, e.g. 2,3"),
    ("--theta", "3,-2", False, "stability parameter, e.g. 3,-2"),
)
_EXPR_FLAG = ("--expr", None, True, None)

#: Every command by name: its handler, its help and its flags, each ``(flag,
#: default, required, help)``.  Every command also takes ``--pretty``.
COMMANDS = {
    "hn-types": (_cmd_hn_types, "enumerate Harder-Narasimhan types", _MODULI_FLAGS),
    "teleman": (_cmd_teleman, "vanishing certificate for a bundle expression", (
        *_MODULI_FLAGS, ("--twist", "1,-1", False, "universal-bundle twist, e.g. 1,-1"),
        _EXPR_FLAG)),
    "chi": (_cmd_chi, "Euler characteristic via Riemann-Roch", (_EXPR_FLAG,)),
    "ch": (_cmd_ch, "Chern character of a bundle expression", (_EXPR_FLAG,)),
    "chow-eval": (_cmd_chow_eval, "evaluate a polynomial in c1,c2,c3,d1,d2", (_EXPR_FLAG,)),
    "stability": (_cmd_stability, "stability of a 2x3 matrix of linear forms",
                  (("--matrix", None, True, "e.g. 'x,y,0;0,y,z'"),)),
    "syzygies": (_cmd_syzygies, "syzygy pair and its traceless-matrix plane",
                 (("--matrix", None, True, None),)),
    "verify-collection": (_cmd_verify_collection, "certify a candidate collection on Y",
                          (("--file", None, False,
                            "collection JSON; defaults to the built-in collection"),)),
    "ledger-check": (_cmd_ledger_check, "Chern character identities and mutation ledger", ()),
}


def _table_reader(func, flags) -> tuple[dict, dict, tuple]:
    """``(dests, defaults, required)`` of a command: its flags' namespace
    names by flag, its namespace before any flag is read, and the names of
    its required flags."""
    dests = {flag: flag[2:] for flag, _, _, _ in flags}
    defaults = {dests[flag]: default for flag, default, _, _ in flags}
    defaults.update(func=func, pretty=False)
    return dests, defaults, tuple(dests[flag] for flag, _, required, _ in flags if required)


_TABLE_READERS = {name: _table_reader(func, flags) for name, (func, _, flags) in COMMANDS.items()}


def _read_by_table(argv) -> argparse.Namespace | None:
    """The namespace that argparse would parse from ``argv`` if it is valid,
    as the module docstring says, read from ``COMMANDS``; else None."""
    reader = _TABLE_READERS.get(argv[0]) if argv else None
    if reader is None:
        return None
    dests, values, required = reader
    values = values.copy()
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--pretty":
            values["pretty"] = True
            continue
        flag, eq, value = token.partition("=")
        if not eq:
            value = next(tokens, "")
        dest = dests.get(flag)
        # a "--flag=value" value is taken as written, as argparse takes it
        if dest is None or (not eq and (not value or value[0] == "-")):
            return None
        values[dest] = value
    for dest in required:
        if values[dest] is None:
            return None
    return argparse.Namespace(**values)


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors, so that they reach the caller as JSON errors."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command in ``COMMANDS``, built once per process;
    ``build_parser.__wrapped__()`` builds a fresh one."""
    parser = _ArgumentParser(
        prog="quivercert",
        description=(
            "Exact certificates for the 3-Kronecker (2,3) quiver moduli space: "
            "Harder-Narasimhan strata, Teleman vanishing, Chow ring arithmetic, "
            "and exceptional-collection verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, default, required, flag_help in flags:
            p.add_argument(flag, default=default, required=required, help=flag_help)
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")
        p.set_defaults(func=func)
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """The arguments of ``argv``: read from the table if it is valid, else
    parsed by argparse."""
    args = _read_by_table(argv)
    if args is None:
        args = build_parser().parse_args(argv)
        # argparse drops the value of "--opt=--" and stores []; no option
        # takes a list, so the value is the text "--", as the table reads it
        for name, value in vars(args).items():
            if value == []:
                setattr(args, name, "--")
    return args


def main(argv=None) -> int:
    args = None
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        doc, code = args.func(args)
        _print(doc, args.pretty)
    except (ValueError, KeyError) as exc:
        message = str(exc)
        if "integer string conversion" in message:
            # Python's own message advises raising the limit from inside Python
            message = (f"an integer exceeds the {sys.get_int_max_str_digits()}-digit limit"
                       " for reading and printing integers")
        _print({"error": message}, getattr(args, "pretty", False))
        return 2
    return code


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: nothing more can be said there, and the
        # flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
