import argparse
import ast
import contextlib
import inspect
import io
import json
import math
import random
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import check_hn
from oracles import (clear_package_caches, cli_by_calls, cli_by_fractions, hostile_two_node_expr,
                     parse_by_argparse, parse_chow_poly_by_scanner, random_matrix_text)
from test_quiver import quiver_dim_theta
from quivercert import cli, quiver, repgeom, strata
from quivercert.bundles import MAX_DEPTH, MAX_RANK, MAX_TERMS, MAX_WORK_TERMS, parse_expr
from quivercert.cli import MAX_FILE_BYTES, _ArgumentParser, build_parser, main
from quivercert.quiver import MAX_ARROWS, MAX_SUBVECTORS, MAX_VERTICES
from quivercert.verify import MAX_OBJECTS

TESTS = Path(__file__).parent
TRANSCRIPT = json.loads((TESTS / "cli_transcript.json").read_text(encoding="utf-8"))

#: sym2 of an 8-fold product of sum(O(0),O(2^k)): 256 weights on a stratum,
#: so the sym2 combines 65,536 weight pairs, MAX_TERMS
SYM2_AT_THE_TERM_LIMIT = ("sym2(tensor(" + ",".join(f"sum(O(0),O({2 ** k}))" for k in range(8))
                          + "))")


#: What the CLI prints for an integer it cannot read or print.
DIGIT_LIMIT_STDOUT = ('{"error":"an integer exceeds the 4300-digit limit'
                      ' for reading and printing integers"}\n')


def balanced_sum(expr: str, copies: int) -> str:
    """A balanced tree of sum(...) over ``copies`` (a power of 2) copies."""
    items = [expr] * copies
    while len(items) > 1:
        items = [f"sum({a},{b})" for a, b in zip(items[::2], items[1::2])]
    return items[0]


def main_output(argv) -> tuple[int, str]:
    """Exit code and stdout of ``main(argv)``, without a fixture."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def subparsers(parser) -> dict:
    """Each command's parser in ``parser``, by name."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


class TestHnTypes:
    def test_default_setup(self, capsys):
        code, doc = run_cli(
            capsys, "hn-types", "--quiver", "kronecker:3", "--dim", "2,3",
            "--theta", "3,-2",
        )
        assert code == 0
        assert len(doc["types"]) == 8
        unstable = [t for t in doc["types"] if not t["semistable_stratum"]]
        assert len(unstable) == 7
        assert all(t["eta"] is not None for t in unstable)
        wall = next(t for t in doc["types"] if t["parts"] == [[1, 1], [1, 2]])
        assert wall["eta"] == 15

    def test_theta_mismatch_is_input_error(self, capsys):
        code, doc = run_cli(capsys, "hn-types", "--theta", "1,-1")
        assert code == 2
        assert "error" in doc

    def test_zero_dimension_vector_is_input_error(self, capsys):
        code, doc = run_cli(capsys, "hn-types", "--dim", "0,0", "--theta", "0,0")
        assert code == 2
        assert "nonzero" in doc["error"]

    def test_incomplete_quiver_json_names_the_key(self, capsys):
        code, doc = run_cli(capsys, "hn-types", "--quiver", '{"vertices":2}')
        assert code == 2
        assert "quiver" in doc["error"] and "'arrows'" in doc["error"]

    @pytest.mark.parametrize("quiver,message", [
        ('{"vertices":2,"arrows":[[0,1.5]]}', "integer vertex count"),
        ("[" * 100000, "nested too deeply"),
    ], ids=["fractional-arrow-end", "deep-nesting"])
    def test_malformed_quiver_json_is_input_error(self, capsys, quiver, message):
        code, doc = run_cli(capsys, "hn-types", "--quiver", quiver, "--dim", "1,1",
                            "--theta", "1,-1")
        assert code == 2
        assert message in doc["error"]

    @pytest.mark.parametrize("command", [["hn-types"], ["teleman", "--expr", "U1"]])
    @pytest.mark.parametrize("quiver", ["foo", "kronecker:x", "kronecker:", "", "{", "kronecker3",
                                        "kronecker:0_3", "kronecker:3_", "kronecker:_3"])
    def test_unreadable_quiver_names_the_flag_and_its_forms(self, capsys, command, quiver):
        code, doc = run_cli(capsys, *command, "--quiver", quiver)
        assert code == 2
        assert doc["error"] == QUIVER_FORMS_ERROR

    def test_overlong_arrow_count_names_the_digit_limit(self, capsys):
        code = main(["hn-types", "--quiver", "kronecker:" + "9" * 5000])
        assert (code, capsys.readouterr().out) == (2, DIGIT_LIMIT_STDOUT)

    @pytest.mark.parametrize("argv", [
        ["hn-types", "--dim", "2,a"], ["hn-types", "--theta", "3,x"], ["hn-types", "--dim", "2,,3"],
        ["teleman", "--expr", "U1", "--twist", "1,x"], ["teleman", "--expr", "U1", "--dim", "2,²"],
        # int() reads "1_0" as 10
        ["hn-types", "--dim", "1_0,1", "--theta", "1,-10"], ["hn-types", "--theta", "3,-2_0"],
        ["teleman", "--expr", "U1", "--twist", "1_,1"], ["teleman", "--expr", "U1", "--dim", "_2,3"],
    ], ids=" ".join)
    def test_unreadable_vector_names_the_flag(self, capsys, argv):
        flag = next(a for a in argv if a in ("--dim", "--theta", "--twist"))
        code, doc = run_cli(capsys, *argv)
        assert code == 2
        assert doc["error"] == f"{flag} must be integers separated by commas, e.g. 2,3"

    @pytest.mark.parametrize("flag", ["--dim", "--theta"])
    def test_overlong_vector_entry_names_the_digit_limit(self, capsys, flag):
        code = main(["hn-types", flag, "2," + "9" * 5000])
        assert (code, capsys.readouterr().out) == (2, DIGIT_LIMIT_STDOUT)

    @settings(max_examples=150, deadline=None)
    @given(case=quiver_dim_theta(balanced=True) | quiver_dim_theta(), pretty=st.booleans())
    def test_equals_the_per_call_rows(self, case, pretty):
        # unbalanced theta and the gate's refusals are compared as well
        q, d, theta = case
        argv = ["hn-types", "--quiver", json.dumps(q.to_json_dict()), "--dim",
                ",".join(map(str, d)), "--theta", ",".join(map(str, theta))] + ["--pretty"] * pretty
        expected = cli_by_calls(argv)
        for cached in (cli._moduli_setup, quiver._lattice):
            cached.cache_clear()
        cold = main_output(argv)
        assert cold == expected
        assert main_output(argv) == expected

    @pytest.mark.parametrize("argv", [
        ["hn-types"], ["hn-types", "--dim", "3,5", "--theta", "5,-3"],
        ["hn-types", "--quiver", '{"vertices":3,"arrows":[[0,1],[0,1],[1,2],[0,2]]}',
         "--dim", "1,2,1", "--theta", "3,-1,-1"],
    ], ids=" ".join)
    def test_pretty_is_the_compact_document_indented(self, argv):
        code, compact = main_output(argv)
        assert code == 0
        assert main_output(argv + ["--pretty"]) == (
            0, json.dumps(json.loads(compact), sort_keys=True, indent=2) + "\n")


class TestChi:
    def test_golden(self, capsys):
        code, doc = run_cli(capsys, "chi", "--expr", "tensor(dual(U2),dual(U2))")
        assert code == 0
        assert doc["chi"] == 39

    @pytest.mark.parametrize("expr,error", [
        ("nope(U1)", "unknown identifier 'nope' (at position 0)"),
        ("tensor(U1)", "tensor takes at least two arguments (at position 0)"),
        ("sum(U1)", "sum takes at least two arguments (at position 0)"),
        ("twist(U1)", "twist takes an expression and an integer (at position 0)"),
        ("twist(U1,1,U2)", "twist takes an expression and an integer (at position 0)"),
    ])
    def test_bad_expression(self, capsys, expr, error):
        assert main(["chi", "--expr", expr]) == 2
        assert capsys.readouterr().out == json.dumps({"error": error}, separators=(",", ":")) + "\n"


class TestCh:
    def test_coordinates(self, capsys):
        code, doc = run_cli(capsys, "ch", "--expr", "U2")
        assert code == 0
        assert doc["ch"]["[Y]"] == 3
        assert doc["ch"]["c1*d2"] == "-2/3"


class TestChowEval:
    def test_top_power(self, capsys):
        code, doc = run_cli(capsys, "chow-eval", "--expr", "c1^6")
        assert code == 0
        assert doc["integral"] == 57
        assert doc["coordinates"]["c3^2"] == 57

    def test_huge_nilpotent_power(self, capsys):
        code, doc = run_cli(capsys, "chow-eval", "--expr", "c1^100000000")
        assert code == 0
        assert doc["integral"] == 0
        assert all(v == 0 for v in doc["coordinates"].values())

    def test_unprintable_result_is_input_error(self, capsys):
        # 2^20000 has more digits than int-to-str conversion allows
        code, doc = run_cli(capsys, "chow-eval", "--expr", "2^20000")
        assert code == 2
        assert "4300-digit limit" in doc["error"]
        assert "set_int_max_str_digits" not in doc["error"]

    def test_unprintable_power_is_refused_before_multiplying(self, capsys):
        # 2^9999999999 would be squared until memory runs out
        start = time.perf_counter()
        code, doc = run_cli(capsys, "chow-eval", "--expr", "2^9999999999")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert "4300-digit limit" in doc["error"]

    def test_unprintable_product_is_refused_before_multiplying_again(self, capsys):
        # each of 1000 factors would multiply an ever larger coordinate
        start = time.perf_counter()
        code = main(["chow-eval", "--expr", "*".join(["2^14000"] * 1000)])
        assert time.perf_counter() - start < 1
        assert (code, capsys.readouterr().out) == (2, DIGIT_LIMIT_STDOUT)

    def test_power_of_a_unit_base_with_300_digits_answers(self, capsys):
        # the top part of (1 + c1)^N is C(N, 6) c1^6, and c1^6 is 57 points;
        # the recursive route ran out of stack, one level per bit of N
        n = int("9" * 300)
        start = time.perf_counter()
        code, doc = run_cli(capsys, "chow-eval", "--expr", f"(1+c1)^{n}")
        assert time.perf_counter() - start < 1
        assert code == 0
        assert doc["integral"] == 57 * math.comb(n, 6)

    def test_power_of_a_unit_base_with_4000_digits_is_input_error(self, capsys):
        # the degree-0 coordinate stays 1, but C(N, 6) has about 24,000 digits
        start = time.perf_counter()
        code = main(["chow-eval", "--expr", "(1+c1)^" + "9" * 4000])
        assert time.perf_counter() - start < 1
        assert (code, capsys.readouterr().out) == (2, DIGIT_LIMIT_STDOUT)

    @pytest.mark.parametrize("text,code", [
        ("2^14000*c1", 0), ("(2^14000)*c1^3", 0), ("3^4000*3^4000*c2", 0),
        ("1^" + "9" * 400 + "*c1^6", 0),
        ("2^7000*2^7400", 2), ("2^7000*c1*2^7400*c1", 2), ("3^9100*c1^6", 2),
        ("9" * 4299 + "*c1^6", 2),
    ])
    def test_digit_limit_edges_of_integer_factors(self, capsys, monkeypatch, text, code):
        # integer factors are scalings: they meet the digit limit where the
        # ring products of the character-stepping parser meet it, and print
        # the same document
        assert main(["chow-eval", "--expr", text]) == code
        out = capsys.readouterr().out
        if code == 2:
            assert out == DIGIT_LIMIT_STDOUT
        monkeypatch.setattr(cli, "parse_chow_poly", parse_chow_poly_by_scanner)
        assert (main(["chow-eval", "--expr", text]), capsys.readouterr().out) == (code, out)

    def test_d1_alias(self, capsys):
        _, doc = run_cli(capsys, "chow-eval", "--expr", "d1^3")
        assert doc["coordinates"]["c1*d2"] == 4
        assert doc["coordinates"]["c3"] == -3


class TestTeleman:
    def test_pass_exit_zero(self, capsys):
        code, doc = run_cli(capsys, "teleman", "--expr", "sl(U1)")
        assert code == 0
        assert doc["pass"] is True

    def test_fail_exit_one(self, capsys):
        code, doc = run_cli(capsys, "teleman", "--expr", "O(-3)")
        assert code == 1
        assert doc["pass"] is False
        wall = next(s for s in doc["strata"] if s["hn_type"] == [[1, 1], [1, 2]])
        assert wall["margin"] == 0

    @pytest.mark.parametrize("expr", ["sl(sl(U1))", "sl(wedge2(U1))"])
    def test_sl_of_a_zero_bundle_is_refused_off_y(self, capsys, expr):
        # with dimension vector (1, 2), U1 has rank 1, so sl(U1) and
        # wedge2(U1) are zero and sl of them would be the virtual class -O
        code, doc = run_cli(capsys, "teleman", "--quiver", "kronecker:3", "--dim", "1,2",
                            "--theta", "2,-1", "--twist=-1,0", "--expr", expr)
        assert code == 2
        assert doc == {"error": "sl needs an argument of rank at least 1"}

    def test_sl_with_no_unstable_strata_passes(self, capsys):
        # at theta = 0 everything is semistable: no strata, nothing to refuse
        code, doc = run_cli(capsys, "teleman", "--theta", "0,0", "--expr", "sl(U1)")
        assert code == 0
        assert doc["strata"] == []
        assert doc["pass"] is True


class TestStability:
    def test_open_orbit(self, capsys):
        code, doc = run_cli(capsys, "stability", "--matrix", "x,y,0;0,y,z")
        assert code == 0
        assert doc["stable"] is True
        assert doc["minors"] == ["yz", "xz", "xy"]
        assert doc["abelian_plane"] is True

    def test_unstable(self, capsys):
        code, doc = run_cli(capsys, "stability", "--matrix", "x,0,0;0,y,0")
        assert code == 0
        assert doc["stable"] is False
        assert doc["abelian_plane"] is None

    def test_bad_matrix(self, capsys):
        code, doc = run_cli(capsys, "stability", "--matrix", "x,y;0,z")
        assert code == 2


class TestSyzygies:
    def test_open_orbit(self, capsys):
        code, doc = run_cli(capsys, "syzygies", "--matrix", "x,y,0;0,y,z")
        assert code == 0
        assert doc["kernel_ok"] is True
        assert doc["commute"] is True
        assert "warning" not in doc

    def test_unstable_warns(self, capsys):
        code, doc = run_cli(capsys, "syzygies", "--matrix", "x,0,0;0,y,0")
        assert code == 0
        assert "degenerate" in doc["warning"]

    def test_warning_is_decided_by_is_stable(self, capsys, monkeypatch):
        monkeypatch.setattr(repgeom, "is_stable", lambda r: False)
        code, doc = run_cli(capsys, "syzygies", "--matrix", "x,y,0;0,y,z")
        assert code == 0 and "degenerate" in doc["warning"]

    def test_kernel_check_failure_is_input_error(self, capsys, monkeypatch):
        # kernel_ok is read from the check inside syzygies, which raises
        monkeypatch.setattr(repgeom, "tensor_to_cubic", lambda t: (1,))
        code, doc = run_cli(capsys, "syzygies", "--matrix", "x,y,0;0,y,z")
        assert code == 2
        assert "outside the span" in doc["error"]


class TestMatrixInput:
    @pytest.mark.parametrize("command", ["stability", "syzygies"])
    @pytest.mark.parametrize("text", ["1/0x,y,z;x,y,z", "0/0,y,z;x,y,z", "x,y,z;x,y,1/00"])
    def test_zero_denominator_is_input_error(self, capsys, command, text):
        code, doc = run_cli(capsys, command, "--matrix", text)
        assert code == 2
        assert doc["error"].startswith("zero denominator in linear form")

    @pytest.mark.parametrize("command", ["stability", "syzygies"])
    def test_distinct_huge_denominators_are_refused_in_time(self, capsys, command):
        # 18 distinct 1400-digit denominators: each row clears to about 12,600 digits
        rng = random.Random(1400)
        dens = []
        while len(dens) < 18:
            q = rng.randrange(10 ** 1399, 10 ** 1400)
            if q not in dens:
                dens.append(q)
        entries = ["+".join(f"{rng.choice((1, -2, 3))}/{q}{v}"
                            for q, v in zip(dens[i:i + 3], "xyz")) for i in range(0, 18, 3)]
        start = time.perf_counter()
        code = main([command, "--matrix", ",".join(entries[:3]) + ";" + ",".join(entries[3:])])
        assert time.perf_counter() - start < 3
        assert (code, capsys.readouterr().out) == (2, DIGIT_LIMIT_STDOUT)

    @pytest.mark.parametrize("command", ["stability", "syzygies"])
    def test_one_huge_denominator_prints_what_the_fraction_route_prints(self, capsys, command):
        q = random.Random(4000).randrange(10 ** 3999, 10 ** 4000)
        argv = [command, "--matrix", f"1/{q}x+y,y-z,2x;z,x+y,-y"]
        code = main(argv)
        out = capsys.readouterr().out
        assert (code, out) == cli_by_fractions(argv)
        assert code == 0 and str(q) in out

    @pytest.mark.parametrize("command", ["stability", "syzygies"])
    def test_prints_what_the_fraction_route_prints(self, capsys, command):
        # integer and rational matrices, malformed numerals, spaces inside
        # numbers and Unicode digits: the same exit code and stdout bytes
        rng = random.Random(f"{command}:1880")
        codes = Counter()
        for _ in range(400):
            argv = [command, "--matrix=" + random_matrix_text(rng)]
            code = main(argv)
            assert (code, capsys.readouterr().out) == cli_by_fractions(argv), argv
            codes[code] += 1
        assert codes[0] > 100 and codes[2] > 100


#: Requests on integer and rational input whose handlers build no Fraction.
FRACTION_FREE_REQUESTS = (
    ["stability", "--matrix", "x,y,0;0,y,z"],
    ["stability", "--matrix", "x,0,0;0,y,0"],
    ["stability", "--matrix", "1/2x+3y,-5/7z,0;2/9y,x,1/11z+1/12x"],
    ["syzygies", "--matrix", "x,y,z;2y,3z,5x"],
    ["syzygies", "--matrix", "x,0,0;0,y,0"],
    ["syzygies", "--matrix", "1/2x+3y,-5/7z,0;2/9y,x,1/11z+1/12x"],
    ["ch", "--expr", "U2"],
    ["ch", "--expr", "sym2(tensor(dual(U1),U2))"],
    ["chow-eval", "--expr", "c1^6"],
    ["chow-eval", "--expr", "c1^6 + 2c2*d2*c1^2 - (c1+c3)^2"],
    ["chow-eval", "--expr", "(2 + d1)^3*c2 - c1*c2^2"],
    ["chi", "--expr", "sym2(tensor(dual(U1),U2))"],
    ["verify-collection"],
    ["ledger-check"],
)

#: One request of each of the nine subcommands.
EVERY_SUBCOMMAND = (
    ["hn-types", "--dim", "3,5", "--theta", "5,-3"],
    ["teleman", "--expr", "sym2(O(-2))"],
    ["chi", "--expr", "tensor(dual(U1),U2)"],
    ["ch", "--expr", "wedge2(U2)"],
    ["chow-eval", "--expr", "(c1+d2)^3*c3"],
    ["stability", "--matrix", "1/2x+3y,-5/7z,0;2/9y,x,1/11z+1/12x"],
    ["syzygies", "--matrix", "x,y,z;2y,3z,5x"],
    ["verify-collection"],
    ["ledger-check"],
)


def test_no_fraction_on_the_request_path(capsys, monkeypatch):
    expected = [(main(argv), capsys.readouterr().out) for argv in FRACTION_FREE_REQUESTS]
    # every command renders some rational output, besides the echo of its input
    rational = {argv[0] for argv, (_, out) in zip(FRACTION_FREE_REQUESTS, expected)
                if "/" in str({k: v for k, v in json.loads(out).items()
                               if k not in ("expr", "matrix")})}
    assert rational == {"stability", "syzygies", "ch", "chow-eval"}

    def refuse(*args, **kwargs):
        raise AssertionError("Fraction built on the request path")

    # from cold caches, so that the Chern characters, the Todd class, the chi
    # form and rows and everything else are evaluated again under the patch
    clear_package_caches()
    monkeypatch.setattr(Fraction, "__new__", refuse)
    for argv, want in zip(FRACTION_FREE_REQUESTS, expected):
        assert (main(argv), capsys.readouterr().out) == want, argv


#: Modules that no subcommand needs: fractions (the integer routes build no
#: Fraction) and the dataclasses import tree (every record is a named tuple).
UNUSED_MODULES = ("fractions", "dataclasses", "inspect", "ast", "dis", "tokenize")


def test_no_subcommand_imports_fractions():
    # a child interpreter, so that no test module has imported these yet (the
    # tests themselves import fractions and, through oracles, dataclasses);
    # cli imports every module of the package, so the guard covers them all
    script = (
        "import contextlib, io, json, sys\n"
        "from quivercert.cli import main\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "print(json.dumps([codes, [m for m in sys.argv[2:] if m in sys.modules],\n"
        "                  sorted(m for m in sys.modules if m.startswith('quivercert'))]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(EVERY_SUBCOMMAND),
                           *UNUSED_MODULES], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    codes, imported, package = json.loads(proc.stdout)
    assert [argv[0] for argv in EVERY_SUBCOMMAND] == list(cli.COMMANDS)
    assert codes == [0, 1, 0, 0, 0, 0, 0, 0, 0]
    assert {"quivercert.repgeom", "quivercert.strata", "quivercert.verify"} <= set(package)
    assert imported == []


def test_strata_and_verify_import_no_dataclasses():
    # a child interpreter, so that no test module has imported dataclasses yet;
    # importing the modules alone, without running a subcommand through cli
    script = ("import sys\nimport quivercert.strata, quivercert.verify\n"
              "print('dataclasses' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_chow_imports_no_quiver_code():
    # a child interpreter, so that no test module has imported the package yet
    script = ("import sys\nimport quivercert.chow\n"
              "print(sorted({'quivercert.quiver', 'quivercert.strata'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


PACKAGE = TESTS.parent / "src" / "quivercert"

#: The benchmark files that run the program.  The string tables of
#: bench/tracing.py do not count: the tracer skips the names it misses.
BENCH_CALLERS = tuple(TESTS.parent / "bench" / name
                      for name in ("workloads.py", "one_pass.py", "probe_worker.py"))


def package_reads(tree: ast.Module, modules) -> set:
    """``(module, name)`` for each name of a package module that ``tree``
    reads: imported from that module and read, or read as its attribute."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.rpartition(".")[2]
            if module in modules:
                imported.update({alias.asname or alias.name: (module, alias.name)
                                 for alias in node.names})
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in imported:
            reads.add(imported[node.id])
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            reads.add((node.value.id, node.attr))
    return reads


def public_definitions(tree: ast.Module):
    """``(name, statement)`` for each public name a module defines at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def public_members(cls: ast.ClassDef):
    """The public methods, properties and declared fields of a class: its
    functions, its annotated fields and the fields of a namedtuple base."""
    names = [node.name for node in cls.body if isinstance(node, ast.FunctionDef)]
    names += [node.target.id for node in cls.body
              if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
    for base in cls.bases:
        if isinstance(base, ast.Call) and getattr(base.func, "id", None) == "namedtuple":
            names += base.args[1].value.replace(",", " ").split()
    return [name for name in names if not name.startswith("_")]


def test_every_public_name_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    callers = list(trees.values()) + [ast.parse(p.read_text(encoding="utf-8"))
                                      for p in BENCH_CALLERS]
    reads = set()
    for tree in callers:
        reads |= package_reads(tree, trees)
    # bench/workloads.py builds expressions by getattr(bundles, op) over the
    # operator names of the expression trees of bench/oracle.py
    workloads = ast.parse(BENCH_CALLERS[0].read_text(encoding="utf-8"))
    assert any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
               and getattr(node.args[0], "id", None) == "bundles" for node in ast.walk(workloads))
    oracle = ast.parse((TESTS.parent / "bench" / "oracle.py").read_text(encoding="utf-8"))
    operators = [op for node in oracle.body if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) in ("UNARY", "BINARY")
                 for op in ast.literal_eval(node.value)]
    assert "sym2" in operators
    reads |= {("bundles", op) for op in operators}
    uncalled = []
    for module, tree in trees.items():
        for name, statement in public_definitions(tree):
            # a name read by its own module outside its own definition has a caller
            own = {n.id for s in tree.body if s is not statement for n in ast.walk(s)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            if (module, name) not in reads and name not in own and name != "__version__":
                uncalled.append(f"{module}.{name}")
    # a member of a public class has a caller when some module reads an
    # attribute of that name; private classes such as _ArgumentParser, whose
    # error() argparse calls, are not checked
    attributes = {node.attr for tree in callers for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    for tree in trees.values():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                uncalled += [f"{cls.name}.{name}" for name in public_members(cls)
                             if name not in attributes]
    assert uncalled == []


def test_records_build_themselves_in_new():
    """A validated record checks and normalizes its arguments in __new__ and
    builds its tuple once: no class defines __post_init__, and no code
    overwrites a field with object.__setattr__, declares a dataclasses.field
    or imports typing."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                found += [f"{path.stem}.{node.name}.__post_init__" for item in node.body
                          if getattr(item, "name", None) == "__post_init__"]
            elif isinstance(node, ast.Attribute) and (getattr(node.value, "id", None), node.attr) in (
                    ("object", "__setattr__"), ("dataclasses", "field")):
                found.append(f"{path.stem}: {node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module in ("dataclasses", "typing"):
                found += [f"{path.stem}: from {node.module} import {alias.name}" for alias in node.names
                          if node.module == "typing" or alias.name == "field"]
            elif isinstance(node, ast.Import):
                found += [f"{path.stem}: import typing" for alias in node.names
                          if alias.name == "typing"]
    assert found == []


class TestVerifyCollection:
    def test_builtin_accepts(self, capsys):
        code, doc = run_cli(capsys, "verify-collection")
        assert code == 0
        assert doc["accepted"] is True

    def test_from_file(self, capsys, tmp_path):
        payload = {"objects": [{"label": "O", "expr": "O(0)"},
                               {"label": "O(1)", "expr": "O(1)"}]}
        path = tmp_path / "collection.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, doc = run_cli(capsys, "verify-collection", "--file", str(path))
        assert code == 0
        assert doc["summary"]["size"] == 2

    def test_failing_collection_exits_one(self, capsys, tmp_path):
        # O and O(3): the backward direction has chi(O(-3)) = 1 != 0
        payload = {"objects": [{"label": "O", "expr": "O(0)"},
                               {"label": "O(3)", "expr": "O(3)"}]}
        path = tmp_path / "collection.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, doc = run_cli(capsys, "verify-collection", "--file", str(path))
        assert code == 1
        assert doc["accepted"] is False

    @pytest.mark.parametrize("body", [
        "[]",
        '{"objects":"ab"}',
        '{"objects":[1]}',
        '{"objects":[{"expr":5}]}',
        '{"objects":[{"expr":"U1","label":7}]}',
        '{"expr":"U1"}',
        "[" * 100000,
    ], ids=lambda body: body[:40])
    def test_malformed_file_is_input_error(self, capsys, tmp_path, body):
        path = tmp_path / "collection.json"
        path.write_text(body, encoding="utf-8")
        code, doc = run_cli(capsys, "verify-collection", "--file", str(path))
        assert code == 2
        assert "collection" in doc["error"]

    def test_unreadable_file_is_input_error(self, capsys, tmp_path):
        code, doc = run_cli(capsys, "verify-collection", "--file", str(tmp_path / "missing.json"))
        assert code == 2
        assert "No such file" in doc["error"]

    @pytest.mark.parametrize("argv", [["--file", ""], ["--file="]], ids=["space", "equals"])
    def test_empty_file_name_is_input_error(self, capsys, argv):
        # an empty path names no file: it is refused, not read as "no --file"
        code, doc = run_cli(capsys, "verify-collection", *argv)
        assert code == 2
        assert doc == {"error": "[Errno 2] No such file or directory: ''"}

    @pytest.mark.parametrize("argv", [
        ["verify-collection", "--dim", "1,2", "--theta", "2,-1"],
        ["verify-collection", "--twist=4,-3"],
        ["verify-collection", "--quiver", '{"vertices":3,"arrows":[[0,1],[1,2]]}', "--dim",
         "1,1,1", "--theta", "1,0,-1", "--twist=-1,0,0"],
        ["verify-collection", "--theta=0,0"],
        ["verify-collection", "--quiver", "kronecker:4"],
    ], ids=["dim-1,2", "twist-4,-3", "three-vertices", "theta-0,0", "kronecker-4"])
    def test_moduli_flags_refused(self, capsys, argv):
        # chi comes from the Chow ring of Y, so collections are certified on
        # Y only, and no flag describes another space
        code, doc = run_cli(capsys, *argv)
        assert code == 2
        assert doc["error"].startswith("unrecognized arguments")


class TestLedgerCheck:
    def test_passes(self, capsys):
        code, doc = run_cli(capsys, "ledger-check")
        assert code == 0
        assert doc["pass"] is True


class TestModuleInvocation:
    def test_python_dash_m(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "quivercert", "chi", "--expr", "dual(U2)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["chi"] == 6

    def test_closed_stdout_ends_quietly(self):
        import subprocess
        import sys

        proc = subprocess.Popen(
            [sys.executable, "-m", "quivercert", "hn-types", "--quiver", "kronecker:2000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        try:
            stderr = proc.communicate(timeout=30)[1]
        finally:
            proc.kill()
        assert (proc.returncode, stderr) == (141, b"")


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        main(["ch", "--expr", "tensor(U1,U2)"])
        first = capsys.readouterr().out
        main(["ch", "--expr", "tensor(U1,U2)"])
        second = capsys.readouterr().out
        assert first == second

    def test_pretty_flag(self, capsys):
        code, _ = run_cli(capsys, "chi", "--expr", "O(0)", "--pretty")
        assert code == 0


class TestSharedParser:
    """``main`` parses with one parser per process, from the cached
    ``build_parser``; ``build_parser.__wrapped__`` builds a fresh one."""

    def test_calls_in_one_process_print_what_they_print_alone(self, capsys):
        argvs = [
            ["chi", "--expr"],
            ["chi", "--expr", "O(1)", "--pretty"],
            ["teleman", "--expr", "U1", "--theta", "6,-4"],
            ["teleman", "--expr", "U1"],
        ]
        together = []
        for argv in argvs:
            main(argv)
            together.append(capsys.readouterr().out)
        alone = [subprocess.run([sys.executable, "-m", "quivercert", *argv],
                                capture_output=True, text=True).stdout for argv in argvs]
        assert together == alone

    def test_parses_the_transcript_as_a_fresh_parser(self):
        for record in TRANSCRIPT:
            shared = vars(build_parser().parse_args(record["argv"]))
            fresh = vars(build_parser.__wrapped__().parse_args(record["argv"]))
            assert shared.pop("func") is fresh.pop("func")
            assert shared == fresh

    def test_help_twice(self, capsys):
        outputs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                main(["--help"])
            assert exit_info.value.code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "verify-collection" in outputs[0]

    def test_table_reads_what_argparse_parses(self):
        read = 0
        for record in TRANSCRIPT:
            table = cli._read_by_table(record["argv"])
            if table is not None:
                read += 1
                parsed = vars(build_parser.__wrapped__().parse_args(record["argv"]))
                del parsed["command"]
                assert vars(table) == parsed, record["argv"]
        assert read == len(TRANSCRIPT) == 21

    def test_built_on_the_first_call_only(self, capsys, monkeypatch):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import contextlib, io\n"
             "from quivercert.cli import build_parser, main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    main(['chi', '--expr', 'U1'])\n"
             "print(build_parser.cache_info().currsize)"],
            capture_output=True, text=True)
        assert proc.stdout == "0\n", proc.stderr
        built = []
        init = _ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(_ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        for argv in (["chi", "--expr", "U1"], ["hn-types"], ["teleman", "--expr=U1", "--pretty"],
                     ["stability", "--matrix=-x,y,0;0,y,z"], ["chow-eval", "--expr=-3*c3^3"],
                     ["chi", "--expr=--"], ["chi", "--expr="]):
            main(argv)
        assert built == []
        main(["chi"])
        assert len(built) == 10  # the parser and its nine subcommands
        with pytest.raises(SystemExit):
            main(["chi", "-h"])
        main(["nope"])
        assert len(built) == 10
        capsys.readouterr()


#: Usage errors and help, which the command table leaves to argparse.
USAGE_ARGVS = [
    [],
    ["nope"],
    ["chi-x", "--expr", "U1"],
    ["chi"],
    ["chi", "--expr"],
    ["chi", "--expr", "U1", "--expr", "U2"],
    ["chi", "--ex", "U1"],
    ["teleman", "--t", "1,-1", "--expr", "U1"],
    ["chi", "--expr", "U1", "--bogus", "1"],
    ["chi", "--expr", "U1", "extra"],
    ["chi", "--", "--expr", "U1"],
    ["chi", "--expr", "--", "--"],
    ["chi", "--expr=U1", "--pretty=yes"],
    ["--pretty", "chi", "--expr", "U1"],
    ["-h"],
    ["--help"],
    ["chi", "-h"],
    ["ledger-check", "--help"],
    ["chi", "--expr", "U1", "-h"],
]


#: Flag values that the command table reads as written in the "--flag=value"
#: form and leaves to argparse in the "--flag value" form: dash-leading and
#: empty ones, "--", and values that are themselves options.
ODD_VALUES = ("-1", "-x", "-1,2", "--", "-", "", "--pretty", "-h", "--expr")
#: Flag values of every shape: samples, values that hold "=" or a space, and
#: the odd ones.
SHAPE_VALUES = ("U1", "O(1)", "x,y,0;0,y,z", "2,3", "3,-2", "1,-1", "kronecker:3",
                "tests/golden_collection.json", "=", "a=b", "U1 U2") + ODD_VALUES


@st.composite
def argv_shapes(draw):
    """An argv of any shape: a subcommand, an unknown one, an option or
    nothing first; then flags exact, abbreviated or unknown, each with a
    value of any shape, in the "--flag value" or "--flag=value" form and
    possibly repeated, bare or valued ``--pretty``, help and stray tokens;
    possibly cut short, so that required flags and values go missing.  Half
    of them hold only a subcommand, its exact flags with samples as values
    and bare ``--pretty``, the argv that the command table reads."""
    tidy = draw(st.booleans())
    first = draw(st.sampled_from(sorted(FLAGS)) if tidy else st.sampled_from(sorted(FLAGS))
                 | st.sampled_from(["nope", "chi-x", "-h", "--help", "--pretty", "--", "--expr"]))
    argv = [first]
    flags = FLAGS.get(first, MODULI_FLAGS + ("--expr",))
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("flag", "flag", "flag", "pretty", "token")))
        if kind == "pretty" or (tidy and kind == "token") or (tidy and not flags):
            argv.append("--pretty" if tidy else draw(st.sampled_from(
                ["--pretty", "--pretty", "--pretty=yes", "--pre"])))
        elif kind == "token":
            argv.append(draw(st.sampled_from(["extra", "--", "-h", "--help", "-", "-x"])))
        elif tidy:
            # now and then a value that argparse alone reads in the space form
            flag = draw(st.sampled_from(flags))
            value = draw(st.sampled_from(SAMPLES[flag]) if draw(st.integers(0, 7))
                         else st.sampled_from(ODD_VALUES))
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
        else:
            flag = draw(st.sampled_from(flags + ("--bogus",)))
            flag = draw(st.just(flag) | st.integers(2, len(flag)).map(lambda n: flag[:n]))
            value = draw(st.sampled_from(SHAPE_VALUES) | FREE_TEXT)
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv[:draw(st.integers(0, len(argv)))] if draw(st.booleans()) else argv


class TestOnePassDispatch:
    """``main`` reads a valid argv from the command table and parses any
    other by argparse; it must print and exit as argparse alone does."""

    @staticmethod
    def outcome(argv) -> tuple:
        """Exit code, stdout and the SystemExit code of ``main(argv)``."""
        out = io.StringIO()
        code = exit_code = None
        with contextlib.redirect_stdout(out):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                exit_code = exc.code
        return code, out.getvalue(), exit_code

    @pytest.mark.parametrize("argv", [record["argv"] for record in TRANSCRIPT] + USAGE_ARGVS,
                             ids=lambda argv: " ".join(argv)[:60])
    def test_equals_the_full_parser(self, monkeypatch, argv):
        monkeypatch.chdir(TESTS.parent)
        one_pass = self.outcome(argv)
        monkeypatch.setattr(cli, "_parse_args", parse_by_argparse)
        assert self.outcome(argv) == one_pass

    @settings(max_examples=300, deadline=None)
    @given(st.deferred(lambda: argv_shapes()))
    @example(["chi", "--expr", "U1", "--expr", "-1"])
    @example(["chi", "--expr", "-x"])
    @example(["chi", "--expr=-x"])
    @example(["hn-types", "--dim", "-1,2"])
    @example(["chi", "--expr", "--pretty"])
    @example(["chi", "--expr", ""])
    @example(["chi", "--expr="])
    @example(["chi", "--expr"])
    @example(["teleman", "--expr", "U1", "--dim", ""])
    @example(["hn-types", "--dim=2,3", "--dim", "2,3", "--pretty", "--pretty"])
    def test_argv_shapes_equal_the_full_parser(self, argv):
        with pytest.MonkeyPatch.context() as patch:
            patch.chdir(TESTS.parent)
            table = self.outcome(argv)
            patch.setattr(cli, "_parse_args", parse_by_argparse)
            assert self.outcome(argv) == table

    def test_parses_declined_argv_with_the_full_parser_alone(self, capsys, monkeypatch):
        # a valid argv is read from the table; any other is parsed once by
        # the shared full parser, and by no subparser directly
        parser = build_parser()
        parsed = []

        def stub(name):
            def parse_args(argv):
                parsed.append((name, argv))
                return argparse.Namespace(func=lambda args: ({}, 0), pretty=False)
            return parse_args

        for name, sub in subparsers(parser).items():
            monkeypatch.setattr(sub, "parse_args", stub(name))
        monkeypatch.setattr(parser, "parse_args", stub("full"))
        declined = [["chi", "--ex", "U1"], ["ledger-check", "-h"], ["chi", "--expr", "-x"],
                    ["stability", "--matrix"], ["nope"], ["--pretty", "chi"], []]
        for argv in [["chi", "--expr", "U1"], ["ledger-check"], ["chow-eval", "--expr=-3*c3^3"],
                     *declined]:
            assert main(argv) == 0
        capsys.readouterr()
        assert parsed == [("full", argv) for argv in declined]


#: The error of an unreadable --quiver: the flag and its two forms.
QUIVER_FORMS_ERROR = ("--quiver must be 'kronecker:m' or JSON"
                      ' {"vertices":n,"arrows":[[i,j],..]}')

#: The error of "--flag=--" for each subcommand's flags: the value is the
#: text "--".
DASH_DASH_ERRORS = {
    ("hn-types", "--quiver"): QUIVER_FORMS_ERROR,
    ("hn-types", "--dim"): "--dim must be integers separated by commas, e.g. 2,3",
    ("hn-types", "--theta"): "--theta must be integers separated by commas, e.g. 2,3",
    ("teleman", "--quiver"): QUIVER_FORMS_ERROR,
    ("teleman", "--dim"): "--dim must be integers separated by commas, e.g. 2,3",
    ("teleman", "--theta"): "--theta must be integers separated by commas, e.g. 2,3",
    ("teleman", "--twist"): "--twist must be integers separated by commas, e.g. 2,3",
    ("teleman", "--expr"): "expected identifier (at position 0)",
    ("chi", "--expr"): "expected identifier (at position 0)",
    ("ch", "--expr"): "expected identifier (at position 0)",
    ("chow-eval", "--expr"): "expected class, number, or '(' (at position 2)",
    ("stability", "--matrix"): "expected two rows separated by ';'",
    ("syzygies", "--matrix"): "expected two rows separated by ';'",
    ("verify-collection", "--file"): "[Errno 2] No such file or directory: '--'",
}


class TestDashDashValue:
    def test_every_flag_has_a_row(self):
        assert set(DASH_DASH_ERRORS) == {(c, f) for c, flags in FLAGS.items() for f in flags}

    @pytest.mark.parametrize("command,flag", DASH_DASH_ERRORS, ids=" ".join)
    def test_is_read_as_text(self, capsys, monkeypatch, tmp_path, command, flag):
        monkeypatch.chdir(tmp_path)  # no file named "--"
        argv = [command, f"{flag}=--"]
        if command == "teleman" and flag != "--expr":
            argv += ["--expr", "U1"]
        assert main(argv) == 2
        error = json.dumps({"error": DASH_DASH_ERRORS[command, flag]}, separators=(",", ":"))
        assert capsys.readouterr().out == error + "\n"

    @pytest.mark.parametrize("command,flag", DASH_DASH_ERRORS, ids=" ".join)
    def test_abbreviated_flag_prints_what_the_full_flag_prints(self, monkeypatch, tmp_path,
                                                               command, flag):
        # the table reader takes only exact flags, so "--ex=--" reaches
        # argparse, which stores [] for the value "--"
        monkeypatch.chdir(tmp_path)
        rest = ["--expr", "U1"] if command == "teleman" and flag != "--expr" else []
        assert cli._read_by_table([command, f"{flag[:-1]}=--", *rest]) is None
        full = main_output([command, f"{flag}=--", *rest])
        assert main_output([command, f"{flag[:-1]}=--", *rest]) == full
        assert full == (2, json.dumps({"error": DASH_DASH_ERRORS[command, flag]},
                                      separators=(",", ":")) + "\n")

    def test_names_a_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "--").write_text('{"objects":[{"expr":"U1"}]}', encoding="utf-8")
        code, doc = run_cli(capsys, "verify-collection", "--file=--")
        assert (code, doc["labels"]) == (0, ["U1"])


#: Refused moduli setups, each with its error: the setup of ``hn-types`` and
#: ``teleman`` is read from one cache per flag texts, which keeps no refusal.
REFUSED_SETUPS = [
    pytest.param(["hn-types", "--quiver", "foo"], QUIVER_FORMS_ERROR, id="hn-types-quiver"),
    pytest.param(["hn-types", "--quiver", "kronecker:0"], "arrow count must be positive",
                 id="hn-types-no-arrows"),
    pytest.param(["hn-types", "--quiver", '{"vertices":0,"arrows":[]}'],
                 "vertex_count must be positive", id="hn-types-no-vertices"),
    pytest.param(["teleman", "--quiver", "kronecker:x", "--expr", "U1"], QUIVER_FORMS_ERROR,
                 id="teleman-quiver"),
    pytest.param(["hn-types", "--theta=1,-1"], "theta . d must be zero", id="hn-types-theta"),
    pytest.param(["hn-types", "--dim=9,9"], f"subvector count above {MAX_SUBVECTORS}",
                 id="hn-types-subvectors"),
    pytest.param(["teleman", "--theta=1,-1", "--expr", "U1"], "theta . d must be 0",
                 id="teleman-theta"),
    pytest.param(["teleman", "--twist=1,1", "--expr", "U1"], "twist . d must be -1 for descent",
                 id="teleman-twist"),
    pytest.param(["hn-types", "--dim", "2," + "9" * 5000], None, id="hn-types-digits"),
    pytest.param(["teleman", "--twist", "1," + "9" * 5000, "--expr", "U1"], None,
                 id="teleman-digits"),
]


def vector_text(v) -> str:
    return ",".join(map(str, v))


def teleman_by_fresh_moduli(spec: str, d, theta, twist, expr: str) -> tuple[int, dict]:
    """Exit code and document of ``teleman`` on a ``Moduli`` built from
    ``spec`` and the integer vectors ``d``, ``theta`` and ``twist``, every
    cache of the package empty."""
    clear_package_caches()
    try:
        moduli = strata.Moduli(quiver.Quiver.from_spec(spec, "--quiver"), d, theta, twist)
        e = parse_expr(expr)
        rows = strata.teleman_certify(e, moduli)
    except ValueError as exc:
        return 2, {"error": str(exc)}
    passed = all(row.passed for row in rows)
    return 0 if passed else 1, {
        "expression": str(e), "pass": passed,
        "strata": [{"hn_type": [list(part) for part in row.hn_type], "eta": row.eta,
                    "max_weight": row.max_weight, "margin": row.margin, "pass": row.passed}
                   for row in rows]}


@st.composite
def teleman_setups(draw):
    """A two-vertex moduli setup as ``teleman`` reads it: a quiver with 1 to
    4 arrows 0 -> 1 in either spec form, d with coprime entries, theta a
    multiple of (d2, -d1) or, rarely, off balance, and two or three distinct
    twists, mostly with twist . d = -1, and an expression."""
    m = draw(st.integers(1, 4))
    spec = draw(st.sampled_from([f"kronecker:{m}",
                                 json.dumps({"vertices": 2, "arrows": [[0, 1]] * m})]))
    d = draw(st.tuples(st.integers(1, 4), st.integers(1, 5)).filter(lambda d: math.gcd(*d) == 1))
    k, off = draw(st.integers(-2, 2)), draw(st.sampled_from((0,) * 9 + (1,)))
    theta = (k * d[1] + off, -k * d[0])
    base = next((x, y) for x in range(-6, 7) for y in range(-6, 7) if x * d[0] + y * d[1] == -1)
    twist = st.builds(lambda j: (base[0] + j * d[1], base[1] - j * d[0]), st.integers(-2, 2))
    twists = draw(st.lists(twist | st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                           min_size=2, max_size=3, unique=True))
    expr = draw(st.sampled_from(["U1", "U2", "sl(U1)", "tensor(dual(U1),U2)", "O(-3)",
                                 "sym2(U2)", "twist(wedge2(U2),1)"]))
    return spec, d, theta, twists, expr


class TestModuliSetup:
    @pytest.mark.parametrize("argv,error", REFUSED_SETUPS)
    def test_refused_setup_is_refused_again(self, argv, error):
        stdout = DIGIT_LIMIT_STDOUT if error is None else json.dumps(
            {"error": error}, separators=(",", ":")) + "\n"
        assert [main_output(argv) for _ in range(2)] == [(2, stdout)] * 2

    @settings(max_examples=100, deadline=None)
    @given(case=teleman_setups())
    @example(case=("kronecker:3", (2, 3), (3, -2), [(1, -1), (-2, 1)], "U1"))
    def test_teleman_equals_a_fresh_moduli(self, case):
        # twists of one quiver, d and theta alternate in one process, twice
        spec, d, theta, twists, expr = case
        expected = [teleman_by_fresh_moduli(spec, d, theta, twist, expr) for twist in twists]
        clear_package_caches()
        for twist, want in [*zip(twists, expected)] * 2:
            code, out = main_output(["teleman", "--quiver", spec, f"--dim={vector_text(d)}",
                                     f"--theta={vector_text(theta)}",
                                     f"--twist={vector_text(twist)}", "--expr", expr])
            assert (code, json.loads(out)) == want

    def test_one_entry_per_flag_texts(self):
        clear_package_caches()
        argvs = [["hn-types"], ["teleman", "--expr", "U1"], ["teleman", "--expr", "U2"],
                 ["teleman", "--twist=-2,1", "--expr", "U1"], ["hn-types", "--dim", "2,3"]]
        for argv in argvs + argvs:
            assert main_output(argv)[0] == 0
        info = cli._moduli_setup.cache_info()
        assert (info.currsize, info.misses, info.hits) == (3, 3, 7)

    def test_hn_types_reads_its_records_once_per_flag_texts(self, monkeypatch):
        clear_package_caches()
        calls = []

        def counted(*setup):
            calls.append(setup)
            return strata.hn_records(*setup)

        monkeypatch.setattr(cli, "hn_records", counted)
        argvs = [["hn-types"], ["hn-types", "--dim", "2,3"], ["hn-types", "--dim=3,5", "--theta=5,-3"],
                 ["hn-types", "--pretty"], ["hn-types", "--theta", "3,-2"], ["hn-types", "--dim=9,9"]]
        expected = [cli_by_calls(argv) for argv in argvs]
        assert [main_output(argv) for argv in argvs + argvs[::-1]] == expected + expected[::-1]
        # one call per accepted flag texts; the gate refuses (9, 9) on each call
        kronecker3 = quiver.Quiver.kronecker(3)
        assert calls == [(kronecker3, (2, 3), (3, -2)), (kronecker3, (3, 5), (5, -3)),
                         (kronecker3, (9, 9), (3, -2)), (kronecker3, (9, 9), (3, -2))]


def _nested(depth: int) -> str:
    """dual(dual(...(U1)...)) with a tree of the given depth."""
    return "dual(" * (depth - 1) + "U1" + ")" * (depth - 1)


class TestDepthLimit:
    @pytest.mark.parametrize("argv", [
        ["chi", "--expr", _nested(3001)],
        ["chi", "--expr", "sum(" + ",".join(["U1"] * 3000) + ")"],
        ["chow-eval", "--expr", "(" * 3000 + "c1" + ")" * 3000],
        ["chi", "--expr", _nested(MAX_DEPTH + 1)],
        ["chi", "--expr", "sum(" + ",".join(["U1"] * (MAX_DEPTH + 1)) + ")"],
        ["chow-eval", "--expr", "(" * (MAX_DEPTH + 1) + "c1" + ")" * (MAX_DEPTH + 1)],
    ])
    def test_too_deep_is_input_error(self, capsys, argv):
        code, doc = run_cli(capsys, *argv)
        assert code == 2
        assert "deeper than" in doc["error"]

    @pytest.mark.parametrize("command", ["chi", "ch", "teleman"])
    @pytest.mark.parametrize("text", [
        _nested(MAX_DEPTH),
        "sum(" + ",".join(["U1"] * MAX_DEPTH) + ")",
    ])
    def test_at_the_limit_evaluates(self, capsys, command, text):
        code, doc = run_cli(capsys, command, "--expr", text)
        assert code in (0, 1)
        assert "error" not in doc

    def test_parentheses_at_the_limit(self, capsys):
        text = "(" * MAX_DEPTH + "c1" + ")" * MAX_DEPTH
        code, doc = run_cli(capsys, "chow-eval", "--expr", text)
        assert code == 0
        assert doc["coordinates"]["c1"] == 1


class TestHostileSizes:
    @pytest.mark.parametrize("argv", [
        ["chi", "--expr", "sl(" * 25 + "U1" + ")" * 25],
        ["teleman", "--expr", "sym2(" * 20 + "U2" + ")" * 20],
    ])
    def test_rank_above_the_limit_is_input_error(self, capsys, argv):
        start = time.perf_counter()
        code, doc = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert f"rank above {MAX_RANK}" in doc["error"]

    @pytest.mark.parametrize("argv,message", [
        # rank 2^40, and 2^40 distinct weights on a stratum
        (["teleman", "--expr",
          "tensor(" + ",".join(f"sum(O(0),O({2 ** k}))" for k in range(40)) + ")"],
         f"exceeds {MAX_TERMS} terms"),
        (["hn-types", "--quiver", "kronecker:100000000", "--dim", "1,1", "--theta", "1,-1"],
         f"arrow count above {MAX_ARROWS}"),
        (["hn-types", "--quiver", '{"vertices":100000000,"arrows":[]}', "--dim", "1",
          "--theta", "0"],
         f"vertex count above {MAX_VERTICES}"),
        # 128 products at MAX_TERMS on each stratum
        (["teleman", "--expr", balanced_sum(SYM2_AT_THE_TERM_LIMIT, 128)],
         f"exceed {MAX_WORK_TERMS} terms"),
        # the count is checked before any expression is parsed
        (["verify-collection", "--file", "129-objects.json"],
         f"object count above {MAX_OBJECTS}"),
        (["hn-types", "--quiver",
          json.dumps({"vertices": 2, "arrows": [[0, 1]] * (MAX_ARROWS + 1)}),
          "--dim", "1,1", "--theta", "1,-1"],
         f"arrow count above {MAX_ARROWS}"),
        # 72 subvectors on the most arrows a quiver may have
        (["hn-types", "--quiver", f"kronecker:{MAX_ARROWS}", "--dim", "7,8", "--theta", "8,-7"],
         f"subvector count above {MAX_SUBVECTORS}"),
        # 2^24 subvectors
        (["hn-types", "--quiver", '{"vertices":24,"arrows":[]}', "--dim", ",".join(["1"] * 24),
          "--theta", ",".join(["0"] * 24)],
         f"subvector count above {MAX_SUBVECTORS}"),
        # 128 distinct objects of about 928,000 terms each share one budget
        (["verify-collection", "--file", "128-heavy-objects.json"],
         f"character products exceed {MAX_WORK_TERMS} terms in one request"),
        # the second object breaks MAX_TERMS on its own, after the first has
        # spent most of the shared budget: its own refusal is reported
        (["verify-collection", "--file", "heavy-then-wide.json"],
         f"product of characters with 512 and 512 weights exceeds {MAX_TERMS} terms"),
        # two strata above MAX_TERMS at different nodes: the earlier node is reported
        (["teleman", "--expr", str(hostile_two_node_expr())],
         f"product of characters with 19 and 4096 weights exceeds {MAX_TERMS} terms"),
    ])
    def test_work_above_the_limit_is_input_error(self, capsys, tmp_path, monkeypatch, argv,
                                                 message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "129-objects.json").write_text(
            json.dumps({"objects": [{"expr": "nope"}] * (MAX_OBJECTS + 1)}), encoding="utf-8")
        heavy = f"sum({SYM2_AT_THE_TERM_LIMIT},{SYM2_AT_THE_TERM_LIMIT})"
        (tmp_path / "128-heavy-objects.json").write_text(json.dumps(
            {"objects": [{"expr": f"twist({heavy},{k})"} for k in range(MAX_OBJECTS)]}),
            encoding="utf-8")
        wide = "tensor(" + ",".join(f"sum(O(0),O({3 ** k}))" for k in range(9)) + ")"
        (tmp_path / "heavy-then-wide.json").write_text(json.dumps(
            {"objects": [{"expr": f"twist({heavy},1)"},
                         {"expr": f"sum({SYM2_AT_THE_TERM_LIMIT},tensor({wide},{wide}))"}]}),
            encoding="utf-8")
        start = time.perf_counter()
        code, doc = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert message in doc["error"]

    def test_collection_file_at_the_size_limit_is_read(self, capsys, tmp_path):
        body = json.dumps({"objects": [{"expr": "O(0)"}]}).encode()
        path = tmp_path / "at-limit.json"
        path.write_bytes(body + b" " * (MAX_FILE_BYTES - len(body)))
        code, doc = run_cli(capsys, "verify-collection", "--file", str(path))
        assert code == 0 and doc["accepted"]

    @pytest.mark.parametrize("name", [
        "above-limit.json",
        pytest.param("/dev/zero", marks=pytest.mark.skipif(not Path("/dev/zero").exists(),
                                                           reason="no /dev/zero")),
    ])
    def test_collection_file_above_the_size_limit_is_input_error(self, capsys, tmp_path, name):
        body = json.dumps({"objects": [{"expr": "O(0)"}]}).encode()
        (tmp_path / "above-limit.json").write_bytes(body + b" " * (MAX_FILE_BYTES + 1 - len(body)))
        start = time.perf_counter()
        code, doc = run_cli(capsys, "verify-collection", "--file", str(tmp_path / name))
        assert time.perf_counter() - start < 1
        assert (code, doc) == (2, {"error": f"collection file above {MAX_FILE_BYTES} bytes"})

    @pytest.mark.parametrize("expr", [
        # 65,536 pairs in the last product, about 2^17 on each stratum
        "tensor(" + ",".join(f"sum(O(0),O({2 ** k}))" for k in range(16)) + ")",
        "sym2(sym2(sym2(tensor(sl(U2),sl(U2)))))",
        SYM2_AT_THE_TERM_LIMIT,
    ], ids=["16-fold-product", "triple-sym2", "sym2-at-the-term-limit"])
    def test_work_within_the_budget_answers(self, capsys, expr):
        code, doc = run_cli(capsys, "teleman", "--expr", expr)
        assert code in (0, 1)
        assert len(doc["strata"]) == 7

    @pytest.mark.parametrize("m", [1000, MAX_ARROWS])
    def test_hn_types_past_the_deleted_counting_gate_answer(self, capsys, m):
        # 64 subvectors on m arrows: refused at 1000 arrows with "counting
        # work above 150000000" before the HN table read only the dense
        # stratum, whose work does not grow with the arrow count
        argv = ["hn-types", "--quiver", f"kronecker:{m}", "--dim", "7,7", "--theta", "1,-1"]
        start = time.perf_counter()
        code, doc = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        # every record, exactly one of codim 0 among them, by the outside checker
        assert check_hn.check_document(argv, doc, code) == "hn-types"

    def test_pair_ranks_are_not_refused(self, capsys, tmp_path):
        # each object has rank 2^40 <= MAX_RANK; the pair tensors would have
        # rank 2^80, but no pair expression is built
        big = "tensor(" + ",".join(["sum(O(0),O(0))"] * 40) + ")"
        path = tmp_path / "collection.json"
        path.write_text(json.dumps({"objects": [{"expr": big}, {"expr": f"twist({big},1)"}]}),
                        encoding="utf-8")
        start = time.perf_counter()
        code, doc = run_cli(capsys, "verify-collection", "--file", str(path))
        assert time.perf_counter() - start < 1
        assert code in (0, 1)
        assert doc["pairs"][0][0]["chi"] == 2 ** 80

    @pytest.mark.parametrize("argv", [
        ["chi"],
        ["chi", "--expr"],
        ["chi", "--expr", "U1", "--json"],
        ["hn-types", "--t", "1,-1"],
        [],
    ])
    def test_usage_error_is_json(self, capsys, argv):
        code, doc = run_cli(capsys, *argv)
        assert code == 2
        assert "error" in doc


MODULI_FLAGS = ("--quiver", "--dim", "--theta")
FLAGS = {
    "hn-types": MODULI_FLAGS,
    "teleman": MODULI_FLAGS + ("--twist", "--expr"),
    "chi": ("--expr",),
    "ch": ("--expr",),
    "chow-eval": ("--expr",),
    "stability": ("--matrix",),
    "syzygies": ("--matrix",),
    "verify-collection": ("--file",),
    "ledger-check": (),
}
SAMPLES = {
    "--quiver": ("kronecker:3", '{"vertices":3,"arrows":[[0,1],[1,2],[0,2]]}'),
    "--dim": ("2,3", "1,1,1"),
    "--theta": ("3,-2", "1,0,-1"),
    "--twist": ("1,-1",),
    "--expr": ("tensor(sym2(dual(U1)),wedge2(U2),O(-2))", "sum(sl(U2),twist(det(U1),3))",
               "c1^6 + 2c2*d2*c1^2 - (c1+c3)^2"),
    "--matrix": ("x,y,0;0,y,z", "x,2y-z,0;1/2x,0,y"),
    "--file": ("tests/golden_collection.json",),
}
VECTOR_FLAGS = ("--dim", "--theta", "--twist")
ALPHABET = "UOc0123^*+-,;()xyz/{}[]:"
FREE_TEXT = st.text(ALPHABET, max_size=12)
#: a matrix entry: free text without the row and entry separators
ENTRY_TEXT = st.text(ALPHABET.replace(",", "").replace(";", ""), max_size=6)
#: a matrix entry of rational coefficients p/q, zero denominators included
RATIONAL_ENTRY = st.lists(st.builds("{}/{}{}".format, st.integers(-9, 9), st.integers(0, 12),
                                    st.sampled_from("xyz")), min_size=1, max_size=3).map("+".join)


@st.composite
def fuzzed_argv(draw):
    """A subcommand with some of its flags, each value a sample, a prefix
    of a sample or random text; then possibly cut short."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(FLAGS[command] + ("--pretty",)), max_size=4)):
        if flag == "--pretty":
            argv.append(flag)
            continue
        samples = st.sampled_from(SAMPLES[flag])
        # "--" as a value: argparse drops it from "--flag=--"
        choices = [samples, samples.flatmap(lambda v: st.integers(0, len(v)).map(lambda n: v[:n])),
                   st.just("--")]
        if flag in VECTOR_FLAGS:
            # entries stay small: large dimension vectors are slow by nature
            choices.append(st.lists(st.integers(-6, 6), max_size=4).map(
                lambda xs: ",".join(map(str, xs))))
        elif flag == "--matrix":
            # two rows of three entries, so that parse_matrix reaches its entry
            # parser, and rational ones, so that rows are cleared of denominators
            for entry in (ENTRY_TEXT, RATIONAL_ENTRY):
                choices.append(st.lists(st.lists(entry, min_size=3, max_size=3).map(",".join),
                                        min_size=2, max_size=2).map(";".join))
        else:
            choices.append(FREE_TEXT)
        argv.append(f"{flag}={draw(st.one_of(choices))}")
    return argv[:draw(st.integers(1, len(argv)))] if draw(st.booleans()) else argv


#: Bundle expressions for collection files.
OBJECTS = SAMPLES["--expr"][:2] + ("U1", "O(-3)", "sl(U2)")
#: Any JSON document, its objects often with the keys of a collection file.
json_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(OBJECTS),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(("objects", "expr", "label")) | st.text(max_size=4), inner, max_size=4),
    max_leaves=12)
#: Collection files: a list of up to five objects, each with a sample or
#: random text as expression and any label.
collection_documents = st.fixed_dictionaries({"objects": st.lists(st.fixed_dictionaries(
    {"expr": st.sampled_from(OBJECTS) | st.text("UOdualsym2(),-1", max_size=12)},
    optional={"label": json_documents}), max_size=5)})


def assert_one_json_document(argv) -> int:
    """Exit 0, 1 or 2 within 10 s, with one JSON document on stdout;
    returns the exit code."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert time.perf_counter() - start < 10
    assert code in (0, 1, 2)
    text = out.getvalue()
    assert text.endswith("\n")
    json.loads(text)
    return code


class TestFuzz:
    def test_flags_are_the_parser_options(self):
        # a flag added to or removed from the CLI must reach the fuzzer
        commands = subparsers(build_parser.__wrapped__())
        assert set(commands) == set(FLAGS)
        for command, sub in commands.items():
            options = {s for action in sub._actions for s in action.option_strings}
            assert options - {"-h", "--help", "--pretty"} == set(FLAGS[command]), command

    def test_every_flag_is_read_by_its_handler(self):
        # an option that the handler never reads is accepted and ignored
        for command, sub in subparsers(build_parser.__wrapped__()).items():
            tree = ast.parse(inspect.getsource(sub.get_default("func")))
            read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name) and node.value.id == "args"}
            dests = {a.dest for a in sub._actions if a.option_strings} - {"help", "pretty"}
            assert dests <= read, command

    @settings(max_examples=100, deadline=None)
    @given(fuzzed_argv())
    @example(["chi", "--expr", "sl(" * 25 + "U1" + ")" * 25])
    @example(["teleman", "--expr", "sym2(" * 20 + "U2" + ")" * 20])
    @example(["chow-eval", "--expr", "2^20000"])
    @example(["chow-eval", "--expr", "2^9999999999"])
    @example(["chow-eval", "--expr", "(1+c1)^" + "9" * 300])
    @example(["chow-eval", "--expr", "(1+c1)^" + "9" * 4000])
    @example(["chow-eval", "--expr", "2^14000*c1"])
    @example(["chow-eval", "--expr", "(2^14000)*c1^3"])
    @example(["chow-eval", "--expr", "3^4000*3^4000*c2"])
    @example(["chow-eval", "--expr", "1^" + "9" * 400 + "*c1^6"])
    @example(["chow-eval", "--expr", "2^7000*2^7400"])
    @example(["chow-eval", "--expr", "2^7000*c1*2^7400*c1"])
    @example(["chow-eval", "--expr", "3^9100*c1^6"])
    @example(["chow-eval", "--expr", "9" * 4299 + "*c1^6"])
    @example(["syzygies", "--matrix", "1/2x+3/0y,y,z;x,y,z"])
    @example(["stability", "--matrix", "1/2x+1/3y,-5/7z,0/1x;2/9y,x,1/11z+1/12x"])
    @example(["hn-types", "--quiver=--"])
    @example(["hn-types", "--dim=--"])
    @example(["hn-types", "--theta=--"])
    @example(["teleman", "--twist=--", "--expr=U1"])
    @example(["teleman", "--expr=--"])
    @example(["chow-eval", "--expr=--"])
    @example(["stability", "--matrix=--"])
    @example(["syzygies", "--matrix=--"])
    @example(["verify-collection", "--file=--"])
    def test_every_outcome_is_one_json_document(self, argv):
        code = assert_one_json_document(argv)
        if argv[0] in ("stability", "syzygies"):
            assert code in (0, 2)

    @settings(max_examples=100, deadline=None)
    @given(json_documents | collection_documents)
    @example([])
    @example({"objects": "ab"})
    @example({"objects": [1]})
    @example({"objects": [{"expr": 5}]})
    def test_every_collection_file_gives_one_json_document(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "collection.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            assert_one_json_document(["verify-collection", "--file", str(path)])


class TestGoldenTranscript:
    """Exit codes and stdout recorded from the routes that later changes
    replaced (the per-operator recursions, the dense Chow product table and
    the sl3 dictionary solve); they must stay byte-identical."""

    @pytest.mark.parametrize(
        "record", TRANSCRIPT, ids=lambda record: " ".join(record["argv"])[:60],
    )
    def test_byte_identical(self, capsys, monkeypatch, record):
        monkeypatch.chdir(TESTS.parent)
        code = main(record["argv"])
        assert (code, capsys.readouterr().out) == (record["code"], record["stdout"])
