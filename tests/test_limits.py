"""The edges of the input limits, each run in a child process of its own.

``EDGES`` holds, for a limit, the argv just inside it (the slowest input
found there) and the argv just outside it.  Each child runs
``python -m quivercert`` under ``resource.setrlimit`` on its CPU time and its
address space, set in the child alone, and only one child runs at a time.
It must exit with the row's code, 0, 1 or 2, print exactly one JSON document
and nothing on stderr (so no traceback), and use less CPU time than the
row's ceiling.  A row that fails is a fault to mend, not a ceiling to raise.
``LIMIT_ROWS`` names the two rows of each ``MAX_*`` limit of the package, and
a limit without rows fails ``test_every_limit_has_rows_on_both_sides``.
"""

import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import package_modules
from quivercert.bundles import MAX_DEPTH, MAX_RANK, MAX_TERMS, MAX_WORK_TERMS
from quivercert.cli import MAX_FILE_BYTES
from quivercert.quiver import MAX_ARROWS, MAX_SUBVECTORS, MAX_VERTICES
from quivercert.verify import MAX_OBJECTS

SRC = Path(__file__).parent.parent / "src"

#: Each child's hard limits: CPU seconds and bytes of address space.
CPU_LIMIT_S = 5
ADDRESS_SPACE_LIMIT = 512 * 2 ** 20

#: The digit-limit refusal that the CLI prints.
DIGIT_LIMIT = "an integer exceeds the 4300-digit limit"


def _denominators(count: int, digits: int) -> list:
    """``count`` distinct random integers of ``digits`` digits."""
    rng, found = random.Random(16), set()
    while len(found) < count:
        found.add(rng.randrange(10 ** (digits - 1), 10 ** digits))
    return sorted(found)


def _nested(op: str, depth: int, leaf: str) -> str:
    """``op(op(...(leaf)...))``, a tree of the given depth."""
    return f"{op}(" * (depth - 1) + leaf + ")" * (depth - 1)


def _objects(count: int) -> str:
    """A collection file of ``count`` distinct twists of sym2(sym2(U2))."""
    return json.dumps({"objects": [{"expr": f"twist(sym2(sym2(U2)),{k})"}
                                   for k in range(-64, count - 64)]})


def _twists(count: int) -> str:
    """O(0) + ... + O(count - 1) as nested sums of at most 16 terms, within
    MAX_DEPTH: a character of ``count`` distinct weights on every stratum of
    Y, whose O(1) has a nonzero weight on each."""
    groups = [",".join(f"O({k})" for k in range(start, min(start + 16, count)))
              for start in range(0, count, 16)]
    groups = [f"sum({group})" if "," in group else group for group in groups]
    return f"sum({','.join(groups)})" if len(groups) > 1 else groups[0]


def _products(*pairs) -> str:
    """The sum of the products tensor(a, b) of the given expressions."""
    return "sum(" + ",".join(f"tensor({a},{b})" for a, b in pairs) + ")"


#: Products of 2^16 weight pairs on each of the 7 strata of Y, twice, then
#: 98 * 191 + 2 * 2 on four strata and 2 * 1 on three for tensor(U1, ..),
#: and 2 * 2 on five and 1 * 2 on two for tensor(U2, ..): exactly 2^20 pairs.
WORK_AT_LIMIT = ((_twists(256), _twists(256)),) * 2 + (
    (_twists(98), _twists(191)), ("U1", _twists(2)), ("U2", _twists(2)))


def _padded(size: int) -> str:
    """A collection file of one object, padded with spaces to ``size`` bytes."""
    body = json.dumps({"objects": [{"expr": "O(0)"}]})
    return body + " " * (size - len(body))


def _path(n: int, d, theta) -> list:
    """The ``hn-types`` arguments for the path quiver 0 -> 1 -> ... -> n-1, as
    compact JSON, with d and theta padded with zeros to n entries."""
    arrows = [[i, i + 1] for i in range(n - 1)]
    spec = json.dumps({"vertices": n, "arrows": arrows}, separators=(",", ":"))
    d, theta = (",".join(map(str, v + (0,) * (n - len(v)))) for v in (d, theta))
    return ["hn-types", "--quiver", spec, "--dim", d, "--theta", theta]


#: Collection files that rows read, written to the child's directory.
FILES = {"128-objects.json": _objects(MAX_OBJECTS), "129-objects.json": _objects(MAX_OBJECTS + 1),
         "at-size-limit.json": _padded(MAX_FILE_BYTES),
         "above-size-limit.json": _padded(MAX_FILE_BYTES + 1)}

#: ``(id, argv, exit code, text in stdout, ceiling in CPU seconds)``.  The
#: CPU time of each child, start-up included, measured without cached
#: bytecode on a 2-vCPU host, was 0.12 to 0.13 s unless a comment says more.
EDGES = [
    # 128 distinct objects, 16,384 ordered pairs (0.29 s)
    ("128-objects", ["verify-collection", "--file", "128-objects.json"], 1,
     '"accepted":false', 1.5),
    ("129-objects", ["verify-collection", "--file", "129-objects.json"], 2,
     f"object count above {MAX_OBJECTS}", 1.0),
    ("dual-depth-100", ["teleman", "--expr", _nested("dual", MAX_DEPTH, "U1")], 0,
     '"pass":true', 1.0),
    ("dual-depth-101", ["teleman", "--expr", _nested("dual", MAX_DEPTH + 1, "U1")], 2,
     f"nested deeper than {MAX_DEPTH}", 1.0),
    ("sym2-five-deep", ["chi", "--expr", _nested("sym2", 6, "U2")], 0,
     '"chi":7306185745914', 1.0),
    # rank 6.4e16, the deepest sym2 of U2 within MAX_RANK, and rank 2.1e33
    ("sym2-six-deep", ["chi", "--expr", _nested("sym2", 7, "U2")], 0,
     '"chi":218909574350594594457237', 1.0),
    ("sym2-seven-deep", ["chi", "--expr", _nested("sym2", 8, "U2")], 2,
     f"rank above {MAX_RANK}", 1.0),
    # the slowest shapes of the deleted counting gate, 149,946,368 of its
    # 1.5e8 units of estimated work on 12 arrows and 158,072,832 on 13: both
    # admitted, their work independent of the arrow count
    ("kronecker-12-31-1", ["hn-types", "--quiver", "kronecker:12", "--dim", "31,1",
                           "--theta", "1,-31"], 0, '"types":', 1.0),
    ("kronecker-13-31-1", ["hn-types", "--quiver", "kronecker:13", "--dim", "31,1",
                           "--theta", "1,-31"], 0, '"types":', 1.0),
    # 64 subvectors on the most arrows a quiver may have (399 types, 0.14 s),
    # then 72 subvectors, then one arrow too many
    ("kronecker-10000-7-7", ["hn-types", "--quiver", f"kronecker:{MAX_ARROWS}", "--dim", "7,7",
                             "--theta", "7,-7"], 0, '"types":', 1.0),
    ("kronecker-10000-7-8", ["hn-types", "--quiver", f"kronecker:{MAX_ARROWS}", "--dim", "7,8",
                             "--theta", "8,-7"], 2, f"subvector count above {MAX_SUBVECTORS}",
     1.0),
    ("kronecker-10001-7-7", ["hn-types", "--quiver", f"kronecker:{MAX_ARROWS + 1}", "--dim",
                             "7,7", "--theta", "7,-7"], 2, f"arrow count above {MAX_ARROWS}", 1.0),
    # the longest path quiver, its JSON of 117,800 bytes under the 128 KiB
    # that Linux allows one argument, d = (1,1,1,0,...) (4 types, 0.41 MB of
    # output, 0.22 s), then one vertex too many
    ("path-10000-vertices", _path(MAX_VERTICES, (1, 1, 1), (1, 0, -1)), 0, '"types":', 1.0),
    ("path-10001-vertices", _path(MAX_VERTICES + 1, (1, 1, 1), (1, 0, -1)), 2,
     f"vertex count above {MAX_VERTICES}", 1.0),
    # a collection file of exactly the largest size read, then one byte more
    ("file-at-size-limit", ["verify-collection", "--file", "at-size-limit.json"], 0,
     '"accepted":true', 1.0),
    ("file-above-size-limit", ["verify-collection", "--file", "above-size-limit.json"], 2,
     f"collection file above {MAX_FILE_BYTES} bytes", 1.0),
    ("stability-4300-digits", ["stability", "--matrix", "9" * 4300 + "x,y,0;0,y,z"], 0,
     '"stable":true', 1.0),
    ("stability-4301-digits", ["stability", "--matrix", "9" * 4301 + "x,y,0;0,y,z"], 2,
     DIGIT_LIMIT, 1.0),
    # one product of 256 by 256 weights on each stratum (0.14 s), then 257
    # by 256
    ("product-at-term-limit", ["teleman", "--expr", f"tensor({_twists(256)},{_twists(256)})"],
     0, '"pass":', 1.0),
    ("product-above-term-limit", ["teleman", "--expr",
                                  f"tensor({_twists(257)},{_twists(256)})"], 2,
     f"with 257 and 256 weights exceeds {MAX_TERMS} terms", 1.0),
    # one request whose products combine exactly 2^20 weight pairs (0.30 s),
    # then 11 more, those of tensor(U1, O(1)) (0.29 s)
    ("work-at-limit", ["teleman", "--expr", _products(*WORK_AT_LIMIT)], 0, '"pass":', 1.0),
    ("work-above-limit", ["teleman", "--expr", _products(*WORK_AT_LIMIT, ("U1", "O(1)"))], 2,
     f"exceed {MAX_WORK_TERMS} terms in one request", 1.0),
    # one entry 1/q1x+...+1/q10x with distinct 4200-digit q, so its
    # denominator, their lcm, has about 42,000 digits (0.25 s)
    ("syzygies-10-huge-denominators", ["syzygies", "--matrix", "x,y,0;0,y," + "+".join(
        f"1/{q}x" for q in _denominators(10, 4200))], 2, DIGIT_LIMIT, 1.0),
]


def _limit_child():
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT_S, CPU_LIMIT_S))
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def run_limited(argv, cwd):
    """The exit code, stdout, stderr and CPU seconds of one limited child."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-m", "quivercert", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, preexec_fn=_limit_child, timeout=60)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return proc.returncode, proc.stdout, proc.stderr, cpu


@pytest.mark.parametrize("argv,code,text,ceiling", [row[1:] for row in EDGES],
                         ids=[row[0] for row in EDGES])
def test_edge_of_a_limit(tmp_path, argv, code, text, ceiling):
    for name in FILES.keys() & set(argv):
        (tmp_path / name).write_text(FILES[name], encoding="utf-8")
    got, stdout, stderr, cpu = run_limited(argv, tmp_path)
    assert (got, stderr) == (code, ""), stderr[-2000:]
    json.loads(stdout)  # exactly one document: extra data raises
    assert stdout.endswith("}\n") and text in stdout
    assert cpu < ceiling, f"{cpu:.2f} s of CPU, ceiling {ceiling} s"


#: The rows just inside and just outside each input limit, by the name of
#: its constant.
LIMIT_ROWS = {
    "MAX_OBJECTS": ("128-objects", "129-objects"),
    "MAX_DEPTH": ("dual-depth-100", "dual-depth-101"),
    "MAX_RANK": ("sym2-six-deep", "sym2-seven-deep"),
    "MAX_SUBVECTORS": ("kronecker-10000-7-7", "kronecker-10000-7-8"),
    "MAX_ARROWS": ("kronecker-10000-7-7", "kronecker-10001-7-7"),
    "MAX_VERTICES": ("path-10000-vertices", "path-10001-vertices"),
    "MAX_FILE_BYTES": ("file-at-size-limit", "file-above-size-limit"),
    "MAX_TERMS": ("product-at-term-limit", "product-above-term-limit"),
    "MAX_WORK_TERMS": ("work-at-limit", "work-above-limit"),
}

#: The ``MAX_*`` constants without rows, each with the reason.
WITHOUT_ROWS = {
    "MAX_CACHED_SETUPS": "a cache bound, not an input limit",
    "MAX_CACHED_EXPRS": "a cache bound, not an input limit",
}


def test_every_limit_has_rows_on_both_sides():
    # a new limit fails here until it has its two rows or a reason
    limits = {name: value for module in package_modules()
              for name, value in vars(module).items() if name.startswith("MAX_")}
    assert limits.keys() == LIMIT_ROWS.keys() | WITHOUT_ROWS.keys()
    assert not LIMIT_ROWS.keys() & WITHOUT_ROWS.keys()
    rows = {row[0]: row[2:4] for row in EDGES}
    for name, (inside, outside) in LIMIT_ROWS.items():
        assert rows[inside][0] in (0, 1), name
        # refused, with a message that gives the limit
        assert rows[outside][0] == 2 and str(limits[name]) in rows[outside][1], name
