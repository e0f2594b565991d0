"""The edges of the input limits, each run in a child process of its own.

``EDGES`` holds, for a limit, the argv just inside it (the slowest input
found there) and the argv just outside it.  Each child runs
``python -m quivercert`` under ``resource.setrlimit`` on its CPU time and its
address space, set in the child alone, and only one child runs at a time.
It must exit with the row's code, 0, 1 or 2, print exactly one JSON document
and nothing on stderr (so no traceback), and use less CPU time than the
row's ceiling.  A row that fails is a fault to mend, not a ceiling to raise.
"""

import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from quivercert.bundles import MAX_DEPTH, MAX_RANK
from quivercert.quiver import MAX_ARROWS, MAX_SUBVECTORS
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


#: Collection files that rows read, written to the child's directory.
FILES = {"128-objects.json": _objects(MAX_OBJECTS), "129-objects.json": _objects(MAX_OBJECTS + 1)}

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
    # 64 subvectors on the most arrows a quiver may have (399 types), then 72
    # subvectors, then one arrow too many
    ("kronecker-10000-7-7", ["hn-types", "--quiver", f"kronecker:{MAX_ARROWS}", "--dim", "7,7",
                             "--theta", "7,-7"], 0, '"types":', 1.5),
    ("kronecker-10000-7-8", ["hn-types", "--quiver", f"kronecker:{MAX_ARROWS}", "--dim", "7,8",
                             "--theta", "8,-7"], 2, f"subvector count above {MAX_SUBVECTORS}",
     1.0),
    ("kronecker-10001-7-7", ["hn-types", "--quiver", f"kronecker:{MAX_ARROWS + 1}", "--dim",
                             "7,7", "--theta", "7,-7"], 2, f"arrow count above {MAX_ARROWS}", 1.0),
    ("stability-4300-digits", ["stability", "--matrix", "9" * 4300 + "x,y,0;0,y,z"], 0,
     '"stable":true', 1.0),
    ("stability-4301-digits", ["stability", "--matrix", "9" * 4301 + "x,y,0;0,y,z"], 2,
     DIGIT_LIMIT, 1.0),
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
    for name, body in FILES.items():
        (tmp_path / name).write_text(body, encoding="utf-8")
    got, stdout, stderr, cpu = run_limited(argv, tmp_path)
    assert (got, stderr) == (code, ""), stderr[-2000:]
    json.loads(stdout)  # exactly one document: extra data raises
    assert stdout.endswith("}\n") and text in stdout
    assert cpu < ceiling, f"{cpu:.2f} s of CPU, ceiling {ceiling} s"
