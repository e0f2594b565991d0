"""Runs known-fault CLI requests in a process of their own, with a time limit.

Reads one JSON request per line on stdin: {"argv": [...], "limit_s": x}.
Answers one JSON line per request on stdout:
{"code": int|null, "stdout": str, "timeout": bool, "exception": str|null}.
Exits when stdin closes.  Kept apart from the measuring process so that
a request that hangs or grows memory cannot move its latency or peak
memory figures.
"""

import contextlib
import io
import json
import signal
import sys
from pathlib import Path


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from quivercert import cli

    signal.signal(signal.SIGALRM, _alarm)
    out = sys.stdout
    out.write("ready\n")
    out.flush()
    for line in sys.stdin:
        request = json.loads(line)
        answer = {"code": None, "stdout": "", "timeout": False, "exception": None}
        buf = io.StringIO()
        try:
            signal.setitimer(signal.ITIMER_REAL, request["limit_s"])
            with contextlib.redirect_stdout(buf):
                answer["code"] = cli.main(request["argv"])
        except Timeout:
            answer["timeout"] = True
        except SystemExit as exc:  # argparse rejects its input this way
            answer["code"] = exc.code
        except Exception as exc:  # the fault under test may raise anything
            answer["exception"] = type(exc).__name__
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        answer["stdout"] = buf.getvalue()
        out.write(json.dumps(answer) + "\n")
        out.flush()


if __name__ == "__main__":
    main()
