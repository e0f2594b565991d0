"""One pass of a workload in a fresh interpreter, started by run.py.

    python3 bench/one_pass.py --workload W --seed N --rounds R
        [--skip-fixed] [--check] [--trace] [--setup-only] [--cpu C]

Prints "ready" as soon as quivercert is imported and the workload's
set-up is done, so that the parent can time set-up from a fresh
interpreter.  Then runs the fixed part (unless --skip-fixed) and R
rounds, timing a fixed calibration loop before each operation.  Prints
one JSON line: the time of every operation, the host's slowdown against
the reference host (from the calibration loop), the peak resident memory
and, with --check, the verdict of the output checks and the known-fault
probes; with --trace, the per-module spans and counters.  With
--setup-only it prints the slowdown alone.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PROBE_WAIT_S = 30.0
PROBE_MEMORY_BYTES = 1 << 30
#: Time of calibration_loop_s() on the reference host in a quiet spell.
REFERENCE_LOOP_S = 3.0e-4


def calibration_loop_s() -> float:
    """Time one run of a fixed pure-Python loop.  Its integers are not
    tracked by the garbage collector, so the program's heap cannot slow it."""
    start = time.perf_counter()
    x = 0
    for i in range(4000):
        x += i * i % 7
    return time.perf_counter() - start


def prepare(workload: str) -> None:
    """Import quivercert and, except for hn_ladder, build the stratum
    table of Y and its Todd class.  hn_ladder prepares nothing beyond the
    import, so that no ladder step can be served from a set-up cache."""
    import quivercert  # noqa: F401

    if workload != "hn_ladder":
        from quivercert import chow, strata

        strata.unstable_strata(strata.Moduli.kronecker23())
        chow.todd_y()


def slowdown(loop_times) -> float:
    """How much slower than the reference host this pass's host ran."""
    return statistics.median(loop_times) / REFERENCE_LOOP_S


class ProbeWorker:
    """A child interpreter that runs known-fault requests under a time and
    memory limit, so they cannot move this process's figures."""

    def __init__(self):
        self.proc = None

    def start(self):
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (PROBE_MEMORY_BYTES, PROBE_MEMORY_BYTES))

        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "probe_worker.py")], cwd=ROOT, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, preexec_fn=limit_memory)
        if self._readline() != "ready":
            raise RuntimeError("probe worker failed to start")

    def _readline(self):
        ready, _, _ = select.select([self.proc.stdout], [], [], PROBE_WAIT_S)
        return self.proc.stdout.readline().strip() if ready else None

    def run(self, argv, limit_s) -> dict:
        if self.proc is None:
            self.start()
        self.proc.stdin.write(json.dumps({"argv": argv, "limit_s": limit_s}) + "\n")
        self.proc.stdin.flush()
        line = self._readline()
        if not line:
            self.close()
            return {"code": None, "stdout": "", "timeout": True, "exception": None}
        return json.loads(line)

    def close(self):
        if self.proc is None:
            return
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


def check_outputs(done):
    """Judge every output; returns (failed, correct, problems).  A probe
    that fails the way its known fault does counts as failed but keeps
    the run correct."""
    failed, correct, problems = 0, True, []
    for op, output, error in done:
        if op.argv is not None:
            if output.get("timeout"):
                problem = "timed out"
            elif output.get("exception"):
                problem = f"raised {output['exception']}"
            else:
                problem = op.check((output["code"], output["stdout"]))
            unexpected = problem and not op.known_fault(output)
        else:
            problem = f"raised {error}" if error else op.check(output)
            unexpected = bool(problem)
        if problem:
            failed += 1
            if unexpected:
                correct = False
                problems.append(f"{op.label}: {problem}")
    return failed, correct, problems


def run_pass(workload_name, seed, rounds, skip_fixed, check, trace) -> dict:
    import workloads

    workload = workloads.WORKLOADS[workload_name]()
    fixed_rng = random.Random(f"{workload_name}:fixed")
    rng = random.Random(f"{workload_name}:{seed}")
    probes = workload.probes() if check and hasattr(workload, "probes") else []
    worker = ProbeWorker() if probes else None
    done = []  # (op, output, exception name)
    fixed_times, round_times, loop_times = [], [], []
    probe_s, done_rounds, tracer = 0.0, 0, None
    batch = [] if skip_fixed else workload.fixed(fixed_rng)
    times = fixed_times
    try:
        if worker:
            worker.start()
        if trace:
            from tracing import Tracer

            tracer = Tracer(workloads)
            tracer.install()
        start = time.perf_counter()
        while True:
            for op in batch:
                loop_times.append(calibration_loop_s())
                t0 = time.perf_counter()
                try:
                    output, error = op.run(), None
                except Exception as exc:  # an unexpected fault fails the op
                    output, error = None, type(exc).__name__
                times.append(time.perf_counter() - t0)
                if check:
                    done.append((op, output, error))
            t0 = time.perf_counter()
            for op in probes:
                done.append((op, worker.run(op.argv, workloads.PROBE_LIMIT_S), None))
            probe_s += time.perf_counter() - t0
            if times is round_times:
                done_rounds += 1
            if done_rounds == rounds:
                break
            batch, times = workload.round(rng), round_times
        wall_s = time.perf_counter() - start - probe_s
    finally:
        if tracer:
            tracer.uninstall()
        if worker:
            worker.close()
    out = {
        "fixed": fixed_times,
        "ops": round_times,
        "slowdown": slowdown(loop_times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.metrics(wall_s) if tracer else None,
    }
    if check:
        failed, correct, problems = check_outputs(done)
        out.update(attempted=len(done), failed=failed, correct=correct, problems=problems[:20])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="one pass of a quivercert workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--skip-fixed", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cpu", type=int, help="run on this processor only")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    prepare(args.workload)
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"slowdown": slowdown([calibration_loop_s() for _ in range(25)])}))
        return 0
    result = run_pass(args.workload, args.seed, args.rounds, args.skip_fixed, args.check,
                      args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
