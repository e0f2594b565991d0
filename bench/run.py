"""quivercert benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload collections --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ./src.  A run
is several identical passes, each in a fresh interpreter started after the
previous one ended (bench/one_pass.py).  Each pass runs the fixed part and
the same whole rounds; their number follows from --seconds, so that at
this commit the passes together take about that long, and two commits
given the same --seconds do the same work.  The first pass checks every
output.  Every time is scaled to the speed of a reference host, measured
by a fixed calibration loop timed before each operation, and an
operation's time is the fastest of its scaled timings over the passes:
together these filter out the host's slow spells.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the per-module ones, from as many more
passes with spans installed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Passes per run, how many of them run the fixed part, and rounds per pass
#: per second of --seconds.  The ladder shares no cache entry with the
#: random quivers, so hn_ladder skips it in some passes without changing
#: what its rounds do.
PLAN = {"collections": (4, 4, 1 / 5), "hn_ladder": (5, 3, 1 / 2), "requests": (5, 5, 1 / 4)}


def run_pass(workload: str, *flags: str):
    """Start one pass; returns (set-up seconds, the pass's JSON line)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "one_pass.py"), "--workload", workload, *flags],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    with proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    if proc.returncode or ready.strip() != "ready":
        raise RuntimeError(f"{workload} pass {flags} failed with exit code {proc.returncode}")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool = False):
    """The passes of one run; the first one checks its outputs.  A fresh
    interpreter that only sets up runs before each pass and after the last,
    so that the set-up samples spread over the whole run.  Passes take the
    processors in turn: the host slows each one at different times."""
    passes, fixed_passes, rate = PLAN[workload]
    with_fixed = {round(i * passes / fixed_passes) for i in range(fixed_passes)}
    rounds = max(1, round(seconds * rate))
    cpus = sorted(os.sched_getaffinity(0))
    setups, results = [], []

    def setup_only(index):
        setup_s, result = run_pass(workload, "--setup-only", "--cpu", str(cpus[index % len(cpus)]))
        setups.append(setup_s / result["slowdown"])

    for index in range(passes):
        setup_only(index)
        cpu = ["--cpu", str(cpus[index % len(cpus)])]
        flags = ["--seed", str(seed), "--rounds", str(rounds), *cpu]
        if index == 0 and not trace:
            flags.append("--check")
        if index not in with_fixed:
            flags.append("--skip-fixed")
        if trace:
            flags.append("--trace")
        setup_s, result = run_pass(workload, *flags)
        setups.append(setup_s / result["slowdown"])
        results.append(result)
    setup_only(passes)
    return setups, results


def fastest(passes, key):
    """Each operation's fastest time over the passes that ran it, each time
    scaled to the reference host's speed."""
    ran = [p for p in passes if p[key]]
    return [min(t / p["slowdown"] for t, p in zip(times, ran))
            for times in zip(*(p[key] for p in ran))]


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def verdict(first_pass: dict) -> dict:
    for problem in first_pass["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    return {key: first_pass[key] for key in ("correct", "attempted", "failed")}


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setups, passes = run_passes(workload, seed, seconds)
    ops, fixed = fastest(passes, "ops"), fastest(passes, "fixed")
    result = verdict(passes[0])
    result["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, value, unit in (
            ("setup_s", statistics.median(setups), "s"),
            ("ops_per_s", len(ops) / sum(ops), "op/s"),
            ("op_p50_s", statistics.median(ops), "s"),
            ("op_p90_s", percentile(ops, 90), "s"),
            ("fixed_s", sum(fixed), "s"),
            ("peak_rss_mib", max(p["peak_rss_mib"] for p in passes), "MiB"),
        )
    }
    return result


def per_layer(workload: str, seed: int, seconds: float) -> dict:
    _, plain = run_passes(workload, seed, seconds)
    _, traced = run_passes(workload, seed, seconds, trace=True)
    # report one whole traced pass, so that its self times add up to its wall
    # time: of those that ran the fixed part, the one of median wall time
    full = sorted((p for p in traced if p["fixed"]), key=lambda p: p["trace"]["trace.wall_s"][0])
    metrics = dict(full[len(full) // 2]["trace"])
    fastest_plain = sum(fastest(plain, "fixed")) + sum(fastest(plain, "ops"))
    fastest_traced = sum(fastest(traced, "fixed")) + sum(fastest(traced, "ops"))
    metrics["trace.overhead_pct"] = (100 * (fastest_traced / fastest_plain - 1), "%")
    result = verdict(plain[0])
    result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLAN))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "quivercert" / "__init__.py").is_file():
        print(f"quivercert sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 1
    run = per_layer if args.trace else end_to_end
    print(json.dumps(run(args.workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
