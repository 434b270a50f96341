"""dunklcalc benchmark: runs one workload for a fixed time and reports its metrics.

    python3 perfbench/run.py --workload verify-default|exact-large|query-mix \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Every pass runs in a fresh single-threaded interpreter
(worker.py), one after the other, because the package keeps memo tables at
module level for the life of a process.  Passes start while the measured
time allows another one, and at least one always runs.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and reports the per-layer metrics
of the traced ones, plus the tracing overhead.  Every pass is checked
against the outputs recorded in expected/.  A human-readable summary goes
to standard output, followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See README.md for the workloads and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
# A run ends within this many seconds even if a pass hangs.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
}


def layer_unit(metric: str) -> str:
    if metric.endswith("_ratio"):
        return "ratio"
    return "count" if tracer.is_count(metric) else "s"


class PassFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, timeout: float) -> tuple[dict, float]:
    """Run one worker; returns its result and its wall time, start to exit."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed), "--mode", mode]
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{mode} pass exceeded {timeout:.0f} s") from exc
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise PassFailed(f"{mode} pass exited {proc.returncode}: {' | '.join(tail)}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - started
    return result, elapsed


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "dunklcalc", "__init__.py")):
        print(f"error: no dunklcalc package under {ROOT}/src", file=sys.stderr)
        return 2
    seed = workloads.workload_seed(args.seed)
    t0 = time.monotonic()
    deadline = t0 + args.seconds

    def remaining_limit() -> float:
        return max(5.0, RUN_LIMIT_S - (time.monotonic() - t0))

    setups = []
    for _ in range(SETUP_SAMPLES):
        try:
            result, _ = spawn(args.workload, seed, "setup", remaining_limit())
        except PassFailed as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 2
        setups.append(result["setup_s"])

    modes = ["run", "trace"] if args.trace else ["run"]
    passes: dict[str, list[dict]] = {mode: [] for mode in modes}
    durations: dict[str, list[float]] = {mode: [] for mode in modes}
    problems: list[str] = []
    crashed = 0
    turn = 0
    while True:
        mode = modes[turn % len(modes)]
        if durations[mode]:
            estimate = statistics.median(durations[mode])
            if time.monotonic() + estimate > deadline:
                break
        turn += 1
        try:
            result, elapsed = spawn(args.workload, seed, mode, remaining_limit())
        except PassFailed as exc:
            crashed += 1
            problems.append(str(exc))
            if crashed > 2:
                break
            continue
        durations[mode].append(elapsed)
        passes[mode].append(result)
        setups.append(result["setup_s"])
        problems.extend(result["problems"])

    checked = [p for mode in modes for p in passes[mode]]
    if not all(passes[mode] for mode in modes):
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    # A crashed pass counts all its cases or queries as failed.
    lost = crashed * checked[0]["attempted"]
    attempted = sum(p["attempted"] for p in checked) + lost
    failed = sum(p["failed"] for p in checked) + lost
    runs = passes["run"]
    latencies = [x for p in runs for x in p["latencies"]]

    if args.trace:
        traced = passes["trace"]
        metrics = {}
        for name in tracer.LAYER_METRICS:
            values = [p["layers"][name] for p in traced]
            if not tracer.is_count(name):
                metrics[name] = statistics.median(values)
                continue
            if len(set(values)) > 1:
                print(f"warning: {name} differs between traced passes: {values}", file=sys.stderr)
            metrics[name] = values[0]
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in runs)
        )
        units = {name: layer_unit(name) for name in tracer.LAYER_METRICS}
        units["trace.overhead_s"] = "s"
        samples = f"{len(traced)} traced and {len(runs)} untraced passes"
    else:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in runs),
            "cpu_s": statistics.median(p["cpu_s"] for p in runs),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in runs),
            "setup_s": statistics.median(setups),
            "query_p50_ms": 1e3 * statistics.median(latencies),
            "query_p95_ms": 1e3 * percentile(latencies, 95),
        }
        units = END_TO_END_UNITS
        samples = (f"{len(runs)} passes, {len(latencies)} queries, "
                   f"{len(setups)} set-ups")

    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed} (workload seed {seed}): {samples}; "
          f"failed_frac {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} of {attempted})")
    for name, value in metrics.items():
        print(f"{name:45s} {value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
