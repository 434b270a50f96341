"""One pass of a workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|run|trace

``setup`` stops after importing the package and generating the inputs;
``run`` also runs the pass untraced and checks it; ``trace`` runs it with
every layer wrapped (see tracer.py) and applies the same checks.  ``ready``
in the output is the CLOCK_MONOTONIC time at which set-up finished, which the
parent compares with the time at which it started the process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args()

    import dunklcalc  # noqa: F401
    import dunklcalc.cli  # noqa: F401

    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    ready = time.monotonic()
    result = {"ready": ready}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    outputs, latencies = workloads.run_pass(args.workload, args.seed, inputs)
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()

    expected = workloads.load_expected(args.workload)[str(args.seed)]
    attempted, failed, problems = workloads.check(args.workload, inputs, outputs, expected)
    result.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=peak_rss_mb,
        latencies=latencies,
        attempted=attempted,
        failed=failed,
        problems=problems,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
