"""Record the expected outputs of every shipped seed into expected/<workload>.json.

    python3 perfbench/record.py [WORKLOAD ...]

Each seed runs in a fresh interpreter, like a benchmark pass.  Run this only
at a commit whose outputs are known good: the benchmark then holds every
later commit to the same bytes (exact outputs) and the same statuses and
tolerances (numeric outputs).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402


def record_one(workload: str, seed: int) -> object:
    inputs = workloads.make_inputs(workload, seed)
    outputs, _ = workloads.run_pass(workload, seed, inputs)
    return workloads.record(workload, inputs, outputs)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--one"]:
        print(json.dumps(record_one(argv[1], int(argv[2]))))
        return 0
    os.makedirs(workloads.EXPECTED_DIR, exist_ok=True)
    for workload in argv or workloads.WORKLOADS:
        table = {}
        for seed in range(workloads.SHIPPED_SEEDS):
            out = subprocess.run(
                [sys.executable, __file__, "--one", workload, str(seed)],
                check=True, capture_output=True, text=True,
            ).stdout
            table[str(seed)] = json.loads(out.splitlines()[-1])
            print(f"{workload} seed {seed} recorded", file=sys.stderr)
        path = os.path.join(workloads.EXPECTED_DIR, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
