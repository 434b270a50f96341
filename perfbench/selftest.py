"""Tests of the benchmark itself (about two minutes).

    python3 -m pytest perfbench/selftest.py

The file name keeps these tests out of the package's own test run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def traced_pass(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", str(SEED), "--mode", "trace"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_pass_the_gate(workload):
    first, second = traced_pass(workload), traced_pass(workload)
    for result in (first, second):
        assert result["failed"] == 0 and not result["problems"]
        assert set(result["layers"]) == set(tracer.LAYER_METRICS)
    counts = [m for m in tracer.LAYER_METRICS if tracer.is_count(m)]
    assert {m: first["layers"][m] for m in counts} == {m: second["layers"][m] for m in counts}
    if workload == "exact-large":
        assert all(first["layers"][m] == 0 for m in counts if m.startswith("transform."))


def test_inputs_depend_only_on_the_seed():
    assert workloads.make_queries(5) == workloads.make_queries(5)
    assert workloads.make_queries(5) != workloads.make_queries(6)
    assert workloads.workload_seed(workloads.SHIPPED_SEEDS + 2) == 2


def test_generated_polynomials_parse():
    from dunklcalc.poly import parse_poly

    for argv in workloads.make_queries(0):
        poly = next(a for a in argv if a.startswith("--poly="))[len("--poly="):]
        dim = int(argv[argv.index("--system") + 1].split("=")[1])
        parse_poly(poly, dim)


def test_gate_counts_a_skipped_report_as_missing_cases():
    reports = [
        {"suite": "hobson", "system": "z2:d=2", "seed": 0, "cases": [{"name": "a"}] * 3},
        {"suite": "hobson", "system": "z2:d=2", "seed": 0, "cases": [{"name": "b"}] * 2},
    ]
    argvs = [["verify", "hobson", "--system", "z2:d=2"]] * 2
    outputs = [(0, json.dumps([r]), "") for r in reports]
    expected = workloads.record("verify-default", argvs, outputs)
    assert workloads.check("verify-default", argvs, outputs, expected) == (5, 0, [])
    skipped = [outputs[0], (2, "", "error: hobson on z2:d=2: bad input")]
    attempted, failed, problems = workloads.check("verify-default", argvs, skipped, expected)
    assert (attempted, failed) == (5, 2) and problems


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-mix", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
