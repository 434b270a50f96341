"""The CLI output bytes of the exact benchmark queries, checked in tier 1.

Loads perfbench/workloads.py by path, without installing or changing it,
and runs the hobson, decompose and project queries of the query-mix
workload at seed 0 through cli.main.  Each output must match its digest in
perfbench/expected/query-mix.json, so a change to the radial or harmonic
layer that alters a printed byte fails here, not only in the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
KINDS = ("hobson", "decompose", "project")


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind", KINDS)
def test_query_mix_outputs_match_recorded_digests(kind):
    workloads = _load_workloads()
    queries = workloads.make_queries(0)
    expected = workloads.load_expected("query-mix")["0"].split(",")
    assert len(expected) == len(queries)
    picked = [i for i, argv in enumerate(queries) if argv[0] == kind]
    assert len(picked) == 147  # every (system, degree) cell of the command
    outputs, _ = workloads.run_pass("query-mix", 0, [queries[i] for i in picked])
    mismatches = [
        " ".join(queries[i])
        for i, output in zip(picked, outputs)
        if workloads._query_record(queries[i], output) != expected[i]
    ]
    assert mismatches == []
