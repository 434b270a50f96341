"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
pass/fail lines and timings.  Exact criteria demand literal zero residuals;
numeric criteria run at the tolerances pinned in the verification suites.
Every report must also match the digest that the benchmark recorded for
the same run (perfbench/expected/verify-default.json): byte for byte for
exact reports, and by each case's name, status and tolerance_used for the
numeric transforms battery.
"""

import hashlib
import json
import time
from pathlib import Path

from dunklcalc.verify import (
    EXACT_DEFAULT_RUNS,
    PIZZETTI_DEFAULT_RUNS,
    TRANSFORM_DEFAULT_RUNS,
    adjoint_formula_suite,
    commutativity_suite,
    hermite_suite,
    hobson_suite,
    laplacian_commutator_suite,
    laplacian_routes_suite,
    mean_value_suite,
    pizzetti_suite,
    projection_suite,
    transforms_suite,
)

SEED = 11
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "verify-default.json"


def _digest(report) -> str:
    data = report.to_dict()
    if report.suite == "transforms":
        body = json.dumps(
            [[c["name"], c["status"], c.get("tolerance_used")] for c in data["cases"]]
        )
    else:
        body = json.dumps(data, indent=2)
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def _assert_golden(reports) -> None:
    """Compare each report with the recorded [suite, system, cases, digest]."""
    records = json.loads(GOLDEN.read_text())[str(SEED)]
    for suite in {r.suite for r in reports}:
        want = [rec for rec in records if rec[0] == suite]
        got = [
            [r.suite, r.system, len(r.cases), _digest(r)]
            for r in reports if r.suite == suite
        ]
        assert got == want, suite


def _announce(number: int, title: str, reports, elapsed: float) -> None:
    ok = all(r.passed for r in reports)
    cases = sum(len(r.cases) for r in reports)
    print(
        f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {title} "
        f"({len(reports)} runs, {cases} cases, {elapsed:.1f}s)"
    )
    for report in reports:
        for case in report.cases:
            if case.status == "fail":
                print(f"        {report.system} {case.name}: {case.residual}")


def _run(suite, runs, number, title, **kwargs):
    start = time.time()
    reports = [suite(system, kappas, seed=SEED, **kwargs) for system, kappas in runs]
    _announce(number, title, reports, time.time() - start)
    assert all(r.passed for r in reports), f"criterion {number} failed"
    _assert_golden(reports)
    return reports


def test_criterion_1_hobson_identity():
    reports = _run(
        hobson_suite, EXACT_DEFAULT_RUNS, 1,
        "radial expansion residual exactly zero (all systems, 7 profiles)",
    )
    systems = {r.system for r in reports}
    assert systems == {
        "z2:d=1", "z2:d=2", "z2:d=3", "a:d=3", "b:d=2", "b:d=3", "d:d=4",
    }
    by_system: dict[str, int] = {}
    for r in reports:
        by_system[r.system] = by_system.get(r.system, 0) + len(r.cases)
    assert all(n >= 50 for n in by_system.values()), by_system
    for r in reports:
        assert all(c.residual == "0" for c in r.cases)


def test_criterion_2_operator_identities():
    start = time.time()
    reports = []
    for system, kappas in EXACT_DEFAULT_RUNS:
        reports.append(commutativity_suite(system, kappas, seed=SEED))
        reports.append(laplacian_commutator_suite(system, kappas, seed=SEED))
        reports.append(adjoint_formula_suite(system, kappas, seed=SEED))
        reports.append(laplacian_routes_suite(system, kappas, seed=SEED, count=100))
    _announce(
        2, "commutators, multiplication commutator, adjoint form, both "
        "Laplacian routes", reports, time.time() - start,
    )
    assert all(r.passed for r in reports)
    _assert_golden(reports)


def test_criterion_3_projection():
    _run(
        projection_suite, EXACT_DEFAULT_RUNS, 3,
        "projection harmonic, idempotent, Maxwell route, decomposition",
    )


def test_criterion_4_pizzetti_oracle_equivalence():
    reports = _run(
        pizzetti_suite, PIZZETTI_DEFAULT_RUNS, 4,
        "spherical mean equals Dirichlet oracle (sign-flip systems, deg <= 8)",
        degree=8,
    )
    for report in reports:
        oracle_cases = [c for c in report.cases if c.name.startswith("oracle/")]
        assert oracle_cases, "oracle comparison must run for sign-flip systems"
        assert any(c.name == "sign-convention" for c in report.cases)
        classical = [c for c in report.cases if c.name.startswith("classical/")]
        assert classical and all(c.status == "pass" for c in classical)


def test_criterion_5_hermite():
    _run(
        hermite_suite, EXACT_DEFAULT_RUNS, 5,
        "Rodrigues residual zero, Gaussian expansion zero, harmonics fixed",
    )


def test_criterion_6_transforms():
    start = time.time()
    reports = [
        transforms_suite(system, kappas, seed=SEED)
        for system, kappas in TRANSFORM_DEFAULT_RUNS
    ]
    elapsed = time.time() - start
    _announce(
        6, "spherical pairing, Bochner-Hecke, Hermite eigenfunctions, "
        "Hankel, multiplication rule, truncation stability", reports, elapsed,
    )
    assert all(r.passed for r in reports)
    assert elapsed < 30.0, f"transform battery took {elapsed:.1f}s (target < 30s)"
    _assert_golden(reports)


def test_criterion_7_mean_value():
    _run(
        mean_value_suite, EXACT_DEFAULT_RUNS, 7,
        "mean of projected harmonics equals value at origin",
    )
