"""The three benchmark workloads: their inputs, their execution and their checks.

Each workload is built from a workload seed and runs as one pass inside a
fresh interpreter (see ``worker.py``), because the package keeps memo tables
at module level for the life of a process.  A pass returns its raw outputs;
``check`` compares them with the digests recorded in ``expected/``.

The inputs are generated here, from the seed alone, with the benchmark's own
random generator and polynomial formatter, so that a change to the package
cannot change what the benchmark asks it to do.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

WORKLOADS = ("verify-default", "exact-large", "query-mix")

# Workload seeds whose outputs are recorded in expected/.  Any --seed maps
# onto one of them, so every seed a caller may pass has recorded digests.
SHIPPED_SEEDS = 16

# Bochner-Hecke tolerance of the numeric battery (verify.HECKE_TOL); the
# transform queries of query-mix are held to it.
HECKE_TOL = 1e-8

# (suite, system, kappas, keyword arguments) of the exact-large workload.
EXACT_LARGE_RUNS = (
    ("projection", "d:d=5", ("1/2",), {"degree": 8}),
    ("laplacian-routes", "a:d=5", ("1/3",), {"degree": 8, "count": 30}),
    ("hobson", "b:d=4", ("1", "1/2"), {"degree": 8}),
    ("hermite", "d:d=4", ("1/2",), {"degree": 8}),
)

# Catalog systems of the default verify runs, plus a:d=4.
QUERY_SYSTEMS = (
    ("z2:d=1", "0"), ("z2:d=1", "1/2"), ("z2:d=1", "1"), ("z2:d=1", "3/2"),
    ("z2:d=1", "2"),
    ("z2:d=2", "0,0"), ("z2:d=2", "1,3/2"), ("z2:d=2", "1/2,1"),
    ("z2:d=2", "3/2,0"), ("z2:d=2", "1,0"), ("z2:d=2", "1/2,3/2"),
    ("z2:d=3", "1/2,0,2"), ("z2:d=3", "1,1/2,0"), ("z2:d=3", "2,3/2,1"),
    ("z2:d=4", "1/2,0,1,3/2"), ("z2:d=4", "2,1/2,0,1"),
    ("a:d=3", "1"), ("a:d=4", "1/3"), ("b:d=2", "1,2"), ("b:d=3", "3/2,1/2"),
    ("d:d=4", "1/2"),
)

# Written as exp(-1*r^2), never exp(-r^2), which the profile grammar rejects.
QUERY_PROFILES = (
    "r^2",
    "r^4 + 2*r^2",
    "r^(7/2)",
    "r^(-3)*exp(-1/2*r^2)",
    "exp(-1*r^2)",
    "r^3*exp(-1*r^2)",
)

QUERY_KINDS = (
    "apply", "laplacian-sq", "laplacian-expr", "project", "decompose",
    "hermite", "pizzetti", "hobson", "transform",
)

MAX_QUERY_DEGREE = 6


def workload_seed(seed: int) -> int:
    """The shipped seed that a command-line --seed selects."""
    return seed % SHIPPED_SEEDS


def digest(text: str, length: int = 16) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:length]


def load_expected(workload: str) -> dict:
    with open(os.path.join(EXPECTED_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _dim(system: str) -> int:
    return int(system.split("=")[1])


# -- polynomial text ---------------------------------------------------------


def _monomials(dim: int, degree: int) -> list[tuple[int, ...]]:
    if dim == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        out.extend((first,) + rest for rest in _monomials(dim - 1, degree - first))
    return out


def _homogeneous_terms(rng: random.Random, dim: int, degree: int) -> list:
    monos = _monomials(dim, degree)
    picks = rng.sample(monos, min(len(monos), rng.randint(1, 4)))
    return [(e, rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.choice((1, 1, 2, 3)))
            for e in picks]


def _poly_text(terms) -> str:
    """Text in the package's input grammar, e.g. '3/2*x1^2*x2 - x3'."""
    pieces = []
    for e, num, den in terms:
        factors = [f"x{i + 1}" if k == 1 else f"x{i + 1}^{k}" for i, k in enumerate(e) if k]
        mag = str(Fraction(abs(num), den))
        if not factors:
            body = mag
        elif mag == "1":
            body = "*".join(factors)
        else:
            body = "*".join([mag] + factors)
        pieces.append(("-" if num < 0 else "+", body))
    text = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def random_homogeneous_text(rng: random.Random, dim: int, degree: int) -> str:
    return _poly_text(_homogeneous_terms(rng, dim, degree))


def random_poly_text(rng: random.Random, dim: int, degree: int) -> str:
    """A polynomial of the given degree with up to two lower homogeneous parts."""
    lower = rng.sample(range(degree), min(degree, rng.randint(0, 2)))
    return _poly_text([t for m in [degree] + lower for t in _homogeneous_terms(rng, dim, m)])


# -- query-mix inputs --------------------------------------------------------


def _query(rng: random.Random, kind: str, system: str, kappa: str, degree: int) -> list[str]:
    """One CLI argument vector.

    Values that may start with '-' are passed as --name=value, because the
    command-line grammar reads a separate '-x1' as an option.
    """
    dim = _dim(system)
    base = ["--system", system, "--kappa", kappa]
    if kind == "apply":
        xi = [0] * dim
        while not any(xi):
            xi = [rng.randint(-3, 3) for _ in range(dim)]
        return ["apply", *base, "--xi=" + ",".join(map(str, xi)),
                "--poly=" + random_poly_text(rng, dim, degree)]
    if kind.startswith("laplacian"):
        return ["laplacian", *base, "--route", kind.split("-")[1],
                "--poly=" + random_poly_text(rng, dim, degree)]
    if kind == "pizzetti":
        return ["pizzetti", *base, "--poly=" + random_poly_text(rng, dim, degree)]
    poly = "--poly=" + random_homogeneous_text(rng, dim, degree)
    if kind == "hobson":
        return ["hobson", *base, poly, "--profile", rng.choice(QUERY_PROFILES)]
    if kind == "transform":
        y = [f"{rng.uniform(-2.5, 2.5):.2f}" for _ in range(dim)]
        return ["transform", *base, poly, "--y=" + ",".join(y)]
    return [kind, *base, poly]  # project, decompose, hermite: homogeneous input


def make_queries(seed: int) -> list[list[str]]:
    """A seeded stream of one-shot CLI argument vectors.

    The stream is stratified so that its cost hardly depends on the seed:
    every (command, system) pair appears once per degree 0..6, in a
    shuffled order, and only the polynomials themselves are random.
    """
    rng = random.Random(f"query-mix/{seed}")
    pairs = [
        (kind, system, kappa)
        for kind in QUERY_KINDS
        for system, kappa in QUERY_SYSTEMS
        if kind != "transform" or (system.startswith("z2:") and _dim(system) <= 2)
    ]
    cells = [(pair, degree) for pair in pairs for degree in range(MAX_QUERY_DEGREE + 1)]
    rng.shuffle(cells)
    return [_query(rng, *pair, degree) for pair, degree in cells]


# -- passes ------------------------------------------------------------------


def verify_commands(seed: int) -> list[list[str]]:
    """The runs of `dunklcalc verify all --json --seed <seed>`, one command each.

    Same suites, same default runs, same order and one process, so the
    reports and the shared context cache are those of `verify all`; each
    report is one query, so its latency can be measured from outside.  With
    an explicit --system, a ValueError exits 2 instead of being skipped.
    """
    from dunklcalc.verify import SUITES, default_runs

    return [
        ["verify", suite, "--system", system, "--kappa", ",".join(kappas),
         "--seed", str(seed), "--json"]
        for suite in SUITES
        for system, kappas in default_runs(suite)
    ]


def make_inputs(workload: str, seed: int):
    """Everything a pass needs, generated from the workload seed."""
    if workload == "query-mix":
        return make_queries(seed)
    if workload == "verify-default":
        return verify_commands(seed)
    return EXACT_LARGE_RUNS


def run_pass(workload: str, seed: int, inputs) -> tuple[list, list[float]]:
    """Run one pass; returns its raw outputs and the per-query latencies (s).

    A query is one CLI command on query-mix and verify-default, and one
    suite run on exact-large.
    """
    from dunklcalc import cli
    from dunklcalc.verify import SUITES

    latencies = []
    if workload != "exact-large":
        outputs = []
        for argv in inputs:
            out, err = io.StringIO(), io.StringIO()
            t = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            latencies.append(time.perf_counter() - t)
            outputs.append((code, out.getvalue(), err.getvalue()))
        return outputs, latencies
    reports = []
    for suite, system, kappas, kwargs in inputs:
        t = time.perf_counter()
        reports.append(SUITES[suite](system, kappas, seed=seed, **kwargs).to_dict())
        latencies.append(time.perf_counter() - t)
    return reports, latencies


# -- records and checks ------------------------------------------------------


def _report_record(report: dict) -> list:
    """[suite, system, case count, digest] of one report dict.

    Exact suites are hashed byte for byte; the numeric transform suite by
    each case's name, status and tolerance_used.
    """
    if report["suite"] == "transforms":
        body = json.dumps([[c["name"], c["status"], c.get("tolerance_used")]
                           for c in report["cases"]])
    else:
        body = json.dumps(report, indent=2)
    return [report["suite"], report["system"], len(report["cases"]), digest(body)]


def _transform_ok(out: str) -> bool:
    for line in out.splitlines():
        if line.startswith("hecke residual = "):
            return float(line.split("=")[1]) <= HECKE_TOL
    return False


def _query_record(argv: list[str], output: tuple[int, str, str]) -> str:
    """Digest of an exact query's canonical output; 'numeric' for transforms."""
    code, out, _ = output
    if argv[0] == "transform":
        return "numeric" if code == 0 and _transform_ok(out) else "bad"
    return digest(f"{code}\n{out}", 8)


def record(workload: str, inputs, outputs):
    """What expected/<workload>.json stores for one seed."""
    if workload == "query-mix":
        return ",".join(_query_record(q, o) for q, o in zip(inputs, outputs))
    if workload == "verify-default":
        outputs = [r for _, out, _ in outputs if out.strip() for r in json.loads(out)]
    return [_report_record(r) for r in outputs]


def check(workload: str, inputs, outputs, expected) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of one pass against its expected record.

    attempted counts cases (verify-default, exact-large) or queries
    (query-mix); failed counts failed, errored and missing ones.
    """
    problems: list[str] = []
    if workload == "query-mix":
        want = expected.split(",")
        failed = 0
        for i, (argv, output) in enumerate(zip(inputs, outputs)):
            got = _query_record(argv, output)
            if output[0] != 0 or got != want[i]:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"query {i} {' '.join(argv)}: exit {output[0]} {output[2].strip()}")
        return len(want), failed + len(want) - len(outputs), problems
    if workload == "verify-default":
        problems += [f"{' '.join(argv)}: exit {code} {err.strip()}"
                     for argv, (code, _, err) in zip(inputs, outputs) if code != 0][:5]
    try:
        got = record(workload, inputs, outputs)
    except ValueError as exc:
        problems.append(f"verify output is not JSON: {exc}")
        got = []
    attempted = sum(rec[2] for rec in expected)
    failed = 0
    # Match reports by (suite, system) and content, so a silently skipped
    # report shows as its cases missing.
    remaining: dict[tuple[str, str], list] = {}
    for rec in got:
        remaining.setdefault((rec[0], rec[1]), []).append(rec)
    for want in expected:
        queue = remaining.get((want[0], want[1]), [])
        if want in queue:
            queue.remove(want)
            continue
        failed += want[2]
        if len(problems) < 5:
            got_text = [rec[2:] for rec in queue] or "no report"
            problems.append(f"{want[0]} on {want[1]}: expected {want[2:]}, got {got_text}")
    extra = sum(len(q) for q in remaining.values())
    if extra:
        problems.append(f"{extra} unexpected reports")
    return attempted, failed, problems
