import argparse
import functools
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import dunklcalc.cli
import dunklcalc.operators
import dunklcalc.poly
import dunklcalc.radial
import dunklcalc.roots
import dunklcalc.verify
from dunklcalc.cli import main
from dunklcalc.poly import parse_poly
from dunklcalc.util import parse_rational


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_apply_example(capsys):
    code, out, _ = run_cli(
        capsys, "apply", "--system", "z2:d=1", "--kappa", "1/2", "--xi", "1",
        "--poly", "x1",
    )
    assert code == 0
    assert out.strip() == "2"


def test_pizzetti_example_with_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "pizzetti", "--system", "z2:d=2", "--kappa", "1,0",
        "--poly", "x1^2", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "3/4"
    assert payload["oracle"] == "3/4"
    assert payload["oracle_match"] is True


def test_pizzetti_non_sign_flip_has_no_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "pizzetti", "--system", "b:d=2", "--kappa", "1,2",
        "--poly", "x1^2", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle"] is None


def test_verify_hobson_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "hobson", "--system", "b:d=2", "--kappa", "1,2",
        "--seed", "7",
    )
    assert code == 0
    assert "[PASS]" in out


def test_verify_json_determinism(capsys):
    args = [
        "verify", "laplacian-commutator", "--system", "z2:d=2", "--kappa", "1,3/2",
        "--seed", "3", "--json",
    ]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte identical
    payload = json.loads(out1)
    assert payload[0]["suite"] == "laplacian-commutator"
    names = [c["name"] for c in payload[0]["cases"]]
    assert names == sorted(names)
    for case in payload[0]["cases"]:
        assert set(case) >= {"name", "status", "residual", "detail"}
        assert case["residual"] == "0"


def test_verify_report_file(tmp_path, capsys):
    report = tmp_path / "out.json"
    code, _, _ = run_cli(
        capsys, "verify", "transforms", "--system", "z2:d=1", "--kappa", "1/2",
        "--report", str(report),
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload[0]["suite"] == "transforms"
    numeric = [c for c in payload[0]["cases"] if isinstance(c["residual"], float)]
    assert numeric, "transform cases must carry numeric residuals"


def test_cli_round_trip_of_printed_polynomials(capsys):
    code, out, _ = run_cli(
        capsys, "laplacian", "--system", "b:d=2", "--kappa", "1,2",
        "--poly", "x1^4 - x2^4",
    )
    assert code == 0
    reparsed = parse_poly(out.strip(), 2)
    code2, out2, _ = run_cli(
        capsys, "laplacian", "--system", "b:d=2", "--kappa", "1,2",
        "--poly", str(reparsed),
    )
    assert code2 == 0


def test_usage_errors_exit_two(capsys):
    code, _, err = run_cli(
        capsys, "apply", "--system", "z2:d=2", "--kappa", "1,0", "--xi", "1,0",
        "--poly", "x0",
    )
    assert code == 2
    assert "x0" in err
    code, _, _ = run_cli(capsys, "apply", "--system", "nope:d=1", "--kappa", "1",
                         "--xi", "1", "--poly", "x1")
    assert code == 2
    code, _, _ = run_cli(capsys, "apply", "--system", "z2:d=1", "--kappa", "1",
                         "--poly", "x1")  # missing --xi
    assert code == 2


@pytest.mark.parametrize(
    "option, argv",
    [
        ("--kappa", ["apply", "--system", "z2:d=2", "--kappa", "1,,2", "--xi", "1,0",
                     "--poly", "x1"]),
        ("--kappa", ["verify", "commutativity", "--system", "z2:d=2", "--kappa", "1,,2"]),
        ("--kappa", ["verify", "hobson", "--system", "z2:d=2", "--kappa", "1,3/2,"]),
        ("--xi", ["apply", "--system", "z2:d=2", "--kappa", "1,2", "--xi", "1,,0",
                  "--poly", "x1"]),
        ("--xi", ["apply", "--system", "z2:d=1", "--kappa", "1", "--xi", " ,1",
                  "--poly", "x1"]),
        ("--y", ["transform", "--system", "z2:d=1", "--kappa", "1", "--poly", "x1",
                 "--y", "1,"]),
    ],
)
def test_comma_list_with_an_empty_field_exits_two(capsys, option, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"{option} has an empty field" in err


def test_comma_lists_allow_spaces_around_values(capsys):
    code, out, _ = run_cli(
        capsys, "apply", "--system", "z2:d=2", "--kappa", " 1 , 2 ", "--xi", "1 ,0",
        "--poly", "x1",
    )
    assert (code, out.strip()) == (0, "3")
    code, out, _ = run_cli(
        capsys, "verify", "commutativity", "--system", "z2:d=2", "--kappa", "1, 3/2",
    )
    assert code == 0 and "[PASS]" in out
    code, out, _ = run_cli(
        capsys, "transform", "--system", "z2:d=1", "--kappa", "1", "--poly", "x1",
        "--y", " 1.5 ",
    )
    assert code == 0 and "hecke residual" in out


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# sha256 of the --help text of the program and of each subcommand, and of
# the usage error of an unknown subcommand, at 80 columns
HELP_DIGESTS = {
    "": "cf778179195126658a60324702da248f481c0035eb1c217ca1c1f0a4ef086a04",
    "apply": "6673e68fb8f98b82ae41a85593875a82d3ed3580ca7479b540ee7369346bb027",
    "laplacian": "0a84566a62f2152152f74ecc302cd42bb8bfe9cb724716add99e4094cbc5b165",
    "hobson": "c4b674a38d187f9b2a3be691535b9321ff88dc03a8a98f168e1e977ae596fa50",
    "project": "f97ae5758df8be2969095674b876255c4038c786f83085a357c04e8107af677e",
    "decompose": "2658845095a655fadb7e34b6e48f5898e554b9ce5154490fe7c441274660ad0c",
    "hermite": "22f5784f7df3b666dfb048cf5c3843e73b66bce582039fddb70ca185728cdae0",
    "pizzetti": "a0e094d5d40a66df07e06e45ef2389ee3f8122031b1a2df8a811c42061401bcd",
    "transform": "fd3b1506d65b6990a5eb602d76e3e345b0ed114fcf2eb68dbdd323e80bc9d19e",
    "verify": "55c1d3d5ac7fd191be8383a685fb46e21f3badf0f9afc571950db21337419da2",
}
UNKNOWN_COMMAND_DIGEST = "2d96e351342b7a139977f3d3943e4eaf14a617f681b826675f420b44c0f958d6"
# argparse words its help and errors differently across Python versions
ARGPARSE_311 = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="digests of Python 3.11's argparse text"
)


def _exit_text(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@ARGPARSE_311
@pytest.mark.parametrize("command", HELP_DIGESTS)
def test_help_bytes_are_pinned(capsys, monkeypatch, command):
    code, out, err = _exit_text(capsys, monkeypatch, [command, "--help"] if command else ["--help"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[command]
    assert sorted(HELP_DIGESTS) == sorted(["", *dunklcalc.cli.COMMANDS, "verify"])


@ARGPARSE_311
def test_unknown_subcommand_error_bytes_are_pinned(capsys, monkeypatch):
    code, out, err = _exit_text(capsys, monkeypatch, ["frobnicate"])
    assert (code, out) == (2, "")
    assert "invalid choice: 'frobnicate'" in err
    assert hashlib.sha256(err.encode()).hexdigest() == UNKNOWN_COMMAND_DIGEST


def test_hobson_cli_residual_zero(capsys):
    code, out, _ = run_cli(
        capsys, "hobson", "--system", "a:d=3", "--kappa", "1",
        "--poly", "x1^2*x2 - x3^3", "--profile", "r^(-3)*exp(-1/2*r^2)", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] == "0"
    assert payload["status"] == "pass"


def test_hobson_degree_above_cap_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "hobson", "--system", "z2:d=1", "--kappa", "1",
        "--poly", "x1^1500", "--profile", "r^2",
    )
    assert code == 2
    assert "exceeds" in err


def test_hobson_at_the_degree_cap_runs(capsys):
    code, out, _ = run_cli(
        capsys, "hobson", "--system", "z2:d=1", "--kappa", "1",
        "--poly", "x1^256", "--profile", "r^2",
    )
    assert code == 0
    assert "residual = 0" in out


@pytest.mark.parametrize("command", [["hobson", "--profile", "r^2"], ["hermite"], ["project"]])
def test_work_budget_exits_two_before_expanding(capsys, monkeypatch, command):
    def expand(*args):
        raise AssertionError("expanded before the work budget was checked")

    monkeypatch.setattr(dunklcalc.operators.DunklContext, "_coord_image", expand)
    code, out, err = run_cli(
        capsys, *command, "--system", "a:d=3", "--kappa", "1",
        "--poly", "x1^100*x2^100*x3^56",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: input too large")


@pytest.mark.parametrize("argv", [
    # a profile whose exponents of r lie far apart in one family: the output
    # fold multiplies by |x|^2 once per step of 2 between them
    ["hobson", "--system", "a:d=3", "--kappa", "1", "--poly", "x1^3*x2^2",
     "--profile", "r^(200)+r^(-200)"],
    ["hobson", "--system", "a:d=3", "--kappa", "1", "--poly", "x1^3*x2^2",
     "--profile", "r^(50)+r^(-50)"],
    # a degree far above what the suites can expand
    ["verify", "commutativity", "--system", "a:d=3", "--kappa", "1", "--deg", "2000"],
    ["verify", "laplacian-commutator", "--system", "a:d=4", "--kappa", "1", "--deg", "400"],
    ["verify", "transforms", "--system", "z2:d=2", "--kappa", "1,1", "--deg", "3000"],
    # every route of the Laplacian, on a degree far above the budget
    *(["laplacian", "--system", "a:d=16", "--kappa", "1", "--poly", "x1^128*x2^100",
       "--route", route] for route in ("sq", "expr", "invariant")),
])
def test_work_beyond_the_budget_exits_two_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "input too large" in err and "budget" in err


@pytest.mark.parametrize("text, value", [
    ("1/2", Fraction(1, 2)), ("0.5", Fraction(1, 2)), ("2.5e-1", Fraction(1, 4)),
    (" 3/4\t", Fraction(3, 4)), ("\u22121/3", Fraction(-1, 3)), ("1E1_0", Fraction(10**10)),
])
def test_rationals_parse(text, value):
    assert parse_rational(text) == value


# 10^10000000 would take seconds to build and cannot be printed
@pytest.mark.parametrize("argv", [
    ["apply", "--system", "z2:d=1", "--kappa", "1e10000000", "--xi", "1", "--poly", "x1"],
    ["apply", "--system", "z2:d=1", "--kappa", "1", "--xi", "1e10000000", "--poly", "x1"],
    ["apply", "--system", "z2:d=1", "--kappa", "1", "--xi", "1e-10000000", "--poly", "x1"],
    ["verify", "hobson", "--system", "z2:d=1", "--kappa", "1e10000000"],
    ["apply", "--system", "custom:{file}", "--xi", "1", "--poly", "x1"],
])
def test_huge_decimal_exponent_exits_two_at_once(capsys, tmp_path, argv):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"dim": 1, "roots": [[1]], "multiplicities": ["1e10000000"]}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *(arg.format(file=path) for arg in argv))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "not a rational number: '1e" in err


def test_unreadable_system_file_exits_two(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, out, err = run_cli(
        capsys, "apply", "--system", f"custom:{missing}", "--kappa", "1",
        "--poly", "x1", "--xi", "1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(missing) in err
    assert err.count("\n") == 1


def test_unwritable_report_exits_two(capsys, tmp_path):
    report = tmp_path / "no-such-dir" / "out.json"
    code, _, err = run_cli(
        capsys, "verify", "hobson", "--system", "z2:d=1", "--kappa", "1",
        "--report", str(report),
    )
    assert code == 2
    assert err.startswith("error: ") and str(report) in err
    assert err.count("\n") == 1


def test_unwritable_report_exits_two_before_any_suite(capsys, monkeypatch, tmp_path):
    def suite_ran(*args, **kwargs):
        raise RuntimeError("a suite ran before the report path was checked")

    for name in dunklcalc.cli.SUITES:
        monkeypatch.setitem(dunklcalc.cli.SUITES, name, suite_ran)
    report = tmp_path / "no-such-dir" / "out.json"
    code, out, err = run_cli(capsys, "verify", "all", "--report", str(report))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(report) in err
    assert err.count("\n") == 1


def test_failed_run_leaves_an_old_report_whole(capsys, tmp_path):
    report = tmp_path / "out.json"
    report.write_text("old report\n")
    code, _, err = run_cli(
        capsys, "verify", "hobson", "--system", "z2:d=1", "--kappa", "1", "--deg", "-1",
        "--report", str(report),
    )
    assert code == 2 and err.startswith("error: ")
    assert report.read_text() == "old report\n"


def test_hobson_cli_computes_each_side_once(capsys, monkeypatch):
    calls = []
    original = dunklcalc.radial.weighted_poly_of_dunkl

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(dunklcalc.radial, "weighted_poly_of_dunkl", counted)
    code, _, _ = run_cli(
        capsys, "hobson", "--system", "b:d=2", "--kappa", "1,2",
        "--poly", "x1^2*x2", "--profile", "r^(-3)*exp(-1/2*r^2)",
    )
    assert code == 0
    assert len(calls) == 1


def test_hobson_cli_formats_each_side_once(capsys, monkeypatch):
    calls = []
    original = dunklcalc.radial.WeightedFunction.__str__

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(dunklcalc.radial.WeightedFunction, "__str__", counted)
    code, out, _ = run_cli(
        capsys, "hobson", "--system", "b:d=2", "--kappa", "1,2",
        "--poly", "x1^2*x2", "--profile", "r^(-3)*exp(-1/2*r^2)",
    )
    assert code == 0
    assert len(calls) == 2
    assert out.startswith("lhs = ") and "\nrhs = " in out


@pytest.mark.parametrize(
    "argv, inputs",
    [
        (["apply", "--xi", "1,0"], 1),
        (["laplacian", "--route", "expr"], 0),
        (["project", "--route", "series"], 0),
        (["hermite"], 0),
    ],
)
@pytest.mark.parametrize("as_json", [False, True])
def test_cli_formats_result_once(capsys, monkeypatch, argv, inputs, as_json):
    calls = []
    original = dunklcalc.poly.format_poly

    def counted(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(dunklcalc.poly, "format_poly", counted)
    extra = ["--json"] if as_json else []
    code, out, _ = run_cli(
        capsys, *argv, "--system", "b:d=2", "--kappa", "1,2",
        "--poly", "x1^3*x2 - x2^4", *extra,
    )
    assert code == 0
    assert len(calls) == inputs + 1
    result = json.loads(out)["result"] if as_json else out.strip()
    assert result in [original(p) for p in calls]


def test_transform_cli(capsys):
    code, out, _ = run_cli(
        capsys, "transform", "--system", "z2:d=1", "--kappa", "1/2",
        "--poly", "x1", "--y", "1.0", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["hecke_residual"] <= 1e-9


def test_transform_failed_hecke_check_exits_one(capsys):
    # from |y| ~ 7 the printed value is rounding noise, and the check says so
    code, out, _ = run_cli(
        capsys, "transform", "--system", "z2:d=1", "--kappa", "1", "--poly", "x1",
        "--y=12",
    )
    assert code == 1
    residual = float(out.splitlines()[-1].split("=")[1])
    assert residual > dunklcalc.verify.HECKE_TOL


def test_transform_past_series_limit_exits_four(capsys):
    code, out, err = run_cli(
        capsys, "transform", "--system", "z2:d=1", "--kappa", "1", "--poly", "x1",
        "--y=40",
    )
    assert code == 4
    assert out == ""
    assert err.startswith("error: numeric limit:") and err.count("\n") == 1


def test_quadrature_error_exits_four(capsys, monkeypatch):
    from dunklcalc.transform import QuadratureError

    def broken(*args, **kwargs):
        raise QuadratureError("Gauss-Legendre rules on 4 and 8 panels differ by 1e-07")

    monkeypatch.setattr(dunklcalc.cli, "dunkl_transform_gauss_poly", broken)
    code, _, err = run_cli(
        capsys, "transform", "--system", "z2:d=1", "--kappa", "1", "--poly", "x1",
        "--y", "1.0",
    )
    assert code == 4
    assert err == (
        "error: numeric limit: Gauss-Legendre rules on 4 and 8 panels differ by 1e-07\n"
    )


def test_float_overflow_exits_four(capsys):
    # the exact transform is fine; its conversion to a float is not
    code, out, err = run_cli(
        capsys, "transform", "--system", "z2:d=1", "--kappa", "1",
        "--poly=1" + "0" * 400 + "*x1", "--y=1",
    )
    assert code == 4
    assert out == ""
    assert err == "error: numeric limit: a value is too large for a float\n"


def test_invariant_error_exits_three(capsys, monkeypatch):
    from dunklcalc.poly import ExactDivisionError

    def broken(*args):
        raise ExactDivisionError("x1 is not divisible by the linear form of (1, -1)")

    monkeypatch.setitem(dunklcalc.cli.LAPLACIAN_ROUTES, "sq", broken)
    code, out, err = run_cli(
        capsys, "laplacian", "--system", "a:d=2", "--kappa", "1", "--poly", "x1",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("internal invariant violation: x1 is not divisible")


@pytest.mark.parametrize(
    "system, kappa, poly",
    [
        ("z2:d=1", "1/2", "x1^3"),  # exact division, wrong answer (9*x1, not 8*x1)
        ("z2:d=1", "1/2", "x1"),
        ("a:d=3", "1", "x1^2*x2"),
    ],
)
def test_invariant_route_rejects_non_invariant_input(capsys, system, kappa, poly):
    code, out, err = run_cli(
        capsys, "laplacian", "--system", system, "--kappa", kappa,
        "--route", "invariant", "--poly", poly,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: the invariant restriction needs a polynomial fixed")


def test_invariant_route_checks_only_active_roots(capsys):
    code, out, _ = run_cli(
        capsys, "laplacian", "--system", "z2:d=2", "--kappa", "1,0",
        "--route", "invariant", "--poly", "x2",
    )
    assert code == 0
    assert out == "0\n"


def test_degenerate_maxwell_route_exits_two(capsys):
    code, out, err = run_cli(
        capsys, "project", "--system", "z2:d=2", "--kappa", "0,0",
        "--route", "maxwell", "--poly", "x1*x2",
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: Maxwell projection route is degenerate at Bessel index 0; "
        "use the series route\n"
    )


@pytest.mark.parametrize("y", ["nan,1", "inf,0", "1.0,-inf"])
def test_transform_non_finite_point_exits_two(capsys, y):
    code, out, err = run_cli(
        capsys, "transform", "--system", "z2:d=2", "--kappa", "1,1", "--poly", "x1",
        f"--y={y}",
    )
    assert code == 2
    assert out == ""
    assert "--y coordinates must be finite" in err


def test_oversized_system_exits_two_before_any_root(capsys, monkeypatch):
    def no_roots(*args):
        raise AssertionError("a root entry was built past the dimension cap")

    monkeypatch.setattr(dunklcalc.roots, "Fraction", no_roots)
    code, _, err = run_cli(
        capsys, "apply", "--system", "a:d=100000", "--kappa", "1", "--xi", "1",
        "--poly", "x1",
    )
    assert code == 2
    assert "exceeds the limit of 16" in err


def test_verify_default_transforms_fails_loud(capsys, monkeypatch):
    import dunklcalc.verify

    def broken(*args, **kwargs):
        raise ValueError("hankel broke")

    monkeypatch.setattr(dunklcalc.verify, "hankel_numeric", broken)
    code, out, err = run_cli(capsys, "verify", "transforms")
    assert code == 2
    assert out == ""
    assert "transforms on z2:d=1: hankel broke" in err


def test_verify_tolerance_is_only_for_transforms(capsys):
    code, out, err = run_cli(
        capsys, "verify", "hobson", "--system", "z2:d=1", "--kappa", "1/2",
        "--tolerance", "1e-3",
    )
    assert code == 2
    assert out == ""
    assert "--tolerance applies only to transforms" in err
    code, out, _ = run_cli(
        capsys, "verify", "all", "--system", "z2:d=1", "--kappa", "1/2",
        "--tolerance", "1e-3", "--json",
    )
    assert code == 0
    tolerances = {r["suite"]: r.get("tolerance") for r in json.loads(out)}
    assert tolerances.pop("transforms") == 1e-3
    assert set(tolerances.values()) == {None}


@pytest.mark.parametrize("tolerance", ["nan", "-1", "0", "inf"])
def test_verify_tolerance_must_be_finite_and_positive(capsys, monkeypatch, tolerance):
    def no_run(*args, **kwargs):
        raise AssertionError("a suite ran with a bad tolerance")

    monkeypatch.setattr(dunklcalc.cli, "SUITES", {**dunklcalc.verify.SUITES, "transforms": no_run})
    code, out, err = run_cli(
        capsys, "verify", "transforms", "--system", "z2:d=1", "--kappa", "1",
        f"--tolerance={tolerance}",
    )
    assert code == 2
    assert out == ""
    assert "--tolerance must be finite and positive" in err


@pytest.mark.parametrize("suite", ["hobson", "all"])
def test_verify_kappa_without_system_exits_two(capsys, monkeypatch, suite):
    def no_run(*args, **kwargs):
        raise AssertionError("a suite ran with a --kappa it ignores")

    monkeypatch.setattr(dunklcalc.cli, "SUITES", dict.fromkeys(dunklcalc.verify.SUITES, no_run))
    code, out, err = run_cli(capsys, "verify", suite, "--kappa", "1")
    assert code == 2
    assert out == ""
    assert err == "error: --kappa applies only together with --system\n"


def test_verify_hobson_degree_zero_runs(capsys):
    code, out, err = run_cli(
        capsys, "verify", "hobson", "--system", "z2:d=2", "--kappa", "1,1/2",
        "--deg", "0", "--json",
    )
    assert code == 0, err
    cases = json.loads(out)[0]["cases"]
    assert len(cases) == 7 * 8
    assert all(c["status"] == "pass" and c["name"].endswith("-deg0") for c in cases)


@pytest.mark.parametrize("suite", sorted(dunklcalc.verify.SUITES))
def test_verify_negative_degree_exits_two(capsys, suite):
    code, out, err = run_cli(
        capsys, "verify", suite, "--system", "z2:d=2", "--kappa", "1,1/2", "--deg", "-1",
    )
    assert code == 2
    assert out == ""
    assert "degree must be non-negative" in err


def test_verify_run_without_cases_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(dunklcalc.verify, "SUITES", dict(dunklcalc.verify.SUITES))
    monkeypatch.setattr(dunklcalc.verify, "_DEFAULT_RUNS", {})

    @dunklcalc.verify._suite("mean-value", [])
    def empty_suite(ctx, rng, degree=4):
        yield from ()

    monkeypatch.setattr(dunklcalc.cli, "SUITES", dunklcalc.verify.SUITES)
    code, out, err = run_cli(
        capsys, "verify", "mean-value", "--system", "z2:d=1", "--kappa", "1",
    )
    assert code == 2
    assert out == ""
    assert "checked no case" in err


def test_verify_contexts_stay_bounded(monkeypatch):
    monkeypatch.setattr(dunklcalc.verify, "_CONTEXTS", {})
    cap = dunklcalc.verify._CONTEXTS_MAX
    first = dunklcalc.verify.get_context("z2:d=1", ("0",))
    assert dunklcalc.verify.get_context("z2:d=1", ("0",)) is first
    for k in range(1, cap + 1):
        dunklcalc.verify.get_context("z2:d=1", (str(k),))
        assert len(dunklcalc.verify._CONTEXTS) <= cap
    assert len(dunklcalc.verify._CONTEXTS) == 1
    assert dunklcalc.verify.get_context("z2:d=1", ("0",)) is not first


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    # a fresh cache for this test, so that the first call builds the parser
    monkeypatch.setattr(
        dunklcalc.cli, "build_parser", functools.cache(dunklcalc.cli.build_parser.__wrapped__)
    )
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    argv = ["hermite", "--system", "z2:d=1", "--kappa", "1", "--poly", "x1^2"]
    first = run_cli(capsys, *argv)
    assert built
    built.clear()
    assert run_cli(capsys, *argv) == first
    assert built == []


def test_no_state_leaks_from_one_call_into_the_next(capsys):
    system = ["--system", "b:d=2", "--kappa", "1,2", "--poly", "x1^4 - x2^4"]
    code, out, _ = run_cli(capsys, "laplacian", "--route", "expr", "--json", *system)
    assert code == 0 and json.loads(out)["route"] == "expr"
    with pytest.raises(SystemExit) as exc:
        main(["laplacian", "--route", "nowhere", *system])
    assert exc.value.code == 2
    capsys.readouterr()
    fresh = subprocess.run(
        [sys.executable, "-m", "dunklcalc.cli", "laplacian", *system],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(dunklcalc.cli.__file__).parents[1])},
    )
    assert fresh.returncode == 0 and not fresh.stdout.startswith("{")
    assert run_cli(capsys, "laplacian", *system) == (0, fresh.stdout, fresh.stderr)


def test_a_body_replaced_after_the_first_call_runs(capsys, monkeypatch):
    argv = ["hermite", "--system", "z2:d=1", "--kappa", "1", "--poly", "x1^2"]
    assert run_cli(capsys, *argv)[0] == 0
    help_text, options, _ = dunklcalc.cli.COMMANDS["hermite"]

    def replaced(args, ctx, p):
        return {"result": "replaced"}, "replaced body", 0

    monkeypatch.setitem(dunklcalc.cli.COMMANDS, "hermite", (help_text, options, replaced))
    assert run_cli(capsys, *argv) == (0, "replaced body\n", "")
