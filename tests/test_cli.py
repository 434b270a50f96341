import json

import pytest

import dunklcalc.cli
import dunklcalc.operators
import dunklcalc.poly
import dunklcalc.radial
import dunklcalc.roots
import dunklcalc.verify
from dunklcalc.cli import main
from dunklcalc.poly import parse_poly


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
