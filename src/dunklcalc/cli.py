"""Command-line surface for the calculus and its verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage or input error
(including a file that cannot be read or written), 3 internal invariant
violation (an InvariantError: an exact identity the implementation
guarantees was found broken), 4 numeric limit (a series or a quadrature
could not reach its bound at the requested point, or an exact value is too
large for a float, reported with one fixed message).

Each polynomial command is a body registered with @_command; one runner
builds its context, parses --poly, and prints its JSON payload or text.
The argument parser is built once per process, on the first call of main,
and holds no functions: main looks up what to run by the command's name at
call time, so a body replaced in COMMANDS, SUITES or a route table after
that first call is the one that runs.  When the first argument names a
command, main parses the rest with that command's subparser alone; any
other first argument, or arguments that the subparser leaves over, go to
the full parser, so every usage error reads as the full parser's.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from contextlib import nullcontext
from fractions import Fraction
from typing import Callable

from .harmonic import (
    clebsch_project_maxwell,
    clebsch_project_series,
    harmonic_decompose,
    hermite_poly,
)
from .integrate import pizzetti_mean, sphere_oracle_z2d
from .operators import (
    DunklContext,
    check_budget,
    dunkl_apply,
    dunkl_laplacian_expr,
    dunkl_laplacian_invariant,
    dunkl_laplacian_sq,
)
from .poly import InvariantError, Poly, parse_poly
from .radial import hobson_lhs, hobson_rhs, parse_profile
from .roots import build_root_system
from .transform import (
    QuadratureError,
    TruncationError,
    dunkl_transform_gauss_poly,
    hecke_residual,
    z2_kappas,
)
from .util import parse_rational
from .verify import HECKE_TOL, SUITES, default_runs

USAGE_EXIT = 2
FAILURE_EXIT = 1
INTERNAL_EXIT = 3
NUMERIC_EXIT = 4


class UsageError(ValueError):
    pass


def _comma_list(option: str, text: str, parse=parse_rational) -> list:
    """The comma-separated values of an option; an empty field is a usage error."""
    fields = text.split(",")
    if not all(field.strip() for field in fields):
        raise UsageError(f"{option} has an empty field: {text!r}")
    return [parse(field) for field in fields]


# The route options: name -> function, the first name being the default.
# Module-level dicts, so that code replacing a function in every namespace
# of the package and in its dicts (as perfbench/tracer.py does) reaches them.
LAPLACIAN_ROUTES = {
    "sq": dunkl_laplacian_sq,
    "expr": dunkl_laplacian_expr,
    "invariant": dunkl_laplacian_invariant,
}
PROJECTION_ROUTES = {
    "series": clebsch_project_series,
    "maxwell": clebsch_project_maxwell,
}

# What a command body returns: JSON payload, text output and exit code.  A
# Poly or profile in the payload is formatted only when JSON is printed.
Result = tuple[dict, str, int]

# Polynomial commands by name in definition order: (help, options, body).
COMMANDS: dict[str, tuple[str, tuple, Callable[..., Result]]] = {}


def _command(name: str, help_text: str, *options: tuple[str, dict]):
    """Register body(args, ctx, p) -> Result as the polynomial command name.

    Each option is a (flag, add_argument keywords) pair, added after the
    shared --system, --kappa, --poly and --json.  The one runner,
    _run_command, builds the context and the polynomial the body gets and
    prints what it returns.
    """

    def register(body: Callable[..., Result]) -> Callable[..., Result]:
        COMMANDS[name] = (help_text, options, body)
        return body

    return register


def _route_option(routes: dict) -> tuple[str, dict]:
    return "--route", {"choices": list(routes), "default": next(iter(routes))}


def _run_command(args) -> int:
    """Build the context, parse --poly, run the body and print its result."""
    if not args.system:
        raise UsageError("--system is required")
    kappas = _comma_list("--kappa", args.kappa) if args.kappa else None
    ctx = DunklContext(build_root_system(args.system, kappas))
    if not args.poly:
        raise UsageError("--poly is required")
    body = COMMANDS[args.command][2]
    payload, text, code = body(args, ctx, parse_poly(args.poly, ctx.dim))
    if args.json:
        text = json.dumps({"system": args.system, **payload}, indent=2, default=str)
    print(text)
    return code


@_command(
    "apply", "apply a Dunkl operator to a polynomial",
    ("--xi", {"help": "direction vector, comma-separated rationals"}),
)
def _cmd_apply(args, ctx: DunklContext, p: Poly) -> Result:
    xi = _comma_list("--xi", args.xi) if args.xi else None
    if not xi or len(xi) != ctx.dim:
        raise UsageError(f"--xi needs {ctx.dim} comma-separated rationals")
    text = str(dunkl_apply(ctx, xi, p))
    return {"input": p, "result": text}, text, 0


@_command("laplacian", "apply the Dunkl Laplacian", _route_option(LAPLACIAN_ROUTES))
def _cmd_laplacian(args, ctx: DunklContext, p: Poly) -> Result:
    check_budget(ctx, p.degree())
    text = str(LAPLACIAN_ROUTES[args.route](ctx, p))
    return {"route": args.route, "result": text}, text, 0


@_command(
    "hobson", "both sides of the radial expansion of p(D)",
    ("--profile", {"help": "radial profile, e.g. 'r^(-3)*exp(-1/2*r^2)'"}),
)
def _cmd_hobson(args, ctx: DunklContext, p: Poly) -> Result:
    if not args.profile:
        raise UsageError("--profile is required")
    profile = parse_profile(args.profile)
    lhs = hobson_lhs(ctx, p, profile)
    rhs = hobson_rhs(ctx, p, profile)
    residual = lhs - rhs
    ok = residual.is_zero()
    # each str() of a WeightedFunction folds it; a zero residual means equal texts
    lhs_text = str(lhs)
    rhs_text = lhs_text if ok else str(rhs)
    payload = {
        "poly": p,
        "profile": profile,
        "lhs": lhs_text,
        "rhs": rhs_text,
        "residual": "0" if ok else str(residual),
        "status": "pass" if ok else "fail",
    }
    text = f"lhs = {lhs_text}\nrhs = {rhs_text}\nresidual = {payload['residual']}"
    return payload, text, 0 if ok else FAILURE_EXIT


@_command("project", "project onto harmonic polynomials", _route_option(PROJECTION_ROUTES))
def _cmd_project(args, ctx: DunklContext, p: Poly) -> Result:
    text = str(PROJECTION_ROUTES[args.route](ctx, p))
    return {"route": args.route, "result": text}, text, 0


@_command("decompose", "harmonic decomposition of a homogeneous polynomial")
def _cmd_decompose(args, ctx: DunklContext, p: Poly) -> Result:
    layers = harmonic_decompose(ctx, p)
    components = [{"norm_power": j, "harmonic": str(h)} for j, h in layers]
    text = "\n".join(f"|x|^{2 * c['norm_power']} * ({c['harmonic']})" for c in components) or "0"
    return {"components": components}, text, 0


@_command("hermite", "generalized Hermite polynomial of p")
def _cmd_hermite(args, ctx: DunklContext, p: Poly) -> Result:
    text = str(hermite_poly(ctx, p))
    return {"result": text}, text, 0


@_command("pizzetti", "exact normalized spherical mean")
def _cmd_pizzetti(args, ctx: DunklContext, p: Poly) -> Result:
    value = pizzetti_mean(ctx, p)
    oracle_value = None
    oracle_match = None
    try:
        kappas = z2_kappas(ctx.rs)
    except ValueError:
        kappas = None
    if kappas is not None:
        total = Fraction(0)
        for e, c in p.terms.items():
            if all(v % 2 == 0 for v in e):
                total += c * sphere_oracle_z2d(kappas, e)
        oracle_value = total
        oracle_match = total == value
    payload = {
        "poly": p,
        "value": str(value),
        "oracle": None if oracle_value is None else str(oracle_value),
        "oracle_match": oracle_match,
    }
    return payload, payload["value"], INTERNAL_EXIT if oracle_match is False else 0


@_command(
    "transform", "transform of poly times Gaussian at a point",
    ("--y", {"help": "evaluation point, comma-separated floats"}),
)
def _cmd_transform(args, ctx: DunklContext, p: Poly) -> Result:
    if not args.y:
        raise UsageError("--y is required (comma-separated floats)")
    y = _comma_list("--y", args.y, float)
    if len(y) != ctx.dim:
        raise UsageError(f"--y needs {ctx.dim} coordinates")
    if not all(math.isfinite(v) for v in y):
        raise UsageError("--y coordinates must be finite")
    value = dunkl_transform_gauss_poly(ctx, p, y)
    payload = {"poly": p, "y": y, "value": [value.real, value.imag]}
    text = f"{value.real:+.15e} {value.imag:+.15e}i"
    ok = True
    if p.is_homogeneous() and not p.is_zero():
        residual = hecke_residual(ctx, p, [y])[0]
        payload["hecke_residual"] = residual
        text += f"\nhecke residual = {residual:.3e}"
        ok = residual <= HECKE_TOL
    return payload, text, 0 if ok else FAILURE_EXIT


def _cmd_verify(args) -> int:
    requested = args.suite
    if args.kappa is not None and not args.system:
        raise UsageError("--kappa applies only together with --system")
    if args.tolerance is not None:
        if requested not in ("all", "transforms"):
            raise UsageError(f"--tolerance applies only to transforms, not to {requested}")
        if not 0 < args.tolerance < math.inf:  # also false for nan
            raise UsageError("--tolerance must be finite and positive")
    names = list(SUITES) if requested == "all" else [requested]
    if args.system:
        kappas = _comma_list("--kappa", args.kappa) if args.kappa else None
        runs = [(args.system, kappas)]
    else:
        runs = None

    reports = []
    # open the report first, so that an unwritable path fails before any suite
    # runs; append mode leaves an old report whole if a suite then fails
    with open(args.report, "a", encoding="utf-8") if args.report else nullcontext() as fh:
        for name in names:
            fn = SUITES[name]
            for system, kappas in (runs if runs is not None else default_runs(name)):
                kwargs = {"seed": args.seed}
                if args.deg is not None:
                    kwargs["degree"] = args.deg
                if args.tolerance is not None and name == "transforms":
                    kwargs["tolerance"] = args.tolerance
                try:
                    reports.append(fn(system, kappas, **kwargs))
                except ValueError as exc:
                    raise UsageError(f"{name} on {system}: {exc}") from exc

        payload = [r.to_dict() for r in reports]
        if fh is not None:
            fh.truncate(0)
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for report in reports:
            print(report.summary())
            for case in sorted(report.cases, key=lambda c: c.name):
                if case.status == "fail":
                    print(f"    FAIL {case.name}: residual={case.residual} {case.detail}")
    return 0 if all(r.passed for r in reports) else FAILURE_EXIT


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call only.

    Every later call returns the same object, so no caller may change it.
    """
    parser = argparse.ArgumentParser(
        prog="dunklcalc",
        description="Exact Dunkl-operator calculus and its verification suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}  # name -> subparser, for main's dispatch

    for name, (help_text, options, _) in COMMANDS.items():
        p = parser.commands[name] = sub.add_parser(name, help=help_text)
        p.add_argument("--system", help="catalog name, e.g. z2:d=2, b:d=2, custom:<file>")
        p.add_argument("--kappa", help="comma-separated rational multiplicities, one per orbit")
        p.add_argument("--poly", help="polynomial text, e.g. '3/2*x1^2*x2 - x3'")
        p.add_argument("--json", action="store_true", help="emit JSON")
        for flag, keywords in options:
            p.add_argument(flag, **keywords)

    p = parser.commands["verify"] = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--system")
    p.add_argument("--kappa")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deg", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=None,
                   help="override every transforms tolerance (exact suites take none)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--report", help="write the JSON report to this path")

    return parser


def _parse_args(argv) -> argparse.Namespace:
    """The arguments of argv, parsed as build_parser().parse_args would.

    A command's subparser reads the arguments after its name; the full
    parser reads argv when argv[0] names no command, or again when the
    subparser leaves arguments over, so that its error keeps the
    "dunklcalc:" prefix.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return _cmd_verify(args) if args.command == "verify" else _run_command(args)
    except (ValueError, OSError) as exc:  # bad input, or a file it names is unusable
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except InvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return INTERNAL_EXIT
    except (TruncationError, QuadratureError) as exc:
        print(f"error: numeric limit: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except OverflowError:  # Python's own text differs between int and Fraction
        print("error: numeric limit: a value is too large for a float", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
