"""Command-line surface for the calculus and its verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage or input error
(including a file that cannot be read or written), 3 internal invariant
violation (an InvariantError: an exact identity the implementation
guarantees was found broken), 4 numeric limit (a series or a quadrature
could not reach its bound at the requested point, or a value overflowed a
float).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .harmonic import (
    clebsch_project_maxwell,
    clebsch_project_series,
    harmonic_decompose,
    hermite_poly,
)
from .integrate import pizzetti_mean, sphere_oracle_z2d
from .operators import (
    DunklContext,
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


def _split_rationals(text: str) -> list[Fraction]:
    return [parse_rational(piece) for piece in text.split(",") if piece.strip()]


def _context_from_args(args) -> DunklContext:
    if not args.system:
        raise UsageError("--system is required")
    kappas = _split_rationals(args.kappa) if args.kappa else None
    rs = build_root_system(args.system, kappas)
    return DunklContext(rs)


def _poly_from_args(args, ctx: DunklContext) -> Poly:
    if not args.poly:
        raise UsageError("--poly is required")
    return parse_poly(args.poly, ctx.dim)


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _cmd_apply(args) -> int:
    ctx = _context_from_args(args)
    p = _poly_from_args(args, ctx)
    xi = _split_rationals(args.xi) if args.xi else None
    if not xi or len(xi) != ctx.dim:
        raise UsageError(f"--xi needs {ctx.dim} comma-separated rationals")
    text = str(dunkl_apply(ctx, xi, p))
    _emit(args, {"system": args.system, "input": str(p), "result": text}, text)
    return 0


def _cmd_laplacian(args) -> int:
    ctx = _context_from_args(args)
    p = _poly_from_args(args, ctx)
    route = {
        "sq": dunkl_laplacian_sq,
        "expr": dunkl_laplacian_expr,
        "invariant": dunkl_laplacian_invariant,
    }[args.route]
    text = str(route(ctx, p))
    _emit(args, {"system": args.system, "route": args.route, "result": text}, text)
    return 0


def _cmd_hobson(args) -> int:
    ctx = _context_from_args(args)
    p = _poly_from_args(args, ctx)
    profile = parse_profile(args.profile) if args.profile else None
    if profile is None:
        raise UsageError("--profile is required")
    lhs = hobson_lhs(ctx, p, profile)
    rhs = hobson_rhs(ctx, p, profile)
    residual = lhs - rhs
    ok = residual.is_zero()
    # each str() of a WeightedFunction computes its canonical form, so format once
    lhs_text, rhs_text = str(lhs), str(rhs)
    payload = {
        "system": args.system,
        "poly": str(p),
        "profile": str(profile),
        "lhs": lhs_text,
        "rhs": rhs_text,
        "residual": "0" if ok else str(residual),
        "status": "pass" if ok else "fail",
    }
    _emit(args, payload, f"lhs = {lhs_text}\nrhs = {rhs_text}\nresidual = {payload['residual']}")
    return 0 if ok else FAILURE_EXIT


def _cmd_project(args) -> int:
    ctx = _context_from_args(args)
    p = _poly_from_args(args, ctx)
    route = clebsch_project_series if args.route == "series" else clebsch_project_maxwell
    result = route(ctx, p)
    text = str(result)
    _emit(args, {"system": args.system, "route": args.route, "result": text}, text)
    return 0


def _cmd_decompose(args) -> int:
    ctx = _context_from_args(args)
    p = _poly_from_args(args, ctx)
    decomposition = harmonic_decompose(ctx, p)
    components = [
        {"norm_power": j, "harmonic": str(h)} for j, h in decomposition.components
    ]
    text = "\n".join(
        f"|x|^{2 * j} * ({h})" for j, h in decomposition.components
    ) or "0"
    _emit(args, {"system": args.system, "components": components}, text)
    return 0


def _cmd_hermite(args) -> int:
    ctx = _context_from_args(args)
    p = _poly_from_args(args, ctx)
    text = str(hermite_poly(ctx, p))
    _emit(args, {"system": args.system, "result": text}, text)
    return 0


def _cmd_pizzetti(args) -> int:
    ctx = _context_from_args(args)
    p = _poly_from_args(args, ctx)
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
        "system": args.system,
        "poly": str(p),
        "value": str(value),
        "oracle": None if oracle_value is None else str(oracle_value),
        "oracle_match": oracle_match,
    }
    _emit(args, payload, str(value))
    if oracle_match is False:
        return INTERNAL_EXIT
    return 0


def _cmd_transform(args) -> int:
    ctx = _context_from_args(args)
    p = _poly_from_args(args, ctx)
    if not args.y:
        raise UsageError("--y is required (comma-separated floats)")
    y = [float(v) for v in args.y.split(",") if v.strip()]
    if len(y) != ctx.dim:
        raise UsageError(f"--y needs {ctx.dim} coordinates")
    if not all(math.isfinite(v) for v in y):
        raise UsageError("--y coordinates must be finite")
    value = dunkl_transform_gauss_poly(ctx, p, y)
    payload = {
        "system": args.system,
        "poly": str(p),
        "y": y,
        "value": [value.real, value.imag],
    }
    text = f"{value.real:+.15e} {value.imag:+.15e}i"
    ok = True
    if p.is_homogeneous() and not p.is_zero():
        residual = hecke_residual(ctx, p, [y])[0]
        payload["hecke_residual"] = residual
        text += f"\nhecke residual = {residual:.3e}"
        ok = residual <= HECKE_TOL
    _emit(args, payload, text)
    return 0 if ok else FAILURE_EXIT


def _cmd_verify(args) -> int:
    requested = args.suite
    if args.tolerance is not None:
        if requested not in ("all", "transforms"):
            raise UsageError(f"--tolerance applies only to transforms, not to {requested}")
        if not 0 < args.tolerance < math.inf:  # also false for nan
            raise UsageError("--tolerance must be finite and positive")
    names = list(SUITES) if requested == "all" else [requested]
    if args.system:
        kappas = tuple(args.kappa.split(",")) if args.kappa else ()
        runs = [(args.system, kappas)]
    else:
        runs = None

    reports = []
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
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dunklcalc",
        description="Exact Dunkl-operator calculus and its verification suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--system", help="catalog name, e.g. z2:d=2, b:d=2, custom:<file>")
        p.add_argument("--kappa", help="comma-separated rational multiplicities, one per orbit")
        p.add_argument("--poly", help="polynomial text, e.g. '3/2*x1^2*x2 - x3'")
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("apply", help="apply a Dunkl operator to a polynomial")
    common(p)
    p.add_argument("--xi", help="direction vector, comma-separated rationals")
    p.set_defaults(fn=_cmd_apply)

    p = sub.add_parser("laplacian", help="apply the Dunkl Laplacian")
    common(p)
    p.add_argument("--route", choices=["sq", "expr", "invariant"], default="sq")
    p.set_defaults(fn=_cmd_laplacian)

    p = sub.add_parser("hobson", help="both sides of the radial expansion of p(D)")
    common(p)
    p.add_argument("--profile", help="radial profile, e.g. 'r^(-3)*exp(-1/2*r^2)'")
    p.set_defaults(fn=_cmd_hobson)

    p = sub.add_parser("project", help="project onto harmonic polynomials")
    common(p)
    p.add_argument("--route", choices=["series", "maxwell"], default="series")
    p.set_defaults(fn=_cmd_project)

    p = sub.add_parser("decompose", help="harmonic decomposition of a homogeneous polynomial")
    common(p)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("hermite", help="generalized Hermite polynomial of p")
    common(p)
    p.set_defaults(fn=_cmd_hermite)

    p = sub.add_parser("pizzetti", help="exact normalized spherical mean")
    common(p)
    p.set_defaults(fn=_cmd_pizzetti)

    p = sub.add_parser("transform", help="transform of poly times Gaussian at a point")
    common(p)
    p.add_argument("--y", help="evaluation point, comma-separated floats")
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--system")
    p.add_argument("--kappa")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deg", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=None,
                   help="override every transforms tolerance (exact suites take none)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--report", help="write the JSON report to this path")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # bad input, or a file it names is unusable
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except InvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return INTERNAL_EXIT
    except (TruncationError, QuadratureError, OverflowError) as exc:
        print(f"error: numeric limit: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
