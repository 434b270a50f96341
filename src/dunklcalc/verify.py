"""Named verification suites with deterministic, JSON-serializable reports.

Each suite checks one family of identities of the calculus on randomized
inputs drawn from a seeded generator, so identical arguments produce byte
identical reports.  A suite is written as a generator of cases,
gen(ctx, rng, **options), and registered with @_suite(name, default_runs);
the one runner it is wrapped in builds the operator context and
random.Random(seed), collects the cases into a VerificationReport, and
raises ValueError on a negative degree, on a degree above the work budget
or on a run that checks nothing.
Exact suites report the literal residual "0" on success and the canonical
form of the offending residual on failure; numeric suites report values
together with absolute and relative defects against per-case tolerances.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .harmonic import (
    MaxwellDegenerateError,
    clebsch_project_maxwell,
    clebsch_project_series,
    gaussian_series_residual,
    harmonic_decompose,
    hermite_poly,
    rodrigues_residual,
)
from .integrate import gaussian_moment, pizzetti_mean, sphere_oracle_z2d
from .operators import (
    DunklContext,
    adjoint_formula_residual,
    check_budget,
    commutator_residual,
    dunkl_laplacian_expr,
    dunkl_laplacian_invariant,
    dunkl_laplacian_sq,
    mult_commutator_residual,
)
from .poly import (
    Poly,
    as_coeff,
    classical_laplacian,
    compose_reflection,
    homogeneous_components,
    linear_combination,
    norm_sq_poly,
)
from .radial import RadialProfile, WeightedFunction, hobson_residual
from .roots import build_root_system
from .transform import (
    dunkl_kernel_z2d,
    dunkl_transform_gauss_poly,
    hankel_identity_residual,
    hankel_numeric,
    hecke_residual,
    hermite_eigen_residual,
    kernel_eigen_residual,
    kernel_recursion_residual,
    relative_defect,
    sphere_pairing,
    sphere_pairing_residual,
    transform_multiplication_residual,
    z2_kappas,
)
from .util import pochhammer


@dataclass
class CaseResult:
    name: str
    status: str  # pass | fail | skipped
    residual: str | float
    detail: str = ""
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "status": self.status,
            "residual": self.residual,
            "detail": self.detail,
        }
        out.update(self.extras)
        return out


@dataclass
class VerificationReport:
    suite: str
    system: str
    seed: int
    cases: list[CaseResult]
    tolerance: float | None = None

    @property
    def passed(self) -> bool:
        return all(case.status != "fail" for case in self.cases)

    def to_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "system": self.system,
            "seed": self.seed,
            "passed": self.passed,
        }
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        out["cases"] = [c.to_dict() for c in sorted(self.cases, key=lambda c: c.name)]
        return out

    def summary(self) -> str:
        n_pass = sum(c.status == "pass" for c in self.cases)
        n_fail = sum(c.status == "fail" for c in self.cases)
        n_skip = sum(c.status == "skipped" for c in self.cases)
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"[{verdict}] suite={self.suite} system={self.system} "
            f"pass={n_pass} fail={n_fail} skipped={n_skip}"
        )


# -- shared helpers ----------------------------------------------------------

# Operator contexts by (system, kappas), shared by the runs of a process;
# cleared when full, so it stays bounded.  The default runs of all suites
# use 20 contexts.
_CONTEXTS: dict[tuple[str, tuple[str, ...] | None], DunklContext] = {}
_CONTEXTS_MAX = 256


def get_context(system: str, kappas: Sequence | None) -> DunklContext:
    """Build (and cache) the operator context for a named system.

    kappas None takes the multiplicities of a custom: file.
    """
    key = (system, None if kappas is None else tuple(str(k) for k in kappas))
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        ctx = DunklContext(build_root_system(system, key[1]))
        if len(_CONTEXTS) >= _CONTEXTS_MAX:
            _CONTEXTS.clear()
        _CONTEXTS[key] = ctx
    return ctx


def _zero_kappa_context(ctx: DunklContext) -> DunklContext:
    zeros = (Fraction(0),) * len(ctx.rs.multiplicities)
    return DunklContext(replace(ctx.rs, multiplicities=zeros))


@functools.cache
def monomials_of_degree(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """The exponents of degree `degree` in `dim` variables, sorted.

    Cached per (dim, degree): random_homogeneous draws from the same list
    thousands of times per battery, and the suite runner's degree budget
    keeps the keys few.
    """
    if degree == 0:
        return ((0,) * dim,)
    out = []
    for combo in itertools.combinations_with_replacement(range(dim), degree):
        e = [0] * dim
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return tuple(sorted(set(out)))


# c / den as poly.as_coeff types it, per (c, den) that _random_terms draws
_NUMERATORS = (-4, -3, -2, -1, 1, 2, 3, 4)
_DENOMINATORS = (1, 1, 2, 3)
_COEFFS = {(c, den): as_coeff(Fraction(c, den)) for c in _NUMERATORS for den in _DENOMINATORS}


def _random_terms(rng: random.Random, dim: int, degree: int, max_terms: int) -> dict:
    """The term dict of random_homogeneous: one numerator, then one denominator, per pick."""
    monos = monomials_of_degree(dim, degree)
    count = min(len(monos), rng.randint(1, max_terms))
    return {e: _COEFFS[rng.choice(_NUMERATORS), rng.choice(_DENOMINATORS)]
            for e in rng.sample(monos, count)}


def random_homogeneous(rng: random.Random, dim: int, degree: int, max_terms: int = 4) -> Poly:
    return Poly(dim, _random_terms(rng, dim, degree, max_terms))


def random_poly(rng: random.Random, dim: int, max_degree: int) -> Poly:
    """Up to three random homogeneous parts of distinct degrees, merged into one Poly."""
    terms: dict = {}
    for degree in rng.sample(range(max_degree + 1), min(3, max_degree + 1)):
        terms.update(_random_terms(rng, dim, degree, 4))
    return Poly(dim, terms) if terms else Poly.const(dim, 1)


def random_direction(rng: random.Random, dim: int) -> tuple[Fraction, ...]:
    while True:
        vec = tuple(
            Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2])) for _ in range(dim)
        )
        if any(vec):
            return vec


def _zero_case(name: str, residual: Poly | WeightedFunction, detail: str = "") -> CaseResult:
    """Exact case: passes when the residual is literally zero."""
    if residual.is_zero():
        return CaseResult(name, "pass", "0", detail)
    return CaseResult(name, "fail", str(residual), detail)


def _equal_case(name: str, got, want, detail: str = "") -> CaseResult:
    if got == want:
        return CaseResult(name, "pass", "0", detail)
    return CaseResult(name, "fail", f"{got} != {want}", detail)


# -- registry ----------------------------------------------------------------

Run = tuple[str, tuple[str, ...]]
Cases = Iterator[CaseResult]
SuiteFn = Callable[..., VerificationReport]

# Suites by name in definition order, and their default runs.
SUITES: dict[str, SuiteFn] = {}
_DEFAULT_RUNS: dict[str, list[Run]] = {}

# Default runs per suite when no system is requested on the command line.
EXACT_DEFAULT_RUNS: list[Run] = [
    ("z2:d=1", ("1/2",)),
    ("z2:d=2", ("1", "3/2")),
    ("z2:d=2", ("0", "0")),
    ("z2:d=3", ("1/2", "0", "2")),
    ("a:d=3", ("1",)),
    ("b:d=2", ("1", "2")),
    ("b:d=3", ("3/2", "1/2")),
    ("d:d=4", ("1/2",)),
]

TRANSFORM_DEFAULT_RUNS: list[Run] = [
    ("z2:d=1", ("0",)),
    ("z2:d=1", ("1/2",)),
    ("z2:d=1", ("1",)),
    ("z2:d=1", ("3/2",)),
    ("z2:d=2", ("0", "0")),
    ("z2:d=2", ("1/2", "1",)),
    ("z2:d=2", ("3/2", "0",)),
    ("z2:d=2", ("1", "3/2",)),
]

PIZZETTI_DEFAULT_RUNS: list[Run] = [
    ("z2:d=1", ("0",)),
    ("z2:d=1", ("1/2",)),
    ("z2:d=1", ("2",)),
    ("z2:d=2", ("1", "0")),
    ("z2:d=2", ("1/2", "3/2")),
    ("z2:d=3", ("1", "1/2", "0")),
    ("z2:d=3", ("2", "3/2", "1")),
    ("z2:d=4", ("1/2", "0", "1", "3/2")),
    ("z2:d=4", ("2", "1/2", "0", "1")),
]


def _suite(name: str, runs: list[Run]) -> Callable[[Callable[..., Cases]], SuiteFn]:
    """Register the case generator gen(ctx, rng, **options) as suite name.

    The registered function is called as (system, kappas, *, seed=0,
    **options).  It builds the context and random.Random(seed), collects
    the cases that gen yields and returns their report, on which a
    tolerance option is recorded.  A negative degree, or a run that yields
    no case, raises ValueError: a run that checks nothing must not pass.
    So does a degree whose expansions would exceed the work budget of
    operators.check_budget, before the generator runs.
    """

    def register(gen: Callable[..., Cases]) -> SuiteFn:
        def run(system: str, kappas: Sequence, *, seed: int = 0, **options) -> VerificationReport:
            if options.get("degree", 0) < 0:
                raise ValueError(f"degree must be non-negative, got {options['degree']}")
            ctx = get_context(system, kappas)
            if "degree" in options:
                check_budget(ctx, options["degree"])
            cases = list(gen(ctx, random.Random(seed), **options))
            if not cases:
                raise ValueError(f"suite {name} checked no case")
            return VerificationReport(
                name, system, seed, cases, tolerance=options.get("tolerance")
            )

        run.__name__ = run.__qualname__ = gen.__name__
        run.__doc__ = gen.__doc__
        SUITES[name] = run
        _DEFAULT_RUNS[name] = runs
        return run

    return register


def default_runs(suite: str) -> list[Run]:
    return _DEFAULT_RUNS[suite]


# -- exact suites ------------------------------------------------------------


@_suite("hobson", EXACT_DEFAULT_RUNS)
def hobson_suite(ctx: DunklContext, rng: random.Random, degree: int = 6) -> Cases:
    """Radial expansion of p(D): residual must be exactly zero.

    Runs every supported profile shape against 8 random homogeneous
    polynomials: one of each degree up to the bound (at most 7), then
    random degrees.
    """
    lam = ctx.bessel_index
    profiles = [
        ("r^2", RadialProfile.power(2)),
        ("r^4", RadialProfile.power(4)),
        ("r^(7-2)", RadialProfile.power(Fraction(7, 2))),
        ("r^(-2lam)", RadialProfile.power(-2 * lam)),
        ("gauss-half", RadialProfile.gaussian(Fraction(-1, 2))),
        ("gauss-one", RadialProfile.gaussian(-1)),
        ("r^3*gauss-one", RadialProfile.power_gauss(3, -1)),
    ]
    for pname, profile in profiles:
        degrees = list(range(min(degree, 7) + 1))
        while len(degrees) < 8:
            degrees.append(rng.randint(min(1, degree), degree))
        for i, m in enumerate(degrees):
            p = random_homogeneous(rng, ctx.dim, m)
            res = hobson_residual(ctx, p, profile)
            yield _zero_case(f"{pname}/{i:02d}-deg{m}", res, detail=f"p={p}, profile={profile}")


@_suite("commutativity", EXACT_DEFAULT_RUNS)
def commutativity_suite(ctx: DunklContext, rng: random.Random, degree: int = 6) -> Cases:
    """Pairwise commutativity of the operators in 15 random direction pairs."""
    for i in range(15):
        xi = random_direction(rng, ctx.dim)
        eta = random_direction(rng, ctx.dim)
        p = random_poly(rng, ctx.dim, degree)
        res = commutator_residual(ctx, xi, eta, p)
        yield _zero_case(f"pair/{i:02d}", res, detail=f"xi={xi}, eta={eta}")
    p = random_poly(rng, ctx.dim, degree)
    xi = random_direction(rng, ctx.dim)
    yield _zero_case("equal-directions", commutator_residual(ctx, xi, xi, p))


@_suite("laplacian-routes", EXACT_DEFAULT_RUNS)
def laplacian_routes_suite(
    ctx: DunklContext, rng: random.Random, degree: int = 6, count: int = 100
) -> Cases:
    """Squared-operator route against the explicit second-order expression."""
    for i in range(count):
        p = random_poly(rng, ctx.dim, degree)
        res = dunkl_laplacian_sq(ctx, p) - dunkl_laplacian_expr(ctx, p)
        yield _zero_case(f"routes/{i:03d}", res)
    zero_ctx = _zero_kappa_context(ctx)
    for i in range(5):
        p = random_poly(rng, ctx.dim, degree)
        res = dunkl_laplacian_sq(zero_ctx, p) - classical_laplacian(p)
        yield _zero_case(f"classical-limit/{i}", res)
    r2 = norm_sq_poly(ctx.dim)
    invariant = Poly.const(ctx.dim, 1)
    for j in range(1, 4):
        invariant = invariant * r2
        res = dunkl_laplacian_sq(ctx, invariant) - dunkl_laplacian_invariant(ctx, invariant)
        yield _zero_case(f"invariant-restriction/r^{2 * j}", res)


@_suite("laplacian-commutator", EXACT_DEFAULT_RUNS)
def laplacian_commutator_suite(
    ctx: DunklContext, rng: random.Random, degree: int = 4
) -> Cases:
    """[Lap^j, x_l .] = 2 j D_l Lap^(j-1) on random polynomials, j <= 3."""
    for power in (1, 2, 3):
        for coord in range(ctx.dim):
            p = random_poly(rng, ctx.dim, degree)
            res = mult_commutator_residual(ctx, power, coord, p)
            yield _zero_case(f"power{power}/x{coord + 1}", res, detail=f"p={p}")


@_suite("adjoint-formula", EXACT_DEFAULT_RUNS)
def adjoint_formula_suite(
    ctx: DunklContext, rng: random.Random, degree: int = 4
) -> Cases:
    """p(D) against the iterated half-Laplacian commutator form, m <= 4."""
    for m in range(degree + 1):
        p = random_homogeneous(rng, ctx.dim, m, max_terms=3)
        target = random_poly(rng, ctx.dim, 4)
        yield _zero_case(f"deg{m}", adjoint_formula_residual(ctx, p, target), detail=f"p={p}")
    res = adjoint_formula_residual(ctx, norm_sq_poly(ctx.dim), random_poly(rng, ctx.dim, 4))
    yield _zero_case("norm-square", res)


@_suite("projection", EXACT_DEFAULT_RUNS)
def projection_suite(ctx: DunklContext, rng: random.Random, degree: int = 5) -> Cases:
    """Harmonicity, idempotence, route agreement, and decomposition."""
    lam = ctx.bessel_index
    r2 = norm_sq_poly(ctx.dim)
    for m in range(degree + 1):
        for i in range(2):
            p = random_homogeneous(rng, ctx.dim, m, max_terms=3)
            name = f"deg{m}/{i}"
            layers = harmonic_decompose(ctx, p)
            # level 0 of the decomposition is the projection of p itself
            h = dict(layers).get(0, Poly.zero(ctx.dim))
            yield _zero_case(f"{name}/harmonic", dunkl_laplacian_sq(ctx, h))
            yield _zero_case(f"{name}/idempotent", clebsch_project_series(ctx, h) - h)
            if lam == 0 and m >= 1:
                yield CaseResult(
                    f"{name}/maxwell",
                    "skipped",
                    "0",
                    "Maxwell route degenerates at Bessel index 0; series "
                    "route is normative",
                )
            else:
                try:
                    case = _zero_case(f"{name}/maxwell", clebsch_project_maxwell(ctx, p) - h)
                except (ArithmeticError, MaxwellDegenerateError) as exc:
                    case = CaseResult(f"{name}/maxwell", "fail", str(exc), f"p={p}")
                yield case
            recomposed = linear_combination(ctx.dim, ((1, r2**j * h_j) for j, h_j in layers))
            yield _zero_case(
                f"{name}/recompose", recomposed - p, detail=f"{len(layers)} components"
            )
            for j, component in layers:
                yield _zero_case(
                    f"{name}/component{j}-harmonic", dunkl_laplacian_sq(ctx, component)
                )


@_suite("pizzetti", PIZZETTI_DEFAULT_RUNS)
def pizzetti_suite(ctx: DunklContext, rng: random.Random, degree: int = 8) -> Cases:
    """Spherical-mean series against the Dirichlet oracle and invariances."""
    try:
        coordinate_kappas = z2_kappas(ctx.rs)
    except ValueError:
        coordinate_kappas = None

    if coordinate_kappas is not None:
        half = degree // 2
        for beta in itertools.product(range(half + 1), repeat=ctx.dim):
            if sum(beta) > half:
                continue
            exponents = tuple(2 * b for b in beta)
            mean = pizzetti_mean(ctx, Poly.monomial(ctx.dim, exponents))
            oracle = sphere_oracle_z2d(coordinate_kappas, exponents)
            label = "x^(" + ",".join(str(e) for e in exponents) + ")"
            yield _equal_case(f"oracle/{label}", mean, oracle, detail=f"mean={mean}")
        for i in range(3):
            exponents = [rng.choice([0, 1, 2, 3]) for _ in range(ctx.dim)]
            if all(e % 2 == 0 for e in exponents):
                exponents[0] += 1
            mean = pizzetti_mean(ctx, Poly.monomial(ctx.dim, tuple(exponents)))
            yield _equal_case(f"odd/{i}", mean, Fraction(0))

    zero_ctx = _zero_kappa_context(ctx)
    for a in range(degree // 2 + 1):
        e = [0] * ctx.dim
        e[0] = 2 * a
        mean = pizzetti_mean(zero_ctx, Poly.monomial(ctx.dim, tuple(e)))
        classical = pochhammer(Fraction(1, 2), a) / pochhammer(Fraction(ctx.dim, 2), a)
        yield _equal_case(f"classical/x1^{2 * a}", mean, classical)

    for i in range(4):
        p = random_poly(rng, ctx.dim, min(degree, 6))
        mean = pizzetti_mean(ctx, p)
        for k, action in enumerate(ctx.rs.reflections):
            reflected = pizzetti_mean(ctx, compose_reflection(p, action))
            yield _equal_case(f"invariance/{i}/root{k}", reflected, mean)

    lam = ctx.bessel_index
    for i in range(4):
        p = random_poly(rng, ctx.dim, min(degree, 6))
        lhs = gaussian_moment(ctx, p)
        rhs = Fraction(0)
        for d_part, component in homogeneous_components(p):
            if d_part % 2 == 0:
                l = d_part // 2
                rhs += pizzetti_mean(ctx, component) * 2**l * pochhammer(lam + 1, l)
        yield _equal_case(f"gaussian-consistency/{i}", lhs, rhs)

    yield _equal_case(
        "sign-convention", pizzetti_mean(ctx, norm_sq_poly(ctx.dim)), 1,
        "series implemented with positive coefficients 1/(4^l l! (lam+1)_l); "
        "forced by the exact Dirichlet oracle and by positivity of means of "
        "even monomials, and matches the classical unweighted limit",
    )


@_suite("hermite", EXACT_DEFAULT_RUNS)
def hermite_suite(ctx: DunklContext, rng: random.Random, degree: int = 5) -> Cases:
    """Rodrigues form, Gaussian expansion, and fixed points on harmonics."""
    for m in range(degree + 1):
        p = random_homogeneous(rng, ctx.dim, m, max_terms=3)
        yield _zero_case(f"rodrigues/deg{m}", rodrigues_residual(ctx, p), f"p={p}")
        yield _zero_case(f"gauss-series/deg{m}", gaussian_series_residual(ctx, p), f"p={p}")
        h = clebsch_project_series(ctx, p)
        if not h.is_zero():
            yield _zero_case(f"fixed-on-harmonic/deg{m}", hermite_poly(ctx, h) - h)


@_suite("mean-value", EXACT_DEFAULT_RUNS)
def mean_value_suite(ctx: DunklContext, rng: random.Random, degree: int = 4) -> Cases:
    """Spherical mean of projected harmonics equals the value at the origin."""
    for m in range(degree + 1):
        for i in range(2):
            p = random_homogeneous(rng, ctx.dim, m, max_terms=3)
            h = clebsch_project_series(ctx, p)
            name = f"deg{m}/{i}"
            if h.is_zero():
                yield CaseResult(name, "skipped", "0", "projection is zero")
            else:
                mean = pizzetti_mean(ctx, h)
                yield _equal_case(name, mean, h.constant_term(), detail=f"h={h}")


# -- numeric transform suite -------------------------------------------------

SPHERE_TOL = 1e-9
HECKE_TOL = 1e-8
HERMITE_TOL = 1e-8
KERNEL_TOL = 1e-12
HANKEL_FIXED_TOL = 1e-10
RADIAL_IDENTITY_TOL = 1e-8
MULTIPLICATION_TOL = 1e-8
DOUBLING_TOL = 1e-12

_GRIDS = {
    1: [(0.0,), (0.5,), (1.0,), (2.0,), (3.5,), (5.0,)],
    2: [(0.0, 0.0), (0.5, 0.0), (1.0, 1.0), (2.0, 1.0), (0.0, 2.5), (3.0, 4.0)],
}


@_suite("transforms", TRANSFORM_DEFAULT_RUNS)
def transforms_suite(
    ctx: DunklContext, rng: random.Random, degree: int = 4, tolerance: float | None = None
) -> Cases:
    """Numeric verification battery for sign-flip systems (d = 1 or 2)."""
    coordinate_kappas = z2_kappas(ctx.rs)
    if ctx.dim not in _GRIDS:
        raise ValueError("transform suite supports dimensions 1 and 2")
    grid = _GRIDS[ctx.dim]

    def case(
        name: str, residual: float, default_tol: float, kind: str = "abs",
        detail: str = "", **extras,
    ) -> CaseResult:
        """Numeric case; kind says whether the residual is absolute or relative."""
        tol = tolerance if tolerance is not None else default_tol
        extras.update(
            abs_residual=residual if kind == "abs" else None,
            rel_residual=residual if kind == "rel" else None,
            tolerance_used=tol,
        )
        return CaseResult(name, "pass" if residual <= tol else "fail", residual, detail, extras)

    # Kernel sanity: zero multiplicity reduces to the exponential.
    worst = 0.0
    zero_kappas = tuple(Fraction(0) for _ in range(ctx.dim))
    for xv, yv in itertools.product((-2.0, -1.0, 0.0, 1.0, 2.0), repeat=2):
        x = (xv,) * ctx.dim
        y = (yv,) * ctx.dim
        kernel = dunkl_kernel_z2d(zero_kappas, x, y)
        exact = math.exp(sum(a * b for a, b in zip(x, y)))
        worst = max(worst, relative_defect(kernel, exact))
    yield case("kernel/exponential-limit", worst, KERNEL_TOL, "rel")

    worst = max(
        abs(dunkl_kernel_z2d(coordinate_kappas, (0.0,) * ctx.dim, y) - 1.0)
        for y in grid
    )
    yield case("kernel/value-at-zero", worst, KERNEL_TOL)

    for j, kappa in enumerate(coordinate_kappas):
        res = kernel_recursion_residual(kappa, 60)
        yield case(f"kernel/recursion/coord{j + 1}", res, KERNEL_TOL, "rel")
        worst = max(
            kernel_eigen_residual(kappa, xv, yv)
            for xv in (0.5, 1.0, 2.0)
            for yv in (0.5, 1.5)
        )
        yield case(f"kernel/eigen-property/coord{j + 1}", worst, KERNEL_TOL, "rel")

    # Spherical pairing identity.  The profile cases take p = 1 and the
    # harmonic x1 (d = 1) or x1*x2 (d = 2), whose Bessel side is one term.
    test_polys = []
    for m in range(degree + 1):
        if ctx.dim == 1:
            test_polys.append((m, Poly.monomial(1, (m,))))
        else:
            test_polys.append((m, random_homogeneous(rng, ctx.dim, m, max_terms=3)))
    one = Poly.const(ctx.dim, 1)
    sphere_polys = [(f"deg{m}", p) for m, p in test_polys] + [
        ("bessel-profile", one), ("harmonic-profile", Poly.monomial(ctx.dim, (1,) * ctx.dim)),
    ]
    for label, p in sphere_polys:
        for i, (y, res) in enumerate(zip(grid, sphere_pairing_residual(ctx, p, grid))):
            yield case(f"sphere/{label}/y{i}", res, SPHERE_TOL, detail=f"p={p}, y={y}")

    # Pizzetti by substituting the origin.
    even = norm_sq_poly(ctx.dim)
    res = abs(
        sphere_pairing(ctx, even, (0.0,) * ctx.dim) - float(pizzetti_mean(ctx, even))
    )
    yield case("sphere/origin-mean", res, SPHERE_TOL)

    # Gaussian transform: fixed point and Bochner-Hecke.  The relative-error
    # form of the fixed point is checked where double precision can support
    # it: the value decays like exp(-|y|^2/2) while the summation noise grows
    # like exp(+|y|^2/2), so beyond |y| ~ 3 only the absolute residuals
    # (covered by the degree-0 Bochner-Hecke cases) remain meaningful.
    for i, y in enumerate(grid):
        if math.sqrt(sum(v * v for v in y)) > 3.0:
            continue
        lhs = dunkl_transform_gauss_poly(ctx, one, y)
        rhs = math.exp(-sum(v * v for v in y) / 2.0)
        yield case(
            f"gauss/fixed-point/y{i}", relative_defect(lhs, rhs), 1e-10, "rel",
            lhs=[lhs.real, lhs.imag], rhs=[rhs, 0.0],
        )
    for m, p in test_polys:
        for i, (y, res) in enumerate(zip(grid, hecke_residual(ctx, p, grid))):
            yield case(f"hecke/deg{m}/y{i}", res, HECKE_TOL, detail=f"p={p}, y={y}")
        for i, (y, res) in enumerate(zip(grid, hermite_eigen_residual(ctx, p, grid))):
            yield case(f"hermite-eigen/deg{m}/y{i}", res, HERMITE_TOL, detail=f"p={p}, y={y}")

    # Hankel transform: Gaussian fixed point and the radial multiplier form.
    nu = float(ctx.bessel_index)

    def gauss(r: float) -> float:
        return math.exp(-r * r / 2.0)

    for s in (0.5, 1.0, 2.0, 3.0):
        value = hankel_numeric(gauss, nu, s, tol=1e-13)
        expected = gauss(s)
        yield case(
            f"hankel/gauss-fixed/s{s}", relative_defect(value, expected), HANKEL_FIXED_TOL,
            "rel", lhs=[value, 0.0], rhs=[expected, 0.0],
        )
    value = hankel_numeric(gauss, nu, 0.0, tol=1e-13)
    yield case("hankel/zero-limit", abs(value - 1.0), HANKEL_FIXED_TOL)
    p = Poly.variable(ctx.dim, 1)
    y_point = (1.0,) + (0.0,) * (ctx.dim - 1)
    res = hankel_identity_residual(ctx, p, 1, y_point)
    yield case("hankel/radial-multiplier", res, RADIAL_IDENTITY_TOL, detail="p=x1")

    # Multiplication rule (one-dimensional statement).
    if ctx.dim == 1:
        mult_grid = [0.5, 1.0, 2.0]
        for label, kap, q in (
            ("kappa0-gauss", "0", Poly.const(1, 1)),
            ("kappa-half-gauss", "1/2", Poly.const(1, 1)),
            ("kappa1-x2gauss", "1", Poly.monomial(1, (2,))),
        ):
            small_ctx = get_context("z2:d=1", (kap,))
            res = transform_multiplication_residual(small_ctx, q, mult_grid)
            yield case(f"multiplication/{label}", res, MULTIPLICATION_TOL)
        res = transform_multiplication_residual(ctx, Poly.monomial(1, (1,)), mult_grid)
        yield case("multiplication/run-kappa", res, MULTIPLICATION_TOL)

    # Truncation-doubling stability, probed on values that stay away from
    # zero (the constant and the first coordinate) so relative comparison
    # is meaningful.
    y_small = tuple(2.0 / math.sqrt(ctx.dim) for _ in range(ctx.dim))
    for label, p_stab in (("one", one), ("x1", Poly.variable(ctx.dim, 1))):
        for name, series, order in (
            ("gauss", dunkl_transform_gauss_poly, 60), ("sphere", sphere_pairing, 40)
        ):
            rel = relative_defect(
                series(ctx, p_stab, y_small, n_terms=order),
                series(ctx, p_stab, y_small, n_terms=2 * order),
            )
            yield case(f"stability/{name}-doubling/{label}", rel, DOUBLING_TOL, "rel")
    k1 = dunkl_kernel_z2d(coordinate_kappas, (1.0,) * ctx.dim, y_small, n_terms=40)
    k2 = dunkl_kernel_z2d(coordinate_kappas, (1.0,) * ctx.dim, y_small, n_terms=80)
    yield case("stability/kernel-doubling", relative_defect(k1, k2), DOUBLING_TOL, "rel")
