import math
import random
from fractions import Fraction

import pytest

from dunklcalc.harmonic import (
    MaxwellDegenerateError,
    _gaussian_walk_residual,
    clebsch_project_maxwell,
    clebsch_project_series,
    gaussian_series_residual,
    harmonic_decompose,
    hermite_poly,
    rodrigues_residual,
)
from dunklcalc.operators import DunklContext, dunkl_laplacian_sq
from dunklcalc.poly import (
    Poly,
    divide_exact_by_norm_sq,
    linear_combination,
    norm_sq_poly,
    parse_poly,
)
from dunklcalc.roots import build_root_system
from dunklcalc.util import pochhammer
from dunklcalc.verify import EXACT_DEFAULT_RUNS, monomials_of_degree, random_homogeneous

Q = Fraction


def make_ctx(system, kappas):
    return DunklContext(build_root_system(system, kappas))


SYSTEMS = [
    ("z2:d=1", ["1/2"]),
    ("z2:d=2", ["1", "3/2"]),
    ("a:d=3", ["1"]),
    ("b:d=2", ["1", "2"]),
]


def test_projection_classical_example():
    ctx = make_ctx("z2:d=2", ["0", "0"])
    proj = clebsch_project_series(ctx, parse_poly("x1^2", 2))
    assert proj == parse_poly("1/2*x1^2 - 1/2*x2^2", 2)


def test_projection_rank_one_degree_two_is_zero():
    # in one variable only degrees 0 and 1 carry harmonics
    for kappa in (Q(0), Q(1, 2), Q(2)):
        ctx = make_ctx("z2:d=1", [kappa])
        assert clebsch_project_series(ctx, parse_poly("x1^2", 1)).is_zero()


def test_projection_fixes_harmonics_and_is_idempotent():
    rng = random.Random(41)
    for system, kappas in SYSTEMS:
        ctx = make_ctx(system, kappas)
        for m in range(5):
            p = random_homogeneous(rng, ctx.dim, m, max_terms=3)
            h = clebsch_project_series(ctx, p)
            assert dunkl_laplacian_sq(ctx, h).is_zero()
            assert clebsch_project_series(ctx, h) == h


def test_maxwell_route_matches_series():
    rng = random.Random(43)
    for system, kappas in SYSTEMS:
        ctx = make_ctx(system, kappas)
        if ctx.bessel_index == 0:
            continue
        for m in range(5):
            p = random_homogeneous(rng, ctx.dim, m, max_terms=3)
            assert clebsch_project_maxwell(ctx, p) == clebsch_project_series(ctx, p)


def test_maxwell_degenerate_at_zero_index():
    # kappa = 0 in two variables has Bessel index zero
    ctx = make_ctx("z2:d=2", ["0", "0"])
    with pytest.raises(MaxwellDegenerateError):
        clebsch_project_maxwell(ctx, parse_poly("x1^2", 2))
    # degree zero stays fine
    assert clebsch_project_maxwell(ctx, Poly.const(2, 3)) == Poly.const(2, 3)


def test_harmonic_decompose_example():
    ctx = make_ctx("z2:d=2", ["0", "0"])
    assert harmonic_decompose(ctx, parse_poly("x1^2", 2)) == [
        (0, parse_poly("1/2*x1^2 - 1/2*x2^2", 2)),
        (1, Poly.const(2, Q(1, 2))),
    ]
    assert harmonic_decompose(ctx, norm_sq_poly(2)) == [(1, Poly.const(2, 1))]


def test_harmonic_decompose_recomposes_exactly():
    rng = random.Random(47)
    for system, kappas in SYSTEMS:
        ctx = make_ctx(system, kappas)
        for m in range(6):
            p = random_homogeneous(rng, ctx.dim, m, max_terms=4)
            layers = harmonic_decompose(ctx, p)
            r2 = norm_sq_poly(ctx.dim)
            assert linear_combination(ctx.dim, ((1, r2**j * h) for j, h in layers)) == p
            for j, h in layers:
                assert dunkl_laplacian_sq(ctx, h).is_zero()
                assert h.is_homogeneous() and h.degree() == m - 2 * j


def test_hermite_examples():
    for kappa in (Q(0), Q(1, 2), Q(2)):
        ctx = make_ctx("z2:d=1", [kappa])
        h = hermite_poly(ctx, parse_poly("x1^2", 1))
        assert h == parse_poly("x1^2", 1) - Poly.const(1, Q(1 + 2 * kappa, 2))
    ctx = make_ctx("b:d=2", ["1", "2"])
    assert hermite_poly(ctx, Poly.const(2, 1)) == Poly.const(2, 1)


def test_hermite_fixes_harmonics():
    rng = random.Random(53)
    for system, kappas in SYSTEMS:
        ctx = make_ctx(system, kappas)
        for m in range(5):
            h = clebsch_project_series(ctx, random_homogeneous(rng, ctx.dim, m))
            if not h.is_zero():
                assert hermite_poly(ctx, h) == h


def test_rodrigues_residual_zero():
    rng = random.Random(59)
    for system, kappas in SYSTEMS:
        ctx = make_ctx(system, kappas)
        for m in range(5):
            p = random_homogeneous(rng, ctx.dim, m, max_terms=3)
            assert rodrigues_residual(ctx, p).is_zero(), (system, str(p))
        assert rodrigues_residual(ctx, Poly.const(ctx.dim, 1)).is_zero()


def test_gaussian_series_residual_zero():
    rng = random.Random(61)
    for system, kappas in SYSTEMS:
        ctx = make_ctx(system, kappas)
        for m in range(5):
            p = random_homogeneous(rng, ctx.dim, m, max_terms=3)
            assert gaussian_series_residual(ctx, p).is_zero(), (system, str(p))


@pytest.mark.parametrize("system, kappas", EXACT_DEFAULT_RUNS)
def test_gaussian_walk_holds_at_rates_the_package_does_not_use(system, kappas):
    # Rodrigues and the Gaussian expansion are the rates -1 and -1/2 of one body
    ctx = make_ctx(system, kappas)
    rng = random.Random(67)
    polys = [Poly.zero(ctx.dim)] + [random_homogeneous(rng, ctx.dim, m) for m in range(5)]
    for p in polys:
        for rate in (Q(-2), Q(-1, 3)):
            assert _gaussian_walk_residual(ctx, p, rate).is_zero(), (rate, str(p))


def test_radial_norm_power_identity():
    # Lap |x|^s = s (s + 2 lam) |x|^(s-2) in the weighted calculus,
    # and the negative power at -2 lam is annihilated.
    from dunklcalc.radial import RadialProfile, WeightedFunction, hobson_lhs

    for system, kappas in SYSTEMS:
        ctx = make_ctx(system, kappas)
        lam = ctx.bessel_index
        for s in (Q(2), Q(4), Q(7, 2), Q(-1, 3), -2 * lam):
            image = hobson_lhs(ctx, norm_sq_poly(ctx.dim), RadialProfile.power(s))
            expected = WeightedFunction(
                ctx.dim,
                [(Poly.const(ctx.dim, s * (s + 2 * lam)), RadialProfile.power(s - 2))],
            )
            assert image == expected, (system, s)


def _exact_rank(vectors):
    rows = [list(v) for v in vectors if any(v)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    pivot_col = 0
    while rows and pivot_col < cols:
        pivot = next((i for i, r in enumerate(rows) if r[pivot_col]), None)
        if pivot is None:
            pivot_col += 1
            continue
        rows[0], rows[pivot] = rows[pivot], rows[0]
        head = rows[0]
        for r in rows[1:]:
            if r[pivot_col]:
                factor = r[pivot_col] / head[pivot_col]
                for j in range(pivot_col, cols):
                    r[j] -= factor * head[j]
        rows = [r for r in rows[1:] if any(r)]
        rank += 1
        pivot_col += 1
    return rank


def _coeff_vector(p, basis):
    return [p.terms.get(e, Q(0)) for e in basis]


def test_projection_surjectivity_rank():
    # the projected monomial basis spans the full harmonic subspace:
    # rank(proj images) == dim P_m - rank(Lap restricted to P_m)
    for system, kappas in SYSTEMS:
        ctx = make_ctx(system, kappas)
        for m in range(1, 5):
            basis_m = monomials_of_degree(ctx.dim, m)
            target_basis = monomials_of_degree(ctx.dim, m - 2) if m >= 2 else []
            images = []
            lap_rows = []
            for e in basis_m:
                mono = Poly.monomial(ctx.dim, e)
                images.append(_coeff_vector(clebsch_project_series(ctx, mono), basis_m))
                if m >= 2:
                    lap_rows.append(
                        _coeff_vector(dunkl_laplacian_sq(ctx, mono), target_basis)
                    )
            lap_rank = _exact_rank(lap_rows) if m >= 2 else 0
            harmonic_dim = len(basis_m) - lap_rank
            assert _exact_rank(images) == harmonic_dim, (system, m)


def test_projection_series_denominators_never_vanish():
    # provable consequence of Bessel index >= -1/2; exercise the boundary
    ctx = make_ctx("z2:d=1", ["0"])  # lam = -1/2
    for m in range(1, 9):
        p = Poly.monomial(1, (m,))
        h = clebsch_project_series(ctx, p)  # must not raise
        assert dunkl_laplacian_sq(ctx, h).is_zero()


def test_projection_suite_projects_each_input_once(monkeypatch):
    # Each of the 12 inputs costs one projection for idempotence and one in
    # the Maxwell cross-check; the decomposition reads its layers off one
    # Laplacian-power list, and the suite must not project p again itself.
    import dunklcalc.harmonic
    import dunklcalc.verify

    calls = []
    original = dunklcalc.harmonic.clebsch_project_series

    def counting(ctx, p):
        calls.append(p)
        return original(ctx, p)

    monkeypatch.setattr(dunklcalc.harmonic, "clebsch_project_series", counting)
    monkeypatch.setattr(dunklcalc.verify, "clebsch_project_series", counting)
    report = dunklcalc.verify.projection_suite("b:d=2", ("1", "2"), seed=0)
    assert report.passed
    assert len(calls) == 24


# -- the decomposition against the peeling loop it replaced -------------------


def peeled_projection(ctx, p):
    """The series projection of homogeneous p, built on its own power list."""
    m = p.degree()
    lam = ctx.bessel_index
    r2 = norm_sq_poly(ctx.dim)
    pairs, lap_power = [(1, p)], p
    for j in range(1, m // 2 + 1):
        lap_power = dunkl_laplacian_sq(ctx, lap_power)
        denominator = 4**j * math.factorial(j) * pochhammer(-lam - m + 1, j)
        pairs.append((1 / denominator, r2**j * lap_power))
    return linear_combination(ctx.dim, pairs)


def peeled_components(ctx, p):
    """Project, subtract the harmonic part, divide by |x|^2, repeat."""
    components = []
    current, j = p, 0
    while not current.is_zero():
        h = peeled_projection(ctx, current)
        if not h.is_zero():
            components.append((j, h))
        remainder = current - h
        if remainder.is_zero():
            break
        current = divide_exact_by_norm_sq(remainder)
        j += 1
    return components


@pytest.mark.parametrize(
    "system, kappas",
    EXACT_DEFAULT_RUNS + [("z2:d=1", ("0",))],  # bessel index 1/2 .. 3/2, 0 and -1/2
)
def test_decomposition_matches_peeling_loop(system, kappas):
    ctx = make_ctx(system, kappas)
    rng = random.Random(47)
    for m in [*range(9)] * 2:
        p = random_homogeneous(rng, ctx.dim, m)
        expected = peeled_components(ctx, p)
        components = harmonic_decompose(ctx, p)
        assert [(j, str(h)) for j, h in components] == [(j, str(h)) for j, h in expected]
        assert clebsch_project_series(ctx, p) == dict(expected).get(0, Poly.zero(ctx.dim))
