import itertools
import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest

import dunklcalc.transform
import dunklcalc.util
import dunklcalc.verify
from dunklcalc.harmonic import hermite_poly
from dunklcalc.integrate import pizzetti_mean, sphere_oracle_z2d
from dunklcalc.operators import DunklContext
from dunklcalc.poly import Poly, parse_poly
from dunklcalc.roots import build_root_system
from dunklcalc.transform import (
    BESSEL_SERIES_MAX,
    _GAUSS_NODES,
    _GAUSS_WEIGHTS,
    QuadratureError,
    TruncationError,
    _bessel_error_integral,
    _bessel_lead,
    _bessel_series,
    _gauss_factor,
    _pairing_row,
    bessel_j,
    dunkl_kernel_z2d,
    dunkl_transform_gauss_poly,
    hankel_identity_residual,
    hankel_numeric,
    hankel_quadrature,
    hecke_residual,
    hermite_eigen_residual,
    kernel_coefficients,
    kernel_eigen_residual,
    kernel_recursion_residual,
    normalized_bessel,
    scaled_normalized_bessel,
    sphere_pairing,
    sphere_pairing_residual,
    transform_multiplication_residual,
    truncation_order,
    z2_kappas,
)
from dunklcalc.verify import (
    HANKEL_FIXED_TOL,
    RADIAL_IDENTITY_TOL,
    TRANSFORM_DEFAULT_RUNS,
    transforms_suite,
)
from dunklcalc.util import pochhammer

Q = Fraction


def make_ctx(system, kappas):
    return DunklContext(build_root_system(system, kappas))


def test_bessel_half_integer_closed_form():
    for x in (0.5, 1.0, 3.0):
        want = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
        assert abs(bessel_j(0.5, x) - want) <= 1e-12 * abs(want)
    # accuracy degrades with the leading series terms as the argument grows
    want = math.sqrt(2.0 / (math.pi * 10.0)) * math.sin(10.0)
    assert abs(bessel_j(0.5, 10.0) - want) <= 1e-10 * abs(want)


def test_normalized_bessel_at_zero():
    for nu in (-0.5, 0.0, 1.0, 2.5):
        want = math.exp(-nu * math.log(2.0) - math.lgamma(nu + 1.0))
        assert normalized_bessel(nu, 0.0) == pytest.approx(want, rel=1e-15)


def test_bessel_argument_range_guard():
    with pytest.raises(ValueError, match="outside validated range"):
        normalized_bessel(1.0, BESSEL_SERIES_MAX + 1.0)
    with pytest.raises(ValueError, match="outside validated range"):
        bessel_j(1.0, BESSEL_SERIES_MAX + 1.0)


EPS = sys.float_info.epsilon
BOUND_ORDERS = (-0.5, -0.25, 0.0, 0.3, 0.5, 1.0, 1.5, 2.0, 2.75, 3.5, 4.0, 5.0)
BOUND_ARGS = (
    1e-3, 0.1, 0.5, 1.0, 2.0, 3.3, 5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0,
    22.5, 25.0, 27.5, 29.9, 30.0, 35.0, 40.0, 45.0, 50.0, 55.0, 60.0,
)


def _mp(q):
    return mpmath.mpf(Fraction(q).numerator) / Fraction(q).denominator


def test_normalized_bessel_error_bound():
    # |err| <= 16 eps sum_j |term_j| = 16 eps I_nu(x) / x^nu
    with mpmath.workdps(50):
        for nu in BOUND_ORDERS:
            for x in BOUND_ARGS:
                xnu = mpmath.mpf(x) ** _mp(nu)
                exact = mpmath.besselj(_mp(nu), x) / xnu
                abs_sum = mpmath.besseli(_mp(nu), x) / xnu
                if x <= BESSEL_SERIES_MAX:
                    value = normalized_bessel(nu, x)
                else:  # past the guard, the series the guard protects
                    value = _bessel_series(nu, [x], _bessel_lead(nu))[0]
                err = abs(value - exact)
                assert err <= 16 * EPS * abs_sum, (nu, x, float(err / (EPS * abs_sum)))


def test_one_bessel_pass_meets_the_bound_at_every_argument():
    # one _bessel_series call over many arguments, as hankel_quadrature makes
    # it: the length set at the largest argument holds the bound at each one
    args = [0.0, *BOUND_ARGS]
    with mpmath.workdps(50):
        for nu in BOUND_ORDERS:
            values = _bessel_series(nu, args, _bessel_lead(nu))
            assert values[0] == _bessel_lead(nu)
            for x, value in zip(BOUND_ARGS, values[1:]):
                xnu = mpmath.mpf(x) ** _mp(nu)
                exact = mpmath.besselj(_mp(nu), x) / xnu
                abs_sum = mpmath.besseli(_mp(nu), x) / xnu
                assert abs(value - exact) <= 16 * EPS * abs_sum, (nu, x)


def test_scaled_normalized_bessel_error_bound():
    # same bound on the scale 2^lam Gamma(lam+1) of the rational series
    with mpmath.workdps(50):
        for lam in (Q(-1, 2), Q(0), Q(1, 2), Q(1), Q(3, 2), Q(5, 2)):
            scale = mpmath.mpf(2) ** _mp(lam) * mpmath.gamma(_mp(lam) + 1)
            for shift in range(6):
                nu = lam + shift
                if nu > 5:
                    continue
                for x in BOUND_ARGS:
                    xnu = mpmath.mpf(x) ** _mp(nu)
                    exact = scale * mpmath.besselj(_mp(nu), x) / xnu
                    abs_sum = scale * mpmath.besseli(_mp(nu), x) / xnu
                    err = abs(scaled_normalized_bessel(lam, shift, x) - exact)
                    assert err <= 16 * EPS * abs_sum, (lam, shift, x)


def test_bessel_radial_derivative_identity():
    # (1/r) d/dr of the normalized function steps the order up with a sign
    r, h = 2.0, 1e-5
    for nu in (0.0, 0.5, 1.25, 3.0):
        fd = (normalized_bessel(nu, r + h) - normalized_bessel(nu, r - h)) / (2 * h * r)
        assert abs(fd + normalized_bessel(nu + 1, r)) <= 1e-6


def test_scaled_normalized_bessel_matches_gamma_form():
    for lam in (Q(-1, 2), Q(0), Q(1), Q(5, 2)):
        for shift in (0, 1, 3):
            for t in (0.0, 0.7, 2.0, 5.0):
                got = scaled_normalized_bessel(lam, shift, t)
                want = math.exp(
                    float(lam) * math.log(2.0) + math.lgamma(float(lam) + 1.0)
                ) * normalized_bessel(float(lam) + shift, t)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_kernel_coefficients_exponential_at_zero_multiplicity():
    coeffs = kernel_coefficients(Q(0), 10)
    for n, a in enumerate(coeffs):
        assert a == Q(1, math.factorial(n))


def test_kernel_coefficients_grow_one_row_per_kappa(monkeypatch):
    monkeypatch.setattr(dunklcalc.transform, "_KERNEL_ROWS", {})

    def fresh(kappa, order):
        coeffs = [Q(1)]
        for n in range(1, order + 1):
            coeffs.append(coeffs[-1] / (n + (2 * kappa if n % 2 else 0)))
        return coeffs

    for kappa in (Q(0), Q(2, 3)):
        for order in (5, 40, 12):
            got = kernel_coefficients(kappa, order)
            assert got == fresh(kappa, order), (kappa, order)
            got[0] = Q(7)
            got.append(Q(0))
        assert kernel_coefficients(kappa, 40) == fresh(kappa, 40)
    assert sorted(dunklcalc.transform._KERNEL_ROWS) == [Q(0), Q(2, 3)]


def test_kernel_series_recursion_residual():
    for kappa in (Q(0), Q(1, 2), Q(3, 2)):
        assert kernel_recursion_residual(kappa, 80) <= 1e-12


def test_kernel_reduces_to_exponential():
    for xv in (-2.0, -0.5, 0.0, 1.0, 2.0):
        for yv in (-2.0, -0.5, 0.0, 1.0, 2.0):
            got = dunkl_kernel_z2d([Q(0), Q(0)], (xv, 0.5), (yv, 1.0))
            want = math.exp(xv * yv + 0.5)
            assert abs(got - want) <= 1e-12 * abs(want)


def test_kernel_exponential_at_transform_argument():
    # complex second argument, as used by the transform pairing
    import cmath

    for xv in (-2.0, -0.5, 0.0, 1.0, 2.0):
        for yv in (-2.0, -0.5, 0.0, 1.0, 2.0):
            got = dunkl_kernel_z2d([Q(0)], (xv,), (-1j * yv,))
            want = cmath.exp(-1j * xv * yv)
            assert abs(got - want) <= 1e-12


def test_kernel_normalization_at_origin():
    for kappas in ([Q(1, 2)], [Q(1), Q(3, 2)]):
        zero = (0.0,) * len(kappas)
        y = tuple(1.0 + i for i in range(len(kappas)))
        assert dunkl_kernel_z2d(kappas, zero, y) == pytest.approx(1.0)


def test_kernel_eigen_property():
    for kappa in (Q(0), Q(1, 2), Q(1), Q(3, 2)):
        for x, y in [(0.5, 0.5), (1.0, 1.5), (2.0, 2.0)]:
            assert kernel_eigen_residual(kappa, x, y) <= 1e-12


def test_truncation_order_monotone_and_guarded():
    assert truncation_order(0.0) == 8
    assert truncation_order(5.0) <= truncation_order(10.0)
    with pytest.raises(Exception):
        truncation_order(80.0)


def test_z2_kappas_validation():
    rs = build_root_system("b:d=2", [1, 2])
    with pytest.raises(ValueError):
        z2_kappas(rs)
    rs = build_root_system("z2:d=2", ["1", "3/2"])
    assert z2_kappas(rs) == (Q(1), Q(3, 2))


GRIDS = {
    1: [(0.0,), (0.5,), (1.0,), (2.0,), (3.5,), (5.0,)],
    2: [(0.0, 0.0), (0.5, 0.0), (1.0, 1.0), (2.0, 1.0), (0.0, 2.5), (3.0, 4.0)],
}

KAPPA_RUNS = {
    1: [("0",), ("1/2",), ("1",), ("3/2",)],
    2: [("0", "0"), ("1/2", "1"), ("3/2", "0")],
}


def _test_polys(d):
    if d == 1:
        return [Poly.monomial(1, (m,)) for m in range(5)]
    return [
        Poly.const(2, 1),
        parse_poly("x1", 2),
        parse_poly("x1*x2 - x2^2", 2),
        parse_poly("x1^3 + 2*x1*x2^2", 2),
        parse_poly("x1^2*x2^2 - x1^4", 2),
    ]


def test_sphere_pairing_identity_grid():
    for d, runs in KAPPA_RUNS.items():
        for kappas in runs:
            ctx = make_ctx(f"z2:d={d}", kappas)
            for p in _test_polys(d):
                residuals = sphere_pairing_residual(ctx, p, GRIDS[d])
                assert max(residuals) <= 1e-9, (d, kappas, str(p), residuals)


def test_sphere_pairing_constant_gives_bessel_profile():
    for d, runs in KAPPA_RUNS.items():
        for kappas in runs:
            ctx = make_ctx(f"z2:d={d}", kappas)
            lam = ctx.bessel_index
            for y in GRIDS[d]:
                t = math.sqrt(sum(v * v for v in y))
                lhs = sphere_pairing(ctx, Poly.const(d, 1), y)
                assert abs(lhs - scaled_normalized_bessel(lam, 0, t)) <= 1e-9


def test_sphere_pairing_harmonic_profile():
    # harmonic p picks a single Bessel factor against p(-iy)
    ctx = make_ctx("z2:d=2", ["1/2", "1"])
    p = parse_poly("x1*x2", 2)
    lam = ctx.bessel_index
    for y in GRIDS[2]:
        t = math.sqrt(sum(v * v for v in y))
        lhs = sphere_pairing(ctx, p, y)
        rhs = scaled_normalized_bessel(lam, 2, t) * p.evaluate(tuple(-1j * v for v in y))
        assert abs(lhs - rhs) <= 1e-9


def test_sphere_pairing_at_origin_is_pizzetti():
    for kappas in KAPPA_RUNS[2]:
        ctx = make_ctx("z2:d=2", kappas)
        for p in _test_polys(2):
            got = sphere_pairing(ctx, p, (0.0, 0.0))
            assert abs(got - float(pizzetti_mean(ctx, p))) <= 1e-12


def test_gaussian_transform_fixed_point():
    for d, runs in KAPPA_RUNS.items():
        for kappas in runs:
            ctx = make_ctx(f"z2:d={d}", kappas)
            for y in GRIDS[d]:
                if math.sqrt(sum(v * v for v in y)) > 3.0:
                    continue
                got = dunkl_transform_gauss_poly(ctx, Poly.const(d, 1), y)
                want = math.exp(-sum(v * v for v in y) / 2.0)
                assert abs(got - want) <= 1e-10 * abs(want)


def _gauss_factor_recurrence(kappa, exponent, t, n_terms):
    """Reference: a_n M(exponent + n) carried as one exact running factor."""
    z = -1j * t
    acc = 0j
    zpow = 1 + 0j
    biggest = 0.0
    limit = n_terms if n_terms is not None else 400
    b = (exponent + 1) // 2
    weight = 2**b * pochhammer(kappa + Fraction(1, 2), b)
    step = 2 * kappa + 1 + exponent
    for n in range(limit + 1):
        if n:
            weight /= Fraction(n) + (2 * kappa if n % 2 else 0)
        if (exponent + n) % 2 == 0:
            term = float(weight) * zpow
            weight *= step + n
            acc += term
            biggest = max(biggest, abs(term))
            if n_terms is None and abs(term) < 1e-18 * max(1.0, biggest) and n > abs(t) ** 2:
                return acc
        zpow *= z
    if n_terms is None:
        raise TruncationError("gaussian transform series did not converge")
    return acc


def test_gauss_factor_matches_exact_recurrence():
    for kappa in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(3, 2), Fraction(2)):
        for exponent in range(8):
            for t in (0.0, 0.5, -1.0, 2.5, 4.0, -6.0):
                for n_terms in (None, 60, 120):
                    want = _gauss_factor_recurrence(kappa, exponent, t, n_terms)
                    got = _gauss_factor(kappa, exponent, t, n_terms)
                    assert got == want, (kappa, exponent, t, n_terms)


def test_gauss_factor_is_summed_once_per_key(monkeypatch):
    monkeypatch.setattr(dunklcalc.transform, "_GAUSS_FACTORS", {})
    summed = []
    gauss_sum = dunklcalc.transform._gauss_sum

    def counted(*key):
        summed.append(key)
        return gauss_sum(*key)

    monkeypatch.setattr(dunklcalc.transform, "_gauss_sum", counted)
    for system, kappas in TRANSFORM_DEFAULT_RUNS[:3]:
        transforms_suite(system, kappas)
    assert summed and len(summed) == len(set(summed))
    assert set(summed) == set(dunklcalc.transform._GAUSS_FACTORS)


def test_default_battery_keeps_one_pairing_row_per_kappa_and_exponent(monkeypatch):
    monkeypatch.setattr(dunklcalc.transform, "_SPHERE_MEAN_CACHE", {})
    for system, kappas in TRANSFORM_DEFAULT_RUNS:
        transforms_suite(system, kappas)
    cache = dunklcalc.transform._SPHERE_MEAN_CACHE
    # rows grow in place, so each is copied before a longer order is read
    rows = {key: list(row) for key, row in cache.items() if isinstance(key, tuple)}
    # kappa in {0, 1/2, 1, 3/2} and exponents 0..4 (degree 4)
    assert sorted(rows) == sorted((Q(k, 2), e) for k in range(4) for e in range(5))
    # the other rows hold (-1)^B / (gamma)_B, gamma = sum kappa + d/2
    assert sorted(set(cache) - set(rows)) == [Q(k, 2) for k in (1, 2, 3, 4, 5, 7)]
    for (kappa, exponent), row in rows.items():
        order_400 = _pairing_row(kappa, exponent, 400)
        assert order_400 is cache[kappa, exponent]
        assert len(row) < len(order_400), (kappa, exponent, len(row))
        assert order_400[: len(row)] == row


def test_series_row_entries_are_computed_once(monkeypatch):
    """Pairing, kernel and rising-factorial entries are never recomputed.

    A pairing entry is rounded once, so the float calls of the transform
    module count the pairing entries computed; a recomputed exact entry
    would be a new object.
    """
    monkeypatch.setattr(dunklcalc.transform, "_SPHERE_MEAN_CACHE", {})
    monkeypatch.setattr(dunklcalc.transform, "_KERNEL_ROWS", {})
    monkeypatch.setattr(dunklcalc.util, "_RISING_ROWS", {}, raising=False)
    rounded = []

    def counting_float(value):
        rounded.append(value)
        return float(value)

    monkeypatch.setattr(dunklcalc.transform, "float", counting_float, raising=False)
    kappa, exponent = Q(2, 3), 3
    kernel, rising = {}, {}
    for order in (5, 40, 12, 400):
        row = _pairing_row(kappa, exponent, order)
        assert len(rounded) == len(dunklcalc.transform._SPHERE_MEAN_CACHE[kappa, exponent])
        assert len(row) >= (order + exponent) // 2 - (exponent + 1) // 2 + 1, order
        for n, a in enumerate(kernel_coefficients(kappa, order)):
            assert kernel.setdefault(n, a) is a, ("kernel", order, n)
        for b in range((order + exponent) // 2 + 1):
            value = pochhammer(kappa + Q(1, 2), b)
            assert rising.setdefault(b, value) is value, ("rising", order, b)
    assert len(rounded) == (400 + exponent) // 2 - (exponent + 1) // 2 + 1


def test_hecke_identity_grid():
    for d, runs in KAPPA_RUNS.items():
        for kappas in runs:
            ctx = make_ctx(f"z2:d={d}", kappas)
            for p in _test_polys(d):
                residuals = hecke_residual(ctx, p, GRIDS[d])
                assert max(residuals) <= 1e-8, (d, kappas, str(p), residuals)


def test_hecke_rank_one_example():
    ctx = make_ctx("z2:d=1", ["1/2"])
    assert max(hecke_residual(ctx, parse_poly("x1", 1), [(0.5,), (1.0,), (2.0,)])) <= 1e-9


def test_hermite_eigenfunction_property():
    for d, runs in KAPPA_RUNS.items():
        for kappas in runs:
            ctx = make_ctx(f"z2:d={d}", kappas)
            for p in _test_polys(d):
                assert max(hermite_eigen_residual(ctx, p, GRIDS[d])) <= 1e-8


def test_harmonic_equivalence_characterizations():
    # for harmonic p the transform of p times the Gaussian is the plain
    # rotation of the same function
    ctx = make_ctx("z2:d=2", ["1/2", "1"])
    p = parse_poly("x1*x2", 2)
    assert hermite_poly(ctx, p) == p
    for y in GRIDS[2]:
        lhs = dunkl_transform_gauss_poly(ctx, p, y)
        rhs = (-1 + 0j) * float(p.evaluate(y)) * math.exp(-sum(v * v for v in y) / 2)
        assert abs(lhs - rhs) <= 1e-8


def test_hankel_gaussian_fixed_point():
    for lam in (-0.5, 0.0, 0.5, 1.0, 2.5):
        for s in (0.5, 1.0, 2.0, 3.0):
            got = hankel_numeric(lambda r: math.exp(-r * r / 2.0), lam, s, tol=1e-13)
            want = math.exp(-s * s / 2.0)
            assert abs(got - want) <= 1e-10 * want, (lam, s)


def test_hankel_zero_argument():
    got = hankel_numeric(lambda r: math.exp(-r * r / 2.0), 1.0, 0.0, tol=1e-13)
    assert got == pytest.approx(1.0, rel=1e-10)


def test_hankel_tail_guard():
    with pytest.raises(QuadratureError):
        hankel_numeric(lambda r: 1.0, 1.0, 1.0, tol=1e-13, rate=1e-9)


def test_gauss_legendre_rule():
    nodes = dict(zip(_GAUSS_NODES, _GAUSS_WEIGHTS))
    assert len(nodes) == 20
    for x, w in nodes.items():
        assert -1.0 < x < 1.0 and x != 0.0
        assert nodes[-x] == w  # symmetric nodes, equal weights
    assert abs(math.fsum(_GAUSS_WEIGHTS) - 2.0) <= 4 * EPS
    for k in range(40):
        got = math.fsum(w * x**k for x, w in nodes.items())
        want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(got - want) <= 4 * EPS, k
    # degree 2n = 40 is the first the rule misses
    assert abs(math.fsum(w * x**40 for x, w in nodes.items()) - 2.0 / 41) > 1e-12


HANKEL_ORDERS = (-0.5, 0.0, 0.5, 1.0, 1.5, 2.5, 3.5)
# 2 nu + 1 not an integer: r^(2 nu + 1) has a branch point at r = 0
BRANCH_ORDERS = (-0.49, -1.0 / 3.0, -1.0 / 6.0, 1.0 / 6.0, 1.0 / 3.0, 0.75, 4.0 / 3.0, 2.2)
HANKEL_ARGS = (0.0, 0.5, 1.0, 2.0, 3.0)


def _hankel_exact(nu, s, power):
    """int r^(2 power) e^(-r^2/2) J_nu(rs)/(rs)^nu r^(2 nu + 1) dr, power <= 1.

    (-d/da)^power of (2a)^-(nu+1) e^(-s^2/(4a)) at a = 1/2.
    """
    value = mpmath.exp(-mpmath.mpf(s) ** 2 / 2)
    return value if power == 0 else value * (2 * (_mp(nu) + 1) - mpmath.mpf(s) ** 2)


def _hankel_by_mpmath_quad(nu, s, power):
    nu = _mp(nu)
    scale = 2**nu * mpmath.gamma(nu + 1)

    def f(r):
        bessel = mpmath.hyp0f1(nu + 1, -((r * s) ** 2) / 4) / scale  # J_nu(rs)/(rs)^nu
        return r ** (2 * power + 2 * nu + 1) * mpmath.exp(-r * r / 2) * bessel

    return mpmath.quad(f, [0, 3, 6, 10, mpmath.inf])


def test_hankel_closed_forms_match_mpmath_quadrature():
    with mpmath.workdps(30):
        for nu, s, power in ((-0.5, 3.0, 1), (0.5, 2.0, 0), (2.5, 1.0, 1), (1.0, 0.0, 1)):
            got = _hankel_by_mpmath_quad(nu, s, power)
            assert abs(got - _hankel_exact(nu, s, power)) <= mpmath.mpf(10) ** -25


def test_bessel_error_integral_closed_form():
    # B = 16 eps int r^(2 power + 2 nu + 1) e^(-rate r^2) I_nu(rs)/(rs)^nu dr
    with mpmath.workdps(30):
        for nu, s, power, rate in (
            (-0.5, 3.0, 0, 0.5), (0.0, 0.0, 1, 0.5), (1.5, 2.0, 2, 0.5),
            (0.5, 1.0, 3, 0.75), (2.5, 3.0, 2, 1.0),
        ):
            nu_mp = _mp(nu)
            scale = 2**nu_mp * mpmath.gamma(nu_mp + 1)

            def f(r):
                abs_series = mpmath.hyp0f1(nu_mp + 1, (r * s) ** 2 / 4) / scale
                return r ** (2 * power + 2 * nu_mp + 1) * mpmath.exp(-rate * r * r) * abs_series

            want = 16 * EPS * mpmath.quad(f, [0, 3, 6, 10, mpmath.inf])
            got = _bessel_error_integral(nu, s, power, rate)
            assert abs(got - want) <= 1e-13 * want, (nu, s, power, rate)


def test_hankel_error_bound():
    # |Q8 - exact| <= tail + |Q8 - Q4| + B + R, the bound hankel_quadrature states
    with mpmath.workdps(30):
        for power in (0, 1):
            for nu in HANKEL_ORDERS + BRANCH_ORDERS:
                for s in HANKEL_ARGS:
                    exact = _hankel_exact(nu, s, power)
                    for tol in (1e-12, 1e-13):
                        value, bound = hankel_quadrature(
                            lambda r: r ** (2 * power) * math.exp(-r * r / 2.0),
                            nu, s, tol=tol, power=power,
                        )
                        err = abs(value - exact)
                        assert err <= bound, (power, nu, s, tol, float(err), bound)
                        assert err <= tol, (power, nu, s, tol, float(err))


def test_hankel_order_must_be_at_least_minus_one_half():
    # the range of the Bessel series; below -1 the integrand is not even
    # integrable at 0, and every order below -1/2 gets the one message
    for nu in (-0.75, -1.25, -1.5):
        with pytest.raises(ValueError, match="order must be at least -1/2"):
            hankel_numeric(lambda r: math.exp(-r * r / 2.0), nu, 1.0)


def test_hankel_rejects_non_smooth_integrand():
    # a jump or a kink in f0, with and without a branch point at the origin
    for f0 in (
        lambda r: math.exp(-r * r / 2.0) * (r < 1.3),
        lambda r: math.exp(-r * r / 2.0) * abs(r - 1.3),
    ):
        for nu in (0.5, -1.0 / 6.0, 4.0 / 3.0):
            with pytest.raises(QuadratureError):
                hankel_numeric(f0, nu, 1.0, tol=1e-13)


@pytest.mark.parametrize("kappa", ["2/3", "1/3", "1/4", "1/100"])
def test_hankel_cases_pass_at_branch_orders(kappa):
    # z2:d=1 with kappa outside Z/2 gives Hankel orders with 2 nu + 1 not an
    # integer; every Hankel case must pass (the other cases are not at issue)
    report = transforms_suite("z2:d=1", (kappa,))
    hankel = [c for c in report.cases if c.name.startswith("hankel/")]
    assert len(hankel) == 6
    assert all(c.status == "pass" for c in hankel), [(c.name, c.residual) for c in hankel]


def test_hankel_bounds_back_the_default_transform_cases(monkeypatch):
    calls = []

    def recording(f0, nu, s, **kwargs):
        value, bound = hankel_quadrature(f0, nu, s, **kwargs)
        calls.append((s, kwargs.get("power", 0), bound))
        return value

    monkeypatch.setattr(dunklcalc.verify, "hankel_numeric", recording)
    monkeypatch.setattr(dunklcalc.transform, "hankel_numeric", recording)
    for system, kappas in TRANSFORM_DEFAULT_RUNS:
        calls.clear()
        transforms_suite(system, kappas)
        # hankel/gauss-fixed/s* and hankel/zero-limit, then the one Hankel
        # term of hankel/radial-multiplier (p = x1 with weight p(y) = 1)
        assert [(s, power) for s, power, _ in calls] == [
            (0.5, 0), (1.0, 0), (2.0, 0), (3.0, 0), (0.0, 0), (1.0, 1)
        ]
        for s, power, bound in calls:
            if power == 0:
                assert bound <= HANKEL_FIXED_TOL * math.exp(-s * s / 2.0), (system, s)
            else:
                assert bound <= RADIAL_IDENTITY_TOL, system


def test_hankel_radial_multiplier_identity():
    ctx = make_ctx("z2:d=1", ["3/2"])
    p = parse_poly("x1", 1)
    assert hankel_identity_residual(ctx, p, 1, (1.0,)) <= 1e-8
    ctx2 = make_ctx("z2:d=2", ["1/2", "1"])
    assert hankel_identity_residual(ctx2, parse_poly("x1", 2), 1, (1.0, 0.5)) <= 1e-8


def test_multiplication_rule():
    grid = [0.5, 1.0, 2.0]
    ctx0 = make_ctx("z2:d=1", ["0"])
    assert transform_multiplication_residual(ctx0, Poly.const(1, 1), grid) <= 1e-10
    ctx_half = make_ctx("z2:d=1", ["1/2"])
    assert transform_multiplication_residual(ctx_half, Poly.const(1, 1), grid) <= 1e-8
    ctx1 = make_ctx("z2:d=1", ["1"])
    assert transform_multiplication_residual(ctx1, Poly.monomial(1, (2,)), grid) <= 1e-8


def test_truncation_doubling_stability():
    ctx = make_ctx("z2:d=2", ["1/2", "1"])
    p = parse_poly("x1*x2 - x2^2", 2)
    y = (1.0, 1.0)
    v1 = dunkl_transform_gauss_poly(ctx, p, y, n_terms=60)
    v2 = dunkl_transform_gauss_poly(ctx, p, y, n_terms=120)
    assert abs(v1 - v2) <= 1e-12 * max(abs(v2), 1e-30)
    s1 = sphere_pairing(ctx, p, y, n_terms=40)
    s2 = sphere_pairing(ctx, p, y, n_terms=80)
    assert abs(s1 - s2) <= 1e-12 * max(abs(s2), 1e-30)
    k1 = dunkl_kernel_z2d(z2_kappas(ctx.rs), (1.0, 1.0), y, n_terms=40)
    k2 = dunkl_kernel_z2d(z2_kappas(ctx.rs), (1.0, 1.0), y, n_terms=80)
    assert abs(k1 - k2) <= 1e-12 * abs(k2)


def _sphere_pairing_by_expansion(kappas, p, y, n_terms=None):
    """Reference pairing: every kernel index combination against its exact mean."""
    d = len(kappas)
    order = n_terms if n_terms is not None else truncation_order(max(abs(v) for v in y))
    coeff_lists = [kernel_coefficients(k, order) for k in kappas]
    zpows = []
    for yj in y:
        row = [1 + 0j]
        for _ in range(order):
            row.append(row[-1] * (-1j * yj))
        zpows.append(row)
    means = {}
    total = 0j
    for e, c in p.terms.items():
        choices = [[n for n in range(order + 1) if (n + e[j]) % 2 == 0] for j in range(d)]
        for combo in itertools.product(*choices):
            exponents = tuple(e[j] + n for j, n in enumerate(combo))
            if exponents not in means:
                means[exponents] = sphere_oracle_z2d(kappas, exponents)
            weight = c * means[exponents]
            phase = 1 + 0j
            for j, n in enumerate(combo):
                weight *= coeff_lists[j][n]
                phase *= zpows[j][n]
            total += float(weight) * phase
    return total


def test_sphere_pairing_matches_term_by_term_expansion():
    rng = random.Random(20)
    kappa_choices = ["0", "1/2", "1", "3/2", "2"]
    # the reference costs (n_terms/2)^d Fraction products per monomial
    cases = [(d, n_terms, 3) for d in (1, 2) for n_terms in (None, 40, 80)]
    cases += [(3, None, 3), (3, 40, 1)]
    for d, n_terms, count in cases:
        for _ in range(count):
            kappas = [rng.choice(kappa_choices) for _ in range(d)]
            ctx = make_ctx(f"z2:d={d}", kappas)
            degree = rng.randint(0, 5)
            p = Poly.zero(d)
            for _ in range(3):
                e = [0] * d
                for _ in range(degree):
                    e[rng.randrange(d)] += 1
                p = p + Poly.monomial(d, tuple(e)).scale(Q(rng.randint(1, 9), rng.randint(1, 4)))
            y = tuple(rng.uniform(-4.0, 4.0) for _ in range(d))
            want = _sphere_pairing_by_expansion(z2_kappas(ctx.rs), p, y, n_terms)
            got = sphere_pairing(ctx, p, y, n_terms=n_terms)
            assert abs(got - want) <= 1e-12 * abs(want), (kappas, str(p), y, n_terms)


def _sphere_pairing_by_loops(ctx, p, y, n_terms=None):
    """sphere_pairing with its convolutions and final sum written as float loops.

    Reads the same pairing rows and the same 1 / (gamma)_B values, with the
    sign of odd B applied to each term.
    """
    kappas = z2_kappas(ctx.rs)
    order = n_terms if n_terms is not None else truncation_order(max(map(abs, y), default=0.0))
    gamma = sum(kappas, Q(0)) + Q(ctx.dim, 2)
    total = 0j
    for e, c in p.terms.items():
        low, conv = 0, [1.0]
        for kappa, ej, yj in zip(kappas, e, y):
            start = (ej + 1) // 2
            coeffs = _pairing_row(kappa, ej, order)
            ypow = list(itertools.accumulate(itertools.repeat(float(yj), order), initial=1.0,
                                             func=lambda u, v: u * v))
            row = [coeffs[b - start] * ypow[2 * b - ej] for b in range(start, (order + ej) // 2 + 1)]
            merged = [0.0] * (len(conv) + len(row) - 1)
            for i, u in enumerate(conv):
                for k, v in enumerate(row):
                    merged[i + k] += u * v
            conv, low = merged, low + start
        acc = 0.0
        for k, v in enumerate(conv):
            term = v * float(1 / pochhammer(gamma, low + k))
            acc += -term if (low + k) % 2 else term
        total += float(c) * acc * dunklcalc.transform._PHASES[-sum(e) % 4]
    return total


def test_sphere_pairing_sums_match_the_float_loops():
    # the products and additions run in the loops' order: equal floats where
    # the builtin sum is a plain float sum (before 3.12), compensated after
    rng = random.Random(36)
    for d in (1, 2, 3):
        for _ in range(4):
            ctx = make_ctx(f"z2:d={d}", [rng.choice(["0", "1/2", "1", "3/2"]) for _ in range(d)])
            p = dunklcalc.verify.random_poly(rng, d, 5)
            y = tuple(rng.uniform(-4.0, 4.0) for _ in range(d))
            got, want = sphere_pairing(ctx, p, y), _sphere_pairing_by_loops(ctx, p, y)
            if sys.version_info < (3, 12):
                assert got == want, (str(p), y)
            else:
                assert abs(got - want) <= 1e-14 * max(abs(want), 1.0), (str(p), y)
