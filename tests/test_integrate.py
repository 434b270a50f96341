import itertools
import math
import random
from fractions import Fraction

import pytest

from dunklcalc.harmonic import clebsch_project_series
from dunklcalc.integrate import (
    gaussian_moment,
    pizzetti_mean,
    sphere_oracle_z2d,
)
from dunklcalc.operators import DunklContext, dunkl_laplacian_sq
from dunklcalc.poly import Poly, compile_reflection, compose_reflection, norm_sq_poly, parse_poly
from dunklcalc.roots import build_root_system
from dunklcalc.transform import z2_kappas
from dunklcalc.util import pochhammer
from dunklcalc.verify import random_homogeneous, random_poly

Q = Fraction


def make_ctx(system, kappas):
    return DunklContext(build_root_system(system, kappas))


def test_pizzetti_basic_values():
    ctx = make_ctx("z2:d=2", ["0", "0"])
    assert pizzetti_mean(ctx, Poly.const(2, 1)) == 1
    assert pizzetti_mean(ctx, parse_poly("x1^2", 2)) == Q(1, 2)
    assert pizzetti_mean(ctx, parse_poly("x1^3*x2^2", 2)) == 0
    ctx3 = make_ctx("z2:d=3", ["0", "0", "0"])
    assert pizzetti_mean(ctx3, parse_poly("x1^2", 3)) == Q(1, 3)


def test_pizzetti_weighted_example():
    ctx = make_ctx("z2:d=2", ["1", "0"])
    assert pizzetti_mean(ctx, parse_poly("x1^2", 2)) == Q(3, 4)


def test_pizzetti_of_an_odd_polynomial_takes_no_laplacian(monkeypatch):
    import dunklcalc.integrate
    import dunklcalc.operators

    def forbid(*args):
        raise AssertionError("a Laplacian was taken")

    monkeypatch.setattr(dunklcalc.integrate, "laplacian_powers", forbid)
    monkeypatch.setattr(dunklcalc.operators, "dunkl_laplacian_sq", forbid)
    ctx = make_ctx("b:d=2", ["1", "2"])
    assert pizzetti_mean(ctx, parse_poly("x1^3*x2^2 - 2/3*x1 + x2^5", 2)) == 0


def test_pizzetti_reads_each_even_component_alone():
    # the series over the Laplacian powers of all of p, against the one that
    # takes each even component to its own order
    rng = random.Random(29)
    for system, kappas in [("z2:d=2", ["1", "3/2"]), ("b:d=2", ["1", "2"]), ("a:d=3", ["1/2"])]:
        ctx = make_ctx(system, kappas)
        lam = ctx.bessel_index
        for _ in range(6):
            p = random_poly(rng, ctx.dim, 7)
            want, power = Q(0), p
            for l in range(max(p.degree(), 0) // 2 + 1):
                want += power.constant_term() / (4**l * math.factorial(l) * pochhammer(lam + 1, l))
                power = dunkl_laplacian_sq(ctx, power)
            assert pizzetti_mean(ctx, p) == want


def test_sphere_oracle_values():
    assert sphere_oracle_z2d([Q(0), Q(0)], (0, 0)) == 1
    assert sphere_oracle_z2d([Q(0), Q(0)], (2, 0)) == Q(1, 2)
    assert sphere_oracle_z2d([Q(0), Q(0), Q(0)], (2, 0, 0)) == Q(1, 3)
    assert sphere_oracle_z2d([Q(1), Q(0)], (2, 0)) == Q(3, 4)
    with pytest.raises(ValueError):
        sphere_oracle_z2d([Q(0)], (3,))


def test_oracle_equivalence_all_even_monomials():
    # the suite that pins down the series sign: exact rational equality
    kappa_sets = {
        1: [("0",), ("1/2",), ("2",)],
        2: [("1", "0"), ("1/2", "3/2")],
        3: [("1", "1/2", "0")],
        4: [("1/2", "0", "1", "3/2")],
    }
    for d, kset in kappa_sets.items():
        for kappas in kset:
            ctx = make_ctx(f"z2:d={d}", kappas)
            coord = z2_kappas(ctx.rs)
            for beta in itertools.product(range(5), repeat=d):
                if sum(beta) > 4:
                    continue
                exponents = tuple(2 * b for b in beta)
                mono = Poly.monomial(d, exponents)
                assert pizzetti_mean(ctx, mono) == sphere_oracle_z2d(coord, exponents)


def test_classical_pizzetti_reduction():
    for d in (1, 2, 3, 4):
        ctx = make_ctx(f"z2:d={d}", ["0"] * d)
        for a in range(5):
            e = [0] * d
            e[0] = 2 * a
            expected = pochhammer(Q(1, 2), a) / pochhammer(Q(d, 2), a)
            assert pizzetti_mean(ctx, Poly.monomial(d, tuple(e))) == expected


def test_pizzetti_group_invariance():
    rng = random.Random(67)
    for system, kappas in [("b:d=2", ["1", "2"]), ("a:d=3", ["1"])]:
        ctx = make_ctx(system, kappas)
        for _ in range(4):
            p = random_poly(rng, ctx.dim, 6)
            mean = pizzetti_mean(ctx, p)
            for alpha in ctx.rs.positive_roots:
                reflected = compose_reflection(p, compile_reflection(alpha))
                assert pizzetti_mean(ctx, reflected) == mean


def test_gaussian_moment_values():
    for system, kappas in [("z2:d=2", ["1", "0"]), ("b:d=2", ["1", "2"]), ("z2:d=1", ["3/2"])]:
        ctx = make_ctx(system, kappas)
        d = ctx.dim
        gamma = sum(ctx.rs.kappa_by_root())
        assert gaussian_moment(ctx, Poly.const(d, 1)) == 1
        assert gaussian_moment(ctx, Poly.variable(d, 1)) == 0
        assert gaussian_moment(ctx, norm_sq_poly(d)) == d + 2 * gamma


def test_gaussian_moment_one_dimensional_closed_form():
    # independent closed form: moment of x^(2n) is 2^n (kappa + 1/2)_n
    for kappa in (Q(0), Q(1, 2), Q(2)):
        ctx = make_ctx("z2:d=1", [kappa])
        for n in range(6):
            expected = 2**n * pochhammer(kappa + Q(1, 2), n)
            assert gaussian_moment(ctx, Poly.monomial(1, (2 * n,))) == expected


def test_gaussian_pizzetti_consistency():
    rng = random.Random(71)
    from dunklcalc.poly import homogeneous_components

    for system, kappas in [("z2:d=2", ["1", "3/2"]), ("b:d=2", ["1", "2"])]:
        ctx = make_ctx(system, kappas)
        lam = ctx.bessel_index
        for _ in range(5):
            p = random_poly(rng, ctx.dim, 6)
            rhs = Q(0)
            for deg, comp in homogeneous_components(p):
                if deg % 2 == 0:
                    l = deg // 2
                    rhs += pizzetti_mean(ctx, comp) * 2**l * pochhammer(lam + 1, l)
            assert gaussian_moment(ctx, p) == rhs


def test_mean_value_property():
    # the spherical mean of a harmonic polynomial is its value at the origin
    ctx = make_ctx("z2:d=2", ["0", "0"])
    assert pizzetti_mean(ctx, Poly.const(2, Q(5, 3))) == Q(5, 3)
    assert pizzetti_mean(ctx, parse_poly("x1^2 - x2^2", 2)) == 0
    rng = random.Random(73)
    for system, kappas in [("b:d=2", ["1", "2"]), ("a:d=3", ["1"]), ("z2:d=3", ["1/2", "0", "2"])]:
        ctx = make_ctx(system, kappas)
        for m in range(5):
            h = clebsch_project_series(ctx, random_homogeneous(rng, ctx.dim, m))
            if not h.is_zero():
                assert dunkl_laplacian_sq(ctx, h).is_zero()
                assert pizzetti_mean(ctx, h) == h.constant_term()
