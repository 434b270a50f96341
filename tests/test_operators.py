import random
from fractions import Fraction
from math import comb

import pytest

import dunklcalc.operators
import dunklcalc.poly
from dunklcalc.operators import (
    MAX_WORK,
    DunklContext,
    adjoint_formula_residual,
    apply_coord,
    check_budget,
    commutator_residual,
    dunkl_apply,
    dunkl_laplacian_expr,
    dunkl_laplacian_invariant,
    dunkl_laplacian_sq,
    heat_series,
    laplacian_powers,
    mult_commutator_residual,
    poly_of_dunkl,
)
from dunklcalc.poly import (
    Poly,
    classical_laplacian,
    compile_reflection,
    compose_reflection,
    linear_combination,
    linear_form,
    norm_sq_poly,
    parse_poly,
    partial_derivative,
)
from dunklcalc.radial import RadialProfile, hobson_rhs, parse_profile, weighted_poly_of_dunkl
from dunklcalc.roots import build_root_system
from dunklcalc.verify import random_homogeneous, random_poly

Q = Fraction


def make_ctx(system, kappas):
    return DunklContext(build_root_system(system, kappas))


SYSTEMS = [
    ("z2:d=1", ["1/2"]),
    ("z2:d=2", ["1", "3/2"]),
    ("a:d=3", ["1"]),
    ("b:d=2", ["1", "2"]),
]


def test_rank_one_derivative_values():
    for kappa in (Q(0), Q(1, 2), Q(2)):
        ctx = make_ctx("z2:d=1", [kappa])
        assert dunkl_apply(ctx, [1], parse_poly("x1", 1)) == Poly.const(1, 1 + 2 * kappa)
        assert dunkl_apply(ctx, [1], parse_poly("x1^2", 1)) == parse_poly("2*x1", 1)


def test_zero_multiplicity_is_directional_derivative():
    ctx = make_ctx("b:d=2", ["0", "0"])
    rng = random.Random(5)
    for _ in range(10):
        p = random_poly(rng, 2, 6)
        xi = (Q(2), Q(-1, 3))
        assert dunkl_apply(ctx, xi, p) == partial_derivative(p, xi)


def test_degree_lowering():
    ctx = make_ctx("b:d=2", ["1", "2"])
    rng = random.Random(1)
    for m in range(1, 6):
        p = random_homogeneous(rng, 2, m)
        image = dunkl_apply(ctx, (1, Q(1, 2)), p)
        assert image.is_zero() or (image.is_homogeneous() and image.degree() == m - 1)


def test_laplacian_norm_square():
    # Lap |x|^2 = 2 d + 4 gamma, and Lap |x|^4 = (16 + 8 lam) |x|^2
    for system, kappas in SYSTEMS:
        ctx = make_ctx(system, kappas)
        d = ctx.dim
        gamma = sum(ctx.rs.kappa_by_root())
        lam = ctx.bessel_index
        r2 = norm_sq_poly(d)
        assert dunkl_laplacian_sq(ctx, r2) == Poly.const(d, 2 * d + 4 * gamma)
        assert dunkl_laplacian_sq(ctx, r2 * r2) == r2.scale(16 + 8 * lam)


def test_laplacian_routes_agree():
    rng = random.Random(3)
    for system, kappas in SYSTEMS:
        ctx = make_ctx(system, kappas)
        for _ in range(10):
            p = random_poly(rng, ctx.dim, 6)
            assert dunkl_laplacian_sq(ctx, p) == dunkl_laplacian_expr(ctx, p)


def test_laplacian_zero_kappa_is_classical():
    ctx = make_ctx("z2:d=2", ["0", "0"])
    rng = random.Random(4)
    for _ in range(5):
        p = random_poly(rng, 2, 6)
        assert dunkl_laplacian_sq(ctx, p) == classical_laplacian(p)


def test_invariant_restriction_on_radial_polynomials():
    for system, kappas in SYSTEMS:
        ctx = make_ctx(system, kappas)
        r2 = norm_sq_poly(ctx.dim)
        for j in (1, 2, 3):
            p = r2**j
            assert dunkl_laplacian_invariant(ctx, p) == dunkl_laplacian_sq(ctx, p)


def test_invariant_restriction_rejects_non_invariant():
    for system, kappas, text in [
        ("z2:d=1", ["1/2"], "x1"),  # the per-root division fails
        ("z2:d=1", ["1/2"], "x1^3"),  # the division is exact, the answer wrong
    ]:
        ctx = make_ctx(system, kappas)
        with pytest.raises(ValueError, match="fixed by the reflection"):
            dunkl_laplacian_invariant(ctx, parse_poly(text, ctx.dim))


def test_root_scale_invariance():
    # replacing roots by positive multiples leaves the operator unchanged
    base = make_ctx("b:d=2", ["1", "2"])
    scaled_roots = []
    for root in base.rs.positive_roots:
        c = 3 if sum(abs(v) for v in root) == 1 else Q(1, 2)
        scaled_roots.append([c * v for v in root])
    scaled = DunklContext(build_root_system(scaled_roots, ["1", "2"]))
    rng = random.Random(9)
    for _ in range(5):
        p = random_poly(rng, 2, 5)
        xi = (Q(1), Q(-2))
        assert dunkl_apply(base, xi, p) == dunkl_apply(scaled, xi, p)


def count_divisions(monkeypatch):
    calls = []
    original = dunklcalc.operators.divide_exact_by_linear

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(dunklcalc.operators, "divide_exact_by_linear", counted)
    return calls


def test_quotient_miss_uses_the_compiled_reflection(monkeypatch):
    ctx = make_ctx("b:d=3", ["1", "2"])
    calls = []
    original = dunklcalc.poly.reflection_variable_images

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(dunklcalc.poly, "reflection_variable_images", counted)
    divisions = count_divisions(monkeypatch)
    mono = Poly.monomial(3, (3, 1, 2))
    for idx, alpha in enumerate(ctx.rs.positive_roots):
        q = ctx._quotient(idx, (3, 1, 2))
        assert q * linear_form(alpha) == mono - compose_reflection(mono, compile_reflection(alpha))
    assert len(ctx._quotients) == len(ctx.rs.positive_roots)  # every call missed
    assert calls == []
    assert divisions == []  # signed roots take the closed form


def test_quotient_misses_on_general_roots_divide(monkeypatch):
    calls = count_divisions(monkeypatch)
    ctx = DunklContext(build_root_system([(3, 4), (-4, 3)], ["1/2", "1"]))
    ctx._quotient(0, (2, 1))
    ctx._quotient(1, (0, 3))
    ctx._quotient(0, (2, 1))  # a hit
    assert len(calls) == 2


def test_memo_table_keys_and_order():
    # recorded from the code that stored every coefficient as a Fraction: the
    # coefficient type must not change which entries are made, or in what order
    ctx = make_ctx("b:d=2", ["1", "2"])
    p = parse_poly("x1^2*x2 - 3/2*x2^3", 2)
    assert str(dunkl_laplacian_sq(ctx, p)) == str(dunkl_laplacian_expr(ctx, p)) == "-33*x2"
    assert list(ctx._quotients) == [
        (0, (2, 1)), (2, (2, 1)), (3, (2, 1)), (0, (1, 1)), (2, (1, 1)), (3, (1, 1)),
        (1, (2, 1)), (1, (2, 0)), (2, (2, 0)), (3, (2, 0)), (0, (0, 3)), (2, (0, 3)),
        (3, (0, 3)), (1, (0, 3)), (1, (0, 2)), (2, (0, 2)), (3, (0, 2)),
    ]
    assert list(ctx._coord_images) == [
        (0, (2, 1)), (0, (1, 1)), (1, (2, 1)), (1, (2, 0)), (0, (0, 3)), (1, (0, 3)),
        (1, (0, 2)),
    ]
    assert list(ctx._laplacian_images) == [(2, 1), (0, 3)]


def test_rotated_system_commutativity():
    # reflections that are not signed permutations exercise the general path
    ctx = DunklContext(build_root_system([(3, 4), (-4, 3)], ["1/2", "1"]))
    rng = random.Random(2)
    for _ in range(5):
        p = random_poly(rng, 2, 5)
        assert commutator_residual(ctx, (1, 0), (0, 1), p).is_zero()
        assert dunkl_laplacian_sq(ctx, p) == dunkl_laplacian_expr(ctx, p)


def test_poly_of_dunkl_examples():
    ctx = make_ctx("b:d=2", ["1", "2"])
    rng = random.Random(7)
    target = random_poly(rng, 2, 5)
    assert poly_of_dunkl(ctx, parse_poly("x2", 2), target) == apply_coord(ctx, 1, target)
    assert poly_of_dunkl(ctx, norm_sq_poly(2), target) == dunkl_laplacian_sq(ctx, target)
    assert poly_of_dunkl(ctx, Poly.const(2, Q(5, 3)), target) == target.scale(Q(5, 3))


def test_poly_of_dunkl_order_permutation():
    # commutativity makes the factor order a convention; check directly
    ctx = make_ctx("z2:d=2", ["1", "3/2"])
    target = parse_poly("x1^3*x2^2 - x2^4", 2)
    via_poly = poly_of_dunkl(ctx, parse_poly("x1*x2", 2), target)
    swapped = apply_coord(ctx, 1, apply_coord(ctx, 0, target))
    direct = apply_coord(ctx, 0, apply_coord(ctx, 1, target))
    assert via_poly == swapped == direct


def test_poly_of_dunkl_applies_each_suffix_once(monkeypatch):
    ctx = make_ctx("b:d=2", ["1", "2"])
    target = parse_poly("x1^4*x2^3 - 2*x2^5 + x1", 2)
    p = parse_poly("x1^2*x2 + 3*x1*x2 - x2 + 5", 2)
    expected = linear_combination(2, [
        (1, apply_coord(ctx, 0, apply_coord(ctx, 0, apply_coord(ctx, 1, target)))),
        (3, apply_coord(ctx, 0, apply_coord(ctx, 1, target))),
        (-1, apply_coord(ctx, 1, target)),
        (5, target),
    ])
    calls = []
    original = dunklcalc.operators.apply_coord

    def counted(ctx, j, w):
        calls.append(j)
        return original(ctx, j, w)

    monkeypatch.setattr(dunklcalc.operators, "apply_coord", counted)
    assert poly_of_dunkl(ctx, p, target) == expected
    # the suffixes x1^2*x2, x1*x2 and x2, one application each
    assert len(calls) == 3


def forbid_expansion(monkeypatch):
    def expand(*args):
        raise AssertionError("expanded before the work budget was checked")

    monkeypatch.setattr(DunklContext, "_coord_image", expand)


def test_work_budget_rejects_before_expanding(monkeypatch):
    ctx = make_ctx("a:d=3", ["1"])
    hostile = parse_poly("x1^100*x2^100*x3^56", 3)
    forbid_expansion(monkeypatch)
    with pytest.raises(ValueError, match="budget"):
        laplacian_powers(ctx, hostile, 1)
    with pytest.raises(ValueError, match="budget"):
        weighted_poly_of_dunkl(ctx, hostile, RadialProfile.power(2))


def test_work_budget_counts_profile_terms_and_spread(monkeypatch):
    # C(m + d, d) * roots alone is under the budget for these inputs; times
    # three profile terms, or times the m + 1 exponents a gaussian word
    # spreads over, it is above
    ctx = make_ctx("a:d=3", ["1"])
    forbid_expansion(monkeypatch)
    p = parse_poly("x1^20*x2^20*x3^15", 3)
    assert comb(55 + 3, 3) * 3 <= MAX_WORK < comb(55 + 3, 3) * 3 * 3
    check_budget(ctx, p.degree())
    with pytest.raises(ValueError, match="budget"):
        weighted_poly_of_dunkl(ctx, p, parse_profile("r^2 + r^4 + r^6"))
    q = parse_poly("x1^8*x2^8*x3^8", 3)
    assert comb(24 + 3, 3) * 3 * 25 > MAX_WORK
    check_budget(ctx, q.degree())
    with pytest.raises(ValueError, match="budget"):
        weighted_poly_of_dunkl(ctx, q, RadialProfile.gaussian(-1))


def test_work_budget_counts_the_fold_of_a_wide_profile(monkeypatch):
    # r^50 and r^-50 lie in one family, 100 apart: the walk is small, but the
    # output fold reaches degree about 5 + 100, with C(108, 3) monomials
    ctx = make_ctx("a:d=3", ["1"])
    forbid_expansion(monkeypatch)
    p = parse_poly("x1^3*x2^2", 3)
    wide = parse_profile("r^(50)+r^(-50)")
    assert comb(5 + 3, 3) * 3 * 2 <= MAX_WORK < comb(5 + 100 + 3, 3)
    check_budget(ctx, p.degree(), 2)
    with pytest.raises(ValueError, match="budget"):
        weighted_poly_of_dunkl(ctx, p, wide)
    with pytest.raises(ValueError, match="budget"):
        hobson_rhs(ctx, p, wide)


def test_commutator_zero():
    rng = random.Random(11)
    for system, kappas in SYSTEMS:
        ctx = make_ctx(system, kappas)
        for _ in range(6):
            xi = tuple(Q(rng.randint(-3, 3)) for _ in range(ctx.dim))
            eta = tuple(Q(rng.randint(-3, 3)) for _ in range(ctx.dim))
            p = random_poly(rng, ctx.dim, 6)
            assert commutator_residual(ctx, xi, eta, p).is_zero()


def test_mult_commutator_identity():
    rng = random.Random(13)
    for system, kappas in SYSTEMS:
        ctx = make_ctx(system, kappas)
        for power in (1, 2, 3):
            p = random_poly(rng, ctx.dim, 4)
            for coord in range(ctx.dim):
                assert mult_commutator_residual(ctx, power, coord, p).is_zero()


def test_mult_commutator_first_power_explicit():
    # Lap(x_l p) - x_l Lap p = 2 D_l p
    ctx = make_ctx("b:d=2", ["1", "2"])
    p = parse_poly("x1^2*x2 - x2^3", 2)
    x1 = parse_poly("x1", 2)
    lhs = dunkl_laplacian_sq(ctx, x1 * p) - x1 * dunkl_laplacian_sq(ctx, p)
    assert lhs == apply_coord(ctx, 0, p).scale(2)


def test_adjoint_formula():
    rng = random.Random(17)
    for system, kappas in SYSTEMS:
        ctx = make_ctx(system, kappas)
        for m in range(5):
            p = random_homogeneous(rng, ctx.dim, m, max_terms=3)
            target = random_poly(rng, ctx.dim, 4)
            assert adjoint_formula_residual(ctx, p, target).is_zero()


def test_adjoint_formula_requires_homogeneous():
    ctx = make_ctx("z2:d=2", ["1", "0"])
    with pytest.raises(ValueError):
        adjoint_formula_residual(ctx, parse_poly("x1 + 1", 2), parse_poly("x1", 2))


def test_laplacian_powers_are_iterated_laplacians():
    rng = random.Random(23)
    for system, kappas in SYSTEMS:
        ctx = make_ctx(system, kappas)
        p = random_poly(rng, ctx.dim, 6)
        powers = laplacian_powers(ctx, p, 4)
        assert len(powers) == 5
        expected = p
        for k, power in enumerate(powers):
            assert power == expected, (system, k)
            expected = dunkl_laplacian_sq(ctx, expected)
    assert laplacian_powers(ctx, p, 0) == [p]


def test_heat_series_inverts_exactly():
    rng = random.Random(29)
    for system, kappas in SYSTEMS:
        ctx = make_ctx(system, kappas)
        p = random_poly(rng, ctx.dim, 6)
        for t in (Q(1, 2), Q(-1, 4), Q(3)):
            assert heat_series(ctx, heat_series(ctx, p, t), -t) == p, (system, t)
        assert heat_series(ctx, p, 0) == p
    assert heat_series(ctx, Poly.zero(ctx.dim), 1).is_zero()

