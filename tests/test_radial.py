import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import dunklcalc.radial as radial
from dunklcalc.operators import DunklContext, apply_coord, operator_words, poly_of_dunkl
from dunklcalc.poly import (
    InvariantError,
    Poly,
    PolyParseError,
    linear_combination,
    norm_sq_poly,
    parse_poly,
    try_divide_norm_sq,
)
from dunklcalc.radial import (
    RadialProfile,
    WeightedFunction,
    _profile,
    format_profile,
    hobson_lhs,
    hobson_residual,
    hobson_rhs,
    inv_r_ddr,
    parse_profile,
    weighted_poly_of_dunkl,
)
from dunklcalc.roots import build_root_system
from dunklcalc.verify import random_homogeneous, random_poly

Q = Fraction


def make_ctx(system, kappas):
    return DunklContext(build_root_system(system, kappas))


def make_profile(s, a, coeffs):
    """The sum of c_j r^(s+2j) exp(a r^2) over the (j, c_j) of coeffs."""
    return _profile(((s + 2 * j, a), c) for j, c in coeffs.items())


def weighted_apply(ctx, xi, w):
    """D_xi w, assembled from the coordinate steps of the weighted walk.

    w's parts go in as int numerators over their common denominator.
    """
    den = lcm(*(c.denominator for poly in w.parts.values() for c in poly.terms.values()))
    word = (den, {key: {e: int(c * den) for e, c in poly.terms.items()}
                  for key, poly in w.parts.items()})
    items = []
    for j, c in enumerate(xi):
        if c:
            step_den, parts = radial._word_step(ctx, j, word)
            items.extend((key, Q(c) / step_den, Poly(w.dim, terms)) for key, terms in parts.items())
    return WeightedFunction._sum(w.dim, items)


def poly_step_walk(ctx, p, profile):
    """weighted_poly_of_dunkl as it was: each D_j step builds a Poly per part.

    D_j (P r^s exp(a r^2)) = (D_j P) r^s exp(a r^2) + P x_j (s r^(s-2) + 2a r^s) exp(a r^2),
    combined per profile key in Fractions.
    """
    def step(j, parts):
        items = []
        for (s, a), poly in parts.items():
            items.append(((s, a), 1, apply_coord(ctx, j, poly)))
            shifted = Poly(ctx.dim, {e[:j] + (e[j] + 1,) + e[j + 1:]: c
                                     for e, c in poly.terms.items()})
            items += [((s - 2, a), s, shifted), ((s, a), 2 * a, shifted)]
        return WeightedFunction._sum(ctx.dim, items).parts

    start = WeightedFunction(ctx.dim, [(Poly.const(ctx.dim, 1), profile)]).parts
    return WeightedFunction._sum(ctx.dim, (
        (key, c, poly)
        for c, parts in operator_words(p, start, step)
        for key, poly in parts.items()
    ))


WALK_SYSTEMS = [
    ("z2:d=2", ["1/2", "1"]), ("z2:d=3", ["1/3", "3/2", "0"]), ("a:d=3", ["2/3"]),
    ("b:d=2", ["3/2", "1/2"]), ("b:d=3", ["1", "1/4"]), ("d:d=4", ["1/2"]),
]


@given(
    st.sampled_from(WALK_SYSTEMS),
    st.integers(0, 3),
    st.integers(0, 2**32),
    st.sampled_from([Q(-3), Q(2), Q(7, 2), Q(-5, 2), Q(1, 3), Q(-4, 3)]),
    st.sampled_from([Q(-1, 2), Q(1, 2), Q(-1), Q(1), Q(0)]),
    st.dictionaries(st.integers(0, 2), st.builds(Q, st.integers(-5, 5), st.integers(1, 4)),
                    min_size=1, max_size=3),
)
@settings(max_examples=120, deadline=None)
def test_integer_words_match_the_poly_step_walk(system, degree, seed, s, a, coeffs):
    ctx = make_ctx(*system)
    p = random_poly(random.Random(seed), ctx.dim, degree)
    profile = make_profile(s, a, coeffs)
    got = weighted_poly_of_dunkl(ctx, p, profile)
    want = poly_step_walk(ctx, p, profile)
    assert got.parts == want.parts
    assert str(got) == str(want)


def test_profile_canonical_form():
    p = make_profile(4, 0, {-1: Q(1), 0: Q(2)})
    assert p.terms == ((2, 1), (4, 2))  # (exponent, coefficient), increasing
    assert all(type(v) is int for term in p.terms for v in term)
    assert make_profile(0, -1, {0: Q(0)}).is_zero()


def test_inv_r_ddr_examples():
    assert inv_r_ddr(RadialProfile.power(2)) == make_profile(0, 0, {0: Q(2)})
    s = Q(7, 2)
    assert inv_r_ddr(RadialProfile.power(s)) == make_profile(s - 2, 0, {0: s})
    gauss = RadialProfile.gaussian(Q(-1, 2))
    assert inv_r_ddr(gauss) == make_profile(0, Q(-1, 2), {0: -1})
    # powers only ever shift by two
    phi = RadialProfile.power_gauss(Q(-3), Q(-1))
    out = inv_r_ddr(inv_r_ddr(inv_r_ddr(phi)))
    assert [t for t, _ in out.terms] == [-9, -7, -5, -3]


def test_weighted_apply_gaussian():
    ctx = make_ctx("z2:d=1", ["1/2"])
    image = weighted_poly_of_dunkl(ctx, parse_poly("x1", 1), RadialProfile.gaussian(Q(-1, 2)))
    expected = WeightedFunction(
        1, [(parse_poly("-x1", 1), RadialProfile.gaussian(Q(-1, 2)))]
    )
    assert image == expected


def test_weighted_apply_pure_polynomial_consistency():
    from dunklcalc.operators import dunkl_apply

    ctx = make_ctx("b:d=2", ["1", "2"])
    p = parse_poly("x1^2*x2 - x2^3", 2)
    w = WeightedFunction(2, [(p, RadialProfile.power(0))])
    image = weighted_apply(ctx, (1, -2), w)
    expected = WeightedFunction(
        2, [(dunkl_apply(ctx, (1, -2), p), RadialProfile.power(0))]
    )
    assert image == expected


def test_weighted_apply_classical_chain_rule():
    ctx = make_ctx("z2:d=2", ["0", "0"])
    s = Q(5, 2)
    image = weighted_poly_of_dunkl(ctx, parse_poly("x1", 2), RadialProfile.power(s))
    expected = WeightedFunction(
        2, [(parse_poly("x1", 2).scale(s), RadialProfile.power(s - 2))]
    )
    assert image == expected


def test_weighted_function_canonical_equality():
    # |x|^2 r^0 and 1 * r^2 describe the same function
    a = WeightedFunction(2, [(norm_sq_poly(2), RadialProfile.power(0))])
    b = WeightedFunction(2, [(Poly.const(2, 1), RadialProfile.power(2))])
    assert a == b
    assert (a - b).is_zero()
    assert a.as_polynomial() == norm_sq_poly(2)


def test_as_polynomial_rejects_profiles():
    w = WeightedFunction(2, [(Poly.const(2, 1), RadialProfile.power(3))])
    with pytest.raises(ArithmeticError):
        w.as_polynomial()
    g = WeightedFunction(2, [(Poly.const(2, 1), RadialProfile.gaussian(-1))])
    with pytest.raises(ArithmeticError):
        g.as_polynomial()


def test_hobson_hand_computed_gaussian():
    # d=1 rank one: p = x^2, profile exp(-r^2/2): p(D) f = (x^2 - 1 - 2k) f
    for kappa in (Q(0), Q(1, 2), Q(3, 2)):
        ctx = make_ctx("z2:d=1", [kappa])
        lhs = hobson_lhs(ctx, parse_poly("x1^2", 1), RadialProfile.gaussian(Q(-1, 2)))
        expected = WeightedFunction(
            1,
            [(
                parse_poly("x1^2", 1) - Poly.const(1, 1 + 2 * kappa),
                RadialProfile.gaussian(Q(-1, 2)),
            )],
        )
        assert lhs == expected


def test_hobson_degree_one_power_profile():
    # degree-1 p against r^2: single term, (1/r d/dr) r^2 = 2
    ctx = make_ctx("b:d=2", ["1", "2"])
    p = parse_poly("2*x1 - x2", 2)
    lhs = hobson_lhs(ctx, p, RadialProfile.power(2))
    assert lhs == WeightedFunction(2, [(p.scale(2), RadialProfile.power(0))])


# -- the canonical form against the fold-then-strip form it replaced ----------


def oracle_canonical(dim, parts):
    """Canonical parts as computed before the form moved to output.

    Every part of a (rate, exponent parity) family is multiplied by a power
    of |x|^2 down to the lowest exponent present, the family is summed, and
    squared-norm factors are divided back out.
    """
    grouped = {}
    for (s, a), poly in parts.items():
        if poly.is_zero():
            continue
        grouped.setdefault((a, s % 2), []).append((s, poly))
    r2 = norm_sq_poly(dim)
    out = {}
    for (a, _), entries in grouped.items():
        base = min(s for s, _ in entries)
        total = linear_combination(
            dim,
            ((1, poly * r2 ** int((s - base) / 2) if s != base else poly)
             for s, poly in entries),
        )
        while not total.is_zero():
            quotient = try_divide_norm_sq(total)
            if quotient is None:
                break
            total = quotient
            base += 2
        if not total.is_zero():
            out[(base, a)] = total
    return out


def oracle_str(canon):
    pieces = []
    for (s, a), poly in sorted(canon.items(), key=lambda item: (item[0][1], item[0][0])):
        text = format_profile(RadialProfile.power_gauss(s, a))
        pieces.append(str(poly) if text == "1" else f"[{poly}] * {text}")
    return " + ".join(pieces) if pieces else "0"


def oracle_as_polynomial(dim, canon):
    r2 = norm_sq_poly(dim)
    pairs = []
    for (s, a), poly in canon.items():
        half, rem = divmod(s, 2)
        if a != 0 or rem != 0 or half < 0 or half.denominator != 1:
            raise InvariantError(
                f"weighted function is not a polynomial (found exponent {s}, rate {a})"
            )
        pairs.append((1, poly * r2 ** int(half)))
    return linear_combination(dim, pairs)


@st.composite
def weighted_pairs(draw):
    """(dim, w, v): v is w with some parts moved across r^2, plus extra parts.

    A part P r^s of w appears in v as P |x|^2 r^(s-2) when it is moved, so
    w == v exactly when the extra parts sum to zero.
    """
    dim = draw(st.integers(1, 3))
    r2 = norm_sq_poly(dim)
    polys = st.builds(
        lambda terms, k: Poly(dim, terms) * r2**k,
        st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * dim), st.integers(-2, 2), max_size=3
        ),
        st.integers(0, 2),
    )
    parts = st.tuples(
        polys,
        st.integers(-4, 4),
        st.sampled_from([Q(0), Q(1, 3)]),
        st.sampled_from([Q(0), Q(-1, 2)]),
        st.booleans(),
    )
    w_terms, v_terms = [], []
    for poly, s, offset, rate, moved in draw(st.lists(parts, max_size=5)):
        s += offset
        w_terms.append((poly, RadialProfile.power_gauss(s, rate)))
        v_terms.append(
            (poly * r2, RadialProfile.power_gauss(s - 2, rate))
            if moved else (poly, RadialProfile.power_gauss(s, rate))
        )
    for poly, s, offset, rate, _ in draw(st.lists(parts, max_size=2)):
        v_terms.append((poly, RadialProfile.power_gauss(s + offset, rate)))
    return dim, WeightedFunction(dim, w_terms), WeightedFunction(dim, v_terms)


@given(weighted_pairs())
@settings(max_examples=300, deadline=None)
def test_canonical_form_matches_oracle(case):
    dim, w, v = case
    for f in (w, v, w - v, w + v):
        canon = oracle_canonical(dim, f.parts)
        assert str(f) == oracle_str(canon)
        assert f.is_zero() == (not canon)
        try:
            expected = oracle_as_polynomial(dim, canon)
        except InvariantError as exc:
            with pytest.raises(InvariantError) as err:
                f.as_polynomial()
            assert str(err.value) == str(exc)
        else:
            assert f.as_polynomial() == expected
    assert (w == v) == (oracle_canonical(dim, w.parts) == oracle_canonical(dim, v.parts))


def _dividends_while_printing(monkeypatch, w):
    """str(w), and the dividends that radial.try_divide_norm_sq receives meanwhile."""
    dividends = []

    def recording(p):
        dividends.append(p)
        return try_divide_norm_sq(p)

    monkeypatch.setattr(radial, "try_divide_norm_sq", recording)
    return str(w), dividends


def test_canonical_fold_divides_only_a_lowest_part(monkeypatch):
    # x1^2 + x2 r^2: |x|^2 does not divide x1^2, so the fold
    # x2 |x|^2 + x1^2 is summed and never divided
    w = WeightedFunction(
        2, [(parse_poly("x1^2", 2), RadialProfile.power(0)),
            (parse_poly("x2", 2), RadialProfile.power(2))],
    )
    text, dividends = _dividends_while_printing(monkeypatch, w)
    assert dividends == [parse_poly("x1^2", 2)]
    assert text == str(parse_poly("x1^2 + x1^2*x2 + x2^3", 2))


def test_canonical_fold_carries_a_quotient_up(monkeypatch):
    # x1 |x|^2 + x2 r^2: the quotient x1 joins the part at r^2, and
    # x1 + x2 is the next lowest part
    lowest = parse_poly("x1", 2) * norm_sq_poly(2)
    w = WeightedFunction(
        2, [(lowest, RadialProfile.power(0)), (parse_poly("x2", 2), RadialProfile.power(2))],
    )
    text, dividends = _dividends_while_printing(monkeypatch, w)
    assert text == "[x1 + x2] * r^(2)"
    assert dividends == [lowest, parse_poly("x1 + x2", 2)]


def test_context_holds_no_radial_state():
    ctx = make_ctx("b:d=2", ["1", "2"])
    names = set(vars(ctx))
    p = parse_poly("x1^2*x2", 2)
    assert hobson_residual(ctx, p, RadialProfile.power_gauss(-3, Q(-1, 2))).is_zero()
    assert set(vars(ctx)) == names
    for table in vars(ctx).values():
        if isinstance(table, dict):  # the operator memo tables hold polynomials only
            # as Polys, or as the canonical term dicts of Polys
            assert all(isinstance(value, Poly) or Poly(ctx.dim, value).terms == value
                       for value in table.values())


def test_hobson_constant():
    ctx = make_ctx("a:d=3", ["1"])
    phi = RadialProfile.power_gauss(3, -1)
    res = hobson_residual(ctx, Poly.const(3, Q(5, 7)), phi)
    assert res.is_zero()


def test_hobson_classical_cross_check():
    # kappa = 0, phi = r^(2N): the weighted route must match the purely
    # polynomial evaluation of p(D) on |x|^(2N)
    ctx = make_ctx("z2:d=3", ["0", "0", "0"])
    rng = random.Random(23)
    for m, n_power in [(2, 2), (3, 3), (4, 3)]:
        p = random_homogeneous(rng, 3, m)
        via_weighted = hobson_lhs(ctx, p, RadialProfile.power(2 * n_power))
        direct = poly_of_dunkl(ctx, p, norm_sq_poly(3) ** n_power)
        assert via_weighted.as_polynomial() == direct


def test_hobson_polynomial_profile_cross_check_weighted():
    # same two-route comparison with nonzero multiplicities
    ctx = make_ctx("b:d=2", ["1", "2"])
    rng = random.Random(37)
    for m, n_power in [(1, 1), (2, 2), (3, 2), (4, 3)]:
        p = random_homogeneous(rng, 2, m)
        via_weighted = hobson_lhs(ctx, p, RadialProfile.power(2 * n_power))
        direct = poly_of_dunkl(ctx, p, norm_sq_poly(2) ** n_power)
        assert via_weighted.as_polynomial() == direct


def test_hobson_residual_zero_across_profiles():
    rng = random.Random(29)
    for system, kappas in [("z2:d=2", ["1", "3/2"]), ("b:d=2", ["1", "2"]), ("a:d=3", ["1"])]:
        ctx = make_ctx(system, kappas)
        lam = ctx.bessel_index
        profiles = [
            RadialProfile.power(2),
            RadialProfile.power(4),
            RadialProfile.power(Q(7, 2)),
            RadialProfile.power(-2 * lam),
            RadialProfile.power(-2 * lam - Q(1, 3)),
            RadialProfile.gaussian(Q(-1, 2)),
            RadialProfile.gaussian(-1),
            RadialProfile.power_gauss(3, -1),
        ]
        for profile in profiles:
            for m in (0, 1, 2, 3, 4, 5):
                p = random_homogeneous(rng, ctx.dim, m)
                assert hobson_residual(ctx, p, profile).is_zero(), (system, str(profile), str(p))


def test_hobson_linearity():
    ctx = make_ctx("z2:d=2", ["1", "0"])
    rng = random.Random(31)
    p = random_homogeneous(rng, 2, 3)
    q = random_homogeneous(rng, 2, 3)
    phi = RadialProfile.gaussian(-1)
    combined = hobson_lhs(ctx, p.scale(2) + q.scale(Q(-1, 3)), phi)
    assert combined == hobson_lhs(ctx, p, phi).scale(2) + hobson_lhs(ctx, q, phi).scale(Q(-1, 3))


def test_hobson_linearity_in_profile():
    ctx = make_ctx("b:d=2", ["1", "2"])
    rng = random.Random(33)
    p = random_homogeneous(rng, 2, 3)
    phi1 = RadialProfile.power(2)
    phi2 = RadialProfile.power(4)
    mixed = make_profile(2, 0, {0: Q(3), 1: Q(-1, 2)})  # 3 r^2 - 1/2 r^4
    for side in (hobson_lhs, hobson_rhs):
        assert side(ctx, p, mixed) == side(ctx, p, phi1).scale(3) + side(
            ctx, p, phi2
        ).scale(Q(-1, 2))


def test_hobson_rhs_requires_homogeneous():
    ctx = make_ctx("z2:d=1", ["1"])
    with pytest.raises(ValueError):
        hobson_rhs(ctx, parse_poly("x1 + 1", 1), RadialProfile.power(2))


def test_closure_exponent_parity_and_rate():
    # Dunkl applications never change the gaussian rate and only shift the
    # exponent by even steps
    ctx = make_ctx("b:d=2", ["1", "2"])
    w = WeightedFunction(2, [(Poly.const(2, 1), RadialProfile.power_gauss(Q(7, 2), Q(-1, 2)))])
    for _ in range(4):
        w = weighted_apply(ctx, (1, Q(1, 2)), w)
    for (s, a), _poly in w.parts.items():
        assert a == Q(-1, 2)
        assert (s - Q(7, 2)) % 2 == 0


def _profile_second_derivative(profile: RadialProfile) -> RadialProfile:
    # f'' for f = sum c r^t exp(a r^2):
    # t(t-1) r^(t-2) + 2a(2t+1) r^t + 4a^2 r^(t+2), coefficient-wise
    s, a = profile.terms[0][0], profile.gauss_coeff
    out = {}
    for t, c in profile.terms:
        j = int((t - s) / 2)
        if t * (t - 1):
            out[j - 1] = out.get(j - 1, Q(0)) + c * t * (t - 1)
        if a:
            out[j] = out.get(j, Q(0)) + c * 2 * a * (2 * t + 1)
            out[j + 1] = out.get(j + 1, Q(0)) + c * 4 * a * a
    return make_profile(s, a, out)


def test_radial_laplacian_specialization():
    # For p = |x|^2 the expansion reduces to f'' + (d - 1 + 2 gamma)/r f'
    for system, kappas in [("z2:d=2", ["1", "3/2"]), ("b:d=2", ["1", "2"]), ("z2:d=1", ["2"])]:
        ctx = make_ctx(system, kappas)
        d = ctx.dim
        gamma = sum(ctx.rs.kappa_by_root())
        for profile in [
            RadialProfile.power(4),
            RadialProfile.power(Q(7, 2)),
            RadialProfile.gaussian(Q(-1, 2)),
            RadialProfile.power_gauss(3, -1),
        ]:
            lhs = hobson_lhs(ctx, norm_sq_poly(d), profile)
            expected = WeightedFunction(
                d,
                [
                    (Poly.const(d, 1), _profile_second_derivative(profile)),
                    (Poly.const(d, d - 1 + 2 * gamma), inv_r_ddr(profile)),
                ],
            )
            assert lhs == expected


def test_parse_profile():
    assert parse_profile("r^(-3)*exp(-1/2*r^2)") == RadialProfile.power_gauss(
        -3, Q(-1, 2)
    )
    assert parse_profile("r^2") == RadialProfile.power(2)
    assert parse_profile("exp(-1*r^2)") == RadialProfile.gaussian(-1)
    assert parse_profile("r^2 - 2*r^4") == make_profile(
        2, 0, {0: Q(1), 1: Q(-2)}
    )
    assert parse_profile("1/2*r^(7/2)") == make_profile(Q(7, 2), 0, {0: Q(1, 2)})
    with pytest.raises(ValueError):
        parse_profile("r^2 + r^3")  # mixed parity cannot merge
    with pytest.raises(ValueError):
        parse_profile("r^2 + exp(-1*r^2)")  # mixed rates cannot merge
    with pytest.raises(ValueError):
        parse_profile("r^^2")


def test_parse_profile_unit_gaussian_rate():
    assert parse_profile("exp(-r^2)") == parse_profile("exp(-1*r^2)")
    assert str(parse_profile("exp(-r^2)")) == "exp(-1*r^2)"
    assert parse_profile("exp(r^2)") == RadialProfile.gaussian(1)
    assert parse_profile("exp(+r^2)") == RadialProfile.gaussian(1)
    assert parse_profile("r^2*exp(-r^2)") == RadialProfile.power_gauss(2, -1)
    assert parse_profile("exp(-1/2*r^2)") == RadialProfile.gaussian(Q(-1, 2))
    assert str(parse_profile("exp(-1/2*r^2)")) == "exp(-1/2*r^2)"
    for text in ("exp(-)", "exp(-r)", "exp(2*r)", "exp(r^2"):
        with pytest.raises(ValueError):
            parse_profile(text)


@pytest.mark.parametrize(
    "text, profile",
    [
        ("\u2212r^2", make_profile(2, 0, {0: -1})),  # unicode minus
        (" 2 * r ^ ( -3/2 )\t* exp ( -1/2*r^2 ) ",
         make_profile(Q(-3, 2), Q(-1, 2), {0: 2})),
        ("r^3/2", RadialProfile.power(Q(3, 2))),  # a bare p/q exponent
        ("exp(- r^2)", RadialProfile.gaussian(-1)),
        ("r*r", RadialProfile.power(2)),
        ("3/4", make_profile(0, 0, {0: Q(3, 4)})),
    ],
)
def test_profile_grammar_accepts(text, profile):
    assert parse_profile(text) == profile


@pytest.mark.parametrize(
    "text, position",
    [
        ("r^(-)", 4),
        ("r^(- 3)", 4),  # a sign must touch its digits
        ("exp(r)", 4),
        ("exp(2 * r^2)", 6),
        ("1/0", 1),  # the slash
        ("r^2/ 0", 3),
        ("r^2 &", 4),
        ("", 0),
        ("r^2 *", 5),  # end of input: the length of the text
        ("x1", 0),
    ],
)
def test_profile_grammar_rejects(text, position):
    with pytest.raises(PolyParseError) as err:
        parse_profile(text)
    assert err.value.position == position


rationals = st.builds(Q, st.integers(-9, 9), st.integers(1, 4))
profiles = st.builds(
    make_profile,
    rationals,
    rationals,
    st.dictionaries(st.integers(0, 3), rationals, max_size=4),
)


@given(profiles)
@settings(max_examples=200, deadline=None)
def test_profile_text_round_trip(profile):
    assert parse_profile(format_profile(profile)) == profile


# -- profiles against the offset-coded form they replaced ----------------------


@dataclass(frozen=True)
class OffsetProfile:
    """The profile encoding replaced by (exponent, coefficient) terms.

    coeffs holds (offset j, c_j) pairs of c_j r^(s+2j) relative to the base
    exponent s, shifted so the smallest offset is zero; the zero profile has
    s = a = 0.
    """

    base_exponent: Fraction
    gauss_coeff: Fraction
    coeffs: tuple

    @staticmethod
    def make(s, a, coeffs):
        clean = {int(j): Q(c) for j, c in coeffs.items() if c}
        if not clean:
            return OffsetProfile(Q(0), Q(0), ())
        shift = min(clean)
        items = tuple(sorted((j - shift, c) for j, c in clean.items()))
        return OffsetProfile(Q(s) + 2 * shift, Q(a), items)

    def scale(self, c):
        c = Q(c)
        return OffsetProfile.make(
            self.base_exponent, self.gauss_coeff, {j: c * v for j, v in self.coeffs}
        )


def offset_inv_r_ddr(profile, n):
    for _ in range(n):
        if not profile.coeffs:
            return profile
        s, a = profile.base_exponent, profile.gauss_coeff
        out = {}
        for j, c in profile.coeffs:
            t = s + 2 * j
            if t:
                out[j - 1] = out.get(j - 1, Q(0)) + c * t
            if a:
                out[j] = out.get(j, Q(0)) + 2 * a * c
        profile = OffsetProfile.make(s, a, out)
    return profile


def offset_merge(profiles):
    total = {}
    for prof in profiles:
        key = (prof.gauss_coeff, prof.base_exponent % 2)
        bucket = total.setdefault(key, {})
        for j, c in prof.coeffs:
            t = prof.base_exponent + 2 * j
            bucket[t] = bucket.get(t, Q(0)) + c
    total = {k: {t: c for t, c in v.items() if c} for k, v in total.items()}
    total = {k: v for k, v in total.items() if v}
    if not total:
        return OffsetProfile.make(0, 0, {})
    if len(total) > 1:
        raise ValueError(
            "profiles do not combine into a single family "
            "(mixed gaussian rates or exponent parities)"
        )
    (a, _), bucket = next(iter(total.items()))
    base = min(bucket)
    return OffsetProfile.make(base, a, {int((t - base) / 2): c for t, c in bucket.items()})


def offset_format(profile):
    if not profile.coeffs:
        return "0"
    parts = []
    for j, c in profile.coeffs:
        t = profile.base_exponent + 2 * j
        factors = []
        if c != 1 or t == 0 and not profile.gauss_coeff:
            factors.append(str(c))
        if t:
            factors.append(f"r^({t})")
        if profile.gauss_coeff:
            factors.append(f"exp({profile.gauss_coeff}*r^2)")
        if not factors:
            factors.append(str(c))
        parts.append("*".join(factors))
    return " + ".join(parts).replace("+ -", "- ")


profile_pieces = st.lists(
    st.tuples(
        st.sampled_from([Q(0), Q(1), Q(-1), Q(2), Q(-1, 2), Q(3, 4)]),
        st.builds(lambda s, offset: s + offset, st.integers(-5, 5),
                  st.sampled_from([Q(0), Q(1, 3)])),
        st.sampled_from([Q(0), Q(-1, 2), Q(-1), Q(1)]),
    ),
    min_size=1,
    max_size=5,
)


@given(profile_pieces, st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_profiles_match_offset_coded_oracle(pieces, n):
    offsets = [OffsetProfile.make(s, a, {0: 1}).scale(k) for k, s, a in pieces]
    text = " + ".join(offset_format(p) for p in offsets).replace("+ -", "- ")
    try:
        expected = offset_merge(offsets)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            parse_profile(text)
        assert str(err.value) == str(exc)
        return
    profile = parse_profile(text)
    assert str(profile) == offset_format(expected)
    for _ in range(n):
        profile = inv_r_ddr(profile)
    assert str(profile) == offset_format(offset_inv_r_ddr(expected, n))


def test_integral_profile_keys_are_ints():
    # the profiles of the hobson suite on one of its default systems
    ctx = make_ctx("b:d=2", ["1", "2"])
    lam = ctx.bessel_index
    rng = random.Random(43)
    profiles = [
        RadialProfile.power(2),
        RadialProfile.power(4),
        RadialProfile.power(Q(7, 2)),
        RadialProfile.power(-2 * lam),
        RadialProfile.gaussian(Q(-1, 2)),
        RadialProfile.gaussian(-1),
        RadialProfile.power_gauss(3, -1),
    ]
    keys = []
    for profile in profiles:
        keys += list(WeightedFunction(2, [(Poly.const(2, 1), profile)]).parts)
        for m in range(4):
            p = random_homogeneous(rng, 2, m)
            for w in (hobson_lhs(ctx, p, profile), hobson_residual(ctx, p, profile)):
                keys += list(w.parts) + list(w.shift_r_power(Q(2)).parts)
    integral = [v for key in keys for v in key if v == int(v)]
    assert len(integral) > 100
    assert all(type(v) is int for v in integral)


# -- the integer fold against the Poly Horner fold it replaced -----------------


def horner_folds(w):
    """(s, a, P) per family, folded with one Poly and one re-check per Horner step.

    The canonical fold as it ran before it moved to integers: the same
    strip of |x|^2 from the lowest part up, then Horner with d shifted
    Polys summed by linear_combination per step.
    """
    families = {}
    for (s, a), poly in w.parts.items():
        families.setdefault((a, s % 2), {})[s] = poly
    for (a, _), family in families.items():
        s, carry = min(family), []
        while family or carry:
            if s in family:
                carry.append((1, family.pop(s)))
            low = linear_combination(w.dim, carry)
            if not low.is_zero() and (quotient := try_divide_norm_sq(low)) is None:
                family[s] = low
                break
            carry = [] if low.is_zero() else [(1, quotient)]
            s += 2
        else:
            continue
        s = max(family)
        total = family.pop(s)
        while family:
            s -= 2
            pairs = horner_shifts(total)
            if s in family:
                pairs.append((1, family.pop(s)))
            total = linear_combination(w.dim, pairs)
        yield s, a, total


def horner_shifts(poly):
    """poly * |x|^2 as linear_combination pairs, one shifted Poly per coordinate."""
    return [
        (1, Poly(poly.dim, {e[:j] + (e[j] + 2,) + e[j + 1:]: c for e, c in poly.terms.items()}))
        for j in range(poly.dim)
    ]


def horner_str(w):
    pieces = []
    for s, a, poly in sorted(horner_folds(w), key=lambda fold: (fold[1], fold[0])):
        text = format_profile(RadialProfile.power_gauss(s, a))
        pieces.append(str(poly) if text == "1" else f"[{poly}] * {text}")
    return " + ".join(pieces) if pieces else "0"


def horner_as_polynomial(w):
    pairs = []
    for s, a, total in horner_folds(w):
        half, rem = divmod(s, 2)
        if a != 0 or rem != 0 or half < 0 or half.denominator != 1:
            raise InvariantError(
                f"weighted function is not a polynomial (found exponent {s}, rate {a})"
            )
        for _ in range(int(half)):
            total = linear_combination(w.dim, horner_shifts(total))
        pairs.append((1, total))
    return linear_combination(w.dim, pairs)


@st.composite
def fraction_weighted_pairs(draw):
    """(dim, w, v) as weighted_pairs draws them, with Fraction coefficients.

    Exponents may be negative or fractional, rates take four values, and v
    moves some parts of w across r^2 and may add parts, so w - v often
    cancels family by family.
    """
    dim = draw(st.integers(1, 3))
    r2 = norm_sq_poly(dim)
    coeffs = st.builds(Q, st.integers(-6, 6), st.integers(1, 6))
    polys = st.builds(
        lambda terms, k: Poly(dim, terms) * r2**k,
        st.dictionaries(st.tuples(*[st.integers(0, 2)] * dim), coeffs, max_size=4),
        st.integers(0, 2),
    )
    parts = st.tuples(
        polys,
        st.integers(-4, 4),
        st.sampled_from([Q(0), Q(1, 3), Q(-1, 2)]),
        st.sampled_from([Q(0), Q(-1, 2), Q(1), Q(2, 3)]),
        st.booleans(),
    )
    w_terms, v_terms = [], []
    for poly, s, offset, rate, moved in draw(st.lists(parts, max_size=5)):
        s += offset
        w_terms.append((poly, RadialProfile.power_gauss(s, rate)))
        v_terms.append(
            (poly * r2, RadialProfile.power_gauss(s - 2, rate))
            if moved else (poly, RadialProfile.power_gauss(s, rate))
        )
    for poly, s, offset, rate, _ in draw(st.lists(parts, max_size=2)):
        v_terms.append((poly, RadialProfile.power_gauss(s + offset, rate)))
    return dim, WeightedFunction(dim, w_terms), WeightedFunction(dim, v_terms)


@given(fraction_weighted_pairs())
@settings(max_examples=300, deadline=None)
def test_integer_fold_matches_the_poly_horner_fold(case):
    dim, w, v = case
    for f in (w, v, w - v, w + v, w.scale(Q(-2, 3)) + v):
        folds = {(s, a): poly for s, a, poly in f._folds()}
        assert folds == {(s, a): poly for s, a, poly in horner_folds(f)}
        for poly in folds.values():  # coefficients canonical: int when integral
            assert all(type(c) is int or c.denominator != 1 for c in poly.terms.values())
        assert str(f) == horner_str(f)
        try:
            expected = horner_as_polynomial(f)
        except InvariantError as exc:
            with pytest.raises(InvariantError) as err:
                f.as_polynomial()
            assert str(err.value) == str(exc)
        else:
            assert f.as_polynomial() == expected
