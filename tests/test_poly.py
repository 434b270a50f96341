from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dunklcalc.verify
from dunklcalc.poly import (
    MAX_DEGREE,
    ExactDivisionError,
    Poly,
    PolyError,
    PolyParseError,
    as_coeff,
    classical_laplacian,
    compile_reflection,
    compose_reflection,
    divide_exact_by_linear,
    divide_exact_by_norm_sq,
    divided_difference,
    format_poly,
    homogeneous_components,
    linear_combination,
    linear_form,
    norm_sq_poly,
    parse_poly,
    partial_derivative,
    try_divide_norm_sq,
    _Scanner,
)
from dunklcalc.roots import _catalog_roots

Q = Fraction


def P(text, dim=2):
    return parse_poly(text, dim)


def test_arithmetic_examples():
    assert P("x1 + x2") * P("x1 - x2") == P("x1^2 - x2^2")
    p = P("3*x1^2 - x2")
    assert p + Poly.zero(2) == p
    assert P("1/2*x1") * P("2/3*x1") == P("1/3*x1^2")


def test_dimension_mismatch():
    with pytest.raises(Exception):
        P("x1", 1) + P("x1", 2)


def _fraction_builds(action) -> int:
    """The number of Fractions built while action() runs, read off the calls of fractions.py."""
    import fractions
    import sys

    builds = [0]

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == fractions.__file__ and code.co_name in (
                "__new__", "_from_coprime_ints"):
            builds[0] += 1

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return builds[0]


def test_subtracting_equal_operands_builds_no_fraction():
    from dunklcalc.radial import WeightedFunction, parse_profile

    text = "1/2*x1^2*x2 - 2/3*x2 + 5/7"
    p, q = P(text), P(text)
    assert _fraction_builds(lambda: p * 2) > 0  # the counter sees Fraction arithmetic
    assert _fraction_builds(lambda: p - q) == 0
    assert (p - q).is_zero() and (p - q).dim == 2
    profile = parse_profile("r^(7/2)*exp(-1/3*r^2)")
    v, w = (WeightedFunction(2, [(P(text), profile), (P("1/3*x1"), profile)]) for _ in "vw")
    assert _fraction_builds(lambda: v - w) == 0
    assert (v - w).is_zero() and not (v - w).parts and (v - w).dim == 2
    # unequal operands still subtract, and a dimension mismatch still raises
    assert (p - P("x2")) == P("1/2*x1^2*x2 - 5/3*x2 + 5/7")
    with pytest.raises(PolyError):
        Poly.zero(2) - Poly.zero(3)
    with pytest.raises(PolyError):
        v - WeightedFunction(3, [(P(text, 3), profile), (P("1/3*x1", 3), profile)])


def _parent_random_homogeneous(rng, dim, degree, max_terms=4):
    """random_homogeneous as it was written before its coefficient table."""
    monos = dunklcalc.verify.monomials_of_degree(dim, degree)
    count = min(len(monos), rng.randint(1, max_terms))
    picks = rng.sample(monos, count)
    terms = {}
    for e in picks:
        c = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
        den = rng.choice([1, 1, 2, 3])
        terms[e] = c if den == 1 else Fraction(c, den)
    return Poly(dim, terms)


def _parent_random_poly(rng, dim, max_degree):
    """random_poly as it was written before it merged term dicts."""
    degrees = rng.sample(range(max_degree + 1), min(3, max_degree + 1))
    total = linear_combination(
        dim, ((1, _parent_random_homogeneous(rng, dim, degree)) for degree in degrees)
    )
    if total.is_zero():
        total = Poly.const(dim, 1)
    return total


def test_random_inputs_match_the_term_by_term_generator(monkeypatch):
    import random

    for seed in range(12):
        for dim in (1, 2, 3, 5):
            for degree in range(-1, 9):
                got_rng, want_rng = random.Random(seed), random.Random(seed)
                for make, parent in [
                    (dunklcalc.verify.random_poly, _parent_random_poly),
                    (dunklcalc.verify.random_homogeneous, _parent_random_homogeneous),
                ]:
                    if degree < 0 and parent is _parent_random_homogeneous:
                        continue
                    got, want = make(got_rng, dim, degree), parent(want_rng, dim, degree)
                    assert got == want and list(got.terms) == list(want.terms)
                    assert [type(c) for c in got.terms.values()] == [
                        type(c) for c in want.terms.values()]
                assert got_rng.random() == want_rng.random()  # the same draws were made
    # one Poly per random input
    built = []
    init = Poly.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Poly, "__init__", counting_init)
    dunklcalc.verify.random_poly(random.Random(3), 3, 6)
    assert len(built) == 1


def test_partial_derivative_examples():
    assert partial_derivative(P("x1^3", 1), [1]) == P("3*x1^2", 1)
    assert partial_derivative(P("x1*x2"), [1, 1]) == P("x1 + x2")
    assert partial_derivative(P("5"), [1, 1]).is_zero()


def reflect(p, alpha):
    return compose_reflection(p, compile_reflection(alpha))


def test_compose_reflection_examples():
    assert reflect(P("x1^2"), (1, 0)) == P("x1^2")
    assert reflect(P("x1"), (1, -1)) == P("x2")
    p = P("x1^3*x2 - 2*x1*x2^2 + 7")
    assert reflect(reflect(p, (1, -1)), (1, -1)) == p


def test_compose_reflection_general_direction():
    # (3,4) is not a signed-permutation reflection; check involution and that
    # the substituted linear forms square back to the variables.
    p = P("x1^2 - x1*x2 + 4*x2^3")
    q = reflect(p, (3, 4))
    assert q != p
    assert reflect(q, (3, 4)) == p


def test_compose_reflection_dimension_mismatch():
    with pytest.raises(PolyError):
        reflect(P("x1"), (1, 0, 0))
    with pytest.raises(PolyError):
        reflect(P("x1"), (0, 0))  # zero root


def divide_by_linear(p, action):
    """divide_exact_by_linear on the terms of p, as a Poly."""
    return Poly(p.dim, divide_exact_by_linear(p.terms, action))


def test_divide_exact_by_linear_examples():
    assert divide_by_linear(P("x1^2 - x2^2"), compile_reflection((1, -1))) == P("x1 + x2")
    cube = P("x1 - x2") ** 3
    assert divide_by_linear(cube, compile_reflection((1, -1))) == P("x1 - x2") ** 2
    with pytest.raises(ExactDivisionError):
        divide_exact_by_linear(P("x1").terms, compile_reflection((1, -1)))
    with pytest.raises(PolyError):
        divide_exact_by_linear(P("x1").terms, compile_reflection((1, -1, 0)))


def test_classical_laplacian_examples():
    assert classical_laplacian(P("x1^2 + x2^2")) == P("4")
    assert classical_laplacian(P("x1^2 - x2^2")).is_zero()
    assert classical_laplacian(P("x1*x2")).is_zero()


def test_homogeneous_components():
    comps = homogeneous_components(P("x1^2 + x2"))
    assert comps == [(1, P("x2")), (2, P("x1^2"))]
    assert homogeneous_components(Poly.zero(2)) == []
    p = P("x1^3*x2")
    assert homogeneous_components(p) == [(4, p)]


def test_parse_examples():
    p = parse_poly("3/2*x1^2*x2 - x3", 3)
    assert p.terms == {(2, 1, 0): Q(3, 2), (0, 0, 1): Q(-1)}
    assert parse_poly("x1 + x1", 2) == P("2*x1")
    with pytest.raises(PolyParseError):
        parse_poly("x0", 2)
    with pytest.raises(PolyParseError):
        parse_poly("", 2)
    with pytest.raises(PolyParseError):
        parse_poly("x1 &", 2)
    assert parse_poly("x1^0", 1) == Poly.const(1, 1)
    # unicode minus from formatted output
    assert parse_poly("−2*x1", 1) == P("-2*x1", 1)


@pytest.mark.parametrize(
    "text, terms",
    [
        ("\u22122*x1 + x2", {(1, 0): Q(-2), (0, 1): Q(1)}),  # unicode minus
        (" 3 / 4 * x1 ^ 2\t-x2 ", {(2, 0): Q(3, 4), (0, 1): Q(-1)}),
        ("+x1*x2*5", {(1, 1): Q(5)}),
        ("x1^0", {(0, 0): Q(1)}),
        ("x1 - x1", {}),
        (f"x1^{MAX_DEGREE}", {(MAX_DEGREE, 0): Q(1)}),
    ],
)
def test_poly_grammar_accepts(text, terms):
    assert parse_poly(text, 2) == Poly(2, terms)


@pytest.mark.parametrize(
    "text, position",
    [
        ("x 1", 1),  # whitespace may not split a token
        ("x0", 0),
        ("x3", 0),
        ("1/0", 1),  # the slash
        ("x1 &", 3),
        ("", 0),
        ("  ", 2),  # end of input: the length of the text
        ("x1 +", 4),
        ("x1^", 3),
        ("- -x1", 2),
        ("2/ x1", 3),
        (f"x2 - x1^{MAX_DEGREE}*x2", 5),  # degree cap, at the term
        pytest.param("1" * 5000, 0, id="5000-digit number"),
    ],
)
def test_poly_grammar_rejects(text, position):
    with pytest.raises(PolyParseError) as err:
        parse_poly(text, 2)
    assert err.value.position == position


def parent_rational(scanner, signed=False):
    """_Scanner.rational as it was before integer tokens stayed ints."""
    lead = scanner.peek()
    if signed and lead in ("+", "-"):
        scanner.pos += 1
    num = scanner.digits("a number")
    if signed and lead == "-":
        num = -num
    if scanner.peek() != "/":
        return Fraction(num)
    slash = scanner.pos
    scanner.pos += 1
    scanner.peek()
    den = scanner.digits("a denominator")
    if not den:
        raise scanner.error("zero denominator", slash)
    return Fraction(num, den)


@given(st.text(alphabet="0123456789/+- \u2212x", max_size=8), st.booleans())
@settings(max_examples=300, deadline=None)
def test_integer_tokens_read_as_ints_where_the_parent_read_fractions(text, signed):
    def outcome(read):
        scanner = _Scanner(text)
        try:
            value = read(scanner)
        except PolyParseError as exc:
            return str(exc), exc.position
        return value, scanner.pos

    got = outcome(lambda scanner: scanner.rational(signed=signed))
    assert got == outcome(lambda scanner: parent_rational(scanner, signed))
    value, end = got
    if not isinstance(value, str):
        assert (type(value) is int) == ("/" not in text[:end])


def test_format_canonical_order():
    p = P("x2 + x1^2 - 3")
    assert format_poly(p) == "x1^2 + x2 - 3"
    assert format_poly(Poly.zero(2)) == "0"
    assert format_poly(P("-x1")) == "-x1"


@pytest.mark.parametrize("c, constant, monomial", [
    (-1, "-1", "-x1*x2^2"),
    (Q(-1, 2), "-1/2", "-1/2*x1*x2^2"),
    (Q(3, 4), "3/4", "3/4*x1*x2^2"),
    (-7, "-7", "-7*x1*x2^2"),
])
def test_format_reads_sign_and_magnitude_off_the_coefficient(c, constant, monomial):
    assert format_poly(Poly.const(2, c)) == constant
    assert format_poly(Poly(2, {(1, 2): c})) == monomial
    # after a leading term the sign becomes the joint
    joint = f" - {monomial[1:]}" if monomial[0] == "-" else f" + {monomial}"
    assert format_poly(Poly(2, {(3, 0): 1, (1, 2): c})) == "x1^3" + joint
    joint = f" - {constant[1:]}" if constant[0] == "-" else f" + {constant}"
    assert format_poly(Poly(2, {(3, 0): 1, (0, 0): c})) == "x1^3" + joint


exponents = st.tuples(st.integers(0, 4), st.integers(0, 4))
coeffs = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))
polys = st.dictionaries(exponents, coeffs, max_size=5).map(lambda t: Poly(2, t))


@given(polys, polys, polys)
@settings(max_examples=40, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a


mixed_coeffs = st.one_of(st.integers(-3, 3), coeffs)


@given(st.lists(st.tuples(mixed_coeffs, polys), max_size=5))
@settings(max_examples=60, deadline=None)
def test_linear_combination_matches_fold(pairs):
    # no pairs, c = 0, full cancellation and mixed int/Fraction coefficients
    folded = Poly.zero(2)
    for c, q in pairs:
        folded = folded + q.scale(c)
    assert linear_combination(2, pairs) == folded
    if pairs:
        c, q = pairs[0]
        assert linear_combination(2, pairs + [(-c, q)]) == folded - q.scale(c)
        assert linear_combination(2, [(c, q), (-c, q), (0, q)]).is_zero()


def test_linear_combination_checks_dimension():
    with pytest.raises(PolyError):
        linear_combination(2, [(1, P("x1", 1))])


@given(polys)
@settings(max_examples=40, deadline=None)
def test_parse_format_round_trip(p):
    assert parse_poly(format_poly(p), 2) == p


@given(polys)
@settings(max_examples=30, deadline=None)
def test_euler_identity_per_component(p):
    for degree, comp in homogeneous_components(p):
        euler = Poly.zero(2)
        for i in range(2):
            e = [0, 0]
            e[i] = 1
            euler = euler + Poly.monomial(2, e) * partial_derivative(
                comp, [1 if j == i else 0 for j in range(2)]
            )
        assert euler == comp.scale(degree)


@given(polys)
@settings(max_examples=30, deadline=None)
def test_linear_division_round_trip(q):
    for alpha in [(1, 0), (1, -1), (3, 4)]:
        product = q * parse_poly("x1", 2).scale(alpha[0]) + q * parse_poly(
            "x2", 2
        ).scale(alpha[1])
        assert divide_by_linear(product, compile_reflection(alpha)) == q


@given(polys)
@settings(max_examples=30, deadline=None)
def test_reflection_difference_divisible(p):
    for alpha in [(1, 0), (0, 1), (1, -1), (1, 1), (3, 4)]:
        diff = p - reflect(p, alpha)
        q = divide_by_linear(diff, compile_reflection(alpha))  # must not raise
        lin = Poly(2, {(1, 0): Q(alpha[0]), (0, 1): Q(alpha[1])})
        assert q * lin == diff


# every root of the z2, a, b and d catalogs with d <= 5, and custom roots of
# the same shapes with other signs and sizes
SIGNED_ROOTS = sorted(
    {root for family in ("z2", "a", "b", "d") for d in range(1 if family == "z2" else 2, 6)
     for root in _catalog_roots(f"{family}:d={d}")[1]}
    | {(Q(2), Q(-2)), (Q(0), Q(-3), Q(0)), (Q(-1), Q(1)), (Q(0), Q(5, 2), Q(0), Q(5, 2))}
)


def quotient_by_division(e, alpha):
    mono = Poly.monomial(len(e), e)
    return divide_by_linear(mono - reflect(mono, alpha), compile_reflection(alpha))


@given(st.sampled_from(SIGNED_ROOTS), st.sampled_from([1, 2, Q(1, 2), -3]), st.data())
@settings(max_examples=400, deadline=None)
def test_divided_difference_matches_division(root, scale, data):
    alpha = [scale * a for a in root]
    e = data.draw(st.tuples(*[st.integers(0, 8)] * len(alpha)))
    action = compile_reflection(alpha)
    assert action.signed is not None
    closed = divided_difference(e, action)
    oracle = quotient_by_division(e, alpha)
    # the closed form is the quotient over the root's unit
    assert Poly(len(e), closed).scale(action.unit) == oracle
    assert set(closed.values()) <= {1, -1}
    # the same term order too, so sums over the memo tables keep theirs
    assert list(closed) == list(oracle.terms)


@pytest.mark.parametrize("alpha, e", [
    ((1, 0), (4, 3)),        # sign flip, even e_k
    ((0, 0, -2), (1, 5, 0)),
    ((1, -1), (3, 3)),       # transposition, a = b
    ((0, 2, 2), (7, 2, 2)),  # signed transposition, a = b
])
def test_divided_difference_zero_cases(alpha, e):
    assert divided_difference(e, compile_reflection(alpha)) == {}
    assert quotient_by_division(e, alpha).is_zero()


def test_divided_difference_needs_a_signed_root():
    with pytest.raises(PolyError):
        divided_difference((1, 2), compile_reflection((3, 4)))
    with pytest.raises(PolyError):
        divided_difference((1, 2, 0), compile_reflection((1, -1)))


def test_norm_sq_division():
    q = P("x1^3 - 2*x1*x2 + 1/3*x2^2")
    assert divide_exact_by_norm_sq(q * norm_sq_poly(2)) == q
    assert try_divide_norm_sq(P("x1^2")) is None
    with pytest.raises(ExactDivisionError):
        divide_exact_by_norm_sq(P("x1^2 + x1*x2"))


def test_evaluate_exact_and_complex():
    p = P("x1^2*x2 - 1/2")
    assert p.evaluate((Q(2), Q(3))) == Q(23, 2)
    value = p.evaluate((1j, 2.0))
    assert value == pytest.approx(-2 - 0.5)


def test_power():
    p = P("x1 + x2")
    assert p**0 == Poly.const(2, 1)
    assert p**3 == p * p * p
    with pytest.raises(Exception):
        p ** (-1)


# The two division loops that poly._divide_monic replaced, kept as oracles.
def old_divide_exact_by_linear(p, alpha):
    alpha = [Q(a) for a in alpha]
    pivot = max(range(p.dim), key=lambda i: abs(alpha[i]))
    ak = alpha[pivot]
    rem = dict(p.terms)
    quot = {}
    while rem:
        top = max(e[pivot] for e in rem)
        if top == 0:
            raise ExactDivisionError(
                f"{format_poly(p)} is not divisible by the linear form of "
                f"({', '.join(str(a) for a in alpha)}); remainder "
                f"{format_poly(Poly(p.dim, rem))}"
            )
        level = [(e, c) for e, c in rem.items() if e[pivot] == top]
        for e, c in level:
            qe = tuple(v - 1 if j == pivot else v for j, v in enumerate(e))
            qc = c / ak
            quot[qe] = quot.get(qe, 0) + qc
            for i, ai in enumerate(alpha):
                if ai:
                    f = tuple(v + 1 if j == i else v for j, v in enumerate(qe))
                    s = rem.get(f, 0) - qc * ai
                    if s:
                        rem[f] = s
                    else:
                        rem.pop(f, None)
    return Poly(p.dim, {e: c for e, c in quot.items() if c})


def old_try_divide_norm_sq(p):
    if p.is_zero():
        return p
    rem = dict(p.terms)
    quot = {}
    while rem:
        e = max(rem)
        if e[0] < 2:
            return None
        c = rem[e]
        qe = (e[0] - 2,) + e[1:]
        quot[qe] = c
        for i in range(p.dim):
            f = tuple(v + 2 if j == i else v for j, v in enumerate(qe))
            s = rem.get(f, 0) - c
            if s:
                rem[f] = s
            else:
                rem.pop(f, None)
    return Poly(p.dim, quot)


def outcome(fn, *args):
    """A quotient with its term order, None, or the ExactDivisionError text."""
    try:
        q = fn(*args)
    except ExactDivisionError as exc:
        return "error", str(exc)
    return None if q is None else (q, list(q.terms))


@st.composite
def dividends(draw, divisor_of):
    """(p, divisor data): a multiple of the divisor, with or without a remainder."""
    dim = draw(st.integers(1, 4))
    divisor, data = draw(divisor_of(dim))
    exponent = st.tuples(*[st.integers(0, 3)] * dim)
    q = Poly(dim, draw(st.dictionaries(exponent, coeffs, max_size=6)))
    r = Poly(dim, draw(st.dictionaries(exponent, coeffs, max_size=2)))
    return q * divisor + r, data


def linear_divisors(dim):
    """Catalog roots of this dimension and general ones, with their forms."""
    catalog = st.sampled_from([root for root in SIGNED_ROOTS if len(root) == dim])
    general = st.lists(coeffs, min_size=dim, max_size=dim).filter(any)
    return st.one_of(catalog, general).map(lambda alpha: (linear_form(alpha), alpha))


@given(dividends(linear_divisors))
@settings(max_examples=300, deadline=None)
def test_linear_division_matches_old_loop(case):
    p, alpha = case
    assert outcome(divide_by_linear, p, compile_reflection(alpha)) == outcome(
        old_divide_exact_by_linear, p, alpha)


@given(dividends(lambda dim: st.just((norm_sq_poly(dim), None))))
@settings(max_examples=300, deadline=None)
def test_norm_sq_division_matches_old_loop(case):
    p, _ = case
    old = outcome(old_try_divide_norm_sq, p)
    assert outcome(try_divide_norm_sq, p) == old
    if old is None:
        assert outcome(divide_exact_by_norm_sq, p) == (
            "error", f"{format_poly(p)} is not divisible by the squared norm")
    else:
        assert outcome(divide_exact_by_norm_sq, p) == old


# -- coefficient types -------------------------------------------------------


def assert_canonical(p):
    """Every coefficient of a Poly or a term dict is an int when integral, else a
    Fraction: no float, no bool."""
    for e, c in (p.terms if isinstance(p, Poly) else p).items():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (e, repr(c))


@pytest.mark.parametrize("value, expected", [
    (3, 3), (True, 1), (False, 0), (Q(4, 2), 2), (Q(-1, 3), Q(-1, 3)),
    (0.5, Q(1, 2)), (2.0, 2), ("-6/3", -2),
])
def test_as_coeff(value, expected):
    c = as_coeff(value)
    assert c == expected and type(c) is type(expected)


# integral Fractions, bools and ints among the inputs: all must come out canonical
any_coeff = st.one_of(st.integers(-6, 6), st.booleans(), coeffs, coeffs.map(lambda c: c * 6))


@st.composite
def typed_cases(draw):
    """(p, q, alpha, e): polynomials of one dimension, a root and an exponent."""
    dim = draw(st.integers(1, 3))
    exponent = st.tuples(*[st.integers(0, 3)] * dim)
    p, q = (Poly(dim, draw(st.dictionaries(exponent, any_coeff, max_size=5))) for _ in "pq")
    catalog = st.sampled_from([root for root in SIGNED_ROOTS if len(root) == dim])
    general = st.lists(any_coeff, min_size=dim, max_size=dim).filter(any)
    return p, q, draw(st.one_of(catalog, general)), draw(exponent)


@given(typed_cases(), any_coeff, st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_every_result_has_canonical_coefficients(case, c, n):
    p, q, alpha, e = case
    dim = p.dim
    action = compile_reflection(alpha)
    lin = linear_form(alpha)
    results = [
        p, q, lin, norm_sq_poly(dim), Poly.zero(dim), Poly.const(dim, c),
        Poly.variable(dim, 1), Poly(dim, {e: c}),
        p + q, p - q, p * q, p + c, c - p, -p, p.scale(c), c * p, p**n,
        linear_combination(dim, [(c, p), (alpha[0], q), (Q(1, 2), p)]),
        partial_derivative(p, alpha), classical_laplacian(p),
        compose_reflection(p, action),
        divide_exact_by_linear((p * lin).terms, action),
        divide_exact_by_norm_sq(p * norm_sq_poly(dim)),
        parse_poly(format_poly(p), dim),
    ]
    if action.signed is not None:
        closed = divided_difference(e, action)
        assert_canonical(closed)
        results.append(Poly(dim, closed).scale(action.unit))
    divided = try_divide_norm_sq(q)
    if divided is not None:
        results.append(divided)
    results += [h for _, h in homogeneous_components(p)]
    for r in results:
        assert_canonical(r)
    assert type(p.constant_term()) in (int, Fraction)


@pytest.mark.parametrize("text", ["4/2*x1 + 3/3", "6/4*x1^2 - 1/2*x1^2 + 2/3*x2", "0/5 + x2"])
def test_parse_gives_canonical_coefficients(text):
    p = parse_poly(text, 2)
    assert_canonical(p)


@pytest.mark.parametrize("system, kappas", [("a:d=3", ("1",)), ("b:d=2", ("1", "2"))])
def test_memo_tables_hold_canonical_coefficients(monkeypatch, system, kappas):
    monkeypatch.setattr(dunklcalc.verify, "_CONTEXTS", {})
    for suite in ("laplacian-routes", "hobson"):
        assert dunklcalc.verify.SUITES[suite](system, kappas).passed
    (ctx,) = dunklcalc.verify._CONTEXTS.values()
    walked = 0
    for table in (ctx._quotients, ctx._coord_images, ctx._laplacian_images, ctx._expr_images):
        assert table
        for value in table.values():
            assert_canonical(value)
            walked += 1
    assert walked > 100
