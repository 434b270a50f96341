"""Exact calculus of polynomials weighted by radial profiles.

A profile is a finite sum of c_j r^(s+2j) times exp(a r^2) with rational
s, a, c_j.  The class is closed under the radial derivative (1/r) d/dr and
under multiplication by even polynomials in r, and products of polynomials
with such profiles are closed under Dunkl operators: since the profile is
invariant under every reflection, the difference part of the operator acts
on the polynomial factor alone and the chain rule contributes
<xi, x> times the radial derivative of the profile.

That closure makes both sides of Hobson's expansion of p(D) applied to a
radial function exactly computable, which is how the identity is verified
here: not for a single numeric sample but as a structural equality of
canonical forms, each reached in one fold per profile family that divides
only lowest parts by |x|^2 (WeightedFunction._folds).  The fold runs in
integers, scaled once per family and divided once per output term, and
each of its Horner steps in |x|^2 is one dict of shifted exponents.  The
operator words of p(D) run in integers as well: a word's parts are int term
dicts over one denominator, read off the scaled coordinate images, and the
words are summed and divided once per output term, one Poly per part.

Profile text (parse_profile) is read character by character by the scanner
that parse_poly shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Iterable, Iterator, Mapping

from .operators import (
    MAX_WORK,
    DunklContext,
    check_budget,
    laplacian_powers,
    operator_words,
)
from .poly import (
    Coeff,
    Exponent,
    InvariantError,
    Poly,
    _Scanner,
    as_coeff,
    combine_terms,
    divide_numerators,
    linear_combination,
    try_divide_norm_sq,
)

ProfileKey = tuple[Coeff, Coeff]  # (r exponent s, gaussian rate a)


@dataclass(frozen=True)
class RadialProfile:
    """Finite sum of c_s r^s exp(a r^2) over exponents s of one parity.

    terms holds the nonzero (s, c_s) pairs in increasing s, with s, a and
    c_s typed by poly.as_coeff as in WeightedFunction.parts; the zero
    profile has rate 0 and no terms.  Every constructor goes through
    _profile, which keeps this form.
    """

    gauss_coeff: Coeff
    terms: tuple[tuple[Coeff, Coeff], ...]

    @staticmethod
    def power(s) -> "RadialProfile":
        """r^s."""
        return _profile([((s, 0), 1)])

    @staticmethod
    def gaussian(a) -> "RadialProfile":
        """exp(a r^2)."""
        return _profile([((0, a), 1)])

    @staticmethod
    def power_gauss(s, a) -> "RadialProfile":
        return _profile([((s, a), 1)])

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        return format_profile(self)


def _family(s, a) -> tuple:
    """The family of r^s exp(a r^2): its rate and the parity of s.

    Multiplying by |x|^2 = r^2 moves a summand inside its family, so only
    summands of one family combine into one profile or one fold.
    """
    return a, s % 2


def _radial_derivative(s, a) -> Iterator[tuple[ProfileKey, Coeff]]:
    """(1/r) d/dr r^s exp(a r^2) as ((exponent, rate), coefficient) items.

    It is s r^(s-2) exp(a r^2) + 2a r^s exp(a r^2); a zero coefficient
    (s = 0, or a = 0) leaves its item out.
    """
    if s:
        yield (s - 2, a), s
    if a:
        yield (s, a), 2 * a


def _profile(items: Iterable[tuple[ProfileKey, object]]) -> RadialProfile:
    """The sum of c r^s exp(a r^2) over ((s, a), c) items, zero sums dropped.

    Raises ValueError when the nonzero sums span more than one family.
    """
    total: dict[ProfileKey, object] = {}
    for key, c in items:
        total[key] = total.get(key, 0) + c
    terms = sorted((key, c) for key, c in total.items() if c)
    if not terms:
        return RadialProfile(0, ())
    if len({_family(*key) for key, _ in terms}) > 1:
        raise ValueError(
            "profiles do not combine into a single family "
            "(mixed gaussian rates or exponent parities)"
        )
    a = as_coeff(terms[0][0][1])
    return RadialProfile(a, tuple((as_coeff(s), as_coeff(c)) for (s, _), c in terms))


def inv_r_ddr(profile: RadialProfile) -> RadialProfile:
    """The radial derivative (1/r) d/dr of the profile, term by term."""
    a = profile.gauss_coeff
    return _profile(
        (key, c * d) for s, c in profile.terms for key, d in _radial_derivative(s, a)
    )


def format_profile(profile: RadialProfile) -> str:
    if profile.is_zero():
        return "0"
    a = profile.gauss_coeff
    parts = []
    for t, c in profile.terms:
        factors = []
        if c != 1 or t == 0 and not a:
            factors.append(str(c))
        if t:
            factors.append(f"r^({t})")
        if a:
            factors.append(f"exp({a}*r^2)")
        parts.append("*".join(factors))
    return " + ".join(parts).replace("+ -", "- ")


class WeightedFunction:
    """Finite sum of polynomial times radial-profile products.

    Internally each summand is flattened to a single power: the parts map
    sends (exponent s, gaussian rate a) to the polynomial factor of
    P(x) r^s exp(a r^2).  Since P r^s equals P |x|^2 r^(s-2), the parts
    are kept as built, and the canonical form is reached only when read,
    in one fold per (rate, exponent parity) family (_folds): |x|^2 is
    stripped from the lowest part up, and what is left is summed into one
    polynomial that |x|^2 does not divide.  is_zero, ==, terms(), str()
    and as_polynomial() all read that fold.  Two weighted functions are
    equal exactly when their difference has no nonzero fold, and
    WeightedFunction(dim) is the zero function.
    """

    __slots__ = ("dim", "parts")

    def __init__(self, dim: int, terms: Iterable[tuple[Poly, RadialProfile]] = ()):
        self.dim = dim
        items = []
        for poly, profile in terms:
            if poly.dim != dim:
                raise ValueError("polynomial factor has wrong dimension")
            items.extend(((s, profile.gauss_coeff), c, poly) for s, c in profile.terms)
        self.parts: dict[ProfileKey, Poly] = _combine_parts(dim, items)

    @staticmethod
    def _sum(dim: int, items: Iterable[tuple[ProfileKey, object, Poly]]) -> "WeightedFunction":
        """The sum of c * P(x) r^s exp(a r^2) over ((s, a), c, P) items."""
        out = WeightedFunction(dim)
        out.parts = _combine_parts(dim, items)
        return out

    # -- linear structure ---------------------------------------------------

    def _items(self, c=1) -> list[tuple[ProfileKey, object, Poly]]:
        return [(key, c, poly) for key, poly in self.parts.items()]

    # a dimension mismatch raises PolyError in linear_combination
    def __add__(self, other: "WeightedFunction") -> "WeightedFunction":
        return WeightedFunction._sum(self.dim, self._items() + other._items())

    def __sub__(self, other: "WeightedFunction") -> "WeightedFunction":
        return WeightedFunction._sum(self.dim, self._items() + other._items(-1))

    def __neg__(self) -> "WeightedFunction":
        return self.scale(-1)

    def scale(self, c) -> "WeightedFunction":
        return WeightedFunction._sum(self.dim, self._items(Fraction(c)))

    def shift_r_power(self, e) -> "WeightedFunction":
        return WeightedFunction._sum(
            self.dim, (((as_coeff(s + e), a), 1, p) for (s, a), p in self.parts.items())
        )

    # -- canonical form, computed at output ----------------------------------

    def _folds(self) -> Iterator[tuple[Coeff, Coeff, Poly]]:
        """(exponent s, rate a, P) per nonzero (rate, exponent parity) family.

        P r^s sums the family's parts P_t r^t with s as high as it goes.
        The family is folded in integers: its parts are scaled once by the
        lcm of their coefficient denominators, and each term of P is divided
        by that scale once at the end.  |x|^2 divides the family's sum
        exactly when it divides its lowest part, so only the lowest part is
        divided (by try_divide_norm_sq, whose monic divisor keeps integer
        quotients): its quotient joins the part at s + 2, a zero lowest part
        is passed over, and the parts left are summed by Horner in |x|^2
        from the top exponent down, one dict per step (_times_norm_sq).  A
        family whose parts cancel yields nothing.
        """
        dim = self.dim
        families: dict[tuple, dict[Coeff, Poly]] = {}
        for (s, a), poly in self.parts.items():
            families.setdefault(_family(s, a), {})[s] = poly
        for (a, _), family in families.items():
            scale = lcm(*(c.denominator for poly in family.values()
                          for c in poly.terms.values() if type(c) is not int))
            if scale != 1:
                family = {s: _scaled(poly, scale) for s, poly in family.items()}
            s, carry = min(family), []
            while family or carry:
                if s in family:
                    carry.append((1, family.pop(s)))
                low = linear_combination(dim, carry)
                if not low.is_zero() and (quotient := try_divide_norm_sq(low)) is None:
                    family[s] = low
                    break
                carry = [] if low.is_zero() else [(1, quotient)]
                s += 2
            else:
                continue  # the parts cancel
            s = max(family)
            total = family.pop(s).terms
            while family:
                s -= 2
                part = family.pop(s, None)
                total = _times_norm_sq(dim, total, part.terms if part else None)
            if scale != 1:
                total = divide_numerators(total, scale)
            yield s, a, Poly(dim, total)

    def is_zero(self) -> bool:
        return next(self._folds(), None) is None

    def __eq__(self, other):
        if not isinstance(other, WeightedFunction):
            return NotImplemented
        return self.dim == other.dim and (self - other).is_zero()

    __hash__ = None

    def terms(self) -> tuple[tuple[Poly, RadialProfile], ...]:
        """Canonical (polynomial, single-power profile) presentation.

        One pair per fold, ordered by rate, then exponent.
        """
        folds = sorted(self._folds(), key=lambda fold: (fold[1], fold[0]))
        return tuple((poly, RadialProfile.power_gauss(s, a)) for s, a, poly in folds)

    def as_polynomial(self) -> Poly:
        """Extract P when the function is the polynomial P(x).

        Raises InvariantError when the canonical form has any profile
        content; even powers of r fold back into P through the squared norm.
        """
        pairs = []
        for s, a, total in self._folds():
            half, rem = divmod(s, 2)
            if a != 0 or rem != 0 or half < 0 or half.denominator != 1:
                raise InvariantError(
                    f"weighted function is not a polynomial (found exponent {s}, rate {a})"
                )
            terms = total.terms
            for _ in range(int(half)):
                terms = _times_norm_sq(self.dim, terms)
            pairs.append((1, Poly(self.dim, terms)))
        return linear_combination(self.dim, pairs)

    def __str__(self) -> str:
        pieces = []
        for poly, profile in self.terms():
            text = format_profile(profile)
            pieces.append(str(poly) if text == "1" else f"[{poly}] * {text}")
        return " + ".join(pieces) if pieces else "0"


def _combine_parts(
    dim: int, items: Iterable[tuple[ProfileKey, object, Poly]]
) -> dict[ProfileKey, Poly]:
    """The sum of c * q per profile key over (key, c, q) items, zero sums dropped."""
    grouped: dict[ProfileKey, list[tuple[object, Poly]]] = {}
    for key, c, q in items:
        grouped.setdefault(key, []).append((c, q))
    parts = {}
    for key, pairs in grouped.items():
        total = linear_combination(dim, pairs)
        if not total.is_zero():
            parts[key] = total
    return parts


def _scaled(poly: Poly, scale: int) -> Poly:
    """poly * scale, for a scale that clears every denominator: int coefficients."""
    return Poly(poly.dim, {
        e: c * scale if type(c) is int else c.numerator * (scale // c.denominator)
        for e, c in poly.terms.items()
    })


def _times_norm_sq(
    dim: int, terms: Mapping[Exponent, Coeff], part: Mapping[Exponent, Coeff] | None = None
) -> dict[Exponent, Coeff]:
    """part + terms * |x|^2 in one dict, for nonempty terms: each x^e moves to every x^(e + 2 e_j).

    A monomial to monomial map: the shifted exponents are zipped from the
    coordinate columns of all the terms at once, no Poly is built and no
    coefficient is re-checked; zero coefficients may stay until the caller
    builds a Poly.
    """
    out = dict(part) if part else {}
    columns, values = list(zip(*terms)), list(terms.values())
    for j in range(dim):
        shifted = zip(*columns[:j], [k + 2 for k in columns[j]], *columns[j + 1:])
        for f, c in zip(shifted, values):
            out[f] = out.get(f, 0) + c
    return out


Word = tuple[int, dict[ProfileKey, dict[Exponent, Coeff]]]


def _word_step(ctx: DunklContext, j: int, word: Word) -> Word:
    """D_j on a word (den, parts): the sum of parts[(s, a)] / den times r^s exp(a r^2).

    Each part P contributes L D_j P, read off the q-scaled coordinate images
    at its nonzero terms, at its own key, and P x_j times q L c for each
    radial-derivative item (key, c): s at (s - 2, a) and 2a at (s, a).  L,
    the lcm of the denominators of those c, makes every weight an int, so
    the step returns (den q L, parts) with int sums on signed roots and no
    Poly or Fraction built; zero entries may stay until the caller builds
    a Poly.
    """
    den, parts = word
    q = ctx._scale
    slopes = {key: list(_radial_derivative(*key)) for key in parts}
    scale = lcm(*(c.denominator for items in slopes.values() for _, c in items))
    pairs: dict[ProfileKey, list] = {}
    for key, terms in parts.items():
        pairs.setdefault(key, []).extend(
            (scale * c, ctx._coord_image(j, e)) for e, c in terms.items() if c)
        shifted = {e[:j] + (e[j] + 1,) + e[j + 1:]: c for e, c in terms.items()}
        for target, c in slopes[key]:
            pairs.setdefault(target, []).append(
                (q * c.numerator * (scale // c.denominator), shifted))
    return den * q * scale, {key: combine_terms(group) for key, group in pairs.items()}


def weighted_poly_of_dunkl(
    ctx: DunklContext, p: Poly, profile: RadialProfile
) -> WeightedFunction:
    """p(D) applied to the radial function, one operator word per term of p.

    Each word runs in integers (_word_step), its parts over one denominator;
    the words are summed per profile key over their common denominator,
    each output term is divided once, and one Poly is built per part.  A
    gaussian rate lets a word of length m spread over m + 1 exponents of
    r, each with its own polynomial; the work budget counts them.  Both
    this and hobson_rhs also bound the output fold (_check_fold_budget).
    """
    spread = max(p.degree(), 0) + 1 if profile.gauss_coeff else 1
    check_budget(ctx, p.degree(), len(profile.terms) * spread)
    _check_fold_budget(ctx.dim, p.degree(), profile)
    den = lcm(*(c.denominator for _, c in profile.terms))
    one = (0,) * ctx.dim
    start = (den, {(s, profile.gauss_coeff): {one: c.numerator * (den // c.denominator)}
                   for s, c in profile.terms})
    words = operator_words(p, start, lambda j, word: _word_step(ctx, j, word))
    den = lcm(*(c.denominator * word_den for c, (word_den, _) in words))
    grouped: dict[ProfileKey, list] = {}
    for c, (word_den, parts) in words:
        factor = c.numerator * (den // (c.denominator * word_den))
        for key, terms in parts.items():
            grouped.setdefault(key, []).append((factor, terms))
    out = WeightedFunction(ctx.dim)
    for key, group in grouped.items():
        total = {e: v for e, v in combine_terms(group).items() if v}
        if total:
            out.parts[key] = Poly(ctx.dim, divide_numerators(total, den) if den != 1 else total)
    return out


def _check_fold_budget(dim: int, degree: int, profile: RadialProfile) -> None:
    """ValueError when folding p(D) of the profile to canonical form may cost too much.

    The profile is one family, and its exponents of r spread over g.  The
    output fold brings the family to its lowest exponent by g/2
    multiplications by |x|^2, so the polynomial of input degree m reaches
    degree about m + g, with up to C(m + g + d, d) monomials.
    """
    exponents = [s for s, _ in profile.terms]
    spread = int(max(exponents) - min(exponents)) if exponents else 0
    work = comb(max(degree, 0) + spread + dim, dim)
    if work > MAX_WORK:
        raise ValueError(
            f"input too large: profile exponents of r spread over {spread}, and folding "
            f"needs about {work} monomials, above the budget of {MAX_WORK}"
        )


def hobson_lhs(ctx: DunklContext, p: Poly, profile: RadialProfile) -> WeightedFunction:
    """Left side of Hobson's expansion: p(D) applied to the radial function."""
    return weighted_poly_of_dunkl(ctx, p, profile)


def hobson_rhs(ctx: DunklContext, p: Poly, profile: RadialProfile) -> WeightedFunction:
    """Right side of Hobson's expansion.

    Sum over j up to half the degree of 1/(2^j j!) times the (m-j)-fold
    radial derivative of the profile times the j-th Laplacian power of p.
    """
    if not p.is_homogeneous():
        raise ValueError("Hobson expansion needs homogeneous input")
    if p.is_zero():
        return WeightedFunction(ctx.dim)
    m = p.degree()
    _check_fold_budget(ctx.dim, m, profile)
    derivatives = [profile]
    for _ in range(m):
        derivatives.append(inv_r_ddr(derivatives[-1]))
    return WeightedFunction(
        ctx.dim,
        [(lap_power.scale(Fraction(1, 2**j * factorial(j))), derivatives[m - j])
         for j, lap_power in enumerate(laplacian_powers(ctx, p, m // 2))],
    )


def hobson_residual(
    ctx: DunklContext, p: Poly, profile: RadialProfile
) -> WeightedFunction:
    """hobson_lhs minus hobson_rhs, zero when correct; canonical only when printed."""
    return hobson_lhs(ctx, p, profile) - hobson_rhs(ctx, p, profile)


def parse_profile(text: str) -> RadialProfile:
    """Parse profile text like "r^(-3)*exp(-1/2*r^2)" or "r^2 + 2*r^4".

    Terms are products of a rational factor, powers of r (integer or p/q
    exponents bare, signed ones in parentheses), and gaussian factors
    exp(a*r^2), with exp(r^2) and exp(-r^2) short for rates 1 and -1.  The
    lexical rules and PolyParseError are those of poly.parse_poly, and every
    text is read character by character through its scanner (poly._Scanner):
    a profile is parsed once per command, too seldom for a faster second
    reader to pay for its code.  Sums must stay inside one profile family
    (equal gaussian rates, exponent differences even), else ValueError.
    """
    scanner = _Scanner(text)

    def factor() -> tuple[Coeff, Coeff, Coeff]:
        """(coefficient, r exponent, gaussian rate) of one factor."""
        if scanner.take("exp"):
            scanner.expect("(")
            scanner.peek()
            mark = scanner.pos
            scanner.take("+") or scanner.take("-")
            if scanner.take("r^2"):  # unit rate: exp(r^2), exp(-r^2)
                rate = -1 if scanner.text[mark] == "-" else 1
            else:
                scanner.pos = mark
                rate = scanner.rational(signed=True)
                scanner.expect("*r^2")
            scanner.expect(")")
            return 1, 0, rate
        if scanner.take("r"):
            exponent = 1
            if scanner.take("^"):
                if scanner.take("("):
                    exponent = scanner.rational(signed=True)
                    scanner.expect(")")
                else:
                    exponent = scanner.rational()
            return 1, exponent, 0
        ch = scanner.peek()
        if ch.isdecimal():
            return scanner.rational(), 0, 0
        raise scanner.error(f"unexpected character {ch!r}")

    pieces = []
    for sign, _, factors in scanner.read_sum(factor):
        coeff, exponent, rate = sign, 0, 0
        for c, e, a in factors:
            coeff *= c
            exponent += e
            rate += a
        pieces.append(((exponent, rate), coeff))
    return _profile(pieces)
