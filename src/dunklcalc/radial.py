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
canonical forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Iterator, Mapping

from .operators import (
    MAX_WORK,
    DunklContext,
    apply_coord,
    check_budget,
    laplacian_powers,
    operator_words,
)
from .poly import (
    Coeff,
    InvariantError,
    Poly,
    _Scanner,
    as_coeff,
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
    are kept as built and the canonical form is computed only at output,
    by terms(), str() and as_polynomial(): each (rate, exponent parity)
    family is folded into one polynomial at its lowest exponent, and
    squared-norm factors are pulled back out of it.  Two weighted functions
    are equal exactly when every fold of their difference is zero, and
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
        """(lowest exponent s, rate a, P) per (rate, exponent parity) family.

        P is the sum of P_t |x|^(t - s) over the family's parts P_t r^t, by
        Horner in |x|^2 from the top exponent down: each step multiplies the
        running sum by |x|^2 and adds the part at the next exponent.  A
        family whose parts cancel gives the zero polynomial.
        """
        families: dict[tuple, dict[Coeff, Poly]] = {}
        for (s, a), poly in self.parts.items():
            families.setdefault(_family(s, a), {})[s] = poly
        for (a, _), family in families.items():
            s = max(family)
            total = family.pop(s)
            while family:
                s -= 2
                pairs = _norm_sq_shifts(total)
                if s in family:
                    pairs.append((1, family.pop(s)))
                total = linear_combination(self.dim, pairs)
            yield s, a, total

    def is_zero(self) -> bool:
        return all(total.is_zero() for _, _, total in self._folds())

    def __eq__(self, other):
        if not isinstance(other, WeightedFunction):
            return NotImplemented
        return self.dim == other.dim and (self - other).is_zero()

    __hash__ = None

    def terms(self) -> tuple[tuple[Poly, RadialProfile], ...]:
        """Canonical (polynomial, single-power profile) presentation.

        Each nonzero fold with every squared-norm factor moved into r^s,
        ordered by rate, then exponent.
        """
        canon = sorted(
            ((a, *_strip_norm_sq(s, total)) for s, a, total in self._folds()
             if not total.is_zero()),
            key=lambda part: part[:2],
        )
        return tuple((poly, RadialProfile.power_gauss(s, a)) for a, s, poly in canon)

    def as_polynomial(self) -> Poly:
        """Extract P when the function is the polynomial P(x).

        Raises InvariantError when the canonical form has any profile
        content; even powers of r fold back into P through the squared norm.
        """
        pairs = []
        for s, a, total in self._folds():
            if total.is_zero():
                continue
            s, total = _strip_norm_sq(s, total)
            half, rem = divmod(s, 2)
            if a != 0 or rem != 0 or half < 0 or half.denominator != 1:
                raise InvariantError(
                    f"weighted function is not a polynomial (found exponent {s}, rate {a})"
                )
            for _ in range(int(half)):
                total = linear_combination(self.dim, _norm_sq_shifts(total))
            pairs.append((1, total))
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


def _times_var(poly: Poly, j: int, k: int = 1) -> Poly:
    """poly * x_j^k, a shift of exponents."""
    return Poly(poly.dim, {e[:j] + (e[j] + k,) + e[j + 1:]: c for e, c in poly.terms.items()})


def _norm_sq_shifts(poly: Poly) -> list[tuple[int, Poly]]:
    """poly * |x|^2 as linear_combination pairs, with no coefficient products."""
    return [(1, _times_var(poly, j, 2)) for j in range(poly.dim)]


def _strip_norm_sq(s: Coeff, total: Poly) -> tuple[Coeff, Poly]:
    """(s + 2k, total / |x|^(2k)) for the largest k; total must be nonzero."""
    while (quotient := try_divide_norm_sq(total)) is not None:
        total, s = quotient, s + 2
    return s, total


def _apply_coord_weighted(
    ctx: DunklContext, j: int, parts: Mapping[ProfileKey, Poly]
) -> dict[ProfileKey, Poly]:
    """D_j on the summands P r^s exp(a r^2) given as parts."""
    items = []
    for (s, a), poly in parts.items():
        items.append(((s, a), 1, apply_coord(ctx, j, poly)))
        shifted = _times_var(poly, j)
        items.extend((key, c, shifted) for key, c in _radial_derivative(s, a))
    return _combine_parts(ctx.dim, items)


def weighted_poly_of_dunkl(
    ctx: DunklContext, p: Poly, profile: RadialProfile
) -> WeightedFunction:
    """p(D) applied to the radial function, one operator word per term of p.

    A gaussian rate lets a word of length m spread over m + 1 exponents of
    r, each with its own polynomial; the work budget counts them.  Both
    this and hobson_rhs also bound the output fold (_check_fold_budget).
    """
    spread = max(p.degree(), 0) + 1 if profile.gauss_coeff else 1
    check_budget(ctx, p.degree(), len(profile.terms) * spread)
    _check_fold_budget(ctx.dim, p.degree(), profile)
    start = WeightedFunction(ctx.dim, [(Poly.const(ctx.dim, 1), profile)]).parts
    words = operator_words(p, start, lambda j, parts: _apply_coord_weighted(ctx, j, parts))
    return WeightedFunction._sum(
        ctx.dim, ((key, c, poly) for c, parts in words for key, poly in parts.items())
    )


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
    lexical rules and PolyParseError are those of poly.parse_poly.  Sums
    must stay inside one profile family (equal gaussian rates, exponent
    differences even), else ValueError.
    """
    scanner = _Scanner(text)

    def factor() -> tuple[Fraction, Fraction, Fraction]:
        """(coefficient, r exponent, gaussian rate) of one factor."""
        if scanner.take("exp"):
            scanner.expect("(")
            scanner.peek()
            mark = scanner.pos
            scanner.take("+") or scanner.take("-")
            if scanner.take("r^2"):  # unit rate: exp(r^2), exp(-r^2)
                rate = Fraction(-1 if scanner.text[mark] == "-" else 1)
            else:
                scanner.pos = mark
                rate = scanner.rational(signed=True)
                scanner.expect("*r^2")
            scanner.expect(")")
            return Fraction(1), Fraction(0), rate
        if scanner.take("r"):
            exponent = Fraction(1)
            if scanner.take("^"):
                if scanner.take("("):
                    exponent = scanner.rational(signed=True)
                    scanner.expect(")")
                else:
                    exponent = scanner.rational()
            return Fraction(1), exponent, Fraction(0)
        ch = scanner.peek()
        if ch.isdecimal():
            return scanner.rational(), Fraction(0), Fraction(0)
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
