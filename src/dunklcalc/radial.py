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
from math import factorial
from typing import Iterable, Iterator, Mapping, Sequence

from .operators import DunklContext, apply_coord, check_budget, laplacian_powers, operator_words
from .poly import (
    InvariantError,
    Poly,
    _Scanner,
    linear_combination,
    try_divide_norm_sq,
)

ProfileKey = tuple[Fraction, Fraction]  # (base exponent, gaussian rate)


@dataclass(frozen=True)
class RadialProfile:
    """Finite sum of c_j r^(s+2j) scaled by exp(a r^2).

    coeffs holds (offset j, c_j) pairs relative to the base exponent s;
    construction through `make` keeps the form canonical: no zero
    coefficients, offsets shifted so the smallest present one is zero, and
    the zero profile represented with s = a = 0.
    """

    base_exponent: Fraction
    gauss_coeff: Fraction
    coeffs: tuple[tuple[int, Fraction], ...]

    @staticmethod
    def make(s, a, coeffs: Mapping[int, Fraction]) -> "RadialProfile":
        clean = {int(j): Fraction(c) for j, c in coeffs.items() if c}
        if not clean:
            return RadialProfile(Fraction(0), Fraction(0), ())
        shift = min(clean)
        base = Fraction(s) + 2 * shift
        items = tuple(sorted((j - shift, c) for j, c in clean.items()))
        return RadialProfile(base, Fraction(a), items)

    @staticmethod
    def power(s) -> "RadialProfile":
        """r^s."""
        return RadialProfile.make(s, 0, {0: Fraction(1)})

    @staticmethod
    def gaussian(a) -> "RadialProfile":
        """exp(a r^2)."""
        return RadialProfile.make(0, a, {0: Fraction(1)})

    @staticmethod
    def power_gauss(s, a) -> "RadialProfile":
        return RadialProfile.make(s, a, {0: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def scale(self, c) -> "RadialProfile":
        c = Fraction(c)
        return RadialProfile.make(
            self.base_exponent, self.gauss_coeff, {j: c * v for j, v in self.coeffs}
        )

    def __str__(self) -> str:
        return format_profile(self)


def inv_r_ddr(profile: RadialProfile, n: int = 1) -> RadialProfile:
    """Apply the radial derivative (1/r) d/dr n times.

    A single application sends c r^t exp(a r^2) to
    (c t) r^(t-2) exp(a r^2) + (2 a c) r^t exp(a r^2); the t = 0 term drops
    on its own since its coefficient carries the factor t.
    """
    if n < 0:
        raise ValueError("cannot apply the radial derivative negatively many times")
    for _ in range(n):
        if profile.is_zero():
            return profile
        s, a = profile.base_exponent, profile.gauss_coeff
        out: dict[int, Fraction] = {}
        for j, c in profile.coeffs:
            t = s + 2 * j
            if t:
                out[j - 1] = out.get(j - 1, Fraction(0)) + c * t
            if a:
                out[j] = out.get(j, Fraction(0)) + 2 * a * c
        profile = RadialProfile.make(s, a, out)
    return profile


def _merge_profile_sum(
    profiles: Iterable[RadialProfile],
) -> RadialProfile:
    """Sum profiles; they must share the gaussian rate and exponent parity."""
    total: dict[tuple[Fraction, Fraction], dict[Fraction, Fraction]] = {}
    for prof in profiles:
        if prof.is_zero():
            continue
        key = (prof.gauss_coeff, prof.base_exponent % 2)
        bucket = total.setdefault(key, {})
        for j, c in prof.coeffs:
            t = prof.base_exponent + 2 * j
            bucket[t] = bucket.get(t, Fraction(0)) + c
    total = {k: {t: c for t, c in v.items() if c} for k, v in total.items()}
    total = {k: v for k, v in total.items() if v}
    if not total:
        return RadialProfile.make(0, 0, {})
    if len(total) > 1:
        raise ValueError(
            "profiles do not combine into a single family "
            "(mixed gaussian rates or exponent parities)"
        )
    (a, _), bucket = next(iter(total.items()))
    base = min(bucket)
    return RadialProfile.make(base, a, {int((t - base) / 2): c for t, c in bucket.items()})


def format_profile(profile: RadialProfile) -> str:
    if profile.is_zero():
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
            for j, c in profile.coeffs:
                items.append(((profile.base_exponent + 2 * j, profile.gauss_coeff), c, poly))
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
        e = Fraction(e)
        return WeightedFunction._sum(
            self.dim, (((s + e, a), 1, p) for (s, a), p in self.parts.items())
        )

    # -- canonical form, computed at output ----------------------------------

    def _folds(self) -> Iterator[tuple[Fraction, Fraction, Poly]]:
        """(lowest exponent s, rate a, P) per (rate, exponent parity) family.

        P is the sum of P_t |x|^(t - s) over the family's parts P_t r^t, by
        Horner in |x|^2 from the top exponent down: each step multiplies the
        running sum by |x|^2 and adds the part at the next exponent.  A
        family whose parts cancel gives the zero polynomial.
        """
        families: dict[tuple[Fraction, Fraction], dict[Fraction, Poly]] = {}
        for (s, a), poly in self.parts.items():
            families.setdefault((a, s % 2), {})[s] = poly
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

    def as_polynomial(self, gauss_coeff=0) -> Poly:
        """Extract P when the function is P(x) times exp(gauss_coeff r^2).

        Raises InvariantError when the canonical form has any other
        profile content; even powers of r fold back into P through the
        squared norm.
        """
        gauss_coeff = Fraction(gauss_coeff)
        pairs = []
        for s, a, total in self._folds():
            if total.is_zero():
                continue
            s, total = _strip_norm_sq(s, total)
            half, rem = divmod(s, 2)
            if a != gauss_coeff or rem != 0 or half < 0 or half.denominator != 1:
                raise InvariantError(
                    "weighted function is not a polynomial multiple of the "
                    f"requested profile (found exponent {s}, rate {a})"
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


def weighted_dunkl_apply(
    ctx: DunklContext, xi: Sequence, w: WeightedFunction
) -> WeightedFunction:
    """Dunkl operator in direction xi on a weighted function.

    Per summand P r^s exp(a r^2) the result is (D_xi P) at the same profile
    plus <xi, x> P against the radial derivative of the profile, which only
    shifts exponents by -2 and reuses the gaussian rate.  It is linear in
    xi, so it is assembled from the coordinate operators.
    """
    xi = [Fraction(c) for c in xi]
    if len(xi) != ctx.dim:
        raise ValueError("direction has wrong dimension")
    items = []
    for j, coeff in enumerate(xi):
        if coeff:
            image = _apply_coord_weighted(ctx, j, w.parts)
            items.extend((key, coeff, poly) for key, poly in image.items())
    return WeightedFunction._sum(w.dim, items)


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


def _strip_norm_sq(s: Fraction, total: Poly) -> tuple[Fraction, Poly]:
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
        if s:
            items.append(((s - 2, a), s, shifted))
        if a:
            items.append(((s, a), 2 * a, shifted))
    return _combine_parts(ctx.dim, items)


def weighted_poly_of_dunkl(
    ctx: DunklContext, p: Poly, profile: RadialProfile
) -> WeightedFunction:
    """p(D) applied to the radial function, one operator word per term of p.

    A gaussian rate lets a word of length m spread over m + 1 exponents of
    r, each with its own polynomial; the work budget counts them.
    """
    spread = max(p.degree(), 0) + 1 if profile.gauss_coeff else 1
    check_budget(ctx, p, len(profile.coeffs) * spread)
    start = WeightedFunction(ctx.dim, [(Poly.const(ctx.dim, 1), profile)]).parts
    words = operator_words(p, start, lambda j, parts: _apply_coord_weighted(ctx, j, parts))
    return WeightedFunction._sum(
        ctx.dim, ((key, c, poly) for c, parts in words for key, poly in parts.items())
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
        coeff, exponent, rate = Fraction(sign), Fraction(0), Fraction(0)
        for c, e, a in factors:
            coeff *= c
            exponent += e
            rate += a
        pieces.append(RadialProfile.power_gauss(exponent, rate).scale(coeff))
    return _merge_profile_sum(pieces)
