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
from typing import Iterable, Mapping, Sequence

from .operators import DunklContext, apply_coord, laplacian_powers
from .poly import (
    Exponent,
    InvariantError,
    Poly,
    _Scanner,
    linear_combination,
    norm_sq_poly,
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

    def shift_r_power(self, e) -> "RadialProfile":
        """Multiply by r^e."""
        if self.is_zero():
            return self
        return RadialProfile.make(
            self.base_exponent + Fraction(e), self.gauss_coeff, dict(self.coeffs)
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
    P(x) r^s exp(a r^2).  Canonicalization folds every even power excess
    into the polynomial through the squared norm and then pulls squared-norm
    factors back out, so each (rate, exponent parity) family keeps exactly
    one representative with the smallest exponent actually present.  Two
    weighted functions are equal exactly when their canonical parts match.
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

    @classmethod
    def from_parts(cls, dim: int, parts: Mapping[ProfileKey, Poly]) -> "WeightedFunction":
        out = cls(dim)
        for key, poly in parts.items():
            if not poly.is_zero():
                out.parts[key] = poly
        return out

    @classmethod
    def zero(cls, dim: int) -> "WeightedFunction":
        return cls(dim)

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "WeightedFunction") -> "WeightedFunction":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        items = [(key, 1, poly) for w in (self, other) for key, poly in w.parts.items()]
        return WeightedFunction.from_parts(self.dim, _combine_parts(self.dim, items))

    def __neg__(self) -> "WeightedFunction":
        return WeightedFunction.from_parts(
            self.dim, {k: -p for k, p in self.parts.items()}
        )

    def __sub__(self, other: "WeightedFunction") -> "WeightedFunction":
        return self + (-other)

    def scale(self, c) -> "WeightedFunction":
        c = Fraction(c)
        if not c:
            return WeightedFunction.zero(self.dim)
        return WeightedFunction.from_parts(
            self.dim, {k: p.scale(c) for k, p in self.parts.items()}
        )

    def shift_r_power(self, e) -> "WeightedFunction":
        e = Fraction(e)
        return WeightedFunction.from_parts(
            self.dim, {(s + e, a): p for (s, a), p in self.parts.items()}
        )

    # -- canonical form -----------------------------------------------------

    def canonical(self) -> "WeightedFunction":
        grouped: dict[tuple[Fraction, Fraction], list[tuple[Fraction, Poly]]] = {}
        for (s, a), poly in self.parts.items():
            if poly.is_zero():
                continue
            grouped.setdefault((a, s % 2), []).append((s, poly))
        r2 = norm_sq_poly(self.dim)
        out: dict[ProfileKey, Poly] = {}
        for (a, _), entries in grouped.items():
            base = min(s for s, _ in entries)
            total = linear_combination(
                self.dim,
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
        return WeightedFunction.from_parts(self.dim, out)

    def is_zero(self) -> bool:
        return not self.canonical().parts

    def __eq__(self, other):
        if not isinstance(other, WeightedFunction):
            return NotImplemented
        return self.dim == other.dim and self.canonical().parts == other.canonical().parts

    __hash__ = None

    def terms(self) -> tuple[tuple[Poly, RadialProfile], ...]:
        """Canonical (polynomial, single-power profile) presentation."""
        canon = self.canonical()
        ordered = sorted(canon.parts.items(), key=lambda item: (item[0][1], item[0][0]))
        return tuple(
            (poly, RadialProfile.power_gauss(s, a)) for (s, a), poly in ordered
        )

    def as_polynomial(self, gauss_coeff=0) -> Poly:
        """Extract P when the function is P(x) times exp(gauss_coeff r^2).

        Raises InvariantError when the canonical form has any other
        profile content; even powers of r fold back into P through the
        squared norm.
        """
        gauss_coeff = Fraction(gauss_coeff)
        r2 = norm_sq_poly(self.dim)
        pairs = []
        for (s, a), poly in self.canonical().parts.items():
            half, rem = divmod(s, 2)
            if a != gauss_coeff or rem != 0 or half < 0 or half.denominator != 1:
                raise InvariantError(
                    "weighted function is not a polynomial multiple of the "
                    f"requested profile (found exponent {s}, rate {a})"
                )
            pairs.append((1, poly * r2 ** int(half)))
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
    return WeightedFunction.from_parts(w.dim, _combine_parts(w.dim, items))


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


def _times_var(poly: Poly, j: int) -> Poly:
    return Poly(
        poly.dim,
        {tuple(v + 1 if i == j else v for i, v in enumerate(e)): c
         for e, c in poly.terms.items()},
    )


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


def _monomial_node(
    ctx: DunklContext, key: ProfileKey, e: Exponent
) -> dict[ProfileKey, Poly]:
    """D^e applied to r^s exp(a r^2), memoized on (profile key, exponent).

    The operator word for the monomial exponent e is applied right to left
    in coordinate order, matching poly_of_dunkl; nodes are shared between
    monomials through their suffixes, which keeps the verification suites
    near-linear in the size of the exponent lattice.
    """
    cache = ctx._radial_cache
    memo_key = (key, e)
    cached = cache.get(memo_key)
    if cached is None:
        if not any(e):
            cached = {key: Poly.const(ctx.dim, 1)}
        else:
            j = next(i for i, v in enumerate(e) if v)
            prev = _monomial_node(
                ctx, key, tuple(v - 1 if i == j else v for i, v in enumerate(e))
            )
            cached = _apply_coord_weighted(ctx, j, prev)
        cache[memo_key] = cached
    return cached


def weighted_poly_of_dunkl(
    ctx: DunklContext, p: Poly, profile: RadialProfile
) -> WeightedFunction:
    """p(D) applied to the radial function with the given profile."""
    items = []
    for offset, pc in profile.coeffs:
        key = (profile.base_exponent + 2 * offset, profile.gauss_coeff)
        for e, c in p.terms.items():
            weight = pc * c
            items.extend(
                (part_key, weight, poly)
                for part_key, poly in _monomial_node(ctx, key, e).items()
            )
    return WeightedFunction.from_parts(ctx.dim, _combine_parts(ctx.dim, items))


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
        return WeightedFunction.zero(ctx.dim)
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
    """hobson_lhs minus hobson_rhs in canonical form; zero when correct."""
    return (hobson_lhs(ctx, p, profile) - hobson_rhs(ctx, p, profile)).canonical()


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
