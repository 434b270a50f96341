"""Projection onto Dunkl-harmonic polynomials and generalized Hermite data.

A polynomial is harmonic for the deformed Laplacian when the operator kills
it exactly.  The Clebsch projection of a homogeneous polynomial is computed
by its explicit series (the normative route) and, as a cross-check, by the
Maxwell form that pushes p(D) through a negative power of the norm; the two
must agree whenever the homogeneity constant is nonzero.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .operators import DunklContext, heat_series, laplacian_powers
from .poly import InvariantError, Poly, linear_combination, norm_sq_poly
from .radial import RadialProfile, WeightedFunction, weighted_poly_of_dunkl
from .util import pochhammer


class MaxwellDegenerateError(ValueError):
    """The Maxwell projection route degenerates when the index is zero.

    With a vanishing homogeneity constant the negative norm power collapses
    to the constant 1 and p(D) of it is zero for positive degree, so only
    the series route defines the projection there.
    """


def _series_denominator(ctx: DunklContext, m: int, j: int) -> Fraction:
    lam = ctx.constants.bessel_index
    poch = pochhammer(-lam - m + 1, j)
    if poch == 0:
        raise InvariantError(
            "projection series denominator vanished; the Bessel index "
            f"{lam} is outside the admissible range"
        )
    return Fraction(4**j * factorial(j)) * poch


def _projected_layers(ctx: DunklContext, p: Poly, count: int) -> list[Poly]:
    """[proj(Lap^j p) for j < count] for homogeneous p of degree m.

    Lap^j p has degree n = m - 2j, and its own Laplacian powers are the
    tail of the one list [p, Lap p, ..., Lap^(m//2) p], so its projection
    is the series sum over k of |x|^(2k) Lap^(j+k) p / (4^k k! (-lam-n+1)_k).
    """
    m = p.degree()
    powers = laplacian_powers(ctx, p, m // 2)
    r2 = norm_sq_poly(ctx.dim)
    return [
        linear_combination(ctx.dim, [(1, powers[j])] + [
            (1 / _series_denominator(ctx, m - 2 * j, k), r2**k * powers[j + k])
            for k in range(1, len(powers) - j)
        ])
        for j in range(count)
    ]


def clebsch_project_series(ctx: DunklContext, p: Poly) -> Poly:
    """Series form of the projection onto harmonic polynomials.

    Sums norm-power multiples of Laplacian powers of p with reciprocal
    Pochhammer denominators.  For an admissible system the denominators
    never vanish, and the output is harmonic and fixes harmonic input.
    """
    if not p.is_homogeneous():
        raise ValueError("projection needs homogeneous input")
    return _projected_layers(ctx, p, 1)[0]


def clebsch_project_maxwell(ctx: DunklContext, p: Poly) -> Poly:
    """Maxwell form of the projection, cross-checked against the series.

    Evaluates p(D) on the norm raised to minus twice the Bessel index in
    the weighted radial calculus, scales back by the complementary power,
    and extracts the polynomial.  Because the k-fold radial derivative of
    r^(-2 lam) is (-2)^k (lam)_k r^(-2 lam - 2k), the raw extraction comes
    out (-1)^m 2^m (lam)_m times the projection and is normalized by that
    constant here; it is nonzero whenever the Bessel index is.  Exact
    disagreement with the series route is an internal invariant violation.
    """
    if not p.is_homogeneous():
        raise ValueError("projection needs homogeneous input")
    if p.is_zero():
        return p
    lam = ctx.constants.bessel_index
    m = p.degree()
    if lam == 0 and m >= 1:
        raise MaxwellDegenerateError(
            "Maxwell projection route is degenerate at Bessel index 0; "
            "use the series route"
        )
    profile = RadialProfile.power(-2 * lam)
    image = weighted_poly_of_dunkl(ctx, p, profile)
    restored = image.shift_r_power(2 * lam + 2 * m)
    sign = -1 if m % 2 else 1
    result = restored.as_polynomial().scale(
        Fraction(sign) / (2**m * pochhammer(lam, m))
    )
    series = clebsch_project_series(ctx, p)
    if result != series:
        raise InvariantError(
            "Maxwell projection disagrees with the series projection"
        )
    return result


class HarmonicDecomposition:
    """p as a sum of norm powers times harmonic polynomials.

    components holds (j, h_j) with p equal to the sum of |x|^(2j) h_j and
    each h_j harmonic of degree deg(p) - 2j; zero components are omitted.
    """

    def __init__(self, dim: int, components: list[tuple[int, Poly]]):
        self.dim = dim
        self.components = tuple(components)

    def recompose(self) -> Poly:
        r2 = norm_sq_poly(self.dim)
        return linear_combination(self.dim, ((1, r2**j * h) for j, h in self.components))


def harmonic_decompose(ctx: DunklContext, p: Poly) -> HarmonicDecomposition:
    """The harmonic layers h_j of homogeneous p of degree m, from one power list.

    Lap sends |x|^(2i) h to 4i(lam + n + i) |x|^(2i-2) h for h harmonic of
    degree n, so the harmonic part of Lap^j p is 4^j j! (lam + m - 2j + 1)_j
    h_j, and h_j is the projection of Lap^j p divided by that constant.
    """
    if not p.is_homogeneous():
        raise ValueError("decomposition needs homogeneous input")
    m = p.degree()
    lam = ctx.constants.bessel_index
    return HarmonicDecomposition(ctx.dim, [
        (j, layer.scale(1 / (4**j * factorial(j) * pochhammer(lam + m - 2 * j + 1, j))))
        for j, layer in enumerate(_projected_layers(ctx, p, m // 2 + 1))
        if not layer.is_zero()
    ])


def hermite_poly(ctx: DunklContext, p: Poly) -> Poly:
    """Generalized Hermite polynomial attached to homogeneous p.

    The alternating sum over j of Laplacian powers of p divided by 4^j j!,
    that is exp(-Lap/4) p; harmonic input is returned unchanged.
    """
    if not p.is_homogeneous():
        raise ValueError("Hermite construction needs homogeneous input")
    return heat_series(ctx, p, Fraction(-1, 4))


def rodrigues_residual(ctx: DunklContext, p: Poly) -> WeightedFunction:
    """Rodrigues form against the Laplacian series for the Hermite polynomial.

    Applies p(D) to exp(-r^2), scales by (-1/2)^deg, and subtracts the
    series Hermite polynomial carried on the same gaussian; the residual,
    canonical only when printed, is zero exactly when the two agree.
    """
    if not p.is_homogeneous():
        raise ValueError("Rodrigues check needs homogeneous input")
    if p.is_zero():
        return WeightedFunction(ctx.dim)
    m = p.degree()
    gauss = RadialProfile.gaussian(-1)
    image = weighted_poly_of_dunkl(ctx, p, gauss).scale(Fraction(-1, 2) ** m)
    expected = WeightedFunction(ctx.dim, [(hermite_poly(ctx, p), gauss)])
    return image - expected


def gaussian_series_residual(ctx: DunklContext, p: Poly) -> WeightedFunction:
    """p(D) on the unit-rate gaussian versus its alternating expansion.

    Checks p(D) exp(-r^2/2) = sum_j (-1)^(m-j)/(2^j j!) exp(-r^2/2) Lap^j p
    for homogeneous p of degree m, a direct specialization of the radial
    expansion that the Hermite transform theory relies on; the sum is
    (-1)^m exp(-Lap/2) p.  The residual is canonical only when printed.
    """
    if not p.is_homogeneous():
        raise ValueError("gaussian expansion check needs homogeneous input")
    if p.is_zero():
        return WeightedFunction(ctx.dim)
    m = p.degree()
    gauss = RadialProfile.gaussian(Fraction(-1, 2))
    image = weighted_poly_of_dunkl(ctx, p, gauss)
    series = heat_series(ctx, p, Fraction(-1, 2)).scale(-1 if m % 2 else 1)
    expected = WeightedFunction(ctx.dim, [(series, gauss)])
    return image - expected
