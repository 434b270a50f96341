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
from .poly import InvariantError, Poly, _times_norm_sq, combine_terms
from .radial import RadialProfile, WeightedFunction, weighted_poly_of_dunkl
from .util import pochhammer


class MaxwellDegenerateError(ValueError):
    """The Maxwell projection route degenerates when the index is zero.

    With a vanishing homogeneity constant the negative norm power collapses
    to the constant 1 and p(D) of it is zero for positive degree, so only
    the series route defines the projection there.
    """


def _series_denominator(ctx: DunklContext, m: int, j: int) -> Fraction:
    lam = ctx.bessel_index
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
    It is summed by Horner in |x|^2, one shifted dict per step
    (poly._times_norm_sq): no power of |x|^2 and no product is built.
    """
    m = p.degree()
    powers = laplacian_powers(ctx, p, m // 2)
    layers = []
    for j in range(count):
        total: dict = {}
        for k in reversed(range(len(powers) - j)):
            c = 1 / _series_denominator(ctx, m - 2 * j, k) if k else 1
            term = combine_terms([(c, powers[j + k].terms)])
            total = _times_norm_sq(ctx.dim, total, term) if total else term
        layers.append(Poly(ctx.dim, total))
    return layers


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
    lam = ctx.bessel_index
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


def harmonic_decompose(ctx: DunklContext, p: Poly) -> list[tuple[int, Poly]]:
    """The layers (j, h_j) of homogeneous p of degree m, from one power list.

    p is the sum of |x|^(2j) h_j, each h_j harmonic of degree m - 2j; zero
    layers are omitted.  Lap sends |x|^(2i) h to 4i(lam + n + i) |x|^(2i-2) h
    for h harmonic of degree n, so the harmonic part of Lap^j p is
    4^j j! (lam + m - 2j + 1)_j h_j, and h_j is the projection of Lap^j p
    divided by that constant.
    """
    if not p.is_homogeneous():
        raise ValueError("decomposition needs homogeneous input")
    m = p.degree()
    lam = ctx.bessel_index
    return [
        (j, layer.scale(1 / (4**j * factorial(j) * pochhammer(lam + m - 2 * j + 1, j))))
        for j, layer in enumerate(_projected_layers(ctx, p, m // 2 + 1))
        if not layer.is_zero()
    ]


def hermite_poly(ctx: DunklContext, p: Poly) -> Poly:
    """Generalized Hermite polynomial attached to homogeneous p.

    The alternating sum over j of Laplacian powers of p divided by 4^j j!,
    that is exp(-Lap/4) p; harmonic input is returned unchanged.
    """
    if not p.is_homogeneous():
        raise ValueError("Hermite construction needs homogeneous input")
    return heat_series(ctx, p, Fraction(-1, 4))


def _gaussian_walk_residual(ctx: DunklContext, p: Poly, rate: Fraction) -> WeightedFunction:
    """p(D) exp(a r^2) minus (2a)^m (exp(Lap/(4a)) p) exp(a r^2), a the rate.

    The Dunkl Hobson formula specialized to a Gaussian, for homogeneous p of
    degree m and nonzero a; the residual is canonical only when printed.
    """
    gauss = RadialProfile.gaussian(rate)
    image = weighted_poly_of_dunkl(ctx, p, gauss)
    series = heat_series(ctx, p, 1 / (4 * rate)).scale((2 * rate) ** p.degree())
    return image - WeightedFunction(ctx.dim, [(series, gauss)])


def rodrigues_residual(ctx: DunklContext, p: Poly) -> WeightedFunction:
    """Rodrigues form against the Laplacian series for the Hermite polynomial.

    p(D) exp(-r^2) must be (-2)^deg times the Hermite polynomial
    exp(-Lap/4) p carried on the same gaussian: the gaussian walk at rate -1.
    """
    if not p.is_homogeneous():
        raise ValueError("Rodrigues check needs homogeneous input")
    return _gaussian_walk_residual(ctx, p, Fraction(-1))


def gaussian_series_residual(ctx: DunklContext, p: Poly) -> WeightedFunction:
    """p(D) on the unit-rate gaussian versus its alternating expansion.

    Checks p(D) exp(-r^2/2) = sum_j (-1)^(m-j)/(2^j j!) exp(-r^2/2) Lap^j p
    for homogeneous p of degree m, the gaussian walk at rate -1/2 that the
    Hermite transform theory relies on; the sum is (-1)^m exp(-Lap/2) p.
    """
    if not p.is_homogeneous():
        raise ValueError("gaussian expansion check needs homogeneous input")
    return _gaussian_walk_residual(ctx, p, Fraction(-1, 2))
