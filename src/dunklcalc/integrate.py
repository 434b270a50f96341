"""Exact weighted spherical means and Gaussian moments of polynomials.

Everything here returns rationals: means are normalized by the weighted
surface measure and Gaussian integrals by the weighted Gaussian mass, which
cancels every Gamma factor symbolically.  The Pizzetti series expresses the
normalized spherical mean through Laplacian powers at the origin; for the
sign-flip groups the classical Dirichlet integral provides an independent
closed form, and agreement of the two is the sharpest correctness check the
module has.  The series is implemented with positive coefficients, which is
what both the Dirichlet oracle and the classical unweighted limit force.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, Sequence

from .operators import DunklContext, laplacian_powers
from .poly import Poly
from .util import pochhammer


def pizzetti_mean(ctx: DunklContext, p: Poly) -> Fraction:
    """Normalized weighted spherical mean of p via the Pizzetti series.

    Sum over l of (Lap^l p)(0) / (4^l l! (lam+1)_l) with lam the Bessel
    index; the denominators are positive since lam >= -1/2.  Odd-degree
    content contributes nothing because its Laplacian iterates have no
    constant term.
    """
    lam = ctx.bessel_index
    return _series_at_origin(
        ctx, p, lambda l: Fraction(4**l * factorial(l)) * pochhammer(lam + 1, l)
    )


def _series_at_origin(
    ctx: DunklContext, p: Poly, denominator: Callable[[int], Fraction]
) -> Fraction:
    """Sum over l of (Lap^l p)(0) / denominator(l), skipping zero terms."""
    total = Fraction(0)
    for l, level in enumerate(laplacian_powers(ctx, p, max(p.degree(), 0) // 2)):
        value = level.constant_term()
        if value:
            total += value / denominator(l)
    return total


def sphere_oracle_z2d(
    kappa: Sequence[Fraction], exponents: Sequence[int]
) -> Fraction:
    """Dirichlet-integral mean of a monomial on the sphere for sign flips.

    For the weight prod |x_i|^(2 kappa_i), the normalized mean of the
    monomial with even exponents 2 b_i is
    prod (kappa_i + 1/2)_(b_i) / (sum kappa + d/2)_(|b|).
    Odd exponents are rejected; their means vanish and the caller is
    expected to filter them.
    """
    if len(kappa) != len(exponents):
        raise ValueError("kappa and exponent vectors differ in length")
    for e in exponents:
        if e < 0:
            raise ValueError("negative exponent")
        if e % 2:
            raise ValueError(f"odd exponent {e}: the mean is zero, filter it out")
    kappa = [Fraction(k) for k in kappa]
    halves = [e // 2 for e in exponents]
    numerator = Fraction(1)
    for k, b in zip(kappa, halves):
        numerator *= pochhammer(k + Fraction(1, 2), b)
    d = len(kappa)
    denominator = pochhammer(sum(kappa, Fraction(0)) + Fraction(d, 2), sum(halves))
    return numerator / denominator


def gaussian_moment(ctx: DunklContext, p: Poly) -> Fraction:
    """Mass-normalized Gaussian integral of p against the squared weight.

    Equals the heat semigroup at time one applied to p and evaluated at the
    origin: sum over l of (Lap^l p)(0) / (2^l l!), the constant term of
    exp(Lap/2) p.  Exact, and 1 for p = 1.
    """
    return _series_at_origin(ctx, p, lambda l: Fraction(2**l * factorial(l)))
