"""Floating-point verification of transform-side identities for sign-flip groups.

For the group of coordinate sign flips the Dunkl kernel factors into
one-dimensional power series whose coefficients follow from the eigenvalue
property of the operators, so kernel pairings against spheres and Gaussians
reduce to exact rational moments summed with floating-point kernel weights.
The spherical Dirichlet moments factorize over coordinates as well, so the
sphere pairing rounds each exact coordinate factor once (not each joint
term) and costs O(d N^2) per monomial at truncation order N rather than
O(N^d).  Every series row (kernel and pairing coefficients, reciprocal
rising factorials) comes from one helper, util.grown_row: one row per key,
grown in place and never rebuilt, every table under one bound.  Gaussian
moments are the spherical ones times powers of two, so Gaussian transforms
read the same pairing rows, and each one-coordinate Gaussian factor is
summed once per key, held as a one-entry row of the same helper.  Hankel
transforms use a fixed composite 20-point Gauss-Legendre rule at two panel
counts on a window chosen from a Gaussian tail bound, with the first panel
graded toward the origin when r^(2 nu + 1) has a branch point there; the
error bound they state adds the tail, the difference of the two rules (an
estimate of the rule error), the Bessel series error integrated in closed
form against the envelope, and the rounding of the sum.  The Bessel
factor at the nodes of both rules is one series pass, its length set once at
the largest argument and its sums taken in C, as are the sphere pairing's.
The module confirms, within stated tolerances, the spherical pairing
formula, the Bochner-Hecke identity for the weighted Gaussian, the Hankel
picture of transforms of radial multiples, the Hermite eigenfunction
property, and the multiplication rule of the transform.

Normalization convention: spherical pairings are reported on the scale of
the normalized mean (surface measure divided out), which differs from the
mass-normalized transform by the single factor 2^lam Gamma(lam+1).  That
factor is cancelled algebraically between both sides of each identity
before any floating-point arithmetic, so Gamma values at rational
arguments never enter the exact part of the computation.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import accumulate, repeat
from math import factorial
from operator import mul, truediv
from typing import Callable, Sequence

from .harmonic import hermite_poly
from .operators import DunklContext, apply_coord, heat_series, laplacian_powers
from .poly import Poly, homogeneous_components, linear_combination, norm_sq_poly
from .roots import RootSystem
from .util import grown_row, pochhammer

_PHASES = (1 + 0j, -1j, -1 + 0j, 1j)  # (-i)^m for m mod 4

Points = Sequence[Sequence[float]]

BESSEL_SERIES_MAX = 30.0


class TruncationError(RuntimeError):
    """The requested truncation bound cannot be met within the term cap."""


class QuadratureError(RuntimeError):
    """Numeric integration could not reach the requested tolerance."""


# -- Bessel functions -------------------------------------------------------


def normalized_bessel(nu: float, x: float) -> float:
    """J_nu(x) / x^nu by the ascending series (DLMF 10.2.2), continuous at x = 0.

    One argument of _bessel_series, from the leading term 2^-nu / Gamma(nu+1).
    The absolute error is at most 16 eps sum_j |term_j| = 16 eps I_nu(x) / x^nu:
    the bound is relative to the sum of absolute terms, not to the value, so
    for large x the alternating series loses digits to cancellation
    (relative error 6e-9 at nu = -1/2, x = 20, and 3e-3 at x = 29.9).
    Arguments beyond BESSEL_SERIES_MAX raise.
    """
    if nu < -0.5:
        raise ValueError("order must be at least -1/2")
    if x < 0:
        raise ValueError("argument must be non-negative")
    if x > BESSEL_SERIES_MAX:
        raise ValueError(f"argument {x} outside validated range (<= {BESSEL_SERIES_MAX})")
    return _bessel_series(nu, [x], _bessel_lead(nu))[0]


def _bessel_lead(nu: float) -> float:
    """2^-nu / Gamma(nu+1), the leading term of J_nu(x) / x^nu."""
    return math.exp(-nu * math.log(2.0) - math.lgamma(nu + 1.0))


def _bessel_series(nu: float, xs: Sequence[float], lead: float) -> list[float]:
    """Sums of the ascending Bessel series of order nu at each of xs, from its leading term.

    Term j follows from term j-1 times -(x/2)^2 / (j (nu+j)).  The length N
    is found once, at the largest argument x_max: the first j with 2j > x_max
    and |term_j| < 1e-18 max(1, |sum|), TruncationError past 500 terms.  At
    every other argument the N + 1 terms are summed in C, with the same
    float steps as at x_max.  Since term_j(x) = term_j(x_max) (x/x_max)^(2j)
    and 2N > x_max >= x, the terms left out at x are no larger than those
    left out at x_max, which the rule makes negligible.
    """
    top = max(xs)
    if top == 0.0:
        return [lead] * len(xs)
    step = -0.25 * top * top
    term = total = lead
    divisors = []
    for j in range(1, 500):
        divisors.append(j * (nu + j))
        term *= step / divisors[-1]
        total += term
        if 2 * j > top and abs(term) < 1e-18 * max(1.0, abs(total)):
            break
    else:
        raise TruncationError("Bessel series did not converge")
    n = len(divisors)
    return [
        total if x == top
        else sum(accumulate(map(truediv, repeat(-0.25 * x * x, n), divisors), mul, initial=lead))
        for x in xs
    ]


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind via the ascending series."""
    if x == 0.0:
        if nu > 0:
            return 0.0
        if nu == 0:
            return 1.0
        raise ValueError("J_nu diverges at 0 for negative order")
    return normalized_bessel(nu, x) * x**nu


def scaled_normalized_bessel(lam: Fraction, shift: int, t: float) -> float:
    """2^lam Gamma(lam+1) J_(lam+shift)(t) / t^(lam+shift).

    The prefactor makes the leading term the rational 1 / (2^shift
    (lam+1)_shift), computed exactly and rounded once, so no Gamma value
    enters; the further terms follow from the same ratio as in
    normalized_bessel.  This is the form in which the spherical pairing
    identities are checked.  The absolute error is at most 16 eps times the
    sum of absolute terms, 2^lam Gamma(lam+1) I_nu(t) / t^nu with
    nu = lam + shift.
    """
    if shift < 0:
        raise ValueError("shift must be non-negative")
    lead = 1 / (2**shift * pochhammer(lam + 1, shift))
    return _bessel_series(float(lam + shift), [t], float(lead))[0]


# -- kernel series ----------------------------------------------------------


def z2_kappas(rs: RootSystem) -> tuple[Fraction, ...]:
    """Per-coordinate multiplicities of a sign-flip system.

    Raises ValueError unless every positive root is a multiple of a
    standard basis vector (compiled support (k,)) and each coordinate
    carries exactly one root.
    """
    kappas: dict[int, Fraction] = {}
    for action, kappa in zip(rs.reflections, rs.kappa_by_root()):
        if len(action.support) != 1:
            raise ValueError("kernel factorization needs a sign-flip system")
        if action.support[0] in kappas:
            raise ValueError("repeated coordinate root")
        kappas[action.support[0]] = kappa
    if sorted(kappas) != list(range(rs.dim)):
        raise ValueError("each coordinate needs exactly one root")
    return tuple(kappas[i] for i in range(rs.dim))


# One exact row a_0, a_1, ... per kappa, grown in place by util.grown_row
# (never rebuilt, bounded by util.ROWS_MAX) and served as copied prefixes.
_KERNEL_ROWS: dict[Fraction, list[Fraction]] = {}


def kernel_coefficients(kappa: Fraction, order: int) -> list[Fraction]:
    """Exact coefficients a_0..a_order of the one-dimensional kernel series.

    a_0 = 1 and a_n = a_(n-1) / (n + 2 kappa [n odd]), the unique solution
    of the eigenvalue property of the rank-one Dunkl operator applied to a
    power series in the product of the two arguments.
    """
    kappa = Fraction(kappa)
    return grown_row(
        _KERNEL_ROWS, kappa, order + 1,
        lambda row, n: row[-1] / (n + (2 * kappa if n % 2 else 0)) if n else Fraction(1),
    )[:order + 1]


def relative_defect(value: complex, reference: complex) -> float:
    """|value - reference| / |reference|, the divisor floored at 1e-300."""
    return abs(value - reference) / max(abs(reference), 1e-300)


def kernel_recursion_residual(kappa, order: int) -> float:
    """Largest relative defect of the recursion of a_0..a_order rounded to floats."""
    coeffs = [float(c) for c in kernel_coefficients(Fraction(kappa), order)]
    kap = float(kappa)
    worst = 0.0
    for n in range(1, order + 1):
        div = n + (2 * kap if n % 2 else 0.0)
        worst = max(worst, relative_defect(coeffs[n] * div, coeffs[n - 1]))
    return worst


def truncation_order(max_abs_arg: float) -> int:
    """Smallest order N >= 8 with max_abs_arg^N / N! below 1e-16, at most 120."""
    m = abs(max_abs_arg)
    for n in range(8, 121):
        if m == 0.0 or n * math.log(m) - math.lgamma(n + 1.0) < math.log(1e-16):
            return n
    raise TruncationError(
        f"cannot reach truncation bound 1e-16 for argument {max_abs_arg} within 120 terms"
    )


def dunkl_kernel_z2d(
    kappas: Sequence[Fraction],
    x: Sequence[float],
    y: Sequence[complex],
    *,
    n_terms: int | None = None,
) -> complex:
    """Product-form Dunkl kernel of a sign-flip system.

    Each coordinate contributes the series sum of a_n (x_j y_j)^n; at zero
    multiplicity the factor is exp(x_j y_j) and the kernel value at x = 0
    is 1 for any y.
    """
    if len(kappas) != len(x) or len(x) != len(y):
        raise ValueError("dimension mismatch")
    big = max((abs(xj) * abs(yj) for xj, yj in zip(x, y)), default=0.0)
    order = n_terms if n_terms is not None else truncation_order(big)
    value = 1 + 0j
    for kappa, xj, yj in zip(kappas, x, y):
        coeffs = kernel_coefficients(Fraction(kappa), order)
        z = complex(xj) * complex(yj)
        zpow = 1 + 0j
        factor = 0j
        for a in coeffs:
            factor += float(a) * zpow
            zpow *= z
        value *= factor
    return value


def kernel_eigen_residual(kappa, x: float, y: float) -> float:
    """Relative defect of D applied to the kernel against its eigenvalue.

    Recomputes sum a_n (n + 2 kappa [n odd]) x^(n-1) y^n versus y times the
    kernel series at a real sample point.
    """
    kappa = Fraction(kappa)
    coeffs = kernel_coefficients(kappa, truncation_order(abs(x * y)))
    lhs = 0.0
    rhs = 0.0
    for n, a in enumerate(coeffs):
        rhs += float(a) * x**n * y**n
        if n >= 1:
            mult = n + (2 * float(kappa) if n % 2 else 0.0)
            lhs += float(a) * mult * x ** (n - 1) * y**n
    rhs *= y
    return relative_defect(lhs, rhs)


# -- spherical pairing ------------------------------------------------------

# Float rows (util.grown_row): pairing row per (kappa, e_j), (-1)^B / (gamma)_B per gamma.
_SPHERE_MEAN_CACHE: dict[tuple[Fraction, int] | Fraction, list[float]] = {}


def _pairing_row(kappa: Fraction, exponent: int, order: int) -> list[float]:
    """One coordinate's factor of the pairing, a_n (kappa+1/2)_b, as floats.

    Entry k belongs to b = ceil(exponent/2) + k and kernel index
    n = 2b - exponent, exact and rounded once.  The row is grown in place
    to every n <= order and returned whole, so it may run past order.
    """
    start = (exponent + 1) // 2
    length = (order + exponent) // 2 - start + 1

    def entry(row: list[float], k: int) -> float:
        b = start + k
        n = 2 * b - exponent
        return float(kernel_coefficients(kappa, n)[n] * pochhammer(kappa + Fraction(1, 2), b))

    return grown_row(_SPHERE_MEAN_CACHE, (kappa, exponent), length, entry)


def sphere_pairing(
    ctx: DunklContext, p: Poly, y: Sequence[float], *, n_terms: int | None = None
) -> complex:
    """Normalized spherical mean of p times the kernel at -i y.

    The kernel product is expanded per coordinate and paired with the exact
    Dirichlet mean prod (kappa_j+1/2)_(b_j) / (sum kappa + d/2)_|b|.  Its
    numerator and the kernel coefficients factorize over coordinates, and
    the phase (-i)^(sum n_j) and the denominator depend only on |b|, so
    each monomial of p costs one convolution of d coordinate rows in b,
    O(d N^2) for truncation order N.  Row coefficients and the signed
    reciprocal denominators (-1)^B / (gamma)_B are exact values rounded once,
    kept in rows across calls.  Each convolution entry and the final pairing
    is one builtin sum of products in index order (compensated from 3.12 on).
    """
    kappas = z2_kappas(ctx.rs)
    d = ctx.dim
    if len(y) != d:
        raise ValueError("evaluation point has wrong dimension")
    big = max((abs(v) for v in y), default=0.0)
    order = n_terms if n_terms is not None else truncation_order(big)
    ypows = [list(accumulate(repeat(float(yj), order), mul, initial=1.0)) for yj in y]
    gamma = sum(kappas, Fraction(0)) + Fraction(d, 2)

    total = 0j
    for e, c in p.terms.items():
        low = 0  # conv[k] is the coefficient of |b| = low + k
        conv = [1.0]
        for kappa, ej, ypow in zip(kappas, e, ypows):
            start = (ej + 1) // 2
            # entry b - start pairs with kernel index 2b - ej <= order, the end of ypow
            row = list(map(mul, _pairing_row(kappa, ej, order), ypow[2 * start - ej::2]))
            rev, n = row[::-1], len(row)
            conv = [sum(map(mul, conv[max(i - n + 1, 0):], rev[max(n - 1 - i, 0):]))
                    for i in range(len(conv) + n - 1)]
            low += start
        # (-i)^(2B - |e|) = (-1)^B (-i)^(-|e|): the row holds (-1)^B / (gamma)_B
        signed_rising = grown_row(
            _SPHERE_MEAN_CACHE, gamma, low + len(conv),
            lambda row, b: float((-1) ** b / pochhammer(gamma, b)),
        )
        acc = sum(map(mul, conv, signed_rising[low:]))
        total += float(c) * acc * _PHASES[-sum(e) % 4]
    return total


def _laplacian_bessel_sum(
    powers: Sequence[Poly], y: Sequence[float], g: Callable[[int, float], float]
) -> complex:
    """(-i)^m sum_j (-1)^j / (2^j j!) g(m - j, |y|) (Lap^j p)(y) for p of degree m.

    powers is laplacian_powers(ctx, p, m // 2).  The right side shared by
    the spherical pairing and Hankel identities; g(k, t) is the radial
    factor at Bessel order lam + k.
    """
    m = powers[0].degree()
    yf = tuple(float(v) for v in y)
    t = math.sqrt(sum(v**2 for v in yf))
    acc = 0.0
    for j, lap_power in enumerate(powers):
        coeff = (-1.0 if j % 2 else 1.0) / (2**j * factorial(j))
        acc += coeff * g(m - j, t) * float(lap_power.evaluate(yf))
    return _PHASES[m % 4] * acc


def sphere_pairing_residual(ctx: DunklContext, p: Poly, ys: Points) -> list[float]:
    """Spherical pairing of homogeneous p against its Bessel-series side, per point of ys.

    The Laplacian powers of p are computed once for all points.
    """
    if not p.is_homogeneous():
        raise ValueError("spherical pairing identity needs homogeneous input")
    if p.is_zero():
        return [0.0] * len(ys)
    lam = ctx.bessel_index
    powers = laplacian_powers(ctx, p, p.degree() // 2)

    def bessel(k: int, t: float) -> float:
        return scaled_normalized_bessel(lam, k, t)

    return [
        abs(sphere_pairing(ctx, p, y) - _laplacian_bessel_sum(powers, y, bessel)) for y in ys
    ]


# -- Gaussian transforms ----------------------------------------------------

# One factor per (kappa, exponent, t, n_terms), held as a one-entry row by
# util.grown_row (bounded by util.ROWS_MAX): the default transforms runs ask
# for about 200 distinct factors about 2000 times.
_GAUSS_FACTORS: dict[tuple, list[complex]] = {}


def _gauss_factor(
    kappa: Fraction, exponent: int, t: float, n_terms: int | None
) -> complex:
    """_gauss_sum, memoized per (kappa, exponent, t, n_terms) in _GAUSS_FACTORS."""
    return grown_row(
        _GAUSS_FACTORS, (kappa, exponent, t, n_terms), 1,
        lambda row, n: _gauss_sum(kappa, exponent, t, n_terms),
    )[0]


def _gauss_sum(kappa: Fraction, exponent: int, t: float, n_terms: int | None) -> complex:
    """One-coordinate factor sum_n a_n (-i t)^n M(exponent + n).

    M is the normalized one-dimensional Gaussian moment: M(m) = 0 for odd m
    and M(2b) = 2^b (kappa+1/2)_b.  So a_n M(exponent + n) is 2^b times the
    entry of the pairing row (_pairing_row) at b = (exponent + n)/2, and
    scaling by a power of two keeps each term rounded once.  Without n_terms
    the sum stops once its terms are negligible, by n = 400; the row grows
    in place, one entry at a time, only where the sum runs past its end.
    """
    z = -1j * t
    acc = 0j
    zpow = 1 + 0j
    biggest = 0.0
    limit = n_terms if n_terms is not None else 400
    row: list[float] = []
    start = (exponent + 1) // 2  # row[0] belongs to b = start
    for n in range(limit + 1):
        if (exponent + n) % 2 == 0:
            b = (exponent + n) // 2
            if b - start == len(row):
                row = _pairing_row(kappa, exponent, n)
            term = 2.0**b * row[b - start] * zpow
            acc += term
            biggest = max(biggest, abs(term))
            if n_terms is None and abs(term) < 1e-18 * max(1.0, biggest) and n > abs(t) ** 2:
                return acc
        zpow *= z
    if n_terms is None:
        raise TruncationError("gaussian transform series did not converge")
    return acc


def dunkl_transform_gauss_poly(
    ctx: DunklContext, p: Poly, y: Sequence[float], *, n_terms: int | None = None
) -> complex:
    """Mass-normalized transform of p times the unit-rate Gaussian.

    Expands the kernel per coordinate and pairs every term with the exact
    one-dimensional Gaussian moments, which is valid precisely because both
    the weight and the kernel factorize over coordinates for sign-flip
    systems.  Each term takes one _gauss_factor per coordinate.
    """
    kappas = z2_kappas(ctx.rs)
    if len(y) != ctx.dim:
        raise ValueError("evaluation point has wrong dimension")
    total = 0j
    for e, c in p.terms.items():
        value = float(c) + 0j
        for j, g in enumerate(e):
            value *= _gauss_factor(kappas[j], g, float(y[j]), n_terms)
        total += value
    return total


def _gauss_eigen_defects(ctx: DunklContext, m: int, q: Poly, r: Poly, ys: Points) -> list[float]:
    """|T(q G)(y) - (-i)^m G(y) r(y)| at each y of ys, for the unit-rate Gaussian G."""
    out = []
    for y in ys:
        lhs = dunkl_transform_gauss_poly(ctx, q, y)
        yf = tuple(float(v) for v in y)
        rhs = _PHASES[m % 4] * math.exp(-sum(v**2 for v in yf) / 2.0) * float(r.evaluate(yf))
        out.append(abs(lhs - rhs))
    return out


def hecke_residual(ctx: DunklContext, p: Poly, ys: Points) -> list[float]:
    """Bochner-Hecke defect for homogeneous p at each point of ys.

    Compares the kernel-expansion transform of p times the Gaussian with
    the closed form: the phase (-i)^m times the Gaussian at y times the
    alternating Laplacian series exp(-Lap/2) p evaluated at y.  The series
    is computed once for all points.
    """
    if not p.is_homogeneous():
        raise ValueError("Bochner-Hecke identity needs homogeneous input")
    series = heat_series(ctx, p, Fraction(-1, 2))
    return _gauss_eigen_defects(ctx, p.degree(), p, series, ys)


def hermite_eigen_residual(ctx: DunklContext, p: Poly, ys: Points) -> list[float]:
    """Transform eigenvalue defect of the Hermite function built from p, per point of ys.

    The Hermite function (Hermite polynomial times the Gaussian) must be an
    eigenfunction of the transform with eigenvalue (-i)^deg(p).  The
    Hermite polynomial is computed once for all points.
    """
    if not p.is_homogeneous():
        raise ValueError("Hermite eigenfunction check needs homogeneous input")
    h = hermite_poly(ctx, p)
    return _gauss_eigen_defects(ctx, p.degree(), h, h, ys)


# -- Hankel transform by quadrature ----------------------------------------


def _gaussian_tail_bound(r: float, power: float, rate: float) -> float:
    """Upper bound for the integral of t^power e^(-rate t^2) over (r, inf)."""
    slack = rate - (power - 1.0) / (2.0 * r * r)
    if slack <= 0.0:
        return math.inf
    return 0.5 * r ** (power - 1.0) * math.exp(-rate * r * r) / slack


def _legendre(n: int, x: float) -> tuple[float, float]:
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p_prev, p = 1.0, x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (x * p - p_prev) / (x * x - 1.0)


def _gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1], n even.

    Each positive root of P_n is found by Newton's method from the estimate
    cos(pi (i + 3/4) / (n + 1/2)); the weight is 2 / ((1 - x^2) P_n'(x)^2)
    at the converged node (the nodes of Golub & Welsch 1969, by iteration
    instead of an eigenvalue problem).  The rule is exact for polynomials of
    degree below 2n.
    """
    nodes: list[float] = []
    weights: list[float] = []
    for i in range(n // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p, slope = _legendre(n, x)
            step = p / slope
            x -= step
            if abs(step) < 1e-15:
                break
        slope = _legendre(n, x)[1]
        weight = 2.0 / ((1.0 - x * x) * slope * slope)
        nodes += [-x, x]
        weights += [weight, weight]
    return tuple(nodes), tuple(weights)


_GAUSS_NODES, _GAUSS_WEIGHTS = _gauss_legendre(20)


def _panel_nodes(edges: Sequence[float]) -> list[float]:
    """The nodes of the 20-point rule on each panel between edges, in order."""
    nodes = []
    for a, b in zip(edges, edges[1:]):
        half = 0.5 * (b - a)
        nodes += [a + half + half * x for x in _GAUSS_NODES]
    return nodes


def _gauss_composite(edges: Sequence[float], values: Sequence[float]) -> tuple[float, float]:
    """Composite 20-point Gauss-Legendre rule from the integrand's values at _panel_nodes(edges).

    Returns the sum and the sum of the absolute values of its terms, which
    bounds the rounding of the sum.
    """
    total = 0.0
    magnitude = 0.0
    n = len(_GAUSS_WEIGHTS)
    for i, (a, b) in enumerate(zip(edges, edges[1:])):
        half = 0.5 * (b - a)
        terms = list(map(mul, _GAUSS_WEIGHTS, values[n * i : n * i + n]))
        total += half * sum(terms)
        magnitude += half * sum(map(abs, terms))
    return total, magnitude


def _bisect(edges: Sequence[float]) -> list[float]:
    """The edges with the midpoint of every panel added."""
    out = [edges[0]]
    for a, b in zip(edges, edges[1:]):
        out += [0.5 * (a + b), b]
    return out


def _bessel_error_integral(nu: float, s: float, power: int, rate: float) -> float:
    """The Bessel series error 16 eps I_nu(r s)/(r s)^nu, integrated against the envelope.

    int r^(2 nu + 1) e^(-a r^2) I_nu(r s)/(r s)^nu dr = (2a)^-(nu+1) e^(s^2/(4a))
    over (0, inf), and the factor r^(2 power) is (-d/da)^power applied to
    it.  With u = 1/a each -d/da multiplies by (nu+1) u + (s^2/4) u^2 and
    maps u^k to k u^(k+1), so the result is the closed form times a
    polynomial in u with non-negative coefficients, evaluated at a = rate.
    """
    quarter_s2 = 0.25 * s * s
    coeffs = [1.0]  # coefficient of u^k at index k
    for _ in range(power):
        nxt = [0.0] * (len(coeffs) + 2)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += (nu + 1.0 + k) * c
            nxt[k + 2] += quarter_s2 * c
        coeffs = nxt
    u = 1.0 / rate
    return (
        16.0
        * sys.float_info.epsilon
        * (2.0 * rate) ** -(nu + 1.0)
        * math.exp(quarter_s2 * u)
        * sum(c * u**k for k, c in enumerate(coeffs))
    )


def hankel_quadrature(
    f0: Callable[[float], float],
    nu: float,
    s: float,
    *,
    tol: float = 1e-12,
    power: int = 0,
    rate: float = 0.5,
) -> tuple[float, float]:
    """Hankel transform of order nu of a Gaussian-type profile at s, with its bound.

    Integrates f0(r) J_nu(r s)/(r s)^nu r^(2 nu + 1) over (0, inf), for
    nu >= -1/2 (the range of the Bessel series), and returns (value,
    bound).  power and rate describe the envelope
    |f0(r)| <= r^(2 power) e^(-rate r^2), from which the cutoff is
    chosen so the discarded tail stays below tol/4; the Bessel factor is
    bounded by its value at zero.  The cutoff, not a fixed window, keeps the
    Bessel series argument as small as the envelope allows.

    On [0, cutoff] the composite 20-point Gauss-Legendre rule is applied
    on 4 equal panels (Q4) and with each panel halved (Q8), 240 integrand
    evaluations in all; Q8 is returned.  The nodes of both rules are listed
    first, and the Bessel factor at all of them comes from one pass of
    _bessel_series, whose length is set at the largest argument and so
    meets the truncation rule at every node.  When 2 nu + 1 is not an integer,
    r^(2 nu + 1) has a branch point at r = 0, and the first panel is first
    split geometrically toward it (ratio 1/4) until the envelope's mass on
    the innermost panel is below tol/4; every other panel then keeps the
    branch point at least a third of its width away, where the rule
    converges fast.  The stated error bound is

        tail + |Q8 - Q4| + B + R.

    tail bounds the discarded tail.  B bounds the Bessel series error
    16 eps I_nu(r s)/(r s)^nu of that pass integrated against the
    envelope, in closed form (_bessel_error_integral).  R = n eps sum|w f|
    over the n terms of Q8 bounds the rounding of its sum.  |Q8 - Q4| is an
    estimate, not a bound, of the rule error: it measures the error of Q4
    and holds for Q8 when f0 is smooth on the window.  QuadratureError is
    raised when |Q8 - Q4| > tol/2, which catches a kink or jump in f0.  B is
    not part of that test: it reflects cancellation in the alternating
    series, which no second rule can reduce, and grows like
    e^(s^2/(4 rate)) (3e-13 at s = 3, rate = 1/2).
    """
    if s < 0:
        raise ValueError("transform variable must be non-negative")
    if nu < -0.5:
        raise ValueError("order must be at least -1/2")
    j_bound = _bessel_lead(nu)
    env_power = 2.0 * power + 2.0 * nu + 1.0
    cutoff = 6.0
    while True:
        tail = j_bound * _gaussian_tail_bound(cutoff, env_power, rate)
        if tail < 0.25 * tol:
            break
        cutoff += 0.5
        if cutoff > 60.0:
            raise QuadratureError("gaussian tail bound cannot reach the tolerance")
    edges = [k * cutoff / 4 for k in range(5)]
    if not (2.0 * nu + 1.0).is_integer():
        inner = edges[1]
        # envelope mass on [0, inner] <= j_bound inner^(e+1) / (e+1)
        while j_bound * inner ** (env_power + 1.0) > (
            0.25 * tol * (env_power + 1.0)
        ):
            inner *= 0.25
            edges.insert(1, inner)

    fine_edges = _bisect(edges)
    coarse_nodes = _panel_nodes(edges)
    nodes = coarse_nodes + _panel_nodes(fine_edges)
    series = _bessel_series(nu, [r * s for r in nodes], j_bound)  # one pass for both rules
    weight = 2.0 * nu + 1.0
    values = [f0(r) * j * r**weight for r, j in zip(nodes, series)]
    coarse, _ = _gauss_composite(edges, values)
    fine, magnitude = _gauss_composite(fine_edges, values[len(coarse_nodes):])
    gap = abs(fine - coarse)
    if gap > 0.5 * tol:
        raise QuadratureError(
            f"Gauss-Legendre rules on {len(edges) - 1} and {len(fine_edges) - 1} "
            f"panels differ by {gap:.3g}, above {0.5 * tol:.3g}"
        )
    rounding = 20 * (len(fine_edges) - 1) * sys.float_info.epsilon * magnitude
    bessel = _bessel_error_integral(nu, s, power, rate)
    return fine, tail + gap + bessel + rounding


def hankel_numeric(
    f0: Callable[[float], float],
    nu: float,
    s: float,
    *,
    tol: float = 1e-12,
    power: int = 0,
    rate: float = 0.5,
) -> float:
    """The value of hankel_quadrature, without its bound."""
    return hankel_quadrature(f0, nu, s, tol=tol, power=power, rate=rate)[0]


def hankel_identity_residual(
    ctx: DunklContext, p: Poly, radial_power: int, y: Sequence[float]
) -> float:
    """Transform of p times a radial Gaussian profile versus its Hankel form.

    The transform of p(x) r^(2 radial_power) e^(-r^2/2) is computed once by
    kernel expansion (absorbing the radial factor into the polynomial) and
    once through the Hankel transforms of the profile at shifted Bessel
    orders weighted by Laplacian powers of p.
    """
    if not p.is_homogeneous():
        raise ValueError("radial multiplier identity needs homogeneous input")
    if p.is_zero():
        return 0.0
    lam = float(ctx.bessel_index)
    lifted = norm_sq_poly(ctx.dim) ** radial_power * p
    lhs = dunkl_transform_gauss_poly(ctx, lifted, y)

    def f0(r: float) -> float:
        return r ** (2 * radial_power) * math.exp(-r * r / 2.0)

    rhs = _laplacian_bessel_sum(
        laplacian_powers(ctx, p, p.degree() // 2), y,
        lambda k, t: hankel_numeric(f0, lam + k, t, power=radial_power, rate=0.5),
    )
    return abs(lhs - rhs)


# -- multiplication rule ----------------------------------------------------


def transform_multiplication_residual(
    ctx: DunklContext,
    q: Poly,
    ys: Sequence[float],
) -> float:
    """Defect of the rule: transform of x f equals i D applied to transform f.

    One-dimensional only.  f is q(x) times the unit Gaussian; its transform
    is again polynomial times Gaussian with exactly computable (complex
    rational) coefficients, so the right side is evaluated through the
    exact Dunkl derivative of that closed form while the left side comes
    from the kernel expansion.  Returns the largest absolute defect on the
    grid.
    """
    if ctx.dim != 1:
        raise ValueError("multiplication rule check is one-dimensional")
    # the transform of a degree-m component times the Gaussian carries (-i)^m
    series = [
        (_PHASES[degree % 4], heat_series(ctx, component, Fraction(-1, 2)))
        for degree, component in homogeneous_components(q)
    ]
    real = linear_combination(1, ((int(phase.real), s) for phase, s in series))
    imag = linear_combination(1, ((int(phase.imag), s) for phase, s in series))

    x = Poly.variable(1, 1)
    d_real = apply_coord(ctx, 0, real) - x * real
    d_imag = apply_coord(ctx, 0, imag) - x * imag
    lifted = x * q

    worst = 0.0
    for y in ys:
        lhs = dunkl_transform_gauss_poly(ctx, lifted, (y,))
        gauss = math.exp(-y * y / 2.0)
        rhs = 1j * complex(
            float(d_real.evaluate((y,))), float(d_imag.evaluate((y,)))
        ) * gauss
        worst = max(worst, abs(lhs - rhs))
    return worst
