"""Dunkl operators and the operator identities of their first-order calculus.

The context object pairs a root system with its Bessel index and owns the
memo tables that make repeated applications cheap: the reflection
difference quotient of a monomial and the image of a monomial under each
coordinate operator are both pure functions of the exponent vector, so they
are computed once per context.

A root whose reflection is a signed coordinate permutation (one nonzero
entry, or two of equal size: every root of the z2, a, b and d catalogs)
gets its difference quotient in closed form from poly.divided_difference,
with no substitution and no division.  Any other root expands the
reflection with compose_reflection and divides by <alpha, x> with
divide_exact_by_linear.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Callable, Sequence

from .poly import (
    Poly,
    as_coeff,
    classical_laplacian,
    compose_reflection,
    divide_exact_by_linear,
    divided_difference,
    linear_combination,
    partial_derivative,
    Exponent,
)
from .roots import RootSystem

# Largest estimated count of monomial images of one expansion (check_budget);
# every input of the tests, suites and benchmark stays below.
MAX_WORK = 100_000


class DunklContext:
    """A root system together with caches for operator application.

    The cached data are pure functions of the system, so sharing a context
    across threads for reads is safe once it has been used single-threaded.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self._kappa = [as_coeff(k) for k in rs.kappa_by_root()]
        # lambda = gamma + (d-2)/2, gamma the sum of the multiplicities over
        # the positive roots: the order of every Bessel function downstream,
        # always >= -1/2
        self.bessel_index = sum(self._kappa, Fraction(rs.dim - 2, 2))
        self._active = [i for i, k in enumerate(self._kappa) if k != 0]
        # <alpha, alpha> per positive root, for dunkl_laplacian_expr
        self._norm_sq = [as_coeff(sum(a * a for a in root if a)) for root in rs.positive_roots]
        self._quotients: dict[tuple[int, Exponent], Poly] = {}
        self._coord_images: dict[tuple[int, Exponent], Poly] = {}
        self._laplacian_images: dict[Exponent, Poly] = {}

    @property
    def dim(self) -> int:
        return self.rs.dim

    # -- monomial-level building blocks ------------------------------------

    def _quotient(self, root_index: int, e: Exponent) -> Poly:
        """(x^e - x^e composed with r_alpha) / <alpha, x>, exact.

        Closed form for signed-permutation roots, exact division otherwise.
        """
        key = (root_index, e)
        cached = self._quotients.get(key)
        if cached is None:
            action = self.rs.reflections[root_index]
            if action.signed is not None:
                cached = divided_difference(e, action)
            else:
                mono = Poly.monomial(self.dim, e)
                diff = mono - compose_reflection(mono, action)
                cached = divide_exact_by_linear(diff, self.rs.positive_roots[root_index])
            self._quotients[key] = cached
        return cached

    def _coord_image(self, j: int, e: Exponent) -> Poly:
        """D_j applied to the monomial x^e."""
        key = (j, e)
        cached = self._coord_images.get(key)
        if cached is None:
            pairs = []
            if e[j]:
                f = tuple(v - 1 if i == j else v for i, v in enumerate(e))
                pairs.append((e[j], Poly.monomial(self.dim, f)))
            for idx in self._active:
                aj = self.rs.positive_roots[idx][j]
                if aj:
                    pairs.append((self._kappa[idx] * aj, self._quotient(idx, e)))
            cached = linear_combination(self.dim, pairs)
            self._coord_images[key] = cached
        return cached

    def _laplacian_image(self, e: Exponent) -> Poly:
        cached = self._laplacian_images.get(e)
        if cached is None:
            cached = linear_combination(
                self.dim,
                ((c, self._coord_image(j, f))
                 for j in range(self.dim)
                 for f, c in self._coord_image(j, e).terms.items()),
            )
            self._laplacian_images[e] = cached
        return cached


def check_budget(ctx: DunklContext, degree: int, repeats: int = 1) -> None:
    """ValueError, before any expansion, when input of this degree may cost too much.

    Polynomials reached from input of degree m have degree at most m, so at
    most C(m + d, d) monomials, and each monomial image takes one quotient
    per active root; repeats counts independent expansions of that size.
    """
    m = max(degree, 0)
    work = comb(m + ctx.dim, ctx.dim) * max(len(ctx._active), 1) * repeats
    if work > MAX_WORK:
        raise ValueError(
            f"input too large: degree {m} in {ctx.dim} variables needs about "
            f"{work} monomial images, above the budget of {MAX_WORK}"
        )


def apply_coord(ctx: DunklContext, j: int, p: Poly) -> Poly:
    """D_j p via the per-monomial cache."""
    return linear_combination(
        ctx.dim, ((c, ctx._coord_image(j, e)) for e, c in p.terms.items())
    )


def dunkl_apply(ctx: DunklContext, xi: Sequence, p: Poly) -> Poly:
    """The Dunkl operator in direction xi applied to p.

    This is the directional derivative plus, for every positive root, the
    multiplicity times <alpha, xi> times the reflection difference quotient.
    It lowers the degree of homogeneous input by exactly one and is linear
    in xi, so it is assembled from the coordinate operators.
    """
    xi = [as_coeff(c) for c in xi]
    if len(xi) != ctx.dim:
        raise ValueError("direction has wrong dimension")
    return linear_combination(
        ctx.dim,
        ((coeff * c, ctx._coord_image(j, e))
         for j, coeff in enumerate(xi)
         if coeff
         for e, c in p.terms.items()),
    )


def dunkl_laplacian_sq(ctx: DunklContext, p: Poly) -> Poly:
    """Sum of squared coordinate Dunkl operators (the defining route)."""
    return linear_combination(
        ctx.dim, ((c, ctx._laplacian_image(e)) for e, c in p.terms.items())
    )


def laplacian_powers(ctx: DunklContext, p: Poly, n: int) -> list[Poly]:
    """[p, Lap p, ..., Lap^n p] by repeated dunkl_laplacian_sq.

    Every Laplacian-power series of the package (Hobson's expansion, the
    Clebsch projection, the Pizzetti mean, Bochner-Hecke, the Hankel and
    spherical pairings) is a weighted sum over this list.
    """
    check_budget(ctx, p.degree())
    powers = [p]
    for _ in range(n):
        powers.append(dunkl_laplacian_sq(ctx, powers[-1]))
    return powers


def heat_series(ctx: DunklContext, p: Poly, t) -> Poly:
    """exp(t Lap) p, the sum over j <= deg(p)/2 of t^j / j! Lap^j p, exact.

    The Laplacian lowers the degree by two, so the series is finite; the
    generalized Hermite polynomial is the case t = -1/4 and the
    Bochner-Hecke closed form the case t = -1/2.
    """
    t = Fraction(t)
    return linear_combination(
        ctx.dim,
        ((t**j / factorial(j), power)
         for j, power in enumerate(laplacian_powers(ctx, p, max(p.degree(), 0) // 2))),
    )


def dunkl_laplacian_expr(ctx: DunklContext, p: Poly) -> Poly:
    """The Dunkl Laplacian through its explicit second-order expression.

    Per positive root the combination 2 d_alpha p - <alpha,alpha> times the
    reflection difference quotient vanishes on the root hyperplane, so it
    divides exactly by <alpha, x> once more; summing the results over the
    roots with multiplicity weights and adding the classical Laplacian must
    reproduce dunkl_laplacian_sq.  Both routes are kept as cross-checks of
    each other.
    """
    pairs = [(1, classical_laplacian(p))]
    for idx in ctx._active:
        alpha = ctx.rs.positive_roots[idx]
        norm = ctx._norm_sq[idx]
        numerator = linear_combination(
            ctx.dim,
            [(2, partial_derivative(p, alpha))]
            + [(-norm * c, ctx._quotient(idx, e)) for e, c in p.terms.items()],
        )
        pairs.append((ctx._kappa[idx], divide_exact_by_linear(numerator, alpha)))
    return linear_combination(ctx.dim, pairs)


def dunkl_laplacian_invariant(ctx: DunklContext, p: Poly) -> Poly:
    """Second-order restriction of the Laplacian, valid for invariant p.

    For polynomials fixed by the reflections of the active roots the
    difference terms drop and the Laplacian reduces to the classical one
    plus first-order root terms.  Any other input raises ValueError: the
    restriction does not apply to it, and the per-root division may even be
    exact while giving a wrong answer.
    """
    pairs = [(1, classical_laplacian(p))]
    for idx in ctx._active:
        alpha = ctx.rs.positive_roots[idx]
        if p != compose_reflection(p, ctx.rs.reflections[idx]):
            root = ", ".join(str(c) for c in alpha)
            raise ValueError(
                "the invariant restriction needs a polynomial fixed by the "
                f"reflection in the root ({root})"
            )
        numerator = partial_derivative(p, alpha).scale(2 * ctx._kappa[idx])
        pairs.append((1, divide_exact_by_linear(numerator, alpha)))
    return linear_combination(ctx.dim, pairs)


def operator_words(p: Poly, start, step: Callable) -> list[tuple[Fraction, object]]:
    """(c, D^e start) for each term c x^e of p, where step(j, w) is D_j w.

    The word D^e is applied right to left in coordinate order: x_d's factors
    act first and x_1's last.  Since the operators commute the order is a
    convention, which the test suite permutes on small cases.  Words are
    memoized on their exponent for this call, so the terms of p share their
    suffixes and step runs once per distinct nonzero suffix.
    """
    words = {(0,) * p.dim: start}
    out = []
    for e, c in p.terms.items():
        chain = []
        while e not in words:
            j = next(i for i, v in enumerate(e) if v)
            chain.append((j, e))
            e = e[:j] + (e[j] - 1,) + e[j + 1:]
        w = words[e]
        for j, f in reversed(chain):
            w = words[f] = step(j, w)
        out.append((c, w))
    return out


def poly_of_dunkl(ctx: DunklContext, p: Poly, target: Poly) -> Poly:
    """Substitute the coordinate Dunkl operators into p and apply to target."""
    if p.dim != target.dim:
        raise ValueError("polynomial and target dimensions differ")
    return linear_combination(
        ctx.dim, operator_words(p, target, lambda j, w: apply_coord(ctx, j, w))
    )


def commutator_residual(ctx: DunklContext, xi: Sequence, eta: Sequence, p: Poly) -> Poly:
    """D_xi D_eta p - D_eta D_xi p; identically zero for valid systems."""
    return dunkl_apply(ctx, xi, dunkl_apply(ctx, eta, p)) - dunkl_apply(
        ctx, eta, dunkl_apply(ctx, xi, p)
    )


def mult_commutator_residual(ctx: DunklContext, power: int, coord: int, p: Poly) -> Poly:
    """Residual of the commutator of a Laplacian power with a coordinate.

    Checks [Lap^power, x_coord .] p = 2 * power * D_coord Lap^(power-1) p,
    the identity that drives the inductive proof of the radial expansion.
    coord is 0-based; power must be at least 1.
    """
    if power < 1:
        raise ValueError("power must be at least 1")
    x = Poly.variable(ctx.dim, coord + 1)
    lhs = laplacian_powers(ctx, x * p, power)[power]
    lower, top = laplacian_powers(ctx, p, power)[-2:]
    return lhs - x * top - apply_coord(ctx, coord, lower).scale(2 * power)


def adjoint_formula_residual(ctx: DunklContext, p: Poly, target: Poly) -> Poly:
    """p(D) versus iterated half-Laplacian commutators with multiplication.

    For homogeneous p of degree m, p(D) equals 1/m! times the m-fold
    commutator of Lap/2 with multiplication by p.  The nested commutator is
    expanded binomially, which is valid for arbitrary operators.
    """
    if not p.is_homogeneous():
        raise ValueError("adjoint expansion needs homogeneous input")
    if p.is_zero():
        return Poly.zero(ctx.dim)
    m = p.degree()
    target_powers = laplacian_powers(ctx, target, m)
    pairs = [(1, poly_of_dunkl(ctx, p, target))]
    for i in range(m + 1):
        # (Lap/2)^i (p (Lap/2)^(m-i) target), with the halvings pulled out
        term = laplacian_powers(ctx, p * target_powers[m - i], i)[i]
        sign = -1 if (m - i) % 2 else 1
        pairs.append((Fraction(-sign * comb(m, i), 2**m * factorial(m)), term))
    return linear_combination(ctx.dim, pairs)
