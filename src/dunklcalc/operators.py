"""Dunkl operators and the operator identities of their first-order calculus.

The context object pairs a root system with its Bessel index and owns the
memo tables that make repeated applications cheap.  Each entry is a pure
function of an exponent vector, so it is computed once per context.  All
four hold term dicts with no zero entry; an operator call builds one Poly
from them:

- _quotients: the reflection difference quotient of x^e per active root,
  over the root's unit (1 for a general root), so with +-1 entries if signed;
- _coord_images: q times the image of x^e under each coordinate operator D_j;
- _laplacian_images: q^2 times the sum of squared operators applied to x^e,
  read off _coord_images (the defining route);
- _expr_images: s times the explicit second-order expression applied to
  x^e, built from _quotients alone, so that the two Laplacian routes stay
  independent checks of each other.

A root whose reflection is a signed coordinate permutation (one nonzero
entry, or two of equal size: every root of the z2, a, b and d catalogs)
gets its quotient in closed form from poly.divided_difference, with no
substitution and no division.  Any other root expands the reflection with
compose_reflection and divides by <alpha, x> with divide_exact_by_linear.
Each root's entries, <alpha, alpha>, unit, reflection and divisor are read
from its compiled ReflectionAction in rs.reflections.

The integer scale q is the lcm of the denominators of the weights of the
unit-free quotients in D_j: 2 kappa for a sign flip, +-kappa for a signed
transposition, kappa alpha_j for a general root.  Times q they are ints, so
for signed roots the tables hold ints, summed in int arithmetic; apply_coord,
dunkl_apply and dunkl_laplacian_sq divide q back out once per output term.
The explicit route has its own scale s, the lcm of the denominators of the
active multiplicities: the weights s kappa_alpha of its per-root terms are
ints, so on signed roots its images are ints too, and dunkl_laplacian_expr
divides s back out once per output term.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from typing import Callable, Sequence

from .poly import (
    Poly,
    as_coeff,
    classical_laplacian,
    combine_terms,
    compose_reflection,
    divide_exact_by_linear,
    divide_numerators,
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
        self.dim = rs.dim
        kappas = [as_coeff(k) for k in rs.multiplicities]  # one per orbit
        self._kappa = [0] * len(rs.positive_roots)
        self._rows: list[list[int] | None] = [None] * len(rs.positive_roots)
        q = 1  # the scale of the module docstring
        weights = []  # (index, kappa's numerator times unit, kappa's denominator, root)
        for orbit, k in zip(rs.orbits, kappas):
            if not k:
                continue
            num, den = k.numerator, k.denominator
            flip = den if den % 2 else den // 2  # the denominator of 2 kappa
            for idx in orbit:
                self._kappa[idx] = k
                action = rs.reflections[idx]
                if action.signed is None:
                    q = lcm(q, *((k * a).denominator for a in action.root))
                else:
                    q = lcm(q, flip if len(action.support) == 1 else den)
                weights.append((idx, num * (action.unit or 1), den, action.root))
        # the int weights q kappa alpha_j unit of each active root's quotient in q D_j
        for idx, w, den, root in weights:
            self._rows[idx] = [q * w * a // den for a in root]
        # lambda = gamma + (d-2)/2, gamma the sum of the multiplicities over
        # the positive roots: the order of every Bessel function downstream,
        # always >= -1/2; summed in ints over one common denominator
        den = lcm(2, *(k.denominator for k in kappas))
        self.bessel_index = Fraction(
            (rs.dim - 2) * den // 2
            + sum(len(orbit) * k.numerator * (den // k.denominator)
                  for orbit, k in zip(rs.orbits, kappas)),
            den,
        )
        self._active = [i for i, k in enumerate(self._kappa) if k]
        self._scale = q
        # the scale s of the explicit route, and its int weights s kappa per root
        s = self._expr_scale = lcm(*(k.denominator for k in kappas))
        self._expr_weights = [k.numerator * (s // k.denominator) for k in self._kappa]
        self._quotients: dict[tuple[int, Exponent], dict] = {}
        self._coord_images: dict[tuple[int, Exponent], dict] = {}
        self._laplacian_images: dict[Exponent, dict] = {}
        self._expr_images: dict[Exponent, dict] = {}

    # -- monomial-level building blocks ------------------------------------

    def _quotient(self, root_index: int, e: Exponent) -> dict:
        """(x^e - x^e composed with r_alpha) / <alpha, x> over the root's unit.

        Closed form for signed-permutation roots, exact division (unit 1)
        otherwise; the terms of the quotient, as a dict.
        """
        key = (root_index, e)
        cached = self._quotients.get(key)
        if cached is None:
            action = self.rs.reflections[root_index]
            if action.signed is not None:
                cached = divided_difference(e, action)
            else:
                p = Poly.monomial(self.dim, e)
                cached = divide_exact_by_linear((p - compose_reflection(p, action)).terms, action)
            self._quotients[key] = cached
        return cached

    def _coord_image(self, j: int, e: Exponent) -> dict:
        """The terms of q times D_j applied to the monomial x^e."""
        key = (j, e)
        cached = self._coord_images.get(key)
        if cached is None:
            pairs = []
            if e[j]:
                pairs.append((self._scale * e[j], {e[:j] + (e[j] - 1,) + e[j + 1:]: 1}))
            for idx in self._active:
                weight = self._rows[idx][j]
                if weight:
                    pairs.append((weight, self._quotient(idx, e)))
            cached = {f: v for f, v in combine_terms(pairs).items() if v}
            self._coord_images[key] = cached
        return cached

    def _laplacian_image(self, e: Exponent) -> dict:
        cached = self._laplacian_images.get(e)
        if cached is None:
            terms = combine_terms((c, self._coord_image(j, f)) for j in range(self.dim)
                                  for f, c in self._coord_image(j, e).items())
            cached = {f: v for f, v in terms.items() if v}
            self._laplacian_images[e] = cached
        return cached

    def _unscaled(self, pairs, scale: int) -> Poly:
        """The sum of c * image over the (c, image term dict) pairs, divided by scale.

        The images are summed with the integer numerators of the c over their
        common denominator, each output term is divided once, unless that
        denominator times scale is 1, and the call's one Poly is built last.
        """
        pairs = list(pairs)
        den = lcm(*(c.denominator for c, _ in pairs))
        if den != 1:
            pairs = [(c.numerator * (den // c.denominator), image) for c, image in pairs]
        total = combine_terms(pairs)
        den *= scale
        if den != 1:
            total = divide_numerators(total, den)
        return Poly(self.dim, total)

    def _expr_image(self, e: Exponent) -> dict:
        """The terms of s times the explicit second-order expression applied to x^e.

        Per active root, 2 d_alpha x^e - <alpha,alpha> Q_alpha(e) vanishes on
        the root hyperplane and is divided exactly by <alpha, x>; the
        quotients are summed with the int weights s kappa_alpha, and the
        classical Laplacian of x^e with s.  Reads _quotients only, never the
        coordinate or Laplacian images.
        """
        cached = self._expr_images.get(e)
        if cached is None:
            # x^e with one power of x_i removed, for each i with e_i > 0
            lowered = [(i, k, e[:i] + (k - 1,) + e[i + 1:]) for i, k in enumerate(e) if k]
            classical = {e[:i] + (k - 2,) + e[i + 1:]: k * (k - 1)
                         for i, k in enumerate(e) if k > 1}
            pairs = [(self._expr_scale, classical)]
            for idx in self._active:
                action = self.rs.reflections[idx]
                alpha, unit = action.root, action.unit or 1  # a general root's unit is 1
                gradient = {f: 2 * k * alpha[i] for i, k, f in lowered if alpha[i]}
                numerator = combine_terms(
                    ((1, gradient), (-action.norm * unit, self._quotient(idx, e))))
                numerator = {f: v for f, v in numerator.items() if v}
                if numerator:  # empty, for one, when x^e is free of the root's coordinates
                    quotient = divide_exact_by_linear(numerator, action)
                    pairs.append((self._expr_weights[idx], quotient))
            cached = {f: v for f, v in combine_terms(pairs).items() if v}
            self._expr_images[e] = cached
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
    return ctx._unscaled(((c, ctx._coord_image(j, e)) for e, c in p.terms.items()), ctx._scale)


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
    return ctx._unscaled((
        (coeff * c, ctx._coord_image(j, e))
        for j, coeff in enumerate(xi)
        if coeff
        for e, c in p.terms.items()
    ), ctx._scale)


def dunkl_laplacian_sq(ctx: DunklContext, p: Poly) -> Poly:
    """Sum of squared coordinate Dunkl operators (the defining route)."""
    return ctx._unscaled(((c, ctx._laplacian_image(e)) for e, c in p.terms.items()), ctx._scale**2)


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
    each other, each over its own per-monomial table.
    """
    return ctx._unscaled(((c, ctx._expr_image(e)) for e, c in p.terms.items()), ctx._expr_scale)


def dunkl_laplacian_invariant(ctx: DunklContext, p: Poly) -> Poly:
    """Second-order restriction of the Laplacian, valid for invariant p.

    For polynomials fixed by the reflections of the active roots the
    difference terms drop and the Laplacian reduces to the classical one
    plus first-order root terms.  Any other input raises ValueError: the
    restriction does not apply to it, and the per-root division may even be
    exact while giving a wrong answer.
    """
    pairs = [(1, classical_laplacian(p).terms)]
    for idx in ctx._active:
        action = ctx.rs.reflections[idx]
        if p != compose_reflection(p, action):
            root = ", ".join(str(c) for c in action.root)
            raise ValueError(
                "the invariant restriction needs a polynomial fixed by the "
                f"reflection in the root ({root})"
            )
        numerator = partial_derivative(p, action.root).terms
        pairs.append((2 * ctx._kappa[idx], divide_exact_by_linear(numerator, action)))
    return Poly(ctx.dim, combine_terms(pairs))


def operator_words(p: Poly, start, step: Callable) -> list[tuple[Fraction, object]]:
    """(c, D^e start) for each term c x^e of p, where step(j, w) is D_j w.

    The word D^e is applied right to left in coordinate order: x_d's factors
    act first and x_1's last, so step runs once per letter of each word.
    Since the operators commute the order is a convention, which the test
    suite permutes on small cases.
    """
    out = []
    for e, c in p.terms.items():
        w = start
        for j in reversed(range(p.dim)):
            for _ in range(e[j]):
                w = step(j, w)
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
