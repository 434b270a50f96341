"""Sparse multivariate polynomials over the rationals.

Terms live in a dict keyed by exponent tuples with nonzero coefficients,
each an int when integral, else a Fraction (the one rule is as_coeff), so
equality is exact structural equality of canonical forms.
Besides ring arithmetic the module provides the primitives the Dunkl
calculus leans on.  Each root is compiled once into a ReflectionAction that
holds its entries, <a, a>, its reflection and its linear form <a, x>; on it
rest substitution of the reflection, the closed-form difference quotient of
a monomial for a root whose reflection is a signed coordinate permutation,
and exact division by <a, x> (and by the squared norm, which the harmonic
decomposition needs).
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress
from math import prod
from operator import mul
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

Exponent = tuple[int, ...]


class PolyError(ValueError):
    pass


class PolyParseError(PolyError):
    """Syntax error in polynomial or profile text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvariantError(ArithmeticError):
    """An exact identity that the implementation guarantees was found broken.

    It signals a bug, not bad input; the CLI reports it with exit code 3.
    """


class ExactDivisionError(InvariantError):
    """A division that must be exact left a remainder.

    Raised when a caller-side invariant is broken (a numerator that should
    vanish on a hyperplane does not).
    """


Coeff = int | Fraction


def as_coeff(value) -> Coeff:
    """value as an exact coefficient: an int when integral, else a Fraction.

    Almost every coefficient of the calculus is an integer, and int
    arithmetic is several times cheaper than Fraction arithmetic.  str, ==
    and hash agree between the two types, so the choice never shows in
    output.  A bool or a float becomes an int or a Fraction, never itself.
    """
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class Poly:
    """Immutable sparse polynomial; do not mutate `terms` after creation."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[Exponent, Coeff] | None = None):
        if dim < 1:
            raise PolyError("dimension must be positive")
        clean: dict[Exponent, Coeff] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != dim:
                    raise PolyError(f"exponent {e} has wrong length for dim {dim}")
                if type(c) is not int:
                    c = as_coeff(c)
                if c:
                    clean[e] = c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Poly":
        return cls(dim)

    @classmethod
    def const(cls, dim: int, value) -> "Poly":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def variable(cls, dim: int, index: int) -> "Poly":
        """The coordinate x_index with a 1-based index."""
        if not 1 <= index <= dim:
            raise PolyError(f"variable index {index} out of range 1..{dim}")
        e = tuple(1 if i == index - 1 else 0 for i in range(dim))
        return cls(dim, {e: 1})

    @classmethod
    def monomial(cls, dim: int, exponents: Sequence[int]) -> "Poly":
        return cls(dim, {tuple(exponents): 1})

    # -- ring arithmetic ---------------------------------------------------

    def _require_same_dim(self, other: "Poly") -> None:
        if self.dim != other.dim:
            raise PolyError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.dim, other)
        return linear_combination(self.dim, ((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.dim, other)
        if self.dim == other.dim and self.terms == other.terms:
            return Poly(self.dim)  # an exact residual: no term is negated or summed
        return linear_combination(self.dim, ((1, self), (-1, other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._require_same_dim(other)
        out: dict[Exponent, Coeff] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(self.dim, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, factor) -> "Poly":
        factor = as_coeff(factor)
        if not factor:
            return Poly(self.dim)
        return Poly(self.dim, {e: c * factor for e, c in self.terms.items()})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise PolyError("polynomial powers must be non-negative integers")
        result = Poly.const(self.dim, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.dim == other.dim and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(self.dim, other)
        return NotImplemented

    __hash__ = None

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def constant_term(self) -> Coeff:
        return self.terms.get((0,) * self.dim, 0)

    def evaluate(self, point: Sequence):
        """Evaluate at a point; exact for Fraction input, numeric otherwise."""
        if len(point) != self.dim:
            raise PolyError("point has wrong dimension")
        total = None
        for e, c in self.terms.items():
            val = c * prod(x**k for x, k in zip(point, e) if k)
            total = val if total is None else total + val
        return Fraction(0) if total is None else total

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({self.dim}, {format_poly(self)!r})"


def combine_terms(pairs: Iterable[tuple[Coeff, Mapping[Exponent, Coeff]]]) -> dict:
    """The sum of c * terms over the (c, term dict) pairs, collected in one dict.

    Every operator of the calculus is linear and extended from monomials, so
    this is how all of them assemble their output: the operator memo tables
    sum term dicts, linear_combination Polys.  Each c goes through as_coeff
    first, so an integral factor multiplies as an int.  Terms keep the order
    in which their monomials first appear; zero sums stay for the caller.
    """
    out: dict[Exponent, Coeff] = {}
    get = out.get
    for c, terms in pairs:
        if type(c) is not int:
            c = as_coeff(c)
        if not c:
            continue
        if c == 1:  # no multiply: Fraction * int allocates
            for e, v in terms.items():
                old = get(e)
                out[e] = v if old is None else old + v
        else:
            for e, v in terms.items():
                old = get(e)
                out[e] = c * v if old is None else old + c * v
    return out


def linear_combination(dim: int, pairs: Iterable[tuple[Coeff, Poly]]) -> Poly:
    """combine_terms over (c, q) pairs of Polys of dimension dim, as a Poly."""
    def terms():
        for c, q in pairs:
            if q.dim != dim:
                raise PolyError(f"dimension mismatch: {dim} vs {q.dim}")
            yield c, q.terms

    return Poly(dim, combine_terms(terms()))


def divide_numerators(terms: Mapping[Exponent, int], den: int) -> dict[Exponent, Coeff]:
    """Each int coefficient divided by den once: an int where den divides it, else a Fraction."""
    return {e: v // den if v % den == 0 else Fraction(v, den) for e, v in terms.items()}


def linear_form(coeffs: Sequence) -> Poly:
    """The polynomial <c, x> for a coefficient vector c."""
    dim = len(coeffs)
    zero = (0,) * dim
    return Poly(dim, {zero[:i] + (1,) + zero[i + 1:]: c for i, c in enumerate(coeffs) if c})


def norm_sq_poly(dim: int) -> Poly:
    """x_1^2 + ... + x_d^2."""
    return Poly(
        dim,
        {tuple(2 if j == i else 0 for j in range(dim)): 1 for i in range(dim)},
    )


def _times_norm_sq(
    dim: int, terms: Mapping[Exponent, Coeff], part: Mapping[Exponent, Coeff] | None = None
) -> dict[Exponent, Coeff]:
    """part + terms * |x|^2 in one dict, for nonempty terms: each x^e moves to every x^(e + 2 e_j).

    A monomial to monomial map, and the one Horner step in |x|^2 of the
    package: the shifted exponents are zipped from the coordinate columns of
    all the terms at once, no Poly is built and no coefficient is re-checked;
    zero coefficients may stay until the caller builds a Poly.
    """
    out = dict(part) if part else {}
    columns, values = list(zip(*terms)), list(terms.values())
    for j in range(dim):
        shifted = zip(*columns[:j], [k + 2 for k in columns[j]], *columns[j + 1:])
        for f, c in zip(shifted, values):
            out[f] = out.get(f, 0) + c
    return out


def partial_derivative(p: Poly, direction: Sequence) -> Poly:
    """Directional derivative <xi, grad> p, exact."""
    out: dict[Exponent, Coeff] = {}
    direction = [as_coeff(c) for c in direction]
    if len(direction) != p.dim:
        raise PolyError("direction has wrong dimension")
    for e, c in p.terms.items():
        for i, xi in enumerate(direction):
            if xi and e[i]:
                f = tuple(v - 1 if j == i else v for j, v in enumerate(e))
                out[f] = out.get(f, 0) + c * xi * e[i]
    return Poly(p.dim, out)


def classical_laplacian(p: Poly) -> Poly:
    out: dict[Exponent, Coeff] = {}
    for e, c in p.terms.items():
        for i, k in enumerate(e):
            if k >= 2:
                f = tuple(v - 2 if j == i else v for j, v in enumerate(e))
                out[f] = out.get(f, 0) + c * k * (k - 1)
    return Poly(p.dim, out)


def reflection_variable_images(alpha: Sequence[Coeff], norm: Coeff) -> list[Poly]:
    """Images of the coordinates under the reflection in alpha^perp.

    Entry i is the linear polynomial (r_alpha x)_i, with norm = <alpha, alpha>.
    """
    dim = len(alpha)
    return [
        linear_form([(1 if j == i else 0) - Fraction(2 * alpha[i] * alpha[j], norm)
                     for j in range(dim)])
        for i in range(dim)
    ]


class ReflectionAction(NamedTuple):
    """Everything the calculus needs of one root alpha, compiled once.

    An immutable record, as a frozen dataclass would be, but cheaper to build:
    every command compiles each root of its system afresh.

    root holds alpha's entries through as_coeff, norm is <alpha, alpha>, and
    form is the linear form <alpha, x> that divide_exact_by_linear divides
    by, clearing x_pivot: pivot is the first index of the largest |entry|.

    When the reflection is a signed coordinate permutation, signed[i] is the
    pair (t, s) with (r_alpha x)_i = s * x_t, and a monomial maps to one
    signed monomial.  Otherwise images[i] is the linear polynomial
    (r_alpha x)_i, and substitution expands products of them.

    A signed action also keeps support, the indices of the root's nonzero
    entries, (k,) for a sign flip alpha = c * e_k or (j, k) with j < k for a
    transposition, and unit, 2/c or 1/c with c the entry at support[0], by
    which divided_difference is scaled.  The sign s of signed[support[0]]
    completes the root: alpha = c * (e_j - s * e_k).  General actions keep
    support () and unit None.
    """

    dim: int
    root: tuple[Coeff, ...]
    norm: Coeff
    pivot: int
    form: Poly
    signed: tuple[tuple[int, int], ...] | None
    images: tuple[Poly, ...] | None
    support: tuple[int, ...]
    unit: Coeff | None

    def reflect_vector(self, v: Sequence) -> tuple:
        """r_alpha v; exact for Fraction entries."""
        if self.signed is not None:
            return tuple([v[t] if s > 0 else -v[t] for t, s in self.signed])
        return tuple(img.evaluate(v) for img in self.images)


def compile_reflection(alpha: Sequence) -> ReflectionAction:
    """The reflection in alpha^perp, classified by the shape of alpha.

    It is a signed coordinate permutation exactly when alpha has one nonzero
    entry (a sign flip) or two of equal size (a signed transposition); those
    roots get the closed-form difference quotient of divided_difference.
    Any other root keeps the general linear images, and its quotient needs
    compose_reflection and divide_exact_by_linear.
    """
    root = tuple(alpha)
    if set(map(type, root)) != {int}:  # int entries are taken as they are
        root = tuple(map(as_coeff, root))
    dim = len(root)
    norm = sum(map(mul, root, root))
    if type(norm) is not int:
        norm = as_coeff(norm)
    if not norm:
        raise PolyError("cannot reflect in a zero root")
    sizes = list(map(abs, root))
    pivot = sizes.index(max(sizes))
    head = (dim, root, norm, pivot, linear_form(root))
    support = tuple(compress(range(dim), root))
    signed = [(i, 1) for i in range(dim)]
    if len(support) == 1:
        k = support[0]
        signed[k] = (k, -1)
    elif len(support) == 2 and sizes[support[0]] == sizes[support[1]]:
        j, k = support
        # alpha ~ e_j + eps e_k swaps x_j and x_k with the sign -eps
        s = -1 if (root[j] > 0) == (root[k] > 0) else 1
        signed[j], signed[k] = (k, s), (j, s)
    else:
        images = tuple(reflection_variable_images(root, norm))
        return ReflectionAction(*head, None, images, (), None)
    n, c = 2 if len(support) == 1 else 1, root[support[0]]
    unit = n // c if type(c) is int and n % c == 0 else as_coeff(Fraction(n, c))
    return ReflectionAction(*head, tuple(signed), None, support, unit)


def compose_reflection(p: Poly, action: ReflectionAction) -> Poly:
    """Substitute a compiled reflection into p; an involution.

    The root system keeps one ReflectionAction per positive root
    (RootSystem.reflections); compile_reflection builds one for any root.
    """
    if action.dim != p.dim:
        raise PolyError("root has wrong dimension")
    signed = action.signed
    if signed is not None:
        out: dict[Exponent, Coeff] = {}
        for e, c in p.terms.items():
            f = [0] * p.dim
            sign = 1
            for i, k in enumerate(e):
                if k:
                    target, s = signed[i]
                    f[target] += k
                    if s < 0 and k % 2:
                        sign = -sign
            out[tuple(f)] = sign * c  # a signed permutation maps monomials one to one
        return Poly(p.dim, out)

    images = action.images
    one = Poly.const(p.dim, 1)
    power_cache: list[dict[int, Poly]] = [dict() for _ in range(p.dim)]

    def power(i: int, k: int) -> Poly:
        if k not in power_cache[i]:
            power_cache[i][k] = images[i] ** k
        return power_cache[i][k]

    return linear_combination(
        p.dim,
        ((c, prod((power(i, k) for i, k in enumerate(e) if k), start=one))
         for e, c in p.terms.items()),
    )


def divided_difference(e: Exponent, action: ReflectionAction) -> dict:
    """(x^e - x^e composed with r_alpha) / <alpha, x> / action.unit, for a signed root.

    The Bernstein-Gelfand-Gelfand / Demazure divided difference, built term
    by term with no division, as a term dict of +-1 coefficients.  Write
    x^e = m * x_j^a * x_k^b with m the other coordinates.  A sign flip
    alpha = c e_k gives x^(e - e_k) for odd a and {} for even a.  A
    transposition alpha = c (e_j - e_k) gives sign(a - b) m (x_j x_k)^min(a, b)
    times h_(|a-b|-1)(x_j, x_k), the complete homogeneous polynomial, and {}
    for a = b; alpha = c (e_j + e_k) is the same with x_k replaced by -x_k.
    The terms come in descending powers of x_j, the order in which
    divide_exact_by_linear finds them.
    """
    if action.signed is None:
        raise PolyError("the closed-form quotient needs a signed-permutation root")
    if len(e) != action.dim:
        raise PolyError("exponent has wrong dimension")
    if len(action.support) == 1:
        k = action.support[0]
        return {e[:k] + (e[k] - 1,) + e[k + 1:]: 1} if e[k] % 2 else {}
    j, k = action.support
    a, b = e[j], e[k]
    sign = 1 if a > b else -1
    # alpha = c (e_j + e_k): x_k^t brings (-1)^t relative to c (e_j - e_k)
    flip = action.signed[j][1] < 0
    terms: dict[Exponent, Coeff] = {}
    f = list(e)
    for t in range(min(a, b), max(a, b)):
        f[j], f[k] = a + b - 1 - t, t
        terms[tuple(f)] = -sign if flip and (b + t) % 2 else sign
    return terms


def _divide_monic(
    terms: Mapping[Exponent, Coeff], divisor: Poly, pivot: int
) -> tuple[dict, dict]:
    """Quotient and remainder terms of a term dict divided by divisor in x_pivot.

    The divisor's highest power k of x_pivot must sit in one term
    c * x_pivot^k.  The terms are cleared level by level in pivot degree
    from the top down, each level's terms in the order they entered it; what
    is left below degree k is the remainder, empty exactly when the division
    is exact.
    """
    k = max(e[pivot] for e in divisor.terms)
    head = tuple(k if i == pivot else 0 for i in range(divisor.dim))
    lead = divisor.terms[head]
    rest = [(e, -c) for e, c in divisor.terms.items() if e != head]
    levels: dict[int, dict[Exponent, Coeff]] = {}
    for e, c in terms.items():
        levels.setdefault(e[pivot], {})[e] = c
    quot: dict[Exponent, Coeff] = {}
    while levels and (top := max(levels)) >= k:
        for e, c in levels.pop(top).items():
            qe = e[:pivot] + (top - k,) + e[pivot + 1:]
            if lead != 1:  # exact, never a float
                c = c // lead if type(c) is int and not c % lead else Fraction(c, lead)
            qc = quot[qe] = c
            for shift, w in rest:
                f = tuple(a + b for a, b in zip(qe, shift))
                level = levels.setdefault(f[pivot], {})
                level[f] = level.get(f, 0) + qc * w
                if not level[f]:
                    del level[f]
    return quot, {e: c for level in levels.values() for e, c in level.items()}


def divide_exact_by_linear(terms: Mapping[Exponent, Coeff], action: ReflectionAction) -> dict:
    """The terms of q with q * <alpha, x> == the polynomial of terms, for the compiled alpha.

    Takes and returns term dicts with no zero entry, as divided_difference
    returns them; a remainder raises ExactDivisionError.
    """
    if terms and len(next(iter(terms))) != action.dim:
        raise PolyError("root has wrong dimension")
    quot, rem = _divide_monic(terms, action.form, action.pivot)
    if rem:
        raise ExactDivisionError(
            f"{format_poly(Poly(action.dim, terms))} is not divisible by the linear form of "
            f"({', '.join(str(a) for a in action.root)}); remainder "
            f"{format_poly(Poly(action.dim, rem))}"
        )
    if set(map(type, quot.values())) <= {int}:
        return quot
    return {e: as_coeff(c) for e, c in quot.items()}  # Fraction arithmetic may leave n/1


def try_divide_norm_sq(p: Poly) -> Poly | None:
    """Quotient of p by x_1^2+...+x_d^2 (terms in descending lex order), or None."""
    quot, rem = _divide_monic(p.terms, norm_sq_poly(p.dim), 0)
    if rem:
        return None
    return Poly(p.dim, dict(sorted(quot.items(), reverse=True)))


def divide_exact_by_norm_sq(p: Poly) -> Poly:
    q = try_divide_norm_sq(p)
    if q is None:
        raise ExactDivisionError(
            f"{format_poly(p)} is not divisible by the squared norm"
        )
    return q


def homogeneous_components(p: Poly) -> list[tuple[int, Poly]]:
    """Split into homogeneous parts, listed by increasing degree."""
    buckets: dict[int, dict[Exponent, Coeff]] = {}
    for e, c in p.terms.items():
        buckets.setdefault(sum(e), {})[e] = c
    return [(d, Poly(p.dim, terms)) for d, terms in sorted(buckets.items())]


# -- text form -------------------------------------------------------------
#
# Polynomials here and radial profiles (radial.parse_profile) share one
# scanner and one shape:
#   sum    := [sign] term (('+' | '-') term)*
#   term   := factor ('*' factor)*
#   factor := integer ['/' integer] | 'x' index ['^' exponent]
# Variables are 1-based.  Whitespace may separate tokens but not split one
# (`x12`, `123`), and U+2212 reads as '-'.

# Largest total degree of a parsed polynomial term: far above the degrees the
# suites use.
MAX_DEGREE = 256


# \s and \d follow str.isspace and str.isdecimal, here and in _POLY_STEP.
_SPACE = re.compile(r"\s*")
_DIGITS = re.compile(r"\d*")


class _Scanner:
    """Cursor over grammar text, read character by character.

    Every error is a PolyParseError at the first character of the offending
    token, or at len(text) at the end of input.  read_sum reads the sum and
    product shape; the grammar's factor() reads each factor through peek,
    take, digits and rational, and raises every error of its own.
    """

    def __init__(self, text: str):
        self.text = text.replace("\u2212", "-")
        self.pos = 0

    def error(self, message: str, position: int | None = None) -> PolyParseError:
        return PolyParseError(message, self.pos if position is None else position)

    def peek(self) -> str:
        """Skip whitespace; the next character, or "" at the end of input."""
        pos = self.pos = _SPACE.match(self.text, self.pos).end()
        return self.text[pos : pos + 1]

    def take(self, token: str) -> bool:
        """Consume token if it comes next, after whitespace."""
        self.peek()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.take(token):
            raise self.error(f"expected {token!r}")

    def digits(self, what: str) -> int:
        """An unsigned integer that starts right at the cursor."""
        start = self.pos
        self.pos = _DIGITS.match(self.text, start).end()
        if self.pos == start:
            raise self.error(f"expected {what}")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # past the interpreter's int digit limit
            raise self.error("number too long", start) from None

    def rational(self, signed: bool = False) -> Coeff:
        """integer ['/' integer]: an int, or a Fraction after a '/'.

        If signed, a sign may touch the digits.
        """
        lead = self.peek()
        if signed and lead in ("+", "-"):
            self.pos += 1
        num = self.digits("a number")
        if signed and lead == "-":
            num = -num
        if self.peek() != "/":
            return num
        slash = self.pos
        self.pos += 1
        self.peek()
        den = self.digits("a denominator")
        if not den:
            raise self.error("zero denominator", slash)
        return Fraction(num, den)

    def read_sum(self, factor: Callable[[], tuple]) -> list[tuple[int, int, list[tuple]]]:
        """The whole text as a sum of products of factors, each read by factor().

        Returns (sign, position, factors) per term, where position is the
        start of the term's first factor.
        """
        if not self.peek():
            raise self.error("empty input")
        terms = []
        while op := self.peek():
            if op in ("+", "-"):
                self.pos += 1
            elif terms:  # only the first term may go unsigned
                raise self.error(f"expected '+' or '-', got {op!r}")
            self.peek()
            start, factors = self.pos, []
            while not factors or self.take("*"):
                if not self.peek():
                    raise self.error("unexpected end of input")
                factors.append(factor())
            terms.append((-1 if op == "-" else 1, start, factors))
        return terms


def format_poly(p: Poly) -> str:
    """Canonical text: graded-lexicographic descending term order."""
    terms = p.terms
    if not terms:
        return "0"
    names = [f"x{i}" for i in range(1, p.dim + 1)]
    pieces = []
    # sorted by (degree, exponent) pairs, with no key call per term
    for _, e in sorted(zip(map(sum, terms), terms), reverse=True):
        factors = ""  # "*x{i}^{k}" per k > 0, the power left out at k = 1
        for name, k in zip(names, e):
            if k == 1:
                factors += f"*{name}"
            elif k:
                factors += f"*{name}^{k}"
        mag = str(terms[e])  # sign and magnitude read off the text: abs() builds a Fraction
        sign, mag = ("-", mag[1:]) if mag[0] == "-" else ("+", mag)
        if not factors:
            pieces.append(f"{sign} {mag}")
        elif mag == "1":
            pieces.append(f"{sign} {factors[1:]}")
        else:
            pieces.append(f"{sign} {mag}{factors}")
    text = " ".join(pieces)
    return text[2:] if text[0] == "+" else "-" + text[2:]


# One polynomial factor in its usual shape, with the operator before it
# (group 1) and the whitespace around both.  The factor starts at group 2,
# which is empty: integer ['/' integer] (groups 3-4) or x_index ['^' power]
# (groups 5-6).  A number has at most 640 digits (the least int digit limit
# Python allows), so int() never raises, and a zero denominator does not
# match.
_INT = r"\d{1,640}"
_POLY_STEP = re.compile(
    rf"\s*([-+*]?)\s*()(?:({_INT})(?:\s*/\s*((?=0*[1-9]){_INT}))?"
    rf"|x({_INT})(?:\s*\^\s*({_INT}))?)\s*"
)


def _usual_terms(text: str, dim: int) -> list[tuple[int, int, list[tuple]]] | None:
    """The terms of polynomial text read with one _POLY_STEP match per factor, or None.

    The terms are those _Scanner.read_sum gives, each factor as (numerator,
    denominator, 0-based variable, power).  Most command-line text comes in
    these shapes, and this read needs no call per character.  Any other
    text, and a variable out of range, gives None (a factor matched short
    leaves text that no step matches); the scanner then reads it again and
    reports every error.
    """
    pos, terms = 0, []
    while pos < len(text):
        match = _POLY_STEP.match(text, pos)
        if match is None:
            return None
        op, _, num, den, index, power = match.groups()
        if index is None:
            read = int(num), int(den) if den else 1, 0, 0
        elif 1 <= (i := int(index)) <= dim:
            read = 1, 1, i - 1, int(power) if power else 1
        else:
            return None
        if op == "*" and terms:
            factors.append(read)
        elif op != "*" and (op or not terms):  # only the first term may go unsigned
            factors = [read]
            terms.append((-1 if op == "-" else 1, match.start(2), factors))
        else:
            return None
        pos = match.end()
    return terms


def parse_poly(text: str, dim: int) -> Poly:
    """Parse polynomial text into a canonical Poly with the given dimension.

    Raises PolyParseError on bad syntax, on a variable outside 1..dim and
    on a term of total degree above MAX_DEGREE.
    """
    scanner = _Scanner(text)

    def factor() -> tuple[int, int, int, int]:
        """(numerator, denominator, 0-based variable, power) of one factor."""
        ch, at = scanner.peek(), scanner.pos
        if ch.isdecimal():
            c = scanner.rational()
            return c.numerator, c.denominator, 0, 0
        if not scanner.take("x"):
            raise scanner.error(f"unexpected character {ch!r}")
        index = scanner.digits("variable index")
        if not 1 <= index <= dim:
            raise scanner.error(f"variable x{index} out of range 1..{dim}", at)
        power = 1
        if scanner.take("^"):
            scanner.peek()
            power = scanner.digits("exponent")
        return 1, 1, index - 1, power

    # each term's coefficient is built in ints, and made a Fraction once
    terms: dict[Exponent, Coeff] = {}
    for sign, start, factors in _usual_terms(scanner.text, dim) or scanner.read_sum(factor):
        num, den, exps = sign, 1, [0] * dim
        for n, d, i, k in factors:
            num *= n
            den *= d
            exps[i] += k
        if sum(exps) > MAX_DEGREE:
            raise scanner.error(f"term degree {sum(exps)} exceeds {MAX_DEGREE}", start)
        e = tuple(exps)
        terms[e] = terms.get(e, 0) + (num if den == 1 else Fraction(num, den))
    return Poly(dim, terms)
