"""Sparse multivariate polynomials over the rationals.

Terms live in a dict keyed by exponent tuples with nonzero coefficients,
each an int when integral, else a Fraction (the one rule is as_coeff), so
equality is exact structural equality of canonical forms.
Besides ring arithmetic the module provides the primitives the Dunkl
calculus leans on: substitution of a reflection (compiled once per root into
a ReflectionAction), the closed-form difference quotient of a monomial for a
root whose reflection is a signed coordinate permutation, and exact division
by the linear form <a, x> of a root (and by the squared norm, which the
harmonic decomposition needs).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Callable, Iterable, Mapping, Sequence

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
    def monomial(cls, dim: int, exponents: Sequence[int], coeff=1) -> "Poly":
        return cls(dim, {tuple(exponents): coeff})

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


def linear_combination(dim: int, pairs: Iterable[tuple[Coeff, Poly]]) -> Poly:
    """The sum of c * q over the (c, q) pairs, collected in one dict.

    Every operator of the calculus is linear and extended from monomials,
    so this is how all of them assemble their output.  Each c goes through
    as_coeff first, so an integral factor multiplies as an int.  Terms keep
    the order in which their monomials first appear; zero coefficients drop
    at the end.
    """
    out: dict[Exponent, Coeff] = {}
    get = out.get
    for c, q in pairs:
        if q.dim != dim:
            raise PolyError(f"dimension mismatch: {dim} vs {q.dim}")
        if type(c) is not int:
            c = as_coeff(c)
        if not c:
            continue
        if c == 1:  # no multiply: Fraction * int allocates
            for e, v in q.terms.items():
                old = get(e)
                out[e] = v if old is None else old + v
        else:
            for e, v in q.terms.items():
                old = get(e)
                out[e] = c * v if old is None else old + c * v
    return Poly(dim, out)


def linear_form(coeffs: Sequence) -> Poly:
    """The polynomial <c, x> for a coefficient vector c."""
    dim = len(coeffs)
    terms: dict[Exponent, Coeff] = {}
    for i, c in enumerate(coeffs):
        c = as_coeff(c)
        if c:
            terms[tuple(1 if j == i else 0 for j in range(dim))] = c
    return Poly(dim, terms)


def norm_sq_poly(dim: int) -> Poly:
    """x_1^2 + ... + x_d^2."""
    return Poly(
        dim,
        {tuple(2 if j == i else 0 for j in range(dim)): 1 for i in range(dim)},
    )


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


def reflection_variable_images(alpha: Sequence[Fraction], dim: int) -> list[Poly]:
    """Images of the coordinates under the reflection in alpha^perp.

    Entry i is the linear polynomial (r_alpha x)_i.
    """
    alpha = [Fraction(a) for a in alpha]
    norm = sum(a * a for a in alpha)
    if norm == 0:
        raise PolyError("cannot reflect in a zero root")
    images = []
    for i in range(dim):
        coeffs = [Fraction(0)] * dim
        coeffs[i] = Fraction(1)
        factor = 2 * alpha[i] / norm
        for j in range(dim):
            coeffs[j] -= factor * alpha[j]
        images.append(linear_form(coeffs))
    return images


@dataclass(frozen=True)
class ReflectionAction:
    """The substitution x -> r_alpha x of one root, compiled once.

    When the reflection is a signed coordinate permutation, signed[i] is the
    pair (t, s) with (r_alpha x)_i = s * x_t, and a monomial maps to one
    signed monomial.  Otherwise images[i] is the linear polynomial
    (r_alpha x)_i, and substitution expands products of them.

    A signed action also keeps what divided_difference needs: support holds
    the indices of the root's nonzero entries, (k,) for a sign flip
    alpha = scale * e_k or (j, k) with j < k for a transposition, and scale
    is the root's entry at support[0].  The sign s of signed[support[0]]
    completes the root: alpha = scale * (e_j - s * e_k).  General actions
    keep support () and scale None.
    """

    dim: int
    signed: tuple[tuple[int, int], ...] | None
    images: tuple[Poly, ...] | None
    support: tuple[int, ...]
    scale: Fraction | None

    def reflect_vector(self, v: Sequence) -> tuple:
        """r_alpha v; exact for Fraction entries."""
        if self.signed is not None:
            return tuple(v[t] if s > 0 else -v[t] for t, s in self.signed)
        return tuple(img.evaluate(v) for img in self.images)


def compile_reflection(alpha: Sequence) -> ReflectionAction:
    """The reflection in alpha^perp, classified by the shape of alpha.

    It is a signed coordinate permutation exactly when alpha has one nonzero
    entry (a sign flip) or two of equal size (a signed transposition); those
    roots get the closed-form difference quotient of divided_difference.
    Any other root keeps the general linear images, and its quotient needs
    compose_reflection and divide_exact_by_linear.
    """
    alpha = [Fraction(a) for a in alpha]
    dim = len(alpha)
    support = tuple(i for i, a in enumerate(alpha) if a)
    signed = [(i, 1) for i in range(dim)]
    if len(support) == 1:
        k = support[0]
        signed[k] = (k, -1)
    elif len(support) == 2 and abs(alpha[support[0]]) == abs(alpha[support[1]]):
        j, k = support
        # alpha ~ e_j + eps e_k swaps x_j and x_k with the sign -eps
        s = -1 if (alpha[j] > 0) == (alpha[k] > 0) else 1
        signed[j], signed[k] = (k, s), (j, s)
    else:
        images = tuple(reflection_variable_images(alpha, dim))
        return ReflectionAction(dim, None, images, (), None)
    return ReflectionAction(dim, tuple(signed), None, support, alpha[support[0]])


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


def divided_difference(e: Exponent, action: ReflectionAction) -> Poly:
    """(x^e - x^e composed with r_alpha) / <alpha, x> for a signed action.

    The Bernstein-Gelfand-Gelfand / Demazure divided difference, built term
    by term with no division.  Write x^e = m * x_j^a * x_k^b with m the
    other coordinates and c = action.scale.  A sign flip alpha = c e_k
    gives (2/c) x^(e - e_k) for odd a and 0 for even a.  A transposition
    alpha = c (e_j - e_k) gives sign(a - b) (m/c) (x_j x_k)^min(a, b) times
    h_(|a-b|-1)(x_j, x_k), the complete homogeneous polynomial with every
    coefficient 1, and 0 for a = b; alpha = c (e_j + e_k) is the same with
    x_k replaced by -x_k.  The terms come in descending powers of x_j, the
    order in which divide_exact_by_linear finds them.
    """
    if action.signed is None:
        raise PolyError("the closed-form quotient needs a signed-permutation root")
    dim = action.dim
    if len(e) != dim:
        raise PolyError("exponent has wrong dimension")
    if len(action.support) == 1:
        k = action.support[0]
        if e[k] % 2 == 0:
            return Poly(dim)
        f = list(e)
        f[k] -= 1
        return Poly(dim, {tuple(f): 2 / action.scale})
    j, k = action.support
    a, b = e[j], e[k]
    if a == b:
        return Poly(dim)
    low = min(a, b)
    unit = as_coeff(1 / action.scale if a > b else -1 / action.scale)
    # alpha = c (e_j + e_k): x_k^t brings (-1)^t relative to c (e_j - e_k)
    flip = action.signed[j][1] < 0
    terms: dict[Exponent, Coeff] = {}
    f = list(e)
    for t in range(low, max(a, b)):
        f[j], f[k] = a + b - 1 - t, t
        terms[tuple(f)] = -unit if flip and (b + t) % 2 else unit
    return Poly(dim, terms)


def _divide_monic(p: Poly, divisor: Poly, pivot: int) -> tuple[dict, dict]:
    """Quotient and remainder terms of p divided by divisor in x_pivot.

    The divisor's highest power k of x_pivot must sit in one term
    c * x_pivot^k.  p is cleared level by level in pivot degree from the top
    down, each level's terms in the order they entered it; what is left
    below degree k is the remainder, empty exactly when the division is exact.
    """
    k = max(e[pivot] for e in divisor.terms)
    lead = tuple(k if i == pivot else 0 for i in range(p.dim))
    inv = as_coeff(Fraction(1, divisor.terms[lead]))  # 1 / lead, never a float
    rest = [(e, -c) for e, c in divisor.terms.items() if e != lead]
    levels: dict[int, dict[Exponent, Coeff]] = {}
    for e, c in p.terms.items():
        levels.setdefault(e[pivot], {})[e] = c
    quot: dict[Exponent, Coeff] = {}
    while levels and (top := max(levels)) >= k:
        for e, c in levels.pop(top).items():
            qe = e[:pivot] + (top - k,) + e[pivot + 1:]
            qc = quot[qe] = c * inv
            for shift, w in rest:
                f = tuple(a + b for a, b in zip(qe, shift))
                level = levels.setdefault(f[pivot], {})
                level[f] = level.get(f, 0) + qc * w
                if not level[f]:
                    del level[f]
    return quot, {e: c for level in levels.values() for e, c in level.items()}


def divide_exact_by_linear(p: Poly, alpha: Sequence) -> Poly:
    """Quotient q with q * <alpha, x> == p, else ExactDivisionError."""
    alpha = [as_coeff(a) for a in alpha]
    if len(alpha) != p.dim:
        raise PolyError("root has wrong dimension")
    if all(a == 0 for a in alpha):
        raise PolyError("cannot divide by a zero form")
    pivot = max(range(p.dim), key=lambda i: abs(alpha[i]))
    quot, rem = _divide_monic(p, linear_form(alpha), pivot)
    if rem:
        raise ExactDivisionError(
            f"{format_poly(p)} is not divisible by the linear form of "
            f"({', '.join(str(a) for a in alpha)}); remainder "
            f"{format_poly(Poly(p.dim, rem))}"
        )
    return Poly(p.dim, quot)


def try_divide_norm_sq(p: Poly) -> Poly | None:
    """Quotient of p by x_1^2+...+x_d^2 (terms in descending lex order), or None."""
    quot, rem = _divide_monic(p, norm_sq_poly(p.dim), 0)
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


class _Scanner:
    """Cursor over grammar text.

    Every error is a PolyParseError at the first character of the offending
    token, or at len(text) at the end of input.
    """

    def __init__(self, text: str):
        self.text = text.replace("\u2212", "-")
        self.pos = 0

    def error(self, message: str, position: int | None = None) -> PolyParseError:
        return PolyParseError(message, self.pos if position is None else position)

    def peek(self) -> str:
        """Skip whitespace; the next character, or "" at the end of input."""
        text, pos = self.text, self.pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        self.pos = pos
        return text[pos : pos + 1]

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
        text, start = self.text, self.pos
        while self.pos < len(text) and text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise self.error(f"expected {what}")
        try:
            return int(text[start : self.pos])
        except ValueError:  # past the interpreter's int digit limit
            raise self.error("number too long", start) from None

    def rational(self, signed: bool = False) -> Fraction:
        """integer ['/' integer]; if signed, a sign may touch the digits."""
        lead = self.peek()
        if signed and lead in ("+", "-"):
            self.pos += 1
        num = self.digits("a number")
        if signed and lead == "-":
            num = -num
        if self.peek() != "/":
            return Fraction(num)
        slash = self.pos
        self.pos += 1
        self.peek()
        den = self.digits("a denominator")
        if not den:
            raise self.error("zero denominator", slash)
        return Fraction(num, den)

    def read_sum(self, factor: Callable[[], tuple]) -> list[tuple[int, int, list[tuple]]]:
        """The whole text as a sum of products of factor() results.

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


def _grlex_sort_key(e: Exponent):
    return (sum(e), e)


def format_poly(p: Poly) -> str:
    """Canonical text: graded-lexicographic descending term order."""
    if not p.terms:
        return "0"
    pieces = []
    for e in sorted(p.terms, key=_grlex_sort_key, reverse=True):
        c = p.terms[e]
        var_part = "*".join(
            f"x{i + 1}" if k == 1 else f"x{i + 1}^{k}"
            for i, k in enumerate(e)
            if k
        )
        mag = abs(c)
        if not var_part:
            body = str(mag)
        elif mag == 1:
            body = var_part
        else:
            body = f"{mag}*{var_part}"
        pieces.append(("-" if c < 0 else "+", body))
    sign, first = pieces[0]
    text = ("-" if sign == "-" else "") + first
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def parse_poly(text: str, dim: int) -> Poly:
    """Parse polynomial text into a canonical Poly with the given dimension.

    Raises PolyParseError on bad syntax, on a variable outside 1..dim and
    on a term of total degree above MAX_DEGREE.
    """
    scanner = _Scanner(text)

    def factor() -> tuple[Coeff, int, int]:
        """(coefficient, 0-based variable, power) of one factor."""
        ch, at = scanner.peek(), scanner.pos
        if ch.isdecimal():
            return scanner.rational(), 0, 0
        if not scanner.take("x"):
            raise scanner.error(f"unexpected character {ch!r}")
        index = scanner.digits("variable index")
        if not 1 <= index <= dim:
            raise scanner.error(f"variable x{index} out of range 1..{dim}", at)
        power = 1
        if scanner.take("^"):
            scanner.peek()
            power = scanner.digits("exponent")
        return 1, index - 1, power

    terms: dict[Exponent, Coeff] = {}
    for sign, start, factors in scanner.read_sum(factor):
        coeff, exps = sign, [0] * dim
        for c, i, k in factors:
            coeff *= c
            exps[i] += k
        if sum(exps) > MAX_DEGREE:
            raise scanner.error(f"term degree {sum(exps)} exceeds {MAX_DEGREE}", start)
        e = tuple(exps)
        terms[e] = terms.get(e, 0) + coeff
    return Poly(dim, terms)
