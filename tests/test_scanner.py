"""parse_poly and parse_profile against a copy of the character-level scanner.

parse_poly reads polynomial text in the usual token shapes with a regular
expression, one match per factor, and everything else character by
character; parse_profile reads every text character by character.  For
every text, valid or not, both grammars must give what the reference below
gives: the same value, or the same error message at the same position.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dunklcalc.poly import MAX_DEGREE, Poly, PolyParseError, parse_poly
from dunklcalc.radial import _profile, parse_profile


class ReferenceScanner:
    """The scanner as it was before any regular expression read the text."""

    def __init__(self, text):
        self.text = text.replace("\u2212", "-")
        self.pos = 0

    def error(self, message, position=None):
        return PolyParseError(message, self.pos if position is None else position)

    def peek(self):
        text, pos = self.text, self.pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        self.pos = pos
        return text[pos : pos + 1]

    def take(self, token):
        self.peek()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token):
        if not self.take(token):
            raise self.error(f"expected {token!r}")

    def digits(self, what):
        text, start = self.text, self.pos
        while self.pos < len(text) and text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise self.error(f"expected {what}")
        try:
            return int(text[start : self.pos])
        except ValueError:
            raise self.error("number too long", start) from None

    def rational(self, signed=False):
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

    def read_sum(self, factor):
        if not self.peek():
            raise self.error("empty input")
        terms = []
        while op := self.peek():
            if op in ("+", "-"):
                self.pos += 1
            elif terms:
                raise self.error(f"expected '+' or '-', got {op!r}")
            self.peek()
            start, factors = self.pos, []
            while not factors or self.take("*"):
                if not self.peek():
                    raise self.error("unexpected end of input")
                factors.append(factor())
            terms.append((-1 if op == "-" else 1, start, factors))
        return terms


def reference_poly(text, dim):
    scanner = ReferenceScanner(text)

    def factor():
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

    terms = {}
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


def reference_profile(text):
    scanner = ReferenceScanner(text)

    def factor():
        if scanner.take("exp"):
            scanner.expect("(")
            scanner.peek()
            mark = scanner.pos
            scanner.take("+") or scanner.take("-")
            if scanner.take("r^2"):
                rate = -1 if scanner.text[mark] == "-" else 1
            else:
                scanner.pos = mark
                rate = scanner.rational(signed=True)
                scanner.expect("*r^2")
            scanner.expect(")")
            return 1, 0, rate
        if scanner.take("r"):
            exponent = 1
            if scanner.take("^"):
                if scanner.take("("):
                    exponent = scanner.rational(signed=True)
                    scanner.expect(")")
                else:
                    exponent = scanner.rational()
            return 1, exponent, 0
        ch = scanner.peek()
        if ch.isdecimal():
            return scanner.rational(), 0, 0
        raise scanner.error(f"unexpected character {ch!r}")

    pieces = []
    for sign, _, factors in scanner.read_sum(factor):
        coeff, exponent, rate = sign, 0, 0
        for c, e, a in factors:
            coeff *= c
            exponent += e
            rate += a
        pieces.append(((exponent, rate), coeff))
    return _profile(pieces)


def outcome(parse, *args):
    """What parse gives: its value in exact form, or its error and position."""
    try:
        value = parse(*args)
    except ValueError as exc:  # PolyParseError, or a profile of mixed families
        return type(exc).__name__, str(exc), getattr(exc, "position", None)
    if isinstance(value, Poly):  # term order and coefficient types too
        return "poly", value.dim, [(e, c, type(c)) for e, c in value.terms.items()]
    return "profile", repr(value)


SPACES = [" ", "\t", "\n", "\u00a0", "\u2003"]  # str.isspace, ASCII or not
ARABIC_INDIC = ["\u0663", "\u0661\u0662"]  # str.isdecimal, not ASCII
POLY_TOKENS = SPACES + ARABIC_INDIC + [
    "x", "x1", "x2", "x3", "x0", "x12", "0", "1", "3", "12", "007",
    "3/2", "3 / 2", "3 /", "/", "/0", "/00", "^", "^2", " ^ 3", "x1^", "x 1", "*", "**",
    "+", "-", "\u2212", "&", ".", "9" * 700, "1" * 5000,
]
PROFILE_TOKENS = POLY_TOKENS + [
    "r", "r^", "r^2", "r^7/2", "r^(", "(-3)", "(+3)", "(-3/2)", "(- 3)", "( -3 )", ")",
    "exp(", "exp(r^2)", "exp(-r^2)", "exp(- r^2)", "exp(-1/2*r^2)", "exp(2 *r^2)",
    "*r^2", "exp", "e", "(",
]

# the texts every run tries, valid and invalid, for both grammars
NAMED = [
    "3 / 2", "3 /", "x1^", "x 1", "x0", "x1\t-\tx2", "\u22122*x1 + x2", "\u0663*x\u0662^2",
    "x1\u00a0+\u2003x2", "1" * 5000, "1" * 640 + "*x1", "1" * 641, "2/" + "1" * 700,
    "3/0", "3/00*x1", "3/2/5", "x1^2^3", "x1 ^ 2", "- -x1", "*x1", "x1 x2", "", "  ",
    f"x1^{MAX_DEGREE}*x2", "r^(-3)*exp(-1/2*r^2)", "r^4 + 2*r^2", "r^(7/2)", "exp(-1*r^2)",
    "r^2^2", "exp(-r^2)", "exp(+r^2)", "exp(0*r^2)", "exp(-0/5*r^2)", "r^(-3/0)", "r^ 2",
    "r ^2", "r^2 + r^3", "exp(r^2) + 1", "r^2", "r^3*exp(-1*r^2)",
]


def assert_same(text):
    for dim in (1, 2, 3):
        assert outcome(parse_poly, text, dim) == outcome(reference_poly, text, dim), text
    assert outcome(parse_profile, text) == outcome(reference_profile, text), text


@pytest.mark.parametrize("text", NAMED, ids=lambda t: t[:24])
def test_named_texts_read_as_the_reference(text):
    assert_same(text)


@given(st.lists(st.sampled_from(PROFILE_TOKENS), max_size=10).map("".join))
@settings(max_examples=400, deadline=None)
@example("x1 * 3/4*x2^2 - 5")
def test_token_soup_reads_as_the_reference(text):
    assert_same(text)


def _spaced(draw, pieces):
    """pieces joined by runs of whitespace, often none."""
    gaps = st.lists(st.sampled_from(SPACES), max_size=2).map("".join)
    return "".join(piece + draw(st.one_of(st.just(""), gaps)) for piece in pieces)


@st.composite
def poly_texts(draw):
    """Well-formed polynomial text, with one character dropped, swapped or added at times."""
    pieces = []
    for n in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from(["", "+", "-", "\u2212"] if n == 0 else ["+", "-", "\u2212"]))
        if sign:
            pieces.append(sign)
        for m in range(draw(st.integers(1, 3))):
            if m:
                pieces.append("*")
            if draw(st.booleans()):
                pieces.append(str(draw(st.integers(0, 40))))
                if draw(st.booleans()):
                    pieces += ["/", str(draw(st.integers(0, 9)))]
            else:
                pieces.append(f"x{draw(st.integers(0, 4))}")
                if draw(st.booleans()):
                    pieces += ["^", str(draw(st.integers(0, 300)))]
    text = _spaced(draw, pieces)
    if text and draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(text) - 1))
        edit = draw(st.sampled_from(["", "^", "/", "*", "x", " ", "0"]))
        text = text[:at] + edit + text[at + 1:]
    return text


@st.composite
def profile_texts(draw):
    """Well-formed profile text, with one character dropped, swapped or added at times."""
    factors = st.sampled_from([
        "r", "r^2", "r^4", "r^(-3)", "r^(7/2)", "r^3/2", "exp(-1/2*r^2)", "exp(-r^2)",
        "exp(r^2)", "exp(2*r^2)", "3", "5/4",
    ])
    pieces = []
    for n in range(draw(st.integers(1, 3))):
        sign = draw(st.sampled_from(["", "-"] if n == 0 else ["+", "-"]))
        if sign:
            pieces.append(sign)
        for m in range(draw(st.integers(1, 3))):
            if m:
                pieces.append("*")
            pieces.append(draw(factors))
    text = _spaced(draw, pieces)
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(text) - 1))
        edit = draw(st.sampled_from(["", "(", ")", "^", "*", " ", "-"]))
        text = text[:at] + edit + text[at + 1:]
    return text


@given(poly_texts())
@settings(max_examples=300, deadline=None)
def test_polynomial_texts_read_as_the_reference(text):
    assert_same(text)


@given(profile_texts())
@settings(max_examples=300, deadline=None)
def test_profile_texts_read_as_the_reference(text):
    assert_same(text)
