"""Small exact-arithmetic helpers shared across the package."""

from __future__ import annotations

import re
import sys
from fractions import Fraction

_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)$")


def pochhammer(a: Fraction | int, n: int) -> Fraction:
    """Rising factorial a(a+1)...(a+n-1); the empty product (n=0) is 1."""
    if n < 0:
        raise ValueError("pochhammer needs a non-negative count")
    out = Fraction(1)
    a = Fraction(a)
    for i in range(n):
        out *= a + i
    return out


def _digit_limit() -> int:
    """The interpreter's int-string digit limit, or its default when that is off."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return (get() if get else 0) or 4300


def parse_rational(text: str) -> Fraction:
    """Parse 'p', 'p/q' or a decimal into an exact Fraction.

    Accepts the unicode minus sign so values copied from formatted output
    round-trip.  A decimal exponent e needs 10^|e|, of |e| + 1 digits, so
    one at or above the interpreter's digit limit is rejected before that
    power is built.
    """
    cleaned = text.strip().replace("−", "-")
    try:
        exponent = _EXPONENT.search(cleaned)
        if exponent and int(exponent[1]) >= _digit_limit():
            raise ValueError("decimal exponent too large")
        return Fraction(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc
