"""Small exact-arithmetic helpers shared across the package."""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Callable

_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)$")
# 'p' or 'p/q', the usual shape of a rational, read without Fraction's own parser
_PLAIN = re.compile(r"(-?\d+)(?:/(\d+))?")

# A table of rows that is full when a new key arrives is cleared first.
ROWS_MAX = 1024


def grown_row(table: dict, key, length: int, entry: Callable[[list, int], object]) -> list:
    """The row table[key], grown in place to at least length entries and returned whole.

    entry(row, n) computes entry n from the n entries before it; no entry is
    ever recomputed, so a row of any length is a prefix of every longer one.
    """
    row = table.get(key)
    if row is None:
        if len(table) >= ROWS_MAX:
            table.clear()
        row = table[key] = []
    for n in range(len(row), length):
        row.append(entry(row, n))
    return row


_RISING_ROWS: dict[Fraction, list[Fraction]] = {}  # (a)_0, (a)_1, ... per a


def pochhammer(a: Fraction | int, n: int) -> Fraction:
    """Rising factorial a(a+1)...(a+n-1), read off one exact row per a; (a)_0 = 1."""
    if n < 0:
        raise ValueError("pochhammer needs a non-negative count")
    a = Fraction(a)
    return grown_row(
        _RISING_ROWS, a, n + 1, lambda row, k: row[-1] * (a + k - 1) if k else Fraction(1)
    )[n]


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
        plain = _PLAIN.fullmatch(cleaned)
        if plain:
            return Fraction(int(plain[1]), int(plain[2] or 1))
        exponent = _EXPONENT.search(cleaned)
        if exponent and int(exponent[1]) >= _digit_limit():
            raise ValueError("decimal exponent too large")
        return Fraction(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc
