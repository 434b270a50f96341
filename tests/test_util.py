import math
from fractions import Fraction as Q

import pytest

import dunklcalc.util as util
from dunklcalc.util import grown_row, pochhammer


def test_grown_row_grows_in_place_and_never_recomputes():
    table, computed = {}, []

    def entry(row, n):
        computed.append(n)
        return n * n

    row = grown_row(table, "k", 3, entry)
    assert row == [0, 1, 4] and table["k"] is row
    assert grown_row(table, "k", 2, entry) is row and len(row) == 3
    assert grown_row(table, "k", 5, entry) == [0, 1, 4, 9, 16]
    assert computed == [0, 1, 2, 3, 4]


def test_pochhammer_reads_one_row_per_argument(monkeypatch):
    monkeypatch.setattr(util, "_RISING_ROWS", {})
    for a in (Q(-3), Q(-5, 2), Q(0), Q(1, 3), Q(7, 2)):
        for n in (5, 2, 9):
            assert pochhammer(a, n) == math.prod((a + i for i in range(n)), start=Q(1)), (a, n)
        assert len(util._RISING_ROWS[a]) == 10
    # (a)_n = 0 past n = -a for a non-positive integer a
    assert util._RISING_ROWS[Q(-3)][:4] == [1, -3, 6, -6]
    assert util._RISING_ROWS[Q(-3)][4:] == [0] * 6
    assert util._RISING_ROWS[Q(0)][1:] == [0] * 9
    with pytest.raises(ValueError):
        pochhammer(Q(1, 7), -1)
    assert Q(1, 7) not in util._RISING_ROWS


def test_a_full_table_of_rows_is_cleared(monkeypatch):
    monkeypatch.setattr(util, "ROWS_MAX", 2)
    monkeypatch.setattr(util, "_RISING_ROWS", {})
    assert (pochhammer(1, 3), pochhammer(2, 3)) == (6, 24)
    assert pochhammer(1, 4) == 24  # an existing key grows without a clear
    assert sorted(util._RISING_ROWS) == [1, 2]
    assert pochhammer(3, 2) == 12
    assert sorted(util._RISING_ROWS) == [3]
