"""Tests for the coefficient triangle: recurrence, closed form, invariants."""

import math
import tracemalloc
from collections import deque
from decimal import Decimal, Inexact, Rounded
from fractions import Fraction

import pytest

from feident import stirling
from feident.frobenius import weights
from feident.poly import Polynomial
from feident.prefix import _NumberTable
from feident.stirling import coeff_closed_form, decimal_rows, triangle_recurrence

KNOWN_ROWS = {
    1: (1,),
    2: (1, 1),
    3: (2, 3, 1),
    4: (6, 11, 6, 1),
    5: (24, 50, 35, 10, 1),
}


def last_row(n):
    """Row n: the last row of the stream of rows 1..n."""
    (row,) = deque(triangle_recurrence(n), maxlen=1)
    return row


def rows_by_loop(n_max):
    """Rows 1..n_max built whole by the loop the stream replaced."""
    rows = [(1,)]
    for n in range(1, n_max):
        prev = rows[-1]
        rows.append(tuple(n * above + left for above, left in zip(prev + (0,), (0,) + prev)))
    return rows


@pytest.mark.parametrize("n,row", sorted(KNOWN_ROWS.items()))
def test_recurrence_known_rows(n, row):
    assert last_row(n) == row
    assert list(triangle_recurrence(5))[n - 1] == row


def test_row_accessor_bounds():
    """The stream holds rows 1..n_max and no other: row N has N entries."""
    rows = triangle_recurrence(3)
    assert [len(row) for row in rows] == [1, 2, 3]
    assert next(rows, None) is None


def test_n_max_validation():
    with pytest.raises(ValueError):
        triangle_recurrence(0)


@pytest.mark.parametrize("bad,error", [(0, ValueError), (-1, ValueError), (True, TypeError),
                                       (2.0, TypeError)], ids=["0", "-1", "True", "2.0"])
def test_n_max_is_checked_on_the_call(bad, error):
    """A bad n_max raises when the stream is asked for, before any row is
    read, not on the first ``next``."""
    with pytest.raises(error, match="n_max"):
        triangle_recurrence(bad)


def test_stream_equals_the_whole_triangle():
    want = rows_by_loop(40)
    for n in range(1, 41):
        assert list(triangle_recurrence(n)) == want[:n], n


def test_weights_keep_one_row():
    """The triangle formula's weights hold the last row only: on a fresh
    table, reading the order-300 weights peaks under 1 MB (the whole
    triangle, kept, peaked at about 6 MB)."""
    table = _NumberTable(Fraction(1, 3))
    tracemalloc.start()
    try:
        weights(table, 300, "corrected")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_boundary_values():
    for n, row in enumerate(triangle_recurrence(12), 1):
        assert row[0] == math.factorial(n - 1)
        assert row[-1] == 1


def test_row_sums_are_factorials():
    for n in range(1, 13):
        assert sum(last_row(n)) == math.factorial(n)


def test_recurrence_relation_holds():
    for n in range(1, 12):
        prev, row = last_row(n), last_row(n + 1)
        for k in range(n + 1):
            above = prev[k] if k < n else 0
            left = prev[k - 1] if k >= 1 else 0
            assert row[k] == n * above + left


def test_decimal_rows_are_the_int_rows():
    """The same rows, each value an exact ``Decimal`` integer."""
    rows = list(decimal_rows(60))
    assert rows == rows_by_loop(60)
    assert all(type(a) is Decimal and a.as_tuple().exponent == 0 for row in rows for a in row)


def test_decimal_rows_raise_rather_than_round(monkeypatch):
    """Under a planted precision of 10 digits, every row whose values fit
    is exact, and the first row that does not fit raises ``Inexact`` or
    ``Rounded``: no value is ever rounded."""
    monkeypatch.setattr(stirling, "MAX_PREC", 10)
    fits = [row for row in rows_by_loop(30) if max(row) < 10**10]
    assert 0 < len(fits) < 30
    rows = decimal_rows(30)
    for want in fits:
        assert next(rows) == want
    with pytest.raises((Inexact, Rounded)):
        next(rows)


class TestClosedForm:
    def test_two_part_compositions(self):
        # 3!/2! * (1/(1*2) + 1/(2*1)) = 3
        assert coeff_closed_form(1, 3) == 3

    def test_single_composition(self):
        # 4!/1! * (1/4) = 6
        assert coeff_closed_form(0, 4) == 6

    def test_top_diagonal(self):
        assert coeff_closed_form(3, 4) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            coeff_closed_form(4, 4)
        with pytest.raises(ValueError):
            coeff_closed_form(-1, 4)
        with pytest.raises(ValueError):
            coeff_closed_form(0, 0)

    def test_integrality_and_equivalence(self):
        for n in range(1, 13):
            row = last_row(n)
            for k in range(n):
                value = coeff_closed_form(k, n)
                assert value.denominator == 1
                assert value == row[k]


def test_matches_rising_factorial_coefficients():
    """Cross-check: row N agrees with the coefficients of
    x(x+1)...(x+N-1), shifted by one in the exponent."""
    for n in range(1, 9):
        rising = Polynomial.one()
        for i in range(n):
            rising = rising * Polynomial([i, 1])
        for k in range(n):
            assert last_row(n)[k] == rising.coefficient(k + 1)


def test_rows_are_unsigned_stirling_numbers_of_the_first_kind_per_sympy():
    pytest.importorskip("sympy")
    from sympy.functions.combinatorial.numbers import stirling

    for n in range(1, 41):
        want = tuple(int(stirling(n, k + 1, kind=1)) for k in range(n))
        assert last_row(n) == want, n


def test_triangle_is_frozen():
    """Each row is a tuple, a value: a row kept while the stream goes on
    stays as it was read."""
    rows = triangle_recurrence(3)
    first = next(rows)
    assert list(rows) == [(1, 1), (2, 3, 1)]
    assert first == (1,)
    with pytest.raises(TypeError):
        first[0] = 2
