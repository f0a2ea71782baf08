"""Tests for the coefficient triangle: recurrence, closed form, invariants."""

import math
from fractions import Fraction

import pytest

from feident.poly import Polynomial
from feident.stirling import StirlingTriangle, coeff_closed_form, triangle_recurrence

KNOWN_ROWS = {
    1: (1,),
    2: (1, 1),
    3: (2, 3, 1),
    4: (6, 11, 6, 1),
    5: (24, 50, 35, 10, 1),
}


@pytest.mark.parametrize("n,row", sorted(KNOWN_ROWS.items()))
def test_recurrence_known_rows(n, row):
    assert triangle_recurrence(5).row(n) == row


def test_row_accessor_bounds():
    tri = triangle_recurrence(3)
    assert tri.n_max == 3
    with pytest.raises(ValueError):
        tri.row(0)
    with pytest.raises(ValueError):
        tri.row(4)


def test_n_max_validation():
    with pytest.raises(ValueError):
        triangle_recurrence(0)


def test_boundary_values():
    tri = triangle_recurrence(12)
    for n in range(1, 13):
        row = tri.row(n)
        assert row[0] == math.factorial(n - 1)
        assert row[-1] == 1


def test_row_sums_are_factorials():
    tri = triangle_recurrence(12)
    for n in range(1, 13):
        assert sum(tri.row(n)) == math.factorial(n)


def test_recurrence_relation_holds():
    tri = triangle_recurrence(12)
    for n in range(1, 12):
        prev, row = tri.row(n), tri.row(n + 1)
        for k in range(n + 1):
            above = prev[k] if k < n else 0
            left = prev[k - 1] if k >= 1 else 0
            assert row[k] == n * above + left


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
        tri = triangle_recurrence(12)
        for n in range(1, 13):
            for k in range(n):
                value = coeff_closed_form(k, n)
                assert value.denominator == 1
                assert value == tri.row(n)[k]


def test_matches_rising_factorial_coefficients():
    """Cross-check: row N agrees with the coefficients of
    x(x+1)...(x+N-1), shifted by one in the exponent."""
    tri = triangle_recurrence(8)
    for n in range(1, 9):
        rising = Polynomial.one()
        for i in range(n):
            rising = rising * Polynomial([i, 1])
        for k in range(n):
            assert tri.row(n)[k] == rising.coefficient(k + 1)


def test_rows_are_unsigned_stirling_numbers_of_the_first_kind_per_sympy():
    pytest.importorskip("sympy")
    from sympy.functions.combinatorial.numbers import stirling

    for n in range(1, 41):
        want = tuple(int(stirling(n, k + 1, kind=1)) for k in range(n))
        assert triangle_recurrence(n).row(n) == want, n


def test_triangle_is_frozen():
    tri = triangle_recurrence(2)
    assert isinstance(tri, StirlingTriangle)
    with pytest.raises(AttributeError):
        tri.rows = ()
