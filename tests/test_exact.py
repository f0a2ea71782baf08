"""Tests for the rational/combinatorics layer."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from feident.exact import (
    binomial,
    common_denominator,
    compositions,
    exact_parameter,
    format_rational,
    multinomial,
    parse_rational,
    rat,
    weak_compositions,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)
nonzero_rationals = rationals.filter(lambda q: q != 0)


class TestRat:
    def test_integer_embedding(self):
        assert rat(2, 1) == Fraction(2)
        assert rat(7) == Fraction(7)

    def test_gcd_reduction(self):
        q = rat(4, 6)
        assert (q.numerator, q.denominator) == (2, 3)

    def test_sign_normalization(self):
        q = rat(1, -3)
        assert (q.numerator, q.denominator) == (-1, 3)

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            rat(1, 0)


class TestRationalText:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2", Fraction(2)),
            ("-1/3", Fraction(-1, 3)),
            ("0", Fraction(0)),
            ("10/4", Fraction(5, 2)),
            ("-7", Fraction(-7)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize(
        "bad", ["", "1/0", "1.5", "1/-3", "+2", "a", " 2", "2 ", "1/2/3", "--1"]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_format(self):
        assert format_rational(Fraction(-1, 3)) == "-1/3"
        assert format_rational(Fraction(2)) == "2"
        assert format_rational(5) == "5"

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q


class TestExactParameter:
    @pytest.mark.parametrize(
        "value,expected",
        [(2, Fraction(2)), (Fraction(-1, 3), Fraction(-1, 3)), ("2/6", Fraction(1, 3)),
         ("-5/7", Fraction(-5, 7))],
    )
    def test_reads_like_fraction(self, value, expected):
        q = exact_parameter(value)
        assert (type(q), q) == (Fraction, expected)

    @pytest.mark.parametrize("value", [0.5, 0.1, float("nan")])
    def test_float_raises(self, value):
        with pytest.raises(TypeError, match="float parameters are not allowed"):
            exact_parameter(value)


class TestCommonDenominator:
    def test_examples(self):
        values = [Fraction(1, 6), Fraction(-3, 4), 5, Fraction(0)]
        assert common_denominator(values) == ([2, -9, 60, 0], 12)
        assert common_denominator([]) == ([], 1)

    @given(st.lists(rationals, max_size=8))
    def test_numerators_over_the_lcm(self, values):
        numerators, d = common_denominator(values)
        assert d == math.lcm(*[v.denominator for v in values])
        assert all(type(n) is int for n in numerators)
        assert [Fraction(n, d) for n in numerators] == values


class TestBinomial:
    def test_small_values(self):
        assert binomial(4, 2) == 6
        assert binomial(0, 0) == 1

    def test_out_of_range_k(self):
        assert binomial(1, 2) == 0
        assert binomial(5, -1) == 0

    def test_factorial_formula(self):
        expected = math.factorial(10) // (math.factorial(5) * math.factorial(5))
        assert binomial(10, 5) == expected == 252

    def test_negative_n(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @pytest.mark.parametrize("n", range(31))
    def test_row_sum(self, n):
        assert sum(binomial(n, k) for k in range(n + 1)) == 2**n


class TestMultinomial:
    def test_all_ones(self):
        assert multinomial(3, [1, 1, 1]) == 6

    def test_single_block(self):
        assert multinomial(4, [4]) == 1

    def test_mixed(self):
        assert multinomial(4, [2, 1, 1]) == 12

    def test_binomial_consistency(self):
        for n in range(9):
            for k in range(n + 1):
                assert multinomial(n, [k, n - k]) == binomial(n, k)

    def test_bad_sum(self):
        with pytest.raises(ValueError):
            multinomial(4, [2, 1])

    def test_negative_part(self):
        with pytest.raises(ValueError):
            multinomial(1, [2, -1])


class TestCompositions:
    def test_exhaustive_small(self):
        assert list(compositions(3, 2)) == [(1, 2), (2, 1)]
        assert list(compositions(4, 1)) == [(4,)]

    def test_stars_and_bars_count(self):
        assert len(list(compositions(6, 3))) == math.comb(5, 2) == 10

    def test_empty_when_too_many_parts(self):
        assert list(compositions(2, 5)) == []

    @pytest.mark.parametrize("total,num_parts", [(5, 2), (6, 3), (7, 4)])
    def test_lexicographic_and_valid(self, total, num_parts):
        seq = list(compositions(total, num_parts))
        assert seq == sorted(seq)
        assert len(set(seq)) == len(seq)
        for parts in seq:
            assert len(parts) == num_parts
            assert sum(parts) == total
            assert all(p >= 1 for p in parts)

    @pytest.mark.parametrize("total", range(1, 13))
    def test_total_count_over_all_lengths(self, total):
        count = sum(
            len(list(compositions(total, parts))) for parts in range(1, total + 1)
        )
        assert count == 2 ** (total - 1)

    def test_many_parts_order_and_count(self):
        # deeper than the interpreter's recursion limit
        num_parts = 1500
        total = num_parts + 1
        seq = list(compositions(total, num_parts))
        assert len(seq) == math.comb(total - 1, num_parts - 1)
        assert seq == sorted(seq)
        assert len(set(seq)) == len(seq)
        assert all(sum(parts) == total and min(parts) == 1 for parts in seq)
        assert seq[0] == (1,) * (num_parts - 1) + (2,)
        assert seq[-1] == (2,) + (1,) * (num_parts - 1)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            list(compositions(0, 1))
        with pytest.raises(ValueError):
            list(compositions(3, 0))


class TestWeakCompositions:
    def test_small(self):
        assert list(weak_compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
        assert list(weak_compositions(0, 3)) == [(0, 0, 0)]

    @pytest.mark.parametrize("total,num_parts", [(3, 3), (5, 2), (4, 4)])
    def test_count_and_order(self, total, num_parts):
        seq = list(weak_compositions(total, num_parts))
        assert len(seq) == math.comb(total + num_parts - 1, num_parts - 1)
        assert seq == sorted(seq)
        for parts in seq:
            assert sum(parts) == total
            assert all(p >= 0 for p in parts)

    @pytest.mark.parametrize("total,num_parts", [(0, 1), (4, 1), (0, 5), (3, 4), (6, 3)])
    def test_matches_filtered_product(self, total, num_parts):
        # itertools.product walks tuples in lexicographic order
        want = [
            p for p in itertools.product(range(total + 1), repeat=num_parts)
            if sum(p) == total
        ]
        assert list(weak_compositions(total, num_parts)) == want

    def test_many_parts_order_and_count(self):
        # deeper than the interpreter's recursion limit
        total, num_parts = 1, 1500
        seq = list(weak_compositions(total, num_parts))
        assert len(seq) == math.comb(total + num_parts - 1, num_parts - 1)
        assert seq == sorted(seq)
        assert len(set(seq)) == len(seq)
        assert seq[0] == (0,) * (num_parts - 1) + (total,)
        assert seq[-1] == (total,) + (0,) * (num_parts - 1)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            list(weak_compositions(-1, 2))
        with pytest.raises(ValueError):
            list(weak_compositions(2, 0))


class TestFieldLaws:
    """The ambient scalar must behave like an exact field."""

    @given(rationals, rationals, rationals)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(nonzero_rationals)
    def test_multiplicative_inverse(self, a):
        assert a * (1 / a) == 1

    @given(rationals, rationals)
    def test_exactness_of_sub_mul(self, a, b):
        assert (a + b) - b == a
        if b != 0:
            assert (a * b) / b == a
