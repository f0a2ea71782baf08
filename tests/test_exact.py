"""Tests for the rational/combinatorics layer."""

import itertools
import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from feident.exact import (
    as_fraction,
    binomial,
    combine,
    common_denominator,
    exact_parameter,
    multinomial,
    parse_rational,
    to_fractions,
    weak_compositions,
)
from feident.poly import Polynomial

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)
nonzero_rationals = rationals.filter(lambda q: q != 0)


class TestToFractions:
    """The one reader of an integer form: numerators over d, one reduced
    Fraction each."""

    def test_integer_embedding(self):
        out = to_fractions([2, 7], 1)
        assert out == (Fraction(2), Fraction(7))
        assert all(type(q) is Fraction for q in out)

    def test_gcd_reduction(self):
        (q,) = to_fractions([4], 6)
        assert (q.numerator, q.denominator) == (2, 3)

    def test_sign_normalization(self):
        for nums, d in (([1], -3), ([-2], 6)):
            (q,) = to_fractions(nums, d)
            assert (q.numerator, q.denominator) == (-1, 3)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            to_fractions([1], 0)


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

    @given(rationals)
    def test_round_trip(self, q):
        """The grammar reads what ``str`` of a Fraction writes."""
        assert parse_rational(str(q)) == q


class TestExactParameter:
    @pytest.mark.parametrize(
        "value,expected",
        [(2, Fraction(2)), (Fraction(-1, 3), Fraction(-1, 3)), ("2/6", Fraction(1, 3)),
         ("-5/7", Fraction(-5, 7))],
    )
    def test_reads_like_fraction(self, value, expected):
        q = exact_parameter(value)
        assert (type(q), q) == (Fraction, expected)

    def test_fraction_comes_back_as_the_same_object(self):
        q = Fraction(-5, 7)
        assert exact_parameter(q) is q

    def test_fraction_subclass_becomes_a_fraction(self):
        class Sub(Fraction):
            pass

        q = exact_parameter(Sub(2, 6))
        assert (type(q), q) == (Fraction, Fraction(1, 3))

    @pytest.mark.parametrize("value", [0.5, 0.1, float("nan")])
    def test_float_raises(self, value):
        with pytest.raises(TypeError, match="float parameters are not allowed"):
            exact_parameter(value)

    # "\uff12" is a fullwidth 2 and "\u0661/\u0663" is 1/3 in Arabic-Indic
    # digits: the grammar takes ASCII digits only
    @pytest.mark.parametrize("text", ["0.5", " 1/3", "1e3", "1_000/3", "\uff12", "\u0661/\u0663"])
    def test_text_outside_the_pq_grammar_raises(self, text):
        """``Fraction()`` reads each of these; the one rational grammar
        does not, so the library refuses what the CLI and grids refuse."""
        assert Fraction(text)
        with pytest.raises(ValueError, match=re.escape(f"not a rational in p/q form: {text!r}")):
            exact_parameter(text)

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_raises(self, value):
        with pytest.raises(TypeError, match="bool parameters are not allowed"):
            exact_parameter(value)

    # Fraction() reads Decimal("0.5") and overflows on Decimal("Infinity")
    @pytest.mark.parametrize("value", [Decimal("0.5"), Decimal("Infinity"), None, [1], b"1/2"])
    def test_other_types_raise(self, value):
        message = (f"{type(value).__name__} parameters are not allowed; "
                   "use int, Fraction or a 'p/q' string")
        with pytest.raises(TypeError, match=re.escape(message)):
            exact_parameter(value)


class TestAsFraction:
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_raises(self, value):
        with pytest.raises(TypeError, match="must be int or Fraction, not bool"):
            as_fraction(value)

    def test_int_and_fraction_read_as_fractions(self):
        assert (type(as_fraction(3)), as_fraction(3)) == (Fraction, Fraction(3))
        assert as_fraction(Fraction(-2, 6)) == Fraction(-1, 3)


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


def fraction_combination(terms) -> list:
    """sum scalar * sequence, entry by entry, in plain Fraction arithmetic."""
    width = max((len(seq) for _, seq in terms), default=0)
    out = [Fraction(0)] * width
    for scalar, seq in terms:
        for i, value in enumerate(seq):
            out[i] += scalar * value
    return out


class TestLinearCombination:
    """``combine`` sums integer-weighted integer forms; ``to_fractions``
    reads the sum."""

    def test_examples(self):
        terms = [((1, 2), common_denominator([Fraction(1, 3), 2])),
                 ((-3, 1), ([1], 6)), ((0, 1), ([1, 2, 3, 4], 1))]
        assert to_fractions(*combine(terms)) == (Fraction(-1, 3), 1, 0, 0)
        assert combine([]) == ([], 1)

    def test_unreduced_and_negative_denominators(self):
        # 2/4 * 1/3 + 3/-2 * 1/1 = -4/3, over a positive lcm
        total, lcm = combine([((2, 4), ([1], 3)), ((3, -2), ([1], 1))])
        assert lcm > 0
        assert to_fractions(total, lcm) == (Fraction(-4, 3),)

    @given(st.lists(st.tuples(rationals, st.lists(rationals, max_size=6),
                              st.sampled_from([-3, -1, 1, 2])), max_size=6))
    def test_matches_fraction_arithmetic(self, terms):
        # zero and negative weights, weights not in lowest terms or over a
        # negative denominator, mixed denominators, unequal lengths, no terms
        out = to_fractions(*combine(((k * c.numerator, k * c.denominator), common_denominator(seq))
                                    for c, seq, k in terms))
        assert all(type(c) is Fraction for c in out)
        assert list(out) == fraction_combination([(c, seq) for c, seq, _ in terms])

    def test_accepts_any_sequence(self):
        assert to_fractions(*combine((((2, 1), ((1,), 4)),))) == (Fraction(1, 2),)
        assert to_fractions(*combine(iter([((1, 1), (range(3), 1))]))) == (0, 1, 2)

    def test_float_scalar_raises(self):
        # combine takes integer weights only; a float is refused where a
        # scalar becomes a weight
        with pytest.raises(TypeError, match="float"):
            Polynomial.combination([(0.5, Polynomial.one())])


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

    @given(st.lists(st.integers(min_value=0, max_value=40), max_size=8))
    def test_matches_factorial_formula(self, parts):
        n = sum(parts)
        denom = math.prod(math.factorial(p) for p in parts)
        assert multinomial(n, parts) == math.factorial(n) // denom

    @pytest.mark.parametrize(
        "n,parts,message",
        [
            (-1, [-1], "multinomial needs n >= 0"),
            (1, [3, -1, -1], "multinomial parts must be nonnegative"),
            (4, [2, 1], "parts (2, 1) do not sum to 4"),
        ],
    )
    def test_error_messages_in_order(self, n, parts, message):
        with pytest.raises(ValueError) as info:
            multinomial(n, parts)
        assert str(info.value) == message


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
