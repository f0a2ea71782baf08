"""Tests for truncated EGF arithmetic and the generating-function oracles."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feident.poly import Polynomial
from feident.series import (
    EgfSeries,
    bernoulli_oracle,
    exp_minus_constant,
    exp_xt,
    frobenius_oracle,
    series_mul,
    series_pow,
    series_reciprocal,
    series_scale,
    series_truncate,
)

coeff = st.fractions(min_value=-10, max_value=10, max_denominator=10)


def series_strategy(order):
    return st.lists(coeff, min_size=order + 1, max_size=order + 1).map(EgfSeries)


def invertible_series(order):
    return series_strategy(order).filter(lambda s: s.coeffs[0] != 0)


def exp_series(order):
    return exp_xt(Fraction(1), order)


def unit(order):
    """The multiplicative unit 1 = (1, 0, ..., 0)."""
    return EgfSeries([1] + [0] * order)


def derivative(a):
    """d/dt of an EGF: the shift h_n -> h_{n+1}."""
    return EgfSeries(a.coeffs[1:])


class TestEgfSeries:
    def test_order_and_access(self):
        s = EgfSeries([1, 2, 3])
        assert s.order == 2
        assert s[1] == Fraction(2)
        assert list(s) == [Fraction(1), Fraction(2), Fraction(3)]

    def test_needs_constant_coefficient(self):
        with pytest.raises(ValueError):
            EgfSeries([])

    def test_int_coefficients_become_fractions(self):
        assert all(isinstance(c, Fraction) for c in EgfSeries([1, 2]).coeffs)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            EgfSeries([0.5])

    def test_immutable(self):
        s = EgfSeries([1])
        with pytest.raises(AttributeError):
            s.coeffs = ()


class TestMul:
    def test_exp_times_exp(self):
        t = 8
        prod = series_mul(exp_series(t), exp_series(t))
        assert prod.coeffs == tuple(Fraction(2) ** n for n in range(t + 1))

    def test_unit_is_identity(self):
        s = EgfSeries([3, -1, Fraction(1, 2), 7])
        assert series_mul(s, unit(3)) == s

    def test_hand_convolution(self):
        s = EgfSeries([1, 1, 3, 13])
        sq = series_mul(s, s)
        # c_2 = a_0 a_2 + 2 a_1 a_1 + a_2 a_0 = 3 + 2 + 3
        assert sq[2] == 8

    def test_truncates_to_shorter(self):
        a = EgfSeries([1, 2, 3, 4, 5])
        b = EgfSeries([1, 1])
        assert series_mul(a, b).order == 1

    @given(series_strategy(6), series_strategy(6))
    def test_commutative(self, a, b):
        assert series_mul(a, b) == series_mul(b, a)

    @given(series_strategy(5), series_strategy(5), series_strategy(5))
    @settings(deadline=None)
    def test_associative(self, a, b, c):
        assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))


class TestAddSubScale:
    def test_scale(self):
        assert series_scale(EgfSeries([1, 2]), Fraction(1, 2)) == EgfSeries(
            [Fraction(1, 2), 1]
        )


class TestDerivative:
    @given(series_strategy(8), series_strategy(8))
    @settings(deadline=None)
    def test_leibniz_rule(self, a, b):
        lhs = derivative(series_mul(a, b))
        left = series_mul(derivative(a), b)
        right = series_mul(a, derivative(b))
        assert lhs.coeffs == tuple(map(operator.add, left.coeffs, right.coeffs))


class TestReciprocal:
    def test_exp_reciprocal_alternates(self):
        t = 7
        rec = series_reciprocal(exp_series(t))
        assert rec.coeffs == tuple(Fraction(-1) ** n for n in range(t + 1))

    def test_unit_reciprocal(self):
        assert series_reciprocal(unit(5)) == unit(5)

    def test_constant_series(self):
        assert series_reciprocal(EgfSeries([2, 0, 0])) == EgfSeries(
            [Fraction(1, 2), 0, 0]
        )

    def test_zero_constant_errors(self):
        with pytest.raises(ValueError):
            series_reciprocal(EgfSeries([0, 1]))

    @given(invertible_series(7))
    @settings(deadline=None)
    def test_mul_reciprocal_is_unit(self, a):
        assert series_mul(a, series_reciprocal(a)) == unit(7)


class TestPow:
    def test_unit_power(self):
        assert series_pow(unit(4), 5) == unit(4)

    def test_exp_cubed(self):
        t = 6
        assert series_pow(exp_series(t), 3).coeffs == tuple(
            Fraction(3) ** n for n in range(t + 1)
        )

    def test_power_one_is_identity(self):
        s = EgfSeries([2, 3, 4])
        assert series_pow(s, 1) == s

    @given(series_strategy(5))
    def test_square_matches_mul(self, a):
        assert series_pow(a, 2) == series_mul(a, a)

    def test_exponent_below_one_errors(self):
        with pytest.raises(ValueError):
            series_pow(unit(2), 0)


class TestTruncate:
    def test_truncate(self):
        s = EgfSeries([1, 2, 3, 4])
        assert series_truncate(s, 1) == EgfSeries([1, 2])
        assert series_truncate(s, 3) == s

    def test_bad_orders(self):
        s = EgfSeries([1, 2])
        with pytest.raises(ValueError):
            series_truncate(s, 5)
        with pytest.raises(ValueError):
            series_truncate(s, -1)


class TestExpXt:
    def test_x_one_gives_all_ones(self):
        assert exp_xt(Fraction(1), 4).coeffs == (1, 1, 1, 1, 1)

    def test_x_zero_gives_unit(self):
        assert exp_xt(Fraction(0), 4) == unit(4)

    def test_half(self):
        assert exp_xt(Fraction(1, 2), 3)[3] == Fraction(1, 8)


class TestFractionOnly:
    """Coefficients are Fractions only: a Polynomial is refused wherever a
    coefficient enters a series, and floats keep their message."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: EgfSeries([Polynomial.x()]),
            lambda: exp_xt(Polynomial.x(), 3),
            lambda: series_scale(EgfSeries([1, 2]), Polynomial.one()),
            lambda: exp_minus_constant(Polynomial.x(), 2),
        ],
        ids=["EgfSeries", "exp_xt", "series_scale", "exp_minus_constant"],
    )
    def test_polynomial_coefficient_raises(self, build):
        with pytest.raises(TypeError, match="must be int or Fraction, not Polynomial"):
            build()

    @pytest.mark.parametrize("cls", [EgfSeries, Polynomial], ids=lambda c: c.__name__)
    def test_float_refused_with_the_same_message(self, cls):
        with pytest.raises(TypeError) as info:
            cls([Fraction(1), 0.5])
        assert str(info.value) == "float coefficients are not allowed; use Fraction"


class TestOracles:
    def test_exp_minus_constant(self):
        s = exp_minus_constant(Fraction(2), 3)
        assert s.coeffs == (Fraction(-1), 1, 1, 1)

    def test_frobenius_euler_prefix(self):
        # u = -1 gives the Euler numbers E_n(0)
        s = frobenius_oracle(Fraction(-1), 4)
        assert s.coeffs == (1, Fraction(-1, 2), 0, Fraction(1, 4), 0)

    def test_frobenius_u2_prefix(self):
        s = frobenius_oracle(Fraction(2), 4)
        assert s.coeffs == (1, 1, 3, 13, 75)

    @pytest.mark.parametrize("u", [Fraction(2), Fraction(-1), Fraction(1, 3), Fraction(-5, 7)])
    def test_constant_coefficient_is_one(self, u):
        assert frobenius_oracle(u, 6)[0] == 1

    def test_u_equal_one_rejected(self):
        with pytest.raises(ValueError):
            frobenius_oracle(Fraction(1), 4)

    def test_float_u_refused(self):
        with pytest.raises(TypeError, match="float parameters are not allowed"):
            frobenius_oracle(0.5, 4)

    @pytest.mark.parametrize(
        "build",
        [lambda: exp_xt(True, 3), lambda: exp_minus_constant(False, 3),
         lambda: series_scale(EgfSeries([1, 2]), True), lambda: EgfSeries([1, True])],
        ids=["exp_xt", "exp_minus_constant", "series_scale", "EgfSeries"],
    )
    def test_bool_refused(self, build):
        # True would read as 1, so exp_xt(True, 3) would be the series of e^t
        with pytest.raises(TypeError, match="must be int or Fraction, not bool"):
            build()

    def test_bernoulli_prefix(self):
        s = bernoulli_oracle(4)
        assert s.coeffs == (1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30))
