"""Tests for Frobenius-Euler numbers/polynomials and their companions."""

import itertools
import math
from fractions import Fraction

import pytest

from feident.frobenius import (
    bernoulli_number,
    bernoulli_polynomial,
    euler_polynomial,
    fe_higher_number_formula,
    fe_higher_number_oracle,
    fe_higher_numbers,
    fe_higher_polynomial,
    fe_number,
    fe_polynomial,
)
from feident.poly import Polynomial
from feident.series import exp_xt, frobenius_oracle, series_mul

U_SAMPLES = [Fraction(2), Fraction(-1), Fraction(1, 3), Fraction(-5, 7)]

# Euler numbers E_n(0) from 2/(e^t + 1), frozen from an independent
# computation with the Euler polynomials
EULER_VALUES = [
    Fraction(1),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 4),
    Fraction(0),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(17, 8),
    Fraction(0),
    Fraction(-31, 2),
    Fraction(0),
    Fraction(691, 4),
    Fraction(0),
    Fraction(-5461, 2),
    Fraction(0),
    Fraction(929569, 16),
    Fraction(0),
]

# Bernoulli numbers from t/(e^t - 1), classical table
BERNOULLI_VALUES = [
    Fraction(1),
    Fraction(-1, 2),
    Fraction(1, 6),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(1, 42),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(5, 66),
]


def direct_multinomial_sum(n, order, u):
    """Independent oracle: plain loop over all index tuples, sharing no
    series or composition code with the implementation under test."""
    total = Fraction(0)
    for parts in itertools.product(range(n + 1), repeat=order):
        if sum(parts) != n:
            continue
        coeff = math.factorial(n)
        for p in parts:
            coeff //= math.factorial(p)
        term = Fraction(coeff)
        for p in parts:
            term *= fe_number(p, u)
        total += term
    return total


class TestFeNumber:
    def test_base_case(self):
        for u in U_SAMPLES:
            assert fe_number(0, u) == 1

    def test_u2_prefix(self):
        assert [fe_number(n, Fraction(2)) for n in range(5)] == [1, 1, 3, 13, 75]

    def test_euler_specialization(self):
        got = [fe_number(n, Fraction(-1)) for n in range(17)]
        assert got == EULER_VALUES

    def test_u_equal_one_rejected(self):
        with pytest.raises(ValueError):
            fe_number(3, Fraction(1))

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            fe_number(-1, Fraction(2))

    @pytest.mark.parametrize("call", [fe_number, fe_polynomial], ids=lambda f: f.__name__)
    def test_float_u_refused(self, call):
        # 0.1 is not 1/10 in binary; the value would be H_3 at the float's value
        with pytest.raises(TypeError, match="float parameters are not allowed"):
            call(3, 0.1)

    @pytest.mark.parametrize("u", U_SAMPLES)
    def test_recurrence_matches_series_oracle(self, u):
        oracle = frobenius_oracle(u, 16)
        for n in range(17):
            assert fe_number(n, u) == oracle[n]


class TestFePolynomial:
    def test_constant(self):
        assert fe_polynomial(0, Fraction(2)) == Polynomial.one()

    def test_degree_one(self):
        assert fe_polynomial(1, Fraction(2)) == Polynomial([1, 1])
        assert fe_polynomial(1, Fraction(-1)) == Polynomial([Fraction(-1, 2), 1])

    @pytest.mark.parametrize("u", U_SAMPLES)
    @pytest.mark.parametrize("n", range(7))
    def test_monic_with_number_constant_term(self, n, u):
        p = fe_polynomial(n, u)
        assert p.degree == n
        assert p.coefficient(n) == 1
        assert p.coefficient(0) == fe_number(n, u)

    @pytest.mark.parametrize("u", [Fraction(2), Fraction(1, 3)])
    def test_matches_symbolic_series_route(self, u):
        """Second route: coefficient n of (1-u)/(e^t-u) * e^{xt}, at t+1
        distinct rational x.  A polynomial of degree <= t is fixed by its
        values at t+1 points, so this pins every H_n(x|u) with n <= t."""
        t = 6
        points = [Fraction(k, 3) for k in range(-3, t - 2)]
        assert len(set(points)) == t + 1
        oracle = frobenius_oracle(u, t)
        for x in points:
            series = series_mul(oracle, exp_xt(x, t))
            for n in range(t + 1):
                assert series[n] == fe_polynomial(n, u)(x)

    def test_euler_polynomials(self):
        for n in range(13):
            assert fe_polynomial(n, Fraction(-1)) == euler_polynomial(n)
        assert euler_polynomial(0) == Polynomial.one()
        assert euler_polynomial(1) == Polynomial([Fraction(-1, 2), 1])
        for n in range(17):
            assert euler_polynomial(n).coefficient(0) == EULER_VALUES[n]


def test_euler_polynomials_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(31):
        ascending = sympy.Poly(sympy.euler(n, x), x).all_coeffs()[::-1]
        want = tuple(Fraction(int(c.p), int(c.q)) for c in ascending)
        assert euler_polynomial(n).coeffs == want, n


class TestHigherOrderNumbers:
    def test_constant_term_any_order(self):
        for order in range(1, 6):
            assert fe_higher_number_oracle(0, order, Fraction(2)) == 1

    def test_small_values(self):
        assert fe_higher_number_oracle(1, 2, Fraction(2)) == 2
        assert fe_higher_number_oracle(2, 2, Fraction(2)) == 8

    def test_order_one_collapse(self):
        for u in U_SAMPLES:
            for n in range(9):
                assert fe_higher_number_oracle(n, 1, u) == fe_number(n, u)

    def test_table_matches_pointwise(self):
        values = fe_higher_numbers(6, 3, Fraction(1, 3))
        for n in range(7):
            assert values[n] == fe_higher_number_oracle(n, 3, Fraction(1, 3))

    @pytest.mark.parametrize("u", [Fraction(2), Fraction(1, 3), Fraction(-5, 7)])
    def test_multinomial_equivalence(self, u):
        for n in range(9):
            for order in range(1, 5):
                assert fe_higher_number_oracle(n, order, u) == direct_multinomial_sum(
                    n, order, u
                )

    def test_validation(self):
        with pytest.raises(ValueError):
            fe_higher_number_oracle(2, 0, Fraction(2))
        with pytest.raises(ValueError):
            fe_higher_number_oracle(2, 2, Fraction(1))


class TestHigherOrderFormula:
    def test_corrected_fixtures(self):
        assert fe_higher_number_formula(0, 2, Fraction(2), "corrected") == 1
        assert fe_higher_number_formula(2, 2, Fraction(2), "corrected") == 8

    def test_as_printed_sign_flip(self):
        assert fe_higher_number_formula(0, 2, Fraction(2), "as_printed") == -1

    def test_corrected_matches_oracle_on_grid(self):
        for u in [Fraction(2), Fraction(1, 3), Fraction(-5, 7), Fraction(-1)]:
            for n in range(11):
                for order in range(1, 7):
                    assert fe_higher_number_formula(
                        n, order, u, "corrected"
                    ) == fe_higher_number_oracle(n, order, u)

    def test_u_zero_rejected(self):
        with pytest.raises(ValueError):
            fe_higher_number_formula(1, 2, Fraction(0))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            fe_higher_number_formula(1, 2, Fraction(2), "fixed")


class TestHigherOrderPolynomials:
    def test_constant(self):
        assert fe_higher_polynomial(0, 3, Fraction(2)) == Polynomial.one()

    def test_order_one_collapse(self):
        for n in range(7):
            assert fe_higher_polynomial(n, 1, Fraction(1, 3)) == fe_polynomial(
                n, Fraction(1, 3)
            )

    def test_degree_one(self):
        assert fe_higher_polynomial(1, 2, Fraction(2)) == Polynomial([2, 1])


class TestBernoulli:
    def test_numbers(self):
        got = [bernoulli_number(n) for n in range(11)]
        assert got == BERNOULLI_VALUES

    def test_odd_vanishing(self):
        for n in range(3, 17, 2):
            assert bernoulli_number(n) == 0

    def test_polynomials(self):
        assert bernoulli_polynomial(0) == Polynomial.one()
        assert bernoulli_polynomial(1) == Polynomial([Fraction(-1, 2), 1])
        assert bernoulli_polynomial(2) == Polynomial([Fraction(1, 6), -1, 1])

    def test_polynomial_constant_terms(self):
        for n in range(11):
            assert bernoulli_polynomial(n).coefficient(0) == BERNOULLI_VALUES[n]

    def test_difference_identity(self):
        """B_n(x+1) - B_n(x) = n x^(n-1), evaluated at rational points."""
        for n in range(1, 9):
            p = bernoulli_polynomial(n)
            for x in [Fraction(0), Fraction(1, 2), Fraction(-2, 3), Fraction(3)]:
                assert p(x + 1) - p(x) == n * x ** (n - 1)
