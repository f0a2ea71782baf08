"""Tests for dense exact polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from feident.poly import Polynomial

coeff = st.fractions(min_value=-20, max_value=20, max_denominator=12)
polys = st.lists(coeff, min_size=1, max_size=6).map(Polynomial)


def test_trailing_zeros_stripped():
    assert Polynomial([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))


def test_zero_polynomial_is_single_zero():
    assert Polynomial([0, 0, 0]).coeffs == (Fraction(0),)
    assert Polynomial().coeffs == (Fraction(0),)
    assert not Polynomial()
    assert Polynomial([0, 1])


def test_constructors():
    assert Polynomial.zero() == Polynomial([0])
    assert Polynomial.one() == Polynomial([1])
    assert Polynomial.x() == Polynomial([0, 1])
    assert Polynomial.constant(Fraction(3, 2)) == Polynomial([Fraction(3, 2)])


def test_appell():
    # sum_d C(2,d) numbers[2-d] x^d
    assert Polynomial.appell([1, 1, 3]) == Polynomial([3, 2, 1])
    assert Polynomial.appell([Fraction(5, 2)]) == Polynomial.constant(Fraction(5, 2))
    assert Polynomial.appell([1] * 6) == Polynomial([1, 1]) ** 5


@given(st.lists(coeff, min_size=1, max_size=7))
def test_appell_at_zero_is_the_last_number(numbers):
    p = Polynomial.appell(numbers)
    assert p(0) == numbers[-1]
    assert p.coefficient(len(numbers) - 1) == numbers[0]


def test_appell_refuses_floats():
    with pytest.raises(TypeError):
        Polynomial.appell([1, 0.5])


def test_combination_examples():
    p, q = Polynomial([1, Fraction(1, 2)]), Polynomial([0, 0, 3])
    assert Polynomial.combination([(2, p), (Fraction(-1, 3), q)]) == Polynomial([2, 1, -1])
    assert Polynomial.combination([(1, q), (-1, q)]) == Polynomial.zero()
    assert Polynomial.combination([(0, q)]) == Polynomial.zero()
    assert Polynomial.combination([]) == Polynomial.zero()


@given(st.lists(st.tuples(coeff, polys), max_size=6))
def test_combination_matches_the_scalar_loop(terms):
    # zero and negative scalars, mixed denominators, unequal degrees, no terms
    expected = Polynomial.zero()
    for scalar, poly in terms:
        expected = expected + scalar * poly
    assert Polynomial.combination(terms) == expected


def test_degree_and_coefficient():
    p = Polynomial([1, 0, Fraction(5, 2)])
    assert p.degree == 2
    assert p.coefficient(2) == Fraction(5, 2)
    assert p.coefficient(7) == 0
    with pytest.raises(ValueError):
        p.coefficient(-1)


def test_evaluation_horner():
    p = Polynomial([1, -2, 3])  # 1 - 2x + 3x^2
    assert p(Fraction(1, 2)) == 1 - 1 + Fraction(3, 4)
    assert p(0) == 1


def test_arithmetic():
    p = Polynomial([1, 1])
    q = Polynomial([-1, 1])
    assert p + q == Polynomial([0, 2])
    assert p - q == Polynomial([2])
    assert p * q == Polynomial([-1, 0, 1])
    assert -p == Polynomial([-1, -1])
    assert p + 1 == Polynomial([2, 1])
    assert 1 + p == Polynomial([2, 1])
    assert p - 1 == Polynomial([0, 1])
    assert 1 - p == Polynomial([0, -1])


def test_scalar_multiplication_and_division():
    p = Polynomial([1, 2])
    assert 2 * p == Polynomial([2, 4])
    assert p * Fraction(1, 2) == Polynomial([Fraction(1, 2), 1])
    assert p / 2 == Polynomial([Fraction(1, 2), 1])
    with pytest.raises(ZeroDivisionError):
        p / 0


def test_power():
    x = Polynomial.x()
    assert x**0 == Polynomial.one()
    assert x**3 == Polynomial([0, 0, 0, 1])
    assert (Polynomial([1, 1])) ** 2 == Polynomial([1, 2, 1])
    with pytest.raises(ValueError):
        x**-1


def test_cancellation_drops_degree():
    p = Polynomial([0, 1])
    assert (p - p).coeffs == (Fraction(0),)
    assert (p * Polynomial([1]) - p) == Polynomial.zero()


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        Polynomial([0.5])


def test_immutable_and_hashable():
    p = Polynomial([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (Fraction(0),)
    assert hash(p) == hash(Polynomial([1, 2]))


def test_equality_with_scalars():
    assert Polynomial([3]) == 3
    assert Polynomial([Fraction(1, 2)]) == Fraction(1, 2)
    assert Polynomial([0, 1]) != 0


@pytest.mark.parametrize("scalar", [3, 0, -7, Fraction(1, 2), Fraction(-5, 7)])
def test_constant_hashes_like_its_scalar(scalar):
    p = Polynomial([scalar])
    assert p == scalar
    assert hash(p) == hash(scalar)
    assert len({p, scalar}) == 1
    assert {scalar: "v"}.get(p) == "v"


@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys, coeff)
def test_evaluation_is_ring_morphism(p, value):
    q = Polynomial([2, -1])
    assert (p * q)(value) == p(value) * q(value)
    assert (p + q)(value) == p(value) + q(value)
