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
    # a weight may be an integer pair (num, den), unreduced or over a
    # negative denominator
    assert Polynomial.combination([((4, 2), p), ((1, -3), q)]) == Polynomial([2, 1, -1])


@pytest.mark.parametrize("pair,error", [
    ((Fraction(1), 2), TypeError), ((0.5, 1), TypeError), ((1, True), TypeError),
    ((1, 0), ValueError),
])
def test_combination_refuses_a_malformed_weight_pair(pair, error):
    with pytest.raises(error):
        Polynomial.combination([(pair, Polynomial.one())])


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
    for d in (True, 1.5):
        with pytest.raises(TypeError, match="argument 'd' must be an int"):
            p.coefficient(d)


def test_coefficient_and_value_read_the_integer_form(monkeypatch):
    """On a fresh polynomial, a coefficient or a value makes no Fraction
    per coefficient, and equals the one read from ``coeffs``."""
    from feident import exact
    from feident.frobenius import fe_polynomial

    p = fe_polynomial(40, Fraction(5, 8))
    points = [0, 1, -1, 7, Fraction(3, 7), Fraction(-22, 5), Fraction(5, 8)]
    degrees = [0, 1, 17, 40, 41, 90]

    def refuse(numerators, d):
        raise AssertionError("a Fraction per coefficient was made")

    with monkeypatch.context() as patch:
        patch.setattr(exact, "to_fractions", refuse)
        values = [p(x) for x in points]
        coefficients = [p.coefficient(d) for d in degrees]
    for x, value in zip(points, values):
        acc = Fraction(0)
        for c in reversed(p.coeffs):
            acc = acc * x + c
        assert type(value) is Fraction and value == acc
    assert coefficients == [p.coeffs[d] if d <= 40 else 0 for d in degrees]
    assert all(type(c) is Fraction for c in coefficients)


def test_evaluation_horner():
    p = Polynomial([1, -2, 3])  # 1 - 2x + 3x^2
    assert p(Fraction(1, 2)) == 1 - 1 + Fraction(3, 4)
    assert p(0) == 1
    assert type(p(3)) is Fraction and type(p(Fraction(1, 2))) is Fraction


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


@pytest.mark.parametrize(
    "call",
    [
        lambda p: p - 0.5,
        lambda p: p - "1/2",
        lambda p: 0.5 - p,
        lambda p: p(0.5),
        lambda p: p + 0.5,
        lambda p: 0.5 + p,
        lambda p: p + "1/2",
        lambda p: p * 0.5,
        lambda p: 0.5 * p,
        lambda p: p / 0.5,
        lambda p: p / p,
    ],
    ids=["sub-float", "sub-str", "rsub-float", "call-float", "add-float", "radd-float",
         "add-str", "mul-float", "rmul-float", "truediv-float", "truediv-polynomial"],
)
def test_inexact_operands_rejected(call):
    with pytest.raises(TypeError):
        call(Polynomial([1, 2]))


@pytest.mark.parametrize(
    "call,kind",
    [
        (lambda: Polynomial([True, 2]), "bool"),
        (lambda: Polynomial([1, 2]) + True, "bool"),
        (lambda: True - Polynomial([1, 2]), "bool"),
        (lambda: Polynomial([1, 2]) * False, "bool"),
        (lambda: Polynomial([1, 2]) / True, "bool"),
        (lambda: Polynomial.appell([True, 2]), "bool"),
        (lambda: Polynomial([1, 2])(True), "bool"),
        (lambda: Polynomial([1, 2])(1j), "complex"),
        (lambda: Polynomial([1, 2])("1/2"), "str"),
    ],
    ids=["coefficient", "add", "rsub", "mul", "truediv", "appell", "call-bool", "call-complex",
         "call-str"],
)
def test_bool_and_non_rational_values_refused(call, kind):
    """A bool is not read as 0 or 1, and an evaluation point is converted
    like a coefficient: Polynomial([True, 2]) + True is not Polynomial([2, 2])
    and p(1j) is not the complex 1+2j."""
    with pytest.raises(TypeError, match=f"must be int or Fraction, not {kind}"):
        call()


@given(polys, polys, coeff)
def test_sums_are_coefficientwise(p, q, c):
    width = max(len(p.coeffs), len(q.coeffs))
    a = [p.coefficient(d) for d in range(width)]
    b = [q.coefficient(d) for d in range(width)]
    assert p + q == Polynomial([x + y for x, y in zip(a, b)])
    assert p - q == Polynomial([x - y for x, y in zip(a, b)])
    assert -p == Polynomial([-x for x in p.coeffs])
    shifted = [p.coeffs[0] + c, *p.coeffs[1:]]
    assert p + c == c + p == Polynomial(shifted)
    assert p - c == Polynomial([p.coeffs[0] - c, *p.coeffs[1:]])
    assert c - p == Polynomial([c - p.coeffs[0], *(-x for x in p.coeffs[1:])])
    assert all(type(x) is Fraction for x in (p + q).coeffs + (c - p).coeffs)


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
