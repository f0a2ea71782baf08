"""Series and polynomials hold their coefficients as integer numerators
over one denominator, plus their Fractions once read; no result depends
on whether the Fractions are held, or on a spare common factor of the
numerators and the denominator.

Each kernel is run on operands in every form: built from Fractions, and
over a denominator with a spare common factor (as a truncation leaves
them) with and without the Fractions read.  Each must give the same
``coeffs``.  Values compare, hash, pickle and copy alike in every form.
The last tests pin that a passing check of series or polynomials keeps
its whole chain in integers: it never calls ``exact.to_fractions``, the
one conversion from the integer form; nor does asking a polynomial its
degree or whether it is zero.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feident import exact, verify
from feident.exact import combine, common_denominator, to_fractions
from feident.frobenius import fe_polynomial
from feident.poly import Polynomial
from feident.series import (
    EgfSeries,
    exp_minus_constant,
    exp_xt,
    series_mul,
    series_reciprocal,
    series_scale,
    series_truncate,
)

# zero, negative and mixed-denominator coefficients
scalar = st.one_of(
    st.just(0),
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)
# lists that often end in zeros
coefficients = st.builds(
    lambda xs, zeros: xs + [0] * zeros,
    st.lists(scalar, min_size=1, max_size=8),
    st.integers(0, 3),
)
spare = st.integers(1, 6)


def in_forms(cls, xs, k):
    """The value with coefficients ``xs`` built from Fractions (over their
    least common denominator), and held over k times that denominator
    without and with its Fractions read."""
    nums, d = common_denominator([Fraction(x) for x in xs])
    make = Polynomial._from_ints if cls is Polynomial else lambda *ints: cls._of(ints)
    forms = [cls(xs), make([v * k for v in nums], d * k), make([v * k for v in nums], d * k)]
    forms[2].coeffs  # now holds its Fractions
    assert forms[0].integer_form[1] == d
    return forms


def consistent(value):
    """The value's two forms hold the same numbers."""
    return to_fractions(*value.integer_form) == value.coeffs


class TestKernelsInEveryForm:
    @given(coefficients, coefficients, spare)
    @settings(deadline=None, max_examples=60)
    def test_series_mul(self, xs, ys, k):
        want = series_mul(EgfSeries(xs), EgfSeries(ys)).coeffs
        for a in in_forms(EgfSeries, xs, k):
            for b in in_forms(EgfSeries, ys, k + 1):
                assert series_mul(a, b).coeffs == want

    @given(coefficients, spare)
    @settings(deadline=None, max_examples=60)
    def test_series_reciprocal(self, xs, k):
        if xs[0] == 0:
            xs = [Fraction(-3, 2)] + xs[1:]
        results = [series_reciprocal(a) for a in in_forms(EgfSeries, xs, k)]
        assert all(consistent(r) for r in results)
        assert len({r.coeffs for r in results}) == 1

    @given(coefficients, scalar, spare)
    @settings(deadline=None, max_examples=60)
    def test_series_scale_and_truncate(self, xs, c, k):
        order = len(xs) // 2
        want = tuple(Fraction(c) * Fraction(x) for x in xs)
        for a in in_forms(EgfSeries, xs, k):
            assert series_scale(a, c).coeffs == want
            cut = series_truncate(a, order)
            assert cut.coeffs == tuple(Fraction(x) for x in xs[: order + 1])
            assert consistent(cut)

    @given(scalar, st.integers(0, 6))
    def test_exponentials(self, x, order):
        assert exp_xt(x, order).coeffs == tuple(Fraction(x) ** n for n in range(order + 1))
        assert exp_minus_constant(x, order).coeffs == (1 - Fraction(x),) + (Fraction(1),) * order

    @given(coefficients, coefficients, spare)
    @settings(deadline=None, max_examples=60)
    def test_polynomial_mul(self, xs, ys, k):
        want = (Polynomial(xs) * Polynomial(ys)).coeffs
        for a in in_forms(Polynomial, xs, k):
            for b in in_forms(Polynomial, ys, k + 1):
                assert (a * b).coeffs == want

    @given(st.lists(st.tuples(scalar, coefficients), max_size=5), spare)
    @settings(deadline=None, max_examples=60)
    def test_combination(self, terms, k):
        want = Polynomial.combination([(c, Polynomial(xs)) for c, xs in terms]).coeffs
        for form in range(3):
            values = [(c, in_forms(Polynomial, xs, k)[form]) for c, xs in terms]
            assert Polynomial.combination(values).coeffs == want

    @given(st.lists(st.tuples(scalar, coefficients), max_size=5), spare)
    @settings(deadline=None, max_examples=60)
    def test_linear_combination(self, terms, k):
        weights = [(Fraction(c).numerator, Fraction(c).denominator) for c, _ in terms]
        want = to_fractions(*combine(
            (w, common_denominator([Fraction(x) for x in xs])) for w, (_, xs) in zip(weights, terms)))
        for form in range(3):
            values = [(w, in_forms(EgfSeries, xs, k)[form].integer_form)
                      for w, (_, xs) in zip(weights, terms)]
            assert to_fractions(*combine(values)) == want

    @given(coefficients, spare)
    @settings(deadline=None, max_examples=60)
    def test_appell(self, xs, k):
        want = Polynomial.appell(xs)
        for numbers in in_forms(EgfSeries, xs, k):
            p = Polynomial.appell(numbers)
            assert p.coeffs == want.coeffs
            assert consistent(p)
        # the integer form of an Appell polynomial made from Fractions
        lazy = Polynomial.appell(xs)
        assert to_fractions(*lazy.integer_form) == want.coeffs


class TestFormIndependentValues:
    @given(coefficients, spare)
    @settings(deadline=None, max_examples=40)
    def test_equal_and_hash_alike(self, xs, k):
        for cls in (EgfSeries, Polynomial):
            forms = in_forms(cls, xs, k)
            for value in forms:
                assert value == forms[0]
                assert hash(value) == hash(forms[0])
                assert repr(value) == repr(forms[0])
        assert Polynomial.appell(xs) == Polynomial(Polynomial.appell(xs).coeffs)

    @pytest.mark.parametrize("form", [0, 1, 2], ids=["fractions", "integers", "both"])
    @pytest.mark.parametrize(
        "round_trip",
        [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    @pytest.mark.parametrize("cls", [EgfSeries, Polynomial], ids=lambda c: c.__name__)
    def test_round_trip(self, cls, round_trip, form):
        value = in_forms(cls, [Fraction(1, 2), 0, -3, Fraction(5, 7), 0], 3)[form]
        result = round_trip(value)
        assert type(result) is cls
        assert result == value and result.coeffs == value.coeffs

    def test_immutable_in_every_form(self):
        for cls in (EgfSeries, Polynomial):
            for value in in_forms(cls, [1, Fraction(1, 2)], 2):
                with pytest.raises(AttributeError):
                    value.integer_form = None


# Checks of series (theorem1), polynomial products and combinations
# (carlitz_product) and Appell polynomials of series and formula numbers
# (corollary5), each of which passes.  beta = 5, as the benchmark's sweep
# takes it at alpha = 1/3, since alpha * beta = 1 is outside the domain.
PASSING = [
    (verify.verify_carlitz, (6, 6, Fraction(1, 3), 5)),
    (verify.verify_theorem1, (4, Fraction(-5, 7), 24)),
    (verify.verify_corollary5, (8, 3, 2)),
]


@pytest.mark.parametrize("check,args", PASSING, ids=["carlitz", "theorem1", "corollary5"])
def test_passing_chains_stay_in_integers(monkeypatch, check, args):
    conversions = []
    convert = exact.to_fractions

    def counted(numerators, d):
        conversions.append(len(numerators))
        return convert(numerators, d)

    monkeypatch.setattr(exact, "to_fractions", counted)
    assert check(*args).verdict == "pass"
    assert conversions == []
    # the counter sees a conversion when one happens
    series_mul(exp_xt(2, 3), exp_xt(3, 3)).coeffs
    assert conversions == [4]


def test_degree_and_truth_read_the_integer_form(monkeypatch):
    """A polynomial's degree and whether it is zero follow from its
    integer form: asking them of a fresh H_40(x|5/8) makes no Fraction."""
    p = fe_polynomial(40, Fraction(5, 8))

    def refuse(numerators, d):
        raise AssertionError("a Fraction was made")

    monkeypatch.setattr(exact, "to_fractions", refuse)
    assert p.degree == 40 and bool(p)
    zero = p - p
    assert zero.degree == 0 and not zero
