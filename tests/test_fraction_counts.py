"""Fractions only at the edges.

No loop in a checker or a kernel makes a ``Fraction``: weights, sums,
reciprocals, products, the scalar routes of theorem3 and corollary4 (one-
entry integer forms) and every comparison run on integer numerators over
one denominator.  Fractions are made only where a value leaves or enters
that form: a parsed parameter (and the few products and quotients of
parameters a check names, such as alpha*beta or 1/alpha), a reported
mismatch value, a scalar result (``fe_number``, ``bernoulli_number``,
``s[n]``) and ``.coeffs``.

Constructions are counted by wrapping ``Fraction.__new__``.  On Python
3.12 and later, ``Fraction`` arithmetic makes its results without calling
``__new__``, so there a count misses those and each bound below checks
less; on 3.10 and 3.11 every construction is counted.
"""

import contextlib
from fractions import Fraction

import pytest

from caches import cold_caches
from feident import exact, frobenius, series, verify
from feident.frobenius import bernoulli_number, fe_polynomial
from feident.poly import Polynomial
from feident.series import EgfSeries, exp_minus_constant, series_reciprocal


@contextlib.contextmanager
def counting_fractions():
    """Yield a one-item list that counts the Fractions made inside."""
    original = Fraction.__dict__["__new__"]
    made = [0]

    def counting(cls, *args, **kwargs):
        made[0] += 1
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        yield made
    finally:
        Fraction.__new__ = original


@pytest.fixture
def fresh():
    """Every process-wide cache empty, before the test and after it."""
    cold_caches()
    yield
    cold_caches()


def test_counting_sees_plain_construction():
    with counting_fractions() as made:
        Fraction(3, 6)
        Fraction("1/3")
    assert made == [2]


def test_default_audit(fresh):
    """1,134 on CPython 3.11: 908 mismatch values of the failing reports,
    54 Bernoulli numbers, 25 parsed grid values and 147 products and
    quotients of parameters.  It was 1,662 while theorem3's and
    corollary4's routes returned Fractions (264 triangle-formula values,
    168 series-route values, 96 composition sums), and 5,963 with
    ``Fraction`` weight chains in the checkers, ``combine`` and the
    reciprocal."""
    with counting_fractions() as made:
        reports = verify.audit_all()
    mismatches = sum(len(r.mismatches) for r in reports)
    assert 2 * mismatches == 908
    assert made[0] <= 1200


def test_sweep_op(fresh):
    """One op of the benchmark's sweep at a u no op has used: 8 on CPython
    3.11, none of them in a route: the op's own 3*u, 1-u for each of the
    three tables the Carlitz check opens (u, beta and alpha*beta), its
    parameter beta = 3 read and printed, and alpha*beta.  It was 11 while
    theorem3's and corollary4's routes returned Fractions, and 124 with
    ``Fraction`` weights and reciprocal outputs."""

    def op(u):
        beta = 5 if 3 * u == 1 else 3
        frobenius.fe_polynomial(60, u)
        return [verify.verify_theorem3(6, 4, u), verify.verify_corollary4(6, 4, u),
                verify.verify_corollary5(8, 3, u), verify.verify_theorem1(4, u, 24),
                verify.verify_carlitz(6, 6, u, beta), verify.verify_product_multinomial(5, 3, u)]

    op(Fraction(5, 13))
    u = Fraction(7, 11)
    with counting_fractions() as made:
        reports = op(u)
    assert all(r.verdict == "pass" for r in reports)
    assert made[0] <= 8


def test_one_fraction_per_bernoulli_number(fresh, monkeypatch):
    """``bernoulli_number`` reads the oracle's integer form: one oracle
    call and one Fraction per call, not one per entry of the prefix."""
    oracle = series.bernoulli_oracle
    calls = []

    def counting_oracle(order):
        calls.append(order)
        return oracle(order)

    monkeypatch.setattr(series, "bernoulli_oracle", counting_oracle)
    with counting_fractions() as made:
        values = [bernoulli_number(n) for n in range(121)]
    assert made == [121]
    assert calls == list(range(121))
    assert values[:3] == [1, Fraction(-1, 2), Fraction(1, 6)]


def test_one_fraction_per_series_index():
    """``s[n]`` on a fresh kernel result makes one Fraction, from the
    integer form, not one per coefficient."""
    s = series_reciprocal(exp_minus_constant(Fraction(1, 3), 40))
    with counting_fractions() as made:
        value = s[17]
    assert made == [1]
    assert value == s.coeffs[17] and type(value) is Fraction


def test_equality_reads_the_integer_form(monkeypatch):
    """``==`` on series and polynomials compares integer forms: it never
    calls ``to_fractions`` and makes no Fraction, for values built from
    Fractions and for values over a denominator with a spare common
    factor."""
    p = fe_polynomial(30, Fraction(5, 8))
    (nums, d), k = p.integer_form, 6
    spare = Polynomial._from_ints([v * k for v in nums], d * k)
    built = Polynomial(p.coeffs)
    q = Polynomial._from_ints([*nums[:-1], nums[-1] + 1], d)
    s = series_reciprocal(exp_minus_constant(Fraction(-5, 7), 20))
    snums, sd = s.integer_form
    s_spare = EgfSeries._of(([v * k for v in snums], sd * k))
    s_built = EgfSeries(s.coeffs)
    half = Fraction(1, 2)

    def refuse(numerators, d):
        raise AssertionError("to_fractions was called")

    monkeypatch.setattr(exact, "to_fractions", refuse)
    with counting_fractions() as made:
        assert p == spare == built and spare == p and not p != built
        assert p != q and q != spare
        assert Polynomial.one() == 1 and Polynomial.zero() == 0 and p != 0
        assert spare != half and Polynomial._from_ints([3], 6) == half
        assert s == s_spare == s_built and s_spare == s
        assert s != EgfSeries._of((snums[:-1], sd)) and s != p
    assert made == [0]
