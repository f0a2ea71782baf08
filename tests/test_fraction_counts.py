"""Fractions only at the edges.

No loop in a checker or a kernel makes a ``Fraction``: weights, sums,
reciprocals and products run on integer numerators over one denominator.
Fractions are made only where a value leaves or enters that form: a parsed
parameter (and the few products and quotients of parameters a check
names, such as alpha*beta or 1/alpha), a reported mismatch value, a
scalar result (``fe_number``, ``bernoulli_number``, the scalar routes of
theorem3 and corollary4) and ``.coeffs``.

Constructions are counted by wrapping ``Fraction.__new__``.  On Python
3.12 and later, ``Fraction`` arithmetic makes its results without calling
``__new__``, so there a count misses those and each bound below checks
less; on 3.10 and 3.11 every construction is counted.
"""

import contextlib
from fractions import Fraction

import pytest

from feident import frobenius, series, verify
from feident.frobenius import bernoulli_number
from feident.series import EgfSeries


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
    """Fresh number tables and a fresh Bernoulli prefix, restored after."""
    prefix = series._bernoulli_prefix
    frobenius._table.cache_clear()
    series._bernoulli_prefix = EgfSeries([Fraction(1)])
    yield
    frobenius._table.cache_clear()
    series._bernoulli_prefix = prefix


def test_counting_sees_plain_construction():
    with counting_fractions() as made:
        Fraction(3, 6)
        Fraction("1/3")
    assert made == [2]


def test_default_audit(fresh):
    """1,662 on CPython 3.11: 908 mismatch values of the failing reports,
    264 triangle-formula values and 168 series-route values of theorem3
    and corollary4, 96 composition sums, 54 Bernoulli numbers, 25 parsed
    grid values and 147 products and quotients of parameters.  With
    ``Fraction`` weight chains in the checkers, ``combine`` and the
    reciprocal, it was 5,963."""
    with counting_fractions() as made:
        reports = verify.audit_all()
    mismatches = sum(len(r.mismatches) for r in reports)
    assert 2 * mismatches == 908
    assert made[0] <= 2000


def test_sweep_op(fresh):
    """One op of the benchmark's sweep at a u no op has used: 11 on CPython
    3.11 (the scalar results of theorem3 and corollary4, alpha*beta and
    1-u); 124 with ``Fraction`` weights and reciprocal outputs."""

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
    assert made[0] <= 40


def test_one_fraction_per_bernoulli_number(fresh, monkeypatch):
    """``bernoulli_number`` reads the oracle's integer form: one oracle
    call and one Fraction per call, not one per entry of the prefix."""
    oracle = frobenius.bernoulli_oracle
    calls = []

    def counting_oracle(order):
        calls.append(order)
        return oracle(order)

    monkeypatch.setattr(frobenius, "bernoulli_oracle", counting_oracle)
    with counting_fractions() as made:
        values = [bernoulli_number(n) for n in range(121)]
    assert made == [121]
    assert calls == list(range(121))
    assert values[:3] == [1, Fraction(-1, 2), Fraction(1, 6)]
