"""Each identity check reads the routes it claims to read.

A fault planted in one route must make exactly the identities that read
that route fail, in their ``corrected`` form (or their only form).  The
two-route rule is what this pins: if a refactor moved one side of a check
onto the other side's code, a fault in that code would cancel out and the
identity would drop out of the failing set.

The number-table fault reaches every check that reads the order-1 prefix
table (the triangle formula, direct enumeration, polynomials of order 1);
the series-power fault reaches only the series route to higher-order
numbers, which corollary5 and eq60_multinomial read through
``fe_higher_polynomial`` and theorem3 through ``fe_higher_number_oracle``.
theorem1 and corollary2 raise their own series to powers in ``verify``,
so they do not read ``frobenius.series_pow``.
"""

from fractions import Fraction

from feident import frobenius
from feident.series import EgfSeries
from feident.verify import audit_all


def failing_identities() -> set:
    """Identities with a failing non-``as_printed`` report in the default
    audit, run on fresh number tables."""
    frobenius._table.cache_clear()
    try:
        reports = audit_all()
    finally:
        frobenius._table.cache_clear()
    return {r.identity for r in reports if r.variant != "as_printed" and r.verdict != "pass"}


def plus_one_at_three(values: tuple) -> tuple:
    if len(values) <= 3:
        return values
    return values[:3] + (values[3] + 1,) + values[4:]


def test_unfaulted_audit_passes_every_corrected_report():
    assert failing_identities() == set()


def test_number_table_fault(monkeypatch):
    h3 = frobenius._NumberTable(Fraction(2)).upto(3)[3]
    upto = frobenius._NumberTable.upto
    monkeypatch.setattr(
        frobenius._NumberTable, "upto", lambda self, n: plus_one_at_three(upto(self, n))
    )
    assert frobenius._NumberTable(Fraction(2)).upto(3)[3] == h3 + 1
    assert failing_identities() == {
        "carlitz_product",
        "carlitz_reciprocal",
        "corollary4",
        "corollary5",
        "eq60_multinomial",
        "theorem3",
    }


def test_series_pow_fault(monkeypatch):
    series_pow = frobenius.series_pow

    def faulty(series, exponent):
        return EgfSeries(plus_one_at_three(series_pow(series, exponent).coeffs))

    monkeypatch.setattr(frobenius, "series_pow", faulty)
    assert failing_identities() == {"corollary5", "eq60_multinomial", "theorem3"}
