"""Each identity check reads the routes it claims to read.

A fault planted in one route must make exactly the identities that read
that route fail, in their ``corrected`` form (or their only form).  The
two-route rule is what this pins: if a refactor moved one side of a check
onto the other side's code, a fault in that code would cancel out and the
identity would drop out of the failing set.

The number-table fault (M_3 one r^3 larger as the Euler-Seidel step makes
it, so H_3 + 1) reaches every check that reads the order-1 prefix table
(the triangle formula, direct enumeration, polynomials of order 1);
the series-power fault reaches only the series route to higher-order
numbers, which corollary5 and eq60_multinomial read through
``fe_higher_polynomial``, theorem3 through ``_higher_series``,
and theorem1 and corollary2 as F^N from the same table, so all five read
``frobenius.series_pow``.  The multinomial fault (one more at k = 3)
reaches only the composition sum, which corollary4 and eq60_multinomial
read on their direct-enumeration side, and so does the weak-composition
fault (the first composition of 3 dropped).

The kernel faults below are patched in every module that binds the
kernel by name, as a caller sees it:

- ``series_mul`` reaches, through ``series_pow``, the powers of F that
  theorem1, corollary2, theorem3, corollary5 and eq60 read from the
  table, and the e^{xt} factor of corollary2;
- ``series_reciprocal`` reaches F itself, which every series route reads
  from the table of u (``frobenius_oracle``), so the same identities, and
  the Bernoulli oracle behind the Bernoulli polynomials of
  carlitz_reciprocal and bernoulli_product;
- ``triangle_recurrence`` (a_1(N) + 1 for N >= 2) reaches every
  triangle-formula side, each of which reads its weights from the table:
  theorem1, corollary2, theorem3, corollary4 and corollary5;
- ``Polynomial.__mul__`` reaches only the polynomial products of the
  Carlitz and Bernoulli identities;
- ``bernoulli_oracle`` (B_3 + 1) reaches only the Bernoulli numbers and
  polynomials, which carlitz_reciprocal and bernoulli_product read on
  their expansion side.

These sets do not depend on how the package loads: the checkers that
``feident`` exports on first access are the objects of ``feident.verify``.
"""

from fractions import Fraction

from feident import exact, frobenius, series, stirling, verify
from feident.poly import Polynomial
from feident.series import EgfSeries
from feident.stirling import StirlingTriangle
from feident.verify import audit_all


def failing_identities() -> set:
    """Identities with a failing non-``as_printed`` report in the default
    audit, run on fresh number tables, a fresh Bernoulli prefix and fresh
    composition terms.  Clearing ``frobenius._table`` clears both routes'
    caches: the prefix and polynomials of the recurrence route and the
    series route's powers of F; clearing ``verify._composition_terms``
    makes the multinomial and weak-composition faults reach the kept
    terms, so a planted fault reaches every value the audit reads."""
    unfilled = EgfSeries([Fraction(1)])
    frobenius._table.cache_clear()
    verify._composition_terms.cache_clear()
    series._bernoulli_prefix = unfilled
    try:
        reports = audit_all()
    finally:
        frobenius._table.cache_clear()
        verify._composition_terms.cache_clear()
        series._bernoulli_prefix = unfilled
    return {r.identity for r in reports if r.variant != "as_printed" and r.verdict != "pass"}


def patch_callers(monkeypatch, name: str, fault, modules) -> None:
    """Bind ``fault`` as ``name`` in each of ``modules``, the defining one
    first; every module must hold the kernel itself under that name."""
    kernel = getattr(modules[0], name)
    for module in modules:
        assert getattr(module, name) is kernel, module.__name__
        monkeypatch.setattr(module, name, fault)


def plus_one_at_three(values: tuple) -> tuple:
    if len(values) <= 3:
        return values
    return values[:3] + (values[3] + 1,) + values[4:]


def test_unfaulted_audit_passes_every_corrected_report():
    assert failing_identities() == set()


def test_number_table_fault(monkeypatch):
    """M_3 gains r^3 as the Euler-Seidel step makes it, so H_3 = M_3 / r^3
    is one larger in every read of the table's integer form: ``fe_number``,
    ``fe_polynomial`` and the formula window.  The diagonal is left as it
    is, so no other H_k moves."""
    u = Fraction(2)

    def numbers():
        """H_0..H_5 from a fresh table, by ``fe_number`` and from the
        integer form; the two must agree."""
        frobenius._table.cache_clear()
        try:
            read = tuple(frobenius.fe_number(n, u) for n in range(6))
        finally:
            frobenius._table.cache_clear()
        nums, d = frobenius._NumberTable(u).integer_form(0, 6)
        assert tuple(Fraction(v, d) for v in nums) == read
        return read

    want = plus_one_at_three(numbers())
    step = frobenius._seidel_step

    def faulty(p, r, diagonal):
        m, next_diagonal = step(p, r, diagonal)
        return (m + r**3 if len(diagonal) == 3 else m), next_diagonal

    monkeypatch.setattr(frobenius, "_seidel_step", faulty)
    assert numbers() == want
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
    assert failing_identities() == {
        "corollary2",
        "corollary5",
        "eq60_multinomial",
        "theorem1",
        "theorem3",
    }


def test_multinomial_fault(monkeypatch):
    multinomial = verify.multinomial

    def faulty(n, parts):
        return multinomial(n, parts) + (n == 3)

    monkeypatch.setattr(verify, "multinomial", faulty)
    assert failing_identities() == {"corollary4", "eq60_multinomial"}


def test_series_mul_fault(monkeypatch):
    series_mul = series.series_mul

    def faulty(a, b):
        return EgfSeries(plus_one_at_three(series_mul(a, b).coeffs))

    patch_callers(monkeypatch, "series_mul", faulty, [series, verify])
    assert failing_identities() == {
        "corollary2",
        "corollary5",
        "eq60_multinomial",
        "theorem1",
        "theorem3",
    }


def test_series_reciprocal_fault(monkeypatch):
    series_reciprocal = series.series_reciprocal

    def faulty(a):
        return EgfSeries(plus_one_at_three(series_reciprocal(a).coeffs))

    patch_callers(monkeypatch, "series_reciprocal", faulty, [series])
    assert failing_identities() == {
        "bernoulli_product",
        "carlitz_reciprocal",
        "corollary2",
        "corollary5",
        "eq60_multinomial",
        "theorem1",
        "theorem3",
    }


def test_triangle_recurrence_fault(monkeypatch):
    triangle_recurrence = stirling.triangle_recurrence

    def faulty(n_max):
        rows = triangle_recurrence(n_max).rows
        return StirlingTriangle(
            tuple(row[:1] + (row[1] + 1,) + row[2:] if len(row) > 1 else row for row in rows)
        )

    # the stirling table reads stirling.triangle_recurrence when it runs
    patch_callers(monkeypatch, "triangle_recurrence", faulty, [stirling, frobenius])
    assert failing_identities() == {
        "corollary2",
        "corollary4",
        "corollary5",
        "theorem1",
        "theorem3",
    }


def test_polynomial_mul_fault(monkeypatch):
    mul = Polynomial.__mul__

    def faulty(self, other):
        return Polynomial(plus_one_at_three(mul(self, other).coeffs))

    monkeypatch.setattr(Polynomial, "__mul__", faulty)
    monkeypatch.setattr(Polynomial, "__rmul__", faulty)
    assert failing_identities() == {"bernoulli_product", "carlitz_product", "carlitz_reciprocal"}


def test_bernoulli_oracle_fault(monkeypatch):
    bernoulli_oracle = series.bernoulli_oracle

    def faulty(order):
        return EgfSeries(plus_one_at_three(bernoulli_oracle(order).coeffs))

    patch_callers(monkeypatch, "bernoulli_oracle", faulty, [series, frobenius])
    assert failing_identities() == {"bernoulli_product", "carlitz_reciprocal"}


def test_weak_compositions_fault(monkeypatch):
    weak_compositions = exact.weak_compositions

    def faulty(total, num_parts):
        items = weak_compositions(total, num_parts)
        if total == 3:
            next(items)
        return items

    patch_callers(monkeypatch, "weak_compositions", faulty, [exact, verify])
    assert failing_identities() == {"corollary4", "eq60_multinomial"}

