"""Each identity check reads the routes it claims to read.

A fault planted in one route must make exactly the identities that read
that route fail, in their ``corrected`` form (or their only form).  The
two-route rule is what this pins: if a refactor moved one side of a check
onto the other side's code, a fault in that code would cancel out and the
identity would drop out of the failing set.

The number-table fault (M_3 one r^3 larger as the gamma route makes it,
so H_3 + 1) reaches every check that reads the order-1 prefix table
(the triangle formula, direct enumeration, polynomials of order 1); the
audit reads no index past 64, so the gamma route builds every prefix it
reads, and the same fault in the Euler-Seidel step reaches only tables
read past 64, which the deep grid (``tests/deep_grid.json``) reads;
the series-power fault reaches only the series route to higher-order
numbers, which corollary5, eq60_multinomial and theorem3 read through
``frobenius.power``, and theorem1 and corollary2 as F^N from the same
table, so all five read ``frobenius.series_pow``.  The multinomial fault (one more at k = 3)
reaches only the composition sum, which corollary4 and eq60_multinomial
read on their direct-enumeration side, and so does the weak-composition
fault (the first composition of 3 dropped).

The kernel faults below are patched in every module that binds the
kernel by name, as a caller sees it:

- ``series_mul`` reaches, through ``series_pow``, the powers of F that
  theorem1, corollary2, theorem3, corollary5 and eq60 read from the
  table, and the e^{xt} factor of corollary2;
- ``series_reciprocal`` reaches F itself, which every series route reads
  from the table of u (the reciprocal of (e^t - u)/(1 - u), which the
  table extends through ``series.series_reciprocal``), so the same
  identities, and the Bernoulli oracle behind the Bernoulli polynomials
  of carlitz_reciprocal and bernoulli_product;
- ``triangle_recurrence`` (a_1(N) + 1 for N >= 2) reaches every
  triangle-formula side, each of which reads its weights from the table:
  theorem1, corollary2, theorem3, corollary4 and corollary5, and the
  ``Decimal`` rows that ``table stirling`` prints from the same stream;
- ``Polynomial.__mul__`` reaches only the polynomial products of the
  Carlitz and Bernoulli identities;
- ``bernoulli_oracle`` (B_3 + 1) reaches only the Bernoulli numbers and
  polynomials, which carlitz_reciprocal and bernoulli_product read on
  their expansion side.

These sets do not depend on how the package loads: the checkers that
``feident`` exports on first access are the objects of ``feident.verify``.
"""

import json
from fractions import Fraction
from pathlib import Path

from caches import cold_caches
from feident import exact, frobenius, prefix, series, stirling, verify
from feident.cli import run
from feident.poly import Polynomial
from feident.series import EgfSeries
from feident.verify import audit_all

# An opt-in grid (``feident audit --grid tests/deep_grid.json``) whose
# tables are read past 64, where Euler-Seidel builds the prefix.
DEEP_GRID = Path(__file__).with_name("deep_grid.json")


def failing_identities(grid=None) -> set:
    """Identities with a failing non-``as_printed`` report in the audit of
    ``grid`` (the default grid when None), run on cold caches
    (:func:`cold_caches`).  The number tables
    hold both routes' caches: the prefix and polynomials of the recurrence
    route and the series route's powers of F; the kept composition terms
    must be cold for the multinomial and weak-composition faults to reach
    them, so a planted fault reaches every value the audit reads."""
    cold_caches()
    try:
        reports = audit_all(grid)
    finally:
        cold_caches()
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


def table_numbers(u: Fraction, top: int) -> tuple:
    """H_0..H_top from a fresh table grown to ``top`` at once, by
    ``fe_number`` (read from H_top down) and from the integer form; the two
    must agree."""
    cold_caches()
    try:
        read = tuple(reversed([frobenius.fe_number(n, u) for n in range(top, -1, -1)]))
    finally:
        cold_caches()
    nums, d = prefix._NumberTable(u).integer_form(0, top + 1)
    assert tuple(Fraction(v, d) for v in nums) == read
    return read


def test_number_table_fault(monkeypatch):
    """M_3 gains r^3 as the gamma route makes it, so H_3 = M_3 / r^3 is one
    larger in every read of the table's integer form: ``fe_number``,
    ``fe_polynomial`` and the formula window.  Each M_n is its own sum, so
    no other H_k moves."""
    u = Fraction(2)
    want = plus_one_at_three(table_numbers(u, 5))
    step = prefix._gamma_step

    def faulty(q, s, ts, gammas, n):
        m = step(q, s, ts, gammas, n)
        return m + (s - 2 * q) ** 3 if n == 3 else m  # r = p - q = s - 2q

    monkeypatch.setattr(prefix, "_gamma_step", faulty)
    assert table_numbers(u, 5) == want
    assert failing_identities() == {
        "carlitz_product",
        "carlitz_reciprocal",
        "corollary4",
        "corollary5",
        "eq60_multinomial",
        "theorem3",
    }


def test_euler_seidel_fault_past_64(monkeypatch):
    """M_3 gains r^3 as the Euler-Seidel step makes it, the diagonal left
    as it is: H_3 read from a fresh table grown to 70 is one larger, and no
    other H_k moves.  The default audit reads no index past 64, so no
    report sees it."""
    u = Fraction(2)
    clean = table_numbers(u, 70)
    step = prefix._seidel_step

    def faulty(p, r, diagonal):
        m, next_diagonal = step(p, r, diagonal)
        return (m + r**3 if len(diagonal) == 3 else m), next_diagonal

    monkeypatch.setattr(prefix, "_seidel_step", faulty)
    assert table_numbers(u, 70) == plus_one_at_three(clean)
    assert table_numbers(u, 64) == clean[:65]
    assert failing_identities() == set()


def deep_grid() -> dict:
    with open(DEEP_GRID, encoding="utf-8") as fh:
        return json.load(fh)


def test_deep_grid_passes_every_report():
    """The deep grid reads number tables past the switch at 64, and checks
    only ``corrected`` forms: every report passes."""
    cold_caches()
    try:
        reports = audit_all(deep_grid())
    finally:
        cold_caches()
    assert len(reports) == 104
    assert {r.verdict for r in reports} == {"pass"}


def test_euler_seidel_fault_on_the_deep_grid(monkeypatch):
    """M_80 one larger as the Euler-Seidel step makes it, the diagonal left
    as it is: the deep grid reads the table past 64 and catches it, where
    the default audit does not."""
    step = prefix._seidel_step

    def faulty(p, r, diagonal):
        m, next_diagonal = step(p, r, diagonal)
        return (m + 1 if len(diagonal) == 80 else m), next_diagonal

    monkeypatch.setattr(prefix, "_seidel_step", faulty)
    assert failing_identities() == set()
    assert failing_identities(deep_grid()) == {
        "carlitz_product",
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

    def faulty(a, head=None):
        return EgfSeries(plus_one_at_three(series_reciprocal(a, head).coeffs))

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


def test_triangle_recurrence_fault(monkeypatch, capsys):
    triangle_recurrence = stirling.triangle_recurrence

    def faulty(n_max, one=1):
        return (row[:1] + (row[1] + 1,) + row[2:] if len(row) > 1 else row
                for row in triangle_recurrence(n_max, one))

    # the stirling table reads stirling.triangle_recurrence when it runs
    patch_callers(monkeypatch, "triangle_recurrence", faulty, [stirling, frobenius])
    assert failing_identities() == {
        "corollary2",
        "corollary4",
        "corollary5",
        "theorem1",
        "theorem3",
    }
    # and its exact Decimal rows reach the printed table
    assert run(["table", "stirling", "--n-max", "3"]) == 0
    assert capsys.readouterr().out == "N,k,a_k\n1,0,1\n2,0,1\n2,1,2\n3,0,2\n3,1,4\n3,2,1\n"


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

