"""Properties of the number kernel: the fraction-free prefix tables behind
H_n(u), the per-u caches of both routes, the kept u-independent Pascal
rows and composition terms, square-and-multiply series powers, the shared
Bernoulli prefix, and the integer convolutions behind series and
polynomial products."""

import math
import random
import sys
import threading
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feident import cli, exact, frobenius, series, stirling, verify
from feident.exact import binomial, binomial_rows, weak_compositions
from feident.frobenius import (
    bernoulli_number,
    euler_polynomial,
    fe_higher_number_formula,
    fe_higher_numbers,
    fe_higher_polynomial,
    fe_number,
    fe_polynomial,
)
from feident.poly import Polynomial
from feident.stirling import triangle_recurrence
from feident.series import (
    EgfSeries,
    bernoulli_oracle,
    frobenius_oracle,
    series_mul,
    series_pow,
    series_reciprocal,
)
from feident.verify import DEFAULT_GRID, _composition_sum, _expand, audit_all, document_json

KERNEL_US = [Fraction(1, 3), Fraction(2), Fraction(-5, 7), Fraction(-1), Fraction(0), Fraction(9, 8)]
N_MAX = 80


def fraction_recurrence(n_max, u):
    """H_0(u)..H_{n_max}(u) by the plain Fraction recurrence
    H_n = sum_{l<n} C(n,l) H_l / (u - 1), independent of the kernel."""
    values = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = sum(math.comb(n, l) * values[l] for l in range(n))
        values.append(acc / (u - 1))
    return values


REFERENCE = {u: fraction_recurrence(N_MAX, u) for u in KERNEL_US}


@pytest.fixture
def fresh_tables():
    frobenius._table.cache_clear()
    yield
    frobenius._table.cache_clear()


class TestPrefixTables:
    @pytest.mark.parametrize("u", KERNEL_US, ids=str)
    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_matches_fraction_recurrence(self, fresh_tables, u, order):
        indices = list(range(N_MAX + 1))
        if order == "descending":
            indices.reverse()
        elif order == "shuffled":
            random.Random(f"{u}").shuffle(indices)
        for n in indices:
            assert fe_number(n, u) == REFERENCE[u][n], (u, n)

    def test_past_eviction(self, fresh_tables):
        bound = frobenius._TABLE_BOUND
        many = [Fraction(p, q) for q in range(2, 40) for p in range(-7, 8)
                if Fraction(p, q).denominator == q][: bound + 40]
        assert len(set(many)) > bound
        for i, u in enumerate(many):
            assert fe_number(5 + i % 7, u) == fraction_recurrence(5 + i % 7, u)[-1]
        assert frobenius._table.cache_info().currsize <= bound
        # the earliest tables were evicted; asking again rebuilds them
        for u in many[:10] + KERNEL_US:
            assert fe_number(30, u) == fraction_recurrence(30, u)[30]

    @pytest.mark.parametrize("u", KERNEL_US, ids=str)
    def test_polynomial_reads_the_same_table(self, fresh_tables, u):
        for n in (0, 1, 7, 20):
            poly = fe_polynomial(n, u)
            for d in range(n + 1):
                want = Fraction(binomial(n, d)) * REFERENCE[u][n - d]
                assert poly.coefficient(d) == want

    def test_euler_polynomial_at_zero(self, fresh_tables):
        for n in range(20):
            assert euler_polynomial(n)(Fraction(0)) == REFERENCE[Fraction(-1)][n]

    # u = 2 and 3/2 have r = p - q = 1; 0 and 1/2 have r = -1; 1/3, -5/7
    # and -3 have r < 0, so odd n takes its sign from integer_form's scales
    @pytest.mark.parametrize("u", [Fraction(2), Fraction(3, 2), Fraction(0), Fraction(1, 2),
                                   Fraction(1, 3), Fraction(-5, 7), Fraction(-3)], ids=str)
    def test_matches_the_series_oracle(self, fresh_tables, u):
        """Descending, then repeated, reads of one table equal the
        generating function's coefficients."""
        oracle = frobenius_oracle(u, 41).coeffs
        for n in [*range(41, -1, -1), 41, 3, 3, 0, 17]:
            assert fe_number(n, u) == oracle[n], (u, n)
        assert frobenius._table.cache_info().currsize == 1

    def test_routes_stay_independent(self, monkeypatch, fresh_tables):
        """The closed-form route must not touch the series code."""

        def forbidden(*args, **kwargs):
            raise AssertionError("closed-form route called the series route")

        for name in ("series_pow", "frobenius_oracle", "bernoulli_oracle"):
            monkeypatch.setattr(frobenius, name, forbidden)
        u = Fraction(-5, 7)
        assert fe_number(12, u) == REFERENCE[u][12]
        assert fe_polynomial(6, u).coefficient(0) == REFERENCE[u][6]
        fe_higher_number_formula(4, 3, u)

    def test_series_does_not_import_the_kernel(self):
        assert "frobenius import" not in Path(series.__file__).read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "u", [Fraction(2), Fraction(1, 3), Fraction(-5, 7), Fraction(-1)], ids=str
    )
    def test_matches_the_derivative_polynomials_of_the_ode(self, fresh_tables, u):
        """A third route, from the paper's ODE F' = -F - uF^2 for
        F = 1/(e^t - u): F^(n) = P_n(F), and with u = p/q, s = q - p the
        scaled coefficients E_{n,j} of P_n obey E_{0,1} = 1,
        E_{n+1,j} = -j s E_{n,j} - (j-1) p E_{n,j-1}, and
        H_n(u) = sum_j E_{n,j} / s^n.  It shares no code with the table."""
        p, s = u.numerator, u.denominator - u.numerator
        row, sums = [0, 1], [1]  # row[j] = E_{n,j}
        for _ in range(200):
            row = [0] + [-j * s * row[j] - (j - 1) * p * row[j - 1]
                         for j in range(1, len(row))] + [-(len(row) - 1) * p * row[-1]]
            sums.append(sum(row))
        assert [fe_number(n, u) for n in range(201)] == [
            Fraction(total, s**n) for n, total in enumerate(sums)]


GROWTH_US = [Fraction(0), Fraction(-1), Fraction(2), Fraction(1, 3), Fraction(-5, 7)]
growth_u = st.one_of(
    st.sampled_from(GROWTH_US),
    st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(lambda u: u != 1),
)
# (kind, index, window width or order)
table_read = st.tuples(st.sampled_from(["number", "polynomial", "window"]),
                       st.integers(0, 50), st.integers(1, 5))


class TestGrowthOrder:
    """Reads in any order see the values of a table built once to the
    largest index, in either form."""

    @given(growth_u, st.lists(table_read, min_size=1, max_size=10))
    @settings(deadline=None, max_examples=120)
    def test_interleaved_reads(self, u, reads):
        frobenius._table.cache_clear()
        top = max(n + extra for _, n, extra in reads)
        once = frobenius._NumberTable(u)
        r = u.numerator - u.denominator
        want = [Fraction(m, r**k) for k, m in enumerate(once._numerators(top)[: top + 1])]
        largest = 0  # the largest index read
        for kind, n, extra in reads:
            largest = max(largest, n if kind != "window" else n + extra - 1)
            if kind == "number":
                assert fe_number(n, u) == want[n]
            elif kind == "polynomial":
                poly = fe_polynomial(n, u)
                assert poly.integer_form[1] > 0
                assert poly == Polynomial.appell(want[: n + 1])
            else:
                nums, d = frobenius._table(u).integer_form(n, n + extra)
                assert d == abs(r) ** (n + extra - 1)
                assert [Fraction(v, d) for v in nums] == want[n: n + extra]
                if u != 0:
                    # the formula of order ``extra`` at n reads H_n..H_(n+extra-1)
                    row = triangle_recurrence(extra).row(extra)
                    factor = ((u - 1) / u) ** (extra - 1) / math.factorial(extra - 1)
                    assert fe_higher_number_formula(n, extra, u) == factor * sum(
                        a * want[n + k] for k, a in enumerate(row))
        table = frobenius._table(u)
        ms, diagonal = table._state
        assert ms == once._numerators(top)[: len(ms)]
        assert diagonal[-1] == u.denominator * ms[-1]
        # grown one step at a time to exactly the largest index read
        assert len(ms) == largest + 1


# (kind, n, N); N is unused by the order-1 reads
served_read = st.tuples(
    st.sampled_from(["higher_numbers", "higher_polynomial", "polynomial", "number"]),
    st.integers(0, 16), st.integers(1, 6))
# more parameter values than the tables kept, none of them a growth_u
EVICTORS = [Fraction(k, 97) for k in range(1, frobenius._TABLE_BOUND + 2)]


def fresh_power(u, n, order):
    return series_pow(frobenius_oracle(u, n), order)


class TestCacheServing:
    """Each table serves both routes' values, in any order of reads and
    after eviction, exactly as a fresh computation gives them."""

    @given(growth_u, st.lists(served_read, min_size=1, max_size=12),
           st.sampled_from(["ascending", "descending", "shuffled"]), st.booleans(), st.randoms())
    @settings(deadline=None, max_examples=100)
    def test_reads_match_fresh_values(self, u, reads, order, evict, rng):
        frobenius._table.cache_clear()
        reads.sort(key=lambda read: read[1:], reverse=order == "descending")
        if order == "shuffled":
            rng.shuffle(reads)
        want = fraction_recurrence(max(n for _, n, _ in reads), u)
        for i, (kind, n, N) in enumerate(reads):
            if kind == "higher_numbers":
                assert fe_higher_numbers(n, N, u) == fresh_power(u, n, N).coeffs
            elif kind == "higher_polynomial":
                assert fe_higher_polynomial(n, N, u) == Polynomial.appell(fresh_power(u, n, N))
            elif kind == "polynomial":
                assert fe_polynomial(n, u) == Polynomial.appell(want[: n + 1])
            else:
                assert fe_number(n, u) == want[n]
            if evict and i % 2:
                for v in EVICTORS:
                    fe_number(0, v)
                assert frobenius._table.cache_info().currsize <= frobenius._TABLE_BOUND
        frobenius._table.cache_clear()

    def test_each_route_fills_only_its_own_slots(self, fresh_tables):
        u = Fraction(-5, 7)
        fe_number(9, u)
        table = frobenius._table(u)
        table.polynomial(6)
        fe_higher_number_formula(4, 3, u)
        assert table._powers == {} and set(table._polynomials) == {6}
        fe_higher_polynomial(5, 3, u)
        assert table._powers[1].order == 5 and table._powers[3].order == 5
        assert set(table._polynomials) == {6}
        assert fe_higher_numbers(3, 3, u) == fresh_power(u, 3, 3).coeffs
        assert table._powers[3].order == 5

    def test_fe_polynomial_keeps_nothing(self, fresh_tables):
        """``fe_polynomial`` builds each H_n(x|u) anew from the prefix; only
        the table's own ``polynomial``, which the Carlitz checks read, keeps
        one."""
        u = Fraction(5, 8)
        want = fraction_recurrence(12, u)
        for n in range(13):
            assert fe_polynomial(n, u) == Polynomial.appell(want[: n + 1])
        table = frobenius._table(u)
        assert table._polynomials == {}
        assert table.polynomial(7) is table.polynomial(7)
        assert set(table._polynomials) == {7}

    def test_powers_share_the_kept_f(self, monkeypatch, fresh_tables):
        """F is computed once for its largest order; each power is one
        series_pow of a truncation of it, redone only for a larger order."""
        calls = []

        def counted(name, kernel):
            def call(*args):
                calls.append(name)
                return kernel(*args)
            return call

        monkeypatch.setattr(frobenius, "frobenius_oracle",
                            counted("oracle", frobenius.frobenius_oracle))
        monkeypatch.setattr(frobenius, "series_pow", counted("pow", frobenius.series_pow))
        u = Fraction(1, 3)
        fe_higher_numbers(8, 1, u)
        for N in (2, 3, 4, 2, 3):
            fe_higher_numbers(6, N, u)
        fe_higher_numbers(7, 4, u)
        assert calls == ["oracle", "pow", "pow", "pow", "pow"]
        fe_higher_numbers(9, 2, u)
        assert calls[5:] == ["oracle", "pow"]

    @pytest.mark.parametrize("check", [verify.verify_theorem1, verify.verify_corollary2])
    @pytest.mark.parametrize("N", [1, 2, 4, 5])
    def test_theorem1_computes_f_once(self, monkeypatch, fresh_tables, check, N):
        """theorem1 reads F to order T before F^N to order T-(N-1), so the
        table computes F once; the other order of reads would compute it
        to T-(N-1) first and then again to T."""
        calls = []
        oracle = frobenius.frobenius_oracle

        def counted(u, order):
            calls.append(order)
            return oracle(u, order)

        monkeypatch.setattr(frobenius, "frobenius_oracle", counted)
        args = (N, Fraction(-5, 7)) + ((Fraction(1, 2),) if check is verify.verify_corollary2 else ())
        assert check(*args, 24).verdict == "pass"
        assert calls == [24]


def test_audit_work_counts(monkeypatch, fresh_tables):
    """A default audit on fresh tables and a fresh Bernoulli prefix computes
    F and its powers, inverts a series, builds the coefficient triangle and
    builds the kept Appell polynomials of the tables at most this many
    times.  Without the per-u caches it took 276 F, 276 powers and 864
    polynomials; while the checkers still made their own F and triangle
    weights per report, 21 F, 87 inversions and 398 triangles; while
    theorem1 and corollary2 still raised F to powers and built triangle
    rows in ``verify``, 125 powers and 86 triangles."""
    counts = Counter()

    def counted(name, kernel):
        def call(*args):
            counts[name] += 1
            return kernel(*args)
        return call

    # every binding of the kernels, as a caller sees them
    for name, home in (("frobenius_oracle", series), ("series_pow", series),
                       ("series_reciprocal", series), ("triangle_recurrence", stirling)):
        kernel = getattr(home, name)
        for module in (home, frobenius, verify, cli):
            if getattr(module, name, None) is kernel:
                monkeypatch.setattr(module, name, counted(name, kernel))
    monkeypatch.setattr(series, "_bernoulli_prefix", EgfSeries([Fraction(1)]))

    appell = Polynomial.appell.__func__
    builder = frobenius._NumberTable.polynomial.__code__

    def counting_appell(cls, numbers):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not builder:
            frame = frame.f_back
        counts["appell"] += frame is not None
        return appell(cls, numbers)

    monkeypatch.setattr(Polynomial, "appell", classmethod(counting_appell))
    audit_all()
    assert counts["frobenius_oracle"] <= 3
    assert counts["series_pow"] <= 12
    assert 0 < counts["appell"] <= 49
    assert counts["series_reciprocal"] <= 7
    assert counts["triangle_recurrence"] <= 30


def table_parameters(combo) -> set:
    """The parameter values whose number tables one check reads: u, or
    alpha and beta with alpha*beta (Carlitz) or 1/alpha (reciprocal)."""
    values = {combo[name] for name in ("u", "alpha", "beta") if name in combo}
    if "alpha" in combo:
        values.add(combo["alpha"] * combo["beta"] if "beta" in combo else 1 / combo["alpha"])
    return values


def audit_grids():
    """The built-in grid and the benchmark's seeded audit grids."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import inputs
    finally:
        sys.path.pop(0)
    return [DEFAULT_GRID] + [inputs.audit_grid(seed) for seed in (0, 1, 7, 311, 999)]


def test_table_bound_covers_each_identity_block():
    """Every identity block of an audit reads few enough parameter values
    that none of its tables is evicted while the block runs."""
    widest = 0
    for grid in audit_grids():
        for identity, config in grid.items():
            values = set().union(*map(table_parameters, _expand(identity, config)))
            widest = max(widest, len(values))
    assert 9 <= widest <= frobenius._TABLE_BOUND


@pytest.fixture
def cold_combinatorics(monkeypatch):
    """No kept Pascal row past C(0, .) and no kept composition terms; the
    rows kept before are put back after the test."""
    monkeypatch.setattr(exact, "_kept_rows", ((1,),))
    verify._composition_terms.cache_clear()
    yield
    verify._composition_terms.cache_clear()


def sweep_op(u):
    """One op of the benchmark's ``sweep`` workload at u: every report
    must pass."""
    frobenius.fe_polynomial(60, u)
    reports = [
        verify.verify_theorem3(6, 4, u),
        verify.verify_corollary4(6, 4, u),
        verify.verify_corollary5(8, 3, u),
        verify.verify_theorem1(4, u, 24),
        verify.verify_carlitz(6, 6, u, 5 if 3 * u == 1 else 3),
        verify.verify_product_multinomial(5, 3, u),
    ]
    assert [r.verdict for r in reports] == ["pass"] * len(reports)


def streamed_sum(k, N, nums):
    """The composition sum over ``weak_compositions`` as it streams, with
    ``math`` multinomials: no kept terms."""
    total = 0
    for parts in weak_compositions(k, N):
        prod = math.factorial(k)
        for l in parts:
            prod = prod // math.factorial(l) * nums[l]
        total += prod
    return total


class TestKeptCombinatorics:
    """The Pascal rows and composition terms depend on no parameter, so they
    are kept for the life of the process, within fixed bounds: a new u
    pays only for its own numbers, and no value depends on what was
    computed before."""

    def test_a_new_u_rebuilds_no_combinatorics(self, monkeypatch, cold_combinatorics):
        frobenius._table.cache_clear()
        sweep_op(Fraction(7, 11))
        rows = exact._kept_rows
        assert len(rows) == 25  # theorem1 at T = 24 reads the longest series
        counts = Counter()
        for name in ("multinomial", "weak_compositions"):
            kernel = getattr(verify, name)

            def counted(*args, name=name, kernel=kernel):
                counts[name] += 1
                return kernel(*args)

            monkeypatch.setattr(verify, name, counted)
        sweep_op(Fraction(-13, 6))
        assert counts == {}
        # a row built up to n = 64 would have replaced the kept ones
        assert exact._kept_rows is rows
        frobenius._table.cache_clear()

    def test_rows_above_64_are_built_not_kept(self, cold_combinatorics):
        rng = random.Random(3)
        xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(201)]
        assert list(series_mul(EgfSeries(xs), EgfSeries(xs)).coeffs) == fraction_series_mul(xs, xs)
        assert len(exact._kept_rows) == 65
        assert [list(row) for row in binomial_rows(200)] == [
            [math.comb(n, k) for k in range(n + 1)] for n in range(201)]
        assert len(exact._kept_rows) == 65

    @pytest.mark.parametrize("t", [0, 1, 5, 64, 65, 70])
    def test_rows_warm_equal_rows_cold(self, cold_combinatorics, t):
        cold = list(binomial_rows(t))
        assert len(exact._kept_rows) == min(t, 64) + 1
        assert cold == list(binomial_rows(t)) == [
            tuple(math.comb(n, k) for k in range(n + 1)) for n in range(t + 1)]

    def test_large_enumerations_stream(self, cold_combinatorics):
        nums = list(range(-6, 7))
        assert math.comb(12 + 4, 4) == 1820
        assert _composition_sum(12, 5, nums) == streamed_sum(12, 5, nums)
        assert verify._composition_terms.cache_info().currsize == 0
        # 256 tuples are kept, 257 stream
        assert _composition_sum(255, 2, range(256)) == streamed_sum(255, 2, range(256))
        assert _composition_sum(256, 2, range(257)) == streamed_sum(256, 2, range(257))
        assert verify._composition_terms.cache_info().currsize == 1

    def test_at_most_64_enumerations_are_kept(self, cold_combinatorics):
        nums = [3, -1, 4, -1, 5, -9, 2, 6, -5, 3]
        for k in range(10):
            for N in range(1, 11):
                assert _composition_sum(k, N, nums) == streamed_sum(k, N, nums)
        assert verify._composition_terms.cache_info().currsize == 64

    def test_reports_with_cold_caches_equal_reports_with_warm_ones(self, monkeypatch):
        """The default audit and a grid at other parameters of every
        identity, first on cold caches, then on caches warmed by both."""
        grid = {
            "theorem1": {"variant": ["corrected"], "N": [5], "u": ["3/4"], "T": [14]},
            "corollary2": {"variant": ["corrected"], "N": [3], "u": ["-3"], "x": ["2/5"],
                           "T": [9]},
            "theorem3": {"variant": ["corrected"], "n": [8], "N": [5], "u": ["7/2"]},
            "corollary4": {"variant": ["as_printed", "corrected"], "n": [7, 12], "N": [4, 5],
                           "u": ["-1/4"]},
            "corollary5": {"variant": ["corrected"], "n": [7], "N": [5], "u": ["5/3"]},
            "eq60_multinomial": {"n": [9], "N": [4], "u": ["-7/9"]},
            "carlitz_product": {"variant": ["corrected"], "m": [5], "n": [4],
                                "alpha_beta": [["3/2", "-4"]]},
            "carlitz_reciprocal": {"m": [4], "n": [5], "alpha": ["-3/2"]},
            "bernoulli_product": {"m": [6], "n": [5]},
        }

        def cold(run):
            frobenius._table.cache_clear()
            verify._composition_terms.cache_clear()
            monkeypatch.setattr(exact, "_kept_rows", ((1,),))
            monkeypatch.setattr(series, "_bernoulli_prefix", EgfSeries([Fraction(1)]))
            return document_json(run())

        cold_docs = [cold(audit_all), cold(lambda: audit_all(grid))]
        warm_docs = [document_json(audit_all()), document_json(audit_all(grid))]
        assert warm_docs == cold_docs
        frobenius._table.cache_clear()
        verify._composition_terms.cache_clear()


coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def repeated_mul(a, exponent):
    out = a
    for _ in range(exponent - 1):
        out = series_mul(out, a)
    return out


class TestSeriesPow:
    @given(st.lists(coeff, min_size=1, max_size=7), st.integers(1, 9), st.booleans())
    @settings(deadline=None, max_examples=60)
    def test_fraction_coefficients(self, coeffs, exponent, zero_constant):
        if zero_constant:
            coeffs = [Fraction(0)] + coeffs[1:]
        a = EgfSeries(coeffs)
        assert series_pow(a, exponent) == repeated_mul(a, exponent)

    @pytest.mark.parametrize("exponent,products", [(1, 0), (2, 1), (3, 2), (8, 3), (20, 5)])
    def test_product_count(self, monkeypatch, exponent, products):
        calls = []

        def counting_mul(a, b):
            calls.append(1)
            return series_mul(a, b)

        monkeypatch.setattr(series, "series_mul", counting_mul)
        series_pow(EgfSeries([1, 1, 1]), exponent)
        assert len(calls) == products


def fresh_bernoulli(order):
    return series_reciprocal(EgfSeries([Fraction(1, n + 1) for n in range(order + 1)]))


class TestBernoulliPrefix:
    def test_truncations_after_a_larger_call(self):
        bernoulli_oracle(90)
        for k in (0, 1, 2, 17, 64, 90):
            assert bernoulli_oracle(k) == fresh_bernoulli(k)

    def test_growth_past_the_prefix(self):
        bernoulli_oracle(10)
        assert bernoulli_oracle(123) == fresh_bernoulli(123)
        assert bernoulli_oracle(40) == fresh_bernoulli(40)

    def test_one_oracle_call_per_number(self, monkeypatch):
        calls = []

        def counting_oracle(order):
            calls.append(order)
            return bernoulli_oracle(order)

        monkeypatch.setattr(frobenius, "bernoulli_oracle", counting_oracle)
        for n in range(12):
            bernoulli_number(n)
        assert calls == list(range(12))

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        for n in range(0, 151):
            b = sympy.bernoulli(n)
            want = Fraction(int(b.p), int(b.q))
            # SymPy has B_1 = +1/2; this package uses t/(e^t - 1), B_1 = -1/2
            assert bernoulli_number(n) == (-want if n == 1 else want), n


def fraction_series_mul(a, b):
    """c_n = sum_k C(n,k) a_k b_{n-k}, one Fraction operation at a time."""
    t = min(len(a), len(b)) - 1
    return [sum((math.comb(n, k) * (a[k] * b[n - k]) for k in range(n + 1)), Fraction(0))
            for n in range(t + 1)]


def fraction_series_reciprocal(a):
    """b_0 = 1/a_0, b_n = -(1/a_0) sum_{k<n} C(n,k) a_{n-k} b_k in Fractions."""
    inv0 = Fraction(1) / a[0]
    out = [inv0]
    for n in range(1, len(a)):
        acc = sum((math.comb(n, k) * (a[n - k] * out[k]) for k in range(n)), Fraction(0))
        out.append(-inv0 * acc)
    return out


def fraction_poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


HEIGHT = 10**6
# zero, int-valued and mixed-denominator coefficients of height up to 10^6
scalar = st.one_of(
    st.just(0),
    st.integers(-HEIGHT, HEIGHT),
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-HEIGHT, HEIGHT), st.integers(1, HEIGHT)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
)
scalars = st.lists(scalar, min_size=1, max_size=12)


def exact_fractions(values):
    return all(type(v) is Fraction for v in values)


class TestIntegerConvolution:
    @given(scalars, scalars)
    @settings(deadline=None, max_examples=150)
    def test_series_mul(self, xs, ys):
        product = series_mul(EgfSeries(xs), EgfSeries(ys))
        want = fraction_series_mul([Fraction(x) for x in xs], [Fraction(y) for y in ys])
        assert list(product.coeffs) == want
        assert product.order == min(len(xs), len(ys)) - 1
        assert exact_fractions(product.coeffs)

    @given(scalars)
    @settings(deadline=None, max_examples=150)
    def test_series_reciprocal(self, xs):
        if xs[0] == 0:
            xs = [1] + xs[1:]
        inverse = series_reciprocal(EgfSeries(xs))
        assert list(inverse.coeffs) == fraction_series_reciprocal([Fraction(x) for x in xs])
        assert exact_fractions(inverse.coeffs)

    @given(scalars, scalars)
    @settings(deadline=None, max_examples=150)
    def test_polynomial_mul(self, xs, ys):
        product = Polynomial(xs) * Polynomial(ys)
        assert product == Polynomial(fraction_poly_mul([Fraction(x) for x in xs],
                                                       [Fraction(y) for y in ys]))
        assert exact_fractions(product.coeffs)

    def test_order_zero(self):
        assert series_mul(EgfSeries([Fraction(-3, 4)]), EgfSeries([6, 1, 2])) == EgfSeries(
            [Fraction(-9, 2)])
        assert series_reciprocal(EgfSeries([Fraction(-3, 4)])) == EgfSeries([Fraction(-4, 3)])
        assert Polynomial([Fraction(2, 3)]) * Polynomial([0]) == Polynomial.zero()

    def test_large_order_against_fraction_loops(self):
        rng = random.Random(5)
        xs = [Fraction(rng.randint(-HEIGHT, HEIGHT), rng.randint(1, HEIGHT)) for _ in range(41)]
        ys = [Fraction(rng.randint(-HEIGHT, HEIGHT), rng.randint(1, 50)) for _ in range(60)]
        assert list(series_mul(EgfSeries(xs), EgfSeries(ys)).coeffs) == fraction_series_mul(xs, ys)
        assert list(series_reciprocal(EgfSeries(ys)).coeffs) == fraction_series_reciprocal(ys)
        assert list((Polynomial(xs) * Polynomial(ys)).coeffs) == fraction_poly_mul(xs, ys)

    def test_polynomial_keeps_fraction_coefficients(self):
        c = Fraction(-7, 3)
        read = Polynomial([1, c]).coeffs[1]
        assert type(read) is Fraction and read == c


@pytest.mark.parametrize("n", [200, 300, 400])
def test_bernoulli_against_sympy_at_large_n(n):
    sympy = pytest.importorskip("sympy")
    b = sympy.bernoulli(n)
    assert bernoulli_number(n) == Fraction(int(b.p), int(b.q))


def test_concurrent_readers_see_correct_values(monkeypatch):
    """Threads that grow the same fresh tables, Pascal rows and composition
    terms at once may redo work, but every value any of them reads is
    right."""
    us = [Fraction(p, 11) for p in range(-12, 12) if p != 11]
    want = {u: fraction_recurrence(40, u) for u in us}
    bernoulli_want = {n: bernoulli_oracle(n)[n] for n in range(0, 61, 6)}
    pascal = [tuple(math.comb(n, k) for k in range(n + 1)) for n in range(71)]
    nums = [2, -3, 5, 7, -11, 13, 1]
    errors = []

    def reader(seed):
        rng = random.Random(seed)
        try:
            for u in rng.sample(us, len(us)):
                for n in rng.sample(range(41), 41):
                    if fe_number(n, u) != want[u][n]:
                        errors.append((u, n))
                k = rng.choice(list(bernoulli_want))
                if bernoulli_number(k) != bernoulli_want[k]:
                    errors.append(("B", k))
                t = rng.randrange(71)
                if list(binomial_rows(t)) != pascal[: t + 1]:
                    errors.append(("rows", t))
                k, N = rng.randrange(7), rng.randrange(1, 5)
                if _composition_sum(k, N, nums) != streamed_sum(k, N, nums):
                    errors.append(("terms", k, N))
        except Exception as exc:  # reported through the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(3):
            frobenius._table.cache_clear()
            verify._composition_terms.cache_clear()
            monkeypatch.setattr(exact, "_kept_rows", ((1,),))
            threads = [threading.Thread(target=reader, args=(8 * round_ + i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert errors == []
