"""Properties of the number kernel: the fraction-free prefix tables behind
H_n(u), square-and-multiply series powers, and the shared Bernoulli prefix."""

import math
import random
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feident import frobenius, series
from feident.exact import binomial
from feident.frobenius import (
    bernoulli_number,
    euler_polynomial,
    fe_higher_number_formula,
    fe_number,
    fe_polynomial,
)
from feident.poly import Polynomial
from feident.series import (
    EgfSeries,
    bernoulli_oracle,
    series_mul,
    series_pow,
    series_reciprocal,
)

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


coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
small_poly = st.lists(coeff, min_size=1, max_size=3).map(Polynomial)


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

    @given(st.lists(small_poly, min_size=1, max_size=4), st.integers(1, 9), st.booleans())
    @settings(deadline=None, max_examples=30)
    def test_polynomial_coefficients(self, coeffs, exponent, zero_constant):
        if zero_constant:
            coeffs = [Polynomial.zero()] + coeffs[1:]
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


def test_concurrent_readers_see_correct_values():
    """Threads that grow the same fresh tables at once may redo work, but
    every value any of them reads is right."""
    us = [Fraction(p, 11) for p in range(-12, 12) if p != 11]
    want = {u: fraction_recurrence(40, u) for u in us}
    bernoulli_want = {n: bernoulli_oracle(n)[n] for n in range(0, 61, 6)}
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
        except Exception as exc:  # reported through the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(3):
            frobenius._table.cache_clear()
            threads = [threading.Thread(target=reader, args=(8 * round_ + i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert errors == []
