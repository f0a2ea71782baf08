"""Frobenius-Euler numbers and polynomials of all orders, plus their
Bernoulli and Euler companions.

The order-1 numbers H_n(u) are the EGF coefficients of (1-u)/(e^t - u);
they satisfy H_0 = 1 and, for n > 0,

    H_n(u) = (sum_{l<n} C(n,l) H_l(u)) / (u - 1).

By Carlitz, H_n(u) = A_n(u) / (u-1)^n with A_n the Eulerian polynomial,
so for u = p/q and r = p - q the denominator of H_n(u) divides r^n.  The
recurrence therefore runs fraction-free: H_n(u) = M_n / r^n with M_0 = 1
and

    M_n = q * sum_{l<n} C(n,l) M_l r^(n-1-l),

all in integers, with one gcd per value (when it becomes a Fraction)
instead of one per addition.  (The series expansion is kept in
:mod:`feident.series` as an independent oracle; this kernel never calls
it.)  Order-N numbers are the coefficients of the N-th power of the
order-1 EGF.

Each u gets one prefix table holding M_0..M_k and H_0..H_k, grown on
demand to the largest index asked for.  At most ``_TABLE_BOUND`` (256)
tables are kept, least recently used first out, so a long-lived process
that walks many distinct u holds a bounded number of tables; each one
holds what its largest index needed.  A table only ever publishes whole
new prefixes, so concurrent readers see correct values.

The closed formula for higher-order numbers in terms of the coefficient
triangle comes in two variants: ``corrected`` carries the prefactor
((u-1)/u)^(N-1), which the generating-function oracle confirms, and
``as_printed`` carries ((1-u)/u)^(N-1), the commonly typeset form whose
sign is wrong for even N.  Both are computable so that the verification
harness can audit the difference.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact import combine, common_denominator, exact_parameter
from .poly import Polynomial
from .series import EgfSeries, bernoulli_oracle, frobenius_oracle, series_pow
from .stirling import triangle_recurrence

__all__ = [
    "VARIANTS",
    "fe_number",
    "fe_polynomial",
    "fe_higher_numbers",
    "fe_higher_number_oracle",
    "fe_higher_number_formula",
    "fe_higher_polynomial",
    "euler_polynomial",
    "bernoulli_number",
    "bernoulli_polynomial",
]

VARIANTS = ("as_printed", "corrected")


def _check_at_least(name: str, value: int, low: int) -> None:
    if value < low:
        raise ValueError(f"{name} must be >= {low}")


def _check_u(u: Fraction, forbid_zero: bool = False) -> Fraction:
    u = exact_parameter(u)
    if u == 1:
        raise ValueError("u = 1 is outside the parameter domain")
    if forbid_zero and u == 0:
        raise ValueError("u = 0 is outside the parameter domain (division by u)")
    return u


def _check_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return variant


# Most parameter values u whose prefix tables are kept at once.
_TABLE_BOUND = 256


class _NumberTable:
    """H_0(u)..H_k(u) for one u = p/q, grown by prefix on demand."""

    __slots__ = ("_q", "_r", "_prefix")

    def __init__(self, u: Fraction):
        self._q = u.denominator
        self._r = u.numerator - u.denominator
        # (M_0..M_k, H_0..H_k); replaced whole, never mutated, so threads
        # extending one table at once may redo work but never read a
        # half-built prefix.
        self._prefix = ((1,), (Fraction(1),))

    def upto(self, n: int) -> tuple[Fraction, ...]:
        """H_0(u)..H_k(u) for some k >= n."""
        ms, hs = self._prefix
        if n < len(hs):
            return hs
        q, r = self._q, self._r
        ms, hs = list(ms), list(hs)
        r_pow = r ** (len(ms) - 1)
        for k in range(len(ms), n + 1):
            acc, c = 0, 1  # c = C(k, l)
            for l in range(k):
                acc = acc * r + c * ms[l]
                c = c * (k - l) // (l + 1)
            ms.append(q * acc)
            r_pow *= r
            hs.append(Fraction(ms[k], r_pow))
        self._prefix = (tuple(ms), tuple(hs))
        return self._prefix[1]


_table = lru_cache(maxsize=_TABLE_BOUND)(_NumberTable)


def fe_number(n: int, u: Fraction) -> Fraction:
    """n-th Frobenius-Euler number H_n(u), by recurrence."""
    _check_at_least("n", n, 0)
    return _table(_check_u(u)).upto(n)[n]


def fe_polynomial(n: int, u: Fraction) -> Polynomial:
    """H_n(x|u) = sum_l C(n,l) x^(n-l) H_l(u); monic of degree n."""
    _check_at_least("n", n, 0)
    return Polynomial.appell(_table(_check_u(u)).upto(n)[: n + 1])


def fe_higher_numbers(n_max: int, order: int, u: Fraction) -> tuple[Fraction, ...]:
    """H_0^(N)(u)..H_{n_max}^(N)(u) as coefficients of the N-th power of
    the order-1 generating function."""
    return _higher_series(n_max, order, u).coeffs


def _higher_series(n_max: int, order: int, u: Fraction) -> EgfSeries:
    """The N-th power of the order-1 EGF to order n_max, in integer form."""
    _check_at_least("n_max", n_max, 0)
    _check_at_least("order", order, 1)
    return series_pow(frobenius_oracle(_check_u(u), n_max), order)


def fe_higher_number_oracle(n: int, order: int, u: Fraction) -> Fraction:
    """H_n^(N)(u) through the series route (the oracle side of the
    two-route checks)."""
    return fe_higher_numbers(n, order, u)[n]


def fe_higher_number_formula(
    n: int, order: int, u: Fraction, variant: str = "corrected"
) -> Fraction:
    """H_n^(N)(u) through the coefficient-triangle route:

        factor^(N-1) / (N-1)! * sum_k a_k(N) H_{n+k}(u)

    with factor (u-1)/u for ``corrected`` and (1-u)/u for ``as_printed``.
    Shares nothing with the series route beyond basic arithmetic.
    """
    return _formula_numbers(n, order, u, variant, first=n)[0]


def _formula_numbers(
    n_max: int, order: int, u: Fraction, variant: str, first: int = 0
) -> EgfSeries:
    """H_first^(N)(u)..H_{n_max}^(N)(u) by :func:`fe_higher_number_formula`,
    in integer form, with the triangle row and the prefactor built once:
    entry n is sum_k prefactor * a_k(N) * H_{n+k}(u).  The window of the
    number table that the sum reads is put over one denominator once, and
    the sum is one integer combination of its shifted slices."""
    _check_at_least("n", n_max, 0)
    _check_at_least("order", order, 1)
    u = _check_u(u, forbid_zero=True)
    _check_variant(variant)
    factor = (1 - u) / u if variant == "as_printed" else (u - 1) / u
    prefactor = factor ** (order - 1) / math.factorial(order - 1)
    row = triangle_recurrence(order).row(order)
    end = n_max + len(row)
    window, d = common_denominator(_table(u).upto(end - 1)[first:end])
    width = n_max + 1 - first
    return EgfSeries._of(ints=combine(
        (prefactor * weight, (window[k: k + width], d)) for k, weight in enumerate(row)
    ))


def fe_higher_polynomial(n: int, order: int, u: Fraction) -> Polynomial:
    """H_n^(N)(x|u) = sum_l C(n,l) x^(n-l) H_l^(N)(u), from the series
    route's higher-order numbers."""
    _check_at_least("n", n, 0)
    return Polynomial.appell(_higher_series(n, order, u))


def euler_polynomial(n: int) -> Polynomial:
    """E_n(x), the u = -1 specialization of H_n(x|u)."""
    return fe_polynomial(n, Fraction(-1))


def bernoulli_number(n: int) -> Fraction:
    """B_n from t/(e^t - 1); B_1 = -1/2 in this convention."""
    _check_at_least("n", n, 0)
    return bernoulli_oracle(n)[n]


def bernoulli_polynomial(n: int) -> Polynomial:
    """B_n(x) = sum_l C(n,l) x^(n-l) B_l."""
    _check_at_least("n", n, 0)
    return Polynomial.appell(bernoulli_oracle(n).coeffs)
