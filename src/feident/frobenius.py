"""Frobenius-Euler numbers and polynomials of all orders, plus their
Bernoulli and Euler companions.

Each u gets one number table (:mod:`feident.prefix`, whose ``fe_number``
and ``fe_higher_numbers`` this module exports, as it does
``series.bernoulli_number``), the one per-u cache; each slot is filled
only by its own route's code, here a function of the table:
- Recurrence: H_0(u)..H_k(u), grown by the table itself.  One Appell
  builder, ``appell``, makes H_n(x|u): ``polynomial`` keeps it by n,
  as the Carlitz checks read it again; ``fe_polynomial`` keeps nothing.
  (The CLI's polynomial rows are made from ``fe_number``'s Fractions.)
- Triangle formula: (N, variant) -> ``weights``, prefactor * a_k(N),
  k < N, from the last row of ``triangle_recurrence(N)``, the one row
  kept while the rows stream, as integer numerators over one
  denominator.
- Series: N -> ``power``, F(u)^N, the EGF of the order-N numbers, in
  integer form; F = (1-u)/(e^t - u) is the N = 1 entry (theorem1 reads F
  and F^N here too), ``series.series_reciprocal`` of (e^t - u)/(1-u).  F
  is that reciprocal's own integer form, so when F is too short it is the
  head from which the reciprocal is extended to exactly n, computing only
  the new entries.  Order n is served by truncating an entry, as
  coefficient n of a power reads only coefficients up to n.  A power
  N >= 2 is recomputed, to exactly n, only for a larger order, as
  ``series_pow`` of a truncation of the kept F.

The closed formula for higher-order numbers in terms of the coefficient
triangle comes in two variants: ``corrected`` carries the prefactor
((u-1)/u)^(N-1), which the generating-function oracle confirms, and
``as_printed`` carries ((1-u)/u)^(N-1), the commonly typeset form whose
sign is wrong for even N.  Both are computable so that the verification
harness can audit the difference.
"""

import math
from collections import deque
from fractions import Fraction
from operator import mul

from . import series
from .exact import _check_u, check_at_least
from .forms import lowest_terms
from .poly import Polynomial
from .prefix import _NumberTable, _table, fe_higher_numbers, fe_number
from .series import (EgfSeries, bernoulli_number, bernoulli_oracle, exp_minus_constant,
                     series_pow, series_scale, series_truncate)
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


def _check_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return variant


def appell(table: _NumberTable, n: int) -> Polynomial:
    """H_n(x|u), the Appell polynomial of H_0..H_n in integer form."""
    return Polynomial.appell(EgfSeries._of(table.integer_form(0, n + 1)))


def polynomial(table: _NumberTable, n: int) -> Polynomial:
    """H_n(x|u), kept by n: the Carlitz checks read it again."""
    poly = table._polynomials.get(n)
    if poly is None:
        poly = table._polynomials[n] = appell(table, n)
    return poly


def power(table: _NumberTable, n_max: int, order: int) -> EgfSeries:
    """F(u)^order to order n_max, from the series route only."""
    powers = table._powers
    kept = powers.get(order)
    if kept is None or kept.order < n_max:
        f = powers.get(1)
        if f is None or f.order < n_max:
            # F = 1/((e^t - u)/(1 - u)), extended from the shorter F just
            # read, through the module, where a fault planted in the kernel
            # reaches it
            q = table._u.denominator
            f = powers[1] = series.series_reciprocal(series_scale(
                exp_minus_constant(table._u, n_max), Fraction(q, q - table._p)), f)
        kept = f if order == 1 else series_pow(series_truncate(f, n_max), order)
        powers[order] = kept
    return series_truncate(kept, n_max)


def weights(table: _NumberTable, order: int, variant: str) -> tuple[list[int], int]:
    """prefactor * a_k(order) for k < order, from the triangle route
    only, as numerators over one positive denominator; u != 0."""
    key = (order, variant)
    kept = table._weights.get(key)
    if kept is None:
        # factor = (u-1)/u = r/p, or (1-u)/u = -r/p as printed
        p, r = table._p, table._r
        num = (-r if variant == "as_printed" else r) ** (order - 1)
        den = p ** (order - 1) * math.factorial(order - 1)
        if den < 0:
            num, den = -num, -den
        (row,) = deque(triangle_recurrence(order), maxlen=1)
        kept = table._weights[key] = lowest_terms([num * a for a in row], den)
    return kept


def fe_polynomial(n: int, u: Fraction) -> Polynomial:
    """H_n(x|u) = sum_l C(n,l) x^(n-l) H_l(u); monic of degree n."""
    check_at_least("n", n, 0)
    return appell(_table(_check_u(u)), n)


def _checked_table(name: str, n: int, order_name: str, order: int, u: Fraction,
                   forbid_zero: bool = False) -> _NumberTable:
    """The table of u, once the index ``n`` (named ``name``), the order
    (named ``order_name``) and u are checked, in that order: the one check
    of a higher-order function's or a higher-order checker's arguments, as
    the route helpers below check nothing."""
    check_at_least(name, n, 0)
    check_at_least(order_name, order, 1)
    return _table(_check_u(u, forbid_zero))


def fe_higher_number_oracle(n: int, order: int, u: Fraction) -> Fraction:
    """H_n^(N)(u) through the series route (the oracle side of the
    two-route checks)."""
    return power(_checked_table("n", n, "order", order, u), n, order)[n]


def fe_higher_number_formula(
    n: int, order: int, u: Fraction, variant: str = "corrected"
) -> Fraction:
    """H_n^(N)(u) through the coefficient-triangle route:

        factor^(N-1) / (N-1)! * sum_k a_k(N) H_{n+k}(u)

    with factor (u-1)/u for ``corrected`` and (1-u)/u for ``as_printed``.
    Shares nothing with the series route beyond basic arithmetic.
    """
    table = _checked_table("n", n, "order", order, u, forbid_zero=True)
    return _formula_numbers(table, n, order, _check_variant(variant), first=n)[0]


def _formula_numbers(
    table: _NumberTable, n_max: int, order: int, variant: str, first: int = 0
) -> EgfSeries:
    """H_first^(N)(u)..H_{n_max}^(N)(u) by :func:`fe_higher_number_formula`,
    in integer form, from ``table``, the table of u != 0; the caller has
    checked the arguments.  Entry n is sum_k w_k * H_{n+k}(u), one integer
    dot product over a shifted slice of the prefix, with the weights w_k =
    prefactor * a_k(N) kept in the table as integers over one
    denominator."""
    return _shifted_sum(weights(table, order, variant),
                        table.integer_form(first, n_max + order), n_max + 1 - first)


def _shifted_sum(weights: tuple[list[int], int], form: tuple[list[int], int],
                 width: int) -> EgfSeries:
    """sum_k w_k * nums[k : k + width] / d for ``weights`` = (w, e) and
    ``form`` = (nums, d), over the denominator e * d: the triangle
    formula's sum_k w_k H_{n+k}, and, as the k-th derivative of an EGF is
    its shift by k, theorem1's sum_k w_k H^(k).  Entry i is one integer
    dot product of w with nums[i : i + len(w)]."""
    (w, e), (nums, d) = weights, form
    k = len(w)
    return EgfSeries._of(([sum(map(mul, w, nums[i: i + k])) for i in range(width)], e * d))


def fe_higher_polynomial(n: int, order: int, u: Fraction) -> Polynomial:
    """H_n^(N)(x|u) = sum_l C(n,l) x^(n-l) H_l^(N)(u), from the series
    route's higher-order numbers."""
    return Polynomial.appell(power(_checked_table("n", n, "order", order, u), n, order))


def euler_polynomial(n: int) -> Polynomial:
    """E_n(x), the u = -1 specialization of H_n(x|u)."""
    return fe_polynomial(n, Fraction(-1))


def bernoulli_polynomial(n: int) -> Polynomial:
    """B_n(x) = sum_l C(n,l) x^(n-l) B_l."""
    check_at_least("n", n, 0)
    return Polynomial.appell(bernoulli_oracle(n))
