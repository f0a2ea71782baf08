"""Frobenius-Euler numbers and polynomials of all orders, plus their
Bernoulli and Euler companions.

The order-1 numbers H_n(u) are the EGF coefficients of
H(t) = (1-u)/(e^t - u).  Since (e^t - u) H(t) = 1 - u, H_0 = 1 and, for
n > 0, sum_{l<=n} C(n,l) H_l = u H_n.  In the Euler-Seidel matrix of the
sequence (a^0_n = H_n, a^k_n = a^(k-1)_n + a^(k-1)_(n+1)) the first row
is a^n_0 = sum_l C(n,l) H_l, so this says a^n_0 = u H_n.  Walking from
the anti-diagonal d_i = a^(k-i)_i (i = 0..k) to the next one, a^(k+1)_0
is u H_(k+1) and each entry below it is the one above minus d_i, down to
a^0_(k+1) = H_(k+1); hence H_(k+1) = sum(d) / (u-1) (Seidel 1877; Dumont,
"Matrices d'Euler-Seidel", 1981).

By Carlitz, H_n(u) = A_n(u) / (u-1)^n with A_n the Eulerian polynomial,
so for u = p/q and r = p - q the denominator of H_n(u) divides r^n.  With
the diagonal scaled by q r^k the recurrence runs in integers:
H_k = M_k / r^k with M_0 = 1, D_0 = (q) and

    M_(k+1) = sum(D_k),
    D_(k+1) = running differences of (p M_(k+1), r D_k[0], ..., r D_k[k]),

and the last entry of D_k is q M_k.  Each step is a sum, a product by the
small r and a running difference: three C-level passes over the
diagonal, with no binomial and no gcd.  (The series expansion is kept in
:mod:`feident.series` as an independent oracle; this kernel never calls
it.)

Each u gets one table, the one per-u cache; each slot is filled only by
its own route's code.
- Recurrence: M_0..M_k and D_k, grown one step at a time to exactly the
  largest index asked for (never doubled: the CLI reads H_0..H_n in
  ascending order, and the kernel's cost grows as k^3 bits).  The
  prefix is the one stored form of the numbers: every reader takes it in
  integer form, numerators M_l r^(n-l) over |r|^n, and ``fe_number``
  makes its one Fraction from that form and keeps nothing.  One Appell
  builder makes H_n(x|u): ``polynomial`` keeps it by n, as the Carlitz
  checks read it again; ``fe_polynomial`` keeps nothing.  (The CLI's
  polynomial rows are made from ``fe_number``'s Fractions instead.)
- Triangle formula: (N, variant) -> the weights prefactor * a_k(N),
  k < N, from one ``triangle_recurrence`` row, as integer numerators
  over one denominator.
- Series: N -> F(u)^N, the EGF of the order-N numbers, in integer form;
  F = (1-u)/(e^t - u) from ``frobenius_oracle`` is the N = 1 entry
  (theorem1 reads F and F^N here too).  Order n is served by truncating the
  entry, as coefficient n of a power reads only coefficients up to n.
  An entry is recomputed, to exactly n, only for a larger order, as
  ``series_pow`` of a truncation of the kept F, and F only when it is
  too short.
At most ``_TABLE_BOUND`` (16) tables are kept, least recently used
first out: an audit identity block touches at most 9 parameter values,
a CLI process one, and a sweep op at most 3, never repeating u.  A
table only publishes whole new values, so concurrent readers see
correct values.

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
from itertools import accumulate, chain, repeat
from operator import mul, sub

from .exact import check_at_least, lowest_terms
from .poly import Polynomial
from .series import (EgfSeries, _check_u, bernoulli_oracle, frobenius_oracle, series_pow,
                     series_truncate)
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


# Most parameter values u whose prefix tables are kept at once.
_TABLE_BOUND = 16


def _seidel_step(p: int, r: int, diagonal: list[int]) -> tuple[int, list[int]]:
    """M_(k+1) and D_(k+1) from D_k, for u = p/q and r = p - q."""
    m = sum(diagonal)
    return m, list(accumulate(chain((p * m,), map(mul, diagonal, repeat(r))), sub))


class _NumberTable:
    """The cache of one u = p/q: H_0(u)..H_k(u) as M_0..M_k over r^0..r^k,
    grown by one Euler-Seidel step at a time on demand, the polynomials
    H_n(x|u) built from them, the triangle formula's weights and the
    series route's powers of F(u)."""

    __slots__ = ("_u", "_p", "_r", "_state", "_polynomials", "_powers", "_weights")

    def __init__(self, u: Fraction):
        self._u = u
        self._p = u.numerator
        self._r = u.numerator - u.denominator
        # (M_0..M_k, D_k), replaced whole, never mutated, so threads
        # extending one table at once may redo work but never read a
        # half-built prefix.  The dicts only gain whole values.
        self._state = ((1,), [u.denominator])
        self._polynomials = {}  # n -> H_n(x|u)
        self._powers = {}  # N -> F(u)^N, F itself at N = 1
        self._weights = {}  # (N, variant) -> prefactor * a_k(N), k < N

    def _numerators(self, n: int) -> tuple[int, ...]:
        """M_0..M_k for some k >= n."""
        ms, diagonal = self._state
        if n < len(ms):
            return ms
        p, r = self._p, self._r
        grown = list(ms)
        for _ in range(len(ms), n + 1):
            m, diagonal = _seidel_step(p, r, diagonal)
            grown.append(m)
        self._state = (tuple(grown), diagonal)
        return self._state[0]

    def integer_form(self, first: int, end: int) -> tuple[list[int], int]:
        """H_first..H_(end-1) as numerators over |r|^(end-1)."""
        top, r = end - 1, self._r
        # sign * r^(top-l) for l = first..top, the sign making r^top positive
        scales = list(accumulate(repeat(r, top - first), mul,
                                 initial=-1 if r < 0 and top % 2 else 1))
        scales.reverse()
        return list(map(mul, self._numerators(top)[first:end], scales)), abs(r) ** top

    def appell(self, n: int) -> Polynomial:
        """H_n(x|u), the Appell polynomial of H_0..H_n in integer form."""
        return Polynomial.appell(EgfSeries._of(self.integer_form(0, n + 1)))

    def polynomial(self, n: int) -> Polynomial:
        """H_n(x|u), kept by n: the Carlitz checks read it again."""
        poly = self._polynomials.get(n)
        if poly is None:
            poly = self._polynomials[n] = self.appell(n)
        return poly

    def power(self, n_max: int, order: int) -> EgfSeries:
        """F(u)^order to order n_max, from the series route only."""
        powers = self._powers
        kept = powers.get(order)
        if kept is None or kept.order < n_max:
            f = powers.get(1)
            if f is None or f.order < n_max:
                f = powers[1] = frobenius_oracle(self._u, n_max)
            kept = f if order == 1 else series_pow(series_truncate(f, n_max), order)
            powers[order] = kept
        return series_truncate(kept, n_max)

    def weights(self, order: int, variant: str) -> tuple[list[int], int]:
        """prefactor * a_k(order) for k < order, from the triangle route
        only, as numerators over one positive denominator; u != 0."""
        key = (order, variant)
        weights = self._weights.get(key)
        if weights is None:
            # factor = (u-1)/u = r/p, or (1-u)/u = -r/p as printed
            p, r = self._p, self._r
            num = (-r if variant == "as_printed" else r) ** (order - 1)
            den = p ** (order - 1) * math.factorial(order - 1)
            if den < 0:
                num, den = -num, -den
            weights = self._weights[key] = lowest_terms(
                [num * a for a in triangle_recurrence(order).row(order)], den)
        return weights


_table = lru_cache(maxsize=_TABLE_BOUND)(_NumberTable)


def fe_number(n: int, u: Fraction) -> Fraction:
    """n-th Frobenius-Euler number H_n(u), by recurrence."""
    check_at_least("n", n, 0)
    (m,), d = _table(_check_u(u)).integer_form(n, n + 1)
    return Fraction(m, d)


def fe_polynomial(n: int, u: Fraction) -> Polynomial:
    """H_n(x|u) = sum_l C(n,l) x^(n-l) H_l(u); monic of degree n."""
    check_at_least("n", n, 0)
    return _table(_check_u(u)).appell(n)


def fe_higher_numbers(n_max: int, order: int, u: Fraction) -> tuple[Fraction, ...]:
    """H_0^(N)(u)..H_{n_max}^(N)(u) as coefficients of the N-th power of
    the order-1 generating function."""
    return _higher_series(n_max, order, u).coeffs


def _higher_series(n_max: int, order: int, u: Fraction, first: int = 0) -> EgfSeries:
    """H_first^(N)(u)..H_{n_max}^(N)(u) from the N-th power of the order-1
    EGF, in integer form, served from the table of u."""
    check_at_least("n_max", n_max, 0)
    check_at_least("order", order, 1)
    nums, d = _table(_check_u(u)).power(n_max, order).integer_form
    return EgfSeries._of((nums[first:], d))


def fe_higher_number_oracle(n: int, order: int, u: Fraction) -> Fraction:
    """H_n^(N)(u) through the series route (the oracle side of the
    two-route checks)."""
    check_at_least("n", n, 0)
    return _higher_series(n, order, u, first=n)[0]


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
    in integer form: entry n is sum_k w_k * H_{n+k}(u), one integer dot
    product over a shifted slice of the prefix, with the weights w_k =
    prefactor * a_k(N) kept in the table of u as integers over one
    denominator."""
    check_at_least("n", n_max, 0)
    check_at_least("order", order, 1)
    table = _table(_check_u(u, forbid_zero=True))
    weights = table.weights(order, _check_variant(variant))
    return _shifted_sum(weights, table.integer_form(first, n_max + order), n_max + 1 - first)


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
    check_at_least("n", n, 0)
    return Polynomial.appell(_higher_series(n, order, u))


def euler_polynomial(n: int) -> Polynomial:
    """E_n(x), the u = -1 specialization of H_n(x|u)."""
    return fe_polynomial(n, Fraction(-1))


def bernoulli_number(n: int) -> Fraction:
    """B_n from t/(e^t - 1); B_1 = -1/2 in this convention."""
    check_at_least("n", n, 0)
    nums, d = bernoulli_oracle(n).integer_form
    return Fraction(nums[n], d)


def bernoulli_polynomial(n: int) -> Polynomial:
    """B_n(x) = sum_l C(n,l) x^(n-l) B_l."""
    check_at_least("n", n, 0)
    return Polynomial.appell(bernoulli_oracle(n))
