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
so for u = p/q and r = p - q the denominator of H_n(u) divides r^n, and
H_n = M_n / r^n with integer M_n = q^n A_n(p/q).  Two kernels give the
same M_n:

- gamma route, for n <= 64.  A_n is gamma-positive (Foata and
  Schuetzenberger, "Theorie geometrique des polynomes euleriens", 1970):
  A_n(t) = sum_j g_(n,j) t^j (1+t)^(n-1-2j) for n >= 1, with g_(1,0) = 1
  and g_(n+1,j) = (j+1) g_(n,j) + 2(n-2j+1) g_(n,j-1).  With t = pq and
  s = p + q,

      M_n = q * sum_j g_(n,j) t^j s^(n-1-2j),

  one sum of about n/2 terms per index, evaluated by Horner's rule in
  s^2, whose coefficients g do not depend on u.  The rows g_(n,.) for
  n <= 64 are kept for the life of the process (1,056 integers of at most
  277 bits), grown on demand and published whole.
- Euler-Seidel route, for n > 64.  With the diagonal scaled by q r^k the
  recurrence above runs in integers: M_0 = 1, D_0 = (q) and

      M_(k+1) = sum(D_k),
      D_(k+1) = running differences of (p M_(k+1), r D_k[0], ..., r D_k[k]),

  and the last entry of D_k is q M_k.  Each step is a sum, a product by
  the small r and a running difference: three C-level passes over the
  diagonal, with no binomial and no gcd.

The gamma sum has half the terms of an Euler-Seidel step and needs no
diagonal.  Per new u of height <= 30 it takes about half the Euler-Seidel
time at n = 60, ties near n = 250 and is about 1.5 times slower at
n = 400; the switch sits at 64, the bound of the kept rows, so that the
rebuild from M_0 costs at most 64 steps.  (The series expansion is kept in
:mod:`feident.series` as an independent oracle; neither kernel calls
it.)

Each u gets one table, the one per-u cache; each slot is filled only by
its own route's code.
- Recurrence: M_0..M_k, grown to exactly the largest index asked for
  (never doubled: the CLI reads H_0..H_n in ascending order, and the
  kernels' cost grows as k^3 bits).  While k <= 64 the gamma route grows
  it and keeps nothing else; the first index past 64 goes to the
  Euler-Seidel route, which keeps D_k and so, when the gamma route built
  the prefix, rebuilds it from M_0 once (at most 64 steps).  The
  prefix is the one stored form of the numbers: every reader takes it in
  integer form, numerators M_l r^(n-l) over |r|^n, and ``fe_number``
  makes its one Fraction from that form and keeps nothing.  One Appell
  builder makes H_n(x|u): ``polynomial`` keeps it by n, as the Carlitz
  checks read it again; ``fe_polynomial`` keeps nothing.  (The CLI's
  polynomial rows are made from ``fe_number``'s Fractions instead.)
- Triangle formula: (N, variant) -> the weights prefactor * a_k(N),
  k < N, from the last row of ``triangle_recurrence(N)``, the one row
  kept while the rows stream, as integer numerators over one
  denominator.
- Series: N -> F(u)^N, the EGF of the order-N numbers, in integer form;
  F = (1-u)/(e^t - u) is the N = 1 entry (theorem1 reads F and F^N here
  too), ``series.series_reciprocal`` of (e^t - u)/(1-u).  F is that
  reciprocal's own integer form, so when F is too short it is the head
  from which the reciprocal is extended to exactly n, computing only the
  new entries.  Order n is served by truncating an entry, as coefficient
  n of a power reads only coefficients up to n.  A power N >= 2 is
  recomputed, to exactly n, only for a larger order, as ``series_pow`` of
  a truncation of the kept F.
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
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, repeat
from operator import mul, sub

from . import series
from .exact import check_at_least, lowest_terms
from .poly import Polynomial
from .series import (EgfSeries, _check_u, bernoulli_oracle, exp_minus_constant, series_pow,
                     series_scale, series_truncate)
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


# The largest index the gamma route serves; its rows are kept up to it.
_GAMMA_TOP = 64
# Rows g_(n,0..(n-1)//2) for n = 0..k, k <= _GAMMA_TOP, row 0 empty (M_0 = 1
# needs none): a tuple of tuples, replaced whole, never mutated, so a
# reader never sees a half-built list.
_kept_gammas = ((), (1,))


def _gamma_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The gamma-vectors of A_0..A_k for some k >= n, n <= 64, kept for the
    life of the process and grown on demand."""
    global _kept_gammas
    kept = _kept_gammas
    if n < len(kept):
        return kept
    rows = list(kept)
    for m in range(len(kept) - 1, n):
        # g_(m+1,j) = (j+1) g_(m,j) + 2(m-2j+1) g_(m,j-1), j <= m//2
        row = rows[m]
        rows.append(tuple((j + 1) * a + 2 * (m - 2 * j + 1) * b
                          for j, a, b in zip(range(m // 2 + 1), (*row, 0), (0, *row))))
    kept = _kept_gammas = tuple(rows)
    return kept


def _gamma_step(q: int, s: int, ts: tuple[int, ...], gammas: tuple[int, ...], n: int) -> int:
    """M_n = q * sum_j g_(n,j) t^j s^(n-1-2j) for n >= 1, u = p/q and
    s = p + q, from the row ``gammas`` = g_(n,.) and the powers ``ts`` of
    t = pq, by Horner's rule in s^2."""
    y, total = s * s, 0
    for g, power in zip(gammas, ts):
        total = total * y + g * power
    return q * total * s if n % 2 == 0 else q * total


def _seidel_step(p: int, r: int, diagonal: list[int]) -> tuple[int, list[int]]:
    """M_(k+1) and D_(k+1) from D_k, for u = p/q and r = p - q."""
    m = sum(diagonal)
    return m, list(accumulate(chain((p * m,), map(mul, diagonal, repeat(r))), sub))


class _NumberTable:
    """The cache of one u = p/q: H_0(u)..H_k(u) as M_0..M_k over r^0..r^k,
    grown on demand by the gamma route up to k = 64 and by Euler-Seidel
    steps beyond, the polynomials H_n(x|u) built from them, the triangle
    formula's weights, and the series route's powers of F(u)."""

    __slots__ = ("_u", "_p", "_r", "_state", "_polynomials", "_powers", "_weights")

    def __init__(self, u: Fraction):
        self._u = u
        self._p = u.numerator
        self._r = u.numerator - u.denominator
        # (M_0..M_k, D_k), D_k None while the gamma route built the prefix
        # (k <= 64), replaced whole, never mutated, so threads extending one
        # table at once may redo work but never read a half-built prefix.
        # The dicts only gain whole values.
        self._state = ((1,), None)
        self._polynomials = {}  # n -> H_n(x|u)
        self._powers = {}  # N -> F(u)^N, F itself at N = 1
        self._weights = {}  # (N, variant) -> prefactor * a_k(N), k < N

    def _numerators(self, n: int) -> tuple[int, ...]:
        """M_0..M_k for some k >= n."""
        ms, diagonal = self._state
        if n < len(ms):
            return ms
        p, q = self._p, self._u.denominator
        if n <= _GAMMA_TOP:
            # no Euler-Seidel prefix is shorter than 66, so this one is gamma's
            rows = _gamma_rows(n)
            ts = tuple(accumulate(repeat(p * q, (n - 1) // 2), mul, initial=1))
            ms += tuple([_gamma_step(q, p + q, ts, rows[k], k) for k in range(len(ms), n + 1)])
        else:
            if diagonal is None:
                ms, diagonal = (1,), [q]
            r, grown = self._r, list(ms)
            for _ in range(len(ms), n + 1):
                m, diagonal = _seidel_step(p, r, diagonal)
                grown.append(m)
            ms = tuple(grown)
        self._state = (ms, diagonal)
        return ms

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
                # F = 1/((e^t - u)/(1 - u)), extended from the shorter F just
                # read, through the module, where a fault planted in the kernel
                # reaches it
                q = self._u.denominator
                f = powers[1] = series.series_reciprocal(series_scale(
                    exp_minus_constant(self._u, n_max), Fraction(q, q - self._p)), f)
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
            (row,) = deque(triangle_recurrence(order), maxlen=1)
            weights = self._weights[key] = lowest_terms([num * a for a in row], den)
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


def _checked_table(name: str, n: int, order_name: str, order: int, u: Fraction,
                   forbid_zero: bool = False) -> _NumberTable:
    """The table of u, once the index ``n`` (named ``name``), the order
    (named ``order_name``) and u are checked, in that order: the one check
    of a higher-order function's or a higher-order checker's arguments, as
    the route helpers below check nothing."""
    check_at_least(name, n, 0)
    check_at_least(order_name, order, 1)
    return _table(_check_u(u, forbid_zero))


def fe_higher_numbers(n_max: int, order: int, u: Fraction) -> tuple[Fraction, ...]:
    """H_0^(N)(u)..H_{n_max}^(N)(u) as coefficients of the N-th power of
    the order-1 generating function."""
    return _checked_table("n_max", n_max, "order", order, u).power(n_max, order).coeffs


def fe_higher_number_oracle(n: int, order: int, u: Fraction) -> Fraction:
    """H_n^(N)(u) through the series route (the oracle side of the
    two-route checks)."""
    return _checked_table("n", n, "order", order, u).power(n, order)[n]


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
    weights = table.weights(order, variant)
    return _shifted_sum(weights, table.integer_form(first, n_max + order), n_max + 1 - first)


def _fe_higher_rows(n_max: int, order: int, u: Fraction) -> EgfSeries:
    """H_0^(N)(u)..H_{n_max}^(N)(u) in integer form, by the cheaper route:
    the triangle formula for 2N <= n_max, else the series route, which is
    also the one route at u = 0, where the prefactor divides by u.  The
    triangle route builds N rows of the triangle, keeping one, and grows
    the prefix to n_max + N - 1; the series route takes about 2*log2(N)
    products of order n_max.  The triangle takes 0.03 to 0.75 of the
    series' time at 2N <= n_max, about 1.2 times it at N = n_max, and 29
    to 524 times it at N = 200 to 400 with n_max = 5 to 20."""
    table = _checked_table("n_max", n_max, "order", order, u)
    if u == 0 or 2 * order > n_max:
        return table.power(n_max, order)
    return _formula_numbers(table, n_max, order, "corrected")


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
    return Polynomial.appell(_checked_table("n", n, "order", order, u).power(n, order))


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
