"""Truncated exponential-generating-function arithmetic over Fractions.

An :class:`EgfSeries` of order T stores the coefficients h_0..h_T of
sum_{n<=T} h_n t^n / n!.  Storing the t^n/n! coefficient (rather than the
plain t^n one) makes differentiation a pure index shift and keeps every
convolution weight an integer binomial, so all arithmetic stays exact.

Coefficients are Fractions, and only Fractions: ints are converted, and
anything else (a float, a Polynomial) raises TypeError.  A series stores
them only in integer form, numerators over the lcm of their denominators
(:class:`feident.exact.Coefficients`), and makes Fractions when
``coeffs`` or ``s[n]`` is read, never to compare.  The kernels read and
return the integer form, so a chain such as F -> F^N -> scale makes no
Fraction: a product convolves the numerators, with binomial weights row
by row from :func:`feident.exact.binomial_rows` (Pascal's rule, rows up
to n = 64 kept for the life of the process, as they do not depend on the
operands), and puts the result in lowest terms (a square sums each
symmetric pair of terms once and doubles it); a scale multiplies
numerators and denominator; a truncation slices the numerators.  The
reciprocal reduces each output with one integer gcd, keeping the outputs
so far as numerators over the lcm of their reduced denominators, so its
intermediates grow with the true denominators, not with powers of the
constant term.  Those numerators over that lcm are what it returns, so a
reciprocal it returned for a truncation of a series is the state from
which it extends the reciprocal of the whole series, computing only the
new entries.  Every order and index is checked by
:func:`feident.exact.check_at_least`.

Mixed-order operands are truncated to the shorter order, never padded:
callers size their inputs deliberately.

:func:`series_pow` squares and multiplies, so the N-th power takes about
2*log2(N) products instead of N-1 (5 at N = 20); a zero constant term
works.  :func:`bernoulli_oracle` serves truncations of one module-level
prefix B_0..B_K: asking for an order above K extends the prefix once,
from B_(K+1), to max(order, 2K) (doubling, as the Pascal rows above 64
are rebuilt on every call), so the prefix stays within twice the largest
order asked for.  A truncated reciprocal equals the reciprocal of the
truncation, so served values do not depend on what was asked before.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import Iterable

from .exact import (Coefficients, _check_u, as_fraction, binomial_rows, check_at_least,
                    common_denominator, lowest_terms, to_fractions)

__all__ = [
    "EgfSeries",
    "series_scale",
    "series_mul",
    "series_reciprocal",
    "series_pow",
    "series_truncate",
    "exp_xt",
    "exp_minus_constant",
    "frobenius_oracle",
    "bernoulli_oracle",
    "bernoulli_number",
]


class EgfSeries(Coefficients):
    """Immutable truncated EGF; ``coeffs[n]`` is the coefficient of t^n/n!."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable):
        cs = [c if type(c) is Fraction else as_fraction(c) for c in coeffs]
        if not cs:
            raise ValueError("a series needs at least its constant coefficient")
        self._hold(common_denominator(cs))

    @property
    def order(self) -> int:
        return len(self) - 1

    def __getitem__(self, n: int):
        """Coefficient n as one Fraction (a slice gives a tuple of them)."""
        nums, d = self.integer_form
        return to_fractions(nums[n], d) if isinstance(n, slice) else Fraction(nums[n], d)

    def __len__(self) -> int:
        return len(self.integer_form[0])

    def __iter__(self):
        return iter(self.coeffs)


def series_scale(a: EgfSeries, c) -> EgfSeries:
    c = as_fraction(c)
    nums, d = a.integer_form
    return EgfSeries._of(([c.numerator * v for v in nums], c.denominator * d))


def series_mul(a: EgfSeries, b: EgfSeries) -> EgfSeries:
    """Product of two EGFs: c_n = sum_k C(n,k) a_k b_{n-k}, convolved on
    the operands' integer forms and put in lowest terms, so that the
    denominators of a chain of products (a power) do not compound.  A
    square (``b is a``) sums each pair k < n-k once and doubles it."""
    t = min(a.order, b.order)
    xn, dx = a.integer_form
    yn, dy = b.integer_form
    yr = yn[t::-1]
    if a is b:
        # c_n = 2 sum_{k<n/2} C(n,k) a_k a_(n-k), plus C(n,n/2) a_(n/2)^2 for even n
        return EgfSeries._of(lowest_terms([
            2 * sum(map(mul, row, map(mul, xn[: (n + 1) >> 1], yr[t - n:])))
            + (0 if n & 1 else row[n >> 1] * xn[n >> 1] ** 2)
            for n, row in enumerate(binomial_rows(t))
        ], dx * dx))
    return EgfSeries._of(lowest_terms([
        sum(map(mul, row, map(mul, xn[: n + 1], yr[t - n:])))
        for n, row in enumerate(binomial_rows(t))
    ], dx * dy))


def series_reciprocal(a: EgfSeries, head: EgfSeries | None = None) -> EgfSeries:
    """Multiplicative inverse to full order, in integer form.

    b_0 = 1/a_0 and b_n = -(1/a_0) sum_{k<n} C(n,k) a_{n-k} b_k.
    Requires a nonzero constant coefficient.

    The sums run in integers: a_i = A_i / D, and the outputs so far are
    kept as numerators over L, the lcm of their reduced denominators,
    rescaled whenever L grows, so b_n = -S / (A_0 L) with S the integer
    sum; one gcd per output.  Those numerators over L are the result's
    integer form, and the whole state of the loop: ``head``, a result of
    this function for a truncation of ``a``, is taken as the state after
    its own entries, so only the entries past it are computed, and the
    result equals a fresh call's, integer form included.
    """
    an, d = a.integer_form
    if an[0] == 0:
        raise ValueError("series with zero constant coefficient is not invertible")
    an = an[::-1]
    t = a.order
    # b_0 = D / A_0 and b_n = sign * S / (|A_0| L), each in lowest terms
    a0, sign = abs(an[t]), (-1 if an[t] > 0 else 1)
    if head is None:
        g = math.gcd(d, a0)
        lcm, nums = a0 // g, [-sign * d // g]
    else:
        if head.order > t:
            raise ValueError(f"an order-{head.order} head is longer than the order-{t} series")
        nums, lcm = head.integer_form
        nums = list(nums)  # the loop appends, and the head is a value
    first = len(nums)
    for n, row in enumerate(islice(binomial_rows(t), first, None), first):
        # an[t - n + k] is A_{n-k}
        s = sum(map(mul, row, map(mul, an[t - n: t], nums)))
        den = a0 * lcm
        g = math.gcd(s, den)
        num, den = sign * s // g, den // g
        if lcm % den:
            grow = den // math.gcd(lcm, den)
            lcm *= grow
            nums = [v * grow for v in nums]
        nums.append(num * (lcm // den))
    return EgfSeries._of((nums, lcm))


def series_pow(a: EgfSeries, exponent: int) -> EgfSeries:
    """exponent-fold product of a with itself; exponent >= 1."""
    check_at_least("exponent", exponent, 1)
    out = None
    while True:
        if exponent & 1:
            out = a if out is None else series_mul(out, a)
        exponent >>= 1
        if not exponent:
            return out
        a = series_mul(a, a)


def series_truncate(a: EgfSeries, order: int) -> EgfSeries:
    """The first order + 1 coefficients: a slice of ``a``'s numerators."""
    check_at_least("order", order, 0)
    if order > a.order:
        raise ValueError(f"cannot truncate order-{a.order} series to order {order}")
    nums, d = a.integer_form
    return EgfSeries._of((nums[: order + 1], d))


def exp_xt(x, order: int) -> EgfSeries:
    """e^{xt} truncated: coefficient n is x^n, for an int or Fraction x."""
    x = as_fraction(x)
    check_at_least("order", order, 0)
    p, q = x.numerator, x.denominator
    return EgfSeries._of(([p**n * q ** (order - n) for n in range(order + 1)], q**order))


def exp_minus_constant(c, order: int) -> EgfSeries:
    """e^t - c as an EGF: coefficients (1 - c, 1, 1, ...)."""
    c = as_fraction(c)
    check_at_least("order", order, 0)
    q = c.denominator
    return EgfSeries._of(([q - c.numerator] + [q] * order, q))


def frobenius_oracle(u: Fraction, order: int) -> EgfSeries:
    """Frobenius-Euler numbers H_0(u)..H_T(u) straight from the generating
    function (1-u)/(e^t - u), independent of any recurrence."""
    u = _check_u(u)
    return series_scale(series_reciprocal(exp_minus_constant(u, order)), 1 - u)


# B_0..B_K for the largest K computed so far; replaced whole, never mutated.
_bernoulli_prefix = EgfSeries([Fraction(1)])


def bernoulli_oracle(order: int) -> EgfSeries:
    """Bernoulli numbers B_0..B_T from t/(e^t - 1), computed as the
    reciprocal of (e^t - 1)/t, whose EGF coefficients are 1/(n+1)."""
    global _bernoulli_prefix
    check_at_least("order", order, 0)
    prefix = _bernoulli_prefix
    if order > prefix.order:
        size = max(order, 2 * prefix.order)
        # 1/(n+1) = (L/(n+1)) / L with L = lcm(1..size+1)
        lcm = math.lcm(*range(1, size + 2))
        g = EgfSeries._of(([lcm // (n + 1) for n in range(size + 1)], lcm))
        prefix = _bernoulli_prefix = series_reciprocal(g, prefix)
    return series_truncate(prefix, order)


def bernoulli_number(n: int) -> Fraction:
    """B_n from t/(e^t - 1); B_1 = -1/2 in this convention."""
    check_at_least("n", n, 0)
    nums, d = bernoulli_oracle(n).integer_form
    return Fraction(nums[n], d)
