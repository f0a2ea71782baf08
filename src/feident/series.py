"""Truncated exponential-generating-function arithmetic over Fractions.

An :class:`EgfSeries` of order T stores the coefficients h_0..h_T of
sum_{n<=T} h_n t^n / n!.  Storing the t^n/n! coefficient (rather than the
plain t^n one) makes differentiation a pure index shift and keeps every
convolution weight an integer binomial, so all arithmetic stays exact.

Coefficients are Fractions, and only Fractions: ints are converted, and
anything else (a float, a Polynomial) raises TypeError.  Operands of
:func:`series_mul` and :func:`series_reciprocal` are convolved in
integers: each operand is put over one common denominator, the binomial
weights come row by row from Pascal's rule, and each output coefficient
becomes one reduced Fraction, so there is one gcd per output coefficient
instead of several Fraction operations per term.  The reciprocal keeps the
outputs found so far as numerators over the lcm of their reduced
denominators, so its intermediates grow with the true denominators, not
with powers of the constant term.

Mixed-order operands are truncated to the shorter order, never padded:
callers size their inputs deliberately.

:func:`series_pow` squares and multiplies, so the N-th power takes about
2*log2(N) products instead of N-1 (5 at N = 20); a zero constant term
works.  :func:`bernoulli_oracle` serves truncations of one module-level
prefix B_0..B_K: asking for an order above K recomputes the prefix once,
to max(order, 2K), so the prefix stays within twice the largest order
asked for.  A truncated reciprocal equals the reciprocal of the
truncation, so served values do not depend on what was asked before.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add, mul
from typing import Iterable, Iterator

from .exact import as_fraction, common_denominator, exact_parameter

__all__ = [
    "EgfSeries",
    "unit",
    "series_add",
    "series_sub",
    "series_scale",
    "series_mul",
    "series_derivative",
    "series_reciprocal",
    "series_pow",
    "series_truncate",
    "exp_xt",
    "exp_minus_constant",
    "frobenius_oracle",
    "bernoulli_oracle",
]


class EgfSeries:
    """Immutable truncated EGF; ``coeffs[n]`` is the coefficient of t^n/n!."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = tuple(c if type(c) is Fraction else as_fraction(c) for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least its constant coefficient")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("EgfSeries is immutable")

    def __reduce__(self):
        return type(self), (self.coeffs,)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int):
        return self.coeffs[n]

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, EgfSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"EgfSeries([{', '.join(str(c) for c in self.coeffs)}])"


def unit(order: int) -> EgfSeries:
    """The multiplicative unit 1 = (1, 0, ..., 0)."""
    return EgfSeries([Fraction(1)] + [Fraction(0)] * order)


def series_add(a: EgfSeries, b: EgfSeries) -> EgfSeries:
    n = min(a.order, b.order)
    return EgfSeries([a.coeffs[i] + b.coeffs[i] for i in range(n + 1)])


def series_sub(a: EgfSeries, b: EgfSeries) -> EgfSeries:
    n = min(a.order, b.order)
    return EgfSeries([a.coeffs[i] - b.coeffs[i] for i in range(n + 1)])


def series_scale(a: EgfSeries, c) -> EgfSeries:
    c = as_fraction(c)
    return EgfSeries([c * h for h in a.coeffs])


def _binomial_rows(t: int) -> Iterator[list[int]]:
    """Rows C(n, 0..n) for n = 0..t, each by Pascal's rule from the last
    (cheaper than math.comb once the entries are big)."""
    row = [1]
    yield row
    for _ in range(t):
        row = [1, *map(add, row, row[1:]), 1]
        yield row


def series_mul(a: EgfSeries, b: EgfSeries) -> EgfSeries:
    """Product of two EGFs: c_n = sum_k C(n,k) a_k b_{n-k}, convolved in
    integers over one common denominator per operand."""
    t = min(a.order, b.order)
    xn, dx = common_denominator(a.coeffs[: t + 1])
    yn, dy = common_denominator(b.coeffs[: t + 1])
    yn.reverse()
    d = dx * dy
    return EgfSeries([
        Fraction(sum(map(mul, row, map(mul, xn[: n + 1], yn[t - n:]))), d)
        for n, row in enumerate(_binomial_rows(t))
    ])


def series_derivative(a: EgfSeries) -> EgfSeries:
    """d/dt drops the order by one; in EGF form it is the shift h_n -> h_{n+1}."""
    if a.order < 1:
        raise ValueError("cannot differentiate an order-0 series")
    return EgfSeries(a.coeffs[1:])


def series_reciprocal(a: EgfSeries) -> EgfSeries:
    """Multiplicative inverse to full order.

    b_0 = 1/a_0 and b_n = -(1/a_0) sum_{k<n} C(n,k) a_{n-k} b_k.
    Requires a nonzero constant coefficient.

    The sums run in integers: a_i = A_i / D, and the outputs so far are
    kept as numerators over L, the lcm of their reduced denominators,
    rescaled whenever L grows, so b_n = -S / (A_0 L) with S the integer
    sum; one gcd per output.
    """
    if a.coeffs[0] == 0:
        raise ValueError("series with zero constant coefficient is not invertible")
    an, d = common_denominator(a.coeffs)
    an.reverse()
    t = a.order
    out = [Fraction(d, an[t])]
    lcm, nums = out[0].denominator, [out[0].numerator]
    rows = _binomial_rows(t)
    next(rows)
    for n, row in enumerate(rows, 1):
        # an[t - n + k] is A_{n-k}
        s = sum(map(mul, row, map(mul, an[t - n: t], nums)))
        b = Fraction(-s, an[t] * lcm)
        out.append(b)
        den = b.denominator
        if lcm % den:
            grow = den // gcd(lcm, den)
            lcm *= grow
            nums = [v * grow for v in nums]
        nums.append(b.numerator * (lcm // den))
    return EgfSeries(out)


def series_pow(a: EgfSeries, exponent: int) -> EgfSeries:
    """exponent-fold product of a with itself; exponent >= 1."""
    if exponent < 1:
        raise ValueError("series power needs exponent >= 1")
    out = None
    while True:
        if exponent & 1:
            out = a if out is None else series_mul(out, a)
        exponent >>= 1
        if not exponent:
            return out
        a = series_mul(a, a)


def series_truncate(a: EgfSeries, order: int) -> EgfSeries:
    if order < 0 or order > a.order:
        raise ValueError(f"cannot truncate order-{a.order} series to order {order}")
    return EgfSeries(a.coeffs[: order + 1])


def exp_xt(x, order: int) -> EgfSeries:
    """e^{xt} truncated: coefficient n is x^n, for an int or Fraction x."""
    x = as_fraction(x)
    return EgfSeries([x**n for n in range(order + 1)])


def exp_minus_constant(c, order: int) -> EgfSeries:
    """e^t - c as an EGF: coefficients (1 - c, 1, 1, ...)."""
    c = as_fraction(c)
    return EgfSeries([Fraction(1) - c] + [Fraction(1)] * order)


def frobenius_oracle(u: Fraction, order: int) -> EgfSeries:
    """Frobenius-Euler numbers H_0(u)..H_T(u) straight from the generating
    function (1-u)/(e^t - u), independent of any recurrence."""
    u = exact_parameter(u)
    if u == 1:
        raise ValueError("u = 1 is outside the parameter domain")
    return series_scale(series_reciprocal(exp_minus_constant(u, order)), 1 - u)


# B_0..B_K for the largest K computed so far; replaced whole, never mutated.
_bernoulli_prefix = EgfSeries([Fraction(1)])


def bernoulli_oracle(order: int) -> EgfSeries:
    """Bernoulli numbers B_0..B_T from t/(e^t - 1), computed as the
    reciprocal of (e^t - 1)/t, whose EGF coefficients are 1/(n+1)."""
    global _bernoulli_prefix
    prefix = _bernoulli_prefix
    if order > prefix.order:
        size = max(order, 2 * prefix.order)
        g = EgfSeries([Fraction(1, n + 1) for n in range(size + 1)])
        prefix = _bernoulli_prefix = series_reciprocal(g)
    return EgfSeries(prefix.coeffs[: order + 1])
