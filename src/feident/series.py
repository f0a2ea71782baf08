"""Truncated exponential-generating-function arithmetic.

An :class:`EgfSeries` of order T stores the coefficients h_0..h_T of
sum_{n<=T} h_n t^n / n!.  Storing the t^n/n! coefficient (rather than the
plain t^n one) makes differentiation a pure index shift and keeps every
convolution weight an integer binomial, so all arithmetic stays exact.

Coefficients are Fractions by default; Polynomial coefficients work
through the same code paths (only :func:`series_reciprocal` genuinely
needs rational scalars, since it divides by the constant coefficient).

Mixed-order operands are truncated to the shorter order, never padded:
callers size their inputs deliberately.

:func:`series_pow` squares and multiplies, so the N-th power takes about
2*log2(N) products instead of N-1 (5 at N = 20); it needs only a
commutative ring, so Polynomial coefficients and a zero constant term
work.  :func:`bernoulli_oracle` serves truncations of one module-level
prefix B_0..B_K: asking for an order above K recomputes the prefix once,
to max(order, 2K), so the prefix stays within twice the largest order
asked for.  A truncated reciprocal equals the reciprocal of the
truncation, so served values do not depend on what was asked before.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .exact import binomial

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


def _as_scalar(value):
    if isinstance(value, float):
        raise TypeError("float coefficients are not allowed; use Fraction")
    if isinstance(value, int):
        return Fraction(value)
    return value


class EgfSeries:
    """Immutable truncated EGF; ``coeffs[n]`` is the coefficient of t^n/n!."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = tuple(_as_scalar(c) for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least its constant coefficient")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("EgfSeries is immutable")

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
    c = _as_scalar(c)
    return EgfSeries([c * h for h in a.coeffs])


def series_mul(a: EgfSeries, b: EgfSeries) -> EgfSeries:
    """Product of two EGFs: c_n = sum_k C(n,k) a_k b_{n-k}."""
    t = min(a.order, b.order)
    out = []
    for n in range(t + 1):
        acc = a.coeffs[0] * b.coeffs[n]
        for k in range(1, n + 1):
            acc = acc + binomial(n, k) * (a.coeffs[k] * b.coeffs[n - k])
        out.append(acc)
    return EgfSeries(out)


def series_derivative(a: EgfSeries) -> EgfSeries:
    """d/dt drops the order by one; in EGF form it is the shift h_n -> h_{n+1}."""
    if a.order < 1:
        raise ValueError("cannot differentiate an order-0 series")
    return EgfSeries(a.coeffs[1:])


def series_reciprocal(a: EgfSeries) -> EgfSeries:
    """Multiplicative inverse to full order.

    b_0 = 1/a_0 and b_n = -(1/a_0) sum_{k<n} C(n,k) a_{n-k} b_k.
    Requires a nonzero (rational) constant coefficient.
    """
    a0 = a.coeffs[0]
    if a0 == 0:
        raise ValueError("series with zero constant coefficient is not invertible")
    inv0 = Fraction(1) / a0
    out = [inv0]
    for n in range(1, a.order + 1):
        acc = a.coeffs[n] * out[0]
        for k in range(1, n):
            acc = acc + binomial(n, k) * (a.coeffs[n - k] * out[k])
        out.append(-inv0 * acc)
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
    """e^{xt} truncated: coefficient n is x^n.  x may be a Fraction or a
    Polynomial (to carry x symbolically)."""
    x = _as_scalar(x)
    return EgfSeries([x**n for n in range(order + 1)])


def exp_minus_constant(c, order: int) -> EgfSeries:
    """e^t - c as an EGF: coefficients (1 - c, 1, 1, ...)."""
    c = _as_scalar(c)
    return EgfSeries([Fraction(1) - c] + [Fraction(1)] * order)


def frobenius_oracle(u: Fraction, order: int) -> EgfSeries:
    """Frobenius-Euler numbers H_0(u)..H_T(u) straight from the generating
    function (1-u)/(e^t - u), independent of any recurrence."""
    u = Fraction(u)
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
