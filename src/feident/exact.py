"""Exact rational scalars and combinatorial counting primitives.

Every quantity in this package is an exact ``fractions.Fraction`` (or an
arbitrary-precision ``int`` where integrality is guaranteed); nothing is
ever rounded.  This module also owns the text format used for rationals
on the command line and in JSON: ``"p/q"`` with an optional leading
``-``, the denominator omitted when it is 1 (``"2"``, ``"-1/3"``).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterator, Sequence

__all__ = [
    "rat",
    "as_fraction",
    "exact_parameter",
    "parse_rational",
    "format_rational",
    "common_denominator",
    "binomial",
    "multinomial",
    "compositions",
    "weak_compositions",
]

_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?")


def rat(numer: int, denom: int = 1) -> Fraction:
    """Exact fraction numer/denom in canonical form (positive denominator,
    gcd-reduced).  Raises ValueError on a zero denominator."""
    if denom == 0:
        raise ValueError("zero denominator")
    return Fraction(numer, denom)


def as_fraction(value) -> Fraction:
    """An int or a Fraction as a Fraction; any other type raises TypeError."""
    if isinstance(value, float):
        raise TypeError("float coefficients are not allowed; use Fraction")
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"coefficients must be int or Fraction, not {type(value).__name__}")
    return Fraction(value)


def exact_parameter(value) -> Fraction:
    """An int, Fraction or "p/q" string as ``Fraction()`` reads it; a float
    raises TypeError, as its binary value is not the rational meant."""
    if isinstance(value, float):
        raise TypeError("float parameters are not allowed; use Fraction or a 'p/q' string")
    return Fraction(value)


def parse_rational(text: str) -> Fraction:
    """Parse the "p/q" rational grammar.

    Accepts an optional leading minus sign and an optional "/q" part with
    q > 0; anything else (empty string, decimals, "1/0", signed
    denominators) is rejected with ValueError.
    """
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"not a rational in p/q form: {text!r}")
    numer = int(m.group(1))
    denom = int(m.group(2)) if m.group(2) is not None else 1
    if denom == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(numer, denom)


def format_rational(value: Fraction | int) -> str:
    """Inverse of :func:`parse_rational`; ``Fraction`` already prints in
    canonical "p/q" form."""
    return str(Fraction(value))


def common_denominator(values: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """``(numerators, d)`` with ``d`` the lcm of the denominators of
    ``values`` and ``values[i] == numerators[i] / d``; ``d`` is 1 for no
    values."""
    d = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (d // v.denominator) for v in values], d


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); zero outside 0 <= k <= n."""
    if n < 0:
        raise ValueError("binomial needs n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial(n: int, parts: Sequence[int]) -> int:
    """Multinomial coefficient n!/(parts[0]! * parts[1]! * ...).

    The parts must be nonnegative and sum to n.
    """
    if n < 0:
        raise ValueError("multinomial needs n >= 0")
    if any(p < 0 for p in parts):
        raise ValueError("multinomial parts must be nonnegative")
    if sum(parts) != n:
        raise ValueError(f"parts {tuple(parts)} do not sum to {n}")
    denom = 1
    for p in parts:
        denom *= math.factorial(p)
    return math.factorial(n) // denom


def compositions(total: int, num_parts: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of positive integers with ``num_parts`` entries
    summing to ``total``, in lexicographic order.

    There are C(total-1, num_parts-1) of them; the iterator is empty when
    num_parts > total.
    """
    if total < 1 or num_parts < 1:
        raise ValueError("compositions needs total >= 1 and num_parts >= 1")
    if num_parts <= total:
        yield from _lex_compositions(total, num_parts, 1)


def weak_compositions(total: int, num_parts: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of nonnegative integers with ``num_parts`` entries
    summing to ``total``, in lexicographic order.

    There are C(total+num_parts-1, num_parts-1) of them.
    """
    if total < 0 or num_parts < 1:
        raise ValueError("weak_compositions needs total >= 0 and num_parts >= 1")
    yield from _lex_compositions(total, num_parts, 0)


def _lex_compositions(total: int, num_parts: int, low: int) -> Iterator[tuple[int, ...]]:
    """Tuples of ``num_parts`` integers >= ``low`` summing to ``total`` (at
    least low * num_parts), in lexicographic order, without recursion.

    The successor of a tuple moves one unit into the rightmost entry that
    can still grow, and puts everything after it back at its minimum with
    the remainder in the last entry.
    """
    last = num_parts - 1
    parts = [low] * last + [total - low * last]
    while True:
        yield tuple(parts)
        if last == 0:
            return
        if parts[last] > low:
            parts[last - 1] += 1
            parts[last] -= 1
            continue
        # parts[last] is at its minimum: the excess sits in the last entry
        # p < last above the minimum, and the entry before it grows; with
        # no such p > 0 this was the last tuple.
        p = last - 1
        while p > 0 and parts[p] == low:
            p -= 1
        if p == 0:
            return
        parts[p - 1] += 1
        parts[last] = parts[p] - 1
        parts[p] = low
