"""Exact rational scalars, coefficient vectors and combinatorial counting
primitives.

Every quantity in this package is an exact ``fractions.Fraction`` (or an
arbitrary-precision ``int`` where integrality is guaranteed); nothing is
ever rounded.  ``as_fraction`` and ``exact_parameter`` are the coercions:
both refuse a ``float`` and a ``bool``, and so does ``check_at_least``,
the check of every index and exponent.  This module also owns the text
format of rationals on the command line, in grids and in JSON: ``"p/q"``
with an optional leading ``-``, the denominator omitted when it is 1
(``"2"``, ``"-1/3"``); ``exact_parameter``, the one reader of a rational
parameter, reads text only in that form.

:class:`Coefficients` is the storage shared by series and polynomials:
integer numerators over one positive denominator, its only stored form.
Kernels read and return it, so a chain of them makes no Fraction;
:func:`to_fractions` is the one place it becomes Fractions, on each read
of ``coeffs``.  :func:`differing_entries` is the one comparison of two
integer forms, for equality and for the verification harness alike.

:func:`binomial_rows` is the one source of Pascal rows, for the series
kernels and the CLI's polynomial rows.  The rows depend on nothing but
n, so those up to n = 64 are kept for the life of the process (at most
65 rows); this is the module's one cache, and it never changes a value.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import zip_longest
from operator import add
from typing import Iterable, Iterator, Sequence

__all__ = [
    "as_fraction",
    "exact_parameter",
    "check_at_least",
    "parse_rational",
    "format_rational",
    "format_ratio",
    "common_denominator",
    "to_fractions",
    "lowest_terms",
    "differing_entries",
    "Coefficients",
    "combine",
    "binomial",
    "binomial_rows",
    "multinomial",
    "compositions",
    "weak_compositions",
]

# ASCII digits only: \d alone would also match other scripts' digits,
# which int() reads, so a fullwidth "2" would parse as 2.
_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?", re.ASCII)


def as_fraction(value) -> Fraction:
    """An int or a Fraction as a Fraction; any other type, ``bool``
    included, raises TypeError.  A ``Fraction`` (not a subclass) is
    returned as it is."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("float coefficients are not allowed; use Fraction")
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"coefficients must be int or Fraction, not {type(value).__name__}")
    return Fraction(value)


def exact_parameter(value) -> Fraction:
    """A "p/q" string by :func:`parse_rational` ("0.5" raises ValueError),
    an int or Fraction as ``Fraction()`` reads it; a float raises TypeError,
    as its binary value is not the rational meant, and so does a bool.  A
    ``Fraction`` (not a subclass) is returned as it is."""
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise TypeError("float parameters are not allowed; use Fraction or a 'p/q' string")
    if isinstance(value, bool):
        raise TypeError("bool parameters are not allowed; use int or Fraction")
    return Fraction(value)


def check_at_least(name: str, value: int, low: int) -> None:
    """Refuse an index or exponent ``value`` (named ``name``) that is not an
    ``int`` (TypeError; a ``bool`` is not one) or is below ``low``
    (ValueError)."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
        raise TypeError(f"argument {name!r} must be an int, not {type(value).__name__}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}")


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
    """Inverse of :func:`parse_rational`: :func:`format_ratio` of ``value``
    in lowest terms (a ``bool`` prints as its integer)."""
    if type(value) is not Fraction:
        value = Fraction(value)
    return format_ratio(value.numerator, value.denominator)


def format_ratio(numerator: int, denominator: int) -> str:
    """The "p/q" text of ``numerator / denominator``, already in lowest
    terms with ``denominator > 0``; just "p" when the denominator is 1."""
    return f"{numerator}/{denominator}" if denominator != 1 else str(numerator)


def common_denominator(values: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """``(numerators, d)`` with ``d`` the lcm of the denominators of
    ``values`` and ``values[i] == numerators[i] / d``; ``d`` is 1 for no
    values."""
    d = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (d // v.denominator) for v in values], d


def to_fractions(numerators: Sequence[int], d: int) -> tuple[Fraction, ...]:
    """``numerators[i] / d`` for each i, one reduced Fraction each."""
    return tuple([Fraction(v, d) for v in numerators])


def lowest_terms(numerators: list[int], d: int) -> tuple[list[int], int]:
    """``(numerators, d)`` divided by their gcd, so that d is the lcm of
    the reduced denominators of the numerators[i] / d."""
    g = math.gcd(d, *numerators)
    if g == 1:
        return numerators, d
    return [v // g for v in numerators], d // g


def differing_entries(a: tuple, b: tuple) -> Iterator[tuple[int, int, int]]:
    """``(i, x, y)`` for each entry i where the integer forms ``a`` =
    (xs, d_a) and ``b`` = (ys, d_b), both d > 0, differ: x * d_b != y * d_a,
    the shorter padded with zeros.  Makes no Fraction."""
    (xs, da), (ys, db) = a, b
    return ((i, x, y) for i, (x, y) in enumerate(zip_longest(xs, ys, fillvalue=0))
            if x * db != y * da)


class Coefficients:
    """Immutable coefficients c_0..c_k, stored only as ``integer_form``,
    ``(numerators, d)`` with d > 0 and c_i = numerators[i] / d; ``coeffs``
    makes their Fractions on each read.  No caller may mutate the shared
    numerator list.  Values of one class are equal when their forms hold the
    same values (:func:`differing_entries`); hashing and pickling read Fractions."""

    __slots__ = ("integer_form",)

    def _hold(self, ints):
        object.__setattr__(self, "integer_form", ints)
        return self

    @classmethod
    def _of(cls, ints):
        """A value holding the integer form ``ints`` as it is, unchecked."""
        return object.__new__(cls)._hold(ints)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        a, b = self.integer_form, other.integer_form
        return len(a[0]) == len(b[0]) and next(differing_entries(a, b), None) is None

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), (self.coeffs,)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return to_fractions(*self.integer_form)

    def __repr__(self) -> str:
        return f"{type(self).__name__}([{', '.join(str(c) for c in self.coeffs)}])"


def combine(
    terms: Iterable[tuple[tuple[int, int], tuple[Sequence[int], int]]]
) -> tuple[list[int], int]:
    """``(totals, lcm)``: entry i of sum num / den * numerators / d over the
    ``((num, den), (numerators, d))`` pairs of integer weights and integer
    forms, as long as the longest numerator list (shorter ones count as
    padded with zeros).  Each ``den`` and ``d`` is a nonzero int; ``lcm``
    is positive.

    Terms with a zero weight are skipped.  The others are put over one
    lcm and summed in integers; nothing is reduced."""
    width, scaled = 0, []
    for (num, den), (nums, d) in terms:
        width = max(width, len(nums))
        if num:
            scaled.append((num, den * d, nums))
    lcm = math.lcm(*[den for _, den, _ in scaled])
    total = [0] * width
    for num, den, nums in scaled:
        # lcm // den carries the sign of den
        total[: len(nums)] = map(add, total, map((num * (lcm // den)).__mul__, nums))
    return total, lcm


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); zero outside 0 <= k <= n."""
    if n < 0:
        raise ValueError("binomial needs n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


# Rows C(n, 0..n) for n = 0..k, k <= _ROWS_KEPT: a tuple of tuples,
# replaced whole, never mutated, so a reader never sees a half-built list.
_ROWS_KEPT = 64
_kept_rows = ((1,),)


def binomial_rows(t: int) -> Iterator[tuple[int, ...]]:
    """Rows C(n, 0..n) for n = 0..t, each by Pascal's rule from the last
    (cheaper than math.comb once the entries are big).

    Rows up to n = 64 do not depend on anything but n, so they are kept for
    the life of the process, grown on demand; rows above 64 are built on
    each call and not kept, as big-integer work dominates there."""
    global _kept_rows
    check_at_least("t", t, 0)
    kept = _kept_rows
    if len(kept) <= min(t, _ROWS_KEPT):
        grown, row = list(kept), kept[-1]
        for _ in range(len(kept), min(t, _ROWS_KEPT) + 1):
            row = (1, *map(add, row, row[1:]), 1)
            grown.append(row)
        kept = _kept_rows = tuple(grown)
    yield from kept[: t + 1]
    row = kept[-1]
    for _ in range(len(kept), t + 1):
        row = (1, *map(add, row, row[1:]), 1)
        yield row


def multinomial(n: int, parts: Sequence[int]) -> int:
    """Multinomial coefficient n!/(parts[0]! * parts[1]! * ...).

    The parts must be nonnegative and sum to n.  Computed in one pass as
    the product of C(s_i, parts[i]) over the running sums s_i.
    """
    if n < 0:
        raise ValueError("multinomial needs n >= 0")
    result, total = 1, 0
    for p in parts:
        if p < 0:
            raise ValueError("multinomial parts must be nonnegative")
        total += p
        result *= math.comb(total, p)
    if total != n:
        raise ValueError(f"parts {tuple(parts)} do not sum to {n}")
    return result


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
