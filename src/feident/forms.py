"""The integer form of coefficient vectors, shared by series and
polynomials.

:class:`Coefficients` is their storage: integer numerators over one
positive denominator, its only stored form.  Kernels read and return it,
so a chain of them makes no Fraction; :func:`to_fractions` is the one
place it becomes Fractions, on each read of ``coeffs``.
:func:`differing_entries` is the one comparison of two integer forms, for
equality and for the verification harness alike, and :func:`combine` the
one weighted sum of them.  :func:`common_denominator` and
:func:`lowest_terms` put values into the form.

Only series, polynomials and what is built on them load this module; the
tables of numbers and the triangle, which read scalars only, never
compile it.
"""

import math
from fractions import Fraction
from itertools import zip_longest
from operator import add
from typing import Iterable, Iterator, Sequence

__all__ = [
    "common_denominator",
    "to_fractions",
    "lowest_terms",
    "differing_entries",
    "Coefficients",
    "combine",
]


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
