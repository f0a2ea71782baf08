"""Dense univariate polynomials over exact rationals.

Coefficients are Fractions (ints are converted; a float, a bool or any
other type raises TypeError), stored in ascending degree order with no
trailing zeros; the zero polynomial is a single zero coefficient.
Instances are immutable and support mixed arithmetic with ``int`` and
``Fraction`` scalars.  A Polynomial is never a series coefficient.

A Polynomial keeps its coefficients as integer numerators over one
positive denominator, put over the lcm of their denominators when it is
built, plus the Fractions once read (:class:`feident.exact.Coefficients`).
The product of two polynomials is convolved on the integer forms and put
in lowest terms.
``Polynomial.combination`` sums weighted polynomials through
:func:`feident.exact.combine`: every term over one lcm and one integer sum,
in integer form.  A weight is an int or Fraction scalar, made an integer
pair ``(num, den)`` once per term, or such a pair already, so the sum
itself runs on integers only.  Every linear operator is one combination: a
product by a scalar has one term, ``-p`` one, and ``p + q``, ``p - q``
(either operand a scalar) two.  A float or bool operand, evaluation point
or exponent raises TypeError.
``Polynomial.appell`` builds the integer form from the numbers' own, for
numbers held as a series, or puts a plain sequence of numbers over one
denominator first.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, Union

from .exact import (Coefficients, as_fraction, binomial, check_at_least, combine,
                    common_denominator, lowest_terms)

__all__ = ["Polynomial"]

Scalar = Union[int, Fraction]
Weight = Union[Scalar, tuple[int, int]]


def _trimmed(values: list, zero) -> list:
    """``values`` without trailing zeros; ``[zero]`` for the zero polynomial."""
    while len(values) > 1 and not values[-1]:
        values.pop()
    return values or [zero]


def _weight(value) -> tuple[int, int]:
    """A combination weight as an integer pair ``(num, den)``: a tuple must
    be such a pair already, two ints with ``den != 0`` (TypeError or
    ValueError otherwise), and an int or Fraction scalar is converted (any
    other type, ``bool`` included, raises TypeError)."""
    if type(value) is tuple:
        num, den = value
        if type(num) is not int or type(den) is not int:
            raise TypeError("a weight pair must be two ints (num, den)")
        if den == 0:
            raise ValueError("a weight pair must have a nonzero denominator")
        return value
    if type(value) is not int and type(value) is not Fraction:
        value = as_fraction(value)
    return value.numerator, value.denominator


def _appell_ints(nums: list[int], d: int) -> tuple[list[int], int]:
    """Integer form of the Appell polynomial of the numbers nums[l] / d."""
    n = len(nums) - 1
    return _trimmed([binomial(n, k) * v for k, v in enumerate(reversed(nums))], 0), d


class Polynomial(Coefficients):
    """Immutable dense polynomial; ``coeffs[d]`` is the coefficient of x^d."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable[Scalar] = (0,)):
        cs = tuple(_trimmed([c if type(c) is Fraction else as_fraction(c) for c in coeffs],
                            Fraction(0)))
        self._hold(common_denominator(cs), cs)

    @classmethod
    def _from_ints(cls, nums: list[int], d: int) -> "Polynomial":
        return cls._of((_trimmed(nums, 0), d))

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._of(([0], 1))

    @classmethod
    def one(cls) -> "Polynomial":
        return cls._of(([1], 1))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls._of(([0, 1], 1))

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        return cls((value,))

    @classmethod
    def appell(cls, numbers: Sequence[Scalar]) -> "Polynomial":
        """sum_d C(n,d) numbers[n-d] x^d with n = len(numbers) - 1: the
        Appell polynomial of the numbers, as H_n(x|u) is that of the H_l(u).
        Numbers held as a :class:`~feident.exact.Coefficients` value give
        their integer form; others (ints or Fractions) are put over one
        denominator."""
        ints = (numbers.integer_form if isinstance(numbers, Coefficients)
                else common_denominator([as_fraction(x) for x in numbers]))
        return cls._from_ints(*_appell_ints(*ints))

    @classmethod
    def combination(cls, terms: Iterable[tuple[Weight, "Polynomial"]]) -> "Polynomial":
        """sum weight * poly over the ``(weight, poly)`` pairs, summed in
        integers over one common denominator (see
        :func:`feident.exact.combine`); zero for no terms.  A weight is an
        int or Fraction, or an integer pair ``(num, den)`` with ``den != 0``
        for num / den."""
        return cls._from_ints(*combine((_weight(w), p.integer_form) for w, p in terms))

    @property
    def degree(self) -> int:
        """Degree of the stored representation; 0 for the zero polynomial."""
        return len(self.integer_form[0]) - 1

    def coefficient(self, d: int) -> Fraction:
        """Coefficient of x^d, zero beyond the stored degree."""
        check_at_least("d", d, 0)
        nums, den = self.integer_form
        return Fraction(nums[d] if d < len(nums) else 0, den)

    def __call__(self, value: Scalar) -> Fraction:
        """The value at p/q: Horner's rule on the numerators gives den * q^deg times it."""
        value = as_fraction(value)
        p, q = value.numerator, value.denominator
        nums, den = self.integer_form
        acc, scale = 0, 1
        for c in reversed(nums):
            acc, scale = acc * p + c * scale, scale * q
        return Fraction(acc, den * scale // q)

    def __bool__(self) -> bool:
        return any(self.integer_form[0])

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == (Fraction(other),)
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its scalar, so it hashes like it
        return hash(self.coeffs[0] if len(self.coeffs) == 1 else self.coeffs)

    def __neg__(self) -> "Polynomial":
        return Polynomial.combination([(-1, self)])

    def _linear(self, a: int, other, b: int) -> "Polynomial":
        """a * self + b * other, for ``other`` a Polynomial or an int or
        Fraction scalar; NotImplemented for anything else."""
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial.combination([(a, self), (b, other)])

    def __add__(self, other) -> "Polynomial":
        return self._linear(1, other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        return self._linear(1, other, -1)

    def __rsub__(self, other) -> "Polynomial":
        return self._linear(-1, other, 1)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial.combination([(other, self)])
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, da = self.integer_form
        b, db = other.integer_form
        b = b[::-1]
        top = len(b) - 1
        out = []
        for m in range(len(a) + top):
            lo, hi = max(0, m - top), min(m, len(a) - 1) + 1
            # b[top - m + i] is the coefficient of x^(m-i) in other
            out.append(sum(map(mul, a[lo:hi], b[top - m + lo: top - m + hi])))
        return Polynomial._from_ints(*lowest_terms(out, da * db))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Polynomial":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        num, den = _weight(other)
        if num == 0:
            raise ZeroDivisionError("polynomial divided by zero scalar")
        return Polynomial.combination([((den, num), self)])

    def __pow__(self, exponent: int) -> "Polynomial":
        check_at_least("exponent", exponent, 0)
        out = Polynomial.one()
        for _ in range(exponent):
            out = out * self
        return out
