"""Dense univariate polynomials over exact rationals.

Coefficients are Fractions (ints are converted; a float or any other type
raises TypeError), stored in ascending degree order with no trailing
zeros; the zero polynomial is a single zero coefficient.  Instances are
immutable and support mixed arithmetic with ``int`` and ``Fraction``
scalars.  A Polynomial is never a series coefficient.

The product of two polynomials is convolved in integers: each factor is
put over one common denominator and each output coefficient becomes one
reduced Fraction, with one gcd per coefficient.  ``Polynomial.combination``
sums scalar multiples of polynomials the same way, through
:func:`feident.exact.linear_combination`: every term over one lcm, one
integer sum and one reduced Fraction per coefficient.  Every linear
operator is one combination: a product by a scalar has one term, ``-p``
one, and ``p + q``, ``p - q`` (either operand a scalar) two.  A float
operand or evaluation point raises TypeError.  ``Polynomial.appell``
makes one Fraction per coefficient from an integer product.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, Union

from .exact import as_fraction, binomial, common_denominator, linear_combination

__all__ = ["Polynomial"]

Scalar = Union[int, Fraction]


class Polynomial:
    """Immutable dense polynomial; ``coeffs[d]`` is the coefficient of x^d."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = (0,)):
        cs = [c if type(c) is Fraction else as_fraction(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return type(self), (self.coeffs,)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls((0,))

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        return cls((value,))

    @classmethod
    def appell(cls, numbers: Sequence[Scalar]) -> "Polynomial":
        """sum_d C(n,d) numbers[n-d] x^d with n = len(numbers) - 1: the
        Appell polynomial of the numbers, as H_n(x|u) is that of the H_l(u)."""
        n = len(numbers) - 1
        xs = [x if type(x) is Fraction else as_fraction(x) for x in reversed(numbers)]
        # one Fraction (one gcd) per coefficient, not an int * Fraction product
        return cls([Fraction(binomial(n, d) * x.numerator, x.denominator)
                    for d, x in enumerate(xs)])

    @classmethod
    def combination(cls, terms: Iterable[tuple[Scalar, "Polynomial"]]) -> "Polynomial":
        """sum scalar * poly over the ``(scalar, poly)`` pairs, summed in
        integers over one common denominator (see
        :func:`feident.exact.linear_combination`); zero for no terms."""
        return cls(linear_combination((c, p.coeffs) for c, p in terms))

    @property
    def degree(self) -> int:
        """Degree of the stored representation; 0 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, d: int) -> Fraction:
        """Coefficient of x^d, zero beyond the stored degree."""
        if d < 0:
            raise ValueError("negative degree")
        if d >= len(self.coeffs):
            return Fraction(0)
        return self.coeffs[d]

    def __call__(self, value: Scalar) -> Fraction:
        if isinstance(value, float):
            raise TypeError("float points are not allowed; use Fraction")
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __bool__(self) -> bool:
        return self.coeffs != (Fraction(0),)

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
        a, da = common_denominator(self.coeffs)
        b, db = common_denominator(other.coeffs)
        b.reverse()
        top = len(b) - 1
        d = da * db
        out = []
        for m in range(len(a) + top):
            lo, hi = max(0, m - top), min(m, len(a) - 1) + 1
            # b[top - m + i] is the coefficient of x^(m-i) in other
            s = sum(map(mul, a[lo:hi], b[top - m + lo: top - m + hi]))
            out.append(Fraction(s, d))
        return Polynomial(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Polynomial":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("polynomial divided by zero scalar")
        return self * (Fraction(1) / Fraction(other))

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial power needs a nonnegative integer")
        out = Polynomial.one()
        for _ in range(exponent):
            out = out * self
        return out

    def __repr__(self) -> str:
        return f"Polynomial([{', '.join(str(c) for c in self.coeffs)}])"
