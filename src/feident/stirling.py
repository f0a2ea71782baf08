"""The coefficient triangle a_k(N) linking powers of 1/(e^t - u) to its
derivatives.

Row N holds a_0(N)..a_{N-1}(N).  Two independent constructions are
provided: the additive recurrence a_k(N+1) = N a_k(N) + a_{k-1}(N) seeded
with row 1 = (1,), a stream of rows in which each row is built from the
one before and only as it is read, so a reader that keeps one row holds
one row; and the closed-form composition sum

    a_k(N) = N!/(k+1)! * sum 1/(l_1 l_2 ... l_{k+1})

over all ordered tuples of positive integers summing to N.  Their
agreement is one of the package's acceptance checks.  (The triangle
coincides with the unsigned Stirling numbers of the first kind under a
shift of k; that identification is a cross-check, never the
implementation.)
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Iterator

from .exact import check_at_least, weak_compositions

__all__ = ["triangle_recurrence", "coeff_closed_form"]


def _next_row(prev: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Row n + 1 from row n: a_k(N+1) = N a_k(N) + a_{k-1}(N), with
    a_N(N) = a_{-1}(N) = 0."""
    return tuple(n * above + left for above, left in zip(prev + (0,), (0,) + prev))


def triangle_recurrence(n_max: int) -> Iterator[tuple[int, ...]]:
    """Rows 1..n_max by the additive recurrence, each built from the one
    before as it is read; ``n_max`` is checked on the call itself."""
    check_at_least("n_max", n_max, 1)
    return accumulate(range(1, n_max), _next_row, initial=(1,))


def coeff_closed_form(k: int, n: int) -> Fraction:
    """a_k(N) by the composition sum; always an integer value, returned as
    a Fraction with denominator 1."""
    check_at_least("N", n, 1)
    check_at_least("k", k, 0)
    if k > n - 1:
        raise ValueError(f"k = {k} outside 0..{n - 1}")
    total = Fraction(0)
    # the compositions of N into k + 1 positive parts are the weak
    # compositions of N - k - 1, each part one larger
    for parts in weak_compositions(n - k - 1, k + 1):
        prod = 1
        for p in parts:
            prod *= p + 1
        total += Fraction(1, prod)
    return Fraction(math.factorial(n), math.factorial(k + 1)) * total
