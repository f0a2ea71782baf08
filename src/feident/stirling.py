"""The coefficient triangle a_k(N) linking powers of 1/(e^t - u) to its
derivatives.

Row N holds a_0(N)..a_{N-1}(N).  Two independent constructions are
provided: the additive recurrence a_k(N+1) = N a_k(N) + a_{k-1}(N) seeded
with row 1 = [1], and the closed-form composition sum

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
from typing import NamedTuple

from .exact import check_at_least, compositions

__all__ = ["StirlingTriangle", "triangle_recurrence", "coeff_closed_form"]


class StirlingTriangle(NamedTuple):
    """Rows 1..n_max of the triangle; ``rows[N-1][k]`` is a_k(N).  An
    immutable value: equal when the rows are, and hashable."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def n_max(self) -> int:
        return len(self.rows)

    def row(self, n: int) -> tuple[int, ...]:
        check_at_least("n", n, 1)
        if n > self.n_max:
            raise ValueError(f"row {n} outside 1..{self.n_max}")
        return self.rows[n - 1]


def triangle_recurrence(n_max: int) -> StirlingTriangle:
    """Build rows 1..n_max by the additive recurrence."""
    check_at_least("n_max", n_max, 1)
    rows = [(1,)]
    for n in range(1, n_max):
        prev = rows[-1]
        # a_k(N+1) = N a_k(N) + a_{k-1}(N), with a_N(N) = a_{-1}(N) = 0
        rows.append(tuple(n * above + left for above, left in zip(prev + (0,), (0,) + prev)))
    return StirlingTriangle(tuple(rows))


def coeff_closed_form(k: int, n: int) -> Fraction:
    """a_k(N) by the composition sum; always an integer value, returned as
    a Fraction with denominator 1."""
    check_at_least("N", n, 1)
    check_at_least("k", k, 0)
    if k > n - 1:
        raise ValueError(f"k = {k} outside 0..{n - 1}")
    total = Fraction(0)
    for parts in compositions(n, k + 1):
        prod = 1
        for p in parts:
            prod *= p
        total += Fraction(1, prod)
    return Fraction(math.factorial(n), math.factorial(k + 1)) * total
