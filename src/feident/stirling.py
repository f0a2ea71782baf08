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

The recurrence uses only ``*`` by a small int and ``+``, so it runs on
the type of its row-1 seed: ``int`` rows for every identity, and exact
``Decimal`` rows (:func:`decimal_rows`) for the printed triangle, as
libmpdec writes a ``Decimal`` integer's text in linear time and CPython
3.11 writes an ``int``'s in quadratic time.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded, localcontext
from fractions import Fraction
from itertools import accumulate
from typing import Iterator

from .exact import check_at_least, weak_compositions

__all__ = ["triangle_recurrence", "decimal_rows", "coeff_closed_form"]


def _next_row(prev: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Row n + 1 from row n: a_k(N+1) = N a_k(N) + a_{k-1}(N), with
    a_N(N) = a_{-1}(N) = 0."""
    return tuple(n * above + left for above, left in zip(prev + (0,), (0,) + prev))


def triangle_recurrence(n_max: int, one=1) -> Iterator[tuple]:
    """Rows 1..n_max by the additive recurrence from row 1 = (one,), each
    built from the one before as it is read; ``n_max`` is checked on the
    call itself."""
    check_at_least("n_max", n_max, 1)
    return accumulate(range(1, n_max), _next_row, initial=(one,))


def decimal_rows(n_max: int) -> Iterator[tuple[Decimal, ...]]:
    """Rows 1..n_max of :func:`triangle_recurrence` as exact ``Decimal``
    integers.  Each row is built under a context of the largest precision
    and exponent that also traps ``Inexact`` and ``Rounded``, so a value
    raises rather than rounds, and is yielded outside it, so the caller's
    context holds between rows.  (A ``Context`` is built, not passed as
    keywords to ``localcontext``, which takes them only from 3.11.)"""
    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX)  # with the default traps
    exact.traps[Inexact] = exact.traps[Rounded] = True
    rows = triangle_recurrence(n_max, Decimal(1))
    for _ in range(n_max):
        with localcontext(exact):
            row = next(rows)
        yield row


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
