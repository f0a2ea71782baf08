"""The number table of u, H_0(u)..H_k(u) in integer form, ``fe_number``,
and the higher-order numbers H_n^(N)(u) of ``fe_higher_numbers``.

The order-1 numbers H_n(u) are the EGF coefficients of
H(t) = (1-u)/(e^t - u).  Since (e^t - u) H(t) = 1 - u, H_0 = 1 and, for
n > 0, sum_{l<=n} C(n,l) H_l = u H_n.  In the Euler-Seidel matrix of the
sequence (a^0_n = H_n, a^k_n = a^(k-1)_n + a^(k-1)_(n+1)) the first row
is a^n_0 = sum_l C(n,l) H_l, so this says a^n_0 = u H_n.  Walking from
the anti-diagonal d_i = a^(k-i)_i (i = 0..k) to the next one, a^(k+1)_0
is u H_(k+1) and each entry below it is the one above minus d_i, down to
a^0_(k+1) = H_(k+1); hence H_(k+1) = sum(d) / (u-1) (Seidel 1877; Dumont,
"Matrices d'Euler-Seidel", 1981).

By Carlitz, H_n(u) = A_n(u) / (u-1)^n with A_n the Eulerian polynomial,
so for u = p/q and r = p - q the denominator of H_n(u) divides r^n, and
H_n = M_n / r^n with integer M_n = q^n A_n(p/q).  Two kernels give the
same M_n:

- gamma route, for n <= 64.  A_n is gamma-positive (Foata and
  Schuetzenberger, "Theorie geometrique des polynomes euleriens", 1970):
  A_n(t) = sum_j g_(n,j) t^j (1+t)^(n-1-2j) for n >= 1, with g_(1,0) = 1
  and g_(n+1,j) = (j+1) g_(n,j) + 2(n-2j+1) g_(n,j-1).  With t = pq and
  s = p + q,

      M_n = q * sum_j g_(n,j) t^j s^(n-1-2j),

  one sum of about n/2 terms per index, evaluated by Horner's rule in
  s^2, whose coefficients g do not depend on u.  The rows g_(n,.) for
  n <= 64 are kept for the life of the process (1,056 integers of at most
  277 bits), grown on demand and published whole.
- Euler-Seidel route, for n > 64.  With the diagonal scaled by q r^k the
  recurrence above runs in integers: M_0 = 1, D_0 = (q) and

      M_(k+1) = sum(D_k),
      D_(k+1) = running differences of (p M_(k+1), r D_k[0], ..., r D_k[k]),

  and the last entry of D_k is q M_k.  Each step is a sum, a product by
  the small r and a running difference: three C-level passes over the
  diagonal, with no binomial and no gcd.

The gamma sum has half the terms of an Euler-Seidel step and needs no
diagonal.  Per new u of height <= 30 it takes about half the Euler-Seidel
time at n = 60, ties near n = 250 and is about 1.5 times slower at
n = 400; the switch sits at 64, the bound of the kept rows, so that the
rebuild from M_0 costs at most 64 steps.  (The series expansion in
:mod:`feident.series` is an independent oracle; neither kernel calls it.)

A table grows M_0..M_k to exactly the largest index asked for (never
doubled: the CLI reads H_0..H_n in ascending order, and the kernels'
cost grows as k^3 bits); Euler-Seidel keeps D_k, and so rebuilds a
gamma-built prefix from M_0 once.  The prefix is the one stored form of
the numbers: every reader takes it in integer form, numerators
M_l r^(n-l) over |r|^n; ``fe_number`` makes one Fraction from it and
keeps nothing.  :mod:`feident.frobenius` fills the table's other slots;
this module imports only :mod:`feident.exact` (and, below, loads
:mod:`feident.frobenius` for one route of ``fe_higher_numbers``), so
reading numbers compiles no series, polynomial or triangle code.
At most ``_TABLE_BOUND`` (16) tables are kept, least recently used
first out: an audit identity block touches at most 9 parameter values,
a CLI process one, and a sweep op at most 3, never repeating u.  A
table only publishes whole new values, so concurrent readers see
correct values.

The higher-order numbers have an integer recurrence of their own, in
which N is only a small multiplier.  Since F = (1-u)/(e^t-u) =
(1 - (e^t-1)/(u-1))^(-1),

    F^N = sum_k C(N+k-1, k) (e^t-1)^k / (u-1)^k,

and (e^t-1)^k / k! = sum_n S(n,k) t^n / n! with S the Stirling numbers of
the second kind (Comtet, "Advanced Combinatorics", 1974, ch. 5), so
H_n^(N)(u) = sum_(k<=n) C(N+k-1, k) k! S(n,k) / (u-1)^k.  With u = p/q and
r = p - q, U(n,k) = C(N+k-1, k) k! S(n,k) q^k r^(n-k) is an integer, and

    U(0,0) = 1,  U(n,k) = q(N+k-1) U(n-1,k-1) + k r U(n-1,k),
    r^n H_n^(N)(u) = sum_k U(n,k).

Each row is two C-level passes of products by kept small multipliers and
one sum; it reads no number table, no triangle and no series, and u = 0
(r = -q) needs no special case.  ``fe_higher_numbers`` takes it unless
10N <= n_max and u != 0, where the triangle formula of
:mod:`feident.frobenius`, over this module's prefix, is faster; it loads
that module only then.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, repeat
from operator import add, mul, sub

from .exact import _check_u, check_at_least

__all__ = ["fe_number", "fe_higher_numbers"]

# Most parameter values u whose prefix tables are kept at once.
_TABLE_BOUND = 16

# The largest index the gamma route serves; its rows are kept up to it.
_GAMMA_TOP = 64
# Rows g_(n,0..(n-1)//2) for n = 0..k, k <= _GAMMA_TOP, row 0 empty (M_0 = 1
# needs none): a tuple of tuples, replaced whole, never mutated, so a
# reader never sees a half-built list.
_kept_gammas = ((), (1,))


def _gamma_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """The gamma-vectors of A_0..A_k for some k >= n, n <= 64, kept for the
    life of the process and grown on demand."""
    global _kept_gammas
    kept = _kept_gammas
    if n < len(kept):
        return kept
    rows = list(kept)
    for m in range(len(kept) - 1, n):
        # g_(m+1,j) = (j+1) g_(m,j) + 2(m-2j+1) g_(m,j-1), j <= m//2
        row = rows[m]
        rows.append(tuple((j + 1) * a + 2 * (m - 2 * j + 1) * b
                          for j, a, b in zip(range(m // 2 + 1), (*row, 0), (0, *row))))
    kept = _kept_gammas = tuple(rows)
    return kept


def _gamma_step(q: int, s: int, ts: tuple[int, ...], gammas: tuple[int, ...], n: int) -> int:
    """M_n = q * sum_j g_(n,j) t^j s^(n-1-2j) for n >= 1, u = p/q and
    s = p + q, from the row ``gammas`` = g_(n,.) and the powers ``ts`` of
    t = pq, by Horner's rule in s^2."""
    y, total = s * s, 0
    for g, power in zip(gammas, ts):
        total = total * y + g * power
    return q * total * s if n % 2 == 0 else q * total


def _seidel_step(p: int, r: int, diagonal: list[int]) -> tuple[int, list[int]]:
    """M_(k+1) and D_(k+1) from D_k, for u = p/q and r = p - q."""
    m = sum(diagonal)
    return m, list(accumulate(chain((p * m,), map(mul, diagonal, repeat(r))), sub))


class _NumberTable:
    """The cache of one u = p/q: H_0(u)..H_k(u) as M_0..M_k over r^0..r^k,
    grown on demand by the gamma route up to k = 64 and by Euler-Seidel
    steps beyond, and the slots that :mod:`feident.frobenius` fills: the
    polynomials H_n(x|u), the triangle weights and the powers of F(u)."""

    __slots__ = ("_u", "_p", "_r", "_state", "_polynomials", "_powers", "_weights")

    def __init__(self, u: Fraction):
        self._u = u
        self._p = u.numerator
        self._r = u.numerator - u.denominator
        # (M_0..M_k, D_k), D_k None while the gamma route built the prefix
        # (k <= 64), replaced whole, never mutated, so threads extending one
        # table at once may redo work but never read a half-built prefix.
        # The dicts only gain whole values.
        self._state = ((1,), None)
        self._polynomials = {}  # n -> H_n(x|u)
        self._powers = {}  # N -> F(u)^N, F itself at N = 1
        self._weights = {}  # (N, variant) -> prefactor * a_k(N), k < N

    def _numerators(self, n: int) -> tuple[int, ...]:
        """M_0..M_k for some k >= n."""
        ms, diagonal = self._state
        if n < len(ms):
            return ms
        p, q = self._p, self._u.denominator
        if n <= _GAMMA_TOP:
            # no Euler-Seidel prefix is shorter than 66, so this one is gamma's
            rows = _gamma_rows(n)
            ts = tuple(accumulate(repeat(p * q, (n - 1) // 2), mul, initial=1))
            ms += tuple([_gamma_step(q, p + q, ts, rows[k], k) for k in range(len(ms), n + 1)])
        else:
            if diagonal is None:
                ms, diagonal = (1,), [q]
            r, grown = self._r, list(ms)
            for _ in range(len(ms), n + 1):
                m, diagonal = _seidel_step(p, r, diagonal)
                grown.append(m)
            ms = tuple(grown)
        self._state = (ms, diagonal)
        return ms

    def integer_form(self, first: int, end: int) -> tuple[list[int], int]:
        """H_first..H_(end-1) as numerators over |r|^(end-1)."""
        top, r = end - 1, self._r
        # sign * r^(top-l) for l = first..top, the sign making r^top positive
        scales = list(accumulate(repeat(r, top - first), mul,
                                 initial=-1 if r < 0 and top % 2 else 1))
        scales.reverse()
        return list(map(mul, self._numerators(top)[first:end], scales)), abs(r) ** top


_table = lru_cache(maxsize=_TABLE_BOUND)(_NumberTable)


def fe_number(n: int, u: Fraction) -> Fraction:
    """n-th Frobenius-Euler number H_n(u), by recurrence."""
    check_at_least("n", n, 0)
    (m,), d = _table(_check_u(u)).integer_form(n, n + 1)
    return Fraction(m, d)


def _higher_step(a: list[int], b: list[int], row: list[int]) -> list[int]:
    """Row n of U from row n - 1: U(n,k) = b_k U(n-1,k-1) + a_k U(n-1,k),
    with a_k = k r and b_k = q(N+k-1)."""
    return list(map(add, map(mul, a, row + [0]), map(mul, b, [0] + row)))


def _recurrence_numbers(n_max: int, order: int, u: Fraction) -> tuple[Fraction, ...]:
    """H_0^(N)(u)..H_{n_max}^(N)(u) as sum_k U(n,k) / r^n; the caller has
    checked the arguments."""
    q = u.denominator
    r = u.numerator - q
    a = [k * r for k in range(n_max + 1)]
    b = [q * (order + k - 1) for k in range(n_max + 1)]
    row, scale, values = [1], 1, [Fraction(1)]
    for _ in range(n_max):
        row = _higher_step(a, b, row)
        scale *= r
        values.append(Fraction(sum(row), scale))
    return tuple(values)


def fe_higher_numbers(n_max: int, order: int, u: Fraction) -> tuple[Fraction, ...]:
    """H_0^(N)(u)..H_{n_max}^(N)(u) by the cheaper route: the triangle
    formula for 10N <= n_max and u != 0 (its prefactor divides by u), else
    the integer recurrence of the module docstring, whose cost hardly
    grows with N.  The triangle
    builds N rows of the triangle, keeping one, and grows the prefix to
    n_max + N - 1.  In process on cold caches at u = 1/3 and -5/7 the two
    tie at 10N = n_max: the recurrence takes 1.0 times the triangle's
    time for n_max = 80 to 150, 0.9 to 1.0 times it for 400 to 1000.  At
    N = 3 to 5 it takes 1.1 to 1.3 times it for n_max = 80 to 150 and 1.5
    to 2 times it at 400; at 10N > n_max, 0.3 to 0.9 times it."""
    # checked as frobenius._checked_table checks, but with no table built
    check_at_least("n_max", n_max, 0)
    check_at_least("order", order, 1)
    u = _check_u(u)
    if u != 0 and 10 * order <= n_max:
        from .frobenius import _formula_numbers

        return _formula_numbers(_table(u), n_max, order, "corrected").coeffs
    return _recurrence_numbers(n_max, order, u)
