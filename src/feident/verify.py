"""Two-route identity verification with machine-readable reports.

Each identity is evaluated twice, through code paths that share only the
basic arithmetic layer: a closed-form route (recurrences, the coefficient
triangle, direct enumeration) against a truncated generating-function
route.  Where an identity circulates with a sign or coefficient typo,
both the commonly typeset form (``as_printed``) and the repaired form
(``corrected``) can be evaluated; the report records which one actually
holds, with exact mismatch values.

A checker body checks its parameters once and returns ``(var, lhs, rhs)``:
its two routes as zero-argument callables, each returning a series or
polynomial in ``var``, or, for a scalar identity (theorem3, corollary4),
a one-entry series labelled ``"value"``.  Each check runs once, where the
value enters: the registry checks types and ``variant``, the body the
ranges and u (an (n, N, u) body through ``_checked_table``, as the public
higher-order functions do), and the route helpers (``_formula_numbers``,
``frobenius.power``) trust it and check nothing, reading the number
table of u that the body looked up once for both routes.  The registry
calls ``lhs()``, then ``rhs()``, and compares their integer forms in
:func:`_mismatches` with :func:`feident.exact.differing_entries`, the one
comparison; it makes Fractions only for the entries that differ.  As no body compares, each
route can be run, timed and traced alone; ``tests/test_route_map.py``
pins what each enters.

The routes' sums run on integers: the composition sums of corollary4 and
eq60_multinomial over the table's numerators of H_0..H_n (by direct
enumeration, each tuple's multinomial weight read from
:func:`_composition_terms`, which keeps at most 64 enumerations of at
most 256 tuples, as they depend on no parameter), and the Carlitz
and Bernoulli products as one integer combination each, with integer-pair
weights from the parameters' and tables' numerators and denominators.
theorem1 reads both routes from the number table of u, as theorem3 does:
H = (1-u)F and H^N, and the triangle weights w_k summed over shifted
slices of H, each side times one integer pair; this module computes no
series power, inverse or triangle row itself.  corollary2 is theorem1
with both sides multiplied by e^{xt} once.

Reports are deterministic functions of (identity, params, variant), and a
report passes exactly when its mismatch list is empty.  A ``Mismatch``
holds both values exact; only the report's text (``to_dict`` and
:func:`document_json`) formats them, with ``str``, so a failing check is
``fail`` however many digits its values have.  :func:`document_json`
renders the JSON text of reports in the bytes of ``json.dumps(doc,
indent=2)``, writing the summary with ``json.dumps`` itself.

``CHECKERS`` maps identity ids to checkers, in audit order; each is
registered where it is defined, with ``@_identity(id)``, which reads the
body's ``__code__``, ``__defaults__`` and ``__annotations__`` once into a
schema: one ``Param(name, integer, default)`` per parameter, in order
(``integer`` when annotated ``int``, as the others take rationals;
``default`` is ``REQUIRED`` when there is none).  A body takes only
positional-or-keyword parameters.  Those other than ``variant`` are the
report's, and a ``variant`` parameter means the identity has
as-printed/corrected forms.  Grid axes and CLI flags are read from the
schema (:func:`parameters`).  The registry binds each call against the
schema, raising ``TypeError`` for a call the body could not take before
any value is read; then :func:`_read`, the one reader of a checker
argument and of a grid value, reads each in parameter order (a rational
once, with :func:`feident.exact.exact_parameter`), so a body gets
Fractions; the registry runs and compares the routes and builds the report.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from types import MappingProxyType
from typing import NamedTuple

from .exact import (
    _check_u,
    binomial,
    check_at_least,
    differing_entries,
    exact_parameter,
    multinomial,
    weak_compositions,
)
from .frobenius import (
    VARIANTS,
    _check_variant,
    _checked_table,
    _formula_numbers,
    _shifted_sum,
    _table,
    bernoulli_number,
    bernoulli_polynomial,
    polynomial,
    power,
    weights,
)
from .poly import Polynomial
from .series import EgfSeries, exp_xt, series_mul

__all__ = [
    "Mismatch",
    "VerificationReport",
    "CHECKERS",
    "IDENTITIES",
    "DEFAULT_GRID",
    "Param",
    "REQUIRED",
    "parameters",
    "grid_axes",
    "verify_theorem1",
    "verify_corollary2",
    "verify_theorem3",
    "verify_corollary4",
    "verify_corollary5",
    "verify_product_multinomial",
    "verify_carlitz",
    "verify_carlitz_reciprocal",
    "verify_bernoulli_product",
    "audit_all",
    "summarize",
    "audit_document",
    "document_json",
]


class Mismatch(NamedTuple):
    """One disagreeing coefficient: where, and the two exact values."""

    at: str
    lhs: Fraction
    rhs: Fraction


class VerificationReport(NamedTuple):
    identity: str
    variant: str
    params: dict
    mismatches: tuple[Mismatch, ...] = ()
    error: str | None = None

    @property
    def verdict(self) -> str:
        if self.error is not None:
            return "error"
        return "fail" if self.mismatches else "pass"

    def to_dict(self) -> dict:
        doc = {
            "identity": self.identity,
            "variant": self.variant,
            "params": dict(self.params),
            "verdict": self.verdict,
            "mismatches": [
                {"at": m.at, "lhs": str(m.lhs), "rhs": str(m.rhs)}
                for m in self.mismatches
            ],
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc


class _Required:
    """The default of a parameter that has none."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "REQUIRED"

    def __reduce__(self) -> str:
        return "REQUIRED"


REQUIRED = _Required()


class Param(NamedTuple):
    """One checker parameter: ``integer`` when annotated ``int`` (the
    others take rationals), and its default or ``REQUIRED``."""

    name: str
    integer: bool
    default: object = REQUIRED


CHECKERS = {}

# identity -> {name: Param}, in the body's parameter order.
_SCHEMAS = {}

# Code flags of a body that takes *args or **kwargs.
_CO_VARARGS, _CO_VARKEYWORDS = 0x04, 0x08


def parameters(identity: str):
    """The checker's ``{name: Param}``, ``variant`` included, in order."""
    return MappingProxyType(_SCHEMAS[identity])


def _schema(body) -> dict:
    """``{name: Param}`` of ``body``'s parameters, read from its code
    object; a body with any but plain positional-or-keyword parameters
    raises TypeError."""
    code = body.__code__
    if (code.co_flags & (_CO_VARARGS | _CO_VARKEYWORDS) or code.co_kwonlyargcount
            or code.co_posonlyargcount):
        raise TypeError(f"checker {body.__name__} may take only positional-or-keyword parameters")
    names = code.co_varnames[: code.co_argcount]
    defaults = body.__defaults__ or ()
    required = len(names) - len(defaults)
    annotations = body.__annotations__
    return {
        name: Param(name, annotations.get(name) == "int",
                    defaults[i - required] if i >= required else REQUIRED)
        for i, name in enumerate(names)
    }


def _read(param: Param, value):
    """The argument ``param`` as a body takes it: an ``int``, a variant, or
    a rational read by ``exact_parameter``; the wrong type (a ``bool``
    included) raises TypeError, a malformed value ValueError."""
    if param.name == "variant":
        return _check_variant(value)
    if param.integer:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"argument {param.name!r} must be an int, not {type(value).__name__}")
        return value
    if isinstance(value, bool):
        raise TypeError(f"argument {param.name!r} must be a rational, not bool")
    return exact_parameter(value)


def _bind(schema: dict, args: tuple, kwargs: dict) -> dict:
    """Each parameter's value in a call, defaults filled in, read by :func:`_read`
    in order; a call the body could not take raises TypeError before any read."""
    if len(args) > len(schema):
        raise TypeError("too many positional arguments")
    arguments = dict(zip(schema, args))
    for name, value in kwargs.items():
        if name not in schema:
            raise TypeError(f"got an unexpected keyword argument {name!r}")
        if name in arguments:
            raise TypeError(f"multiple values for argument {name!r}")
        arguments[name] = value
    for name, param in schema.items():
        if name not in arguments and param.default is REQUIRED:
            raise TypeError(f"missing a required argument: {name!r}")
    return {name: _read(param, arguments.get(name, param.default))
            for name, param in schema.items()}


def _report(identity: str, arguments: dict, mismatches=(), error=None):
    """The report of ``identity`` called with ``arguments``, whose rationals
    are Fractions: each parameter as ``str`` writes it, so a rational in
    "p/q" form, in parameter order."""
    values = {name: str(arguments[name]) for name in _SCHEMAS[identity] if name != "variant"}
    variant = arguments.get("variant", "not_applicable")
    return VerificationReport(identity, variant, values, tuple(mismatches), error)


def _identity(identity: str):
    """Register the body below as ``CHECKERS[identity]`` (see the module doc)."""

    def register(body):
        schema = _SCHEMAS[identity] = _schema(body)

        @functools.wraps(body)
        def checker(*args, **kwargs) -> VerificationReport:
            arguments = _bind(schema, args, kwargs)
            var, lhs, rhs = body(**arguments)
            return _report(identity, arguments, _mismatches(var, lhs(), rhs()))

        CHECKERS[identity] = checker
        return checker

    return register


def _mismatches(var: str, lhs, rhs) -> list[Mismatch]:
    """The entries where the sides' integer forms differ, the shorter padded
    with zeros, at ``var``^i (at ``var`` alone for a ``"value"``)."""
    a, b = lhs.integer_form, rhs.integer_form
    return [Mismatch(var if var == "value" else f"{var}^{i}", Fraction(x, a[1]),
                     Fraction(y, b[1])) for i, x, y in differing_entries(a, b)]


def _derivative_expansion(N, u, T, variant):
    """theorem1's routes to order T-(N-1), from the table of u, where
    H = (1-u)F: H^N and sum_k w_k H^(k) with theorem3's weights, each times
    c = (N-1)! * s * u^(N-1) / (1-u)^N, which gives the paper's two sides
    (w_k carries the sign s).  For u = p/q, c = cn / cd with cn = (N-1)! *
    s * p^(N-1) * q and cd = (q-p)^N, the sign put in cn.  H is read to
    order T first, so the table computes it once."""
    check_at_least("N", N, 1)
    u = _check_u(u, forbid_zero=True)
    if T < N:
        raise ValueError("truncation order T must be >= N")
    if T > sys.maxsize:
        raise OverflowError(f"T is too large: must be <= {sys.maxsize}")
    table = _table(u)
    target = T - (N - 1)
    h = power(table, T, 1)
    p, q = u.numerator, u.denominator
    sign = 1 if variant == "as_printed" else (-1) ** (N - 1)
    cn, cd = math.factorial(N - 1) * sign * p ** (N - 1) * q, (q - p) ** N
    if cd < 0:
        cn, cd = -cn, -cd

    def powers():
        nums, d = power(table, target, N).integer_form
        return EgfSeries._of(([cn * v for v in nums], cd * d))

    def derivatives():
        w, e = weights(table, N, variant)
        return _shifted_sum(([cn * v for v in w], cd * e), h.integer_form, target + 1)

    return powers, derivatives


@_identity("theorem1")
def verify_theorem1(N: int, u, T: int = 16, variant: str = "corrected"):
    """Derivative expansion of powers of F = 1/(e^t - u):

        (N-1)! * s * u^(N-1) * F^N  =  sum_{k<N} a_k(N) F^(k)

    compared coefficientwise to order T-(N-1), with s = +1 for
    ``as_printed`` and s = (-1)^(N-1) for ``corrected``.
    """
    return ("t", *_derivative_expansion(N, u, T, variant))


@_identity("corollary2")
def verify_corollary2(N: int, u, x, T: int = 16, variant: str = "corrected"):
    """Same expansion with every series carrying the extra factor e^{xt}:
    theorem1's two sides, each multiplied by e^{xt} once.  By linearity,
    sum_k a_k (F^(k) e^{xt}) = (sum_k a_k F^(k)) e^{xt}, exactly."""
    lhs, rhs = _derivative_expansion(N, u, T, variant)
    E = exp_xt(x, T - (N - 1))
    return "t", lambda: series_mul(lhs(), E), lambda: series_mul(rhs(), E)


@_identity("theorem3")
def verify_theorem3(n: int, N: int, u, variant: str = "corrected"):
    """Higher-order number H_n^(N)(u): series route against the
    coefficient-triangle formula."""
    table = _checked_table("n", n, "N", N, u, forbid_zero=True)

    def series_entry():
        nums, d = power(table, n, N).integer_form
        return EgfSeries._of((nums[n:], d))

    return "value", series_entry, lambda: _formula_numbers(table, n, N, variant, first=n)


# Enumerations of at most _TERMS_KEPT tuples are kept, at most
# _ENUMERATIONS_KEPT of them, so the memory they hold is bounded.  The
# default audit sums over 24 pairs (k, N), the largest of C(8, 3) = 56
# tuples; a sweep op over 7, the largest of C(9, 3) = 84.
_TERMS_KEPT = 256
_ENUMERATIONS_KEPT = 64


@functools.lru_cache(maxsize=_ENUMERATIONS_KEPT)
def _composition_terms(k: int, N: int) -> tuple:
    """``(multinomial(k; l), l)`` for each weak composition l of k into N
    parts, in order; these do not depend on u, so they are kept."""
    return tuple((multinomial(k, parts), parts) for parts in weak_compositions(k, N))


def _composition_sum(k: int, N: int, nums) -> int:
    """Sum over the weak compositions l of k into N parts of
    multinomial(k; l) * nums[l_1] * ... * nums[l_N], by direct enumeration.

    With nums[0..k] integer numerators over one common denominator d (as
    the number table serves them), every product has the denominator d^N,
    so the sum runs on integers and its value is the result over d^N.  The
    terms come from :func:`_composition_terms` when there are at most
    ``_TERMS_KEPT`` of them, and stream from ``weak_compositions`` otherwise."""
    if math.comb(k + N - 1, N - 1) <= _TERMS_KEPT:
        terms = _composition_terms(k, N)
    else:
        terms = ((multinomial(k, parts), parts) for parts in weak_compositions(k, N))
    total = 0
    for prod, parts in terms:
        for l in parts:
            prod *= nums[l]
        total += prod
    return total


@_identity("corollary4")
def verify_corollary4(n: int, N: int, u, variant: str = "corrected"):
    """Sum of products over all N-tuples of indices (direct enumeration,
    no series code) against the coefficient-triangle formula."""
    table = _checked_table("n", n, "N", N, u, forbid_zero=True)

    def products():
        nums, d = table.integer_form(0, n + 1)
        return EgfSeries._of(([_composition_sum(n, N, nums)], d**N))

    return "value", products, lambda: _formula_numbers(table, n, N, variant, first=n)


@_identity("corollary5")
def verify_corollary5(n: int, N: int, u, variant: str = "corrected"):
    """Higher-order polynomial H_n^(N)(x|u) against the Appell form of the
    triangle formula's numbers, compared coefficient by coefficient."""
    table = _checked_table("n", n, "N", N, u, forbid_zero=True)
    return ("x", lambda: Polynomial.appell(power(table, n, N)),
            lambda: Polynomial.appell(_formula_numbers(table, n, N, variant)))


@_identity("eq60_multinomial")
def verify_product_multinomial(n: int, N: int, u):
    """H_n^(N)(x|u) against the multinomial expansion over all index
    tuples (l_1, ..., l_N, m) summing to n; no variant, no u-power factor.
    As multinomial(n; l, m) = C(n, m) * multinomial(n-m; l), the
    coefficient of x^m is C(n, m) times the composition sum of n-m."""
    table = _checked_table("n", n, "N", N, u)

    def expansion():
        nums, d = table.integer_form(0, n + 1)
        sums = [_composition_sum(k, N, nums) for k in range(n + 1)]
        return Polynomial.appell(EgfSeries._of((sums, d**N)))

    return "x", lambda: Polynomial.appell(power(table, n, N)), expansion


@_identity("carlitz_product")
def verify_carlitz(m: int, n: int, alpha, beta, variant: str = "corrected"):
    """Product of two Frobenius-Euler polynomials with distinct parameters
    against its three-term expansion in parameter alpha*beta.

    The third expansion coefficient is beta(1-beta)/(1-alpha*beta) in the
    ``as_printed`` form and the symmetric beta(1-alpha)/(1-alpha*beta) in
    the ``corrected`` form.
    """
    check_at_least("m and n", min(m, n), 0)
    if m + n > sys.maxsize:
        raise OverflowError(f"m + n is too large: must be <= {sys.maxsize}")
    if alpha == 1 or beta == 1:
        raise ValueError("alpha = 1 or beta = 1 is outside the parameter domain")
    ab = alpha * beta
    if ab == 1:
        raise ValueError("alpha*beta = 1 needs the reciprocal-parameter identity")
    ta, tb, tab = _table(alpha), _table(beta), _table(ab)

    def expansion():
        # With alpha = a1/a2 and beta = b1/b2, g = a2*b2*(1 - alpha*beta), and
        # the coefficients (1-alpha)(1-beta), alpha(1-beta) and beta(1-alpha)
        # (beta(1-beta) as printed), each over 1 - alpha*beta, are the
        # integer pairs below.
        a1, a2, b1, b2 = alpha.numerator, alpha.denominator, beta.numerator, beta.denominator
        g = a2 * b2 - a1 * b1
        ca, cb, gb = a1 * (b2 - b1), b1 * (a2 - a1), g
        if variant == "as_printed":
            cb, gb = b1 * (b2 - b1) * a2, b2 * g
        # H_r(alpha) = ha[r] / da and H_s(beta) = hb[s] / db
        (ha, da), (hb, db) = ta.integer_form(0, m + 1), tb.integer_form(0, n + 1)
        return Polynomial.combination(
            [(((a2 - a1) * (b2 - b1), g), polynomial(tab, m + n))]
            + [((ca * binomial(m, r) * ha[r], g * da), polynomial(tab, m + n - r))
               for r in range(m + 1)]
            + [((cb * binomial(n, s) * hb[s], gb * db), polynomial(tab, m + n - s))
               for s in range(n + 1)]
        )

    return "x", lambda: polynomial(ta, m) * polynomial(tb, n), expansion


@_identity("carlitz_reciprocal")
def verify_carlitz_reciprocal(m: int, n: int, alpha):
    """Product of Frobenius-Euler polynomials with reciprocal parameters
    (beta = 1/alpha) against the Bernoulli-polynomial expansion.

    This display is audited, not presumed: the harness computes both
    sides and records the verdict either way.
    """
    check_at_least("m and n", min(m, n), 0)
    if m + n > sys.maxsize:
        raise OverflowError(f"m + n is too large: must be <= {sys.maxsize}")
    if alpha == 0:
        raise ValueError("alpha = 0 has no reciprocal")
    if alpha == 1:
        raise ValueError("alpha = 1 is outside the parameter domain")
    beta = 1 / alpha
    ta, tb = _table(alpha), _table(beta)

    def expansion():
        # H_r(alpha) = ha[r] / da and H_s(beta) = hb[s] / db; with
        # alpha = a1/a2, alpha - 1 = (a1-a2)/a2 and beta - 1 = (a2-a1)/a1
        (ha, da), (hb, db) = ta.integer_form(0, m + n + 2), tb.integer_form(0, n + 1)
        a1, a2 = alpha.numerator, alpha.denominator
        tail = (-1) ** (n + 1) * math.factorial(m) * math.factorial(n) * (a2 - a1)
        return Polynomial.combination(
            [(((a1 - a2) * binomial(m, r) * ha[r], a2 * da * (m + n - r + 1)),
              bernoulli_polynomial(m + n - r + 1)) for r in range(1, m + 1)]
            + [(((a2 - a1) * binomial(n, s) * hb[s], a1 * db * (m + n - s + 1)),
                bernoulli_polynomial(m + n - s + 1)) for s in range(1, n + 1)]
            + [((tail * ha[m + n + 1], math.factorial(m + n + 1) * a2 * da), Polynomial.one())]
        )

    return "x", lambda: polynomial(ta, m) * polynomial(tb, n), expansion


@_identity("bernoulli_product")
def verify_bernoulli_product(m: int, n: int):
    """Product of two Bernoulli polynomials against its expansion in
    Bernoulli numbers and polynomials (Nielsen), which holds for m, n >= 1.

    The formally infinite sum has finitely many nonzero terms: the
    binomial weights vanish once 2r exceeds max(m, n), which is below
    m + n, so no 1/(m+n-2r) divides by zero.
    """
    check_at_least("m and n", min(m, n), 1)
    check_at_least("m + n", m + n, 2)

    def expansion():
        terms = []
        for r in range(max(m, n) // 2 + 1):
            weight = binomial(m, 2 * r) * n + binomial(n, 2 * r) * m
            b = bernoulli_number(2 * r)
            terms.append(((weight * b.numerator, b.denominator * (m + n - 2 * r)),
                          bernoulli_polynomial(m + n - 2 * r)))
        b = bernoulli_number(m + n)
        tail = (-1) ** (m + 1) * math.factorial(m) * math.factorial(n)
        terms.append(((tail * b.numerator, math.factorial(m + n) * b.denominator),
                      Polynomial.one()))
        return Polynomial.combination(terms)

    return "x", lambda: bernoulli_polynomial(m) * bernoulli_polynomial(n), expansion


# ---------------------------------------------------------------------------
# Grid-driven auditing

IDENTITIES = tuple(CHECKERS)


def grid_axes(identity: str) -> tuple[str, ...]:
    """Iteration order of the identity's grid axes: ``variant`` first when
    the checker takes one, then its parameters, with ``alpha`` and ``beta``
    walked as chosen ``alpha_beta`` pairs instead of a full cross product."""
    params = _SCHEMAS[identity]
    names = [name for name in params if name != "variant"]
    if "alpha" in names and "beta" in names:
        names.remove("beta")
        names[names.index("alpha")] = "alpha_beta"
    return (("variant",) if "variant" in params else ()) + tuple(names)


DEFAULT_GRID = {
    "theorem1": {
        "variant": list(VARIANTS),
        "N": [1, 2, 3, 4, 5],
        "u": ["2", "1/3", "-5/7"],
        "T": [12],
    },
    "corollary2": {
        "variant": list(VARIANTS),
        "N": [1, 2, 3, 4],
        "u": ["2", "1/3"],
        "x": ["0", "1/2"],
        "T": [12],
    },
    "theorem3": {
        "variant": list(VARIANTS),
        "n": [0, 1, 2, 3, 4, 5, 6],
        "N": [1, 2, 3, 4],
        "u": ["2", "1/3", "-5/7"],
    },
    "corollary4": {
        "variant": list(VARIANTS),
        "n": [0, 1, 2, 3, 4, 5],
        "N": [1, 2, 3, 4],
        "u": ["2", "1/3"],
    },
    "corollary5": {
        "variant": list(VARIANTS),
        "n": [0, 1, 2, 3, 4, 5],
        "N": [1, 2, 3],
        "u": ["2", "1/3"],
    },
    "eq60_multinomial": {
        "n": [0, 1, 2, 3, 4, 5],
        "N": [1, 2, 3],
        "u": ["2", "1/3"],
    },
    "carlitz_product": {
        "variant": list(VARIANTS),
        "m": [0, 1, 2, 3],
        "n": [0, 1, 2, 3],
        "alpha_beta": [["2", "3"], ["1/2", "1/3"], ["-2", "5"]],
    },
    "carlitz_reciprocal": {
        "m": [0, 1, 2, 3],
        "n": [0, 1, 2, 3],
        "alpha": ["2", "1/2", "-2"],
    },
    "bernoulli_product": {
        "m": [1, 2, 3, 4],
        "n": [1, 2, 3, 4],
    },
}


def _convert(param: Param, value):
    try:  # a grid file's errors are ValueErrors
        return _read(param, value)
    except TypeError:
        kind = "an integer" if param.integer else "an int or 'p/q' string"
        raise ValueError(f"grid value for {param.name!r} must be {kind}: {value!r}") from None


def _convert_pair(params, value) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError("alpha_beta entries must be [alpha, beta] pairs")
    return _convert(params["alpha"], value[0]), _convert(params["beta"], value[1])


def _expand(identity: str, config: dict):
    """The parameter dicts of ``identity``'s grid, in product order.  Every
    value of every axis is converted first, so a malformed value raises
    even when another axis is empty."""
    params = _SCHEMAS[identity]
    keys = grid_axes(identity)
    for key in keys:
        if key not in config:
            raise ValueError(f"grid for {identity!r} is missing key {key!r}")
        if not isinstance(config[key], (list, tuple)):
            raise ValueError(f"grid values for {key!r} must be a list")
    extra = set(config) - set(keys)
    if extra:
        raise ValueError(f"grid for {identity!r} has unknown key {sorted(extra)[0]!r}")
    axes = [
        [_convert_pair(params, v) for v in config[key]] if key == "alpha_beta"
        else [_convert(params[key], v) for v in config[key]]
        for key in keys
    ]
    for values in itertools.product(*axes):
        combo = dict(zip(keys, values))
        if "alpha_beta" in combo:
            combo["alpha"], combo["beta"] = combo.pop("alpha_beta")
        yield combo


def _run_case(identity: str, combo: dict) -> VerificationReport:
    try:
        return CHECKERS[identity](**combo)
    except (ValueError, OverflowError) as exc:  # OverflowError: a size past sys.maxsize
        return _report(identity, combo, error=str(exc))


def audit_all(grid: dict | None = None) -> list[VerificationReport]:
    """Run every identity over its parameter grid, in grid order, both
    variants where a variant exists.  Individual parameter errors become
    per-report ``error`` verdicts instead of aborting the sweep."""
    if grid is None:
        grid = DEFAULT_GRID
    if not isinstance(grid, dict):
        raise ValueError("grid must be an object mapping identity ids to parameter axes")
    for identity, config in grid.items():
        if identity not in CHECKERS:
            raise ValueError(f"unknown identity in grid: {identity!r}")
        if not isinstance(config, dict):
            raise ValueError(f"grid entry for {identity!r} must be an object of axes")
    # Expand the whole grid first, so a malformed axis anywhere is reported
    # before any check runs.
    cases = [(identity, combo) for identity, config in grid.items()
             for combo in _expand(identity, config)]
    return [_run_case(identity, combo) for identity, combo in cases]


def summarize(reports) -> dict:
    """Pass/fail/error counts, overall and per (identity, variant)."""
    summary = {"total": len(reports), "pass": 0, "fail": 0, "error": 0, "by_identity": {}}
    for report in reports:
        summary[report.verdict] += 1
        per_variant = summary["by_identity"].setdefault(report.identity, {})
        counts = per_variant.setdefault(report.variant, {"pass": 0, "fail": 0, "error": 0})
        counts[report.verdict] += 1
    return summary


def audit_document(reports) -> dict:
    return {"reports": [r.to_dict() for r in reports], "summary": summarize(reports)}


# ---------------------------------------------------------------------------
# JSON text
#
# json.dumps(doc, indent=2) runs the pure-Python encoder, as CPython's C
# encoder takes no indent.  The report documents have a fixed layout, so
# they are rendered here with the C string escaper and the same bytes.

def _report_json(report: VerificationReport, pad: str) -> str:
    """The text of ``report.to_dict()`` at indentation ``pad``, laid out as
    ``json.dumps(indent=2)`` lays it out.  ``str`` of a Fraction holds only
    digits, ``-`` and ``/``, so it needs no escaping."""
    inner = pad + "  "
    deep = inner + "  "
    params = f",\n{deep}".join([f"{_quote(k)}: {_quote(v)}" for k, v in report.params.items()])
    params = f"{{\n{deep}{params}\n{inner}}}" if params else "{}"
    mismatches = ",\n".join([
        f'{deep}{{\n{deep}  "at": {_quote(m.at)},\n{deep}  "lhs": "{m.lhs!s}",'
        f'\n{deep}  "rhs": "{m.rhs!s}"\n{deep}}}'
        for m in report.mismatches
    ])
    mismatches = f"[\n{mismatches}\n{inner}]" if mismatches else "[]"
    error = "" if report.error is None else f',\n{inner}"error": {_quote(report.error)}'
    return (f'{{\n{inner}"identity": {_quote(report.identity)},\n'
            f'{inner}"variant": {_quote(report.variant)},\n{inner}"params": {params},\n'
            f'{inner}"verdict": "{report.verdict}",\n{inner}"mismatches": {mismatches}{error}'
            f'\n{pad}}}')


def document_json(reports, audit: bool = True) -> str:
    """``json.dumps(doc, indent=2) + "\\n"`` for doc the audit document
    of ``reports`` (:func:`audit_document`), or, when not ``audit``, the
    one report in ``reports`` (its ``to_dict()``).  Report parameters
    are strings, as the checkers make them."""
    if not audit:
        (report,) = reports
        return _report_json(report, "") + "\n"
    body = ",\n    ".join([_report_json(r, "    ") for r in reports])
    body = f"[\n    {body}\n  ]" if body else "[]"
    summary = json.dumps(summarize(reports), indent=2).replace("\n", "\n  ")
    return f'{{\n  "reports": {body},\n  "summary": {summary}\n}}\n'
