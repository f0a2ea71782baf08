"""Two-route identity verification with machine-readable reports.

Each checker evaluates one identity family twice, through code paths that
share only the basic arithmetic layer: a closed-form route (recurrences,
the coefficient triangle, direct enumeration) against a truncated
generating-function route.  Where an identity circulates with a sign or
coefficient typo, both the commonly typeset form (``as_printed``) and the
repaired form (``corrected``) can be evaluated; the report records which
one actually holds, with exact mismatch values.

The checkers' sums run on integers.  The composition sum of corollary4
and eq60_multinomial puts the numbers over one common denominator d, sums
multinomial(k; l) * prod nums[l_i] in integers and makes one Fraction
over d^N.  The weighted sums of polynomials (the Carlitz and Bernoulli
products) and of the derivatives of F (theorem1, corollary2) are each one
call of :func:`feident.exact.linear_combination`, which puts every term
over one lcm and makes one reduced Fraction per coefficient.

Reports are deterministic functions of (identity, params, variant), and a
report passes exactly when its mismatch list is empty.  A ``Mismatch``
holds both values exact; only ``VerificationReport.to_dict`` formats them,
so a failing check is ``fail`` however many digits its values have.

``CHECKERS`` maps identity ids to checkers, in audit order; each checker
is registered where it is defined, with ``@_identity(id)``.  A checker's
signature is its schema: the parameters other than ``variant`` are the
report's, in order (``int``-annotated ones integers, the rest rationals,
those with a default optional), and a ``variant`` parameter means the
identity has as-printed/corrected forms.  Grid axes and CLI flags are
read from it.  A checker body returns only its mismatch list; the
registry binds the call, checks ``variant`` and builds the report.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .exact import (
    binomial,
    common_denominator,
    exact_parameter,
    format_rational,
    linear_combination,
    multinomial,
    parse_rational,
    weak_compositions,
)
from .frobenius import (
    VARIANTS,
    _check_at_least,
    _check_u,
    _check_variant,
    _formula_numbers,
    bernoulli_number,
    bernoulli_polynomial,
    fe_higher_number_formula,
    fe_higher_number_oracle,
    fe_higher_polynomial,
    fe_number,
    fe_polynomial,
)
from .poly import Polynomial
from .series import (
    EgfSeries,
    exp_minus_constant,
    exp_xt,
    series_mul,
    series_pow,
    series_reciprocal,
    series_scale,
    series_truncate,
)
from .stirling import triangle_recurrence

__all__ = [
    "Mismatch",
    "VerificationReport",
    "CHECKERS",
    "IDENTITIES",
    "DEFAULT_GRID",
    "parameters",
    "takes_integer",
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
                {"at": m.at, "lhs": format_rational(m.lhs), "rhs": format_rational(m.rhs)}
                for m in self.mismatches
            ],
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc


CHECKERS = {}


def parameters(identity: str):
    """The checker's parameters, ``variant`` included, in signature order."""
    return inspect.signature(CHECKERS[identity]).parameters


def takes_integer(param: inspect.Parameter) -> bool:
    """Parameters annotated ``int`` take integers; the others rationals."""
    return param.annotation == "int"


def _report(identity: str, params, arguments: dict, mismatches=(), error=None):
    """The report of a checker taking ``params``: integers as written,
    rationals in "p/q" form, in signature order."""
    values = {
        name: (str if takes_integer(param) else format_rational)(arguments[name])
        for name, param in params.items() if name != "variant"
    }
    variant = arguments.get("variant", "not_applicable")
    return VerificationReport(identity, variant, values, tuple(mismatches), error)


def _identity(identity: str):
    """Register the body below as ``CHECKERS[identity]`` (see the module doc)."""

    def register(body):
        signature = inspect.signature(body)

        @functools.wraps(body)
        def checker(*args, **kwargs) -> VerificationReport:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if "variant" in bound.arguments:
                _check_variant(bound.arguments["variant"])
            mismatches = body(**bound.arguments)
            return _report(identity, signature.parameters, bound.arguments, mismatches)

        checker.__signature__ = signature.replace(return_annotation="VerificationReport")
        CHECKERS[identity] = checker
        return checker

    return register


def _mismatches(var: str, lhs, rhs) -> list[Mismatch]:
    """The coefficients of ``var``^i where the two sequences differ, the
    shorter one padded with zeros."""
    pairs = itertools.zip_longest(lhs, rhs, fillvalue=Fraction(0))
    return [Mismatch(f"{var}^{i}", a, b) for i, (a, b) in enumerate(pairs) if a != b]


def _scalar_mismatches(lhs: Fraction, rhs: Fraction) -> list[Mismatch]:
    return [Mismatch("value", lhs, rhs)] if lhs != rhs else []


def _derivative_side(base: EgfSeries, weights, target: int, factor=None) -> EgfSeries:
    """sum_k weights[k] * base^(k-th derivative), truncated to ``target``;
    each derivative is multiplied by ``factor`` first when given.  The k-th
    derivative of an EGF is its shift by k, and the weighted sum is one
    integer linear combination."""

    def term(k):
        coeffs = base.coeffs[k: k + target + 1]
        return coeffs if factor is None else series_mul(EgfSeries(coeffs), factor).coeffs

    return EgfSeries(linear_combination((w, term(k)) for k, w in enumerate(weights)))


def _derivative_expansion(N, u, x, T, variant) -> list[Mismatch]:
    """The expansion of F^N checked by theorem1; with ``x`` given, every
    series also carries the factor e^{xt} (corollary2)."""
    _check_at_least("N", N, 1)
    u = _check_u(u, forbid_zero=True)
    if x is not None:
        x = exact_parameter(x)
    if T < N:
        raise ValueError("truncation order T must be >= N")
    F = series_reciprocal(exp_minus_constant(u, T))
    E = None if x is None else exp_xt(x, T)
    sign = 1 if variant == "as_printed" else (-1) ** (N - 1)
    scale = math.factorial(N - 1) * sign * u ** (N - 1)
    target = T - (N - 1)
    power = series_pow(series_truncate(F, target), N)
    if E is not None:
        power = series_mul(power, E)
    lhs = series_scale(power, scale)
    rhs = _derivative_side(F, triangle_recurrence(N).row(N), target, factor=E)
    return _mismatches("t", lhs.coeffs, rhs.coeffs)


@_identity("theorem1")
def verify_theorem1(N: int, u, T: int = 16, variant: str = "corrected") -> list[Mismatch]:
    """Derivative expansion of powers of F = 1/(e^t - u):

        (N-1)! * s * u^(N-1) * F^N  =  sum_{k<N} a_k(N) F^(k)

    compared coefficientwise to order T-(N-1), with s = +1 for
    ``as_printed`` and s = (-1)^(N-1) for ``corrected``.
    """
    return _derivative_expansion(N, u, None, T, variant)


@_identity("corollary2")
def verify_corollary2(N: int, u, x, T: int = 16, variant: str = "corrected") -> list[Mismatch]:
    """Same expansion with every series carrying the extra factor e^{xt}."""
    return _derivative_expansion(N, u, x, T, variant)


@_identity("theorem3")
def verify_theorem3(n: int, N: int, u, variant: str = "corrected") -> list[Mismatch]:
    """Higher-order number H_n^(N)(u): series route against the
    coefficient-triangle formula."""
    _check_at_least("n", n, 0)
    _check_at_least("N", N, 1)
    lhs = fe_higher_number_oracle(n, N, _check_u(u, forbid_zero=True))
    rhs = fe_higher_number_formula(n, N, u, variant)
    return _scalar_mismatches(lhs, rhs)


def _composition_sum(k: int, N: int, numbers) -> Fraction:
    """Sum over the weak compositions l of k into N parts of
    multinomial(k; l) * numbers[l_1] * ... * numbers[l_N].

    With numbers[0..k] over one common denominator d, every product has
    the denominator d^N, so the sum runs on integer numerators and makes
    one Fraction."""
    nums, d = common_denominator(numbers[: k + 1])
    total = 0
    for parts in weak_compositions(k, N):
        prod = multinomial(k, parts)
        for l in parts:
            prod *= nums[l]
        total += prod
    return Fraction(total, d**N)


@_identity("corollary4")
def verify_corollary4(n: int, N: int, u, variant: str = "corrected") -> list[Mismatch]:
    """Sum of products over all N-tuples of indices (direct enumeration,
    no series code) against the coefficient-triangle formula."""
    _check_at_least("n", n, 0)
    _check_at_least("N", N, 1)
    u = _check_u(u, forbid_zero=True)
    lhs = _composition_sum(n, N, [fe_number(l, u) for l in range(n + 1)])
    rhs = fe_higher_number_formula(n, N, u, variant)
    return _scalar_mismatches(lhs, rhs)


@_identity("corollary5")
def verify_corollary5(n: int, N: int, u, variant: str = "corrected") -> list[Mismatch]:
    """Higher-order polynomial H_n^(N)(x|u) against the Appell form of the
    triangle formula's numbers, compared coefficient by coefficient."""
    _check_at_least("n", n, 0)
    _check_at_least("N", N, 1)
    u = _check_u(u, forbid_zero=True)
    lhs = fe_higher_polynomial(n, N, u)
    rhs = Polynomial.appell(_formula_numbers(n, N, u, variant))
    return _mismatches("x", lhs.coeffs, rhs.coeffs)


@_identity("eq60_multinomial")
def verify_product_multinomial(n: int, N: int, u) -> list[Mismatch]:
    """H_n^(N)(x|u) against the multinomial expansion over all index
    tuples (l_1, ..., l_N, m) summing to n; no variant, no u-power factor.
    As multinomial(n; l, m) = C(n, m) * multinomial(n-m; l), the
    coefficient of x^m is C(n, m) times the composition sum of n-m."""
    _check_at_least("n", n, 0)
    _check_at_least("N", N, 1)
    u = _check_u(u)
    lhs = fe_higher_polynomial(n, N, u)
    numbers = [fe_number(l, u) for l in range(n + 1)]
    rhs = Polynomial.appell([_composition_sum(k, N, numbers) for k in range(n + 1)])
    return _mismatches("x", lhs.coeffs, rhs.coeffs)


@_identity("carlitz_product")
def verify_carlitz(m: int, n: int, alpha, beta, variant: str = "corrected") -> list[Mismatch]:
    """Product of two Frobenius-Euler polynomials with distinct parameters
    against its three-term expansion in parameter alpha*beta.

    The third expansion coefficient is beta(1-beta)/(1-alpha*beta) in the
    ``as_printed`` form and the symmetric beta(1-alpha)/(1-alpha*beta) in
    the ``corrected`` form.
    """
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    alpha = exact_parameter(alpha)
    beta = exact_parameter(beta)
    if alpha == 1 or beta == 1:
        raise ValueError("alpha = 1 or beta = 1 is outside the parameter domain")
    if alpha * beta == 1:
        raise ValueError("alpha*beta = 1 needs the reciprocal-parameter identity")
    ab = alpha * beta
    c_plain = (1 - alpha) * (1 - beta) / (1 - ab)
    c_alpha = alpha * (1 - beta) / (1 - ab)
    if variant == "as_printed":
        c_beta = beta * (1 - beta) / (1 - ab)
    else:
        c_beta = beta * (1 - alpha) / (1 - ab)
    lhs = fe_polynomial(m, alpha) * fe_polynomial(n, beta)
    rhs = Polynomial.combination(
        [(c_plain, fe_polynomial(m + n, ab))]
        + [(c_alpha * binomial(m, r) * fe_number(r, alpha), fe_polynomial(m + n - r, ab))
           for r in range(m + 1)]
        + [(c_beta * binomial(n, s) * fe_number(s, beta), fe_polynomial(m + n - s, ab))
           for s in range(n + 1)]
    )
    return _mismatches("x", lhs.coeffs, rhs.coeffs)


@_identity("carlitz_reciprocal")
def verify_carlitz_reciprocal(m: int, n: int, alpha) -> list[Mismatch]:
    """Product of Frobenius-Euler polynomials with reciprocal parameters
    (beta = 1/alpha) against the Bernoulli-polynomial expansion.

    This display is audited, not presumed: the harness computes both
    sides and records the verdict either way.
    """
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    alpha = exact_parameter(alpha)
    if alpha == 0:
        raise ValueError("alpha = 0 has no reciprocal")
    if alpha == 1:
        raise ValueError("alpha = 1 is outside the parameter domain")
    beta = 1 / alpha
    lhs = fe_polynomial(m, alpha) * fe_polynomial(n, beta)
    tail = Fraction(
        (-1) ** (n + 1) * math.factorial(m) * math.factorial(n),
        math.factorial(m + n + 1),
    )
    rhs = Polynomial.combination(
        [((alpha - 1) * binomial(m, r) * fe_number(r, alpha) / (m + n - r + 1),
          bernoulli_polynomial(m + n - r + 1)) for r in range(1, m + 1)]
        + [((beta - 1) * binomial(n, s) * fe_number(s, beta) / (m + n - s + 1),
            bernoulli_polynomial(m + n - s + 1)) for s in range(1, n + 1)]
        + [(tail * (1 - alpha) * fe_number(m + n + 1, alpha), Polynomial.one())]
    )
    return _mismatches("x", lhs.coeffs, rhs.coeffs)


@_identity("bernoulli_product")
def verify_bernoulli_product(m: int, n: int) -> list[Mismatch]:
    """Product of two Bernoulli polynomials against its expansion in
    Bernoulli numbers and polynomials.

    The formally infinite sum has finitely many nonzero terms (the
    binomial weights vanish once 2r exceeds max(m, n)); terms whose
    weight is zero are skipped before the 1/(m+n-2r) division, which is
    what makes the 2r = m+n edge harmless.
    """
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    _check_at_least("m + n", m + n, 2)
    lhs = bernoulli_polynomial(m) * bernoulli_polynomial(n)
    terms = []
    for r in range(max(m, n) // 2 + 1):
        if m + n - 2 * r == 0:
            continue
        weight = binomial(m, 2 * r) * n + binomial(n, 2 * r) * m
        if weight == 0:
            continue
        terms.append((weight * bernoulli_number(2 * r) / (m + n - 2 * r),
                      bernoulli_polynomial(m + n - 2 * r)))
    tail = Fraction(
        (-1) ** (m + 1) * math.factorial(m) * math.factorial(n),
        math.factorial(m + n),
    )
    terms.append((tail * bernoulli_number(m + n), Polynomial.one()))
    rhs = Polynomial.combination(terms)
    return _mismatches("x", lhs.coeffs, rhs.coeffs)


# ---------------------------------------------------------------------------
# Grid-driven auditing

IDENTITIES = tuple(CHECKERS)


def grid_axes(identity: str) -> tuple[str, ...]:
    """Iteration order of the identity's grid axes: ``variant`` first when
    the checker takes one, then its parameters, with ``alpha`` and ``beta``
    walked as chosen ``alpha_beta`` pairs instead of a full cross product."""
    params = parameters(identity)
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


def _convert(param: inspect.Parameter, value):
    if param.name == "variant":
        return _check_variant(value)
    if takes_integer(param):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"grid value for {param.name!r} must be an integer: {value!r}")
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ValueError(f"grid value for {param.name!r} must be an int or 'p/q' string: {value!r}")


def _expand(identity: str, config: dict):
    params = parameters(identity)
    keys = grid_axes(identity)
    for key in keys:
        if key not in config:
            raise ValueError(f"grid for {identity!r} is missing key {key!r}")
        if not isinstance(config[key], (list, tuple)):
            raise ValueError(f"grid values for {key!r} must be a list")
    extra = set(config) - set(keys)
    if extra:
        raise ValueError(f"grid for {identity!r} has unknown key {sorted(extra)[0]!r}")
    for values in itertools.product(*(config[k] for k in keys)):
        combo = {}
        for key, value in zip(keys, values):
            if key == "alpha_beta":
                if not isinstance(value, (list, tuple)) or len(value) != 2:
                    raise ValueError("alpha_beta entries must be [alpha, beta] pairs")
                combo["alpha"] = _convert(params["alpha"], value[0])
                combo["beta"] = _convert(params["beta"], value[1])
            else:
                combo[key] = _convert(params[key], value)
        yield combo


def _run_case(identity: str, combo: dict) -> VerificationReport:
    try:
        return CHECKERS[identity](**combo)
    except ValueError as exc:
        return _report(identity, parameters(identity), combo, error=str(exc))


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
