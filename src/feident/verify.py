"""Two-route identity verification with machine-readable reports.

Each checker evaluates one identity family twice, through code paths that
share only the basic arithmetic layer: a closed-form route (recurrences,
the coefficient triangle, direct enumeration) against a truncated
generating-function route.  Where an identity circulates with a sign or
coefficient typo, both the commonly typeset form (``as_printed``) and the
repaired form (``corrected``) can be evaluated; the report records which
one actually holds, with exact mismatch values.

Reports are deterministic functions of (identity, params, variant), and a
report passes exactly when its mismatch list is empty.

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
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    binomial,
    format_rational,
    multinomial,
    parse_rational,
    weak_compositions,
)
from .frobenius import (
    VARIANTS,
    _check_at_least,
    _check_u,
    _check_variant,
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
    series_add,
    series_derivative,
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


@dataclass(frozen=True)
class Mismatch:
    """One disagreeing coefficient: where, and the two exact values."""

    at: str
    lhs: str
    rhs: str


@dataclass(frozen=True)
class VerificationReport:
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
                {"at": m.at, "lhs": m.lhs, "rhs": m.rhs} for m in self.mismatches
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


def _series_mismatches(lhs: EgfSeries, rhs: EgfSeries) -> list[Mismatch]:
    out = []
    for n, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs)):
        if a != b:
            out.append(Mismatch(f"t^{n}", format_rational(a), format_rational(b)))
    return out


def _poly_mismatches(lhs: Polynomial, rhs: Polynomial) -> list[Mismatch]:
    out = []
    for d in range(max(lhs.degree, rhs.degree) + 1):
        a, b = lhs.coefficient(d), rhs.coefficient(d)
        if a != b:
            out.append(Mismatch(f"x^{d}", format_rational(a), format_rational(b)))
    return out


def _scalar_mismatches(lhs: Fraction, rhs: Fraction) -> list[Mismatch]:
    if lhs != rhs:
        return [Mismatch("value", format_rational(lhs), format_rational(rhs))]
    return []


def _derivative_side(base: EgfSeries, weights, target: int, factor=None) -> EgfSeries:
    """sum_k weights[k] * base^(k-th derivative), truncated to ``target``;
    each derivative is multiplied by ``factor`` first when given."""

    def term(series):
        if factor is not None:
            series = series_mul(series, factor)
        return series_truncate(series, target)

    acc = series_scale(term(base), weights[0])
    current = base
    for w in weights[1:]:
        current = series_derivative(current)
        acc = series_add(acc, series_scale(term(current), w))
    return acc


def _derivative_expansion(N, u, x, T, variant) -> list[Mismatch]:
    """The expansion of F^N checked by theorem1; with ``x`` given, every
    series also carries the factor e^{xt} (corollary2)."""
    _check_at_least("N", N, 1)
    u = _check_u(u, forbid_zero=True)
    if x is not None:
        x = Fraction(x)
    if T < N:
        raise ValueError("truncation order T must be >= N")
    F = series_reciprocal(exp_minus_constant(u, T))
    E = None if x is None else exp_xt(x, T)
    sign = 1 if variant == "as_printed" else (-1) ** (N - 1)
    scale = math.factorial(N - 1) * sign * u ** (N - 1)
    target = T - (N - 1)
    power = series_pow(F, N)
    if E is not None:
        power = series_mul(power, E)
    lhs = series_truncate(series_scale(power, scale), target)
    rhs = _derivative_side(F, triangle_recurrence(N).row(N), target, factor=E)
    return _series_mismatches(lhs, rhs)


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
    multinomial(k; l) * numbers[l_1] * ... * numbers[l_N]."""
    total = Fraction(0)
    for parts in weak_compositions(k, N):
        prod = Fraction(multinomial(k, parts))
        for l in parts:
            prod *= numbers[l]
        total += prod
    return total


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
    """Higher-order polynomial H_n^(N)(x|u) against the triangle formula
    applied degreewise, compared coefficient by coefficient."""
    _check_at_least("n", n, 0)
    _check_at_least("N", N, 1)
    u = _check_u(u, forbid_zero=True)
    lhs = fe_higher_polynomial(n, N, u)
    factor = (1 - u) / u if variant == "as_printed" else (u - 1) / u
    acc = Polynomial.zero()
    for k, weight in enumerate(triangle_recurrence(N).row(N)):
        shifted = Polynomial(
            [binomial(n, d) * fe_number(n - d + k, u) for d in range(n + 1)]
        )
        acc = acc + weight * shifted
    rhs = factor ** (N - 1) * acc / math.factorial(N - 1)
    return _poly_mismatches(lhs, rhs)


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
    rhs = Polynomial(
        [binomial(n, m) * _composition_sum(n - m, N, numbers) for m in range(n + 1)]
    )
    return _poly_mismatches(lhs, rhs)


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
    alpha = Fraction(alpha)
    beta = Fraction(beta)
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
    rhs = c_plain * fe_polynomial(m + n, ab)
    for r in range(m + 1):
        rhs = rhs + c_alpha * binomial(m, r) * fe_number(r, alpha) * fe_polynomial(
            m + n - r, ab
        )
    for s in range(n + 1):
        rhs = rhs + c_beta * binomial(n, s) * fe_number(s, beta) * fe_polynomial(
            m + n - s, ab
        )
    return _poly_mismatches(lhs, rhs)


@_identity("carlitz_reciprocal")
def verify_carlitz_reciprocal(m: int, n: int, alpha) -> list[Mismatch]:
    """Product of Frobenius-Euler polynomials with reciprocal parameters
    (beta = 1/alpha) against the Bernoulli-polynomial expansion.

    This display is audited, not presumed: the harness computes both
    sides and records the verdict either way.
    """
    if m < 0 or n < 0:
        raise ValueError("m and n must be >= 0")
    alpha = Fraction(alpha)
    if alpha == 0:
        raise ValueError("alpha = 0 has no reciprocal")
    if alpha == 1:
        raise ValueError("alpha = 1 is outside the parameter domain")
    beta = 1 / alpha
    lhs = fe_polynomial(m, alpha) * fe_polynomial(n, beta)
    rhs = Polynomial.zero()
    for r in range(1, m + 1):
        rhs = rhs - (1 - alpha) * binomial(m, r) * fe_number(r, alpha) * (
            bernoulli_polynomial(m + n - r + 1) / (m + n - r + 1)
        )
    for s in range(1, n + 1):
        rhs = rhs - (1 - beta) * binomial(n, s) * fe_number(s, beta) * (
            bernoulli_polynomial(m + n - s + 1) / (m + n - s + 1)
        )
    tail = Fraction(
        (-1) ** (n + 1) * math.factorial(m) * math.factorial(n),
        math.factorial(m + n + 1),
    )
    rhs = rhs + tail * (1 - alpha) * fe_number(m + n + 1, alpha)
    return _poly_mismatches(lhs, rhs)


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
    rhs = Polynomial.zero()
    for r in range(max(m, n) // 2 + 1):
        if m + n - 2 * r == 0:
            continue
        weight = binomial(m, 2 * r) * n + binomial(n, 2 * r) * m
        if weight == 0:
            continue
        rhs = rhs + weight * bernoulli_number(2 * r) * (
            bernoulli_polynomial(m + n - 2 * r) / (m + n - 2 * r)
        )
    tail = Fraction(
        (-1) ** (m + 1) * math.factorial(m) * math.factorial(n),
        math.factorial(m + n),
    )
    rhs = rhs + tail * bernoulli_number(m + n)
    return _poly_mismatches(lhs, rhs)


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
