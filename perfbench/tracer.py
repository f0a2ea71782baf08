"""Per-layer tracing of feident from outside the program.

`install()` wraps the public functions of each feident module and patches
every place that holds them: the defining module, modules that re-bound the
name with `from ... import` (`verify` and `frobenius` take `series_*` by name,
`cli` takes `fe_number` and the checkers), and registry dicts such as the
identity dispatch tables.  The hot scalar helpers (`binomial`, `multinomial`,
`format_rational`, the `EgfSeries`/`Polynomial` constructors and
`Polynomial.coefficient`) stay unwrapped, so their cost lands in the
caller's self time.

Each wrapped call is a span.  Spans are aggregated in memory as they close
(calls and self time per name, where self time is the span's duration minus
the time covered by its child spans) plus exact work counters, and are only
written out by the caller, at the end.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (module, public name, span name).  A name missing from the program is
# skipped and its metrics read 0.
FUNCTIONS = [
    ("exact", "parse_rational", "exact.parse_rational"),
    ("series", "unit", "series.unit"),
    ("series", "series_add", "series.series_add"),
    ("series", "series_sub", "series.series_sub"),
    ("series", "series_scale", "series.series_scale"),
    ("series", "series_mul", "series.series_mul"),
    ("series", "series_derivative", "series.series_derivative"),
    ("series", "series_reciprocal", "series.series_reciprocal"),
    ("series", "series_pow", "series.series_pow"),
    ("series", "series_truncate", "series.series_truncate"),
    ("series", "exp_xt", "series.exp_xt"),
    ("series", "exp_minus_constant", "series.exp_minus_constant"),
    ("series", "frobenius_oracle", "series.frobenius_oracle"),
    ("series", "bernoulli_oracle", "series.bernoulli_oracle"),
    ("stirling", "triangle_recurrence", "stirling.triangle_recurrence"),
    ("stirling", "coeff_closed_form", "stirling.coeff_closed_form"),
    ("frobenius", "fe_number", "frobenius.fe_number"),
    ("frobenius", "fe_polynomial", "frobenius.fe_polynomial"),
    ("frobenius", "fe_higher_numbers", "frobenius.fe_higher_numbers"),
    ("frobenius", "fe_higher_number_oracle", "frobenius.fe_higher_number_oracle"),
    ("frobenius", "fe_higher_number_formula", "frobenius.fe_higher_number_formula"),
    ("frobenius", "fe_higher_polynomial", "frobenius.fe_higher_polynomial"),
    ("frobenius", "euler_polynomial", "frobenius.euler_polynomial"),
    ("frobenius", "bernoulli_number", "frobenius.bernoulli_number"),
    ("frobenius", "bernoulli_polynomial", "frobenius.bernoulli_polynomial"),
    ("verify", "verify_theorem1", "verify.theorem1"),
    ("verify", "verify_corollary2", "verify.corollary2"),
    ("verify", "verify_theorem3", "verify.theorem3"),
    ("verify", "verify_corollary4", "verify.corollary4"),
    ("verify", "verify_corollary5", "verify.corollary5"),
    ("verify", "verify_product_multinomial", "verify.eq60_multinomial"),
    ("verify", "verify_carlitz", "verify.carlitz_product"),
    ("verify", "verify_carlitz_reciprocal", "verify.carlitz_reciprocal"),
    ("verify", "verify_bernoulli_product", "verify.bernoulli_product"),
    ("verify", "audit_all", "verify.audit_all"),
    ("verify", "summarize", "verify.summarize"),
    ("verify", "audit_document", "verify.audit_document"),
    ("cli", "run", "cli.run"),
]

GENERATORS = [
    ("exact", "compositions", "exact.compositions"),
    ("exact", "weak_compositions", "exact.weak_compositions"),
]

POLYNOMIAL_METHODS = [
    ("__add__", "poly.add"), ("__radd__", "poly.add"),
    ("__sub__", "poly.sub"), ("__rsub__", "poly.sub"),
    ("__mul__", "poly.mul"), ("__rmul__", "poly.mul"),
    ("__neg__", "poly.neg"), ("__truediv__", "poly.div"),
    ("__pow__", "poly.pow"), ("__call__", "poly.eval"),
]

MODULES = ("exact", "poly", "series", "stirling", "frobenius", "verify", "cli")


def _bits(value) -> int:
    """Bit length of numerator plus denominator; a Polynomial coefficient
    counts all of its own coefficients."""
    if hasattr(value, "numerator"):
        return value.numerator.bit_length() + value.denominator.bit_length()
    return sum(_bits(c) for c in value.coeffs)


def _series_mul_work(args, result, counts):
    t = min(args[0].order, args[1].order)
    counts["series.mul_terms"] += (t + 1) * (t + 2) // 2
    counts["series.out_bits"] += sum(_bits(c) for c in result.coeffs)


def _series_reciprocal_work(args, result, counts):
    t = args[0].order
    counts["series.reciprocal_terms"] += t * (t + 1) // 2
    counts["series.out_bits"] += sum(_bits(c) for c in result.coeffs)


WORK = {
    "series.series_mul": _series_mul_work,
    "series.series_reciprocal": _series_reciprocal_work,
}


class Tracer:
    """Span aggregation: `calls[name]`, `self_s[name]` and exact `counts`."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        # One entry per open span: the time its children covered so far.
        self._child = [0.0]

    def wrap(self, name, fn):
        calls, self_s, counts, child = self.calls, self.self_s, self.counts, self._child
        work = WORK.get(name)

        def traced(*args, **kwargs):
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                calls[name] += 1
                self_s[name] += end - start - child.pop()
                child[-1] += end - start
            if work is not None:
                work(args, result, counts)
                # Counting work is tracer time: the parent does not own it either.
                child[-1] += perf_counter() - end
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name, fn):
        """Each `next()` on the generator is a span; items are counted."""
        calls, self_s, counts, child = self.calls, self.self_s, self.counts, self._child
        items = name + ".items"

        def traced(*args, **kwargs):
            calls[name] += 1
            inner = fn(*args, **kwargs)
            while True:
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    elapsed = perf_counter() - start
                    self_s[name] += elapsed
                    child[-1] += elapsed
                counts[items] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap and patch feident; call before the first op."""
        mods = {name: __import__(f"feident.{name}", fromlist=["_"]) for name in MODULES}
        replace = {}
        for module, attr, name in FUNCTIONS:
            fn = getattr(mods[module], attr, None)
            if fn is not None:
                replace[id(fn)] = (fn, self.wrap(name, fn))
        for module, attr, name in GENERATORS:
            fn = getattr(mods[module], attr, None)
            if fn is not None:
                replace[id(fn)] = (fn, self.wrap_generator(name, fn))
        poly_cls = getattr(mods["poly"], "Polynomial", None)
        for attr, name in POLYNOMIAL_METHODS:
            fn = poly_cls.__dict__.get(attr) if poly_cls is not None else None
            if fn is not None:
                if id(fn) not in replace:
                    replace[id(fn)] = (fn, self.wrap(name, fn))
                setattr(poly_cls, attr, replace[id(fn)][1])
        targets = [m for n, m in sys.modules.items() if n == "feident" or n.startswith("feident.")]
        for module in targets:
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = replace.get(id(item))
                        if hit is not None and hit[0] is item:
                            value[key] = hit[1]

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}
