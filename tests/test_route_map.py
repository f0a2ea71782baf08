"""Each identity's two routes share only basic arithmetic.

For every case of the default grid, the checker body is called and each
of its two routes is run alone, on cold caches (``caches.cold_caches``),
under a ``sys.setprofile`` hook that records every
``feident`` function entered, keyed ``module:co_name`` (not
``co_qualname``, and without comprehension, generator-expression or lambda
frames, so the keys are the same on Python 3.10 to 3.12).  What the body
itself runs counts for both routes.  The union over the grid is each
identity's route map, pinned in ``route_map.json``.

The functions both routes of an identity enter must lie in ``ALLOWED``,
the arithmetic every route may use, or in the identity's declared
``SUBJECTS``: what its identity is about, read by both sides.  A route that
entered the other route's kernel would make the check a tautology, and the
map would name it.  ``python tests/test_route_map.py`` (with ``src`` on
``PYTHONPATH``) prints the measured map, to paste over the golden.
"""

import functools
import json
import sys
from pathlib import Path

import pytest

from caches import cold_caches
from feident import series, stirling, verify
from feident.verify import CHECKERS, DEFAULT_GRID, IDENTITIES, _bind, _expand, parameters

GOLDEN = Path(__file__).with_name("route_map.json")

# The checker bodies, which both routes' runs call (theorem1's and
# corollary2's through _derivative_expansion); exact scalars, coefficient
# storage and series and polynomial arithmetic; the Appell builder; the
# number-table lookup and the parameter check.
ALLOWED = {"feident.verify:_derivative_expansion"} | {
    f"feident.verify:{CHECKERS[identity].__wrapped__.__name__}" for identity in IDENTITIES
} | {
    "feident.exact:" + name for name in (
        "as_fraction", "exact_parameter", "check_at_least", "_check_u", "binomial",
        "binomial_rows",
    )
} | {
    "feident.forms:" + name for name in (
        "common_denominator", "to_fractions", "lowest_terms", "_hold", "_of", "coeffs", "combine",
    )
} | {
    "feident.series:" + name for name in (
        "__init__", "order", "__len__", "__getitem__", "series_scale", "series_mul",
        "series_truncate",
    )
} | {
    "feident.poly:" + name for name in (
        "__init__", "_trimmed", "_from_ints", "one", "constant", "combination", "__mul__",
        "appell", "_appell_ints",
    )
} | {
    "feident.frobenius:" + name for name in ("appell", "_checked_table")
} | {"feident.prefix:__init__"}

# F = (1-u)/(e^t - u) by the series route: the table's reciprocal of e^t - u.
F = {"feident.frobenius:power", "feident.series:exp_minus_constant",
     "feident.series:series_reciprocal"}
# H_0(u)..H_n(u) by the gamma-vectors of the Eulerian polynomials (n <= 64)
# or the Euler-Seidel recurrence, and the polynomials of the table built
# from them.
PREFIX = {"feident.prefix:integer_form", "feident.prefix:_numerators",
          "feident.prefix:_gamma_rows", "feident.prefix:_gamma_step",
          "feident.prefix:_seidel_step", "feident.frobenius:polynomial"}
# B_0..B_K by the reciprocal of (e^t - 1)/t, and B_n(x) from them.
BERNOULLI = {"feident.frobenius:bernoulli_polynomial", "feident.series:bernoulli_oracle",
             "feident.series:series_reciprocal"}

SUBJECTS = {
    "theorem1": F,
    # e^{xt} multiplies both sides of theorem1's expansion once
    "corollary2": F | {"feident.series:exp_xt"},
    "theorem3": set(),
    "corollary4": PREFIX,
    "corollary5": set(),
    "eq60_multinomial": set(),
    "carlitz_product": PREFIX,
    "carlitz_reciprocal": PREFIX,
    "bernoulli_product": BERNOULLI,
}


def entered(call):
    """``(keys, result)``: the ``module:co_name`` of each feident function
    that ``call()`` enters, and what it returns."""
    keys = set()

    def hook(frame, event, arg):
        if event == "call":
            module, name = frame.f_globals.get("__name__", ""), frame.f_code.co_name
            if module.startswith("feident.") and name[:1] != "<":
                keys.add(f"{module}:{name}")

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = call()
    finally:
        sys.setprofile(previous)
    return keys, result


def measure(identities=IDENTITIES, grid=DEFAULT_GRID) -> dict:
    """``{identity: {"lhs": keys, "rhs": keys}}`` over the grid's cases,
    each route run alone on cold caches after its own call of the body."""
    routes = {}
    try:
        for identity in identities:
            body = CHECKERS[identity].__wrapped__
            sides = routes[identity] = {"lhs": set(), "rhs": set()}
            for combo in _expand(identity, grid[identity]):
                arguments = _bind(parameters(identity), (), combo)
                # a body returns (var, lhs, rhs)
                for index, keys in ((1, sides["lhs"]), (2, sides["rhs"])):
                    cold_caches()
                    body_keys, routes_of_case = entered(lambda: body(**arguments))
                    route_keys, _ = entered(routes_of_case[index])
                    keys |= body_keys | route_keys
    finally:
        cold_caches()
    return {identity: {side: sorted(keys) for side, keys in sides.items()}
            for identity, sides in routes.items()}


def shared_outside(route_map: dict) -> dict:
    """``{identity: keys}`` of the functions both routes enter that are
    neither allowed nor the identity's subject, for each identity that
    has any."""
    found = {}
    for identity, sides in route_map.items():
        shared = set(sides["lhs"]) & set(sides["rhs"]) - ALLOWED - SUBJECTS[identity]
        if shared:
            found[identity] = sorted(shared)
    return found


@functools.lru_cache(maxsize=None)
def default_map() -> dict:
    return measure()


def test_route_map_is_pinned():
    assert default_map() == json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("identity", IDENTITIES)
def test_routes_share_only_arithmetic_and_the_subject(identity):
    assert shared_outside({identity: default_map()[identity]}) == {}


def test_a_triangle_route_that_reads_f_is_named(monkeypatch):
    """theorem3's triangle route made to read F from the generating
    function as well: both routes now enter the series route's kernel."""
    formula = verify._formula_numbers

    def formula_reading_f(table, n_max, N, variant, first=0):
        series.frobenius_oracle(table._u, n_max)
        return formula(table, n_max, N, variant, first)

    monkeypatch.setattr(verify, "_formula_numbers", formula_reading_f)
    found = shared_outside(measure(["theorem3"]))
    assert list(found) == ["theorem3"]
    assert "feident.series:series_reciprocal" in found["theorem3"]


def test_a_composition_sum_that_reads_the_triangle_is_named(monkeypatch):
    """corollary4's composition sum made to read the coefficient triangle
    as well: both routes now enter the triangle route's kernel."""
    composition_sum = verify._composition_sum

    def sum_reading_the_triangle(k, N, nums):
        stirling.triangle_recurrence(N)
        return composition_sum(k, N, nums)

    monkeypatch.setattr(verify, "_composition_sum", sum_reading_the_triangle)
    found = shared_outside(measure(["corollary4", "eq60_multinomial"]))
    assert list(found) == ["corollary4"]
    assert "feident.stirling:triangle_recurrence" in found["corollary4"]


if __name__ == "__main__":
    print(json.dumps(measure(), indent=2))
