"""Tests for the two-route verification harness and its reports."""

import contextlib
import io
import json
import math
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caches import cold_caches
from feident import frobenius
from feident.cli import run
from feident.exact import multinomial, weak_compositions
from feident.forms import common_denominator
from feident.frobenius import euler_polynomial, fe_polynomial
from feident.poly import Polynomial
from feident.series import EgfSeries, exp_minus_constant, series_mul, series_reciprocal
from feident.stirling import coeff_closed_form
from feident.verify import (
    DEFAULT_GRID,
    IDENTITIES,
    Mismatch,
    VerificationReport,
    _composition_sum,
    _derivative_expansion,
    _mismatches,
    audit_all,
    audit_document,
    document_json,
    summarize,
    verify_bernoulli_product,
    verify_carlitz,
    verify_carlitz_reciprocal,
    verify_corollary2,
    verify_corollary4,
    verify_corollary5,
    verify_product_multinomial,
    verify_theorem1,
    verify_theorem3,
)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=8)


def assert_self_consistent(report):
    assert (report.verdict == "pass") == (len(report.mismatches) == 0)


def paper_sides(N, u, T, variant):
    """theorem1's two sides as the paper writes them, to order T-(N-1):
    (N-1)! * s * u^(N-1) * F^N and sum_k a_k(N) F^(k), with
    F = 1/(e^t - u) inverted directly, F^N by repeated products, a_k(N)
    by the composition sum and the k-th derivative as the shift by k."""
    F = series_reciprocal(exp_minus_constant(u, T)).coeffs
    power = EgfSeries(F)
    for _ in range(N - 1):
        power = series_mul(power, EgfSeries(F))
    target = T - (N - 1)
    sign = 1 if variant == "as_printed" else (-1) ** (N - 1)
    scale = math.factorial(N - 1) * sign * u ** (N - 1)
    lhs = [scale * c for c in power.coeffs[: target + 1]]
    a = [coeff_closed_form(k, N) for k in range(N)]
    rhs = [sum(a[k] * F[n + k] for k in range(N)) for n in range(target + 1)]
    return lhs, rhs


def times_exp(coeffs, x):
    """The EGF coefficients of the series times e^{xt}."""
    return [sum(math.comb(n, k) * coeffs[k] * x ** (n - k) for k in range(n + 1))
            for n in range(len(coeffs))]


def paper_mismatches(lhs, rhs):
    return [Mismatch(f"t^{i}", a, b) for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b]


@pytest.mark.parametrize("variant", ["as_printed", "corrected"])
@pytest.mark.parametrize("u", [Fraction(2), Fraction(1, 3), Fraction(-5, 7), Fraction(-3),
                               Fraction(5, 8)])
@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_sides_match_the_paper_form(N, u, variant):
    """Both sides of theorem1, which read H = (1-u)F, H^N and theorem3's
    weights from the table of u, and of corollary2 are the paper's sides
    (the same values, failing reports included)."""
    x = Fraction(-3, 2)
    for T in (N, 12, 20):
        lhs, rhs = paper_sides(N, u, T, variant)
        routes = _derivative_expansion(N, u, T, variant)
        assert [route().coeffs for route in routes] == [tuple(lhs), tuple(rhs)]
        report = verify_theorem1(N, u, T, variant)
        assert list(report.mismatches) == paper_mismatches(lhs, rhs)
        report = verify_corollary2(N, u, x, T, variant)
        assert list(report.mismatches) == paper_mismatches(times_exp(lhs, x), times_exp(rhs, x))


class TestTheorem1:
    def test_order_one_passes_both_variants(self):
        for variant in ("as_printed", "corrected"):
            report = verify_theorem1(1, Fraction(1, 3), 8, variant)
            assert report.verdict == "pass"

    def test_corrected_passes(self):
        assert verify_theorem1(2, Fraction(2), 10, "corrected").verdict == "pass"

    def test_as_printed_even_order_fails_with_sign_flip(self):
        report = verify_theorem1(2, Fraction(2), 10, "as_printed")
        assert report.verdict == "fail"
        first = report.mismatches[0]
        assert (first.at, first.lhs, first.rhs) == ("t^0", 2, -2)

    @pytest.mark.parametrize("u", [Fraction(0), Fraction(1)])
    def test_parameter_domain(self, u):
        with pytest.raises(ValueError):
            verify_theorem1(2, u, 10)

    def test_truncation_must_cover_order(self):
        with pytest.raises(ValueError):
            verify_theorem1(5, Fraction(2), 3)

    def test_no_exponential_factor(self, monkeypatch):
        import feident.verify as verify

        calls = []

        def counting_mul(a, b):
            calls.append(1)
            return series_mul(a, b)

        monkeypatch.setattr(verify, "series_mul", counting_mul)
        assert verify_theorem1(3, Fraction(1, 3), 10).verdict == "pass"
        assert calls == []
        assert verify_corollary2(3, Fraction(1, 3), Fraction(1, 2), 10).verdict == "pass"
        assert calls
        # each side of theorem1 is multiplied by e^{xt} once, whatever N is
        for N in (1, 3, 5):
            calls.clear()
            assert verify_corollary2(N, Fraction(1, 3), Fraction(1, 2), 10).verdict == "pass"
            assert len(calls) == 2


class TestCorollary2:
    @pytest.mark.parametrize("variant", ["as_printed", "corrected"])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_x_zero_matches_theorem1(self, N, variant):
        u, T = Fraction(1, 3), 10
        with_x = verify_corollary2(N, u, Fraction(0), T, variant)
        without = verify_theorem1(N, u, T, variant)
        assert with_x.verdict == without.verdict
        assert with_x.mismatches == without.mismatches

    def test_corrected_passes(self):
        report = verify_corollary2(3, Fraction(1, 3), Fraction(2), 12, "corrected")
        assert report.verdict == "pass"

    def test_as_printed_even_order_fails(self):
        report = verify_corollary2(2, Fraction(1, 3), Fraction(1), 10, "as_printed")
        assert report.verdict == "fail"


class TestTheorem3:
    def test_order_one_passes_both_variants(self):
        for variant in ("as_printed", "corrected"):
            assert verify_theorem3(3, 1, Fraction(2), variant).verdict == "pass"

    def test_corrected_fixture(self):
        assert verify_theorem3(2, 2, Fraction(2), "corrected").verdict == "pass"

    def test_as_printed_fixture(self):
        report = verify_theorem3(0, 2, Fraction(2), "as_printed")
        assert report.verdict == "fail"
        assert report.mismatches == tuple(report.mismatches)
        first = report.mismatches[0]
        assert (first.at, first.lhs, first.rhs) == ("value", 1, -1)

    def test_parameter_errors_propagate(self):
        with pytest.raises(ValueError):
            verify_theorem3(1, 2, Fraction(0))

    @pytest.mark.parametrize("checker", [verify_theorem3, verify_corollary4,
                                         verify_corollary5, verify_product_multinomial],
                             ids=["theorem3", "corollary4", "corollary5", "eq60_multinomial"])
    @pytest.mark.parametrize("n, N, u, message", [
        (-1, 2, 2, r"n must be >= 0"),
        # the index is checked before the order
        (-1, 0, 2, r"n must be >= 0"),
        (1, 0, 2, r"N must be >= 1"),
        (1, 2, 1, r"u = 1 is outside the parameter domain"),
        (1, 2, 0, r"u = 0 is outside the parameter domain \(division by u\)"),
    ], ids=["n", "n-before-N", "N", "u=1", "u=0"])
    def test_errors_name_the_checker_parameters(self, checker, n, N, u, message):
        """The (n, N, u) checkers share one check, in that order; only
        eq60_multinomial, which has no u-power factor, takes u = 0."""
        if checker is verify_product_multinomial and u == 0:
            assert checker(n, N, Fraction(u)).verdict == "pass"
            return
        with pytest.raises(ValueError, match=f"^{message}$"):
            checker(n, N, Fraction(u))


class TestCorollary4:
    def test_trivial(self):
        assert verify_corollary4(0, 2, Fraction(2)).verdict == "pass"

    def test_corrected(self):
        assert verify_corollary4(3, 3, Fraction(1, 3), "corrected").verdict == "pass"

    def test_as_printed_fails(self):
        report = verify_corollary4(1, 2, Fraction(2), "as_printed")
        assert report.verdict == "fail"
        assert report.mismatches[0].lhs == 2


class TestCompositionSum:
    """The integer composition sum, over d^N, against a Fraction loop over
    the same compositions."""

    @staticmethod
    def fraction_sum(k, N, numbers):
        total = Fraction(0)
        for parts in weak_compositions(k, N):
            prod = Fraction(multinomial(k, parts))
            for l in parts:
                prod *= numbers[l]
            total += prod
        return total

    @given(st.data(), st.integers(0, 5), st.integers(1, 4))
    def test_matches_fraction_loop(self, data, k, N):
        # mixed denominators, zero and negative values, numbers past k unread
        numbers = data.draw(st.lists(rationals, min_size=k + 1, max_size=k + 3))
        nums, d = common_denominator(numbers)
        total = _composition_sum(k, N, nums)
        assert type(total) is int
        assert Fraction(total, d**N) == self.fraction_sum(k, N, numbers)

    def test_examples(self):
        # k = 0: the empty product of N zeroth numbers, (1/2)^3 over 2^3
        assert _composition_sum(0, 3, [1]) == 1
        # (a + b)^2 with a = numbers[1] * t, b = numbers[0]: 2 * h0 * h1,
        # with h0 = 4/12 and h1 = -9/12: -72 over 12^2, i.e. -1/2
        assert _composition_sum(1, 2, [4, -9]) == -72


class TestCorollary5:
    def test_trivial(self):
        assert verify_corollary5(0, 2, Fraction(2)).verdict == "pass"

    def test_corrected(self):
        assert verify_corollary5(4, 2, Fraction(2), "corrected").verdict == "pass"

    def test_as_printed_fails_at_constant(self):
        report = verify_corollary5(1, 2, Fraction(2), "as_printed")
        assert report.verdict == "fail"
        assert report.mismatches[0].at == "x^0"

    def test_builds_the_triangle_once(self, monkeypatch):
        """On a fresh table the weights of (N, variant) are built from one
        triangle and kept: a second check at that u builds none."""
        calls = []
        triangle = frobenius.triangle_recurrence

        def counted(n_max):
            calls.append(n_max)
            return triangle(n_max)

        monkeypatch.setattr(frobenius, "triangle_recurrence", counted)
        cold_caches()
        try:
            assert verify_corollary5(6, 3, Fraction(1, 3)).verdict == "pass"
            assert calls == [3]
            assert verify_corollary5(4, 3, Fraction(1, 3)).verdict == "pass"
            assert calls == [3]
        finally:
            cold_caches()


class TestEq60:
    def test_trivial(self):
        assert verify_product_multinomial(0, 2, Fraction(2)).verdict == "pass"

    def test_order_collapse(self):
        assert verify_product_multinomial(3, 1, Fraction(2)).verdict == "pass"

    def test_general(self):
        report = verify_product_multinomial(3, 2, Fraction(1, 3))
        assert report.verdict == "pass"
        assert report.variant == "not_applicable"


class TestCarlitzProduct:
    def test_corrected_constant_case(self):
        report = verify_carlitz(0, 0, Fraction(2), Fraction(3), "corrected")
        assert report.verdict == "pass"

    def test_as_printed_constant_case(self):
        report = verify_carlitz(0, 0, Fraction(2), Fraction(3), "as_printed")
        assert report.verdict == "fail"
        first = report.mismatches[0]
        assert (first.at, first.lhs, first.rhs) == ("x^0", 1, Fraction(8, 5))

    def test_corrected_general(self):
        report = verify_carlitz(2, 3, Fraction(2), Fraction(3), "corrected")
        assert report.verdict == "pass"

    @pytest.mark.parametrize(
        "alpha,beta",
        [(Fraction(1), Fraction(3)), (Fraction(2), Fraction(1)), (Fraction(2), Fraction(1, 2))],
    )
    def test_parameter_domain(self, alpha, beta):
        with pytest.raises(ValueError):
            verify_carlitz(1, 1, alpha, beta)

    @given(rationals, rationals)
    def test_corrected_coefficients_sum_to_one(self, alpha, beta):
        """(1-a)(1-b) + a(1-b) + b(1-a) = 1 - ab, the constant-term
        consistency behind the corrected variant."""
        lhs = (1 - alpha) * (1 - beta) + alpha * (1 - beta) + beta * (1 - alpha)
        assert lhs == 1 - alpha * beta


class TestCarlitzReciprocal:
    def test_constant_case_recorded(self):
        report = verify_carlitz_reciprocal(0, 0, Fraction(2))
        assert report.variant == "not_applicable"
        assert_self_consistent(report)

    def test_alpha_minus_one_reduces_to_euler_product(self):
        lhs = fe_polynomial(2, Fraction(-1)) * fe_polynomial(3, Fraction(-1))
        assert lhs == euler_polynomial(2) * euler_polynomial(3)
        assert_self_consistent(verify_carlitz_reciprocal(2, 3, Fraction(-1)))

    def test_grid_self_consistency(self):
        for alpha in [Fraction(2), Fraction(1, 2), Fraction(-2)]:
            for m in range(3):
                for n in range(3):
                    assert_self_consistent(verify_carlitz_reciprocal(m, n, alpha))

    @pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1)])
    def test_parameter_domain(self, alpha):
        with pytest.raises(ValueError):
            verify_carlitz_reciprocal(1, 1, alpha)


class TestBernoulliProduct:
    def test_square_of_degree_one(self):
        report = verify_bernoulli_product(1, 1)
        assert report.verdict == "pass"
        from feident.frobenius import bernoulli_polynomial

        square = bernoulli_polynomial(1) * bernoulli_polynomial(1)
        assert square == Polynomial([Fraction(1, 4), -1, 1])

    def test_degree_two_pair(self):
        assert verify_bernoulli_product(2, 2).verdict == "pass"

    def test_zero_index_edge_recorded(self):
        """Nielsen's expansion holds for m, n >= 1; at n = 0 its right side
        is B_m(x) - B_m, so (2, 0) is outside the domain, not a fail."""
        with pytest.raises(ValueError, match="m and n must be >= 1"):
            verify_bernoulli_product(2, 0)

    @pytest.mark.parametrize("m, n", [(0, 2), (0, 3), (2, 0)])
    def test_zero_index_is_a_parameter_error(self, capsys, m, n):
        assert run(["verify", "bernoulli_product", "--m", str(m), "--n", str(n)]) == 2
        assert capsys.readouterr() == ("", "feident: error: m and n must be >= 1\n")

    def test_zero_index_in_a_grid_is_an_error_report(self):
        (report,) = audit_all({"bernoulli_product": {"m": [0], "n": [2]}})
        assert (report.verdict, report.error) == ("error", "m and n must be >= 1")

    def test_minimum_total_degree(self):
        with pytest.raises(ValueError):
            verify_bernoulli_product(1, 0)


class TestVariantParity:
    """For odd N the two variants are the same statement."""

    @pytest.mark.parametrize("N", [1, 3, 5])
    def test_odd_orders_agree(self, N):
        u = Fraction(1, 3)
        pairs = [
            verify_theorem1(N, u, 12, "as_printed"),
            verify_theorem1(N, u, 12, "corrected"),
        ]
        assert pairs[0].verdict == pairs[1].verdict
        for n in (0, 2):
            a = verify_theorem3(n, N, u, "as_printed")
            b = verify_theorem3(n, N, u, "corrected")
            assert a.verdict == b.verdict
            c = verify_corollary4(n, N, u, "as_printed")
            d = verify_corollary4(n, N, u, "corrected")
            assert c.verdict == d.verdict
            e = verify_corollary5(n, N, u, "as_printed")
            f = verify_corollary5(n, N, u, "corrected")
            assert e.verdict == f.verdict


class TestReports:
    def test_deterministic(self):
        a = verify_theorem1(2, Fraction(2), 10, "as_printed")
        b = verify_theorem1(2, Fraction(2), 10, "as_printed")
        assert a == b
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    def test_schema(self):
        report = verify_carlitz(0, 0, Fraction(2), Fraction(3), "as_printed")
        doc = report.to_dict()
        assert set(doc) == {"identity", "variant", "params", "verdict", "mismatches"}
        assert doc["identity"] == "carlitz_product"
        assert doc["variant"] == "as_printed"
        assert all(isinstance(k, str) and isinstance(v, str) for k, v in doc["params"].items())
        assert doc["params"] == {"m": "0", "n": "0", "alpha": "2", "beta": "3"}
        for mm in doc["mismatches"]:
            assert set(mm) == {"at", "lhs", "rhs"}

    def test_pass_iff_no_mismatches(self):
        for report in audit_all({"theorem3": DEFAULT_GRID["theorem3"]}):
            assert_self_consistent(report)

    def test_mismatches_hold_exact_values_and_to_dict_formats_them(self):
        report = verify_carlitz(0, 0, Fraction(2), Fraction(3), "as_printed")
        first = report.mismatches[0]
        assert (type(first.lhs), type(first.rhs)) == (Fraction, Fraction)
        assert report.to_dict()["mismatches"][0] == {"at": "x^0", "lhs": "1", "rhs": "8/5"}

    def test_shorter_side_is_padded_with_zeros(self):
        lhs, rhs = Polynomial([1, 0, 3]), Polynomial([1, 2])
        assert _mismatches("x", lhs, rhs) == [
            Mismatch("x^1", 0, 2), Mismatch("x^2", 3, 0)
        ]
        assert _mismatches("t", rhs, lhs)[-1] == Mismatch("t^2", 0, 3)

    def test_scalars_are_one_entry_forms_labelled_by_var(self):
        assert _mismatches("value", EgfSeries([Fraction(2, 3)]), EgfSeries._of(([4], 6))) == []
        assert _mismatches("value", EgfSeries._of(([-2], 6)), EgfSeries([Fraction(1, 3)])) == [
            Mismatch("value", Fraction(-1, 3), Fraction(1, 3))
        ]


# Strings with quotes, backslashes, control characters, non-ASCII (a
# two-byte character, a line separator and one outside the BMP) and the rest.
awkward_text = st.text(
    st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7fé\u2028\U0001f600'), st.characters()),
    max_size=8,
)
reports = st.builds(
    VerificationReport,
    identity=awkward_text,
    variant=awkward_text,
    params=st.dictionaries(awkward_text, awkward_text, max_size=3),
    mismatches=st.lists(
        st.builds(Mismatch, awkward_text, st.fractions(), st.fractions()), max_size=3
    ).map(tuple),
    error=st.none() | awkward_text,
)


class TestDocumentJson:
    """The report renderer's bytes are ``json.dumps(doc, indent=2)`` and a
    newline, for the audit document and for a single report."""

    @staticmethod
    def dumps(doc) -> str:
        return json.dumps(doc, indent=2) + "\n"

    @given(st.lists(reports, max_size=4))
    @settings(max_examples=60)
    def test_audit_document(self, reports):
        assert document_json(reports) == self.dumps(audit_document(reports))

    @given(reports)
    def test_single_report(self, report):
        assert document_json([report], audit=False) == self.dumps(report.to_dict())

    def test_empty_and_real_reports(self):
        assert document_json([]) == self.dumps(audit_document([]))
        failing = verify_theorem3(3, 2, Fraction(-5, 7), "as_printed")
        assert failing.mismatches
        for report in (failing, verify_theorem3(3, 2, Fraction(2))):
            assert document_json([report], audit=False) == self.dumps(report.to_dict())
        reports = audit_all({"theorem3": DEFAULT_GRID["theorem3"],
                             "bernoulli_product": {"m": [0, 1], "n": [1]}})
        assert {r.verdict for r in reports} == {"pass", "fail", "error"}
        assert document_json(reports) == self.dumps(audit_document(reports))


class TestFloatParameters:
    """A float is refused wherever a rational parameter enters, instead of
    being read at its binary value."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: verify_theorem1(2, 0.5),
            lambda: verify_corollary2(1, 2, 0.5),
            lambda: verify_theorem3(2, 2, 0.5),
            lambda: verify_carlitz(1, 1, 0.5, 3),
            lambda: verify_carlitz(1, 1, 3, 0.5),
            lambda: verify_carlitz_reciprocal(1, 1, 0.5),
        ],
        ids=["theorem1-u", "corollary2-x", "theorem3-u", "carlitz-alpha", "carlitz-beta",
             "carlitz_reciprocal-alpha"],
    )
    def test_float_raises(self, call):
        with pytest.raises(TypeError, match="float parameters are not allowed"):
            call()

    def test_decimal_raises(self):
        # Fraction() reads Decimal("0.5"), which made this a report at u = 1/2
        message = "Decimal parameters are not allowed; use int, Fraction or a 'p/q' string"
        with pytest.raises(TypeError, match=re.escape(message)):
            verify_theorem3(1, 1, Decimal("0.5"))


class TestLibraryDigitLimit:
    """A failing check is ``fail`` under any int-to-str digit limit; only
    formatting its values needs a limit that fits them."""

    CASE = (400, 2, Fraction(1, 3), "as_printed")
    GRID = {"theorem3": {"variant": ["as_printed"], "n": [400], "N": [2], "u": ["1/3"]}}
    ARGV = ["verify", "theorem3", "--n", "400", "--N", "2", "--u", "1/3",
            "--variant", "as-printed"]

    def test_fail_at_the_lowest_limit(self):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            report = verify_theorem3(*self.CASE)
            assert report.verdict == "fail"
            assert [r.verdict for r in audit_all(self.GRID)] == ["fail"]
            with pytest.raises(ValueError, match="integer string conversion"):
                report.to_dict()
            sys.set_int_max_str_digits(0)
            text = json.dumps(report.to_dict(), indent=2) + "\n"
        finally:
            sys.set_int_max_str_digits(before)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(self.ARGV) == 1
        assert out.getvalue() == text


class TestAudit:
    def test_empty_grid(self):
        assert audit_all({}) == []

    def test_unknown_identity(self):
        with pytest.raises(ValueError):
            audit_all({"theorem9": {}})

    def test_missing_key(self):
        with pytest.raises(ValueError):
            audit_all({"theorem1": {"N": [1]}})

    def test_unknown_key(self):
        grid = {
            "bernoulli_product": {"m": [1], "n": [1], "weird": [0]},
        }
        with pytest.raises(ValueError):
            audit_all(grid)

    @pytest.mark.parametrize(
        "axes, message",
        [
            ({"n": [], "N": [1], "u": ["2.5"]}, "not a rational in p/q form: '2.5'"),
            ({"n": [1], "N": [], "u": [False]}, "must be an int or 'p/q' string: False"),
            ({"n": [1], "N": [1], "u": [True]}, "must be an int or 'p/q' string: True"),
            ({"n": [True], "N": [], "u": ["2"]}, "must be an integer: True"),
            ({"n": [1], "N": [1], "u": [Decimal("Infinity")]},
             "grid value for 'u' must be an int or 'p/q' string: Decimal('Infinity')"),
        ],
        ids=["rational-beside-empty", "false-beside-empty", "true-u", "integer-beside-empty",
             "decimal-infinity-u"],
    )
    def test_every_grid_value_is_checked(self, axes, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            audit_all({"theorem3": {"variant": ["corrected"], **axes}})

    def test_parameter_errors_become_error_reports(self):
        grid = {
            "theorem3": {
                "variant": ["corrected"],
                "n": [0],
                "N": [1],
                "u": ["1", "2"],
            }
        }
        reports = audit_all(grid)
        assert [r.verdict for r in reports] == ["error", "pass"]
        err = reports[0]
        assert err.error is not None
        assert err.params == {"n": "0", "N": "1", "u": "1"}
        assert "error" in err.to_dict()

    def test_default_grid_sign_audit(self):
        reports = audit_all()
        t1 = [r for r in reports if r.identity == "theorem1"]
        for report in t1:
            expected = "pass"
            if report.variant == "as_printed" and int(report.params["N"]) % 2 == 0:
                expected = "fail"
            assert report.verdict == expected

    def test_summary_counts(self):
        reports = audit_all({"bernoulli_product": {"m": [1, 2], "n": [1, 2]}})
        summary = summarize(reports)
        assert summary["total"] == 4
        assert summary["pass"] == 4
        assert summary["fail"] == 0
        assert summary["by_identity"]["bernoulli_product"]["not_applicable"] == {
            "pass": 4,
            "fail": 0,
            "error": 0,
        }

    def test_document_shape(self):
        doc = audit_document(audit_all({"bernoulli_product": {"m": [1], "n": [1]}}))
        assert set(doc) == {"reports", "summary"}
        assert len(doc["reports"]) == 1

    def test_identities_list(self):
        assert set(DEFAULT_GRID) == set(IDENTITIES)
