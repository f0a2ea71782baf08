"""Tests for the two-route verification harness and its reports."""

import contextlib
import io
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from feident.cli import run
from feident.frobenius import euler_polynomial, fe_polynomial
from feident.poly import Polynomial
from feident.series import series_mul
from feident.verify import (
    DEFAULT_GRID,
    IDENTITIES,
    Mismatch,
    _mismatches,
    audit_all,
    audit_document,
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


class TestCorollary2:
    @pytest.mark.parametrize("variant", ["as_printed", "corrected"])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_x_zero_matches_theorem1(self, N, variant):
        u, T = Fraction(1, 3), 10
        with_x = verify_corollary2(N, u, Fraction(0), T, variant)
        without = verify_theorem1(N, u, T, variant)
        assert with_x.verdict == without.verdict

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

    def test_errors_name_the_checker_parameters(self):
        with pytest.raises(ValueError, match=r"^n must be >= 0$"):
            verify_theorem3(-1, 2, Fraction(2))
        with pytest.raises(ValueError, match=r"^N must be >= 1$"):
            verify_theorem3(1, 0, Fraction(2))


class TestCorollary4:
    def test_trivial(self):
        assert verify_corollary4(0, 2, Fraction(2)).verdict == "pass"

    def test_corrected(self):
        assert verify_corollary4(3, 3, Fraction(1, 3), "corrected").verdict == "pass"

    def test_as_printed_fails(self):
        report = verify_corollary4(1, 2, Fraction(2), "as_printed")
        assert report.verdict == "fail"
        assert report.mismatches[0].lhs == 2


class TestCorollary5:
    def test_trivial(self):
        assert verify_corollary5(0, 2, Fraction(2)).verdict == "pass"

    def test_corrected(self):
        assert verify_corollary5(4, 2, Fraction(2), "corrected").verdict == "pass"

    def test_as_printed_fails_at_constant(self):
        report = verify_corollary5(1, 2, Fraction(2), "as_printed")
        assert report.verdict == "fail"
        assert report.mismatches[0].at == "x^0"


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
        report = verify_bernoulli_product(2, 0)
        assert_self_consistent(report)

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
        lhs, rhs = Polynomial([1, 0, 3]).coeffs, Polynomial([1, 2]).coeffs
        assert _mismatches("x", lhs, rhs) == [
            Mismatch("x^1", 0, 2), Mismatch("x^2", 3, 0)
        ]
        assert _mismatches("t", rhs, lhs)[-1] == Mismatch("t^2", 0, 3)


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
