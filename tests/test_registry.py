"""The identity registry: each checker's signature is its schema.

The audit grid axes, the report parameters and the ``verify`` flags are
all read from the signatures of the checkers in ``CHECKERS``; these tests
pin that the built-in grid, the CLI and the reports agree with them, and
that the registered checker is the module's public function.
"""

import contextlib
import inspect
import io
import re
from fractions import Fraction

import pytest

import feident
from feident import verify
from feident.cli import run
from feident.verify import (
    CHECKERS,
    DEFAULT_GRID,
    IDENTITIES,
    Mismatch,
    VerificationReport,
    audit_all,
    grid_axes,
    parameters,
    takes_integer,
)

# Public function name of each identity's checker; per-layer tracing and
# the top-level ``feident`` exports look checkers up by these names.
CHECKER_NAMES = {
    "theorem1": "verify_theorem1",
    "corollary2": "verify_corollary2",
    "theorem3": "verify_theorem3",
    "corollary4": "verify_corollary4",
    "corollary5": "verify_corollary5",
    "eq60_multinomial": "verify_product_multinomial",
    "carlitz_product": "verify_carlitz",
    "carlitz_reciprocal": "verify_carlitz_reciprocal",
    "bernoulli_product": "verify_bernoulli_product",
}


def flag(name):
    return "--trunc" if name == "T" else f"--{name}"


def checker_params(identity):
    return [name for name in parameters(identity) if name != "variant"]


def run_capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_registry_is_in_audit_order():
    assert IDENTITIES == tuple(CHECKERS) == tuple(DEFAULT_GRID)


@pytest.mark.parametrize("identity", IDENTITIES)
def test_default_grid_keys_are_the_grid_axes(identity):
    assert tuple(DEFAULT_GRID[identity]) == grid_axes(identity)


def test_verify_flags_are_the_checker_parameters():
    code, out, _ = run_capture(["verify", "--help"])
    assert code == 0
    shown = set(re.findall(r"\[(--[\w-]+)", out))
    common = {"--variant", "--format", "--out"}
    taken = {flag(name) for identity in IDENTITIES for name in checker_params(identity)}
    assert shown - common == taken


@pytest.mark.parametrize("identity", IDENTITIES)
def test_variant_parameter_iff_reports_carry_variants(identity):
    variants = {r.variant for r in audit_all({identity: DEFAULT_GRID[identity]})}
    if "variant" in parameters(identity):
        assert variants == {"as_printed", "corrected"}
    else:
        assert variants == {"not_applicable"}


@pytest.mark.parametrize("identity", IDENTITIES)
def test_report_params_follow_the_signature(identity):
    report = audit_all({identity: DEFAULT_GRID[identity]})[0]
    assert list(report.params) == checker_params(identity)


@pytest.mark.parametrize("identity", IDENTITIES)
def test_verify_rejects_every_flag_the_identity_does_not_take(identity):
    args = ["verify", identity]
    for name in checker_params(identity):
        args += [flag(name), "2" if takes_integer(parameters(identity)[name]) else "1/3"]
    code, _, err = run_capture(args)
    assert code in (0, 1) and err == ""
    others = {flag(name) for other in IDENTITIES for name in checker_params(other)}
    for extra in sorted(others - {flag(name) for name in checker_params(identity)}):
        code, out, err = run_capture(args + [extra, "3"])
        assert (code, out) == (2, "")
        assert err == f"feident: error: identity {identity!r} does not take {extra}\n"


@pytest.mark.parametrize("identity", IDENTITIES)
def test_registered_checker_is_the_public_function(identity):
    assert set(CHECKERS) == set(CHECKER_NAMES)
    checker = CHECKERS[identity]
    assert getattr(verify, CHECKER_NAMES[identity]) is checker
    assert getattr(feident, CHECKER_NAMES[identity]) is checker


@pytest.mark.parametrize("identity", IDENTITIES)
def test_checker_signature_is_the_body_signature(identity):
    checker = CHECKERS[identity]
    signature = inspect.signature(checker)
    body = inspect.signature(checker.__wrapped__)
    assert signature.parameters == body.parameters
    assert signature.return_annotation == "VerificationReport"
    assert body.return_annotation == "list[Mismatch]"


@pytest.mark.parametrize(
    "call, args, params",
    [
        (verify.verify_carlitz, [(0, 0, 2, "3"), (0, 0, Fraction(2), Fraction(3)),
                                 (0, 0, "2", 3)],
         {"m": "0", "n": "0", "alpha": "2", "beta": "3"}),
        (verify.verify_theorem3, [(2, 2, "1/3"), (2, 2, Fraction(1, 3)), (2, 2, "2/6")],
         {"n": "2", "N": "2", "u": "1/3"}),
        (verify.verify_theorem1, [(2, -2, 6), (2, "-2", 6), (2, Fraction(-4, 2), 6)],
         {"N": "2", "u": "-2", "T": "6"}),
        (verify.verify_corollary2, [(2, 2, 0), (2, "2", "0"), (2, Fraction(2), Fraction(0))],
         {"N": "2", "u": "2", "x": "0", "T": "16"}),
    ],
    ids=["carlitz", "theorem3", "theorem1", "corollary2"],
)
def test_int_str_and_fraction_rationals_give_the_same_report(call, args, params):
    reports = [call(*a) for a in args]
    assert all(r.params == params for r in reports)
    assert all(r.to_dict() == reports[0].to_dict() for r in reports)


def test_positional_and_keyword_calls_agree():
    u = Fraction(-5, 7)
    positional = verify.verify_carlitz(6, 6, u, 3)
    keyword = verify.verify_carlitz(m=6, n=6, alpha=u, beta=3, variant="corrected")
    assert positional == keyword
    assert list(positional.params) == ["m", "n", "alpha", "beta"]
    assert positional.variant == "corrected"
    assert verify.verify_theorem3(3, 2, u, "as_printed").variant == "as_printed"
    assert verify.verify_bernoulli_product(2, 3).variant == "not_applicable"


def test_variant_is_checked_before_the_other_parameters():
    with pytest.raises(ValueError, match="unknown variant 'nope'"):
        verify.verify_theorem3(-1, 2, 1, "nope")
    with pytest.raises(ValueError, match="n must be >= 0"):
        verify.verify_theorem3(-1, 2, 1, "corrected")
    with pytest.raises(TypeError):
        verify.verify_bernoulli_product(1, 2, "corrected")


@pytest.mark.parametrize("mismatches", [(), (Mismatch("t^0", Fraction(1), Fraction(2)),)])
@pytest.mark.parametrize("error", [None, "m and n must be >= 0"])
def test_verdict_follows_error_and_mismatches(mismatches, error):
    report = VerificationReport("theorem1", "corrected", {}, mismatches, error)
    assert (report.verdict == "error") == (error is not None)
    if error is None:
        assert (report.verdict == "fail") == bool(mismatches)
    assert report.to_dict()["verdict"] == report.verdict


def test_verify_help_names_the_identities_taking_each_flag(monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")
    code, out, _ = run_capture(["verify", "--help"])
    assert code == 0
    helps = dict(re.findall(r"^  (--[\w-]+) \S+ +(\S.*)$", out, re.MULTILINE))
    for name in {name for identity in IDENTITIES for name in checker_params(identity)}:
        kind, _, takers = helps[flag(name)].partition("; ")
        assert takers.split(", ") == [i for i in IDENTITIES if name in parameters(i)]
        param = next(parameters(i)[name] for i in IDENTITIES if name in parameters(i))
        assert kind.startswith("integer" if takes_integer(param) else "rational p/q")
    assert helps["--trunc"] == "integer, default 16; theorem1, corollary2"
