"""The identity registry: each checker's parameters are its schema.

The audit grid axes, the report parameters and the ``verify`` flags are
all read from the ``Param`` schema that registration reads from each
checker body; these tests pin each schema, that the built-in grid, the
CLI and the reports agree with it, that the registry binds calls as
Python would, and that the registered checker is the module's public
function.
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
    REQUIRED,
    Mismatch,
    Param,
    VerificationReport,
    _identity,
    audit_all,
    grid_axes,
    parameters,
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
    """``verify <identity> --help`` lists exactly the identity's flags: its
    checker's parameters, ``--variant`` only where it has one, and the
    output flags."""
    for identity in IDENTITIES:
        code, out, _ = run_capture(["verify", identity, "--help"])
        assert code == 0
        shown = set(re.findall(r"^  (--[\w-]+)", out, re.MULTILINE))
        assert shown == {flag(name) for name in parameters(identity)} | {"--format", "--out"}


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
        args += [flag(name), "2" if parameters(identity)[name].integer else "1/3"]
    code, _, err = run_capture(args)
    assert code in (0, 1) and err == ""
    others = {flag(name) for other in IDENTITIES for name in checker_params(other)}
    for extra in sorted(others - {flag(name) for name in checker_params(identity)}):
        code, out, err = run_capture(args + [extra, "3"])
        assert (code, out) == (2, "")
        assert err == f"feident: error: unrecognized arguments: {extra} 3\n"


@pytest.mark.parametrize("identity", IDENTITIES)
def test_registered_checker_is_the_public_function(identity):
    assert set(CHECKERS) == set(CHECKER_NAMES)
    checker = CHECKERS[identity]
    assert getattr(verify, CHECKER_NAMES[identity]) is checker
    assert getattr(feident, CHECKER_NAMES[identity]) is checker


VARIANT = ("variant", False, "corrected")

# Each identity's (name, integer, default) schema, in parameter order.
SCHEMAS = {
    "theorem1": [("N", True, REQUIRED), ("u", False, REQUIRED), ("T", True, 16), VARIANT],
    "corollary2": [("N", True, REQUIRED), ("u", False, REQUIRED), ("x", False, REQUIRED),
                   ("T", True, 16), VARIANT],
    "theorem3": [("n", True, REQUIRED), ("N", True, REQUIRED), ("u", False, REQUIRED),
                 VARIANT],
    "corollary4": [("n", True, REQUIRED), ("N", True, REQUIRED), ("u", False, REQUIRED),
                   VARIANT],
    "corollary5": [("n", True, REQUIRED), ("N", True, REQUIRED), ("u", False, REQUIRED),
                   VARIANT],
    "eq60_multinomial": [("n", True, REQUIRED), ("N", True, REQUIRED),
                         ("u", False, REQUIRED)],
    "carlitz_product": [("m", True, REQUIRED), ("n", True, REQUIRED),
                        ("alpha", False, REQUIRED), ("beta", False, REQUIRED), VARIANT],
    "carlitz_reciprocal": [("m", True, REQUIRED), ("n", True, REQUIRED),
                           ("alpha", False, REQUIRED)],
    "bernoulli_product": [("m", True, REQUIRED), ("n", True, REQUIRED)],
}


@pytest.mark.parametrize("identity", IDENTITIES)
def test_checker_schema(identity):
    schema = parameters(identity)
    assert list(schema.values()) == SCHEMAS[identity]
    assert all(type(param) is Param and schema[param.name] is param
               for param in schema.values())


@pytest.mark.parametrize("identity", IDENTITIES)
def test_checker_signature_is_the_body_signature(identity):
    """``help()`` shows the body's signature: the registry keeps the
    schema as data, and ``functools.wraps`` points at the body.  The body
    returns its two routes and the checker a report, so neither claims a
    return annotation."""
    checker = CHECKERS[identity]
    signature = inspect.signature(checker)
    assert signature == inspect.signature(checker.__wrapped__)
    assert list(signature.parameters) == list(parameters(identity))
    assert signature.return_annotation is inspect.Signature.empty


def test_schema_is_read_only():
    with pytest.raises(TypeError):
        parameters("theorem1")["T"] = Param("T", True, 8)


@pytest.mark.parametrize(
    "body",
    [
        lambda n, *rest: [],
        lambda n, **rest: [],
        lambda n, *, u: [],
        lambda n, /, u: [],
    ],
    ids=["args", "kwargs", "keyword-only", "positional-only"],
)
def test_registration_refuses_other_parameter_kinds(body, monkeypatch):
    monkeypatch.setattr(verify, "CHECKERS", {})
    monkeypatch.setattr(verify, "_SCHEMAS", {})
    with pytest.raises(TypeError, match="may take only positional-or-keyword parameters"):
        _identity("theorem1")(body)
    assert verify.CHECKERS == verify._SCHEMAS == {}


@pytest.mark.parametrize(
    "call",
    [
        lambda: verify.verify_theorem3(-1, 2, 1, "nope", "extra"),
        lambda: verify.verify_theorem3(-1, 2, 1, "nope", k=1),
        lambda: verify.verify_theorem3(-1, 2, "nope", u=1),
        lambda: verify.verify_theorem3(n=-1, N=2, variant="nope"),
        lambda: verify.verify_theorem3(-1, u=1, variant="nope"),
        lambda: verify.verify_bernoulli_product(-1),
    ],
    ids=["too-many-positional", "unknown-keyword", "given-twice", "missing-u",
         "missing-N", "missing-n"],
)
def test_bad_calls_raise_type_error_before_any_value_error(call):
    with pytest.raises(TypeError):
        call()


def test_bad_call_messages():
    with pytest.raises(TypeError, match="too many positional arguments"):
        verify.verify_bernoulli_product(1, 2, 3)
    with pytest.raises(TypeError, match="unexpected keyword argument 'k'"):
        verify.verify_bernoulli_product(1, 2, k=3)
    with pytest.raises(TypeError, match="multiple values for argument 'm'"):
        verify.verify_bernoulli_product(1, 2, m=3)
    with pytest.raises(TypeError, match="missing a required argument: 'n'"):
        verify.verify_bernoulli_product(1)


# One valid call of each identity, by keyword.
VALID_CALLS = {
    "theorem1": {"N": 2, "u": 2, "T": 6},
    "corollary2": {"N": 2, "u": 2, "x": 0, "T": 6},
    "theorem3": {"n": 2, "N": 2, "u": 2},
    "corollary4": {"n": 2, "N": 2, "u": 2},
    "corollary5": {"n": 2, "N": 2, "u": 2},
    "eq60_multinomial": {"n": 2, "N": 2, "u": 2},
    "carlitz_product": {"m": 1, "n": 1, "alpha": 2, "beta": 3},
    "carlitz_reciprocal": {"m": 1, "n": 1, "alpha": 2},
    "bernoulli_product": {"m": 1, "n": 2},
}


def test_valid_calls_cover_every_parameter():
    for identity, kwargs in VALID_CALLS.items():
        assert list(kwargs) == checker_params(identity)
        assert CHECKERS[identity](**kwargs).verdict == "pass"


@pytest.mark.parametrize("bad", [True, 3.0, "3"], ids=["bool", "float", "str"])
@pytest.mark.parametrize(
    "identity, name",
    [(identity, name) for identity in IDENTITIES
     for name, param in parameters(identity).items() if param.integer],
)
def test_integer_parameters_must_be_ints(identity, name, bad):
    kwargs = dict(VALID_CALLS[identity], **{name: bad})
    message = f"argument '{name}' must be an int, not {type(bad).__name__}"
    with pytest.raises(TypeError, match=re.escape(message)):
        CHECKERS[identity](**kwargs)
    args = [kwargs[p] for p in checker_params(identity)]
    with pytest.raises(TypeError, match=re.escape(message)):
        CHECKERS[identity](*args)


@pytest.mark.parametrize("bad", [True, False])
@pytest.mark.parametrize(
    "identity, name",
    [(identity, name) for identity in IDENTITIES
     for name, param in parameters(identity).items()
     if not param.integer and name != "variant"],
)
def test_rational_parameters_refuse_bools(identity, name, bad):
    kwargs = dict(VALID_CALLS[identity], **{name: bad})
    with pytest.raises(TypeError, match=f"argument '{name}' must be a rational, not bool"):
        CHECKERS[identity](**kwargs)


def test_type_errors_come_before_value_errors():
    # n = True beside N = 0, u = 1 and an unknown variant, each a ValueError
    with pytest.raises(TypeError, match="argument 'n' must be an int, not bool"):
        verify.verify_theorem3(True, 0, 1, "bogus")
    with pytest.raises(TypeError, match="argument 'T' must be an int, not float"):
        verify.verify_theorem1(0, 1, 12.0)
    with pytest.raises(TypeError, match="argument 'alpha' must be a rational, not bool"):
        verify.verify_carlitz(-1, 0, True, 1)
    # n = -1 and m = -1 are ValueErrors; a float rational is read before the body
    with pytest.raises(TypeError, match="float parameters are not allowed"):
        verify.verify_theorem3(-1, 2, 0.5)
    # a float rational is refused with the call's types, before the variant is checked
    with pytest.raises(TypeError, match="float parameters are not allowed"):
        verify.verify_theorem3(0, 1, 0.5, "bogus")
    with pytest.raises(TypeError, match="float parameters are not allowed"):
        verify.verify_carlitz(-1, 0, 0.5, 2)


def test_each_parameter_is_read_in_signature_order():
    """A malformed rational is read before a later parameter's type or the
    variant, which comes last in every checker."""
    with pytest.raises(ValueError, match=re.escape("not a rational in p/q form: 'x'")):
        verify.verify_theorem3(0, 1, "x", "bogus")
    with pytest.raises(ValueError, match=re.escape("not a rational in p/q form: 'x'")):
        verify.verify_carlitz(0, 0, "x", True)


def test_grid_rationals_may_be_fractions():
    grid = {"n": [2], "N": [1, 2], "u": ["1/3"], "variant": ["corrected"]}
    as_text = audit_all({"theorem3": grid})
    assert audit_all({"theorem3": dict(grid, u=[Fraction(1, 3)])}) == as_text
    assert as_text[0].params == {"n": "2", "N": "1", "u": "1/3"}


@pytest.mark.parametrize(
    "identity, name",
    [(identity, name) for identity in IDENTITIES
     for name in parameters(identity) if name != "variant"],
)
def test_grid_values_a_call_refuses_by_type_are_grid_errors(identity, name):
    """The grid reads each value with the call's reader, and words each
    refusal as a grid error for that parameter."""
    param = parameters(identity)[name]
    kind = "an integer" if param.integer else "an int or 'p/q' string"
    refused = [True, 3.0, None, [1]] + (["3"] if param.integer else [])
    for bad in refused:
        with pytest.raises(TypeError):
            CHECKERS[identity](**dict(VALID_CALLS[identity], **{name: bad}))
        config = dict(DEFAULT_GRID[identity])
        if name in ("alpha", "beta") and "alpha_beta" in config:
            config["alpha_beta"] = [[bad, "3"] if name == "alpha" else ["2", bad]]
        else:
            config[name] = [bad]
        message = f"grid value for {name!r} must be {kind}: {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            audit_all({identity: config})


def test_defaults_are_filled_in_for_every_call_form():
    u = Fraction(1, 3)
    reports = [
        verify.verify_theorem1(2, u),
        verify.verify_theorem1(N=2, u=u),
        verify.verify_theorem1(2, u=u, variant="corrected"),
        verify.verify_theorem1(2, u, 16, "corrected"),
    ]
    assert all(r == reports[0] for r in reports)
    assert reports[0].params == {"N": "2", "u": "1/3", "T": "16"}
    assert reports[0].variant == "corrected"


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


def test_verify_help_gives_each_flag_its_kind_and_default(monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")
    for identity in IDENTITIES:
        code, out, _ = run_capture(["verify", identity, "--help"])
        assert code == 0
        helps = dict(re.findall(r"^  (--[\w-]+) \S+ +(\S.*)$", out, re.MULTILINE))
        for name in checker_params(identity):
            param = parameters(identity)[name]
            kind = "integer" if param.integer else "rational p/q"
            default = "" if param.default is REQUIRED else f", default {param.default}"
            assert helps[flag(name)] == kind + default
        if "T" in parameters(identity):
            assert helps["--trunc"] == "integer, default 16"
