"""The identity registry: each checker's signature is its schema.

The audit grid axes, the report parameters and the ``verify`` flags are
all read from the signatures of the checkers in ``CHECKERS``; these tests
pin that the built-in grid, the CLI and the reports agree with them.
"""

import contextlib
import io
import re

import pytest

from feident.cli import run
from feident.verify import (
    CHECKERS,
    DEFAULT_GRID,
    IDENTITIES,
    audit_all,
    grid_axes,
    parameters,
    takes_integer,
)


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
