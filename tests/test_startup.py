"""Start-up contract: each CLI command imports only what it runs.

Every test here runs a fresh interpreter and compares the modules it ends
with against those a bare ``python -c pass`` has loaded in the same
environment, so modules that site customisation loads do not count.
``import feident`` loads no submodule, and the CLI module only
``feident.exact``.  Each table subject loads its own kernel: the number
and polynomial tables only ``feident.prefix``, as the higher-order
numbers do but on the triangle side of their size rule, the Bernoulli
numbers only ``feident.series`` and the integer form it stores
(``feident.forms``), the triangle only ``feident.stirling``, and no
table needs the identity checker (``feident.verify``), nor ``json`` or
``csv`` unless the output is JSON.
No command loads ``__future__`` (annotations are evaluated where they
are defined, and every one resolves), ``dataclasses`` (the reports are
NamedTuples) or ``inspect`` (the checker registry reads each body's code
object), and a command line of exact flags loads neither ``argparse``
nor the CLI's argparse reader (``feident.parser``), which only help and
usage errors need.
"""

import functools
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import feident
from feident import frobenius, verify

SRC = str(Path(feident.__file__).resolve().parents[1])

# Modules no table in CSV may load.
CHECKER_ONLY = ("feident.verify", "inspect", "dataclasses", "json", "csv")

# Modules no command loads.
NEVER = ("__future__", "inspect", "dataclasses")

# Modules that only argparse, and so only help and usage errors, load.
PARSER_ONLY = ("feident.parser", "argparse", "gettext", "locale")

# The kernels of the tables of numbers and polynomials.
NUMBER_KERNEL = ("feident.frobenius", "feident.poly", "feident.prefix", "feident.series")

# Each export and the submodule that defines it.
EXPORTS = {
    "VARIANTS": "frobenius",
    "fe_higher_number_formula": "frobenius",
    "fe_higher_number_oracle": "frobenius",
    "fe_number": "prefix",
    "fe_polynomial": "frobenius",
    "Polynomial": "poly",
    "coeff_closed_form": "stirling",
    "triangle_recurrence": "stirling",
}

# The package modules each table loads beyond ``feident.cli`` and
# ``feident.exact``, in CSV and in JSON: the number and polynomial tables
# the prefix kernel alone, and fe-higher too on its recurrence side
# (10N > n_max), the Bernoulli numbers the series and its integer form,
# and the triangle itself alone: so no other table loads ``feident.forms``,
# and none loads the argparse reader ``feident.parser``.
TABLE_MODULES = {
    "fe-numbers": {"feident.prefix"},
    "fe-polynomials": {"feident.prefix"},
    "fe-higher": {"feident.prefix"},
    "stirling": {"feident.stirling"},
    "bernoulli": {"feident.series", "feident.forms"},
}

TABLES = {
    "fe-numbers": ["--u", "-5/7", "--n-max", "6"],
    "fe-polynomials": ["--u", "1/3", "--n-max", "4"],
    "fe-higher": ["--u", "2", "--N", "3", "--n-max", "5"],
    "stirling": ["--n-max", "5"],
    "bernoulli": ["--n-max", "8"],
}

CHECKER_EXPORTS = [
    "audit_all",
    "audit_document",
    "verify_bernoulli_product",
    "verify_carlitz",
    "verify_carlitz_reciprocal",
    "verify_corollary2",
    "verify_corollary4",
    "verify_corollary5",
    "verify_product_multinomial",
    "verify_theorem1",
    "verify_theorem3",
]


def fresh(code: str) -> tuple[set, str]:
    """Run ``code`` in a fresh interpreter that imports feident from this
    checkout; the modules it ended with, and what it printed before."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    probe = code + "\nimport sys\nprint('\\n' + ' '.join(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    printed, _, modules = proc.stdout.rpartition("\n\n")
    return set(modules.split()), printed


@functools.cache
def bare() -> frozenset:
    return frozenset(fresh("pass")[0])


def loads(code: str) -> set:
    """The modules ``code`` loads beyond a bare interpreter's."""
    return fresh(code)[0] - bare()


def package_modules(modules) -> set:
    """The submodules of feident among ``modules``."""
    return {name for name in modules if name.startswith("feident.")}


def run_code(argv, status=0) -> str:
    return f"from feident.cli import run\nassert run({argv!r}) == {status}"


def test_import_loads_no_checker():
    assert loads("import feident, feident.cli").isdisjoint(CHECKER_ONLY)


def test_import_loads_no_kernel():
    new = loads("import feident, feident.cli")
    assert new.isdisjoint({*NUMBER_KERNEL, "feident.stirling"})
    assert {"feident", "feident.cli", "feident.exact"} <= new


def test_bare_import_loads_no_submodule():
    new = loads("import feident")
    assert "feident" in new
    assert not {name for name in new if name.startswith("feident.")}


def test_fe_number_loads_only_the_prefix_kernel():
    """The package's ``fe_number`` is the prefix kernel's, which
    ``feident.frobenius`` re-exports: reading a number through the package
    loads none of the series, polynomial or triangle code."""
    new = loads("import feident\nassert feident.fe_number(3, 2) == 13")
    assert "feident.prefix" in new
    assert new.isdisjoint({"feident.frobenius", "feident.poly", "feident.series",
                           "feident.stirling"})
    assert feident.fe_number is frobenius.fe_number


def test_triangle_table_loads_only_its_kernel(tmp_path):
    out = tmp_path / "table.csv"
    argv = ["table", "stirling", *TABLES["stirling"], "--out", str(out)]
    new = loads(run_code(argv))
    assert "feident.stirling" in new
    assert new.isdisjoint(NUMBER_KERNEL)


@pytest.mark.parametrize("subject", sorted(TABLES))
def test_csv_table_loads_only_the_number_kernel(subject, tmp_path):
    out = tmp_path / "table.csv"
    argv = ["table", subject, *TABLES[subject], "--out", str(out)]
    new = loads(run_code(argv))
    assert new.isdisjoint(CHECKER_ONLY + NEVER)
    assert out.read_text(encoding="utf-8").count("\n") > 1
    assert package_modules(new) == {"feident.cli", "feident.exact", *TABLE_MODULES[subject]}


@pytest.mark.parametrize("subject", sorted(TABLES))
def test_json_table_loads_the_csv_tables_modules(subject, tmp_path):
    out = tmp_path / "table.json"
    argv = ["table", subject, *TABLES[subject], "--format", "json", "--out", str(out)]
    new = loads(run_code(argv))
    assert "json" in new and new.isdisjoint(NEVER)
    assert json.loads(out.read_text(encoding="utf-8"))["table"] == subject
    assert package_modules(new) == {"feident.cli", "feident.exact", *TABLE_MODULES[subject]}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fe_higher_triangle_side_loads_the_formula(fmt, tmp_path):
    out = tmp_path / "table.out"
    argv = ["table", "fe-higher", "--u", "2", "--N", "3", "--n-max", "40", "--format", fmt,
            "--out", str(out)]
    new = loads(run_code(argv))
    assert new.isdisjoint({"feident.verify", "csv", *NEVER})
    assert out.read_text(encoding="utf-8").count("\n") > 41
    # the triangle formula's module, which brings the other kernels
    assert package_modules(new) == {"feident.cli", "feident.exact", *NUMBER_KERNEL,
                                    "feident.stirling", "feident.forms"}


def test_json_table_loads_json_but_no_checker(tmp_path):
    out = tmp_path / "table.json"
    new = loads(run_code(["table", "bernoulli", "--n-max", "4", "--format", "json",
                          "--out", str(out)]))
    assert "json" in new
    assert new.isdisjoint({"feident.verify", "inspect", "dataclasses", "csv"})


@pytest.mark.parametrize("argv", [
    *(["table", subject, *flags] for subject, flags in sorted(TABLES.items())),
    ["verify", "theorem3", "--n", "3", "--N", "2", "--u=-5/7", "--format", "csv"],
    ["audit", "--grid", "GRID"],
], ids=[*sorted(TABLES), "verify", "audit"])
def test_plain_command_line_loads_no_parser(argv, tmp_path):
    """A command line of exact flags, each once, is read without argparse."""
    grid = tmp_path / "grid.json"
    grid.write_text('{"theorem3": {"variant": ["corrected"], "n": [2], "N": [2], "u": ["2"]}}',
                    encoding="utf-8")
    argv = [str(grid) if token == "GRID" else token for token in argv]
    assert loads(run_code(argv + ["--out", str(tmp_path / "out")])).isdisjoint(PARSER_ONLY)


@pytest.mark.parametrize("argv, status", [
    (["table", "fe-numbers", "--help"], 0),
    (["table", "fe-numbers", "--n-max", "2"], 2),
    (["verify", "theorem3", "--n", "x", "--N", "2", "--u", "2"], 2),
], ids=["help", "table-usage-error", "verify-usage-error"])
def test_help_and_usage_errors_load_the_parser(argv, status):
    new = loads(run_code(argv, status))
    assert {"argparse", "feident.parser"} <= new and new.isdisjoint(NEVER)


def test_every_annotation_resolves():
    """Annotations are evaluated where they are defined, so each one in the
    package resolves: a forward reference fails on import already, on the
    oldest supported Python too."""
    names = [f"feident.{info.name}" for info in pkgutil.iter_modules(feident.__path__)]
    assert {"feident.cli", "feident.exact", "feident.forms", "feident.parser"} <= set(names)
    checked = 0
    for name in names:
        module = importlib.import_module(name)
        typing.get_type_hints(module)
        for value in vars(module).values():
            if getattr(value, "__module__", None) != name:
                continue
            members = vars(value).values() if isinstance(value, type) else ()
            for each in (value, *members):
                each = getattr(each, "fget", each)  # a property's getter
                if callable(each) and getattr(each, "__annotations__", None):
                    typing.get_type_hints(each)
                    checked += 1
    assert checked > 50


@pytest.mark.parametrize("argv", [["--help"], ["table", "--help"]])
def test_help_loads_no_checker(argv):
    assert "feident.verify" not in loads(run_code(argv))


def test_verify_runs_in_a_fresh_process():
    argv = ["verify", "theorem3", "--n", "3", "--N", "2", "--u", "-5/7", "--format", "csv"]
    new, printed = fresh(run_code(argv))
    assert "feident.verify" in new
    assert new.isdisjoint(NEVER)
    assert printed.splitlines()[1] == "theorem3,corrected,n=3;N=2;u=-5/7,pass,,,"


def test_audit_runs_in_a_fresh_process(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(
        '{"corollary4": {"variant": ["corrected"], "n": [2, 3], "N": [2], "u": ["1/3"]}}',
        encoding="utf-8",
    )
    new, printed = fresh(run_code(["audit", "--grid", str(grid)]))
    assert {"feident.verify", "json"} <= new
    assert new.isdisjoint(NEVER)
    assert '"pass": 2' in printed


def test_checkers_load_on_first_access():
    code = (
        "import sys, feident\n"
        "assert 'feident.verify' not in sys.modules\n"
        "checker = feident.verify_theorem1\n"
        "assert checker is sys.modules['feident.verify'].verify_theorem1"
    )
    assert "feident.verify" in loads(code)


@pytest.mark.parametrize("name", CHECKER_EXPORTS)
def test_checker_export_is_the_verify_object(name):
    assert getattr(feident, name) is getattr(verify, name)
    assert name in dir(feident)
    assert name in feident.__all__
    namespace = {}
    exec("from feident import *", namespace)
    assert namespace[name] is getattr(verify, name)


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_export_loads_its_submodule_on_first_access(name):
    module = f"feident.{EXPORTS[name]}"
    code = (
        "import sys, feident\n"
        f"assert {module!r} not in sys.modules\n"
        f"value = feident.{name}\n"
        f"assert value is getattr(sys.modules[{module!r}], {name!r})"
    )
    assert module in loads(code)
    assert name in dir(feident)
    assert name in feident.__all__


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_checker'"):
        feident.no_such_checker
    with pytest.raises(ImportError):
        from feident import no_such_checker  # noqa: F401
