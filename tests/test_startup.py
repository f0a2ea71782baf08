"""Start-up contract: each CLI command imports only what it runs.

Every test here runs a fresh interpreter and compares the modules it ends
with against those a bare ``python -c pass`` has loaded in the same
environment, so modules that site customisation loads do not count.  The
table commands need only the number kernel: not the identity checker
(``feident.verify``, which brings ``inspect``), and not ``json`` or
``csv`` unless the output is JSON.  No command loads ``dataclasses``: the
reports are NamedTuples.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import feident
from feident import verify

SRC = str(Path(feident.__file__).resolve().parents[1])

# Modules no table in CSV may load.
CHECKER_ONLY = ("feident.verify", "inspect", "dataclasses", "json", "csv")

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


def run_code(argv, status=0) -> str:
    return f"from feident.cli import run\nassert run({argv!r}) == {status}"


def test_import_loads_no_checker():
    assert loads("import feident, feident.cli").isdisjoint(CHECKER_ONLY)


@pytest.mark.parametrize("subject", sorted(TABLES))
def test_csv_table_loads_only_the_number_kernel(subject, tmp_path):
    out = tmp_path / "table.csv"
    argv = ["table", subject, *TABLES[subject], "--out", str(out)]
    assert loads(run_code(argv)).isdisjoint(CHECKER_ONLY)
    assert out.read_text(encoding="utf-8").count("\n") > 1


def test_json_table_loads_json_but_no_checker(tmp_path):
    out = tmp_path / "table.json"
    new = loads(run_code(["table", "bernoulli", "--n-max", "4", "--format", "json",
                          "--out", str(out)]))
    assert "json" in new
    assert new.isdisjoint({"feident.verify", "inspect", "dataclasses", "csv"})


@pytest.mark.parametrize("argv", [["--help"], ["table", "--help"]])
def test_help_loads_no_checker(argv):
    assert "feident.verify" not in loads(run_code(argv))


def test_verify_runs_in_a_fresh_process():
    argv = ["verify", "theorem3", "--n", "3", "--N", "2", "--u", "-5/7", "--format", "csv"]
    new, printed = fresh(run_code(argv))
    assert "feident.verify" in new
    assert "dataclasses" not in new
    assert printed.splitlines()[1] == "theorem3,corrected,n=3;N=2;u=-5/7,pass,,,"


def test_audit_runs_in_a_fresh_process(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(
        '{"corollary4": {"variant": ["corrected"], "n": [2, 3], "N": [2], "u": ["1/3"]}}',
        encoding="utf-8",
    )
    new, printed = fresh(run_code(["audit", "--grid", str(grid)]))
    assert {"feident.verify", "json"} <= new
    assert "dataclasses" not in new
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


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_checker'"):
        feident.no_such_checker
    with pytest.raises(ImportError):
        from feident import no_such_checker  # noqa: F401
