"""``feident.verify`` compares; the routes live behind the table of u.

The checkers read both routes of every identity from the number tables
(:mod:`feident.frobenius`): F and its powers from the series slot, the
triangle weights from the formula slot.  So ``verify`` binds none of the
route kernels below, by import or by attribute: an AST walk over
``src/feident/verify.py`` fails on any import, name or attribute that is
one of them, and the loaded module holds none of them.  A checker that
built a power, an inverse or a triangle row of its own would compute a
route outside the table, where no cache and no route fault reaches it.
"""

import ast
from pathlib import Path

import pytest

from feident import verify

SOURCE = Path(__file__).resolve().parents[1] / "src" / "feident" / "verify.py"

ROUTE_KERNELS = {
    "series_pow",
    "series_truncate",
    "series_reciprocal",
    "frobenius_oracle",
    "triangle_recurrence",
    "combine",
}


def kernel_uses(source: str) -> list[str]:
    """``"line: name"`` for each import, name or attribute that is a
    route kernel."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rpartition(".")[2] for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names if name in ROUTE_KERNELS]
    return found


def test_verify_source_names_no_route_kernel():
    assert kernel_uses(SOURCE.read_text(encoding="utf-8")) == []


def test_verify_module_binds_no_route_kernel():
    assert ROUTE_KERNELS.isdisjoint(vars(verify))


@pytest.mark.parametrize(
    "source",
    [
        "from .series import series_pow",
        "from .series import EgfSeries, series_truncate as cut",
        "from .stirling import triangle_recurrence",
        "from .exact import combine",
        "import feident.series.series_reciprocal",
        "x = series.frobenius_oracle(u, 3)",
        "x = combine(terms)",
    ],
)
def test_each_kernel_use_is_found(source):
    assert len(kernel_uses(source)) == 1


def test_table_reads_pass():
    source = (
        "from .frobenius import _shifted_sum, _table, power, weights\n"
        "from .series import exp_xt, series_mul, series_scale\n"
        "h = power(_table(u), T, 1)\n"
        "rhs = _shifted_sum(weights(_table(u), N, variant), h.integer_form, T + 1)\n"
    )
    assert kernel_uses(source) == []
