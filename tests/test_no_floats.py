"""No floating point in the package: every value is an int or a Fraction.

An AST walk over ``src/feident/*.py`` fails on any float literal, on any
call of ``float`` or ``round``, and on any use of ``math.sqrt``,
``math.exp``, ``math.log`` or ``math.pow`` (called through ``math`` or
imported from it).  Naming ``float`` to refuse one, as in
``isinstance(value, float)``, is not a call and passes.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "feident").glob("*.py"))

FLOAT_BUILTINS = {"float", "round"}
FLOAT_MATH = {"sqrt", "exp", "log", "pow"}


def float_uses(source: str) -> list[str]:
    """``"line: what"`` for each float literal or float-valued call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{node.lineno}: float literal {node.value!r}")
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in FLOAT_BUILTINS:
                found.append(f"{node.lineno}: call of {func.id}")
            elif (isinstance(func, ast.Attribute) and func.attr in FLOAT_MATH
                  and isinstance(func.value, ast.Name) and func.value.id == "math"):
                found.append(f"{node.lineno}: call of math.{func.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in FLOAT_MATH:
                    found.append(f"{node.lineno}: import of math.{alias.name}")
    return found


def test_every_module_is_read():
    assert {path.name for path in SOURCES} >= {
        "__init__.py", "cli.py", "exact.py", "frobenius.py", "poly.py", "series.py",
        "stirling.py", "verify.py",
    }


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_floats(path):
    assert float_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "x = 0.5",
        "x = 1e3",
        "x = float(y)",
        "x = round(y, 2)",
        "x = math.sqrt(2)",
        "x = math.exp(1)",
        "x = math.log(2)",
        "x = math.pow(2, 3)",
        "from math import sqrt",
    ],
)
def test_each_float_use_is_found(source):
    assert len(float_uses(source)) == 1


def test_exact_code_passes():
    source = (
        "import math\n"
        "from fractions import Fraction\n"
        "ok = isinstance(v, float) or math.comb(5, 2) + math.factorial(3)\n"
        "x = Fraction(1, 2) ** 2 + math.lcm(2, 3)\n"
    )
    assert float_uses(source) == []
