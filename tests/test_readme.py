"""The python example under "## Library" in README.md runs as written, and
every line of it whose trailing comment is a Python expression has the
value of that expression; the JSON example under "## Report format" is
the report it describes.  So the README cannot drift from the API."""

import ast
import io
import json
import re
import tokenize
from pathlib import Path

from feident.verify import verify_theorem3

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(heading: str, language: str) -> str:
    """The first ``language`` block in the README section under ``heading``."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(rf"```{language}\n(.*?)```", section, re.S)
    assert block is not None, f'README "## {heading}" has no {language} block'
    return block.group(1)


def library_example() -> str:
    return code_block("Library", "python")


def trailing_comments(source: str) -> dict:
    """Line number -> comment text without the ``#``."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {tok.start[0]: tok.string[1:].strip() for tok in tokens if tok.type == tokenize.COMMENT}


def is_expression(comment: str, namespace: dict) -> bool:
    """True for a Python expression over names the example binds, such as
    ``Fraction(11, 1)``; False for prose such as ``H_4(1/3)``."""
    try:
        tree = ast.parse(comment, mode="eval")
    except SyntaxError:
        return False
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names <= namespace.keys()


def test_library_example_shows_true_values():
    source = library_example()
    comments = trailing_comments(source)
    namespace = {}
    checked = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = comments.get(stmt.end_lineno, "")
        if is_expression(comment, namespace):
            expected = eval(comment, namespace)
            assert (type(value), value) == (type(expected), expected), ast.unparse(stmt)
            checked.append(comment)
    # The example shows at least three values; a parser that finds none
    # would otherwise pass without checking anything.
    assert len(checked) >= 3, checked


def test_report_format_example_is_a_real_report():
    example = json.loads(code_block("Report format", "json"))
    assert example == verify_theorem3(0, 2, 2, "as_printed").to_dict()
