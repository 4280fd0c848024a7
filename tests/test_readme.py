"""README's library example runs as written and shows what it returns."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example():
    # Statements run in order in one namespace.  An expression statement
    # with a comment must return a value whose repr starts the comment, or
    # starts with the comment up to its first "..." (a shortened value).
    source = library_block()
    lines = source.splitlines()
    namespace = {}
    shown = 0
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = repr(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        if comment:
            assert comment.startswith(value) or value.startswith(comment.split("...")[0]), (
                lines[node.end_lineno - 1],
                value,
            )
            shown += 1
    assert shown >= 3
