"""README's library example runs as written and shows what it returns, and
its command-line section names the parser's subcommands."""

import argparse
import ast
import re
from pathlib import Path

from steiner_spectra.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
NUMBER_WORDS = "zero one two three four five six seven eight nine ten eleven twelve".split()


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


def test_command_line_section_matches_parser():
    # one example line per subcommand, and the count in words
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    section = section.split("\n## ", 1)[0]
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    examples = re.findall(r"^steiner-spectra (\S+)", section, re.M)
    assert sorted(examples) == sorted(sub.choices)
    count = re.search(r"\b(\w+) subcommands\b", section).group(1)
    assert NUMBER_WORDS.index(count) == len(sub.choices)
