"""Every third-party module the package imports is a declared dependency, and
the package exports exactly the names its `__init__` imports."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "steiner_spectra"


def declared_dependencies() -> set:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.S | re.M).group(1)
    return {re.match(r"[A-Za-z0-9_.-]+", name).group().lower() for name in re.findall(r'"([^"]+)"', block)}


def imported_top_level_modules() -> set:
    modules = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    return modules


def test_third_party_imports_are_declared():
    third_party = imported_top_level_modules() - sys.stdlib_module_names
    assert third_party == declared_dependencies() == {"numpy", "mpmath"}


def test_all_lists_exactly_the_imported_names():
    import steiner_spectra

    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(steiner_spectra.__all__) == len(set(steiner_spectra.__all__))
    assert set(steiner_spectra.__all__) == imported
