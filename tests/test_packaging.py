"""Every third-party module the package imports is a declared dependency,
no module imports multiprocessing or numbers, importing the package loads
neither mpmath nor multiprocessing, the package exports exactly the names
its `__init__` imports, only `exact._integer` reads integers with
`operator.index`, and only `exact._size` refuses a size below its bound."""

import ast
import re
import subprocess
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
    assert third_party == declared_dependencies() == {"numpy"}


def test_no_module_imports_multiprocessing():
    # sweeps evaluate their classes in one serial loop
    assert "multiprocessing" not in imported_top_level_modules()


def test_import_loads_no_mpmath():
    # a fresh interpreter: the test session itself may have loaded either;
    # nothing in the package imports multiprocessing, and nothing it
    # imports should pull it in
    code = "import sys, steiner_spectra; print(sorted({'mpmath', 'multiprocessing'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT / "src",
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"


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


def test_no_module_imports_numbers():
    # caller integers are read by exact._integer, not by type tests
    assert "numbers" not in imported_top_level_modules()


def test_only_exact_integer_calls_operator_index():
    # every (module, top-level definition) that names operator.index, or
    # imports index or an alias from operator
    seen = set()
    for path in PACKAGE.glob("*.py"):
        for stmt in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Import):
                    if any(a.name == "operator" and a.asname for a in node.names):
                        seen.add((path.stem, "import operator as"))
                elif isinstance(node, ast.ImportFrom) and node.module == "operator":
                    seen.add((path.stem, "from operator import"))
                elif (
                    isinstance(node, ast.Attribute)
                    and node.attr == "index"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "operator"
                ):
                    seen.add((path.stem, owner))
    assert seen == {("exact", "_integer")}


def test_only_exact_size_refuses_a_size_below_its_bound():
    # every (module, top-level definition) that raises a ValueError whose
    # text says "must be at least": a size check that bypasses exact._size
    seen = set()
    for path in PACKAGE.glob("*.py"):
        for stmt in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Raise)
                    and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "ValueError"
                    and any(
                        isinstance(c, ast.Constant) and "must be at least" in str(c.value)
                        for c in ast.walk(node.exc)
                    )
                ):
                    seen.add((path.stem, getattr(stmt, "name", None)))
    assert seen == {("exact", "_size")}
