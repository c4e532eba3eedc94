"""Every top-level import in the package is used (a stdlib stand-in for a
linter's unused-import rule), and so is every top-level function and class:
the package holds only what the program or the benchmark calls."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import rvqtok

MODULES = sorted(Path(rvqtok.__file__).parent.glob("*.py"))
#: The benchmark's sources, beside ``tests/``; its own tests are not callers.
BENCHMARK = sorted(p for p in (Path(__file__).parents[1] / "perfbench").glob("*.py")
                   if not p.name.startswith("test_"))
#: The console script ``pyproject.toml`` names.
ENTRY_POINTS = {("cli.py", "main")}


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing else in
    the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_finds_an_unused_import():
    assert unused_imports("import os\nimport sys as system\nprint(system)\n") == [
        "line 1: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def _reads(tree: ast.AST) -> Counter:
    """How often each name is read under ``tree``: as a variable, as an
    attribute, or as a string naming one (the benchmark wraps functions by
    their attribute names)."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def unused_definitions(package: dict[str, str], callers: list[str]) -> list[str]:
    """Top-level functions and classes of the ``package`` sources (by file
    name) that nothing in the package or ``callers`` reads outside their
    own definition."""
    trees = {name: ast.parse(src) for name, src in package.items()}
    total = sum((_reads(t) for t in trees.values()), Counter())
    total += sum((_reads(ast.parse(src)) for src in callers), Counter())
    return [f"{name}: {node.name}" for name, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and (name, node.name) not in ENTRY_POINTS
            and total[node.name] <= _reads(node)[node.name]]


def test_finds_an_unused_definition():
    package = {"a.py": "def used():\n    return 1\n\n"
                       "def recursive(n):\n    return recursive(n - 1)\n\n"
                       "class Wrapped:\n    pass\n",
               "b.py": "from .a import used\n\nprint(used())\n"}
    callers = ["wrap(a, 'Wrapped')\n"]
    assert unused_definitions(package, callers) == ["a.py: recursive"]


def test_every_definition_is_used():
    assert BENCHMARK, "perfbench/ not found beside tests/"
    package = {p.name: p.read_text() for p in MODULES}
    assert unused_definitions(package, [p.read_text() for p in BENCHMARK]) == []
