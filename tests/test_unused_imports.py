"""Every imported name in the package and the tests is used, and every
top-level function and class of the package has a caller outside the tests.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by an import must be read somewhere else in the module, and a
name the package defines at top level must be read somewhere in the package
or the benchmark outside its own definition.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "loragate").glob("*.py"))
MODULES = sorted(
    [*PACKAGE, *(ROOT / "tests").glob("*.py")],
    key=lambda p: p.relative_to(ROOT).as_posix(),
)
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name)
                         for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for line, name in sorted(imported)
            if name not in used]


def test_checker_flags_unused_and_accepts_used():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from typing import Optional, Sequence\n"
              "def f(x: Optional[int]) -> None:\n"
              "    return np.zeros(os.path.sep)\n")
    assert unused_imports(source) == ["line 4: Sequence"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def names_read(node: ast.AST) -> Counter:
    """How often each name is read under ``node``: as a variable, as an
    attribute, or as a string, since the benchmark patches functions by name.
    The strings of an ``__all__`` list export names without reading them."""
    found, todo = Counter(), [node]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            continue
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
        todo.extend(ast.iter_child_nodes(node))
    return found


def unreferenced_definitions(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Top-level functions and classes of the ``package`` sources (by module
    name) that no source of ``package`` or ``readers`` reads outside their
    own definition."""
    trees = {name: ast.parse(source) for name, source in {**package, **readers}.items()}
    read = sum((names_read(tree) for tree in trees.values()), Counter())
    return [f"{module}: {node.name}" for module in package for node in trees[module].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and read[node.name] == names_read(node)[node.name]]


def test_dead_code_checker_flags_definitions_only_they_read():
    package = {"a": ("__all__ = ['listed']\n"
                     "def used():\n    return 1\n"
                     "def recursive(n):\n    return recursive(n - 1)\n"
                     "def listed():\n    pass\n"
                     "def patched():\n    pass\n"
                     "class Base:\n    pass\n"),
               "b": "from a import used, Base\nclass Derived(Base):\n    x = used()\n"}
    bench = {"bench": "hooks.patch(a, 'patched', wrap)\n"}
    assert unreferenced_definitions(package, bench) == [
        "a: recursive", "a: listed", "b: Derived"]


def test_every_package_definition_has_a_reader():
    def sources(paths):
        return {p.relative_to(ROOT).as_posix(): p.read_text() for p in paths}

    assert unreferenced_definitions(sources(PACKAGE), sources(BENCHMARK)) == []
