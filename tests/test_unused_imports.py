"""Every imported name in the package and the tests is used.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by an import must be read somewhere else in the module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    [*(ROOT / "src" / "loragate").glob("*.py"), *(ROOT / "tests").glob("*.py")],
    key=lambda p: p.relative_to(ROOT).as_posix(),
)


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
