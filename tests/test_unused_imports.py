"""Every imported name in the package and the tests is used, every
top-level function and class of the package has a caller outside the tests,
only ``harness`` imports a module that starts processes, only ``harness``
names its solo runs and its second-core test, only ``harness.run_seed``
and ``cli._run_pool`` fork, and only ``adapter.init_gate`` makes a jump gate.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by an import must be read somewhere else in the module, a name
the package defines at top level must be read somewhere in the package or the
benchmark outside its own definition (the few that only the benchmark reads
are listed), ``multiprocessing`` or ``concurrent`` may be imported only where
``harness.forked`` is defined, and
no other module of the package may name ``SoloRun``, ``SoloRuns`` or
``second_core_free``: ``harness.run_seed`` owns the schedule of a seed's solo
runs. It is the one caller of ``forked`` besides the ``--jobs`` pool, and
``run_stream`` holds no process code. ``JumpGate(...)`` is called only in
``adapter.init_gate``, which sets the threshold first, so no gate exists
without one.
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


def test_benchmark_only_definitions_are_listed():
    # read by the benchmark's primitive list alone; once that list drops
    # them, the guard above asks for their deletion
    package = {p.relative_to(ROOT).as_posix(): p.read_text() for p in PACKAGE}
    assert unreferenced_definitions(package, {}) == [
        f"src/loragate/autodiff.py: {name}"
        for name in ("sub", "mul", "scale", "permute", "relu", "softmax")]


def process_imports(source: str) -> list[str]:
    """The ``multiprocessing`` and ``concurrent`` modules that the source
    imports, by absolute name."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [n for n in names if n.split(".")[0] in ("multiprocessing", "concurrent")]


def test_process_import_checker_flags_both_forms():
    source = ("import os, multiprocessing.pool as mp\n"
              "from concurrent.futures import ProcessPoolExecutor\n"
              "from .harness import forked\n"
              "def f():\n    import concurrent\n")
    assert process_imports(source) == ["multiprocessing.pool", "concurrent.futures",
                                       "concurrent"]


def test_only_harness_imports_a_process_module():
    found = {p.name: process_imports(p.read_text()) for p in PACKAGE}
    assert found.pop("harness.py") == ["multiprocessing"]
    assert {name: mods for name, mods in found.items() if mods} == {}


HARNESS_ONLY = {"SoloRun", "SoloRuns", "second_core_free"}


def harness_only_names(source: str) -> list[str]:
    """The names of ``HARNESS_ONLY`` that the source imports, reads or
    defines, in order of appearance."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        found += [(node.lineno, node.col_offset, n) for n in names if n in HARNESS_ONLY]
    return [n for _, _, n in sorted(found)]


def test_harness_only_checker_flags_each_form():
    source = ("from .harness import SoloRun, resolve_orders\n"
              "from . import harness\n"
              "def f():\n"
              "    return harness.second_core_free()\n"
              "class SoloRuns(dict):\n"
              "    pass\n"
              "'SoloRuns in a string is no name'\n")
    assert harness_only_names(source) == ["SoloRun", "second_core_free", "SoloRuns"]


def test_only_harness_names_the_solo_runs():
    found = {p.name: harness_only_names(p.read_text()) for p in PACKAGE
             if p.name != "harness.py"}
    assert {name: names for name, names in found.items() if names} == {}


def callers(source: str, callee: str) -> list[str]:
    """The top-level function or class around each call of ``callee``, by
    name or as an attribute, or ``<module>`` for a call outside both, in
    order of appearance."""
    return [getattr(top, "name", "<module>") for top in ast.parse(source).body
            for node in ast.walk(top)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == callee]


def test_forked_call_checker_flags_each_form():
    source = ("def run(stream):\n"
              "    with forked(lambda send, recv: send(1)) as helper:\n"
              "        return helper.recv()\n"
              "def pool(units):\n"
              "    return [harness.forked(work, u) for u in units]\n"
              "def aside():\n"
              "    return forked\n")
    assert callers(source, "forked") == ["run", "pool"]


def test_only_the_seed_schedule_and_the_pool_fork():
    found = {p.name: callers(p.read_text(), "forked") for p in PACKAGE}
    assert {name: calls for name, calls in found.items() if calls} == {
        "cli.py": ["_run_pool"], "harness.py": ["run_seed"]}
    harness_tree = ast.parse((ROOT / "src" / "loragate" / "harness.py").read_text())
    (run_stream,) = [node for node in harness_tree.body
                     if getattr(node, "name", None) == "run_stream"]
    assert {"forked", "second_core_free", "Helper"} & set(names_read(run_stream)) == set()


def test_gate_construction_checker_flags_each_form():
    source = ("GATE = JumpGate(Tensor(0.0), 0.1)\n"
              "def init_gate(threshold, bandwidth):\n"
              "    return JumpGate(threshold=threshold, bandwidth=bandwidth)\n"
              "def typed(gate: JumpGate) -> JumpGate:\n"
              "    return gate\n"
              "class Holder:\n"
              "    def make(self, threshold):\n"
              "        return adapter.JumpGate(threshold, 1.0)\n")
    assert callers(source, "JumpGate") == ["<module>", "init_gate", "Holder"]


def test_only_init_gate_makes_a_gate():
    found = {p.name: callers(p.read_text(), "JumpGate") for p in PACKAGE}
    assert {name: calls for name, calls in found.items() if calls} == {
        "adapter.py": ["init_gate"]}
