"""Every imported name in the package and the tests is used, every
top-level function and class of the package has a caller outside the tests,
only ``harness`` imports a module that starts processes, only ``harness``
names its solo runs and its second-core test, and only ``harness.run_seed``
and ``cli._run_pool`` fork.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by an import must be read somewhere else in the module, a name
the package defines at top level must be read somewhere in the package or the
benchmark outside its own definition, ``multiprocessing`` or
``concurrent`` may be imported only where ``harness.forked`` is defined, and
no other module of the package may name ``SoloRun``, ``SoloRuns`` or
``second_core_free``: ``harness.run_seed`` owns the schedule of a seed's solo
runs. It is the one caller of ``forked`` besides the ``--jobs`` pool, and
``run_stream`` holds no process code. One run checks that schedule where no
order ever misses a solo run.
"""

import ast
import multiprocessing
from collections import Counter
from pathlib import Path

import pytest
from conftest import time_limit

import loragate.harness as harness
from loragate.config import ExperimentConfig
from loragate.data import generate_task_stream

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


def forked_calls(source: str) -> list[str]:
    """The top-level function around each call of ``forked``, by name or as
    an attribute, in order of appearance."""
    return [func.name for func in ast.parse(source).body
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "forked"]


def test_forked_call_checker_flags_each_form():
    source = ("def run(stream):\n"
              "    with forked(lambda send, recv: send(1)) as helper:\n"
              "        return helper.recv()\n"
              "def pool(units):\n"
              "    return [harness.forked(work, u) for u in units]\n"
              "def aside():\n"
              "    return forked\n")
    assert forked_calls(source) == ["run", "pool"]


def test_only_the_seed_schedule_and_the_pool_fork():
    found = {p.name: forked_calls(p.read_text()) for p in PACKAGE}
    assert {name: calls for name, calls in found.items() if calls} == {
        "cli.py": ["_run_pool"], "harness.py": ["run_seed"]}
    harness_tree = ast.parse((ROOT / "src" / "loragate" / "harness.py").read_text())
    (run_stream,) = [node for node in harness_tree.body
                     if getattr(node, "name", None) == "run_stream"]
    assert {"forked", "second_core_free", "Helper"} & set(names_read(run_stream)) == set()


def test_a_seed_that_misses_no_solo_run_still_swaps(monkeypatch, helper_solo_runs):
    # one task: order 0 reads only the run this process trains, so no miss
    # ever swaps the runs; they must still cross at the end, once, and no
    # helper may be left
    cfg = ExperimentConfig(vocab_size=24, d_model=16, n_heads=2, n_blocks=1, n_tasks=1,
                           classes_per_task=2, samples_per_class=16, seq_len=8,
                           batch_size=8)
    stream = generate_task_stream(cfg.data_seed, cfg.n_tasks, cfg.samples_per_class,
                                  cfg.difficulty, cfg.classes_per_task, cfg.seq_len,
                                  cfg.vocab_size)
    sent, send = [], harness.Helper.send

    def counting_send(helper, value):
        sent.append(value)
        send(helper, value)

    monkeypatch.setattr(harness.Helper, "send", counting_send)
    with time_limit(60):
        result = harness.run_stream(stream, cfg, 42)
    assert multiprocessing.active_children() == []
    assert [sorted(value) for value in sent] == [[0]]
    serial = harness.run_stream(stream, cfg, 42, isolated=harness.SoloRuns(stream, cfg, 42))
    assert result.trace_hash == serial.trace_hash
