"""Checks on the shape of the source tree itself."""

import ast
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import bimem
from bimem.memory import Rows, SensoryMemory, ShortTermMemory

SRC = Path(bimem.__file__).parent
TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# Definitions reached only from outside ``src``, each with the reason.
EXTERNAL = {
    ("cli", "entry_point"),  # the console script
    ("model", "batch_loss"),  # the loss the gradient checks differentiate
    ("cli", "_Parser.error"),  # argparse's hook for a usage error
    ("memory", "SensoryMemory.slots"),  # slot views criterion 2's step hook reads
    ("memory", "ShortTermMemory.queue"),  # slot views criterion 2's step hook reads
}


def _referenced_names(node: ast.AST, attributes_only: bool = False) -> Counter:
    """How often each name is read in ``node``, as an attribute and, unless
    ``attributes_only``, as a variable."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.Name) and not attributes_only:
            names[sub.id] += 1
    return names


def _definitions(stmt: ast.stmt):
    """``(qualified name, node)`` for a top-level function or class and for
    the class's methods and properties, dunder methods aside."""
    if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return
    yield stmt.name, stmt
    if isinstance(stmt, ast.ClassDef):
        for sub in stmt.body:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                sub.name.startswith("__") and sub.name.endswith("__")
            ):
                yield f"{stmt.name}.{sub.name}", sub


def test_every_module_level_definition_is_referenced_in_src():
    """A function, class, method or property that no code in ``src`` outside
    its own body names is dead or test-only. A method counts as named by any
    attribute read of its bare name, whatever the owner."""
    trees = [(path.stem, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    everywhere = {kind: sum((_referenced_names(tree, kind) for _, tree in trees), Counter())
                  for kind in (False, True)}
    unreferenced = []
    for module, tree in trees:
        for stmt in tree.body:
            for name, node in _definitions(stmt):
                method = "." in name
                bare = name.rsplit(".", 1)[-1]
                if name in bimem.__all__ or (module, name) in EXTERNAL:
                    continue
                if everywhere[method][bare] <= _referenced_names(node, method)[bare]:
                    unreferenced.append(f"{module}.{name}")
    assert unreferenced == []


def test_one_function_reads_csv():
    """Every CSV file is read through ``data.read_table``, so the header, width,
    key and line rules have one home."""
    readers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(sub, ast.Attribute) and sub.attr in ("reader", "DictReader")
                and isinstance(sub.value, ast.Name) and sub.value.id == "csv"
                for sub in ast.walk(node)
            ):
                readers.append(f"{path.stem}.{node.name}")
    assert readers == ["data.read_table"]


def test_number_tables_have_one_writer():
    """The dataset and predictions CSVs are written through ``data.write_table``.
    ``csv.writer`` is left to the two tables with text cells that may need
    quoting: the ablation table's flow labels hold commas."""
    writers, number_tables = [], {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            attributes = [sub for sub in ast.walk(node) if isinstance(sub, ast.Attribute)]
            if any(sub.attr == "writer" and getattr(sub.value, "id", None) == "csv"
                   for sub in attributes):
                writers.append(f"{path.stem}.{node.name}")
            if node.name in ("write_dataset", "write_predictions"):
                number_tables[node.name] = any(
                    isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "write_table"
                    for sub in ast.walk(node))
    assert writers == ["adapt.write_ablation_table", "metrics.write_summary"]
    assert number_tables == {"write_dataset": True, "write_predictions": True}


def test_one_loop_steps_the_models():
    """In ``adapt.py`` only ``Run.step`` takes an SGD step or an EMA update,
    once each, so every method trains through the one loop."""
    steps = []

    def visit(node: ast.AST, owner: str) -> None:
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(sub, f"{owner}.{sub.name}" if owner else sub.name)
                continue
            if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in ("sgd_step", "momentum_update")
                    and isinstance(sub.func.value, ast.Name) and sub.func.value.id == "model"):
                steps.append(f"{owner}: model.{sub.func.attr}")
            visit(sub, owner)

    visit(ast.parse((SRC / "adapt.py").read_text()), "")
    assert sorted(steps) == ["Run.step: model.momentum_update", "Run.step: model.sgd_step"]


def test_one_config_pass_in_the_cli():
    """``cli.main`` is the only caller of ``config.resolve``, and ``--config`` is
    declared once, so a new subcommand or flag cannot resolve the config again."""
    resolves, declarations = [], []
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            # ``config.resolve``, or ``resolve`` imported by name.
            if (isinstance(func, ast.Attribute) and func.attr == "resolve"
                    and getattr(func.value, "id", None) == "config") or (
                    getattr(func, "id", None) == "resolve"):
                resolves.append(node.name)
            if any(isinstance(arg, ast.Constant) and arg.value == "--config" for arg in sub.args):
                declarations.append(node.name)
    assert resolves == ["main"]
    assert declarations == ["build_parser"]


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while the file runs.
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves(monkeypatch):
    """A renamed or moved function would turn its per-layer metric into an absent phase."""
    tracing = _load_tracing(monkeypatch)
    missing = [path for _, path in tracing.TARGETS if tracing.resolve(path) is None]
    assert tracing.TARGETS and missing == []


def test_traced_functions_are_not_imported_by_name(monkeypatch):
    """The bench wraps module attributes; a name bound by ``from .module import
    name`` at import time would keep calling the unwrapped function."""
    tracing = _load_tracing(monkeypatch)
    functions = {tuple(path.split(".")) for _, path in tracing.TARGETS if path.count(".") == 1}
    bound = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.rsplit(".", 1)[-1]
                bound += [f"{path.stem}: {module}.{alias.name}" for alias in node.names
                          if (module, alias.name) in functions]
    assert functions and bound == []


def test_evicting_spans_return_rows_with_their_count(monkeypatch):
    """The bench counts evicted slots as ``len()`` of what each evicting span returns."""
    tracing = _load_tracing(monkeypatch)
    paths = dict(tracing.TARGETS)
    assert sorted(paths[name] for name in tracing.EVICTING) == [
        "memory.SensoryMemory.refresh", "memory.ShortTermMemory.push"]

    def batch(ids):
        n = len(ids)
        return Rows(np.array(ids), np.zeros((n, 2)), np.full((n, 3), 1.0 / 3.0))

    sensory = SensoryMemory(feature_dim=2, n_categories=3)
    assert len(sensory.refresh(*batch([0, 1, 2]).columns)) == 0
    assert len(sensory.refresh(*batch([3, 4]).columns)) == 3
    queue = ShortTermMemory(capacity=4, feature_dim=2, n_categories=3)
    assert len(queue.push(batch([0, 1, 2]))) == 0
    assert len(queue.push(batch([3, 4, 5]))) == 2
    assert len(queue.push(batch([6, 7, 8, 9]))) == 4
