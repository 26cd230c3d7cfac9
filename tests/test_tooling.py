"""Checks on the shape of the source tree itself."""

import ast
import importlib.util
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import bimem
from bimem import Scenario, export_predictions, write_dataset
from bimem.memory import Rows, SensoryMemory, ShortTermMemory

SRC = Path(bimem.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "bench"

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


# The CSV readers, and numpy's parsers of number text.
TEXT_PARSERS = {("csv", "reader"), ("csv", "DictReader"), ("np", "loadtxt"), ("np", "genfromtxt"),
                ("np", "fromstring"), ("numpy", "loadtxt"), ("numpy", "genfromtxt"),
                ("numpy", "fromstring")}


def test_one_function_reads_csv():
    """Every CSV file is read through ``data.read_table``, and numpy parses
    number text nowhere else, so the header, width, key and line rules have
    one home."""
    readers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                and (sub.value.id, sub.attr) in TEXT_PARSERS
                for sub in ast.walk(node)
            ):
                readers.append(f"{path.stem}.{node.name}")
    assert readers == ["data.read_table"]


def test_csv_is_imported_only_by_its_writers():
    """No reader unquotes a cell: the lab's CSV files have one dialect, the one
    ``data.write_table`` writes, and the ``csv`` module serves only the two
    ``csv.writer`` tables."""
    importers = [path.stem for path in sorted(SRC.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if (isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names))
                 or (isinstance(node, ast.ImportFrom) and node.module == "csv")]
    assert importers == ["adapt", "metrics"]


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


def _functions():
    """``(module.Class.name, node)`` for every function and method in ``src``."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = {sub: f"{node.name}." for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) for sub in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{path.stem}.{owners.get(node, '')}{node.name}", node


def _called(node: ast.AST) -> str | bool:
    """The bare name a call node calls, or False for any other node."""
    return isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", ""))


READERS = ("data.read_dataset", "blackbox.read_predictions", "adapt.RunTrace.from_csv",
           "adapt._parse_trace_row")


def test_one_scenario_builds_the_inputs():
    """Within ``src`` only ``Scenario.generate`` draws the data and only
    ``Scenario.train`` trains the source model, so a new axis of a run's
    inputs has one home."""
    callers = sorted((_called(sub), name) for name, node in _functions()
                     for sub in ast.walk(node)
                     if _called(sub) in ("gen_shifted_gaussians", "train_source"))
    assert callers == [("gen_shifted_gaussians", "blackbox.Scenario.generate"),
                       ("train_source", "blackbox.Scenario.train")]


def test_row_rules_live_in_their_records():
    """``reject_rows`` is called only by the three records' ``__post_init__`` and
    by ``read_dataset``, for the declared-category rule that needs its argument;
    the two writers check nothing, and the readers raise only to name the line
    of a record's fault: a dataset, prediction set or trace is valid once
    built, so a row rule cannot grow a second copy."""
    callers, checks, raises = set(), [], []
    for name, node in _functions():
        # Raises that re-raise a caught error at its line.
        naming = {sub for handler in ast.walk(node) if isinstance(handler, ast.ExceptHandler)
                  for sub in ast.walk(handler) if isinstance(sub, ast.Raise)
                  and any(k.arg == "line" for k in getattr(sub.exc, "keywords", []))}
        for sub in ast.walk(node):
            if _called(sub) == "reject_rows":
                callers.add(name)
            if node.name in ("write_dataset", "write_predictions") and (
                    isinstance(sub, (ast.If, ast.IfExp, ast.Raise, ast.Assert))
                    or _called(sub) in ("reject_rows", "check_prob_vector", "prob_rows_valid")):
                checks.append(f"{name}: line {sub.lineno}")
            if name in READERS and isinstance(sub, ast.Raise) and sub not in naming:
                raises.append(f"{name}: line {sub.lineno}")
    assert sorted(callers) == ["adapt.RunTrace.__post_init__",
                               "blackbox.PredictionSet.__post_init__",
                               "data.LabeledDataset.__post_init__", "data.read_dataset"]
    assert checks == []
    assert raises == []


def test_only_the_config_checks_itself():
    """``AdaptConfig.validate`` runs when a config is built, and a built config
    is frozen, so no other code calls it again."""
    callers = [name for name, node in _functions()
               if any(_called(sub) == "validate" for sub in ast.walk(node))]
    assert callers == ["adapt.AdaptConfig.__post_init__"]


def test_one_forward_body_runs_the_softmax():
    """In ``model.py`` only ``_forward``, the body of ``forward_batch`` and
    ``loss_gradients``, calls a softmax. A second whole-set forward path
    would be invisible to the bench's ``model.forward_batch`` span."""
    callers = [name for name, node in _functions() if name.startswith("model.") and any(
        _called(sub) in ("softmax_rows", "softmax_slabs") for sub in ast.walk(node))]
    assert callers == ["model._forward"]


def test_model_products_go_through_one_helper():
    """In ``model.py`` only ``_product`` calls ``np.matmul`` or ``np.dot``,
    and no code uses ``@``: every 2-D product takes ``np.dot``'s shorter
    dispatch and keeps ``np.matmul``'s bits where the two differ."""
    callers = sorted({owner for owner, call in _calls_by_owner(SRC / "model.py")
                      if _called(call) in ("matmul", "dot")})
    operators = [node.lineno for node in ast.walk(ast.parse((SRC / "model.py").read_text()))
                 if isinstance(node, (ast.BinOp, ast.AugAssign))
                 and isinstance(node.op, ast.MatMult)]
    assert callers == ["_product"]
    assert operators == []


def _calls_by_owner(path: Path) -> list[tuple[str, ast.Call]]:
    """``(owner, call)`` for every call in the module at ``path``; the owner is
    the dotted name of the innermost function or class around it."""
    def visit(node: ast.AST, owner: str):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(sub, f"{owner}.{sub.name}" if owner else sub.name)
                continue
            if isinstance(sub, ast.Call):
                yield owner, sub
            yield from visit(sub, owner)

    return list(visit(ast.parse(path.read_text()), ""))


def test_one_loop_steps_the_models():
    """In ``adapt.py`` only ``Run.step`` takes an SGD step or an EMA update,
    once each, so every method trains through the one loop."""
    steps = [f"{owner}: model.{call.func.attr}" for owner, call in _calls_by_owner(SRC / "adapt.py")
             if isinstance(call.func, ast.Attribute)
             and call.func.attr in ("sgd_step", "momentum_update")
             and isinstance(call.func.value, ast.Name) and call.func.value.id == "model"]
    assert sorted(steps) == ["Run.step: model.momentum_update", "Run.step: model.sgd_step"]


def test_two_loops_step_a_run():
    """In the package only ``_adapt`` and ``WarmupRecord.__init__`` call a
    run's ``step()``: a built record is warm, and ``start`` only resumes."""
    steppers = [f"{path.stem}.{owner}" for path in sorted(SRC.glob("*.py"))
                for owner, call in _calls_by_owner(path) if _called(call) == "step"]
    assert sorted(steppers) == ["adapt.WarmupRecord.__init__", "adapt._adapt"]


def test_one_forward_memorization_path():
    """In ``adapt.py`` only the memory labeller's batch and the warm-up
    record's constructor call ``memory.bimem_step``, and nothing calls one of
    its phases on its own, so the bench's ``memory.bimem_step`` span sees
    every memory step."""
    phases = ("bimem_step", "refresh", "select_hard", "push", "long_term_consolidate",
              "calibrate_short_term")
    calls = [f"{owner}: {_called(call)}" for owner, call in _calls_by_owner(SRC / "adapt.py")
             if _called(call) in phases]
    assert sorted(calls) == ["WarmupRecord.__init__: bimem_step", "_MemoryLabeller.batch: bimem_step"]


def test_one_rule_names_the_long_term_writers():
    """``adapt.py`` reads no flow config's ``sm_to_lt`` or ``st_to_lt``: which
    evictions reach long-term memory is ``FlowConfig.long_term_writers``
    alone. The warm-up record's own ``sm_to_lt`` is a memory state, not a switch."""
    reads = [node.lineno for node in ast.walk(ast.parse((SRC / "adapt.py").read_text()))
             if isinstance(node, ast.Attribute) and node.attr in ("sm_to_lt", "st_to_lt")
             and not (isinstance(node.value, ast.Name) and node.value.id == "self")]
    assert reads == []


def test_the_run_loop_knows_no_warmup_record():
    """Only ``WarmupRecord`` and ``_adapt`` know the flow ablation's shared
    warm-up: no code in ``Run`` or ``_MemoryLabeller`` names the record or a
    replay, ``Run.__init__`` takes no record, and ``_adapt`` uses nothing of
    the record but its ``start``."""
    body = ast.parse((SRC / "adapt.py").read_text()).body
    classes = {node.name: node for node in body if isinstance(node, ast.ClassDef)}
    for owner in ("Run", "_MemoryLabeller"):
        names = set(_referenced_names(classes[owner]))
        for sub in ast.walk(classes[owner]):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(sub.name)
            elif isinstance(sub, ast.arg):
                names.add(sub.arg)
        assert not [name for name in names if "warmuprecord" in name.lower().replace("_", "")
                    or "replay" in name.lower()], owner
    init = next(node for node in classes["Run"].body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    assert [arg.arg for arg in (*init.args.posonlyargs, *init.args.args, *init.args.kwonlyargs)
            ] == ["self", "target", "preds", "cfg", "step_hook"]
    assert init.args.vararg is None and init.args.kwarg is None
    adapt_loop = next(node for node in body
                      if isinstance(node, ast.FunctionDef) and node.name == "_adapt")
    used = {sub.attr for sub in ast.walk(adapt_loop) if isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name) and sub.value.id == "warmup_record"}
    assert used == {"start"}


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


def _load_bench(monkeypatch, name: str):
    """``bench/<name>.py`` as a module, its sibling imports found next to it
    and ``sys.path`` restored afterwards."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while the file runs.
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.syspath_prepend(str(BENCH))
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    """A renamed or moved function would turn its per-layer metric into an absent phase."""
    tracing = _load_bench(monkeypatch, "tracing")
    missing = [path for _, path in tracing.TARGETS if tracing.resolve(path) is None]
    assert tracing.TARGETS and missing == []


def test_traced_functions_are_not_imported_by_name(monkeypatch):
    """The bench wraps module attributes; a name bound by ``from .module import
    name`` at import time would keep calling the unwrapped function."""
    tracing = _load_bench(monkeypatch, "tracing")
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
    tracing = _load_bench(monkeypatch, "tracing")
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


def test_bench_inputs_are_the_scenarios(monkeypatch, tmp_path):
    """The target and predictions files the bench prepares for each data spec
    are, byte for byte, those written from a ``Scenario`` with its values."""
    # run.py pins the BLAS threads in os.environ when it loads; a copy takes them.
    monkeypatch.setattr(os, "environ", os.environ.copy())
    run = _load_bench(monkeypatch, "run")
    for spec in (run.DEFAULT_DATA, run.TWENTY_CLASS_DATA):
        bench = tmp_path / f"bench-{spec.n_categories}"
        ours = tmp_path / f"ours-{spec.n_categories}"
        bench.mkdir()
        ours.mkdir()
        run.prepare(bimem, spec, bench)
        scenario = Scenario(n_categories=spec.n_categories, n_per_class=spec.n_per_class,
                            class_separation=spec.class_separation,
                            target_rotation_deg=spec.rotation_deg)
        source, target = scenario.generate()
        export_predictions(scenario.train(source), target, ours / "preds.csv")
        write_dataset(target, ours / "target.csv")
        for name in ("target.csv", "preds.csv"):
            assert (ours / name).read_bytes() == (bench / name).read_bytes(), name
