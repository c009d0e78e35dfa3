"""Package structure: every name a module imports from a sibling is public,
and every boundary the benchmark tracer patches exists as it expects."""

import ast
import importlib
import inspect
import sys
import threading
import time
from pathlib import Path

import numpy as np

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "aerialfl"


def _sibling_imports():
    """(importing file, sibling module, name) for each ``from .x import name``."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found += [(path.name, node.module, a.name) for a in node.names]
    return found


def test_imported_public_names_are_exported():
    imports = _sibling_imports()
    assert ("__init__.py", "models", "build_model") in imports
    missing = []
    for importer, module, name in imports:
        exported = getattr(importlib.import_module(f"aerialfl.{module}"), "__all__", None)
        if exported is not None and not name.startswith("_") and name not in exported:
            missing.append(f"{importer} imports {module}.{name}")
    assert not missing, "names missing from __all__: " + "; ".join(missing)


#: Argument positions the benchmark tracer's counters read, per function
#: (module, name, argument, position); ``perfbench/tracing.py`` takes each
#: argument by position, or by name when it is passed as a keyword.
TRACED_ARGUMENTS = [
    ("fl", "local_update", "data", 2),
    ("fl", "local_update", "cfg", 3),
    ("fl", "aggregate", "channel", 2),
    ("montecarlo", "realize_round", "schedule", 1),
    ("montecarlo", "estimate_coverage", "trials", 1),
    ("montecarlo", "laplace_oracle", "trials", 3),
    ("analytic", "laplace_dl", "s", 0),
    ("analytic", "laplace_ul", "s", 0),
    ("quadrature", "integrate_batch", "lower", 1),
    ("cli", "write_csv", "path", 0),
]


def _tracing():
    sys.path.insert(0, str(PACKAGE_DIR.parents[1] / "perfbench"))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.pop(0)


def test_tracer_boundaries_exist_with_the_arguments_it_counts():
    tracing = _tracing()
    fl = importlib.import_module("aerialfl.fl")
    original = fl.aggregate
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # patches every boundary by name
        assert fl.aggregate is not original
    finally:
        tracer.restore()
    assert fl.aggregate is original
    for module, name, argument, position in TRACED_ARGUMENTS:
        fn = getattr(importlib.import_module(f"aerialfl.{module}"), name)
        params = list(inspect.signature(fn).parameters)
        assert params.index(argument) == position, f"{module}.{name}({argument})"


def test_traced_boundaries_run_on_the_main_thread(table_params):
    """The tracer keeps one span stack, so no boundary it patches may be
    entered on a Monte-Carlo worker thread."""
    tracing = _tracing()
    cli = importlib.import_module("aerialfl.cli")
    batch = importlib.import_module("aerialfl.montecarlo")._BATCH

    def main_thread_clock():
        assert threading.current_thread() is threading.main_thread()
        return time.perf_counter()

    tracer = tracing.Tracer(clock=main_thread_clock)
    try:
        tracing.install(tracer)
        cli.estimate_coverage(table_params, 4 * batch, np.random.default_rng(0))
        cli.laplace_oracle(table_params, "ul", 1e3, 4 * batch, np.random.default_rng(1))
    finally:
        tracer.restore()
    assert tracer.names == ["montecarlo.estimate_coverage", "montecarlo.laplace_oracle"]
