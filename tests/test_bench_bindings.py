"""Every module binding the benchmark's call tracer wraps must exist.

perfbench/tracing.py replaces the names in SPAN_BINDINGS and COUNT_BINDINGS
with wrappers via getattr/setattr on the live modules, so a library module
that drops one of those names makes a traced benchmark run crash.  The
tables are read from the tracer's own file and never modified.

A library import kept only for the tracer is marked ``# noqa: F401``; those
marks are the one list of bindings that go once the library counts its own
work.
"""
from __future__ import annotations

import ast
import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
SRC = ROOT / "src" / "rayzeros"


def traced_bindings():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPAN_BINDINGS, module.COUNT_BINDINGS


def test_every_traced_binding_resolves():
    missing = [
        f"{modname}.{attr}"
        for table in traced_bindings()
        for modname, attrs in table.items()
        for attr in attrs
        if not callable(getattr(importlib.import_module(modname), attr, None))
    ]
    assert not missing


def unused_imports():
    """(module, name) for every name imported on a line marked ``# noqa: F401``."""
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" in lines[node.end_lineno - 1]:
                for alias in node.names:
                    yield f"rayzeros.{path.stem}", alias.asname or alias.name


def test_every_unused_import_is_a_traced_binding():
    spans, counts = traced_bindings()
    marked = list(unused_imports())
    assert marked
    stray = [
        f"{modname}.{name}"
        for modname, name in marked
        if name not in spans.get(modname, ()) + counts.get(modname, ())
    ]
    assert not stray
