"""Every module binding the benchmark's call tracer wraps must exist.

perfbench/tracing.py replaces the names in SPAN_BINDINGS and COUNT_BINDINGS
with wrappers via getattr/setattr on the live modules, so a library module
that drops one of those names makes a traced benchmark run crash.  The
tables are read from the tracer's own file and never modified.
"""
from __future__ import annotations

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
