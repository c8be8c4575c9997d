"""Probe process for a traced cli run: ``python3 cli_probe.py <rayzeros argv>``.

Times ``import rayzeros.cli`` in this fresh interpreter, runs the command with
its output discarded, and prints one JSON line: the import time and whether
numpy was loaded by the end.
"""
import contextlib
import io
import json
import sys
import time

t0 = time.perf_counter()
from rayzeros import cli  # noqa: E402  (the import is what is timed)

import_ms = (time.perf_counter() - t0) * 1e3
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = cli.main(sys.argv[1:])
print(json.dumps({"import_ms": import_ms, "numpy": "numpy" in sys.modules, "exit": rc}))
