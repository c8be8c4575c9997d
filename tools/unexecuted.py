"""List the statements of src/rayzeros that the test suite never executes.

Runs the tests in this process under sys.settrace, recording line events of
src/rayzeros frames only, in every thread, and prints each statement that
never ran as ``file:line source``.  Definitions, imports, global and nonlocal
declarations and docstrings are left out.  Code that a test runs in a
subprocess is not traced, so it shows up here.  The pytest cache and bytecode
writing are off and hypothesis keeps its example database in a temporary
directory, so nothing is written under the repository.

    python tools/unexecuted.py [pytest arguments]

With no arguments it runs the whole suite; the exit status is pytest's.
"""
from __future__ import annotations

import ast
import pathlib
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rayzeros"
# definitions and imports; global and nonlocal declarations compile to no code at all
_NOT_RUN = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)


def statements(path: pathlib.Path) -> dict[int, set[int]]:
    """Each statement's first line -> its own lines, those of its header and
    not of a nested block; a statement ran when any of them did."""
    found = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.stmt) or isinstance(node, _NOT_RUN):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring or other bare constant compiles to nothing
        own = set(range(node.lineno, node.end_lineno + 1))
        for block in ("body", "orelse", "finalbody", "handlers"):
            for child in getattr(node, block, ()):
                own -= set(range(child.lineno, child.end_lineno + 1))
        found[node.lineno] = own
    return found


class _HypothesisHome:
    """A pytest plugin that keeps hypothesis's example database in directory, not
    in the working directory.  It acts once pytest has loaded hypothesis, so
    pytest's assertion rewriting of hypothesis is undisturbed."""

    def __init__(self, directory: str):
        self.directory = directory

    def pytest_configure(self, config):
        from hypothesis.configuration import set_hypothesis_home_dir

        set_hypothesis_home_dir(self.directory)


def run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest in process; return its exit code and the lines run per file."""
    hit: dict[str, set[int]] = {str(path): set() for path in SRC.glob("*.py")}
    need: dict = {}  # code object -> the lines it can report
    done = set()  # code objects whose every line has run: no need to trace them again

    def trace(frame, event, arg):
        code = frame.f_code
        lines = hit.get(code.co_filename)
        if lines is None or code in done:
            return None
        if code not in need:  # the first line holds no line event of its own
            need[code] = {line for _, _, line in code.co_lines() if line} - {code.co_firstlineno}
        if need[code] <= lines:
            done.add(code)
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    import pytest

    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory() as scratch:
        threading.settrace(trace)
        sys.settrace(trace)
        try:
            args = ["-q", "-p", "no:cacheprovider", "-p", "no:benchmark", *pytest_args]
            code = pytest.main(args, plugins=[_HypothesisHome(scratch)])
        finally:
            sys.settrace(None)
            threading.settrace(None)
    return int(code), hit


def main(argv: list[str]) -> int:
    code, hit = run(argv or [str(ROOT / "tests")])
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        for first, own in sorted(statements(path).items()):
            if not own & hit[str(path)]:
                print(f"{path.name}:{first} {lines[first - 1].strip()}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
