"""Compare the start-up cost of two rayzeros checkouts, one fresh process per sample.

    python tools/startup.py BEFORE AFTER [--runs N]

BEFORE and AFTER are checkout roots (each holds src/rayzeros).  Every round
runs each measurement once per checkout, alternating which goes first, so
both see the same machine noise.  The measurements are the import time of
``rayzeros`` and of ``rayzeros.cli``; the time of ``import rayzeros`` plus a
first count query, ``predict_at(validate(49, 10, 1.0), 0.3)``, plus a first
``thresholds(validate(49, 10, 1.0))``, plus a first root finding,
``all_zeros(validate(49, 10, 0.3))``, and plus a first evaluation of p,
``evaluate(validate(49, 10, 1.0), 0.5 + 0.5j)``, which show where a module
loaded on first use moves its cost; each of these is timed inside its own
process.  Last comes the wall time of one ``rayzeros <command>`` process
per command, timed from here with its output discarded.  It prints the min,
first quartile and median of each, in ms.

Every child runs ``python -B`` in a temporary working directory, so nothing
is written under either checkout.  A fresh checkout has no __pycache__, so
each process compiles src/ afresh, as it does where PYTHONDONTWRITEBYTECODE
is set; a checkout that holds cached bytecode is read from it.
"""
from __future__ import annotations

import argparse
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

IMPORT = "import time; t = time.perf_counter(); import {0}; print(time.perf_counter() - t)"
FIRST = "import time; t = time.perf_counter(); import rayzeros as rz; rz.{0}; print(time.perf_counter() - t)"
CLI = "import sys; from rayzeros.cli import main; sys.exit(main())"
PAIR = ("--m", "49", "--k", "10")
COMMANDS = (
    ("classify", *PAIR),
    ("predict", *PAIR),
    ("zeros", *PAIR, "--c", "0.3"),
    ("thresholds", *PAIR),
    ("sweep", *PAIR, "--c-min", "0.1", "--c-max", "10", "--steps", "20"),
    ("verify", *PAIR, "--c", "0.3"),
)
# name -> (child argv after python, whether the child times itself)
MEASURES = {
    "import rayzeros": (["-c", IMPORT.format("rayzeros")], True),
    "import rayzeros.cli": (["-c", IMPORT.format("rayzeros.cli")], True),
    "import + predict_at": (["-c", FIRST.format("predict_at(rz.validate(49, 10, 1.0), 0.3)")], True),
    "import + thresholds": (["-c", FIRST.format("thresholds(rz.validate(49, 10, 1.0))")], True),
    "import + all_zeros": (["-c", FIRST.format("all_zeros(rz.validate(49, 10, 0.3))")], True),
    "import + evaluate": (["-c", FIRST.format("evaluate(rz.validate(49, 10, 1.0), 0.5 + 0.5j)")], True),
    **{"process " + cmd[0]: (["-c", CLI, *cmd], False) for cmd in COMMANDS},
}


def sample(argv: list[str], self_timed: bool, env: dict, scratch: str) -> float:
    """Seconds of one child process: its own report, or its wall time."""
    cmd = [sys.executable, "-B", *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=scratch, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode not in (0, 2, 3):  # 2 and 3 are answers (mismatch, numerical failure), not crashes
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}")
    return float(proc.stdout) if self_timed else wall


def summary(seconds: list[float]) -> str:
    q1, median, _ = statistics.quantiles(seconds, n=4, method="inclusive")
    return f"{min(seconds) * 1e3:7.1f} {q1 * 1e3:7.1f} {median * 1e3:7.1f}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before", type=pathlib.Path)
    parser.add_argument("after", type=pathlib.Path)
    parser.add_argument("--runs", type=int, default=20, help="samples per measurement and checkout")
    args = parser.parse_args()
    roots = (args.before.resolve(), args.after.resolve())
    envs = [dict(os.environ, PYTHONPATH=str(root / "src")) for root in roots]
    times: dict[str, tuple[list[float], list[float]]] = {name: ([], []) for name in MEASURES}
    with tempfile.TemporaryDirectory() as scratch:
        for r in range(args.runs):
            for name, (argv, self_timed) in MEASURES.items():
                for side in (0, 1) if r % 2 == 0 else (1, 0):
                    times[name][side].append(sample(argv, self_timed, envs[side], scratch))
    print(f"ms over {args.runs} processes each; before = {roots[0]}, after = {roots[1]}")
    print(f"{'':22}{'before: min      q1  median':>28}{'after: min      q1  median':>30}")
    for name, (before, after) in times.items():
        print(f"{name:22}{summary(before):>28}{summary(after):>30}")


if __name__ == "__main__":
    main()
