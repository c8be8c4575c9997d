"""Check that two rayzeros checkouts answer the same CLI command lines byte for byte alike.

    python tools/identity.py BEFORE AFTER

BEFORE and AFTER are checkout roots (each holds src/rayzeros).  Each command
line runs once per checkout, as ``python -B -c "...main()" <argv>`` in a
temporary working directory, so nothing is written under either checkout.
Every line whose stdout, stderr or exit code differs is printed with which of
the three differ, both exit codes, the first differing stdout line of each
side (with its line number) and the end of each stderr that differs.  The last
line gives the count of differing lines, how many differ in each combination
of exit code, stdout and stderr, and how many lines ended with each exit code
in BEFORE.  The exit status is 1 if any line differs.

The 607 fixed lines cover every command in both formats on 8 pairs: classify,
zeros and verify at 9 values of c from 5e-324 to 1.7e308, predict and
thresholds once per pair, and sweeps over the whole float range.  Then come
zeros at m = 1000 to 10000; invalid parameters, resolutions, sweep ranges and
output paths, argparse usage errors, each flag a command does not take
(--tol-radius and --tol-residual on every command) and four flags
abbreviated to a prefix (exit 1); coarse-grid verify mismatches (exit 2); and
numerical failures (exit 3), among them the residual-gate failure of zeros at
(1987, -1528).  288 more lines probe the edges of the tangency band: classify,
zeros and a two-point sweep at c0 (1 +- 1e-9) and one ulp either side, for the
smallest and largest c0 of each pair as BEFORE's thresholds command lists them.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

CLI = "import sys; from rayzeros.cli import main; sys.exit(main())"
PAIRS = [(5, 4), (5, -4), (7, 2), (12, 7), (49, 10), (30, -29), (60, 59), (9, -2)]
CS = ["5e-324", "1e-300", "1e-10", "0.3", "1", "3", "1e10", "1e200", "1.7e308"]


def command_lines() -> list[list[str]]:
    lines = []
    for (m, k), fmt in itertools.product(PAIRS, ("json", "csv")):
        base = ["--m", str(m), "--k", str(k), "--format", fmt]
        lines += [["predict", *base], ["thresholds", *base]]
        for c in CS:
            lines += [["classify", *base, "--c", c], ["zeros", *base, "--c", c]]
            lines.append(["verify", *base, "--c", c, "--resolution", "64" if c in ("1e200", "1.7e308") else "128"])
    sweeps = [("0.1", "10", "17", "log"), ("5e-324", "1.7e308", "9", "log"), ("0.5", "3", "6", "linear")]
    for (m, k), fmt in itertools.product(PAIRS, ("json", "csv")):
        base = ["--m", str(m), "--k", str(k), "--format", fmt]
        lines += [["sweep", *base, "--c-min", lo, "--c-max", hi, "--steps", n, "--spacing", sp] for lo, hi, n, sp in sweeps]
        lines.append(["verify", *base, "--c", "1", "--resolution", "64"])
    # zeros at the sizes the root finder is timed at; the last one exits 3 on the residual gate
    big = [(1000, 999, "1"), (1000, -7, "1"), (4001, 3001, "0.05"), (10000, 1, "1"), (1987, -1528, "34.42266034645957")]
    lines += [["zeros", "--m", str(m), "--k", str(k), "--c", c] for m, k, c in big]
    # exit 1: invalid parameters, resolutions, sweep ranges, output path
    bad = [("4", "2", "1"), ("5", "0", "1"), ("5", "5", "1"), ("5", "7", "1"), ("5", "4", "0"), ("5", "4", "-1"),
           ("5", "4", "nan"), ("5", "4", "inf")]
    lines += [["zeros", "--m", m, "--k", k, "--c", c] for m, k, c in bad]
    # --tol-residual exits 1 whether a checkout rejects the flag or only its value
    lines += [["zeros", "--m", "5", "--k", "4", "--c", "1", "--tol-residual", v] for v in ("0", "-1", "inf", "nan")]
    lines += [["verify", "--m", "5", "--k", "4", "--c", "1", "--resolution", r] for r in ("0", "63", "64")]
    lines += [["sweep", "--m", "5", "--k", "4", "--c-min", a, "--c-max", b, "--steps", n]
              for a, b, n in [("1", "1", "5"), ("2", "1", "5"), ("0", "1", "5"), ("1", "2", "1"), ("1", "inf", "5")]]
    lines.append(["predict", "--m", "5", "--k", "4", "--output", "/nonexistent/dir/out.json"])
    # exit 1 as well: argparse usage errors, and each flag a command does not take
    lines += [["zeros", "--m", "5", "--k", "4"], ["predict", "--m", "5"], ["nosuch"], [],
              ["predict", "--m", "5", "--k", "4", "--format", "xml"], ["predict", "--m", "x", "--k", "4"]]
    tols = ["--tol-radius", "--tol-residual"]
    for cmd, flags in [("classify", tols), ("predict", ["--c", *tols]), ("thresholds", ["--c", *tols]),
                       ("sweep", ["--c", *tols])]:
        extra = ["--c-min", "1", "--c-max", "2", "--steps", "3"] if cmd == "sweep" else []
        lines += [[cmd, "--m", "5", "--k", "4", *extra, flag, "1"] for flag in flags]
    # --tol-radius 0 exits 1 whether a checkout rejects the flag or only its value
    lines += [["zeros", "--m", "5", "--k", "4", "--c", "1", "--tol-radius", "0"],
              ["verify", "--m", "5", "--k", "4", "--c", "1", "--resolution", "64", "--tol-radius", "0"]]
    # exit 1 as well: a flag abbreviated to a prefix of its name
    lines += [["predict", "--m", "5", "--k", "4", "--form", "csv"],
              ["verify", "--m", "5", "--k", "4", "--c", "1", "--res", "64"],
              ["zeros", "--m", "5", "--k", "4", "--c", "1", "--tol-res", "1e-10"],
              ["sweep", "--m", "5", "--k", "4", "--c-min", "1", "--c-max", "2", "--steps", "3", "--st", "4"]]
    # exit 2: verify at coarse grids, where some mismatch and some exit 3
    lines += [["verify", "--m", str(m), "--k", str(k), "--c", c, "--resolution", r]
              for m, k in [(30, -29), (60, 59), (49, 10), (13, 12), (21, -20)] for c in ("0.5", "1", "2") for r in ("64", "96")]
    return lines


def band_edge_lines(run) -> list[list[str]]:
    """classify, zeros and sweep next to each pair's smallest and largest c0, read
    from run(["thresholds", ...])'s JSON: at c0 (1 +- 1e-9) and one ulp either side."""
    lines = []
    for m, k in PAIRS:
        base = ["--m", str(m), "--k", str(k), "--format", "json"]
        c0s = [row["c0"] for row in json.loads(run(["thresholds", *base])[1])["results"]]
        for c0, rtol in itertools.product(sorted({c0s[0], c0s[-1]}), (1e-9, -1e-9)):
            edge = c0 * (1 + rtol)
            for c in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
                up = repr(math.nextafter(c, math.inf))
                lines += [["classify", *base, "--c", repr(c)], ["zeros", *base, "--c", repr(c)],
                          ["sweep", *base, "--c-min", repr(c), "--c-max", up, "--steps", "2"]]
    return lines


def describe(a: tuple, b: tuple) -> tuple[str, str]:
    """Which of exit code, stdout and stderr differ between the runs a and b,
    and a report of the difference: both exit codes, the first differing
    stdout line of each side and the end of each differing stderr."""
    kind = "+".join(name for name, x, y in zip(("exit", "stdout", "stderr"), a, b) if x != y)
    report = f"in {kind}; exit {a[0]} {b[0]}"
    if a[1] != b[1]:
        pairs = itertools.zip_longest(a[1].splitlines(), b[1].splitlines())
        n, (x, y) = next((n, pair) for n, pair in enumerate(pairs, 1) if pair[0] != pair[1])
        report += f"; stdout line {n}: {x and x[:300]!r} -> {y and y[:300]!r}"
    if a[2] != b[2]:
        report += f"; stderr {a[2][-200:]!r} -> {b[2][-200:]!r}"
    return kind, report


def main() -> int:
    before, after = map(os.path.abspath, sys.argv[1:3])  # the children run in a temporary directory
    with tempfile.TemporaryDirectory() as scratch:

        def run(root: str, argv: list[str]):
            env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
            proc = subprocess.run(
                [sys.executable, "-B", "-c", CLI, *argv], capture_output=True, env=env, cwd=scratch, timeout=300
            )
            return proc.returncode, proc.stdout, proc.stderr

        lines = command_lines() + band_edge_lines(lambda argv: run(before, argv))
        codes, kinds = {}, {}
        with ThreadPoolExecutor(2) as pool:
            for argv, a, b in pool.map(lambda argv: (argv, run(before, argv), run(after, argv)), lines):
                codes[a[0]] = codes.get(a[0], 0) + 1
                if a != b:
                    kind, report = describe(a, b)
                    kinds[kind] = kinds.get(kind, 0) + 1
                    print("DIFF", argv, report)
    differ = sum(kinds.values())
    print(f"{len(lines)} command lines, {differ} differ {sorted(kinds.items())}; exit codes {sorted(codes.items())}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
