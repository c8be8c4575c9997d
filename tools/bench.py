"""Compare the end-to-end benchmark of two rayzeros checkouts, in interleaved pairs of runs.

    python tools/bench.py BEFORE AFTER --workload W --seed S --pairs N --out BENCH_<pr>.json

BEFORE and AFTER are checkout roots.  Each pair runs each checkout's own
benchmark command from its BENCHMARK.json (``perfbench/run.py``) once, with
``--seconds`` set to run_seconds and ``--trace 0``, in that checkout; the
side that goes first alternates from pair to pair, so both sides see the same
machine noise.  Each run's JSON result is the last line it prints, and its
host line is the one that starts with ``env``.

The record of the workload goes into the --out file under ``workloads[W]``;
other workloads already in the file are kept, so one file can hold several
invocations.  For each end-to-end metric of AFTER's BENCHMARK.json it holds
every run's value per side, the median and quartiles per side, the pairs
AFTER won, the bound, the relative change of the medians, whether that change
stays inside the bound, whether the medians differ by more than BEFORE's
quartile distance, either way, and whether a gain is shown (``gain_shown``):
AFTER won at least nine pairs in ten, ties counting for neither side, and its
median is better than BEFORE's by more than BEFORE's quartile distance.  It
also holds each run's failed and attempted op counts, failure classes and host
line, and each checkout's commit; the summary printed last gives each side's
failed and attempted counts too.  Neither checkout
is changed, apart from the ``.perfbench/`` record each run writes.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import statistics
import subprocess
import sys


def commit(root: pathlib.Path) -> dict:
    """The checkout's git commit, whether its tracked files differ from it, and
    a hash of its src/ files, which names the code even where git does not."""
    def git(*args: str) -> str | None:
        proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(status) if status is not None else None,
            "src_sha256": digest.hexdigest()}


def parse_run(stdout: str) -> dict:
    """The JSON result (the last line), the host line and the failure line, with
    the failed ops by class, of one benchmark run."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    host = next((line for line in lines if line.startswith("env ")), None)
    failures = next((line for line in lines if line.startswith("failures ")), None)
    return {"host": host, "failed": result["failed"], "attempted": result["attempted"], "failures": failures,
            "correct": result["correct"], "metrics": {n: m["value"] for n, m in result["metrics"].items()}}


def run_once(root: pathlib.Path, spec: dict, workload: str, seed: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    if argv[0] in ("python", "python3"):
        argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=1200, check=True)
    return parse_run(proc.stdout)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), statistics.quantiles' exclusive method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(spec: dict, before: list[dict], after: list[dict]) -> dict:
    """The per-metric comparison of paired runs: before[i] and after[i] form pair i."""
    metrics = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        a = [run["metrics"][name] for run in before]
        b = [run["metrics"][name] for run in after]
        qa, qb = quartiles(a), quartiles(b)
        change = qb[1] / qa[1] - 1.0 if qa[1] else 0.0
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        beyond = abs(qb[1] - qa[1]) > qa[2] - qa[0]
        metrics[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "before": {"runs": a, "q1": qa[0], "median": qa[1], "q3": qa[2]},
            "after": {"runs": b, "q1": qb[0], "median": qb[1], "q3": qb[2]},
            "after_wins": wins,
            "change": change,
            "inside_bound": change <= metric["bound"] if lower else change >= -metric["bound"],
            "beyond_before_iqr": beyond,
            "gain_shown": 10 * wins >= 9 * len(a) and beyond and (qb[1] < qa[1] if lower else qb[1] > qa[1]),
        }
    return metrics


def record(spec: dict, seed: int, sides: dict, before: list[dict], after: list[dict]) -> dict:
    return {
        "seed": seed,
        "pairs": len(before),
        "run_seconds": spec["run_seconds"],
        "checkouts": sides,
        "runs": {"before": before, "after": after},
        "failed": {"before": [r["failed"] for r in before], "after": [r["failed"] for r in after]},
        "attempted": {"before": [r["attempted"] for r in before], "after": [r["attempted"] for r in after]},
        "metrics": compare(spec, before, after),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=pathlib.Path)
    parser.add_argument("after", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args()

    spec = json.loads((args.after / "BENCHMARK.json").read_text())
    before, after = [], []
    for i in range(args.pairs):
        order = ((args.before, before), (args.after, after))
        for root, runs in order if i % 2 == 0 else order[::-1]:
            runs.append(run_once(root.resolve(), spec, args.workload, args.seed))
        print(f"pair {i + 1}/{args.pairs}: " + " ".join(
            f"{m['name']} {before[-1]['metrics'][m['name']]:.4g} -> {after[-1]['metrics'][m['name']]:.4g}"
            for m in spec["end_to_end"]), flush=True)
    sides = {"before": commit(args.before.resolve()), "after": commit(args.after.resolve())}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    doc["workloads"][args.workload] = record(spec, args.seed, sides, before, after)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    rec = doc["workloads"][args.workload]
    for name, m in rec["metrics"].items():
        print(f"{args.workload:6} {name:12} {m['before']['median']:.4g} -> {m['after']['median']:.4g} "
              f"({m['change']:+.1%}, bound {m['bound']:.0%}, inside {m['inside_bound']}, "
              f"wins {m['after_wins']}/{len(before)}, beyond IQR {m['beyond_before_iqr']}, "
              f"gain shown {m['gain_shown']})")
    for side in ("before", "after"):
        print(f"{args.workload:6} {side:6} failed/attempted " + " ".join(
            f"{f}/{n}" for f, n in zip(rec["failed"][side], rec["attempted"][side])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
