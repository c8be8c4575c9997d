"""Steadiness mode: run workloads over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workloads solve,sweep,cli --seeds 1-10 [--trace 1] [--out FILE]

Runs ``run.py`` once per (workload, seed), one run at a time, with the
``run_seconds`` of BENCHMARK.json unless ``--seconds`` is given.  For every
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, the distance between the quartiles as a share of the median,
next to the metric's bound.  A spread at or above a third of its bound is
flagged; ``setup_s`` is flagged only above its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the summary as JSON to this file")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            env = proc.stdout.splitlines()[0]
            runs.append({"seed": seed, **result})
            print(f"{workload} seed={seed} correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            limit = None if bound is None else (bound if name == "setup_s" else bound / 3)
            flag = "" if limit is None or spread < limit else "  <-- SPREAD"
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": values}
            print(f"  {name:36} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:7.4f} bound {bound}{flag}", flush=True)
        summary["workloads"][workload] = {
            "env": env,
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": rows,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
