"""Benchmark of the rayzeros library and command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Workloads (each a single-process closed loop with one caller):

* ``solve``: in-process ``all_zeros(validate(m, k, c))`` on ROADMAP's fixed
  matrix, the failures reproduced in ROADMAP Open item 4, and per round a
  seeded m ladder up to 4096, extreme-c draws at small m and draws at an exact
  c0.  An op is one ``all_zeros`` call.
* ``sweep``: in-process ``predict_table``, ``predict_census``, ``thresholds``
  and ``predict_at`` over a log c-grid, on (m, k) pairs new to the process so
  the per-pair cache starts cold.  An op is one pair.
* ``cli``: one-shot ``rayzeros`` processes, one at a time.  An op is one
  process.

The library is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.

With ``--trace 0`` the run times the prologue and the number of rounds that
take ``--seconds`` on the host the bounds were set on, and reports the
end-to-end metrics.  Each time is scaled to a quiet host by the host-speed
factor of ``HostSpeed``, taken from probes around it; the env line gives the
run's median factor, so the scaled numbers can be turned back into wall times.
A second CPU is kept busy for the whole run (``SiblingLoad``), and every
process runs numpy's BLAS with one thread.  With ``--trace 1`` it runs a fixed,
seed-determined op list twice, first untraced and then with the call tracer of
``tracing.py`` installed, and reports the per-layer metrics plus the tracing
overhead (traced over untraced, minus one).  For ``cli`` both passes replay
the command lines in-process through ``rayzeros.cli.main``, and a third pass
starts each command once more in a probe process to time the import.

Every output is checked; a raise, a non-zero exit or a failed check makes the
op a failed one, and a failed check also makes ``correct`` false.  The human
report goes to standard output, the full record (environment, every failure
with its (m, k, c), spans) to ``.perfbench/`` in the checkout, and the last
line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import bisect
import collections
import json
import math
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
INTERP_SAMPLES = 5  # bare interpreter starts per run
SETUP_AT_START = 3  # set-up samples before the first op
SETUP_DURING_RUN = 6  # further set-up samples, spread evenly over the ops
CUT_AT = 1.5  # a run whose ops outlast this many times --seconds stops early
# median times of the two host-speed probes on a quiet host of the kind the
# bounds were set on (2 vCPUs, Python 3.11, no sibling load)
REFERENCE_S = 0.41e-3  # reference()
BARE_START_S = 60e-3  # a bare ``python -c pass`` process
SPEED_WINDOW_S = 1.0  # probes this close to a measurement set its host factor
IMPORT_CODE = "import time; t = time.perf_counter(); import rayzeros; print(time.perf_counter() - t)"


def reference() -> None:
    """A fixed pure-Python loop that never calls the library: the probe of host speed."""
    s = 0.0
    for i in range(3000):
        s += math.cos(i * 0.001) * (1.0001 ** i)


def time_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def time_bare_start(env: dict) -> float:
    t0 = time.perf_counter()
    run_child(["-c", "pass"], env)
    return time.perf_counter() - t0


class HostSpeed:
    """How fast the host ran around a measurement, against a quiet host.

    Other tenants of the machine slow everything on it by up to 2x, in phases
    of a fraction of a second to longer than a run.  ``sample()`` times
    ``probe`` once; the caller samples before and after every measurement.
    ``factor(t0, t1)`` is ``quiet_s`` over the median probe time within
    SPEED_WINDOW_S of the measurement [t0, t1]: about 1 on a quiet host, 0.5
    while the host runs at half speed.  Multiplying the measured time by it
    estimates the time it would have taken on a quiet host.  The median of a
    window rather than the two bracketing probes, because a single probe is
    noisy and the factor, a reciprocal, turns that noise into a bias.  The
    library never runs inside a probe, so a change to the library moves the
    scaled times as it moves the wall times.  In-process ops are scaled by
    ``reference()``; ops and set-up samples that start a process are scaled
    by a bare interpreter start, which slows with the host the way a process
    start does and a Python loop does not.
    """

    def __init__(self, probe, quiet_s: float):
        self.probe = probe
        self.quiet_s = quiet_s
        self.ends: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        d = self.probe()
        self.ends.append(time.perf_counter())
        self.durations.append(d)

    def factor(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.ends, t0 - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.ends, t1 + SPEED_WINDOW_S)
        return self.quiet_s / statistics.median(self.durations[lo:hi])


def _spin(stop, parent: int) -> None:
    while not stop.is_set() and os.getppid() == parent:
        reference()


class SiblingLoad:
    """Keeps a second CPU busy with ``reference()`` while the run measures.

    On the shared 2-vCPU host the bounds were set on, the same op took up to
    twice as long from one call to the next while the second vCPU idled.
    With that vCPU kept busy ops run slower but steadier: over repeated
    calls of one all_zeros or one CLI command, the distance between the
    quartiles of the times fell from 0.15-0.65 of the median to 0.05-0.2.
    One spinning process, so with the op's own process the run never has
    more busy processes than CPUs.  It is stopped and joined on every way out
    of the ``with`` block, and stops by itself if the run dies.
    """

    def __enter__(self):
        self.proc = None
        if len(os.sched_getaffinity(0)) >= 2:
            ctx = multiprocessing.get_context("fork")
            self.stop = ctx.Event()
            self.proc = ctx.Process(target=_spin, args=(self.stop, os.getpid()), daemon=True)
            self.proc.start()
        return self

    def __exit__(self, *exc):
        if self.proc is not None:
            self.stop.set()
            self.proc.join(5)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join()
        return False


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120, check=True
    )


def measure_setup(env: dict) -> float:
    """Seconds of ``import rayzeros`` in a fresh interpreter."""
    return float(run_child(["-c", IMPORT_CODE], env).stdout)


def measure_interp_start(env: dict) -> list[float]:
    """Milliseconds to start and stop a bare interpreter, the floor under every CLI op."""
    out = []
    for _ in range(INTERP_SAMPLES):
        t0 = time.perf_counter()
        run_child(["-c", "pass"], env)
        out.append((time.perf_counter() - t0) * 1e3)
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least 10 samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    i = max(0, n - 11)
    return xs[i], 100.0 * i / n if n else 0.0


def summarise(samples, workload: str) -> dict:
    """The end-to-end metrics of a list of ops, each as {"value", "unit", ...details}."""
    done = [s for s in samples if s.failure is None]
    good = [s for s in done if s.wrong is None]
    times = [s.seconds * 1e3 for s in done]
    op_seconds = sum(s.seconds for s in samples)
    tail_ms, pct = tail(times) if times else (0.0, 0.0)
    out = {
        "op_ms_p50": {"value": statistics.median(times) if times else 0.0, "unit": "ms", "n": len(times)},
        "op_ms_tail": {"value": tail_ms, "unit": "ms", "percentile": round(pct, 2), "n": len(times)},
        "ops_per_s": {"value": len(good) / op_seconds if op_seconds else 0.0, "unit": "1/s"},
        "fail_ratio": {"value": (len(samples) - len(good)) / len(samples), "unit": "1", "n": len(samples)},
    }
    if workload == "solve":
        out["zeros_per_s"] = {"value": sum(s.zeros for s in good) / op_seconds, "unit": "1/s"}
    if workload == "sweep":
        q = sum(s.queries for s in samples)
        qs = sum(s.query_seconds for s in samples)
        out["queries_per_s"] = {"value": q / qs if qs else 0.0, "unit": "1/s", "n": q}
    return out


def rss_peak_mb(workload: str) -> float:
    # cli ops run in children; every child imports at least what the set-up
    # children import, so the children's peak is the peak of an op process
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def groups_of(m: int, k: int) -> int:
    """Distinct (parity, min(t, 2m - t)) ray groups, t = k j mod 2m."""
    return len({(j % 2, min(t, 2 * m - t)) for j in range(2 * m) for t in ((k * j) % (2 * m),)})


def run_traced_ops(wl, ops, tracer=None) -> list:
    """One run of each op, with the tracer's per-op counts when tracing."""
    samples = []
    for op in ops:
        if tracer is None:
            samples.append(wl.measure(op))
            continue
        before = tracer.op_counters()
        s = wl.measure(op)
        s.counters = {n: v - before[n] for n, v in tracer.op_counters().items()}
        s.counters["groups"] = groups_of(s.m, s.k)
        samples.append(s)
    return samples


def run_timed(wl, seconds: float, env: dict) -> tuple[list, list[float], float, list[float]]:
    """A fixed list of ops; returns samples, set-up times, peak RSS and each op's host factor.

    ``seconds`` sets the work, not a deadline: the prologue and the number of
    rounds that take about that long on the host the bounds were set on, so
    a seed fixes the ops however loaded the host is.  Only a run whose ops
    outlast CUT_AT times ``seconds`` stops early, which bounds the run time
    on a slowed host.  A probe of host speed follows every op and set-up
    sample, and every time is scaled by the host factor around it.  Set-up is
    timed at the start and at even intervals between ops, so its median does
    not rest on one moment of the run.
    """
    ops = wl.prologue() + [op for r in range(max(1, round(seconds / wl.round_s))) for op in wl.round(r)]
    bare = HostSpeed(lambda: time_bare_start(env), BARE_START_S)
    host = bare if not wl.inprocess else HostSpeed(time_reference, REFERENCE_S)
    setup_spans = []

    def setup_sample() -> None:
        bare.sample()
        t0 = time.perf_counter()
        setup_spans.append((measure_setup(env), t0, time.perf_counter()))
        bare.sample()

    for _ in range(SETUP_AT_START):
        setup_sample()
    every = max(1, len(ops) // (SETUP_DURING_RUN + 1))
    deadline = time.perf_counter() + CUT_AT * seconds
    samples, spans = [], []
    host.sample()
    for i, op in enumerate(ops):
        if time.perf_counter() > deadline:
            break
        if i and i % every == 0 and len(setup_spans) < SETUP_AT_START + SETUP_DURING_RUN:
            setup_sample()
            host.sample()
        t0 = time.perf_counter()
        samples.append(wl.measure(op))
        spans.append((t0, time.perf_counter()))
        host.sample()
    factors = [host.factor(t0, t1) for t0, t1 in spans]
    for s, f in zip(samples, factors):
        s.seconds *= f
        s.query_seconds *= f
    setup = [x * bare.factor(t0, t1) for x, t0, t1 in setup_spans]
    return samples, setup, rss_peak_mb(wl.name), factors


def run_traced(wl, interp_ms: float) -> tuple[list, list, dict, dict]:
    """Untraced pass A, then traced pass B over the same op mix; per-layer metrics of B.

    Times are not scaled, and counts repeat exactly.
    """
    import tracing

    wl.inprocess = True
    n = wl.trace_rounds
    ops_a = wl.prologue() + [op for r in range(n) for op in wl.round(r)]
    samples_a = run_traced_ops(wl, ops_a)
    ops_b = wl.prologue() + [op for r in range(n, 2 * n) for op in wl.round(r)] if wl.cold_caches else ops_a
    tracer = tracing.Tracer()
    tracer.install()
    wl.tracer = tracer
    try:
        samples_b = run_traced_ops(wl, ops_b, tracer)
    finally:
        wl.tracer = None
        tracer.uninstall()
    probes = wl.probe(ops_b)
    if probes:
        probes["interp_start_ms"] = interp_ms
    a, b = summarise(samples_a, wl.name), summarise(samples_b, wl.name)
    layers = tracing.layer_metrics(tracer, samples_b, probes)
    for name in ("op_ms_p50", "op_ms_tail", "ops_per_s"):
        layers[f"trace.overhead.{name}"] = b[name]["value"] / a[name]["value"] - 1.0 if a[name]["value"] else 0.0
    ops = [
        {"op": s.label, "ms": s.seconds * 1e3, "ok": s.ok, "zeros": s.zeros, **s.counters} for s in samples_b
    ]
    return samples_a, samples_b, layers, {"untraced": a, "traced": b, "ops": ops, "trace": tracer.dump()}


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("solve", "sweep", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "rayzeros" / "__init__.py").is_file():
        print(f"error: no rayzeros sources under {SRC}", file=sys.stderr)
        return 2
    # numpy's BLAS pool would start one thread per CPU in every process
    # that imports it; the library calls no BLAS routine, and one thread per
    # process keeps the busy threads within the CPUs
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    env = child_env()
    # a terminated run unwinds, so the sibling load and any op's child stop
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with SiblingLoad():
        return measure(args, env)


def measure(args, env) -> int:
    interp = measure_interp_start(env)

    sys.path.insert(0, str(SRC))
    import numpy
    import rayzeros

    if Path(rayzeros.__file__).resolve().parent != SRC / "rayzeros":
        print(f"error: imported rayzeros from {rayzeros.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.make(args.workload, args.seed, env, str(ROOT))
    t0 = time.perf_counter()
    if args.trace:
        samples_a, samples, metrics, extra = run_traced(wl, statistics.median(interp))
        host_factor = None
        kind = "per_layer"
    else:
        samples, setup, rss, factors = run_timed(wl, args.seconds, env)
        host_factor = statistics.median(factors)
        samples_a, metrics = [], summarise(samples, wl.name)
        extra = {"ops": [
            {"op": s.label, "ms": s.seconds * 1e3, "host_factor": f, "ok": s.ok} for s, f in zip(samples, factors)
        ]}
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s", "samples": setup}
        metrics["rss_peak_mb"] = {"value": rss, "unit": "MB"}
        kind = "end_to_end"
    wall = time.perf_counter() - t0

    env_info = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "interp_start_ms": statistics.median(interp),
        "ops": len(samples_a) + len(samples),
        "wall_s": wall,
        "host_factor": host_factor,
    }
    failures = [s.failure for s in samples if s.failure]
    wrong = [{"op": s.label, "check": s.wrong} for s in samples_a + samples if s.wrong]
    print("env " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    for name, m in (metrics.items() if kind == "end_to_end" else ()):
        details = " ".join(f"{k}={v}" for k, v in m.items() if k not in ("value", "unit", "samples"))
        print(f"{wl.name:6} {name:14} {m['value']:.6g} {m['unit']} {details}")
    if kind == "per_layer":
        for name, value in metrics.items():
            print(f"{wl.name:6} {name:36} {value:.6g}")
        for s in samples:
            if s.ok and s.zeros and "matrix" in s.label:
                print(f"f_evals_per_zero {s.counters['f_value'] / s.zeros:.4g}  {s.label}")
    by_class = dict(collections.Counter(f["class"] for f in failures))
    by_kind = dict(collections.Counter(f["op"].split()[1] for f in failures))
    print(f"failures {len(failures)} of {len(samples)} ops, by class {by_class}, by kind of op {by_kind}")
    for f in failures:
        print(f"failed {f['class']:13} {f['type']} m={f['m']} k={f['k']} c={f['c']!r}: {f['message'][:100]}")
    for w in wrong:
        print(f"WRONG  {w['op']}: {w['check']}")

    OUT.mkdir(exist_ok=True)
    record = {
        "env": env_info, "metrics": metrics, "failures_by_class": by_class, "failures": failures, "wrong": wrong,
        **extra,
    }
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    units = declared(kind)
    if kind == "end_to_end":
        values = {n: {"value": metrics[n]["value"], "unit": u} for n, u in units.items()}
    else:
        values = {n: {"value": metrics[n], "unit": u} for n, u in units.items()}
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(samples),
        "failed": sum(not s.ok for s in samples),
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
