"""Workloads of the rayzeros benchmark: inputs, one timed operation, output checks.

Every workload is a single-process closed loop with one caller: the next
operation starts when the previous one has returned.  A run is a prologue of
fixed cases followed by numbered rounds of seeded draws.  Round r depends only
on the seed, on r and on the pairs drawn before it, so a seed fixes the inputs.
Draws are stratified: each round walks the same m ladder and spreads k and
log c over fixed strata, so the cost mix, and with it every timing metric,
stays the same from seed to seed while the individual inputs change.

The library is imported by the caller (``run.py``) from the checkout's
``src`` directory before this module is loaded.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from rayzeros import family, predict, rays, roots


@dataclass(slots=True)
class Sample:
    """Outcome of one operation.

    ``failure`` is set when the operation raised or exited non-zero; ``wrong``
    when it returned an output that failed its check.  Either makes the
    operation a failed one.
    """

    label: str
    m: int
    k: int
    c: float
    seconds: float = 0.0
    failure: dict | None = None
    wrong: str | None = None
    zeros: int = 0
    queries: int = 0
    query_seconds: float = 0.0
    output_bytes: int = 0
    counters: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failure is None and self.wrong is None


def failure_class(type_name: str, message: str) -> str:
    """The failure classes a correctness fix is expected to close one by one."""
    if type_name == "ResolutionTooCoarse":
        return "too_coarse"
    if type_name == "BracketFailure":
        if "residual" in message:
            return "residual_gate"
        if "endpoint sign" in message:
            return "endpoint_sign"
    if type_name == "OverflowError":
        return "overflow"
    return "other"


def _failure(sample: Sample, type_name: str, message: str) -> dict:
    return {
        "op": sample.label,
        "m": sample.m,
        "k": sample.k,
        "c": sample.c,
        "type": type_name,
        "class": failure_class(type_name, message),
        "message": message[:300],
    }


def _stratum(rng: random.Random, s: int, n: int) -> float:
    """A uniform draw from the s-th of n equal strata of [0, 1)."""
    return (s + rng.random()) / n


def _coprime_k(m: int, u: float, sign: int) -> int:
    """sign * k for the k coprime to m nearest to 1 + u (m - 1), u in [0, 1)."""
    a = min(m - 1, 1 + int(u * (m - 1)))
    for d in range(m):
        for cand in (a - d, a + d):
            if 1 <= cand < m and math.gcd(cand, m) == 1:
                return sign * cand
    raise AssertionError(f"no k coprime to m={m}")


def _power(r: float, p: int) -> float:
    try:
        return r ** p
    except OverflowError:
        return math.inf


class Workload:
    name = ""
    # True when every operation must meet a pair the process has not seen,
    # so the library's per-pair caches are cold; a traced run then replays
    # the next round rather than the same one
    cold_caches = False
    inprocess = True  # ops run in this process
    trace_rounds = 1  # rounds in each pass of a traced run
    # wall seconds one round takes, checks and host-speed probes included, on
    # the 2-vCPU host the bounds were set on, with run.py's sibling load; a
    # timed run of S seconds has S / round_s rounds after its prologue
    round_s = 1.0

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None  # set by a traced run; untraced runs never touch it
        self.used: set[tuple[int, int]] = set()

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{r}")

    def fresh_pair(self, rng, lo: int, hi: int, sk: int, sign: int) -> tuple[int, int]:
        """A pair not drawn before in this process, with m in [lo, hi].

        k has the given sign and |k| in the sk-th quarter of [1, m - 1].
        """
        for _ in range(1000):
            m = rng.randint(lo, hi)
            ks = [
                sign * a
                for a in range(1 + sk * (m - 1) // 4, 1 + (sk + 1) * (m - 1) // 4)
                if math.gcd(a, m) == 1 and (m, sign * a) not in self.used
            ]
            if ks:
                pair = (m, rng.choice(ks))
                self.used.add(pair)
                return pair
        raise RuntimeError(f"no fresh pair left with m in [{lo}, {hi}]")

    def ladder(self, r: int, singles: tuple, mid: int, mid_draws: int, top_every: int) -> list[tuple]:
        """(rung, sign of k, k stratum, c stratum) of each ladder draw in round r.

        One draw per rung of ``singles``, the last only every ``top_every``-th
        round, plus ``mid_draws`` draws at rung ``mid`` that cover both signs
        and all four c strata in every round.  The median op falls in that
        group, and covering its strata each round keeps the median from
        resting on a few seeded draws.  Callers draw m in (0.9 R, R] at rung
        R, close enough to R to keep the cost near the rung's.
        """
        cells = [
            (rung, 1 if (i + r) % 2 == 0 else -1, (r + i) % 4, (r // 2 + 3 * i) % 4)
            for i, rung in enumerate(singles)
            if rung != singles[-1] or r % top_every == 0
        ]
        cells += [(mid, 1 - 2 * (d % 2), (d // 2 + d // 8 + r) % 4, d // 2 % 4) for d in range(mid_draws)]
        return cells

    def prologue(self) -> list:
        """Fixed ops at the start of a run."""
        return []

    def round(self, r: int) -> list:
        """The ops of round r."""
        raise NotImplementedError

    def measure(self, op) -> Sample:
        raise NotImplementedError

    def probe(self, ops) -> dict:
        """Measurements a traced run takes outside the traced pass; none by default."""
        return {}

    def _begin(self):
        if self.tracer is not None:
            self.tracer.begin()

    def _end(self):
        if self.tracer is not None:
            self.tracer.end()


# ---------------------------------------------------------------- solve

# ROADMAP's fixed matrix, at c = 1
MATRIX = ((5, 4), (5, -4), (50, 49), (50, -49), (200, 199), (1000, 999), (1000, -7), (10000, 1))
# every failure reproduced in ROADMAP Open item 4; kept so fail_ratio shows them
KNOWN_FAILURES = (
    (13, 12, 1e50),
    (5, 4, 1e200),
    (7, 2, 1e300),
    (2000, 1999, 1.0),
    (3000, 2999, 1.0),
    (5000, 4999, 1.0),
    (10000, 9999, 1.0),
    (5000, -4999, 1.0),
    (10000, -9999, 1.0),
)
# two draws at the top rung keep its cost the same from round to round; the
# tail op falls among them
SOLVE_SINGLES = (4, 8, 16, 128, 256, 512, 1024, 2048, 4096, 4096)
SOLVE_MID = 64
SOLVE_MID_DRAWS = 24
EXTREME_DRAWS = 6
DEGENERATE_DRAWS = 2


def check_solve(params, records) -> str | None:
    """Count, residual gate and conjugation closure of an all_zeros result."""
    m, c = params.m, params.c
    expected = predict.predict_at(params, c)
    if len(records) != expected:
        return f"{len(records)} zeros returned, predict_at gives {expected}"
    gate = roots.Tolerances().residual_rtol
    radii: dict[int, list[float]] = {}
    for rec in records:
        if not rec.degenerate:
            residual = abs(family.evaluate(params, rec.z))
            bound = gate * max(1.0, _power(rec.r, m))
            if not residual <= bound:
                return f"residual {residual!r} above {bound!r} on ray {rec.j}, r={rec.r!r}"
        radii.setdefault(rec.j, []).append(rec.r)
    for j, rs in radii.items():
        mate = sorted(radii.get((2 * m - j) % (2 * m), ()))
        rs = sorted(rs)
        if len(mate) != len(rs) or any(abs(a - b) > 1e-11 * max(a, b) for a, b in zip(rs, mate)):
            return f"ray {j} radii {rs} differ from conjugate ray {(2 * m - j) % (2 * m)} radii {mate}"
    return None


class Solve(Workload):
    """In-process ``all_zeros(validate(m, k, c))``: exercises rays and roots."""

    name = "solve"
    round_s = 3.4

    def prologue(self):
        return [(m, k, 1.0, "matrix") for m, k in MATRIX] + [
            (m, k, c, "open-item-4") for m, k, c in KNOWN_FAILURES
        ]

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for rung, sign, sk, sc in self.ladder(r, SOLVE_SINGLES, SOLVE_MID, SOLVE_MID_DRAWS, 1):
            if rung == SOLVE_SINGLES[-1]:
                # the tail op falls among the top rung's draws, so they must
                # all complete and cost about the same: k > 0 in the upper
                # half of [1, m - 1] and c < 1, about m zeros each.  Today
                # k < 0 at this m fails the residual gate almost always, and
                # k > 0 with c > 1 often does; lower rungs keep those draws
                sign, sk, sc = 1, 2 + sk % 2, sc % 2
            m = rung - int(rng.random() * rung / 10)
            k = _coprime_k(m, _stratum(rng, sk, 4), sign)
            c = 10.0 ** (-3.0 + 6.0 * _stratum(rng, sc, 4))
            ops.append((m, k, c, "ladder"))
        for s in range(EXTREME_DRAWS):
            m = rng.randint(2, 16)
            k = _coprime_k(m, rng.random(), rng.choice((1, -1)))
            c = 10.0 ** (-300.0 + 600.0 * _stratum(rng, s, EXTREME_DRAWS))
            ops.append((m, k, c, "extreme-c"))
        for _ in range(DEGENERATE_DRAWS):
            ths = []
            while not ths:
                m = rng.randint(96, 256)
                k = _coprime_k(m, rng.random(), rng.choice((1, -1)))
                ths = rays.thresholds(family.validate(m, k, 1.0))
            ops.append((m, k, ths[rng.randrange(len(ths))].c0, "at-c0"))
        return ops

    def measure(self, op):
        m, k, c, tag = op
        s = Sample(f"solve {tag} m={m} k={k} c={c!r}", m, k, c)
        params = family.validate(m, k, c)
        self._begin()
        t0 = time.perf_counter()
        try:
            records = roots.all_zeros(params)
        except Exception as exc:  # a raise is a failed op; record it and go on
            s.seconds = time.perf_counter() - t0
            self._end()
            s.failure = _failure(s, type(exc).__name__, str(exc))
            return s
        s.seconds = time.perf_counter() - t0
        self._end()
        s.zeros = len(records)
        try:
            s.wrong = check_solve(params, records)
        except Exception as exc:  # the output cannot be checked: count it as wrong
            s.wrong = f"check raised {type(exc).__name__}: {exc}"
        return s


# ---------------------------------------------------------------- sweep

SWEEP_SINGLES = (128, 512, 1024, 2048)
SWEEP_MID = 256
SWEEP_MID_DRAWS = 8
SWEEP_TOP_EVERY = 2  # keeps the m=2048 group near 20 draws a run, so the tail sits inside it
GRID_POINTS = 48


def c_grid(ths, pick: float) -> list[float]:
    """Log grid a decade beyond every c0 on each side, plus three exact c0."""
    lo, hi = (ths[0].c0 / 10.0, ths[-1].c0 * 10.0) if ths else (0.1, 10.0)
    a, b = math.log(lo), math.log(hi)
    grid = [math.exp(a + (b - a) * i / (GRID_POINTS - 1)) for i in range(GRID_POINTS)]
    if ths:
        grid += {ths[0].c0, ths[int(pick * len(ths))].c0, ths[-1].c0}
    return sorted(grid)


def check_sweep(params, table, cen, counts) -> str | None:
    if table != cen:
        return f"predict_table {table} differs from predict_census {cen}"
    lo, hi = table.min_count, table.max_count
    if any(not lo <= n <= hi for n in counts):
        return f"count outside the band [{lo}, {hi}]: {counts}"
    step = 1 if params.k > 0 else -1  # counts rise with c for k > 0, fall for k < 0
    if any((b - a) * step < 0 for a, b in zip(counts, counts[1:])):
        return f"counts not monotone in c: {counts}"
    return None


class Sweep(Workload):
    """In-process count queries on pairs new to the process: family, unity, rays, predict."""

    name = "sweep"
    cold_caches = True
    trace_rounds = 10
    round_s = 0.38

    def round(self, r):
        rng = self.rng(r)
        return [
            (*self.fresh_pair(rng, rung - rung // 10, rung, sk, sign), rng.random())
            for rung, sign, sk, _ in self.ladder(r, SWEEP_SINGLES, SWEEP_MID, SWEEP_MID_DRAWS, SWEEP_TOP_EVERY)
        ]

    def measure(self, op):
        m, k, pick = op
        s = Sample(f"sweep m={m} k={k}", m, k, 1.0)
        params = family.validate(m, k, 1.0)
        self._begin()
        t0 = time.perf_counter()
        try:
            table = predict.predict_table(params)
            cen = predict.predict_census(params)
            grid = c_grid(rays.thresholds(params), pick)
            tq = time.perf_counter()
            counts = [predict.predict_at(params, c) for c in grid]
        except Exception as exc:  # a raise is a failed op; record it and go on
            s.seconds = time.perf_counter() - t0
            self._end()
            s.failure = _failure(s, type(exc).__name__, str(exc))
            return s
        t1 = time.perf_counter()
        self._end()
        s.seconds = t1 - t0
        s.queries = len(grid)
        s.query_seconds = t1 - tq
        s.wrong = check_sweep(params, table, cen, counts)
        return s


# ---------------------------------------------------------------- cli

# what the installed ``rayzeros`` console script runs
CLI_ENTRY = "import sys; from rayzeros.cli import main; sys.exit(main())"
PROBE = Path(__file__).with_name("cli_probe.py")
CLI_LARGE = (2048, 1024, 512, 256)
# (30,-29) and (60,59) exit 3 with ResolutionTooCoarse today (ROADMAP Open item 4)
CLI_PROLOGUE = (("verify", 30, -29, 1.0), ("verify", 60, 59, 1.0))
SWEEP_ARGS = ["--c-min", "0.01", "--c-max", "100", "--steps", "50", "--spacing", "log"]
# position in a round of each small command, and which of them print CSV
CLI_SMALL = ("predict", "zeros", "predict", "zeros", "verify", "verify", "verify")
CLI_CSV = {2, 5, 9}


def cli_argv(op) -> list[str]:
    cmd, m, k, c, fmt = op
    argv = [cmd, "--m", str(m), "--k", str(k)]
    if cmd in ("zeros", "verify"):
        argv += ["--c", repr(c)]
    if cmd == "sweep":
        argv += SWEEP_ARGS
    if fmt == "csv":
        argv += ["--format", "csv"]
    return argv


def expected_rows(op) -> int:
    cmd, m, k, c, _ = op
    params = family.validate(m, k, c)
    return {
        "predict": lambda: 2,
        "zeros": lambda: predict.predict_at(params, c),
        "classify": lambda: 2 * m,
        "thresholds": lambda: len(rays.thresholds(params)),
        "sweep": lambda: int(SWEEP_ARGS[SWEEP_ARGS.index("--steps") + 1]),
        "verify": lambda: 3,
    }[cmd]()


def _error_of(stderr: str) -> tuple[str, str]:
    """(type, message) from the CLI's ``error: Type: message`` line or a traceback."""
    lines = [ln for ln in stderr.strip().splitlines() if ln.strip()]
    for ln in lines:
        if ln.startswith("error: "):
            head, _, msg = ln[len("error: "):].partition(": ")
            return head, msg
    head, _, msg = lines[-1].partition(": ")
    return head.strip(), msg


def check_cli(op, text: str) -> str | None:
    fmt = op[4]
    try:
        if fmt == "json":
            rows = json.loads(text)["results"]
        else:
            rows = list(csv.reader(io.StringIO(text)))[1:]
    except (ValueError, KeyError, TypeError) as exc:
        return f"output does not parse as {fmt}: {exc}"
    want = expected_rows(op)
    if len(rows) != want:
        return f"{len(rows)} rows, the library gives {want}"
    return None


class Cli(Workload):
    """Sequential one-shot ``rayzeros`` processes; the only workload that starts interpreters."""

    name = "cli"
    cold_caches = True  # the in-process replay of a traced run must meet new pairs too
    inprocess = False  # a traced run sets it to replay argv through rayzeros.cli.main
    trace_rounds = 2
    round_s = 4.1

    def __init__(self, seed: int, env: dict, cwd: str):
        super().__init__(seed)
        self.env = env
        self.cwd = cwd

    def prologue(self):
        return [(cmd, m, k, c, "json") for cmd, m, k, c in CLI_PROLOGUE]

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for i, cmd in enumerate(CLI_SMALL):
            sign = 1 if (i + r) % 2 == 0 else -1
            # verify costs grow with m; m in [40, 60] keeps the tail op among them
            lo, hi = (40, 60) if cmd == "verify" else (5, 63)
            m, k = self.fresh_pair(rng, lo, hi, (r + i) % 4, sign)
            lo_c, hi_c = (-1.0, 1.0) if cmd == "verify" else (-2.0, 2.0)
            c = 10.0 ** (lo_c + (hi_c - lo_c) * _stratum(rng, (r + 3 * i) % 4, 4))
            ops.append((cmd, m, k, c, "csv" if i in CLI_CSV else "json"))
        for i, cmd in enumerate(("classify", "thresholds", "sweep")):
            rung = CLI_LARGE[(r + i) % len(CLI_LARGE)]
            sign = 1 if (i + r) % 2 == 0 else -1
            m, k = self.fresh_pair(rng, rung - rung // 10, rung, (r + i) % 4, sign)
            j = len(CLI_SMALL) + i
            ops.append((cmd, m, k, 1.0, "csv" if j in CLI_CSV else "json"))
        return ops

    def measure(self, op):
        cmd, m, k, c, fmt = op
        argv = cli_argv(op)
        s = Sample("rayzeros " + " ".join(argv), m, k, c)
        if self.inprocess:
            rc, out, err = self._main_inprocess(s, argv)
        else:
            rc, out, err = self._main_subprocess(s, argv)
        s.output_bytes = len(out.encode())
        if rc != 0:
            s.failure = _failure(s, *_error_of(err)) if err.strip() else _failure(s, f"Exit{rc}", "")
            s.failure["exit"] = rc
            return s
        s.wrong = check_cli(op, out)
        return s

    def probe(self, ops) -> dict:
        """Import time of rayzeros.cli and numpy use, each command in a fresh probe process."""
        rows = []
        for op in ops:
            proc = subprocess.run(
                [sys.executable, str(PROBE), *cli_argv(op)],
                capture_output=True, text=True, env=self.env, cwd=self.cwd, timeout=120, check=True,
            )
            rows.append(json.loads(proc.stdout))
        return {
            "import_ms": statistics.median(r["import_ms"] for r in rows),
            "numpy_loaded": sum(r["numpy"] for r in rows) / len(rows),
        }

    def _main_subprocess(self, s, argv):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-c", CLI_ENTRY, *argv],
                capture_output=True, text=True, env=self.env, cwd=self.cwd, timeout=120,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            s.seconds = time.perf_counter() - t0
            return -1, "", "error: Timeout: no exit within 120 s"
        s.seconds = time.perf_counter() - t0
        return proc.returncode, proc.stdout, proc.stderr

    def _main_inprocess(self, s, argv):
        from rayzeros import cli

        out, err = io.StringIO(), io.StringIO()
        self._begin()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception as exc:  # the process would have died with a traceback
            rc = 1
            err.write(f"{type(exc).__name__}: {exc}\n")
        s.seconds = time.perf_counter() - t0
        self._end()
        return rc, out.getvalue(), err.getvalue()


def make(name: str, seed: int, env: dict, cwd: str) -> Workload:
    if name == "solve":
        return Solve(seed)
    if name == "sweep":
        return Sweep(seed)
    if name == "cli":
        return Cli(seed, env, cwd)
    raise ValueError(f"unknown workload {name!r}")
