"""Command-line surface: classify, predict, zeros, thresholds, sweep, verify.

Each command takes only the flags that act on it.  Every command takes --m,
--k, --format and --output.  classify takes --c (default 1), and zeros and
verify take a required --c; predict, thresholds and sweep read no c.  The
residual gate of zeros and verify is fixed (Tolerances().residual_rtol).

Every command validates (m, k, c) first, then emits machine-readable rows as
JSON (default) or CSV.  JSON output is a single object

    {
      "params": {...},
      "results": [
        {...},
        ...
      ],
      "meta": {"version": ...}
    }

with each result row on a line of its own ("results": [] when there are none).
params holds c only for a command that takes it, and meta holds thresholds
only for sweep.  CSV carries the same result rows field-for-field
after a header line.  Floats are printed with shortest round-trip formatting
so outputs are stable and diff-friendly; non-finite ones are the strings
"inf", "-inf" and "nan" in both formats.

Exit codes: 0 success, 1 invalid parameters or a usage error (a missing,
unknown or removed flag, a bad choice or a malformed number), 2 verification
mismatch (a verify row with "passed": false), 3 numerical failure.
"""
from __future__ import annotations

import argparse
import bisect
import io
import json
import math
import sys

from . import __version__
from .family import ParameterError, validate
from .predict import predict_at, predict_census, predict_table
from .rays import analyze_ray, count_at, extremum_radius, thresholds

__all__ = ["main"]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2
EXIT_NUMERICAL = 3

_LOG_MAX = math.log(sys.float_info.max)  # exp(x) is finite for x <= _LOG_MAX


class _InvalidInput(Exception):
    """A usage error or a flag value out of range: exit 1 with the message."""


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit 1 through main, not 2: exit 2
    is a verify mismatch.  Its subparsers are of this class too."""

    def error(self, message):
        raise _InvalidInput(message)


def all_zeros(params):
    """roots.all_zeros, with the root finder imported on first use: only zeros
    and verify locate zeros."""
    from . import roots

    return roots.all_zeros(params)


def _oracle():
    """The grid oracle, imported on first use: only verify needs it."""
    from . import oracle

    return oracle


def find_zeros_grid(params, resolution):
    return _oracle().find_zeros_grid(params, resolution)


def compare(params, oracle_res, ray_zeros):
    return _oracle().compare(params, oracle_res, ray_zeros)


def _fmt(value):
    """A CSV cell: csv.writer already writes None as "" and a float by its repr."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ";".join(map(str, value))
    return value


def _json_value(value):
    """value with each non-finite float as the string CSV writes for it; JSON
    (RFC 8259) has no literal for inf or nan, and null means "none"."""
    return repr(value) if isinstance(value, float) and not math.isfinite(value) else value


def _emit(args, rows: list[dict]) -> str:
    if args.format == "csv":
        import csv  # only the csv format needs it

        buf = io.StringIO()
        if rows:
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow([_fmt(v) for v in row.values()])
        return buf.getvalue()
    # params, each result row and meta on a line of their own, each dumped
    # without indent so CPython's C encoder runs.  json.dumps writes a
    # non-finite float as Infinity, -Infinity or NaN, so only a row whose line
    # holds one of these is dumped again with _json_value's strings
    lines = [json.dumps(row) for row in rows]
    lines = [
        json.dumps({key: _json_value(v) for key, v in row.items()}) if "Infinity" in line or "NaN" in line else line
        for row, line in zip(rows, lines)
    ]
    results = "[\n    " + ",\n    ".join(lines) + "\n  ]" if rows else "[]"
    params = json.dumps({key: getattr(args, key) for key in ("m", "k", "c") if key in args})
    return f'{{\n  "params": {params},\n  "results": {results},\n  "meta": {json.dumps(args.meta)}\n}}\n'


def _cmd_classify(args, params) -> list[dict]:
    m = params.m
    rows = []
    for j in range(m + 1):
        a = analyze_ray(params, j)
        rows.append(
            {
                "j": j,
                "angle": a.ray.angle,
                "parity": "even" if a.ray.parity == 0 else "odd",
                "alpha_sign": a.ray.alpha_sign.name.lower(),
                "alpha": a.alpha,
                "case": a.case.value,
                "count": count_at(a, params.c),
                "r0": extremum_radius(a, params.c),
                "c0": a.c0,
            }
        )
    # ray 2m - j shares row j's radial function; only its index and angle differ
    rows += [dict(rows[2 * m - j], j=j, angle=j * math.pi / m) for j in range(m + 1, 2 * m)]
    return rows


def _cmd_predict(args, params) -> list[dict]:
    preds = {"table": predict_table(params), "census": predict_census(params)}
    return [{"source": source, **pred._asdict()} for source, pred in preds.items()]


def _cmd_zeros(args, params) -> list[dict]:
    return [
        {
            "j": rec.j,
            "r": rec.r,
            "re": rec.z.real,
            "im": rec.z.imag,
            "residual": rec.residual,
            "degenerate": rec.degenerate,
        }
        for rec in all_zeros(params)
    ]


def _cmd_thresholds(args, params) -> list[dict]:
    return [
        {"c0": th.c0, "rays": list(th.rays), "alpha": th.alpha}
        for th in thresholds(params)
    ]


def _sweep_grid(args) -> list[float]:
    lo, hi, n = args.c_min, args.c_max, args.steps
    if args.spacing == "log":  # a log point past log(max_float) is log(hi) rounded up
        grid = [math.exp(x) if x <= _LOG_MAX else hi for x in _linspace(math.log(lo), math.log(hi), n)]
    else:
        grid = _linspace(lo, hi, n)
    # exp(log(x)) and lo + (hi - lo) can round past the bounds; clamping keeps the grid sorted
    return [lo, *(min(max(x, lo), hi) for x in grid[1:-1]), hi]


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    span = hi - lo
    # span * i overflows only for bounds near max_float; there divide first
    return [lo + (span * i / (n - 1) if span * i < math.inf else span * (i / (n - 1))) for i in range(n)]


def _cmd_sweep(args, params) -> list[dict]:
    if not (0 < args.c_min < args.c_max < math.inf) or args.steps < 2:
        raise _InvalidInput("sweep needs 0 < c-min < c-max < inf and steps >= 2")
    ths = thresholds(params)
    c0s = [th.c0 for th in ths]  # thresholds() lists them by increasing c0
    rows = []
    grid = _sweep_grid(args)
    passed = bisect.bisect_right(c0s, grid[0])  # thresholds at or below the previous grid point
    for c in grid:
        upto = bisect.bisect_right(c0s, c)
        rows.append({"c": c, "count": predict_at(params, c), "crossed": c0s[passed:upto]})
        passed = upto
    args.meta["thresholds"] = [{"c0": th.c0, "rays": list(th.rays)} for th in ths]
    return rows


def _cmd_verify(args, params) -> list[dict]:
    least = _oracle()._MIN_RESOLUTION
    if args.resolution < least:
        raise _InvalidInput(f"verify needs --resolution >= {least}, got {args.resolution}")
    table, cen = predict_table(params), predict_census(params)
    records = all_zeros(params)
    predicted = predict_at(params, params.c)
    oracle_res = find_zeros_grid(params, args.resolution)
    report = compare(params, oracle_res, records)
    checks = (
        (
            "table_census_equivalence",
            table == cen,
            f"table=({table.min_count},{table.max_count}) census=({cen.min_count},{cen.max_count})",
        ),
        ("ray_count_vs_prediction", len(records) == predicted, f"zeros={len(records)} predicted={predicted}"),
        (
            "oracle_agreement",
            report.clean and report.max_distance < 1e-6,  # clean: every zero on each side matched
            f"oracle={len(oracle_res.zeros)} rays={len(records)} "
            f"matched={report.matched} max_distance={report.max_distance:.3g}",
        ),
    )
    return [{"check": name, "passed": passed, "detail": detail} for name, passed, detail in checks]


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rayzeros",
        description="Count and locate the zeros of z^m + c(z^k + conj(z)^k) - 1.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # name, help and the function that makes the rows
    commands = (
        ("classify", "per-ray case labels and counts", _cmd_classify),
        ("predict", "global count bounds, both derivations", _cmd_predict),
        ("zeros", "locate every zero", _cmd_zeros),
        ("thresholds", "critical values of c with their rays", _cmd_thresholds),
        ("sweep", "zero count across a range of c", _cmd_sweep),
        ("verify", "cross-validate predictions, zeros and the grid oracle", _cmd_verify),
    )
    for name, help_text, run in commands:
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)  # each flag by its full name only
        p.set_defaults(run=run)
        p.add_argument("--m", type=int, required=True, help="degree of the analytic term")
        p.add_argument("--k", type=int, required=True, help="degree of the middle terms (may be negative)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None, help="write to this path instead of stdout")

    sub.choices["classify"].add_argument("--c", type=float, default=1.0, help="family parameter, c > 0 (default 1)")
    for name in ("zeros", "verify"):  # the commands that locate zeros
        sub.choices[name].add_argument("--c", type=float, required=True, help="family parameter, c > 0")
    sweep = sub.choices["sweep"]
    sweep.add_argument("--c-min", type=float, required=True)
    sweep.add_argument("--c-max", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--spacing", choices=("linear", "log"), default="linear")
    sub.choices["verify"].add_argument("--resolution", type=int, default=256, help="oracle grid resolution")
    return parser


def _invalid(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INVALID


def main(argv: list[str] | None = None) -> int:
    """Execute one command; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        # predict, thresholds and sweep read no c; 1 fills the c of their params
        params = validate(args.m, args.k, getattr(args, "c", 1.0))
    except _InvalidInput as exc:
        return _invalid(str(exc))
    except ParameterError as exc:
        return _invalid(f"{type(exc).__name__}: {exc}")
    try:
        args.meta = {"version": __version__}  # a command may add its own keys to meta
        rows = args.run(args, params)
    except _InvalidInput as exc:
        return _invalid(str(exc))
    except ArithmeticError as exc:  # the oracle's ResolutionTooCoarse is one too
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    text = _emit(args, rows)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            return _invalid(f"cannot write --output {args.output}: {exc.strerror}")
    else:
        sys.stdout.write(text)
    return EXIT_MISMATCH if any(row.get("passed") is False for row in rows) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
