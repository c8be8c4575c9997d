"""Command-line surface: classify, predict, zeros, thresholds, sweep, verify.

Every command validates (m, k, c) first, then emits machine-readable rows as
JSON (default) or CSV.  JSON output is a single object

    {"params": {...}, "results": [...], "meta": {"version": ..., "tolerances": {...}}}

and CSV carries the same result rows field-for-field after a header line.
Floats are printed with shortest round-trip formatting so outputs are stable
and diff-friendly.

Exit codes: 0 success, 1 invalid parameters, 2 verification mismatch,
3 numerical failure.  Tolerances resolve as flags > RAYZEROS_* environment
variables > defaults.
"""
from __future__ import annotations

import argparse
import bisect
import csv
import io
import json
import math
import os
import sys

from . import __version__
from .family import ParameterError, Sign, validate
from .oracle import _MIN_RESOLUTION, ResolutionTooCoarse, compare, find_zeros_grid
from .predict import predict_at, predict_census, predict_table
from .rays import analyze_ray, count_at, thresholds
from .roots import Tolerances, all_zeros

__all__ = ["main"]

ENV_PREFIX = "RAYZEROS_"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2
EXIT_NUMERICAL = 3


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ";".join(_fmt(v) for v in value)
    if value is None:
        return ""
    return str(value)


def _emit(args, rows: list[dict], meta_extra: dict | None = None) -> str:
    if args.format == "csv":
        buf = io.StringIO()
        if rows:
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow([_fmt(v) for v in row.values()])
        return buf.getvalue()
    meta = {
        "version": __version__,
        "tolerances": {
            "radius": args.tolerances.radius_rtol,
            "residual": args.tolerances.residual_rtol,
        },
    }
    if meta_extra:
        meta.update(meta_extra)
    doc = {
        "params": {"m": args.m, "k": args.k, "c": args.c},
        "results": rows,
        "meta": meta,
    }
    return json.dumps(doc, indent=2) + "\n"


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
                "alpha_sign": Sign(a.ray.alpha_sign).name.lower(),
                "alpha": a.alpha,
                "case": a.case.value,
                "count": count_at(a, params.c),
                "r0": a.r0,
                "c0": a.c0,
            }
        )
    # ray 2m - j shares row j's radial function; only its index and angle differ
    rows += [dict(rows[2 * m - j], j=j, angle=j * math.pi / m) for j in range(m + 1, 2 * m)]
    return rows


def _cmd_predict(args, params) -> list[dict]:
    rows = []
    for pred in (predict_table(params), predict_census(params)):
        rows.append(
            {
                "source": pred.source,
                "min_count": pred.min_count,
                "max_count": pred.max_count,
                "direction": pred.direction,
            }
        )
    return rows


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
        for rec in all_zeros(params, args.tolerances)
    ]


def _cmd_thresholds(args, params) -> list[dict]:
    return [
        {"c0": th.c0, "rays": list(th.rays), "alpha": th.alpha}
        for th in thresholds(params)
    ]


def _sweep_grid(args) -> list[float]:
    lo, hi, n = args.c_min, args.c_max, args.steps
    if args.spacing == "log":
        return [math.exp(x) for x in _linspace(math.log(lo), math.log(hi), n)]
    return _linspace(lo, hi, n)


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _cmd_sweep(args, params) -> tuple[list[dict], dict]:
    ths = thresholds(params)
    c0s = [th.c0 for th in ths]  # thresholds() lists them by increasing c0
    rows = []
    passed = None  # thresholds at or below the previous grid point
    for c in _sweep_grid(args):
        upto = bisect.bisect_right(c0s, c)
        crossed = [] if passed is None else c0s[passed:upto]
        rows.append({"c": c, "count": predict_at(params, c), "crossed": crossed})
        passed = upto
    overlay = {"thresholds": [{"c0": th.c0, "rays": list(th.rays)} for th in ths]}
    return rows, overlay


def _cmd_verify(args, params) -> tuple[list[dict], bool]:
    rows = []
    ok = True

    table = predict_table(params)
    cen = predict_census(params)
    agree = table == cen
    ok &= agree
    rows.append(
        {
            "check": "table_census_equivalence",
            "passed": agree,
            "detail": f"table=({table.min_count},{table.max_count}) census=({cen.min_count},{cen.max_count})",
        }
    )

    records = all_zeros(params, args.tolerances)
    predicted = predict_at(params, params.c)
    agree = len(records) == predicted
    ok &= agree
    rows.append(
        {
            "check": "ray_count_vs_prediction",
            "passed": agree,
            "detail": f"zeros={len(records)} predicted={predicted}",
        }
    )

    oracle_res = find_zeros_grid(params, args.resolution)
    report = compare(params, oracle_res, records)
    agree = report.clean and len(oracle_res.zeros) == len(records) and report.max_distance < 1e-6
    ok &= agree
    rows.append(
        {
            "check": "oracle_agreement",
            "passed": agree,
            "detail": (
                f"oracle={len(oracle_res.zeros)} rays={len(records)} "
                f"matched={report.matched} max_distance={report.max_distance:.3g}"
            ),
        }
    )
    return rows, ok


def _tolerance(args, name: str, default: float) -> float:
    """--tol-<x> if given, else RAYZEROS_TOL_<X> if set, else the default.

    A value given either way must be a finite positive float.
    """
    source = "--" + name.lower().replace("_", "-")
    raw = getattr(args, name.lower())
    if raw is None:
        source = ENV_PREFIX + name
        raw = os.environ.get(source)
        if raw is None:
            return default
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise ValueError(f"{source} must be a finite positive float, got {raw!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rayzeros",
        description="Count and locate the zeros of z^m + c(z^k + conj(z)^k) - 1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_c: bool):
        p.add_argument("--m", type=int, required=True, help="degree of the analytic term")
        p.add_argument("--k", type=int, required=True, help="degree of the middle terms (may be negative)")
        if needs_c:
            p.add_argument("--c", type=float, required=True, help="family parameter, c > 0")
        else:
            p.add_argument("--c", type=float, default=1.0, help="family parameter, c > 0 (default 1)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None, help="write to this path instead of stdout")
        p.add_argument("--tol-radius", type=float, default=None, help="relative radius tolerance")
        p.add_argument("--tol-residual", type=float, default=None, help="relative residual tolerance")

    add_common(sub.add_parser("classify", help="per-ray case labels and counts"), needs_c=False)
    add_common(sub.add_parser("predict", help="global count bounds, both derivations"), needs_c=False)
    add_common(sub.add_parser("zeros", help="locate every zero"), needs_c=True)
    add_common(sub.add_parser("thresholds", help="critical values of c with their rays"), needs_c=False)

    sweep = sub.add_parser("sweep", help="zero count across a range of c")
    add_common(sweep, needs_c=False)
    sweep.add_argument("--c-min", type=float, required=True)
    sweep.add_argument("--c-max", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--spacing", choices=("linear", "log"), default="linear")

    verify = sub.add_parser("verify", help="cross-validate predictions, zeros and the grid oracle")
    add_common(verify, needs_c=True)
    verify.add_argument("--resolution", type=int, default=256, help="oracle grid resolution")

    return parser


def _invalid(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INVALID


def main(argv: list[str] | None = None) -> int:
    """Execute one command; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        params = validate(args.m, args.k, args.c)
    except ParameterError as exc:
        return _invalid(f"{type(exc).__name__}: {exc}")
    try:
        radius = _tolerance(args, "TOL_RADIUS", 1e-12)
        residual = _tolerance(args, "TOL_RESIDUAL", 1e-10)
    except ValueError as exc:
        return _invalid(str(exc))
    args.tolerances = Tolerances(radius_rtol=radius, residual_rtol=residual)
    if args.command == "sweep" and (not (0 < args.c_min < args.c_max) or args.steps < 2):
        return _invalid("sweep needs 0 < c-min < c-max and steps >= 2")
    if args.command == "verify" and args.resolution < _MIN_RESOLUTION:
        return _invalid(f"verify needs --resolution >= {_MIN_RESOLUTION}, got {args.resolution}")

    status = EXIT_OK
    meta_extra = None
    try:
        if args.command == "classify":
            rows = _cmd_classify(args, params)
        elif args.command == "predict":
            rows = _cmd_predict(args, params)
        elif args.command == "zeros":
            rows = _cmd_zeros(args, params)
        elif args.command == "thresholds":
            rows = _cmd_thresholds(args, params)
        elif args.command == "sweep":
            rows, meta_extra = _cmd_sweep(args, params)
        elif args.command == "verify":
            rows, ok = _cmd_verify(args, params)
            if not ok:
                status = EXIT_MISMATCH
    except (ArithmeticError, ResolutionTooCoarse) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    text = _emit(args, rows, meta_extra)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
