"""Locate every zero radius on a ray from brackets the case analysis guarantees.

all_zeros is one pass over the rows of the cached ray table.  Row j stands
for ray j and its mirror 2m - j, which carry the same radial function
f(r) = (-1)^j r^m + 2 c alpha r^k - 1; its count and tangency at c come from
the row's case and c0.  The case pins down the sign of f at small radii, at
the extremum r0 (when there is one), and at the outer bound
R = max(1, (2c+2)^{1/(m-|k|)}) + 1, beyond which the degree-m term dominates.
That yields one strict sign-change interval per zero: monotone cases bracket
directly, unimodal cases split at r0.  f is evaluated once at each bracket
endpoint, by the seek that finds it (at r0, once for both intervals), and
that value is the endpoint's sign check.  Each radius is refined by
safeguarded Newton in s = log r on F = log P - log N, where P and N are f's
positive and negative terms, so F has f's sign and never overflows; steps
that leave the bracket bisect it in s.  Every record re-evaluates the full
complex function and must pass the scaled residual bound: ray j's records as
soon as its row is solved, ray 2m - j's, with the same radii, after the last
row.  bracket and solve_ray run the same per-row code for one analyzed ray.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

from .family import FamilyParams, evaluate, power_term, unit_direction
from .rays import (
    _PROFILES,
    EXTREMUM_CASES,
    RayAnalysis,
    RayCase,
    _count,
    _f,
    _in_band,
    _log_f,
    _log_split,
    _r0,
    _terms,
    count_at,
    degenerate_at,
    extremum_radius,
    ray_table,
)
# unused here but still bound: perfbench/tracing.py wraps these roots bindings
from .rays import analyze_ray, f_derivative, f_value  # noqa: F401

__all__ = [
    "Tolerances",
    "ZeroRecord",
    "BracketFailure",
    "DegenerateTangency",
    "outer_radius",
    "bracket",
    "solve_ray",
    "all_zeros",
]


# bound on the Newton-or-bisection steps per zero; bisection alone takes the
# widest bracket in s, about 1400, to 1e-12 in 51 steps
_NEWTON_STEPS = 100


class BracketFailure(ArithmeticError):
    """A sign change the case analysis promised could not be realized, or a
    refined zero failed the residual bound.  Never silently drops a zero."""


class DegenerateTangency(Exception):
    """c sits in the tangency band: the pair of zeros has merged at r0."""

    def __init__(self, r0: float):
        super().__init__(f"tangential double zero at r0={r0}")
        self.r0 = r0


@dataclass(frozen=True, slots=True)
class Tolerances:
    """Refinement and acceptance tolerances.

    radius_rtol: the Newton step in log r (a relative change of r) at which
        refinement stops.
    residual_rtol: accepted records must satisfy
        |p(z)| <= residual_rtol * max(1, |z|^m).
    """

    radius_rtol: float = 1e-12
    residual_rtol: float = 1e-10


@dataclass(frozen=True, slots=True)
class ZeroRecord:
    """A located zero: ray index, radius, complex position, recomputed residual."""

    j: int
    r: float
    z: complex
    residual: float
    degenerate: bool


def outer_radius(m: int, k: int, c: float) -> float:
    """R with |r^m| strictly dominant for r >= R on every ray."""
    return max(1.0, (2.0 * c + 2.0) ** (1.0 / (m - abs(k)))) + 1.0


def _sign_ok(v: float, want_negative: bool) -> bool:
    return (v < 0) if want_negative else (v > 0)


def _seek_lo(f, lo: float, want_negative: bool) -> tuple[float, float]:
    """Shrink lo toward 0 until f(lo) has the required strict sign; returns (lo, f(lo))."""
    for _ in range(600):
        value = f(lo)
        if _sign_ok(value, want_negative):
            return lo, value
        lo /= 4.0
        if lo == 0.0:
            break
    raise BracketFailure("could not realize the inner bracket endpoint sign")


def _seek_hi(f, hi: float, want_negative: bool) -> tuple[float, float]:
    """Grow hi until f(hi) has the required strict sign; returns (hi, f(hi))
    (defensive; one pass normally suffices because R is already dominant)."""
    for _ in range(80):
        value = f(hi)
        if _sign_ok(value, want_negative):
            return hi, value
        hi *= 2.0
    raise BracketFailure("could not realize the outer bracket endpoint sign")


def _row_brackets(
    case: RayCase, terms: tuple[float, int, float, int], c: float, alpha: float, r0: float | None
) -> list[tuple[float, float, float, float]]:
    """One strict sign-change interval per zero of a row's f at c, as (lo, f(lo), hi, f(hi)).

    ``terms`` are the row's _terms.  Each endpoint's f value is the one its
    seek tested; f(r0) is evaluated once for both intervals of a pair.
    """
    f = partial(_f, *terms)
    _, m, _, k = terms
    hi = outer_radius(m, k, c)

    if case in (RayCase.EVEN_ALPHA_ZERO, RayCase.POS_K_EVEN_POS):
        # f(0+) = -1, increasing to +inf
        return [_seek_lo(f, 0.5, want_negative=True) + _seek_hi(f, hi, want_negative=False)]
    if case is RayCase.POS_K_EVEN_NEG:
        # dips to a strictly negative minimum at r0, then climbs; split there
        return [_seek_lo(f, r0, want_negative=True) + _seek_hi(f, hi, want_negative=False)]
    if case is RayCase.NEG_K_EVEN_NEG:
        # increasing from -inf; f(1) = 2 c alpha < 0
        return [_seek_lo(f, 1.0, want_negative=True) + _seek_hi(f, hi, want_negative=False)]
    if case is RayCase.NEG_K_ODD_POS:
        # decreasing from +inf; the middle term dominates below (c*alpha/2)^(1/|k|)
        start = 0.9 * min(1.0, math.exp((math.log(c) + math.log(alpha) - math.log(2.0)) / abs(k)))
        return [_seek_lo(f, start, want_negative=False) + _seek_hi(f, hi, want_negative=True)]
    if case is RayCase.POS_K_ODD_POS:
        # c above c0: maximum at r0 is strictly positive, tails are negative
        lo = _seek_lo(f, min(sys.float_info.min * 4.0, r0 / 2.0), want_negative=True)
        hi = _seek_hi(f, hi, want_negative=True)
    elif case is RayCase.NEG_K_EVEN_POS:
        # c below c0: minimum at r0 is strictly negative, both tails positive
        start = 0.9 * min(r0, 1.0, math.exp((math.log(c) + math.log(alpha)) / abs(k)))
        lo = _seek_lo(f, start, want_negative=False)
        hi = _seek_hi(f, hi, want_negative=False)
    else:
        raise BracketFailure(f"case {case} should have no zeros to bracket")
    mid = (r0, f(r0))
    return [lo + mid, mid + hi]


def bracket(analysis: RayAnalysis, c: float) -> list[tuple[float, float]]:
    """One strict sign-change interval per zero of f on the ray at parameter c.

    Raises DegenerateTangency inside the tangency band (the caller should
    report the single merged zero at r0 instead).
    """
    if count_at(analysis, c) == 0:
        return []
    r0 = extremum_radius(analysis, c)
    if degenerate_at(analysis, c):
        raise DegenerateTangency(r0)
    params, alpha = analysis.params, analysis.alpha
    terms = _terms(analysis.ray.parity, params.m, params.k, c, alpha)
    return [(lo, hi) for lo, _, hi, _ in _row_brackets(analysis.case, terms, c, alpha, r0)]


def _refine(split, lo: float, flo: float, hi: float, fhi: float, radius_rtol: float) -> float:
    """Safeguarded Newton on F(s) = log P - log N in s = log r inside the bracket.

    flo and fhi are f at the bracket's ends and must differ in sign.  A Newton
    step that leaves the bracket bisects it in s instead.  The step size is
    tested before sign(F) moves the bracket: at the root |F| is at rounding
    level and its sign may be wrong.
    """
    if not (flo < 0) != (fhi < 0):
        raise BracketFailure(f"endpoint signs agree on [{lo}, {hi}]")
    lo_neg = flo < 0
    a, b = math.log(lo), math.log(hi)
    s = 0.5 * (a + b)
    for _ in range(_NEWTON_STEPS):
        value, slope = _log_f(split, s)
        step = value / slope if slope else math.inf
        t = s - step
        if abs(step) <= radius_rtol or t == s:
            return math.exp(t)
        if (value < 0) == lo_neg:
            a = s
        else:
            b = s
        if not a < t < b:
            t = 0.5 * (a + b)
            if not a < t < b:
                break  # float grid exhausted
        s = t
    return math.exp(s)


def _record(
    params: FamilyParams, j: int, r: float, u: complex, degenerate: bool, tol: Tolerances
) -> ZeroRecord:
    """The record of the zero at radius r on ray j, whose unit direction is u."""
    z = r * u
    residual = abs(evaluate(params, z))
    if not degenerate:
        bound = tol.residual_rtol * max(1.0, power_term(1.0, r, params.m))
        if not residual <= bound:
            raise BracketFailure(
                f"residual {residual} exceeds {bound} at ray {j}, r={r}"
            )
    return ZeroRecord(j=j, r=r, z=z, residual=residual, degenerate=degenerate)


def _solve_row(
    params: FamilyParams, j: int, case: RayCase, alpha: float, c0: float | None, tol: Tolerances
) -> list[ZeroRecord]:
    """The zeros on ray j at params.c from its row's case, alpha and c0, sorted by
    radius; each record passes the residual gate as soon as it is refined."""
    m, k, c = params.m, params.k, params.c
    n = _count(_PROFILES[case], c0, c)
    if n == 0:
        return []
    r0 = _r0(m, k, alpha, c) if case in EXTREMUM_CASES else None
    u = unit_direction(m, j)
    if c0 is not None and _in_band(c, c0):
        return [_record(params, j, r0, u, True, tol)]

    terms = _terms(j % 2, m, k, c, alpha)
    intervals = _row_brackets(case, terms, c, alpha, r0)
    if len(intervals) != n:
        raise BracketFailure(f"expected {n} brackets on ray {j}, built {len(intervals)}")
    split = _log_split(*terms)
    records = [
        _record(params, j, _refine(split, *interval, tol.radius_rtol), u, False, tol)
        for interval in intervals
    ]
    records.sort(key=lambda rec: rec.r)
    return records


def solve_ray(
    params: FamilyParams, analysis: RayAnalysis, tolerances: Tolerances | None = None
) -> list[ZeroRecord]:
    """All zeros of p on the analyzed ray at params.c, refined and residual-checked."""
    return _solve_row(
        params, analysis.ray.j, analysis.case, analysis.alpha, analysis.c0, tolerances or Tolerances()
    )


def all_zeros(params: FamilyParams, tolerances: Tolerances | None = None) -> list[ZeroRecord]:
    """Every zero of p, ordered by ray index then radius.

    One pass over the ray table's rows 0..m solves ray j of each row; ray
    j > m reuses the radii of its mirror 2m - j, and each of its records
    passes its own residual gate.
    """
    tol = tolerances or Tolerances()
    m = params.m
    table = ray_table(m, params.k)
    cases, alphas, c0s = table.case, table.alpha, table.c0
    solved = [_solve_row(params, j, cases[j], alphas[j], c0s[j], tol) for j in range(m + 1)]
    out = [rec for recs in solved for rec in recs]
    for j in range(m + 1, 2 * m):
        mirror = solved[2 * m - j]
        if mirror:
            u = unit_direction(m, j)
            out.extend(_record(params, j, rec.r, u, rec.degenerate, tol) for rec in mirror)
    return out
