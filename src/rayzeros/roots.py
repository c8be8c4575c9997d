"""Locate every zero radius on a ray from brackets the case analysis guarantees.

Each case shape pins down the sign of f at small radii, at the
extremum r0 (when there is one), and at the outer bound
R = max(1, (2c+2)^{1/(m-|k|)}) + 1, beyond which the degree-m term dominates.
That yields one strict sign-change interval per zero: monotone cases bracket
directly, unimodal cases split at r0.  Each radius is refined by safeguarded
Newton in s = log r on F = log P - log N, where P and N are f's positive and
negative terms, so F has f's sign and never overflows; steps that leave the
bracket bisect it in s.  Every accepted record re-evaluates the full complex
function and must pass the scaled residual bound.  Ray 2m-j carries the same
radial function as ray j, so all_zeros solves each conjugate pair once and
emits its radii on both rays.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .family import FamilyParams, evaluate, power_term, unit_direction
from .rays import (
    RayAnalysis,
    RayCase,
    _log_f,
    _log_split,
    analyze_ray,
    count_at,
    degenerate_at,
    extremum_radius,
    f_value,
)
# f_derivative is unused here but stays bound: perfbench/tracing.py wraps roots.f_derivative
from .rays import f_derivative  # noqa: F401

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


def _seek_lo(f, lo: float, want_negative: bool) -> float:
    """Shrink lo toward 0 until f(lo) has the required strict sign."""
    for _ in range(600):
        if _sign_ok(f(lo), want_negative):
            return lo
        lo /= 4.0
        if lo == 0.0:
            break
    raise BracketFailure("could not realize the inner bracket endpoint sign")


def _seek_hi(f, hi: float, want_negative: bool) -> float:
    """Grow hi until f(hi) has the required strict sign (defensive; one pass
    normally suffices because R is already dominant)."""
    for _ in range(80):
        if _sign_ok(f(hi), want_negative):
            return hi
        hi *= 2.0
    raise BracketFailure("could not realize the outer bracket endpoint sign")


def bracket(analysis: RayAnalysis, c: float) -> list[tuple[float, float]]:
    """One strict sign-change interval per zero of f on the ray at parameter c.

    Raises DegenerateTangency inside the tangency band (the caller should
    report the single merged zero at r0 instead).
    """
    params = analysis.params
    if c != params.c:
        params = FamilyParams(params.m, params.k, float(c))
    n = count_at(analysis, c)
    if n == 0:
        return []
    r0 = extremum_radius(analysis, c)
    if degenerate_at(analysis, c):
        raise DegenerateTangency(r0)

    m, k = params.m, params.k
    ray = analysis.ray
    alpha = analysis.alpha

    def f(r: float) -> float:
        return f_value(params, ray, r, alpha)

    hi = outer_radius(m, k, c)
    case = analysis.case

    if case in (RayCase.EVEN_ALPHA_ZERO, RayCase.POS_K_EVEN_POS):
        # f(0+) = -1, increasing to +inf
        lo = _seek_lo(f, 0.5, want_negative=True)
        return [(lo, _seek_hi(f, hi, want_negative=False))]
    if case is RayCase.POS_K_EVEN_NEG:
        # dips to a strictly negative minimum at r0, then climbs; split there
        lo = _seek_lo(f, r0, want_negative=True)
        return [(lo, _seek_hi(f, hi, want_negative=False))]
    if case is RayCase.NEG_K_EVEN_NEG:
        # increasing from -inf; f(1) = 2 c alpha < 0
        lo = _seek_lo(f, 1.0, want_negative=True)
        return [(lo, _seek_hi(f, hi, want_negative=False))]
    if case is RayCase.NEG_K_ODD_POS:
        # decreasing from +inf; the middle term dominates below (c*alpha/2)^(1/|k|)
        start = 0.9 * min(1.0, math.exp((math.log(c) + math.log(alpha) - math.log(2.0)) / abs(k)))
        lo = _seek_lo(f, start, want_negative=False)
        return [(lo, _seek_hi(f, hi, want_negative=True))]
    if case is RayCase.POS_K_ODD_POS:
        # c above c0: maximum at r0 is strictly positive, tails are negative
        lo = _seek_lo(f, min(sys.float_info.min * 4.0, r0 / 2.0), want_negative=True)
        return [(lo, r0), (r0, _seek_hi(f, hi, want_negative=True))]
    if case is RayCase.NEG_K_EVEN_POS:
        # c below c0: minimum at r0 is strictly negative, both tails positive
        start = 0.9 * min(r0, 1.0, math.exp((math.log(c) + math.log(alpha)) / abs(k)))
        lo = _seek_lo(f, start, want_negative=False)
        return [(lo, r0), (r0, _seek_hi(f, hi, want_negative=False))]
    raise BracketFailure(f"case {case} should have no zeros to bracket")


def _refine(f, split, lo: float, hi: float, radius_rtol: float) -> float:
    """Safeguarded Newton on F(s) = log P - log N in s = log r inside the bracket.

    f checks the bracket's endpoint signs.  A Newton step that leaves the
    bracket bisects it in s instead.  The step size is tested before sign(F)
    moves the bracket: at the root |F| is at rounding level and its sign may
    be wrong.
    """
    flo = f(lo)
    fhi = f(hi)
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


def _record(params: FamilyParams, j: int, r: float, degenerate: bool, tol: Tolerances) -> ZeroRecord:
    z = r * unit_direction(params.m, j)
    residual = abs(evaluate(params, z))
    if not degenerate:
        bound = tol.residual_rtol * max(1.0, power_term(1.0, r, params.m))
        if not residual <= bound:
            raise BracketFailure(
                f"residual {residual} exceeds {bound} at ray {j}, r={r}"
            )
    return ZeroRecord(j=j, r=r, z=z, residual=residual, degenerate=degenerate)


def solve_ray(
    params: FamilyParams, analysis: RayAnalysis, tolerances: Tolerances | None = None
) -> list[ZeroRecord]:
    """All zeros of p on the analyzed ray at params.c, refined and residual-checked."""
    tol = tolerances or Tolerances()
    c = params.c
    n = count_at(analysis, c)
    if n == 0:
        return []
    if degenerate_at(analysis, c):
        return [_record(params, analysis.ray.j, extremum_radius(analysis, c), True, tol)]

    intervals = bracket(analysis, c)
    if len(intervals) != n:
        raise BracketFailure(
            f"expected {n} brackets on ray {analysis.ray.j}, built {len(intervals)}"
        )

    ray, alpha = analysis.ray, analysis.alpha

    def f(r: float) -> float:
        return f_value(params, ray, r, alpha)

    split = _log_split(params, ray, alpha)
    records = [
        _record(params, analysis.ray.j, _refine(f, split, lo, hi, tol.radius_rtol), False, tol)
        for lo, hi in intervals
    ]
    records.sort(key=lambda rec: rec.r)
    return records


def all_zeros(params: FamilyParams, tolerances: Tolerances | None = None) -> list[ZeroRecord]:
    """Every zero of p, ordered by ray index then radius.

    Rays 0..m are solved in order; ray j > m reuses the radii of its mirror
    2m - j, and each of its records passes its own residual gate.
    """
    tol = tolerances or Tolerances()
    m = params.m
    solved = [solve_ray(params, analyze_ray(params, j), tol) for j in range(m + 1)]
    out = [rec for recs in solved for rec in recs]
    for j in range(m + 1, 2 * m):
        out.extend(_record(params, j, rec.r, rec.degenerate, tol) for rec in solved[2 * m - j])
    return out
