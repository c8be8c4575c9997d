"""Locate every zero radius on a ray from brackets read off its term lines.

all_zeros is one pass over the rows of the cached ray table.  Row j stands
for ray j and its mirror 2m - j, which carry the same radial function
f(r) = (-1)^j r^m + 2 c alpha r^k - 1; its count and tangency at c come from
the row's case and c0.  In s = log r each of f's at most three terms is a
line log |coefficient| + power * s.  One unit beyond the outermost pairwise
crossing of these lines the tail term beats each other term by a factor
e > 2, so there f has that term's sign: the two ends bracket a single zero,
and a pair of zeros is split at s0 = log r0.  Every sign is read from
F = log P - log N, where P and N are f's positive and negative terms, so F
has f's sign and never overflows.  Each radius is refined by safeguarded
Newton on F in s; steps that leave the bracket bisect it.  Each record of
ray j re-evaluates the full complex function and must pass the residual
gate, scaled by r^m where r^m overflows, as soon as its row is solved.
Since p(conj z) = conj p(z), ray 2m - j's records are the exact conjugates
of ray j's, with the same residual; they are built after the last row
without a second evaluation.  bracket and solve_ray run the same per-row
code for one analyzed ray.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .family import FamilyParams, _over_power, _polar_trig, evaluate, power_term, unit_direction
from .rays import (
    _PROFILES,
    RayAnalysis,
    RayCase,
    _count,
    _in_band,
    _log_f,
    _log_r0,
    _log_split,
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
    "bracket",
    "solve_ray",
    "all_zeros",
]


# bound on the Newton-or-bisection steps per zero; bisection alone takes the
# widest bracket in s, about 1400, to 1e-12 in 51 steps
_NEWTON_STEPS = 100


class BracketFailure(ArithmeticError):
    """A sign change the case analysis promised could not be realized, a
    refined zero failed the residual bound, or its radius exceeds the float
    range.  Never silently drops a zero."""


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
        |p(z)| <= residual_rtol * max(1, |z|^m).  Where |z|^m overflows the
        bound is tested divided through by r^m = |z|^m, with theta = arg z:
        |cos m theta + 2 c cos k theta r^(k-m) - r^(-m) + i sin m theta|
        <= residual_rtol.
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


def _failure(m: int, k: int, c: float, j: int, case: RayCase, what: str) -> BracketFailure:
    return BracketFailure(f"{what}: m={m}, k={k}, c={c!r}, ray {j}, case {case.value}")


def _log_brackets(m: int, k: int, c: float, parity: int, alpha: float, pair: bool):
    """The row's log split and one interval in s = log r per zero of its f, as
    (a, F(a), b, F(b)).

    The ends lie one unit beyond the outermost crossing of f's term lines
    a + p s.  The powers are distinct integers, so there the tail term beats
    each other term by a factor e > 2 and gives F its sign.  A pair of zeros
    is split at s0 = log r0.
    """
    split = _log_split(parity, m, k, c, alpha)
    lines = split[0] + split[1]
    cross = [(a2 - a1) / (p1 - p2) for (a1, p1), (a2, p2) in combinations(lines, 2)]
    ends = [min(cross) - 1.0, max(cross) + 1.0]
    if pair:
        ends.insert(1, _log_r0(m, k, alpha, c))
    points = [(s, _log_f(split, s)[0]) for s in ends]
    return split, [lo + hi for lo, hi in zip(points, points[1:])]


def bracket(analysis: RayAnalysis, c: float) -> list[tuple[float, float]]:
    """One strict sign-change interval per zero of f on the ray at parameter c.

    Raises DegenerateTangency inside the tangency band (the caller should
    report the single merged zero at r0 instead), and BracketFailure where an
    end exceeds the float range.
    """
    n = count_at(analysis, c)
    if n == 0:
        return []
    if degenerate_at(analysis, c):
        raise DegenerateTangency(extremum_radius(analysis, c))
    m, k = analysis.params.m, analysis.params.k
    _, intervals = _log_brackets(m, k, c, analysis.ray.parity, analysis.alpha, n == 2)
    try:
        return [(math.exp(a), math.exp(b)) for a, _, b, _ in intervals]
    except OverflowError:
        what = f"bracket end at log r = {intervals[-1][2]} beyond the float range"
        raise _failure(m, k, c, analysis.ray.j, analysis.case, what) from None


def _refine(split, a: float, b: float, a_neg: bool, radius_rtol: float) -> float:
    """Safeguarded Newton on F(s) = log P - log N inside the bracket [a, b] in
    s = log r, where F(a) < 0 iff a_neg; returns s at the zero.

    A Newton step that leaves the bracket bisects it instead.  The step size
    is tested before sign(F) moves the bracket: at the root |F| is at rounding
    level and its sign may be wrong.
    """
    s = 0.5 * (a + b)
    for _ in range(_NEWTON_STEPS):
        value, slope = _log_f(split, s)
        step = value / slope if slope else math.inf
        t = s - step
        if abs(step) <= radius_rtol or t == s:
            return t
        if (value < 0) == a_neg:
            a = s
        else:
            b = s
        if not a < t < b:
            t = 0.5 * (a + b)
            if not a < t < b:
                break  # float grid exhausted
        s = t
    return s


def _radius(m: int, k: int, c: float, j: int, case: RayCase, s: float) -> float:
    """The radius e^s of a zero on ray j; BracketFailure where it exceeds the float range."""
    try:
        return math.exp(s)
    except OverflowError:
        raise _failure(m, k, c, j, case, f"zero at log r = {s} beyond the float range") from None


def _record(
    params: FamilyParams, j: int, case: RayCase, r: float, u: complex, degenerate: bool, tol: Tolerances
) -> ZeroRecord:
    """The record of the zero at radius r on ray j, whose unit direction is u."""
    m, k, c = params.m, params.k, params.c
    z = r * u
    residual = abs(evaluate(params, z))
    if not degenerate:
        scale = power_term(1.0, r, m)
        if scale == math.inf:  # the bound divided through by r^m
            rz, cos_m, cos_k, sin_m = _polar_trig(m, k, z)
            real = _over_power(cos_m, c * cos_k, rz, m, k)
            label, size, bound = "residual |p(z)|/r^m", abs(complex(real, sin_m)), tol.residual_rtol
        else:
            label, size, bound = "residual", residual, tol.residual_rtol * max(1.0, scale)
        if not size <= bound:
            raise _failure(m, k, c, j, case, f"{label} {size} exceeds {bound} at r={r}")
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
    u = unit_direction(m, j)
    if c0 is not None and _in_band(c, c0):
        return [_record(params, j, case, _radius(m, k, c, j, case, _log_r0(m, k, alpha, c)), u, True, tol)]

    split, intervals = _log_brackets(m, k, c, j % 2, alpha, n == 2)
    records = []
    for a, fa, b, fb in intervals:
        if (fa < 0) == (fb < 0):
            raise _failure(m, k, c, j, case, f"endpoint signs agree on log r in [{a}, {b}]")
        r = _radius(m, k, c, j, case, _refine(split, a, b, fa < 0, tol.radius_rtol))
        records.append(_record(params, j, case, r, u, False, tol))
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

    One pass over the ray table's rows 0..m solves and gates ray j of each
    row.  Ray 2m - j carries row j's f, and p(conj z) = conj p(z), so its
    records are the conjugates of row j's, with the same residual.
    """
    tol = tolerances or Tolerances()
    m = params.m
    table = ray_table(m, params.k)
    cases, alphas, c0s = table.case, table.alpha, table.c0
    solved = [_solve_row(params, j, cases[j], alphas[j], c0s[j], tol) for j in range(m + 1)]
    return [rec for recs in solved for rec in recs] + [
        ZeroRecord(2 * m - j, rec.r, rec.z.conjugate(), rec.residual, rec.degenerate)
        for j in range(m - 1, 0, -1)
        for rec in solved[j]
    ]
