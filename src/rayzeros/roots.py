"""Locate every zero radius on a ray from brackets read off its three term lines.

all_zeros is one pass over the rows of the cached ray table.  Row j stands
for ray j and its mirror 2m - j, which carry the same radial function
f(r) = (-1)^j r^m + 2 c alpha r^k - 1; its count and tangency at c come from
the row's case and c0.  With alpha = 0, f = r^m - 1 and the zero is r = 1.
Otherwise, in s = log r, f's terms are three lines log |coefficient| + power s:
(0, m), (L, k) and (0, 0), with L = log 2c|alpha|.  One side of f = P - N
holds one of them, the lone line, and the other side the other two, so
F = log P - log N, which has f's sign and never overflows, is +-G with
G = log(two-line side) - lone line: + when the two lines are P's.  The lines
cross at s = 0, L/(m - k) and -L/k.  One unit beyond the outermost crossing
the tail term beats each other term by a factor e > 2 and gives F its sign,
so the two ends bracket a single zero, and a pair is split at s0 = log r0.
Each radius is refined by safeguarded Newton on G in s until a step is at
most 1e-12; steps that leave the bracket bisect it.  Each record of ray j
re-evaluates the full complex function at r times the ray's unit direction
and must pass the residual gate, scaled by r^m where r^m overflows, as soon
as its row is solved.  Since p(conj z) = conj p(z), ray 2m - j's records are
the exact conjugates of ray j's, with the same residual; they are built after
the last row without a second evaluation.  bracket and solve_ray run the same
per-row code for one analyzed ray.
"""
from __future__ import annotations

import math
from array import array
from typing import NamedTuple

from .family import FamilyParams, _alpha_half, _alpha_range, _over_power, evaluate, power_term, unit_direction
from .rays import (
    _LOG2,
    _PROFILES,
    RayAnalysis,
    RayCase,
    _log_r0,
    _side,
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
# the Newton step in log r (a relative change of r) at which refinement stops;
# Newton converges quadratically, so r is then at float precision
_STEP_RTOL = 1e-12
# the residual gate's bound relative to max(1, r^m); Tolerances records it
_RESIDUAL_RTOL = 1e-10


class BracketFailure(ArithmeticError):
    """A sign change the case analysis promised could not be realized, a
    refined zero failed the residual bound, or its radius exceeds the float
    range.  Never silently drops a zero."""


class DegenerateTangency(Exception):
    """c sits in the tangency band: the pair of zeros has merged at r0."""

    def __init__(self, r0: float):
        super().__init__(f"tangential double zero at r0={r0}")
        self.r0 = r0


class Tolerances(NamedTuple):
    """A read-only record of the fixed residual gate, _RESIDUAL_RTOL; no
    function takes it.  Refinement itself stops at a fixed Newton step in
    log r, _STEP_RTOL.

    residual_rtol: accepted records satisfy
        |p(z)| <= residual_rtol * max(1, |z|^m).  Where r^m overflows the
        bound is tested divided through by r^m at the ray's exact angle
        theta = j pi / m, where sin m theta = 0 and cos k theta = alpha_j:
        |(-1)^j + 2 c alpha_j r^(k-m) - r^(-m)| <= residual_rtol.
    """

    residual_rtol: float = _RESIDUAL_RTOL


class ZeroRecord(NamedTuple):
    """A located zero: ray index, radius, complex position, recomputed residual."""

    j: int
    r: float
    z: complex
    residual: float
    degenerate: bool


def _failure(m: int, k: int, c: float, j: int, case: RayCase, what: str) -> BracketFailure:
    return BracketFailure(f"{what}: m={m}, k={k}, c={c!r}, ray {j}, case {case.value}")


def _log_f(lines: tuple, s: float) -> tuple[float, float]:
    """G(s) = log(two-line side) - lone line at s = log r, and G'(s).

    lines is (a0, p0, a1, p1, a2, p2), the lone line a0 + p0 s first.  The
    two-line side is its dominant line times 1 + w, w = e^d <= 1, where d is
    the other line less the dominant one.  The dominant line and the lone line
    are combined before s is scaled, so rounding grows with the difference of
    their powers, not with the powers themselves.
    """
    a0, p0, a1, p1, a2, p2 = lines
    d = (a2 - a1) + (p2 - p1) * s
    if d > 0:
        a1, p1, p2, d = a2, p2, p1, -d
    w = math.exp(d)
    return (a1 - a0) + (p1 - p0) * s + math.log1p(w), (p1 + p2 * w) / (1.0 + w) - p0


def _log_brackets(m: int, k: int, c: float, log_2c: float, parity: int, alpha: float, pair: bool):
    """A row's lines (a0, p0, a1, p1, a2, p2), the sign of F over G, the bracket
    ends in s, one more than its zeros, and whether F < 0 at each end.

    The lone line comes first, then the two-line side's in f's term order.
    L = log_2c + log |alpha|.  Odd j with alpha < 0 has no zero and is never
    bracketed.  At the outer ends F takes the tail term's sign: below, the
    constant -1's (k > 0) or alpha's (k < 0); above, (-1)^j's.
    """
    a_k = log_2c + math.log(abs(alpha))
    if parity:
        lines, sign = (a_k, k, 0.0, m, 0.0, 0), -1.0
    elif alpha > 0:
        lines, sign = (0.0, 0, 0.0, m, a_k, k), 1.0
    else:
        lines, sign = (0.0, m, a_k, k, 0.0, 0), -1.0
    cross = (0.0, a_k / (m - k), -a_k / k)
    ends, negs = [min(cross) - 1.0, max(cross) + 1.0], [k > 0 or alpha < 0, parity == 1]
    if pair:
        s0 = _log_r0(m, k, alpha, c)
        ends.insert(1, s0)
        negs.insert(1, sign * _log_f(lines, s0)[0] < 0)
    return lines, sign, ends, negs


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
    ends = [-1.0, 1.0]  # alpha = 0: f = r^m - 1, whose two lines cross at s = 0
    if analysis.alpha:
        ends = _log_brackets(m, k, c, _LOG2 + math.log(c), analysis.ray.parity, analysis.alpha, n == 2)[2]
    try:
        return [(math.exp(a), math.exp(b)) for a, b in zip(ends, ends[1:])]
    except OverflowError:
        what = f"bracket end at log r = {ends[-1]} beyond the float range"
        raise _failure(m, k, c, analysis.ray.j, analysis.case, what) from None


def _refine(lines, a: float, b: float, a_neg: bool) -> float:
    """Safeguarded Newton on G(s) = +-F(s) inside the bracket [a, b] in
    s = log r, where G(a) < 0 iff a_neg; returns s at the zero.  It stops
    once a step is at most _STEP_RTOL.

    A Newton step that leaves the bracket bisects it instead.  The step size
    is tested before sign(G) moves the bracket: at the root |G| is at rounding
    level and its sign may be wrong.  G / G' = F / F', so the steps are
    Newton's on F.
    """
    rtol = _STEP_RTOL
    s = 0.5 * (a + b)
    for _ in range(_NEWTON_STEPS):
        value, slope = _log_f(lines, s)
        step = value / slope if slope else math.inf
        t = s - step
        if abs(step) <= rtol or t == s:
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


def _solve_row(
    params: FamilyParams, j: int, case: RayCase, alpha: float, c0: float | None, u: complex, log_2c: float
) -> list[ZeroRecord]:
    """The zeros on ray j at params.c from its row's case, alpha and c0, sorted by
    radius; u is the ray's unit direction and log_2c is log 2c.  The row's log
    radii come first, then one loop builds each record and gates its residual;
    the merged pair in the tangency band is not gated."""
    m, k, c = params
    side = _side(c, c0)
    n = _PROFILES[case][side]
    if n == 0:
        return []
    degenerate = side == 1
    if degenerate:
        logs = [_log_r0(m, k, alpha, c)]
    elif not alpha:  # f = r^m - 1: Newton from the bracket's midpoint s = 0 stops there at once
        logs = [0.0]
    else:
        lines, sign, ends, negs = _log_brackets(m, k, c, log_2c, j % 2, alpha, n == 2)
        logs = []
        for a, b, a_neg, b_neg in zip(ends, ends[1:], negs, negs[1:]):
            if a_neg == b_neg:
                raise _failure(m, k, c, j, case, f"endpoint signs agree on log r in [{a}, {b}]")
            logs.append(_refine(lines, a, b, a_neg != (sign < 0)))
    records = []
    for s in logs:
        try:
            r = math.exp(s)
        except OverflowError:
            raise _failure(m, k, c, j, case, f"zero at log r = {s} beyond the float range") from None
        z = r * u
        residual = abs(evaluate(params, z))
        if not degenerate:
            scale = power_term(1.0, r, m)
            if scale == math.inf:  # the bound divided through by r^m, at the ray's exact angle
                real = _over_power(-1.0 if j % 2 else 1.0, c * alpha, r, m, k)
                label, size, bound = "residual |p(z)|/r^m", abs(real), _RESIDUAL_RTOL
            else:
                label, size, bound = "residual", residual, _RESIDUAL_RTOL * max(1.0, scale)
            if not size <= bound:
                raise _failure(m, k, c, j, case, f"{label} {size} exceeds {bound} at r={r}")
        records.append(ZeroRecord(j, r, z, residual, degenerate))
    return records


def solve_ray(params: FamilyParams, analysis: RayAnalysis) -> list[ZeroRecord]:
    """All zeros of p on the analyzed ray at params.c, refined and residual-checked."""
    j = analysis.ray.j
    u, log_2c = unit_direction(params.m, j), _LOG2 + math.log(params.c)
    return _solve_row(params, j, analysis.case, analysis.alpha, analysis.c0, u, log_2c)


def all_zeros(params: FamilyParams) -> list[ZeroRecord]:
    """Every zero of p, ordered by ray index then radius.

    One pass over the ray table's rows 0..m solves and gates ray j of each
    row.  The rows' unit directions come from two whole-range passes, kept
    as float arrays while the rows are solved: cos(j pi / m) = alpha(m, j),
    mirrored beyond j = m/2, and sin(j pi / m) = alpha(2m, |2j - m|).  Ray
    2m - j carries row j's f, and p(conj z) = conj p(z), so its records are
    the conjugates of row j's, with the same residual.
    """
    m, k, c = params
    table = ray_table(m, k)
    cosines = array("d", _alpha_range(m, _alpha_half(m)))
    sines = array("d", _alpha_half(2 * m))
    units = map(complex, cosines, map(sines.__getitem__, map(abs, range(-m, m + 1, 2))))
    log_2c = _LOG2 + math.log(c)
    solved = [
        _solve_row(params, j, case, alpha, c0, u, log_2c)
        for j, case, alpha, c0, u in zip(range(m + 1), table.case, table.alpha, table.c0, units)
    ]
    return [rec for recs in solved for rec in recs] + [
        ZeroRecord(2 * m - j, rec.r, rec.z.conjugate(), rec.residual, rec.degenerate)
        for j in range(m - 1, 0, -1)
        for rec in solved[j]
    ]
