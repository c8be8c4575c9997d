"""Locate every zero radius on a ray from brackets read off its three term lines.

Row j stands for ray j and its mirror 2m - j, which carry the same radial
function f(r) = (-1)^j r^m + 2 c alpha r^k - 1; f depends on the row only
through its parity and alpha = cos(pi s / m), s its folded residue.  So
all_zeros solves rows in the runs rays._runs hands it, rows of one parity,
one case and one count.  With alpha = 0,
f = r^m - 1 and the zero is r = 1.  Otherwise, in s = log r, f's terms are
three lines log |coefficient| + power s: (0, m), (L, k) and (0, 0), with
L = log 2c|alpha|.  One side of f = P - N holds one of them, the lone line,
and the other side the other two, so F = log P - log N, which has f's sign
and never overflows, is +-G with G = log(two-line side) - lone line: + when
the two lines are P's.  The lines cross at s = 0, L/(m - k) and -L/k.  One
unit beyond the outermost crossing the tail term beats each other term by a
factor e > 2 and gives F its sign, so the two ends bracket a single zero, and
a pair is split at s0 = log r0.  The sign of F over G and F's signs at the
outer ends are the run's, settled once; a row takes only L, its lines, its
crossings and, for a pair, s0 and F's sign there.  Each radius is refined by
safeguarded Newton on G in s until a step is at most 1e-12; steps that leave
the bracket bisect it.  Within a run, Newton starts from the secant in alpha
through the same zero of the two rows solved before, whose alphas are the
nearest.  Each record of ray j re-evaluates the full complex function at r
times the ray's unit direction, one r^m shared by both parts, and must pass
the residual gate, scaled by r^m where r^m overflows, as soon as its row is
solved.  Since p(conj z) = conj p(z), ray 2m - j's records are the exact
conjugates of ray j's, with the same residual; they are built after the last
row without a second evaluation.  solve_ray runs the same run solver on one
analyzed ray.
"""
import math
from functools import partial
from itertools import chain
from typing import NamedTuple

from .family import FamilyParams, _over_power, evaluate, unit_direction
from .rays import _LOG2, RayAnalysis, RayCase, _log_r0, _runs, _side, count_at, degenerate_at, extremum_radius
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


# a ZeroRecord from its five fields, without the Python-level __new__
_new_record = partial(tuple.__new__, ZeroRecord)


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


def _log_run(k: int, parity: int, alpha: float) -> tuple[float, bool, bool]:
    """F over G on rows of one parity and one sign of alpha, and whether F < 0 at
    their outer ends: the tail term's sign, below the constant -1's (k > 0) or
    alpha's (k < 0), above (-1)^j's.  Odd j with alpha < 0 is never bracketed."""
    return (1.0 if alpha > 0 and not parity else -1.0), k > 0 or alpha < 0, parity == 1


def _log_brackets(m: int, k: int, log_2c: float, parity: int, alpha: float) -> tuple[tuple, float, float]:
    """A row's lines (a0, p0, a1, p1, a2, p2), lone line first, then the two-line
    side's in f's term order, L = log_2c + log |alpha|, and its outer ends in s,
    one unit beyond the outermost crossing 0, x or y, with no min or max call."""
    a_k = log_2c + math.log(abs(alpha))
    if parity:
        lines = (a_k, k, 0.0, m, 0.0, 0)
    elif alpha > 0:
        lines = (0.0, 0, 0.0, m, a_k, k)
    else:
        lines = (0.0, m, a_k, k, 0.0, 0)
    x, y = a_k / (m - k), -a_k / k
    lo, hi = (x, y) if x < y else (y, x)
    return lines, (lo if lo < 0.0 else 0.0) - 1.0, (hi if hi > 0.0 else 0.0) + 1.0


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
        _, a, b = _log_brackets(m, k, _LOG2 + math.log(c), analysis.ray.parity, analysis.alpha)
        ends = [a, _log_r0(m, k, analysis.alpha, c), b] if n == 2 else [a, b]
    try:
        return [(math.exp(a), math.exp(b)) for a, b in zip(ends, ends[1:])]
    except OverflowError:
        what = f"bracket end at log r = {ends[-1]} beyond the float range"
        raise _failure(m, k, c, analysis.ray.j, analysis.case, what) from None


def _refine(lines, a: float, b: float, a_neg: bool, start: float = math.nan) -> float:
    """Safeguarded Newton on G(s) = +-F(s) inside the bracket [a, b] in
    s = log r, where G(a) < 0 iff a_neg; returns s at the zero.  It starts at
    start, or at the bracket's midpoint where start is not inside it (the
    default), and stops once a step is at most _STEP_RTOL.

    A Newton step that leaves the bracket bisects it instead.  The step size
    is tested before sign(G) moves the bracket: at the root |G| is at rounding
    level and its sign may be wrong.  G / G' = F / F', so the steps are
    Newton's on F.
    """
    rtol = _STEP_RTOL
    s = start if a < start < b else 0.5 * (a + b)
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


def _solve_run(params: FamilyParams, case: RayCase, n: int, degenerate: bool, rows, alphas, units, slots,
               failed=(math.inf, None)):
    """Solve rows, sharing one parity, one sign of alpha, one case and n > 0
    zeros at params.c, into slots[row], each row's records by radius and gated
    before the next row; alphas and units are the rows' own, and degenerate
    marks the band's merged pair, which is not gated.  Zero i starts from the
    secant through zero i of the previous two rows solved (nan, so the
    midpoint, on the first two).  failed is (row, error) of the lowest failing
    row so far: rows at or above it are skipped, and the new lowest is returned."""
    m, k, c = params
    log_2c, parity, rtol = _LOG2 + math.log(c), rows[0] % 2, _RESIDUAL_RTOL
    sign, below, above = _log_run(k, parity, alphas[0])  # once per run
    lead, neg = -1.0 if parity else 1.0, below != (sign < 0)  # G < 0 at the lower outer end
    limit, error = failed
    # zero i's log r on the previous two rows solved, at alpha = last and before
    back = older = [math.nan] * n
    last = before = math.nan
    for x, alpha, u in zip(rows, alphas, units):
        if x >= limit:
            continue
        try:
            if degenerate:
                logs = [_log_r0(m, k, alpha, c)]
            elif not alpha:  # f = r^m - 1: Newton from the bracket's midpoint s = 0 stops there at once
                logs = [0.0]
            else:
                lines, a, b = _log_brackets(m, k, log_2c, parity, alpha)
                ends, agree = (a, b), below == above
                if n == 2:  # split at s0 = log r0, where F must have the sign opposite to both outer ends'
                    s0 = _log_r0(m, k, alpha, c)
                    mid = sign * _log_f(lines, s0)[0] < 0
                    ends, agree = (a, s0, b), mid == below or mid == above
                if agree:
                    i = n == 2 and mid != below  # the first interval whose end signs agree
                    raise _failure(m, k, c, x, case, f"endpoint signs agree on log r in [{ends[i]}, {ends[i + 1]}]")
                ratio = (alpha - last) / (last - before)
                logs = [_refine(lines, a, ends[1], neg, back[0] + (back[0] - older[0]) * ratio)]
                if n == 2:
                    logs.append(_refine(lines, s0, b, not neg, back[1] + (back[1] - older[1]) * ratio))
                back, older, last, before = logs, back, alpha, last
            records = []
            for s in logs:
                try:
                    r = math.exp(s)
                except OverflowError:
                    raise _failure(m, k, c, x, case, f"zero at log r = {s} beyond the float range") from None
                z = r * u
                residual = abs(evaluate(params, z))
                if not degenerate:
                    try:  # max(1, r^m), with r^m taken only where it exceeds 1
                        label, size, bound = "residual", residual, rtol * (r ** m if r > 1.0 else 1.0)
                    except OverflowError:  # the bound divided through by r^m, at the ray's exact angle
                        label, size, bound = "residual |p(z)|/r^m", abs(_over_power(lead, c * alpha, r, m, k)), rtol
                    if not size <= bound:
                        raise _failure(m, k, c, x, case, f"{label} {size} exceeds {bound} at r={r}")
                records.append(_new_record((x, r, z, residual, degenerate)))
        except BracketFailure as exc:
            limit, error = x, exc
            continue
        slots[x] = records
    return limit, error


def solve_ray(params: FamilyParams, analysis: RayAnalysis) -> list[ZeroRecord]:
    """All zeros of p on the analyzed ray at params.c, refined and residual-checked."""
    j = analysis.ray.j
    side = _side(params.c, analysis.c0)
    n = analysis.profile[side]
    if not n:
        return []
    records, u = {}, unit_direction(params.m, j)
    error = _solve_run(params, analysis.case, n, side == 1, [j], [analysis.alpha], [u], records)[1]
    if error:
        raise error
    return records[j]


def all_zeros(params: FamilyParams) -> list[ZeroRecord]:
    """Every zero of p, ordered by ray index then radius.

    Each run rays._runs hands over is one _solve_run; a failure raises once
    the rows below the failing row are solved, so the lowest failing row
    names the error.
    """
    m = params.m
    slots, failed = [()] * (m + 1), (math.inf, None)
    for run in _runs(params):
        failed = _solve_run(params, *run, slots, failed)
    if failed[1]:
        raise failed[1]
    return list(chain.from_iterable(slots)) + [
        _new_record((2 * m - j, r, z.conjugate(), residual, degenerate))
        for row in slots[m - 1:0:-1]
        for j, r, z, residual, degenerate in row
    ]
