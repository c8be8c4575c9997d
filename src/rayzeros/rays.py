"""Per-ray analysis of f_j(r) = (-1)^j r^m + 2 c alpha r^k - 1.

Restricting p to ray j leaves this real function of the radius, and its
positive zeros are exactly the moduli of p's zeros on that ray.  The zero
count is decided by the sign of k, the parity of j, and the sign of alpha,
splitting into ten cases:

  alpha = 0            even j: one zero at r = 1;  odd j: none
  k > 0, even j        one zero for every c (any sign of alpha)
  k > 0, odd j, a < 0  none
  k > 0, odd j, a > 0  none below c0, two above (pair appears)
  k < 0, odd j, a < 0  none
  k < 0, even j, a < 0 one zero for every c
  k < 0, odd j, a > 0  one zero for every c
  k < 0, even j, a > 0 two below c0, none above (pair disappears)

In the two threshold cases f has a single interior extremum at
r0 = (2 c |k| alpha / m)^{1/(m-k)} whose value crosses 0 at

    c0 = beta^{-(m-k)/m},
    beta = (2 alpha)^{m/(m-k)} * ( (k/m)^{k/(m-k)} - (k/m)^{m/(m-k)} )    k > 0
    beta = (2 alpha)^{m/(m-k)} * ( (|k|/m)^{m/(m-k)} + (|k|/m)^{k/(m-k)} ) k < 0

beta is evaluated in the log domain; the exponent m/(m-k) grows like m when
|k| is close to m and would otherwise over/underflow.

Ray j and ray 2m-j have the same parity and the residues t and 2m-t, so they
carry the same alpha and the same radial function.  The c-independent facts
of the m+1 conjugate groups live in one cached RayTable per (m, k), the single
source of c0; analyze_ray, thresholds, the census and the global count all
read it.  A row's facts follow from its parity and its folded residue
s = min(t, 2m-t), so the table is built in whole-table passes: alpha once per
s <= m/2 (alpha(m-s) = -alpha(s)), the case and count profile once per parity
and alpha sign, and every threshold row's c0 from one _log_betas call.
"""
from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate, compress, cycle

from .family import (
    FamilyParams,
    RayDescriptor,
    Sign,
    _dominant_sum,
    alpha_from_residue,
    classify_ray,
    power_term,
)

__all__ = [
    "RayCase",
    "CountProfile",
    "RayAnalysis",
    "Threshold",
    "RayTable",
    "DEGENERACY_RTOL",
    "f_value",
    "f_derivative",
    "analyze_ray",
    "count_at",
    "degenerate_at",
    "extremum_radius",
    "thresholds",
    "ray_table",
]

# relative half-width of the band around c0 treated as an exact tangency;
# shared with the root finder so predicted counts always match emitted zeros
DEGENERACY_RTOL = 1e-9

# ray tables kept per process; one at m = 500 holds about 17 KB
_TABLE_CACHE_SIZE = 16


class RayCase(Enum):
    EVEN_ALPHA_ZERO = "even_alpha_zero"
    ODD_ALPHA_ZERO = "odd_alpha_zero"
    POS_K_EVEN_POS = "pos_k_even_pos"
    POS_K_ODD_NEG = "pos_k_odd_neg"
    POS_K_EVEN_NEG = "pos_k_even_neg"
    POS_K_ODD_POS = "pos_k_odd_pos"
    NEG_K_ODD_NEG = "neg_k_odd_neg"
    NEG_K_EVEN_NEG = "neg_k_even_neg"
    NEG_K_ODD_POS = "neg_k_odd_pos"
    NEG_K_EVEN_POS = "neg_k_even_pos"


@dataclass(frozen=True, slots=True)
class CountProfile:
    below: int
    at_threshold: int
    above: int


# count below c0, at c0 and above c0; constant cases repeat one value
_PROFILES: dict[RayCase, CountProfile] = {
    RayCase.EVEN_ALPHA_ZERO: CountProfile(1, 1, 1),
    RayCase.ODD_ALPHA_ZERO: CountProfile(0, 0, 0),
    RayCase.POS_K_EVEN_POS: CountProfile(1, 1, 1),
    RayCase.POS_K_ODD_NEG: CountProfile(0, 0, 0),
    RayCase.POS_K_EVEN_NEG: CountProfile(1, 1, 1),
    RayCase.POS_K_ODD_POS: CountProfile(0, 1, 2),
    RayCase.NEG_K_ODD_NEG: CountProfile(0, 0, 0),
    RayCase.NEG_K_EVEN_NEG: CountProfile(1, 1, 1),
    RayCase.NEG_K_ODD_POS: CountProfile(1, 1, 1),
    RayCase.NEG_K_EVEN_POS: CountProfile(2, 1, 0),
}

THRESHOLD_CASES = frozenset({RayCase.POS_K_ODD_POS, RayCase.NEG_K_EVEN_POS})
EXTREMUM_CASES = THRESHOLD_CASES | {RayCase.POS_K_EVEN_NEG}


@dataclass(frozen=True, slots=True)
class RayAnalysis:
    """Everything the counting and root finding need to know about one ray.

    ``r0`` is the extremum radius at params.c (None when f is monotone on the
    ray); ``c0``/``log_beta`` exist only for the two threshold cases and do not
    depend on c.  ``alpha``, ``case`` and ``c0`` come from the ray table.
    """

    params: FamilyParams
    ray: RayDescriptor
    alpha: float
    case: RayCase
    profile: CountProfile
    r0: float | None = None
    log_beta: float | None = None
    c0: float | None = None

    @property
    def beta(self) -> float | None:
        """exp(log_beta), inf where that overflows (|k| close to m)."""
        if self.log_beta is None:
            return None
        try:
            return math.exp(self.log_beta)
        except OverflowError:
            return math.inf


@dataclass(frozen=True, slots=True)
class Threshold:
    """A critical parameter value and the rays that share it exactly."""

    c0: float
    rays: tuple[int, ...]
    alpha: float
    residue_class: int


def _case_of(k: int, parity: int, alpha_sign: Sign) -> RayCase:
    if alpha_sign == Sign.ZERO:
        return RayCase.EVEN_ALPHA_ZERO if parity == 0 else RayCase.ODD_ALPHA_ZERO
    if k > 0:
        if parity == 0:
            return RayCase.POS_K_EVEN_POS if alpha_sign > 0 else RayCase.POS_K_EVEN_NEG
        return RayCase.POS_K_ODD_POS if alpha_sign > 0 else RayCase.POS_K_ODD_NEG
    if parity == 0:
        return RayCase.NEG_K_EVEN_POS if alpha_sign > 0 else RayCase.NEG_K_EVEN_NEG
    return RayCase.NEG_K_ODD_POS if alpha_sign > 0 else RayCase.NEG_K_ODD_NEG


def _terms(parity: int, m: int, k: int, c: float, alpha: float) -> tuple[float, int, float, int]:
    """f's terms on a ray as _f and _log_split take them: (sgn, m, b, k) with
    sgn = (-1)^j and b = 2 c alpha."""
    return (-1.0 if parity else 1.0, m, 2.0 * c * alpha, k)


def _f(sgn: float, m: int, b: float, k: int, r: float) -> float:
    """f on one ray, sgn r^m + b r^k - 1, with overflow resolved by dominance."""
    if r <= 0:
        raise ValueError(f"need r > 0, got {r}")
    return _dominant_sum(power_term(sgn, r, m), power_term(b, r, k)) - 1.0


def f_value(
    params: FamilyParams, ray: RayDescriptor, r: float, alpha: float | None = None
) -> float:
    """(-1)^j r^m + 2 c alpha r^k - 1, with overflow resolved by dominance.

    ``alpha`` is the ray's folded cosine, recomputed from its residue when the
    caller does not hold it already.
    """
    if alpha is None:
        alpha = alpha_from_residue(params.m, ray.residue)
    return _f(*_terms(ray.parity, params.m, params.k, params.c, alpha), r)


# one side of f's log split: its terms as (log |coefficient|, power)
_Side = tuple[tuple[float, int], ...]


def _log_split(sgn: float, m: int, b: float, k: int) -> tuple[_Side, _Side]:
    """The terms of _f's sgn r^m + b r^k - 1 split by sign into the sides P > 0
    and N > 0 of f = P - N.

    Each side lists its terms as (log |coefficient|, power), so a term is
    exp(log |coefficient| + power * log r).  A zero coefficient (alpha = 0)
    drops out.  N always holds the constant 1.
    """
    pos: list[tuple[float, int]] = []
    neg: list[tuple[float, int]] = []
    for coeff, power in ((sgn, m), (b, k), (-1.0, 0)):
        if coeff:
            (pos if coeff > 0 else neg).append((math.log(abs(coeff)), power))
    return tuple(pos), tuple(neg)


def _log_side(side: _Side, s: float) -> tuple[float, int, float, float]:
    """One side of the split at s = log r: its dominant term's (log coefficient,
    power), the log of the side's sum over that term, and the slope of the
    side's log, which is the weighted mean of its powers."""
    if len(side) == 1:
        (a, p), = side
        return a, p, 0.0, float(p)
    (a1, p1), (a2, p2) = side
    d = (a2 - a1) + (p2 - p1) * s
    if d > 0:
        a1, p1, p2, d = a2, p2, p1, -d
    w = math.exp(d)
    return a1, p1, math.log1p(w), (p1 + p2 * w) / (1.0 + w)


def _log_f(split: tuple[_Side, _Side], s: float) -> tuple[float, float]:
    """F(s) = log P - log N at s = log r, and F'(s).

    F has the sign of f and never overflows.  The dominant terms of the two
    sides are combined before s is scaled, so rounding grows with the
    difference of their powers, not with the powers themselves.
    """
    ap, pp, lp, dp = _log_side(split[0], s)
    an, pn, ln, dn = _log_side(split[1], s)
    return (ap - an) + (pp - pn) * s + (lp - ln), dp - dn


def f_derivative(
    params: FamilyParams, ray: RayDescriptor, r: float, alpha: float | None = None
) -> float:
    """f'(r) = (-1)^j m r^{m-1} + 2 c k alpha r^{k-1}; ``alpha`` as in f_value."""
    if r <= 0:
        raise ValueError(f"need r > 0, got {r}")
    sgn = -1.0 if ray.parity else 1.0
    if alpha is None:
        alpha = alpha_from_residue(params.m, ray.residue)
    tm = power_term(sgn * params.m, r, params.m - 1)
    tk = power_term(2.0 * params.c * params.k * alpha, r, params.k - 1)
    return _dominant_sum(tm, tk)


def _log_betas(m: int, k: int, alphas) -> list[float]:
    """log of the threshold constant for each alpha > 0 in alphas, from the factored
    form beta = (2a)^{m/(m-k)} (|k|/m)^{k/(m-k)} (m-k)/m, whose factors are all
    positive for either sign of k."""
    k_term = k * math.log(abs(k) / m)
    tail = math.log((m - k) / m)
    return [(m * math.log(2.0 * alpha) + k_term) / (m - k) + tail for alpha in alphas]


def _r0(m: int, k: int, alpha: float, c: float) -> float:
    # (2 c |k| |alpha| / m)^{1/(m-k)}; covers the k>0 even/negative-alpha case
    # where the sign of alpha is absorbed by the sign of k in the derivative
    return math.exp(
        (math.log(2.0 * c) + math.log(abs(k)) + math.log(abs(alpha)) - math.log(m))
        / (m - k)
    )


def _in_band(c: float, c0: float) -> bool:
    """True when c sits in the tangency band around c0."""
    return abs(c - c0) <= DEGENERACY_RTOL * c0


def _count(profile: CountProfile, c0: float | None, c: float) -> int:
    """A ray's zero count at c; inside the tangency band the merged pair counts as 1."""
    if c0 is None:
        return profile.below
    if _in_band(c, c0):
        return profile.at_threshold
    return profile.below if c < c0 else profile.above


def _multiplicity(m: int, row: int) -> int:
    """Rays in a row's conjugate group: 1 for the axis rows 0 and m, else 2."""
    return 1 if row in (0, m) else 2


@dataclass(frozen=True, slots=True)
class RayTable:
    """The c-independent facts of every ray of one (m, k), one row per conjugate group.

    Row j (0 <= j <= m) stands for ray j and its mirror 2m - j; parity, rays,
    residue class and count profile follow from j and the case.  ``alpha``,
    ``case`` and ``c0`` (None outside the two threshold cases) are indexed by
    row.  ``order`` lists the threshold rows by increasing c0 and ``c0s`` holds
    their c0 in that order; ``steps[i]`` is the count gained when the first i
    of them are passed, and ``base`` is the count below every threshold.
    ``census`` counts the 2m rays by parity and exact alpha sign, in the field
    order of unity.ParityCensus.
    """

    m: int
    k: int
    alpha: array
    case: tuple[RayCase, ...]
    c0: tuple[float | None, ...]
    order: array
    c0s: array
    steps: array
    base: int
    census: tuple[int, ...]

    def row(self, j: int) -> int:
        return min(j, 2 * self.m - j)

    def rays(self, row: int) -> tuple[int, ...]:
        return (row,) if _multiplicity(self.m, row) == 1 else (row, 2 * self.m - row)

    def residue_class(self, row: int) -> int:
        t = (self.k * row) % (2 * self.m)
        return min(t, 2 * self.m - t)

    def count(self, c: float) -> int:
        """Total zero count at c.

        Bisection finds the thresholds c has certainly passed; the exact band
        test runs only on the rows whose c0 lies within twice the band of c.
        """
        lo = bisect_left(self.c0s, c * (1.0 - 2.0 * DEGENERACY_RTOL))
        hi = bisect_right(self.c0s, c * (1.0 + 2.0 * DEGENERACY_RTOL), lo)
        total = self.base + self.steps[lo]
        for i in range(lo, hi):
            row = self.order[i]
            profile = _PROFILES[self.case[row]]
            total += _multiplicity(self.m, row) * (_count(profile, self.c0s[i], c) - profile.below)
        return total


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def ray_table(m: int, k: int) -> RayTable:
    """The ray table of (m, k), built by folded residue and kept in a small LRU cache."""
    two_m = 2 * m
    folded = [t if t <= m else two_m - t for t in [u % two_m for u in range(0, k * (m + 1), k)]]
    # beyond s = m/2 alpha_from_residue reflects: alpha(s) = -alpha(m - s)
    half = [alpha_from_residue(m, s) for s in range(m // 2 + 1)]
    alpha_of = half + [-half[m - s] for s in range(m // 2 + 1, m + 1)]
    # a row's kind is the slot of its alpha sign (positive, zero, negative) + 3 * parity,
    # the census order; alpha > 0 iff 2s < m and alpha = 0 iff 2s = m
    slot_of = [0] * ((m + 1) // 2) + [1] * (1 - m % 2) + [2] * ((m + 1) // 2)
    kinds = bytearray(map(operator.add, map(slot_of.__getitem__, folded), cycle((0, 3))))
    cases = [_case_of(k, parity, sign) for parity in (0, 1) for sign in (Sign.POSITIVE, Sign.ZERO, Sign.NEGATIVE)]
    profiles = [_PROFILES[case] for case in cases]
    # rays per kind: every row but the axis rows 0 and m stands for two
    tally = [2 * kinds.count(kind) - (kinds[0] == kind) - (kinds[m] == kind) for kind in range(6)]
    is_threshold = bytes(case in THRESHOLD_CASES for case in cases).ljust(256, b"\0")  # translate table
    rows = list(compress(range(m + 1), kinds.translate(is_threshold)))
    log_betas = _log_betas(m, k, [alpha_of[folded[row]] for row in rows])
    c0 = dict(zip(rows, [math.exp(-(m - k) / m * log_beta) for log_beta in log_betas]))
    order = sorted(rows, key=c0.__getitem__)
    gains = (_multiplicity(m, row) * (profiles[kinds[row]].above - profiles[kinds[row]].below) for row in order)
    return RayTable(
        m=m,
        k=k,
        alpha=array("d", map(alpha_of.__getitem__, folded)),
        case=tuple(map(cases.__getitem__, kinds)),
        c0=tuple(map(c0.get, range(m + 1))),
        order=array("q", order),
        c0s=array("d", map(c0.__getitem__, order)),
        steps=array("q", accumulate(gains, initial=0)),
        base=sum(count * profile.below for count, profile in zip(tally, profiles)),
        census=tuple(tally),
    )


def analyze_ray(params: FamilyParams, j: int) -> RayAnalysis:
    """Case label, count profile, and the closed-form critical quantities for ray j."""
    ray = classify_ray(params, j)
    table = ray_table(params.m, params.k)
    row = table.row(j)
    alpha, case, c0 = table.alpha[row], table.case[row], table.c0[row]

    r0 = log_beta = None
    if case in EXTREMUM_CASES:
        r0 = _r0(params.m, params.k, alpha, params.c)
    if c0 is not None:
        log_beta = _log_betas(params.m, params.k, (alpha,))[0]
    return RayAnalysis(
        params=params,
        ray=ray,
        alpha=alpha,
        case=case,
        profile=_PROFILES[case],
        r0=r0,
        log_beta=log_beta,
        c0=c0,
    )


def degenerate_at(analysis: RayAnalysis, c: float) -> bool:
    """True when c sits in the tangency band around the ray's threshold."""
    return analysis.c0 is not None and _in_band(c, analysis.c0)


def count_at(analysis: RayAnalysis, c: float) -> int:
    """Zero count of the ray at parameter c.

    Inside the tangency band the merged pair counts as 1; degenerate_at
    carries the flag.
    """
    if c <= 0:
        raise ValueError(f"need c > 0, got {c}")
    return _count(analysis.profile, analysis.c0, c)


def extremum_radius(analysis: RayAnalysis, c: float) -> float | None:
    """The critical radius r0 recomputed at an arbitrary c (None if f is monotone)."""
    if analysis.case not in EXTREMUM_CASES:
        return None
    if c <= 0:
        raise ValueError(f"need c > 0, got {c}")
    return _r0(analysis.params.m, analysis.params.k, analysis.alpha, c)


def thresholds(params: FamilyParams) -> list[Threshold]:
    """Distinct critical values of c, each with every ray sharing it.

    Rays are grouped by the residue class min(t, 2m-t): two rays have equal
    alpha (hence exactly equal c0) iff their residues agree up to that
    reflection, so deduplication is exact integer bookkeeping, never a
    floating-point comparison.  Within one parity that class is exactly the
    conjugate group of a table row.
    """
    table = ray_table(params.m, params.k)
    return [
        Threshold(
            c0=table.c0[row],
            rays=table.rays(row),
            alpha=table.alpha[row],
            residue_class=table.residue_class(row),
        )
        for row in table.order
    ]
