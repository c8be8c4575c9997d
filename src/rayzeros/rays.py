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
r0 = (2 c |k| alpha / m)^{1/(m-k)} whose value crosses 0 at c0 = C / alpha, where

    C = (1/2) (m/|k|)^{k/m} (m/(m-k))^{(m-k)/m}

is one constant per (m, k), for either sign of k, taken by _big_c from two
logs and one exp.  At c = c0 the pair merges at r0, where f = f' = 0 leave
r0^m = |k|/(m-k) whatever alpha is: every tangential double zero lies on the
circle |z| = rho* = (|k|/(m-k))^{1/m}.

Ray j and ray 2m-j have the same parity and the residues t and 2m-t, so they
carry the same alpha and the same radial function.  analyze_ray takes a
ray's facts from its own integers in O(1): alpha from its residue, its case
from its parity and exact alpha sign, and c0 = C / alpha, C from _big_c, the
single source of C.  None of them moves with c, so one analysis serves every
c; count_at and extremum_radius take c and give the count and r0 there.
Nothing here evaluates f: f_value and f_derivative live in roots.
The rows of one parity in increasing folded residue s = min(t, 2m-t) follow
from k's inverse alone (_rows); _runs walks them so and hands all_zeros its
runs of rows, one case and one count each.
_build_threshold_rows gives the threshold rows, about a quarter of them, their
c0s and alphas in increasing residue, which is increasing c0, with no sort.
thresholds builds them on every call and keeps, as the library's one cache,
predict_at's record of that pair: its c0s, the count below every threshold,
its sign and axis flag.  predict_at reads the record on that pair only, and
counts any other pair from _closed_band, keeping nothing: c0(s) =
C / cos(pi s / m) rises with s, so each band edge is one bisection of the
rows' residues, O(log m) at any m and 6-25 us a query up to m = 10^6.

Every threshold ray gains (k > 0) or loses (k < 0) two zeros past its c0 and
one inside its tangency band, c0 (1 +- DEGENERACY_RTOL), 4e-15 relative: a
bound on c0's float error, derived beside the constant, so only c the float
c0 cannot place counts as merged.  One bisection, _band(c, c0s), whose edge
divisors 1 +- DEGENERACY_RTOL are taken once beside that constant, finds the
run of increasing c0s whose band holds c: _side reads it for one ray's c0 in
count_at, degenerate_at and the root finder, predict_at (on the cached pair)
and _runs for the threshold rows' c0s; _closed_band finds the same run for
any other pair's predict_at with no c0 list.  Fold 0 (alpha = 1, c0 = C, the
least c0) is the only residue that puts an axis row, which stands for one
ray, among the thresholds: row 0 for k < 0, row m for even k > 0.  So the
first i threshold rows by c0 hold R(i) = 2i - [i > 0 and (k < 0 or k even)]
rays.
"""
import math
from bisect import bisect_left, bisect_right
from enum import Enum
from functools import partial
from typing import NamedTuple

from .family import FamilyParams, RayDescriptor, _alpha_half, _alpha_range, _check_c, alpha_from_residue, classify_ray

__all__ = [
    "RayCase",
    "CountProfile",
    "RayAnalysis",
    "Threshold",
    "analyze_ray",
    "count_at",
    "degenerate_at",
    "extremum_radius",
    "thresholds",
]

# relative half-width of the band around c0 treated as an exact tangency;
# shared with the root finder so predicted counts always match emitted zeros.
# It bounds the float error of c0 = C / alpha, with u = 2^-53 and libm within
# 1 ulp (2u).  _big_c's exponent: the quotients |k|/m and (m-k)/m, whose sum
# is at most 3, carry u each; their logs weighted by them sum to S < 1.76, and
# the logs add 2uS and the products, the sum and the division by m uS each,
# so 3u + 5uS < 12u, and exp adds 2u: C within 14u.  alpha's angle carries
# 2.4u, which moves cos or sin, taken at most pi/4, by at most 2.4u, and libm
# adds 2u.  The division adds u, and _band's 1 +- band and c / (1 +- band) 2u:
# 21.4u = 2.4e-15 in all, against 6.3u measured at worst (2,622 pairs up to
# m = 10^12).  Neighbouring c0s differ by at least 2 pi^2 / m^2 relative
# (residues 0 and 2), so from m = pi / sqrt(band) = 5.0e7 on the bands stop
# being disjoint and one c may count two merged pairs
DEGENERACY_RTOL = 4e-15
# _band's edge divisors: c's band holds the c0s in [c / _LO_DIV, c / _HI_DIV]
_LO_DIV, _HI_DIV = 1.0 + DEGENERACY_RTOL, 1.0 - DEGENERACY_RTOL

# the closed-form band as (min - m, max - min - m), keyed by (k > 0, m mod 4, k mod 2);
# k is odd wherever m is even, since gcd(m, |k|) = 1
_MODULAR = {
    (True, 0, 1): (0, 0), (True, 1, 0): (0, 1), (True, 1, 1): (0, -1),
    (True, 2, 1): (0, -2), (True, 3, 0): (0, -1), (True, 3, 1): (0, 1),
    (False, 0, 1): (1, -2), (False, 1, 0): (0, 1), (False, 1, 1): (-1, 1),
    (False, 2, 1): (-1, 0), (False, 3, 0): (0, -1), (False, 3, 1): (1, -1),
}


def _modular_band(m: int, k: int) -> tuple:
    """The least and the greatest zero count of (m, k) over all c, from _MODULAR."""
    low, span = _MODULAR[k > 0, m % 4, k % 2]
    return m + low, 2 * m + low + span


def _pair_facts(m: int, k: int) -> tuple:
    """(residues, C, (base, sign, axis)) of (m, k): the threshold rows' folded
    residues s = q, q + 2, ... with 2s < m (q = 1 for odd k > 0, else 0); the
    count below every threshold, the modular band's min for k > 0 and its max
    for k < 0; +1 or -1 as the threshold rays add or remove zeros; and whether
    the first threshold row is fold 0's axis row."""
    residues = range(k % 2 if k > 0 else 0, (m + 1) // 2, 2)
    return residues, _big_c(m, k), (_modular_band(m, k)[k < 0], 1 if k > 0 else -1, residues.start == 0)


_LOG2 = math.log(2.0)


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


class CountProfile(NamedTuple):
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

# _CASES[k > 0][kind]: a row's case by its kind, alpha's sign slot (positive, zero, negative) + 3 * parity
_CASES = (
    (RayCase.NEG_K_EVEN_POS, RayCase.EVEN_ALPHA_ZERO, RayCase.NEG_K_EVEN_NEG)
    + (RayCase.NEG_K_ODD_POS, RayCase.ODD_ALPHA_ZERO, RayCase.NEG_K_ODD_NEG),
    (RayCase.POS_K_EVEN_POS, RayCase.EVEN_ALPHA_ZERO, RayCase.POS_K_EVEN_NEG)
    + (RayCase.POS_K_ODD_POS, RayCase.ODD_ALPHA_ZERO, RayCase.POS_K_ODD_NEG),
)

THRESHOLD_CASES = frozenset(case for case, profile in _PROFILES.items() if profile.below != profile.above)
EXTREMUM_CASES = THRESHOLD_CASES | {RayCase.POS_K_EVEN_NEG}


class RayAnalysis(NamedTuple):
    """What one ray's counting and root finding need, all of it true at every
    c: its case, count profile and, in the two threshold cases only, c0.
    count_at and extremum_radius give the count and r0 at a given c."""

    params: FamilyParams
    ray: RayDescriptor
    alpha: float
    case: RayCase
    profile: CountProfile
    c0: float | None = None


class Threshold(NamedTuple):
    """A critical parameter value and the rays that share it exactly."""

    c0: float
    rays: tuple[int, ...]
    alpha: float


_new_threshold = partial(tuple.__new__, Threshold)


def _log_r0(m: int, k: int, alpha: float, c: float) -> float:
    # log (2 c |k| |alpha| / m)^{1/(m-k)}; covers the k>0 even/negative-alpha case
    # where the sign of alpha is absorbed by the sign of k in the derivative
    return (_LOG2 + math.log(c) + math.log(abs(alpha)) + math.log(abs(k) / m)) / (m - k)


def _r0(m: int, k: int, alpha: float, c: float) -> float:
    try:
        return math.exp(_log_r0(m, k, alpha, c))
    except OverflowError:
        return math.inf


def _band(c: float, c0s) -> tuple[int, int]:
    """The run c0s[a:b] of the increasing c0s whose tangency band holds c, those
    in [c / _LO_DIV, c / _HI_DIV]; c lies above the c0s[:a]."""
    a = bisect_left(c0s, c / _LO_DIV)
    return a, bisect_right(c0s, c / _HI_DIV, a)


def _side(c: float, c0: float | None) -> int:
    """The index of a ray's count at c in its CountProfile, a + b of _band on c0
    alone: 0 below c0 or with no c0, 1 inside the tangency band, 2 above."""
    return 0 if c0 is None else sum(_band(c, (c0,)))


def _rows(m: int, k: int, parity: int, n: int) -> list[int]:
    """The rows of one parity with folded residues s = q, q + 2, ... (n of them;
    q = parity for odd k, else 0), in that order.  Row x of s solves kx = s mod
    2m, folded: x = s / k for odd k; for even k (odd m) rows j and m - j share
    s, and the root of the given parity is (s/2) / (k/2) (m + 1) + parity m by
    the Chinese remainder theorem.  The row of s + 2 is x + w mod 2m."""
    two_m = 2 * m
    w = 2 * pow(k, -1, two_m) if k % 2 else pow(k // 2, -1, m) * (m + 1)
    x0 = parity * w // 2 if k % 2 else parity * m
    return [x if (x := y % two_m) <= m else two_m - x for y in range(x0, x0 + n * w, w)]


def _big_c(m: int, k: int) -> float:
    """C(m, k) of the module docstring, from two logs and one exp: c0 = C / alpha."""
    return math.exp(-(k * math.log(abs(k) / m) + (m - k) * math.log((m - k) / m)) / m) / 2.0


def _build_threshold_rows(m: int, k: int) -> tuple:
    """(order, c0s, alphas, base, sign, axis) of (m, k): the _rows of the threshold
    parity (odd iff k > 0) with 2s < m in increasing s, which is increasing c0,
    their c0s and alphas, as lists read unboxed, and _pair_facts' (base, sign,
    axis).  c0 = C / alpha needs no sort: neighbouring alphas differ by at least
    1 - cos(2 pi / m), over 1000 ulps for every m <= 10^7, and libm's cos and
    sin are within 1 ulp."""
    residues, big_c, tail = _pair_facts(m, k)
    alphas = _alpha_half(m, residues.start, 2)[:len(residues)]
    return _rows(m, k, k > 0, len(alphas)), [big_c / a for a in alphas], alphas, *tail


# predict_at's record of the pair thresholds was last called on, ((m, k), (c0s, base,
# sign, axis)) in its one slot, the library's one cache: thresholds is its only writer and
# rebinds the slot in one store, so a reader under threads gets one pair's key and
# fields.  0.2 MB under tracemalloc at m = 10^4, 0.93 MB at 10^5 + 3, 8.2 MB at 10^6 + 3
_last_rows = [((), None)]


def _closed_band(m: int, k: int, c: float) -> tuple:
    """(a, b, base, sign, axis): _band(c, c0s) on the threshold rows of (m, k)
    and _pair_facts' (base, sign, axis), with no row built.  Each edge is one
    bisection of the rows' residues s on their float c0s
    C / alpha_from_residue(m, s), the rows' own bit for bit: O(log m) c0s a
    query at any m."""
    residues, big_c, tail = _pair_facts(m, k)
    c0 = lambda s: big_c / alpha_from_residue(m, s)
    return bisect_left(residues, c / _LO_DIV, key=c0), bisect_right(residues, c / _HI_DIV, key=c0), *tail


def _runs(params: FamilyParams):
    """(case, n, degenerate, rows, alphas, units) for each run of rows of one
    parity and one case with n > 0 zeros at params.c, in increasing s;
    degenerate marks the band's merged pair.  One pass alpha(2m, .) gives
    cosines[s] = alpha_s and each row's unit direction, sin(j pi / m) =
    alpha(2m, |2j - m|)."""
    m, k, c = params
    big_c, half = _big_c(m, k), _alpha_half(2 * m)
    cosines = _alpha_range(m, half[::2])
    for parity in (0, 1):
        q = parity if k % 2 else 0
        rows, alphas = _rows(m, k, parity, len(range(q, m + 1, 2))), cosines[q::2]
        ends = (0, len(range(q, (m + 1) // 2, 2)), len(range(q, m // 2 + 1, 2)), len(rows))  # 2s < m, = m, > m
        for slot in range(3):
            case = _CASES[k > 0][slot + 3 * parity]
            profile, lo, hi = _PROFILES[case], ends[slot], ends[slot + 1]
            # the threshold case is slot 0, so lo = 0: rows[:a] above c0 = C / alpha, rows[a:b] in its band
            a, b = _band(c, [big_c / alpha for alpha in alphas[:hi]]) if case in THRESHOLD_CASES else (lo, lo)
            for start, stop, n, degenerate in (
                (lo, a, profile.above, False), (a, b, profile.at_threshold, True), (b, hi, profile.below, False)
            ):
                if n and start < stop:
                    run = rows[start:stop]
                    units = [complex(cosines[x], half[abs(2 * x - m)]) for x in run]
                    yield case, n, degenerate, run, alphas[start:stop], units


def analyze_ray(params: FamilyParams, j: int) -> RayAnalysis:
    """Ray j's case, count profile and threshold c0, all from m, k and j alone."""
    ray = classify_ray(params, j)
    m, k = params.m, params.k
    alpha = alpha_from_residue(m, ray.residue)
    case = _CASES[k > 0][1 - ray.alpha_sign + 3 * ray.parity]
    c0 = _big_c(m, k) / alpha if case in THRESHOLD_CASES else None
    return RayAnalysis(params, ray, alpha, case, _PROFILES[case], c0)


def degenerate_at(analysis: RayAnalysis, c: float) -> bool:
    """True when c sits in the tangency band around the ray's threshold."""
    return _side(_check_c(c), analysis.c0) == 1


def count_at(analysis: RayAnalysis, c: float) -> int:
    """Zero count of the ray at parameter c; inside the tangency band the
    merged pair counts as 1, and degenerate_at carries the flag."""
    return analysis.profile[_side(_check_c(c), analysis.c0)]


def extremum_radius(analysis: RayAnalysis, c: float) -> float | None:
    """r0 = (2 c |k alpha| / m)^{1/(m-k)}, the radius of f's interior extremum
    at c in EXTREMUM_CASES: inf above the float range and 0.0 below it.  None
    in every other case: f is monotone there, or, in NEG_K_ODD_NEG, every term
    of f is negative and its maximum never reaches zero."""
    c = _check_c(c)
    if analysis.case not in EXTREMUM_CASES:
        return None
    return _r0(analysis.params.m, analysis.params.k, analysis.alpha, c)


def thresholds(params: FamilyParams) -> list[Threshold]:
    """Distinct critical values of c, each with every ray sharing it.

    Rays are grouped by the residue class min(t, 2m-t): two rays have equal
    alpha (hence exactly equal c0) iff their residues agree up to that
    reflection, so deduplication is exact integer bookkeeping, never a
    floating-point comparison.  Within one parity that class is exactly one
    row's conjugate group, ray j and ray 2m - j.
    """
    key, two_m = (params.m, params.k), 2 * params.m
    order, c0s, alphas, base, sign, axis = _build_threshold_rows(*key)
    _last_rows[0] = key, (c0s, base, sign, axis)
    rays = [(x, two_m - x) for x in order]
    if axis:  # fold 0's axis row, the first, stands for one ray
        rays[0] = (order[0],)
    return list(map(_new_threshold, zip(c0s, rays, alphas)))
