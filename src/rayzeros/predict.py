"""Global zero counts, predicted two independent ways.

The closed-form route reads (min, max) straight off the modular case table
keyed by the sign of k, m mod 4 and the parity of k.  The census route
rebuilds the same numbers from the roots of unity: the census (unity) counts
the rays of each of the six (parity, alpha sign) kinds, the per-ray case table
names each kind's case, and the case's count profile gives its zeros below
and above its threshold.  Both take O(1) per pair, and their agreeing for
every coprime pair is a machine check of the case table that the exact counts
and the root finder use.  The exact count at one c is the modular band's end
below every threshold plus (k > 0) or minus (k < 0) R(a) + R(b), with R the
rays module docstring's and c0s[a:b] the run _band(c, c0s) finds in the
threshold rows' increasing c0s, read from one cached record per pair.
"""
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .family import FamilyParams, _check_c
from .rays import _CASES, _PROFILES, _ROWS_CACHE_SIZE, _band, _threshold_rows
# analyze_ray is unused here but stays bound: perfbench/tracing.py wraps predict.analyze_ray
from .rays import analyze_ray  # noqa: F401
from .unity import census

__all__ = ["CountPrediction", "predict_table", "predict_census", "predict_at"]


class CountPrediction(NamedTuple):
    """Count band over all c: min_count <= #zeros <= max_count.

    direction says which end is reached for small c: counts increase with c
    when k > 0 and decrease when k < 0.
    """

    min_count: int
    max_count: int
    direction: str


_DIRECTIONS = ("decreasing", "increasing")  # CountPrediction.direction by k > 0
# the closed-form band as (min - m, max - min - m), keyed by (k > 0, m mod 4, k mod 2);
# k is odd wherever m is even, since gcd(m, |k|) = 1
_MODULAR = {
    (True, 0, 1): (0, 0), (True, 1, 0): (0, 1), (True, 1, 1): (0, -1),
    (True, 2, 1): (0, -2), (True, 3, 0): (0, -1), (True, 3, 1): (0, 1),
    (False, 0, 1): (1, -2), (False, 1, 0): (0, 1), (False, 1, 1): (-1, 1),
    (False, 2, 1): (-1, 0), (False, 3, 0): (0, -1), (False, 3, 1): (1, -1),
}

# _BOUNDS[k > 0]: the counts below and the counts above the threshold of each kind, in the kind order of _CASES
_BOUNDS = tuple(tuple(zip(*((_PROFILES[case].below, _PROFILES[case].above) for case in cases))) for cases in _CASES)


def predict_table(params: FamilyParams) -> CountPrediction:
    """Count band from the closed-form modular table."""
    m, k = params.m, params.k
    low, span = _MODULAR[k > 0, m % 4, k % 2]
    return CountPrediction(m + low, 2 * m + low + span, _DIRECTIONS[k > 0])


def predict_census(params: FamilyParams) -> CountPrediction:
    """Count band rebuilt from the exact parity/sign census of the rays and
    each case's counts below and above its threshold."""
    tally, (belows, aboves) = census(params), _BOUNDS[params.k > 0]  # census is in the kind order of _CASES
    below, above = sum(map(mul, tally, belows)), sum(map(mul, tally, aboves))
    return CountPrediction(min(below, above), max(below, above), _DIRECTIONS[params.k > 0])


@lru_cache(maxsize=_ROWS_CACHE_SIZE)
def _record(m: int, k: int) -> tuple[int, int, bool, list[float]]:
    """(count below every threshold, +1 or -1 as the threshold rays add or remove
    zeros, first threshold row on an axis, the rows cache's own c0s list)."""
    low, span = _MODULAR[k > 0, m % 4, k % 2]
    base, sign = (m + low, 1) if k > 0 else (2 * m + low + span, -1)
    return base, sign, k < 0 or k % 2 == 0, _threshold_rows(m, k)[1]


def predict_at(params: FamilyParams, c: float) -> int:
    """Exact zero count at parameter c: the count below every threshold, moved
    by R(a) + R(b) zeros at the run c0s[a:b] of threshold rows whose band holds c."""
    _check_c(c)
    base, sign, axis, c0s = _record(params.m, params.k)
    a, b = _band(c, c0s)
    return base + sign * (2 * (a + b) - axis * ((a > 0) + (b > 0)))
