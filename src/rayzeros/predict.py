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
rays module docstring's and c0s[a:b] the run of the threshold rows'
increasing c0s whose band holds c.  The cache, rays._last_rows, holds one
record, that of the pair thresholds was last called on: its c0s, base, sign
and axis flag.  That pair takes a and b from _band on the record's c0s and
the other three from the record; any other pair takes all five from
rays._closed_band, in O(log m) with nothing built or kept.  So call
thresholds just before many queries of one pair: a cached query costs about
0.6 us, a closed-form one 6-25 us up to m = 10^6.
"""
from operator import mul
from typing import NamedTuple

from .family import FamilyParams, _check_c
from .rays import _CASES, _PROFILES, _band, _closed_band, _last_rows, _modular_band
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
# _BOUNDS[k > 0]: the counts below and the counts above the threshold of each kind, in the kind order of _CASES
_BOUNDS = tuple(tuple(zip(*((_PROFILES[case].below, _PROFILES[case].above) for case in cases))) for cases in _CASES)


def predict_table(params: FamilyParams) -> CountPrediction:
    """Count band from the closed-form modular table."""
    low, high = _modular_band(params.m, params.k)
    return CountPrediction(low, high, _DIRECTIONS[params.k > 0])


def predict_census(params: FamilyParams) -> CountPrediction:
    """Count band rebuilt from the exact parity/sign census of the rays and
    each case's counts below and above its threshold."""
    tally, (belows, aboves) = census(params), _BOUNDS[params.k > 0]  # census is in the kind order of _CASES
    below, above = sum(map(mul, tally, belows)), sum(map(mul, tally, aboves))
    return CountPrediction(min(below, above), max(below, above), _DIRECTIONS[params.k > 0])


def predict_at(params: FamilyParams, c: float) -> int:
    """Exact zero count at parameter c: the count below every threshold, moved
    by R(a) + R(b) zeros at the run c0s[a:b] of threshold rows whose band holds c:
    from the cached record if thresholds was last called on this pair, else from the closed form."""
    c = _check_c(c)
    key, record = _last_rows[0]
    if key == (params.m, params.k):
        c0s, base, sign, axis = record
        a, b = _band(c, c0s)
    else:
        a, b, base, sign, axis = _closed_band(params.m, params.k, c)
    return base + sign * (2 * (a + b) - axis * ((a > 0) + (b > 0)))
