"""Global zero counts, predicted two independent ways.

The closed-form route reads (min, max) straight off the modular case table
keyed by the sign of k, m mod 4 and the parity of k.  The census route
rebuilds the same numbers from the roots of unity: the census (unity) counts
the rays of each of the six (parity, alpha sign) kinds, the per-ray case table
names each kind's case, and the case's count profile gives its zeros below
and above its threshold.  Both take O(1) per pair, and their agreeing for
every coprime pair is a machine check of the case table that the exact counts
and the root finder use.  The exact count at one c is the modular band's end
below every threshold plus (k > 0) or minus (k < 0) the zeros the threshold
rays gain there, two bisections of the threshold rows' increasing c0s at the
bounds of the tangency band (rays module docstring).
"""
from typing import NamedTuple

from .family import FamilyParams, _check_c
from .rays import _CASES, _PROFILES, _gained, _threshold_rows
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


def _direction(k: int) -> str:
    return "increasing" if k > 0 else "decreasing"


# the closed-form band as (min - m, max - min - m), keyed by (k > 0, m mod 4, k mod 2);
# k is odd wherever m is even, since gcd(m, |k|) = 1
_MODULAR = {
    (True, 0, 1): (0, 0), (True, 1, 0): (0, 1), (True, 1, 1): (0, -1),
    (True, 2, 1): (0, -2), (True, 3, 0): (0, -1), (True, 3, 1): (0, 1),
    (False, 0, 1): (1, -2), (False, 1, 0): (0, 1), (False, 1, 1): (-1, 1),
    (False, 2, 1): (-1, 0), (False, 3, 0): (0, -1), (False, 3, 1): (1, -1),
}


def predict_table(params: FamilyParams) -> CountPrediction:
    """Count band from the closed-form modular table."""
    m, k = params.m, params.k
    low, span = _MODULAR[k > 0, m % 4, k % 2]
    return CountPrediction(m + low, 2 * m + low + span, _direction(k))


def predict_census(params: FamilyParams) -> CountPrediction:
    """Count band rebuilt from the exact parity/sign census of the rays and
    each case's counts below and above its threshold."""
    tally = census(params)  # its fields are in the kind order of _CASES
    profiles = [_PROFILES[case] for case in _CASES[params.k > 0]]
    below = sum(n * profile.below for n, profile in zip(tally, profiles))
    above = sum(n * profile.above for n, profile in zip(tally, profiles))
    return CountPrediction(min(below, above), max(below, above), _direction(params.k))


def predict_at(params: FamilyParams, c: float) -> int:
    """Exact zero count at parameter c: the modular band's min (k > 0) or max
    (k < 0), the count below every threshold, moved by the zeros gained at c."""
    _check_c(c)
    m, k = params.m, params.k
    low, span = _MODULAR[k > 0, m % 4, k % 2]
    gained = _gained(k, _threshold_rows(m, k)[1], c)  # [1]: the threshold rows' c0s
    return m + low + gained if k > 0 else 2 * m + low + span - gained
