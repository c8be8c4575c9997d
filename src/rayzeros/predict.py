"""Global zero counts, predicted two independent ways.

The closed-form route reads (min, max) straight off the modular case table
keyed by m mod 4 and the parity of k.  The census route rebuilds the same
numbers from the exact per-ray enumeration: for k > 0 every even ray holds
one zero for all c and each odd positive-alpha ray eventually gains a pair;
for k < 0 the persistent rays are the even nonpositive-alpha and odd
positive-alpha ones, and each even positive-alpha ray starts with a pair it
later loses.  The two routes agreeing for every coprime pair is a machine
check of the whole case analysis.  The exact count at one c is a bisection
over the ray table's sorted thresholds.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .family import FamilyParams
from .rays import ray_table
# analyze_ray is unused here but stays bound: perfbench/tracing.py wraps predict.analyze_ray
from .rays import analyze_ray  # noqa: F401
from .unity import census

__all__ = ["CountPrediction", "predict_table", "predict_census", "predict_at"]


@dataclass(frozen=True, slots=True)
class CountPrediction:
    """Count band over all c: min_count <= #zeros <= max_count.

    direction says which end is reached for small c: counts increase with c
    when k > 0 and decrease when k < 0.  source is bookkeeping and excluded
    from equality.
    """

    min_count: int
    max_count: int
    direction: str
    source: str = field(compare=False, default="")


def _direction(k: int) -> str:
    return "increasing" if k > 0 else "decreasing"


def _table_counts(m: int, k: int) -> tuple[int, int]:
    odd_k = k % 2 == 1
    if k > 0:
        if m % 4 == 0:
            n = m
        elif m % 4 == 1:
            n = m - 1 if odd_k else m + 1
        elif m % 4 == 2:
            n = m - 2
        else:
            n = m + 1 if odd_k else m - 1
        return m, m + n
    if m % 4 == 0:
        mm, n = m + 1, m - 2
    elif m % 4 == 1:
        mm, n = (m - 1, m + 1) if odd_k else (m, m + 1)
    elif m % 4 == 2:
        mm, n = m - 1, m
    else:
        mm, n = (m + 1, m - 1) if odd_k else (m, m - 1)
    return mm, mm + n


def predict_table(params: FamilyParams) -> CountPrediction:
    """Count band from the closed-form modular table."""
    lo, hi = _table_counts(params.m, params.k)
    return CountPrediction(lo, hi, _direction(params.k), source="table")


def predict_census(params: FamilyParams) -> CountPrediction:
    """Count band rebuilt from the exact parity/sign census of the rays."""
    cen = census(params)
    if params.k > 0:
        lo = params.m
        hi = lo + 2 * cen.odd_pos
    else:
        lo = cen.even_zero + cen.even_neg + cen.odd_pos
        hi = lo + 2 * cen.even_pos
    return CountPrediction(lo, hi, _direction(params.k), source="census")


def predict_at(params: FamilyParams, c: float) -> int:
    """Exact zero count at parameter c: the sum of every ray's count there."""
    if c <= 0:
        raise ValueError(f"need c > 0, got {c}")
    return ray_table(params.m, params.k).count(c)
