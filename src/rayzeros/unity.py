"""Half-plane census of the powers of omega = e^{i k pi / m}.

The ray weights alpha_j = cos(k j pi / m) are the real parts of the powers
omega^j.  When k is odd omega generates all 2m-th roots of unity; when k is
even (forcing m odd) it generates the m-th roots and hits each twice, once
from an even j and once from an odd j.  Counting exponents j in [0, 2m) by
parity and by the sign of Re omega^j is all the global zero count needs.
"""
from __future__ import annotations

from typing import NamedTuple

from .family import FamilyParams
# classify_ray is unused here but stays bound: perfbench/tracing.py counts unity.classify_ray
from .family import classify_ray  # noqa: F401
from .rays import ray_table

__all__ = ["ParityCensus", "positive_halfplane_count", "census", "group_order"]


class ParityCensus(NamedTuple):
    """Counts of j in [0, 2m) split by parity of j and sign of Re omega^j."""

    even_pos: int
    even_zero: int
    even_neg: int
    odd_pos: int
    odd_zero: int
    odd_neg: int


def positive_halfplane_count(q: int) -> int:
    """Number of q-th roots of unity with strictly positive real part.

    The roots sit at angles 2 pi j / q; those in the open right half-plane
    are the integers j with -q/4 < j < q/4, of which there are
    2*floor((q-1)/4) + 1.
    """
    if q < 1:
        raise ValueError(f"need q >= 1, got {q}")
    return 2 * ((q - 1) // 4) + 1


def group_order(params: FamilyParams) -> int:
    """Order of the cyclic group generated by omega: 2m for odd k, m for even k."""
    return 2 * params.m if params.k % 2 else params.m


def census(params: FamilyParams) -> ParityCensus:
    """Six-way parity/sign census of the 2m rays, tallied from the ray table.

    Each of the table's m+1 rows counts once for the axis rays 0 and m and
    twice otherwise; its alpha sign comes from the exact integer classifier,
    so boundary rays (Re omega^j = 0) are never miscounted.  Independent of c.
    """
    return ParityCensus(*ray_table(params.m, params.k).census)
