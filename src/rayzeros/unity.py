"""Half-plane census of the powers of omega = e^{i k pi / m}.

The ray weights alpha_j = cos(k j pi / m) are the real parts of the powers
omega^j.  When k is odd omega generates all 2m-th roots of unity; when k is
even (forcing m odd) it generates the m-th roots and hits each twice, once
from an even j and once from an odd j.  Counting exponents j in [0, 2m) by
parity and by the sign of Re omega^j is all the global zero count needs.
"""
from typing import NamedTuple

from .family import FamilyParams
# classify_ray is unused here but stays bound: perfbench/tracing.py counts unity.classify_ray
from .family import classify_ray  # noqa: F401

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
    """Six-way parity/sign census of the 2m rays, from the roots of unity alone.

    The even j give every m-th root once (gcd(m, k) = 1), all 2m exponents give
    each q-th root (q = group_order) 2m/q times, and the odd j the difference.
    Re omega^j = 0 only at +-i, two q-th roots when 4 divides q.  Independent of c.
    """
    m, q = params.m, group_order(params)
    pos, zero = positive_halfplane_count(m), 2 * (m % 4 == 0)
    odd_pos = 2 * m // q * positive_halfplane_count(q) - pos
    odd_zero = 2 * m // q * 2 * (q % 4 == 0) - zero
    return ParityCensus(pos, zero, m - pos - zero, odd_pos, odd_zero, m - odd_pos - odd_zero)
