"""Core definitions for the one-parameter family p(z) = z^m + c(z^k + conj(z)^k) - 1.

The parameters obey m > |k| >= 1, gcd(m, |k|) = 1, c > 0; k may be negative,
in which case p has a pole at the origin.  Writing z = r e^{i theta},

    Re p = r^m cos(m theta) + 2 c r^k cos(k theta) - 1
    Im p = r^m sin(m theta)

so every zero lies on one of the 2m rays theta = j pi / m, j = 0 .. 2m-1.
The cosine weight of ray j is alpha = cos(k j pi / m), and its sign is
decided here exactly, with integer arithmetic on the residue
t = k*j mod 2m: alpha > 0 iff 2t < m or 2t > 3m, alpha = 0 iff 2t = m or
2t = 3m, alpha < 0 otherwise.  Floating point never gets a vote on the
classification.  Where r^m overflows, a real part is the signed infinity of
its sum divided through by r^m (_over_power), so every term votes on its sign.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import IntEnum

__all__ = [
    "Sign",
    "FamilyParams",
    "RayDescriptor",
    "ParameterError",
    "NonCoprimeError",
    "DegreeOrderError",
    "NonPositiveCError",
    "ZeroKError",
    "RayIndexError",
    "PoleAtOriginError",
    "validate",
    "classify_ray",
    "evaluate",
    "alpha_from_residue",
    "unit_direction",
    "power_term",
]


class ParameterError(ValueError):
    """A (m, k, c) triple outside the family's domain."""


class NonCoprimeError(ParameterError):
    """gcd(m, |k|) > 1."""


class DegreeOrderError(ParameterError):
    """m <= |k|."""


class NonPositiveCError(ParameterError):
    """c <= 0 (or not finite)."""


class ZeroKError(ParameterError):
    """k = 0 leaves no middle term."""


class RayIndexError(IndexError):
    """Ray index outside [0, 2m-1]."""


class PoleAtOriginError(ZeroDivisionError):
    """Evaluation at z = 0 with k < 0."""


class Sign(IntEnum):
    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1


@dataclass(frozen=True, slots=True)
class FamilyParams:
    """Validated member of the family: degrees m, k and the positive weight c.

    Construct through :func:`validate`; direct construction skips the checks.
    """

    m: int
    k: int
    c: float


@dataclass(frozen=True, slots=True)
class RayDescriptor:
    """One of the 2m rays carrying zeros.

    ``residue`` is t = k*j mod 2m normalized to [0, 2m); alpha = cos(pi*t/m)
    and ``alpha_sign`` is its exact sign.  ``parity`` is j mod 2.
    """

    j: int
    angle: float
    parity: int
    alpha_sign: Sign
    residue: int


def validate(m: int, k: int, c: float) -> FamilyParams:
    """Gate-keep the family parameters, raising a specific rejection.

    Raises ZeroKError, DegreeOrderError, NonCoprimeError or NonPositiveCError.
    """
    m = int(m)
    k = int(k)
    c = float(c)
    if k == 0:
        raise ZeroKError("k must be a nonzero integer")
    if m <= abs(k):
        raise DegreeOrderError(f"need m > |k|, got m={m}, k={k}")
    if math.gcd(m, abs(k)) != 1:
        raise NonCoprimeError(f"need gcd(m, |k|) = 1, got gcd({m}, {abs(k)}) = {math.gcd(m, abs(k))}")
    if not (c > 0) or math.isinf(c):
        raise NonPositiveCError(f"need finite c > 0, got c={c}")
    return FamilyParams(m=m, k=k, c=c)


def alpha_from_residue(m: int, t: int) -> float:
    """cos(pi*t/m) with exact integer argument folding.

    t is reduced mod 2m, folded into [0, m/2] by the cosine symmetries, and
    the surviving call into libm sees an angle of at most pi/4 (switching to
    the sine of the complement beyond that), so the result is accurate to a
    couple of ulps even when the cosine is tiny.  Exact rational zeros
    (2t = m or 3m) and the values at t = 0, m come out as exactly 0.0, 1.0
    and -1.0.
    """
    t = t % (2 * m)
    s = min(t, 2 * m - t)  # cos(pi t/m) = cos(pi s/m), s in [0, m]
    sign = 1.0
    if 2 * s > m:
        s = m - s  # cos(pi s/m) = -cos(pi (m-s)/m)
        sign = -1.0
    if 2 * s == m:
        return 0.0
    if s == 0:
        return sign
    if 4 * s <= m:
        return sign * math.cos(math.pi * s / m)
    return sign * math.sin(math.pi * (m - 2 * s) / (2 * m))


def unit_direction(m: int, j: int) -> complex:
    """e^{i j pi / m} with the axis points exact.

    cos(j pi/m) and sin(j pi/m) are both routed through the folded cosine,
    so rays on the real axis have imaginary part exactly 0 and rays on the
    imaginary axis have real part exactly 0.
    """
    # sin(j pi/m) = cos(pi (2j - m) / (2m))
    return complex(alpha_from_residue(m, j), alpha_from_residue(2 * m, 2 * j - m))


def _alpha_sign_from_residue(m: int, t: int) -> Sign:
    t = t % (2 * m)
    d = 2 * t
    if d < m or d > 3 * m:
        return Sign.POSITIVE
    if d == m or d == 3 * m:
        return Sign.ZERO
    return Sign.NEGATIVE


def classify_ray(params: FamilyParams, j: int) -> RayDescriptor:
    """Exact classification of ray j: parity and the sign of alpha.

    The sign test is pure integer arithmetic on t = k*j mod 2m, so rays with
    alpha = 0 (possible only for even m) are never misread, no matter how
    large m gets.
    """
    m = params.m
    if not 0 <= j < 2 * m:
        raise RayIndexError(f"ray index {j} outside [0, {2 * m - 1}]")
    t = (params.k * j) % (2 * m)
    return RayDescriptor(
        j=j,
        angle=j * math.pi / m,
        parity=j % 2,
        alpha_sign=_alpha_sign_from_residue(m, t),
        residue=t,
    )


def power_term(coeff: float, r: float, p: int) -> float:
    """coeff * r**p for r > 0, overflow mapped to a signed infinity.

    Keeps evaluation total down to r ~ 1e-300 with negative p: the magnitude
    check happens in the log domain instead of trusting float pow to survive.
    """
    if coeff == 0.0:
        return 0.0
    try:
        rp = r ** p
    except OverflowError:
        return math.copysign(math.inf, coeff)
    if math.isinf(rp):
        return math.copysign(math.inf, coeff)
    return coeff * rp


def _over_power(lead: float, mid: float, r: float, m: int, k: int, one: float = 1.0) -> float:
    """(lead r^m + 2 mid r^k - one) / r^m, finite where r^m overflows: the one
    overflow rule of evaluate, f_value, f_derivative and the residual gate."""
    return lead + 2.0 * power_term(mid, r, k - m) - power_term(one, r, -m)


def _radial_sum(lead: float, mid: float, r: float, m: int, k: int) -> float:
    """lead r^m + 2 mid r^k - 1; where lead r^m overflows, _over_power scaled back."""
    tm = power_term(lead, r, m)
    if math.isinf(tm):
        return power_term(_over_power(lead, mid, r, m, k), r, m)
    return tm + 2.0 * power_term(mid, r, k) - 1.0


def _polar_trig(m: int, k: int, z: complex) -> tuple[float, float, float, float]:
    """r = |z| and cos(m theta), cos(k theta), sin(m theta) at theta = arg z.

    On the axes theta is exactly q pi / 2, and the three values come from the
    folded cosine as in unit_direction, so a zero cosine is exactly 0.0.
    """
    r, theta = cmath.polar(z)
    if (z.real and z.imag) or math.isnan(theta):
        return r, math.cos(m * theta), math.cos(k * theta), math.sin(m * theta)
    q = round(theta / (0.5 * math.pi))
    # sin(m q pi / 2) = cos((m q - 1) pi / 2)
    return r, alpha_from_residue(2, m * q), alpha_from_residue(2, k * q), alpha_from_residue(2, m * q - 1)


def evaluate(params: FamilyParams, z: complex) -> complex:
    """p(z) through the polar decomposition.

    Returns r^m cos(m theta) + 2 c r^k cos(k theta) - 1 + i r^m sin(m theta),
    with the trigonometric values exact on the axes.  z = 0 is the constant -1
    for k > 0 and a pole for k < 0.  Where r^m overflows, the real part is the
    signed infinity of Re p / r^m.
    """
    m, k, c = params.m, params.k, params.c
    z = complex(z)
    if z == 0:
        if k < 0:
            raise PoleAtOriginError("z = 0 is a pole when k < 0")
        return complex(-1.0, 0.0)
    r, cos_m, cos_k, sin_m = _polar_trig(m, k, z)
    return complex(_radial_sum(cos_m, c * cos_k, r, m, k), power_term(sin_m, r, m))
