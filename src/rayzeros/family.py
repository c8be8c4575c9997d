"""Core definitions for the one-parameter family p(z) = z^m + c(z^k + conj(z)^k) - 1.

The parameters obey m > |k| >= 1, gcd(m, |k|) = 1, c > 0; k may be negative,
in which case p has a pole at the origin.  Writing z = r e^{i theta},

    Re p = r^m cos(m theta) + 2 c r^k cos(k theta) - 1
    Im p = r^m sin(m theta)

so every zero lies on one of the 2m rays theta = j pi / m, j = 0 .. 2m-1.
The cosine weight of ray j is alpha = cos(k j pi / m), and its sign is
decided here exactly, with integer arithmetic on the residue t = k*j mod 2m
folded to s = min(t, 2m - t): alpha > 0 iff 2s < m, alpha = 0 iff 2s = m,
alpha < 0 otherwise.  Floating point never gets a vote on the
classification.  Counting never evaluates p: evaluate and its overflow rule
live in the root finder (roots), which loads on first use.
"""
import math
import operator
import sys
from enum import IntEnum
from typing import NamedTuple

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


# alpha's sign where the folded residue s has 2s < m, 2s = m, 2s > m
_SIGNS = (Sign.POSITIVE, Sign.ZERO, Sign.NEGATIVE)
_MAX_FLOAT = sys.float_info.max  # the greatest c _check_c accepts


class FamilyParams(NamedTuple):
    """Validated member of the family: degrees m, k and the positive weight c.

    Construct through :func:`validate`; direct construction skips the checks.
    """

    m: int
    k: int
    c: float


class RayDescriptor(NamedTuple):
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

    Raises ZeroKError, DegreeOrderError, NonCoprimeError or NonPositiveCError,
    and ParameterError for a degree not equal to an integer or a c not a number.
    """
    m = _degree("m", m)
    k = _degree("k", k)
    if k == 0:
        raise ZeroKError("k must be a nonzero integer")
    if m <= abs(k):
        raise DegreeOrderError(f"need m > |k|, got m={m}, k={k}")
    if math.gcd(m, abs(k)) != 1:
        raise NonCoprimeError(f"need gcd(m, |k|) = 1, got gcd({m}, {abs(k)}) = {math.gcd(m, abs(k))}")
    return FamilyParams(m=m, k=k, c=float(_check_c(c)))  # float() would round int(max_float) + 1 down


def _degree(name: str, value) -> int:
    """value as an int where it equals one: an int, an integral float or a numpy integer."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):  # not a number, nan or inf
        pass
    raise ParameterError(f"{name} must be an integer, got {name}={value!r}")


def _check_c(c: float) -> float:
    """The one rule for a valid c wherever it arrives from outside: 0 < c <= the
    greatest float, which nan, inf and an int beyond the float range fail.
    Returns c, through float() only where it does not compare as a number."""
    try:
        if 0.0 < c <= _MAX_FLOAT:
            return c
    except TypeError:  # a numeric string, say
        try:
            x = float(c)
        except (TypeError, ValueError):
            raise ParameterError(f"c must be a real number, got c={c!r}") from None
        return _check_c(x)
    raise NonPositiveCError(f"need finite c > 0, got c={c}")


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
    if 4 * s <= m:
        return sign * math.cos(math.pi * s / m)
    return sign * math.sin(math.pi * (m - 2 * s) / (2 * m))


def _alpha_half(m: int, start: int = 0, step: int = 1) -> list[float]:
    """alpha_from_residue(m, s) for s in range(start, m//2 + 1, step) bit for bit, from its own two expressions."""
    cos, sin, pi, s_all = math.cos, math.sin, math.pi, range(start, m // 2 + 1, step)
    q = len(range(start, m // 4 + 1, step))
    return [cos(pi * s / m) for s in s_all[:q]] + [sin(pi * (m - 2 * s) / (2 * m)) for s in s_all[q:]]


def _alpha_range(m: int, half: list[float]) -> list[float]:
    """alpha_from_residue(m, s) for s = 0 .. m from half = _alpha_half(m): alpha(m - s) = -alpha(s)."""
    return half + [-a for a in half[(m - 1) // 2::-1]]


def classify_ray(params: FamilyParams, j: int) -> RayDescriptor:
    """Exact classification of ray j: parity and the sign of alpha.

    The sign test is pure integer arithmetic on t = k*j mod 2m folded to
    s = min(t, 2m - t), so rays with alpha = 0 (possible only for even m) are
    never misread, no matter how large m gets.
    """
    m = params.m
    try:
        j = operator.index(j)
    except TypeError:
        raise RayIndexError(f"ray index {j!r} is not an integer") from None
    if not 0 <= j < 2 * m:
        raise RayIndexError(f"ray index {j} outside [0, {2 * m - 1}]")
    t = (params.k * j) % (2 * m)
    s = t if t <= m else 2 * m - t
    return RayDescriptor(j, j * math.pi / m, j % 2, _SIGNS[(2 * s >= m) + (2 * s > m)], t)


def power_term(coeff: float, r: float, p: int) -> float:
    """coeff * r**p for r > 0, overflow mapped to a signed infinity.

    A power beyond the float range raises OverflowError (float r ** p, or an
    int power too large to convert) and gives the infinity of coeff's sign; at
    r = inf, coeff * inf is already that infinity.
    """
    if coeff == 0.0:
        return 0.0
    try:
        return coeff * r ** p
    except OverflowError:
        return math.copysign(math.inf, coeff)


def __getattr__(name):  # PEP 562: perfbench/workloads.py::check_solve reads family.evaluate, which roots defines
    if name != "evaluate":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .roots import evaluate

    return evaluate
