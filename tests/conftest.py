"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's classification and
bracketing machinery: alpha comes from 50-digit cosines, ray counts from
dense sign-change grids, and root-of-unity censuses from exact rational
angle tests.
"""
from __future__ import annotations

import math
import os
import pathlib

import mpmath
import numpy as np
import pytest

import rayzeros

mpmath.mp.dps = 50

# the src directory the tested rayzeros is imported from
SRC = pathlib.Path(rayzeros.__file__).resolve().parents[1]


def pytest_report_header(config):
    return f"rayzeros from {SRC}"


def pytest_configure(config):
    """pyproject.toml puts this checkout's src ahead of PYTHONPATH, so a
    PYTHONPATH that names another checkout's src would silently go untested:
    stop the session instead."""
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        if entry and (pathlib.Path(entry) / "rayzeros" / "__init__.py").is_file():
            if pathlib.Path(entry).resolve() != SRC:
                raise pytest.UsageError(
                    f"PYTHONPATH puts rayzeros in {entry}, but the tests import it from {SRC}; "
                    "run pytest from the checkout that holds that src"
                )
            return

# smallest nonzero |cos(pi t / m)| is sin(pi/(2m)); anything below this is an
# exact zero for the m ranges exercised here
ALPHA_ZERO_CUTOFF = 1e-20


def mp_alpha(m: int, k: int, j: int) -> mpmath.mpf:
    """cos(k j pi / m) at 50 digits."""
    return mpmath.cospi(mpmath.mpf(k * j) / m)


def alpha_float(m: int, k: int, j: int) -> float:
    """Double-precision alpha from the high-precision path, exact zeros snapped."""
    a = float(mp_alpha(m, k, j))
    return 0.0 if abs(a) < ALPHA_ZERO_CUTOFF else a


def brute_ray_count(m: int, k: int, c: float, j: int, n: int = 60000) -> int:
    """Sign changes of (-1)^j r^m + 2 c alpha r^k - 1 on a dense log grid of (0, R]."""
    a = alpha_float(m, k, j)
    big = max(1.0, (2.0 * c + 2.0) ** (1.0 / (m - abs(k)))) + 1.0
    r = np.exp(np.linspace(math.log(1e-9), math.log(big), n))
    sgn = -1.0 if j % 2 else 1.0
    f = sgn * r ** m + 2.0 * c * a * r ** float(k) - 1.0
    s = np.sign(f)
    return int(np.sum(s[1:] * s[:-1] < 0))


def brute_halfplane_count(q: int) -> int:
    """q-th roots of unity with positive real part, enumerated exactly.

    cos(2 pi j / q) > 0 iff the rational j/q lies in [0, 1/4) or (3/4, 1),
    i.e. 4j < q or 4j > 3q; integer comparisons keep axis points exact.
    """
    return sum(1 for j in range(q) if 4 * j < q or 4 * j > 3 * q)


def valid_pairs(max_m: int, min_m: int = 2):
    """Every (m, k) with min_m <= m <= max_m, 1 <= |k| < m, gcd(m, |k|) = 1."""
    for m in range(min_m, max_m + 1):
        for a in range(1, m):
            if math.gcd(m, a) == 1:
                yield m, a
                yield m, -a


def valid_k_choices(m: int) -> list[int]:
    return [s * a for a in range(1, m) if math.gcd(m, a) == 1 for s in (1, -1)]
