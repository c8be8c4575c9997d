"""Refinement of each bracketed zero: accuracy, step count and termination.

The reference root is a bisection over the float grid inside the library's
own bracket, run until no float is left between its ends.  Each sign is
decided by evaluating f exactly (60-digit mpmath) on the same float
coefficients the library uses, so the reference is the float nearest to
the true zero of that f, independent of how the library evaluates it.

A zero agrees with the reference within radius_rtol plus its condition
limit: one unit roundoff of f's largest-magnitude sum, sum |term|, moves the
zero by u * sum |term| / |f'|.  Away from a tangency that limit is far below
radius_rtol; next to one, f' is small and it dominates.  At (3, 1) with
c = c0 (1 + 2e-9) it is 2.5e-12 of r; the inner zero refined here lies
1.3e-12 of r from the reference, and bisection of f_value with a derivative
polish lands 1.4e-12 of r away on the other side.
"""
from __future__ import annotations

import struct
import sys

import mpmath
import pytest

from rayzeros import (
    BracketFailure,
    RayCase,
    Tolerances,
    all_zeros,
    analyze_ray,
    bracket,
    count_at,
    degenerate_at,
    solve_ray,
    thresholds,
    validate,
)
from rayzeros import roots

RTOL = Tolerances().radius_rtol


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _float(i: int) -> float:
    return struct.unpack("<d", struct.pack("<q", i))[0]


def exact_f(p, analysis):
    """f on the ray with the library's float coefficients, evaluated at 60 digits,
    and the absolute condition limit of a zero r."""
    ctx = mpmath.mp.clone()
    ctx.dps = 60
    sgn = ctx.mpf(-1 if analysis.ray.parity else 1)
    b = ctx.mpf(2.0 * p.c * analysis.alpha)

    def f(r: float):
        x = ctx.mpf(r)
        return sgn * x ** p.m + b * x ** p.k - 1

    def limit(r: float) -> float:
        x = ctx.mpf(r)
        size = x ** p.m + abs(b) * x ** p.k + 1
        slope = sgn * p.m * x ** (p.m - 1) + b * p.k * x ** (p.k - 1)
        return float(ctx.mpf(2.0) ** -53 * size / abs(slope))

    return f, limit


def reference_root(f, lo: float, hi: float) -> float:
    """Bisection on the float grid of [lo, hi] until its ends are adjacent floats."""
    lo_neg = f(lo) < 0
    assert (f(hi) < 0) != lo_neg, (lo, hi)
    i, k = _bits(lo), _bits(hi)
    while k - i > 1:
        mid = (i + k) // 2
        if (f(_float(mid)) < 0) == lo_neg:
            i = mid
        else:
            k = mid
    return _float(i)


def check_against_reference(m, k, c, rows=None):
    """Every refined zero of the solved rows agrees with the reference; returns their cases."""
    p = validate(m, k, c)
    cases = set()
    for j in rows if rows is not None else range(m + 1):
        a = analyze_ray(p, j)
        if count_at(a, c) == 0 or degenerate_at(a, c):
            continue
        f, limit = exact_f(p, a)
        got = [rec.r for rec in solve_ray(p, a)]
        want = sorted(reference_root(f, lo, hi) for lo, hi in bracket(a, c))
        assert len(got) == len(want)
        for r, ref in zip(got, want):
            assert abs(r - ref) <= RTOL * ref + limit(ref), (m, k, c, j, r, ref)
        cases.add(a.case)
    return cases


class TestAgainstReference:
    # each case shape with zeros; k < 0; even m with alpha = 0 rays
    SHAPES = (
        (5, 4, 3.0), (5, 4, 0.1), (7, 2, 0.5), (8, 3, 0.7), (8, -3, 0.7), (4, 1, 2.0),
        (12, 5, 1.3), (5, -4, 0.2), (9, -8, 0.3), (6, -1, 2.0), (31, -12, 0.05), (50, 49, 1.0),
        (50, -49, 1.0), (64, 31, 1.0), (201, -61, 124.5),
    )

    def test_every_shape_with_zeros(self):
        cases = set()
        for m, k, c in self.SHAPES:
            cases |= check_against_reference(m, k, c)
        assert cases == {
            RayCase.EVEN_ALPHA_ZERO, RayCase.POS_K_EVEN_POS, RayCase.POS_K_EVEN_NEG, RayCase.POS_K_ODD_POS,
            RayCase.NEG_K_EVEN_NEG, RayCase.NEG_K_ODD_POS, RayCase.NEG_K_EVEN_POS,
        }

    def test_tiny_inner_bracket_of_odd_positive_rays(self):
        # above c0 the inner zero of a k > 0, odd, alpha > 0 ray is bracketed from 4 * float_min
        p = validate(5, 4, 3.0)
        a = analyze_ray(p, 3)
        assert a.case is RayCase.POS_K_ODD_POS
        assert bracket(a, 3.0)[0][0] == 4.0 * sys.float_info.min
        check_against_reference(5, 4, 3.0, rows=[3])

    @pytest.mark.parametrize("m, k", [(3, 1), (5, -4), (12, 5), (13, -6), (40, -13), (99, 34)])
    def test_next_to_the_tangency_band(self, m, k):
        for th in thresholds(validate(m, k, 1.0))[:3]:
            for factor in (1.0 + 2e-9, 1.0 - 2e-9):
                check_against_reference(m, k, th.c0 * factor, rows=[min(th.rays)])

    @pytest.mark.parametrize("m, k, c", [(10, 3, 1e-300), (7, 2, 1e-200), (16, -7, 1e-30)])
    def test_extreme_c(self, m, k, c):
        check_against_reference(m, k, c)

    def test_large_m(self):
        check_against_reference(4001, 3001, 0.05, rows=range(0, 4002, 97))


class TestSteps:
    @staticmethod
    def steps_per_zero(monkeypatch, m, k, c):
        calls = [0]
        log_f = roots._log_f

        def counted(*args):
            calls[0] += 1
            return log_f(*args)

        monkeypatch.setattr(roots, "_log_f", counted)
        solved = [rec for rec in all_zeros(validate(m, k, c)) if rec.j <= m and not rec.degenerate]
        return calls[0] / len(solved)

    @pytest.mark.parametrize("m, k, c", [(1000, 999, 1.0), (4001, 3001, 0.05)])
    def test_newton_steps_per_zero(self, monkeypatch, m, k, c):
        # bisection alone would take about 40 steps per zero
        assert self.steps_per_zero(monkeypatch, m, k, c) <= 8

    def test_zero_tolerance_terminates(self):
        p = validate(50, 49, 1.0)
        tol = Tolerances(radius_rtol=0.0)
        recs = all_zeros(p, tol)
        assert len(recs) == len(all_zeros(p))
        for rec in recs:
            assert rec.residual <= tol.residual_rtol * max(1.0, rec.r ** p.m)


class TestFailureMessages:
    # the endpoint check and the overflow rule are unchanged, so are these messages
    @pytest.mark.parametrize(
        "m, k, c, message",
        [
            (13, 12, 1e50, "endpoint signs agree on [8.900295434028806e-308, 2.225292558559781e+49]"),
            (2000, 1999, 1.0, "endpoint signs agree on [8.900295434028806e-308, 1.4289630101676918]"),
        ],
    )
    def test_message(self, m, k, c, message):
        with pytest.raises(BracketFailure) as err:
            all_zeros(validate(m, k, c))
        assert str(err.value) == message
