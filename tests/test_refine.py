"""Refinement of each bracketed zero: accuracy, step count and termination.

The reference root is a bisection over the float grid inside the library's
own bracket, run until no float is left between its ends.  Each sign is
decided by evaluating f exactly (the exact reference, exact.py) on the same
float coefficients the library uses, so the reference is the float nearest to
the true zero of that f, independent of how the library evaluates it.

A zero agrees with the reference within the Newton stop, 1e-12 of r, plus
its condition limit: one unit roundoff of f's largest-magnitude sum,
sum |term|, moves the zero by u * sum |term| / |f'|.  Away from a tangency
that limit is far below the Newton stop; next to one, f' is small and it
dominates.  At (3, 1) with c = c0 (1 + 2e-9) it is 2.5e-12 of r; the inner
zero refined here lies 1.3e-12 of r from the reference, and bisection of
f_value with a derivative polish lands 1.4e-12 of r away on the other side.
"""
from __future__ import annotations

import math
import random
import struct

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
    extremum_radius,
    predict_at,
    solve_ray,
    thresholds,
    validate,
)
from rayzeros import rays, roots

import exact
from conftest import assert_named_ray_fails_alone, passes_gate

RTOL = roots._STEP_RTOL


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _float(i: int) -> float:
    return struct.unpack("<d", struct.pack("<q", i))[0]


def exact_f(p, analysis):
    """f on the ray with the library's float coefficients, evaluated exactly,
    and the absolute condition limit of a zero r."""
    sgn, b = -1 if analysis.ray.parity else 1, 2.0 * p.c * analysis.alpha

    def f(r: float):
        return exact.radial(p.m, p.k, sgn, b, r)[0]

    def limit(r: float) -> float:
        size = exact.radial(p.m, p.k, 1, abs(b), r)[0] + 2  # r^m + |b| r^k + 1
        slope = exact.radial(p.m, p.k, sgn, b, r)[1]
        return float(2.0**-53 * size / abs(slope))

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

    def test_bracket_ends_have_strict_opposite_signs(self):
        # the ends one unit beyond the term-line crossings, and r0 between a
        # pair, have strict opposite signs of the exact f at any float64 c
        rng = random.Random(7)
        for _ in range(60):
            m = rng.randint(2, 64)
            k = rng.choice([k for k in range(1 - m, m) if k and math.gcd(m, abs(k)) == 1])
            c = 10.0 ** rng.uniform(-300, 300)
            p = validate(m, k, c)
            for j in range(m + 1):
                a = analyze_ray(p, j)
                if degenerate_at(a, c):
                    continue
                f, _ = exact_f(p, a)
                intervals = bracket(a, c)
                assert len(intervals) == count_at(a, c)
                for lo, hi in intervals:
                    assert 0 < lo < hi
                    assert f(lo) * f(hi) < 0, (m, k, c, j, lo, hi)

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

    @pytest.mark.parametrize("m, k, c, bound", [(4001, 3001, 0.05, 2.0), (10000, 1, 1.0, 2.5)])
    def test_warm_start_steps_per_zero(self, monkeypatch, m, k, c, bound):
        # from the middle of its bracket a zero takes about 4 steps; started from
        # the secant through the zeros of the two previous rows of its run, under 2.5
        assert self.steps_per_zero(monkeypatch, m, k, c) <= bound

    def test_zero_tolerance_terminates(self, monkeypatch):
        # with no step small enough, Newton stops once the float grid is exhausted
        p = validate(50, 49, 1.0)
        n = len(all_zeros(p))
        monkeypatch.setattr(roots, "_STEP_RTOL", 0.0)
        recs = all_zeros(p)
        assert len(recs) == n
        for rec in recs:
            assert rec.residual <= Tolerances().residual_rtol * max(1.0, rec.r ** p.m)


class TestFloatRange:
    # the first seven failed with "endpoint signs agree" while f's sign came
    # from float powers; at (5, -4, 9e307) 2c overflowed
    @pytest.mark.parametrize(
        "m, k, c",
        [(13, 12, 1e50), (5, 4, 1e200), (7, 2, 1e300), (2000, 1999, 1.0), (3000, 2999, 1.0),
         (5000, 4999, 1.0), (10000, 9999, 1.0), (5, -4, 9e307)],
    )
    def test_cases_solve(self, m, k, c):
        p = validate(m, k, c)
        recs = all_zeros(p)
        assert len(recs) == predict_at(p, c)
        assert all(passes_gate(p, rec) for rec in recs)

    def test_moved_record_fails_the_scaled_gate(self, monkeypatch):
        # at (13, 12, 1e50) the outer radii reach 2e49, where r^13 overflows
        p = validate(13, 12, 1e50)
        refine = roots._refine

        def moved(*args):
            s = refine(*args)
            return s + 1e-6 if p.m * s > 710.0 else s

        monkeypatch.setattr(roots, "_refine", moved)
        with pytest.raises(BracketFailure, match=r"residual \|p\(z\)\|/r\^m .* exceeds 1e-10"):
            all_zeros(p)

    def test_zero_beyond_max_float_raises_bracket_failure(self):
        # ray 2 of (2, 1) has its zero near 2c, above max_float
        p = validate(2, 1, 9e307)
        with pytest.raises(BracketFailure) as err:
            all_zeros(p)
        assert str(err.value) == (
            "zero at log r = 709.7839953070682 beyond the float range: m=2, k=1, c=9e+307, ray 2, case pos_k_even_neg"
        )
        with pytest.raises(BracketFailure, match="bracket end at log r = .* beyond the float range"):
            bracket(analyze_ray(p, 2), p.c)


class TestR0BeyondFloatRange:
    # r0 = exp(log r0) exceeds max_float on these rays
    @pytest.mark.parametrize("m, k, j", [(3, 2, 3), (7, 6, 5)])
    def test_r0_is_inf_and_solve_ray_fails_like_all_zeros(self, m, k, j):
        p = validate(m, k, 1.7e308)
        a = analyze_ray(p, j)
        assert extremum_radius(a, p.c) == math.inf
        with pytest.raises(BracketFailure) as whole:
            all_zeros(p)
        with pytest.raises(BracketFailure) as one:
            solve_ray(p, a)
        assert "beyond the float range" in str(one.value)
        assert "beyond the float range" in str(whole.value)
        assert_named_ray_fails_alone(p, whole.value)

    def test_tangency_beyond_float_range_raises(self, monkeypatch):
        # no real tangency lies beyond max_float; a patched log r0 puts one there
        c0 = thresholds(validate(5, 4, 1.0))[0].c0
        monkeypatch.setattr(roots, "_log_r0", lambda *args: 800.0)
        with pytest.raises(BracketFailure) as err:
            all_zeros(validate(5, 4, c0))
        assert str(err.value) == (
            f"zero at log r = 800.0 beyond the float range: m=5, k=4, c={c0!r}, ray 5, case pos_k_odd_pos"
        )


class TestFailureMessages:
    # failure_class in the benchmark keys on "endpoint signs agree" and "residual ... exceeds"
    def test_residual_message_names_the_row(self):
        with pytest.raises(BracketFailure) as err:
            all_zeros(validate(1987, -1528, 34.42266034645957))
        assert str(err.value) == (
            "residual 1.236630797763174e-10 exceeds 1e-10 at r=0.998761195021707: "
            "m=1987, k=-1528, c=34.42266034645957, ray 1487, case neg_k_odd_pos"
        )

    def test_endpoint_message_names_the_row(self, monkeypatch):
        # a split point below the inner end leaves [a, s0] with one sign
        monkeypatch.setattr(roots, "_log_r0", lambda *args: -50.0)
        p = validate(5, 4, 3.0)
        with pytest.raises(BracketFailure) as err:
            all_zeros(p)
        assert str(err.value).startswith("endpoint signs agree on log r in [")
        assert str(err.value).endswith(": m=5, k=4, c=3.0, ray 5, case pos_k_odd_pos")
        assert assert_named_ray_fails_alone(p, err.value) == 5


class TestResidualGate:
    """The gate's bound is one module constant, which Tolerances records."""

    def test_tolerances_records_the_constant(self):
        assert Tolerances().residual_rtol == roots._RESIDUAL_RTOL == 1e-10

    def test_gate_reads_the_constant(self, monkeypatch):
        # at a bound of 0 the first record with a nonzero residual fails: ray 0's is 0.0, ray 2's is not
        monkeypatch.setattr(roots, "_RESIDUAL_RTOL", 0.0)
        with pytest.raises(BracketFailure, match=r"^residual \S+ exceeds 0\.0 at r=.*, ray 2, case "):
            all_zeros(validate(5, 4, 3.0))

    def test_no_row_is_solved_after_the_failing_one(self, monkeypatch):
        """At a bound of 0 the first row with a nonzero residual, in the order
        _runs hands the rows over, raises: every row before it solves on its
        own, and _refine runs only for the rows up to and including it, so no
        row of a later run is solved, not even one below the failing row."""
        monkeypatch.setattr(roots, "_RESIDUAL_RTOL", 0.0)
        calls = []
        refine = roots._refine
        monkeypatch.setattr(roots, "_refine", lambda *args: calls.append(args) or refine(*args))
        p = validate(8, 3, 0.7)
        with pytest.raises(BracketFailure) as err:
            all_zeros(p)
        solved, failed = len(calls), assert_named_ray_fails_alone(p, err.value)
        order = [(x, n if alpha and not degenerate else 0)
                 for _, n, degenerate, rows, alphas, _ in rays._runs(p) for x, alpha in zip(rows, alphas)]
        i = [x for x, _ in order].index(failed)
        for x, _ in order[:i]:
            solve_ray(p, analyze_ray(p, x))
        assert solved == sum(refines for _, refines in order[:i + 1])
        # (8, 3, 0.7) fails on ray 6, and ray 2 of a later run is not solved
        assert (failed, solved) == (6, 2)
