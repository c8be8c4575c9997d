"""The cached per-(m, k) ray table and the paths that read it.

all_zeros solves one ray per conjugate group and predict_at bisects the
table's sorted thresholds; both must agree exactly with the plain per-ray
loops they replace.
"""
from __future__ import annotations

import math
import tracemalloc

import pytest

from rayzeros import (
    BracketFailure,
    all_zeros,
    analyze_ray,
    count_at,
    predict_at,
    solve_ray,
    thresholds,
    validate,
)
from rayzeros.rays import DEGENERACY_RTOL, ray_table
from rayzeros import roots

from conftest import valid_pairs


def reference_zeros(p):
    return [rec for j in range(2 * p.m) for rec in solve_ray(p, analyze_ray(p, j))]


def reference_count(p, c):
    return sum(count_at(analyze_ray(p, j), c) for j in range(2 * p.m))


def at_thresholds(m, k):
    return [(m, k, th.c0) for th in thresholds(validate(m, k, 1.0))]


class TestTable:
    def test_one_row_per_conjugate_group(self):
        for m, k in valid_pairs(14):
            t = ray_table(m, k)
            assert len(t.alpha) == len(t.case) == len(t.c0) == m + 1
            rays = sorted(j for row in range(m + 1) for j in t.rays(row))
            assert rays == list(range(2 * m))
            p = validate(m, k, 1.0)
            for j in range(2 * m):
                a = analyze_ray(p, j)
                row = t.row(j)
                assert (a.alpha, a.case, a.c0) == (t.alpha[row], t.case[row], t.c0[row])


class TestAllZerosEquivalence:
    CASES = (
        # even m: rays with alpha = 0 (rays 2, 6 of (4, 1); 4, 12 of (8, 3))
        (4, 1, 2.0), (8, 3, 0.7), (8, -3, 0.7), (6, -1, 2.0), (12, 5, 1.3),
        # k < 0
        (5, -4, 0.2), (9, -8, 0.3), (31, -12, 0.05), (50, -49, 1.0),
        # odd m, larger m
        (5, 4, 3.0), (64, 31, 1.0), (201, -61, 124.5),
        # extreme c that still solves
        (10, 3, 1e-300), (7, 2, 1e-200), (16, -7, 1e-30), (26, 3, 7826.9),
    )

    @pytest.mark.parametrize("m, k, c", CASES)
    def test_records_equal_reference_loop(self, m, k, c):
        p = validate(m, k, c)
        assert all_zeros(p) == reference_zeros(p)

    AT_C0 = at_thresholds(3, 1) + at_thresholds(5, -4) + at_thresholds(12, 5)[:3] + at_thresholds(13, -6)[:3]

    @pytest.mark.parametrize("m, k, c", AT_C0)
    def test_records_equal_reference_loop_at_c0(self, m, k, c):
        p = validate(m, k, c)
        recs = all_zeros(p)
        assert recs == reference_zeros(p)
        assert any(rec.degenerate for rec in recs)

    # (4, 3, c): ray 2 fails the residual gate before a later row loses its
    # bracket, so each row must be gated before the next row is solved
    @pytest.mark.parametrize("m, k, c", [(13, 12, 1e50), (4, 3, 5.516689610200797e134)])
    def test_failure_matches_reference_loop(self, m, k, c):
        p = validate(m, k, c)
        with pytest.raises(BracketFailure) as new:
            all_zeros(p)
        with pytest.raises(BracketFailure) as ref:
            reference_zeros(p)
        assert str(new.value) == str(ref.value)

    def test_one_table_no_analysis_and_newton_through_roots(self, monkeypatch):
        """all_zeros reads the ray table once, never builds a per-ray analysis,
        and takes every Newton step through the roots module's own binding."""
        calls = {"ray_table": 0, "analyze_ray": 0, "_log_f": 0}
        for name in calls:
            fn = getattr(roots, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(roots, name, counted)
        all_zeros(validate(8, 3, 0.7))
        assert calls["ray_table"] == 1
        assert calls["analyze_ray"] == 0
        assert calls["_log_f"] > 0


class TestPredictAtEquivalence:
    PAIRS = ((3, 1), (5, 4), (5, -4), (12, 5), (13, -6), (30, 7), (31, -30))

    @pytest.mark.parametrize("m, k", PAIRS)
    def test_equals_sum_of_ray_counts_around_every_threshold(self, m, k):
        p = validate(m, k, 1.0)
        points = []
        for th in thresholds(p):
            for c in (th.c0, th.c0 * (1 + DEGENERACY_RTOL), th.c0 * (1 - DEGENERACY_RTOL)):
                points += [c, math.nextafter(c, 0.0), math.nextafter(c, math.inf)]
        assert points
        for c in points:
            assert predict_at(p, c) == reference_count(p, c), (m, k, c)

    def test_equals_sum_of_ray_counts_on_log_grid(self):
        for m, k in ((2, 1), (4, -1), (9, 2), (16, 9)):
            p = validate(m, k, 1.0)
            for e in range(-40, 41):
                c = 10.0 ** (e / 8)
                assert predict_at(p, c) == reference_count(p, c), (m, k, c)


def test_table_cache_memory_is_bounded():
    """Tables of pairs no longer in use are dropped: retained memory stays flat.

    An unbounded cache would keep every table, about 17 KB each at m = 500.
    tracemalloc slows each build about eightfold, so 250 fresh pairs are traced.
    """
    pairs = [(m, k) for m in range(480, 530) for k in range(-m + 1, 0) if math.gcd(m, k) == 1]
    pairs = pairs[:: len(pairs) // 250][:250]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for m, k in pairs:
            predict_at(validate(m, k, 1.0), 1.0)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(set(pairs)) == 250
    assert retained < 1_500_000, retained
