"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every criterion carries its stated time budget, enforced here.
"""
from __future__ import annotations

import math
import random
import time

from rayzeros import (
    all_zeros,
    analyze_ray,
    compare,
    count_at,
    extremum_radius,
    f_value,
    find_zeros_grid,
    positive_halfplane_count,
    predict_at,
    predict_census,
    predict_table,
    thresholds,
    validate,
)

from conftest import brute_halfplane_count, brute_ray_count, valid_k_choices, valid_pairs


def _criterion(name: str, budget_s: float, fn):
    t0 = time.perf_counter()
    try:
        fn()
        error = None
    except AssertionError as exc:  # report, then re-raise for pytest
        error = exc
    elapsed = time.perf_counter() - t0
    ok = error is None and elapsed < budget_s
    print(f"{'PASS' if ok else 'FAIL'} {name} ({elapsed:.2f}s / budget {budget_s:.0f}s)")
    if error is not None:
        raise error
    assert elapsed < budget_s, f"{name} took {elapsed:.2f}s, budget {budget_s}s"


def test_example1_reproduction():
    def body():
        for c, want in ((0.1, 5), (1.0, 7), (3.0, 11)):
            p = validate(5, 4, c)
            assert len(all_zeros(p)) == want, (c, want)
            assert predict_at(p, c) == want, (c, want)

    _criterion("example1-counts-5-7-11", 1.0, body)


def test_example2_reproduction():
    def body():
        for c, want in ((0.1, 11), (0.2, 9), (1.0, 5)):
            p = validate(5, -4, c)
            assert len(all_zeros(p)) == want, (c, want)
            assert predict_at(p, c) == want, (c, want)

    _criterion("example2-counts-11-9-5", 1.0, body)


def test_table_census_equivalence():
    def body():
        checked = 0
        for m, k in valid_pairs(200):
            p = validate(m, k, 1.0)
            assert predict_table(p) == predict_census(p), (m, k)
            checked += 1
        assert checked == 24462  # every coprime pair with both signs

    _criterion("table-census-equivalence-m<=200", 60.0, body)


def test_halfplane_formula_brute_force():
    def body():
        for q in range(1, 501):
            assert brute_halfplane_count(q) == positive_halfplane_count(q), q

    _criterion("halfplane-count-formula-q<=500", 1.0, body)


def test_per_ray_count_oracle():
    def body():
        rng = random.Random(0xC0FFEE)
        for _ in range(500):
            m = rng.randint(2, 13)
            k = rng.choice(valid_k_choices(m))
            j = rng.randrange(2 * m)
            c = 10.0 ** rng.uniform(-3, 3)
            p = validate(m, k, c)
            got = count_at(analyze_ray(p, j), c)
            want = brute_ray_count(m, k, c, j)
            assert got == want, (m, k, j, c, got, want)

    _criterion("per-ray-counts-vs-dense-grid-500", 30.0, body)


def test_full_plane_oracle_agreement():
    def body():
        lo, hi, n = math.log(0.05), math.log(2.5), 5
        for m, k in valid_pairs(9):
            p1 = validate(m, k, 1.0)
            ths = [th.c0 for th in thresholds(p1)]
            for i in range(n):
                c = math.exp(lo + (hi - lo) * i / (n - 1))
                if any(abs(c - c0) < 1e-3 * c0 for c0 in ths):
                    continue
                p = validate(m, k, c)
                recs = all_zeros(p)
                res = find_zeros_grid(p, 160)
                assert len(res.zeros) == len(recs), (m, k, c, len(res.zeros), len(recs))
                report = compare(p, res, recs)
                assert report.clean, (m, k, c)
                assert report.max_distance < 1e-6, (m, k, c, report.max_distance)

    _criterion("full-plane-oracle-agreement-m<=9", 600.0, body)


def test_monotonicity():
    def body():
        rng = random.Random(0xBEEF)
        xs = [math.log(1e-3) + i * (math.log(1e3) - math.log(1e-3)) / 399 for i in range(400)]
        picked = set()
        while len(picked) < 50:
            m = rng.randint(2, 13)
            k = rng.choice(valid_k_choices(m))
            picked.add((m, k))
        for m, k in sorted(picked):
            p = validate(m, k, 1.0)
            counts = [predict_at(p, math.exp(x)) for x in xs]
            pred = predict_table(p)
            if k > 0:
                assert counts == sorted(counts), (m, k)
                assert counts[0] == pred.min_count and counts[-1] == pred.max_count, (m, k)
            else:
                assert counts == sorted(counts, reverse=True), (m, k)
                assert counts[0] == pred.max_count and counts[-1] == pred.min_count, (m, k)

    _criterion("predict-at-monotone-50-sweeps", 30.0, body)


def test_threshold_sharpness():
    def body():
        rays_checked = 0
        for m, k in valid_pairs(13):
            p1 = validate(m, k, 1.0)
            for th in thresholds(p1):
                for j in th.rays:
                    a = analyze_ray(p1, j)
                    below = count_at(a, th.c0 * (1 - 1e-4))
                    above = count_at(a, th.c0 * (1 + 1e-4))
                    assert abs(above - below) == 2, (m, k, j)
                    pc = validate(m, k, th.c0)
                    ac = analyze_ray(pc, j)
                    assert abs(f_value(pc, ac.ray, extremum_radius(ac, th.c0))) < 1e-8, (m, k, j)
                    rays_checked += 1
        assert rays_checked > 100  # the scan is not vacuous

    _criterion("threshold-sharpness-closed-forms", 10.0, body)


def test_residual_and_symmetry():
    def body():
        instances = [(5, 4, 0.1), (5, 4, 1.0), (5, 4, 3.0), (5, -4, 0.1), (5, -4, 0.2), (5, -4, 1.0)]
        rng = random.Random(42)
        while len(instances) < 18:
            m = rng.randint(2, 13)
            k = rng.choice(valid_k_choices(m))
            instances.append((m, k, 10.0 ** rng.uniform(-2, 2)))
        for m, k, c in instances:
            t0 = time.perf_counter()
            p = validate(m, k, c)
            recs = all_zeros(p)
            for rec in recs:
                assert rec.residual <= 1e-10 * max(1.0, abs(rec.z) ** m), (m, k, c, rec)
            zs = [rec.z for rec in recs]
            for z in zs:
                nearest = min(abs(z.conjugate() - w) for w in zs)
                assert nearest <= 1e-12 * max(1.0, abs(z)), (m, k, c, z)
            assert time.perf_counter() - t0 < 10.0, (m, k, c)

    _criterion("residual-bound-and-conjugation-closure", 200.0, body)
