"""The cached per-(m, k) ray table and the paths that read it.

all_zeros solves one ray per conjugate group and predict_at bisects the
table's sorted thresholds; both must agree exactly with the plain per-ray
loops they replace.
"""
from __future__ import annotations

import math
import random
import tracemalloc
from array import array

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
from rayzeros.family import _alpha_sign_from_residue, alpha_from_residue
from rayzeros.rays import (
    _PROFILES,
    DEGENERACY_RTOL,
    EXTREMUM_CASES,
    THRESHOLD_CASES,
    RayTable,
    _case_of,
    _multiplicity,
    _r0,
    ray_table,
)
from rayzeros import rays, roots

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


def reference_log_beta(m, k, alpha):
    """The threshold constant's log as one formula per row, the form the table's
    batched _log_betas must reproduce bit for bit."""
    a = abs(k)
    core = (m * math.log(2.0 * alpha) + k * math.log(a / m)) / (m - k)
    return core + math.log((m - k) / m if k > 0 else (m + a) / m)


def reference_table(m, k):
    """The ray table built by a plain per-row loop: every row folds its own
    residue, takes alpha, sign, case and profile through the per-ray functions,
    and computes its own c0."""
    alphas = array("d")
    cases = []
    c0 = []
    base = 0
    tally = [0] * 6  # rays by parity, then by alpha sign from positive to negative
    for j in range(m + 1):
        t = (k * j) % (2 * m)
        alpha = alpha_from_residue(m, t)
        sign = _alpha_sign_from_residue(m, t)
        case = _case_of(k, j % 2, sign)
        alphas.append(alpha)
        cases.append(case)
        n = _multiplicity(m, j)
        base += n * _PROFILES[case].below
        tally[3 * (j % 2) + 1 - sign] += n
        threshold = case in THRESHOLD_CASES
        c0.append(math.exp(-(m - k) / m * reference_log_beta(m, k, alpha)) if threshold else None)
    order = sorted((row for row in range(m + 1) if c0[row] is not None), key=c0.__getitem__)
    steps = array("q", [0])
    for row in order:
        profile = _PROFILES[cases[row]]
        steps.append(steps[-1] + _multiplicity(m, row) * (profile.above - profile.below))
    return RayTable(
        m=m,
        k=k,
        alpha=alphas,
        case=tuple(cases),
        c0=tuple(c0),
        order=array("q", order),
        c0s=array("d", (c0[row] for row in order)),
        steps=steps,
        base=base,
        census=tuple(tally),
    )


def bits(x):
    """A float (or None) in a form that tells -0.0 from 0.0 and every ulp apart."""
    return None if x is None else x.hex()


def table_bits(t):
    return (
        t.m, t.k,
        t.alpha.typecode, [bits(a) for a in t.alpha],
        t.case,
        [bits(c) for c in t.c0],
        t.order.typecode, list(t.order),
        t.c0s.typecode, [bits(c) for c in t.c0s],
        t.steps.typecode, list(t.steps),
        t.base, t.census,
    )


def sampled_pairs(n, max_m, seed):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < n:
        m = rng.randint(61, max_m)
        a = rng.randint(1, m - 1)
        if math.gcd(m, a) == 1:
            pairs.append((m, rng.choice((a, -a))))
    return pairs


class TestTableBuild:
    """The table built by folded residue equals the per-row loop bit for bit."""

    def test_bitwise_equal_to_per_row_loop_small_m(self):
        pairs = list(valid_pairs(60))
        assert len(pairs) > 2000
        # even m has alpha = 0 rows, which must keep their exact 0.0
        assert any(0.0 in ray_table(m, k).alpha for m, k in pairs if m % 2 == 0)
        for m, k in pairs:
            assert table_bits(ray_table(m, k)) == table_bits(reference_table(m, k)), (m, k)

    LARGE = sampled_pairs(24, 10_000, seed=8) + [(10000, 9999), (10000, -9999), (10000, 1), (9999, -2)]

    @pytest.mark.parametrize("m, k", LARGE)
    def test_bitwise_equal_to_per_row_loop_large_m(self, m, k):
        assert table_bits(ray_table(m, k)) == table_bits(reference_table(m, k))

    @pytest.mark.parametrize("m, k, c", [(12, 5, 0.8), (13, -6, 2.0), (31, -30, 1.0), (60, 7, 1e-3), (257, -101, 3.0)])
    def test_analyze_ray_unchanged(self, m, k, c):
        p = validate(m, k, c)
        ref = reference_table(m, k)
        for j in range(2 * m):
            a = analyze_ray(p, j)
            row = min(j, 2 * m - j)
            alpha, case = ref.alpha[row], ref.case[row]
            r0 = _r0(m, k, alpha, c) if case in EXTREMUM_CASES else None
            log_beta = reference_log_beta(m, k, alpha) if ref.c0[row] is not None else None
            got = (bits(a.alpha), a.case, bits(a.c0), bits(a.log_beta), bits(a.r0))
            assert got == (bits(alpha), case, bits(ref.c0[row]), bits(log_beta), bits(r0)), (m, k, j)

    @pytest.mark.parametrize("m, k", [(8, 3), (9, -2), (61, -30), (64, 33), (1001, 500)])
    def test_build_is_per_residue_not_per_row(self, monkeypatch, m, k):
        """One build folds the cosine at most once per residue s <= m/2 and never
        analyzes or classifies a ray, so a per-row loop cannot come back unnoticed."""
        calls = {"alpha_from_residue": 0, "classify_ray": 0, "analyze_ray": 0}
        for name in calls:
            fn = getattr(rays, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(rays, name, counted)
        ray_table.__wrapped__(m, k)
        assert 0 < calls["alpha_from_residue"] <= m // 2 + 1
        assert calls["classify_ray"] == calls["analyze_ray"] == 0


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
        # huge c with a zero at r = 1 on an alpha = 0 ray
        (4, 3, 5.516689610200797e134), (12, -1, 2.2234963889684092e131),
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

    # (1987, -1528, c): ray 1487 fails the residual gate, so each row must be
    # gated before the next row is solved
    @pytest.mark.parametrize("m, k, c", [(1987, -1528, 34.42266034645957)])
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
