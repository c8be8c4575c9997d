"""Global count predictions: closed-form table, census route, and exact counts."""
from __future__ import annotations

import math
import random

import pytest

import rayzeros.predict as predict_mod
import rayzeros.rays as rays_mod
from rayzeros.family import alpha_from_residue
from rayzeros import (
    CountProfile,
    FamilyParams,
    RayCase,
    all_zeros,
    analyze_ray,
    census,
    count_at,
    predict_at,
    predict_census,
    predict_table,
    thresholds,
    validate,
)

import exact
from conftest import passes_gate, valid_k_choices, valid_pairs


def reference_ladder(m, k):
    """The closed-form (min, max) written as one branch per m mod 4 and parity of k."""
    odd_k = k % 2 == 1
    if k > 0:
        if m % 4 == 0:
            n = m
        elif m % 4 == 1:
            n = m - 1 if odd_k else m + 1
        elif m % 4 == 2:
            n = m - 2
        else:
            n = m + 1 if odd_k else m - 1
        return m, m + n
    if m % 4 == 0:
        low, n = m + 1, m - 2
    elif m % 4 == 1:
        low, n = (m - 1, m + 1) if odd_k else (m, m + 1)
    elif m % 4 == 2:
        low, n = m - 1, m
    else:
        low, n = (m + 1, m - 1) if odd_k else (m, m - 1)
    return low, low + n


class TestPredictTable:
    def test_equals_the_branch_ladder_up_to_m_400(self):
        pairs = [(m, s * a) for m in range(2, 401) for a in range(1, m) if math.gcd(m, a) == 1 for s in (1, -1)]
        assert len(pairs) > 90_000
        for m, k in pairs:
            pred = predict_table(FamilyParams(m, k, 1.0))
            assert (pred.min_count, pred.max_count) == reference_ladder(m, k), (m, k)

    def test_even_k_growth(self):
        pred = predict_table(validate(5, 4, 1.0))
        assert (pred.min_count, pred.max_count, pred.direction) == (5, 11, "increasing")

    def test_negative_k_decay(self):
        pred = predict_table(validate(5, -4, 1.0))
        assert (pred.min_count, pred.max_count, pred.direction) == (5, 11, "decreasing")

    def test_multiple_of_four(self):
        pred = predict_table(validate(4, 1, 1.0))
        assert (pred.min_count, pred.max_count) == (4, 8)

    def test_band_width_always_even(self):
        for m, k in valid_pairs(30):
            pred = predict_table(validate(m, k, 1.0))
            assert pred.max_count >= pred.min_count
            assert (pred.max_count - pred.min_count) % 2 == 0


class TestPredictCensus:
    def test_even_k_growth(self):
        pred = predict_census(validate(5, 4, 1.0))
        assert (pred.min_count, pred.max_count) == (5, 11)

    def test_odd_k(self):
        pred = predict_census(validate(7, 1, 1.0))
        assert (pred.min_count, pred.max_count) == (7, 15)

    def test_negative_k(self):
        pred = predict_census(validate(5, -4, 1.0))
        assert (pred.min_count, pred.max_count) == (5, 11)

    def test_positive_k_minimum_is_m(self):
        for m, k in valid_pairs(30):
            if k > 0:
                assert predict_census(validate(m, k, 1.0)).min_count == m


class TestEquivalence:
    def test_table_equals_census_medium_range(self):
        # the full m <= 200 sweep runs in the acceptance suite
        for m, k in valid_pairs(60):
            p = validate(m, k, 1.0)
            assert predict_table(p) == predict_census(p), (m, k)

    def test_census_reads_the_case_table(self, monkeypatch):
        """A wrong count profile moves the census band off the closed-form table.
        The census reads each kind's counts below and above its threshold from
        predict._BOUNDS, which _PROFILES gives through _CASES once at import."""
        p = validate(5, 4, 1.0)
        assert predict_census(p) == predict_table(p)
        for pos, cases in enumerate(rays_mod._CASES):
            profiles = [rays_mod._PROFILES[case] for case in cases]
            assert predict_mod._BOUNDS[pos] == (tuple(pr.below for pr in profiles), tuple(pr.above for pr in profiles))
        kind, wrong = rays_mod._CASES[1].index(RayCase.POS_K_ODD_POS), CountProfile(0, 1, 4)
        belows, aboves = predict_mod._BOUNDS[1]
        wrong_bounds = (belows, aboves[:kind] + (wrong.above,) + aboves[kind + 1:])
        monkeypatch.setattr(predict_mod, "_BOUNDS", (predict_mod._BOUNDS[0], wrong_bounds))
        assert predict_census(p) != predict_table(p)

    def test_census_band_is_the_count_beyond_every_threshold_at_large_m(self):
        rng = random.Random(2024)
        pairs = [(10000, 9999), (10000, -9999)]
        while len(pairs) < 14:
            m = int(10.0 ** rng.uniform(1, 4))
            pairs.append((m, rng.choice(valid_k_choices(m))))
        for m, k in pairs:
            p = validate(m, k, 1.0)
            pred = predict_census(p)
            c0s = [th.c0 for th in thresholds(p)]
            below, above = predict_at(p, c0s[0] / 2.0), predict_at(p, c0s[-1] * 2.0)
            assert sorted((below, above), reverse=k < 0) == [below, above], (m, k)
            assert (min(below, above), max(below, above)) == (pred.min_count, pred.max_count), (m, k)


@pytest.mark.parametrize("k", [1, -1, 2])
def test_count_band_builds_no_threshold_rows(k):
    """Both bands and the census come from O(1) formulas: the threshold-row
    cache stays empty after all three."""
    p = validate(100003, k, 1.0)
    rays_mod._last_rows[0] = ((), None)
    predict_table(p), predict_census(p), census(p)
    assert rays_mod._last_rows[0][0] == ()


@pytest.mark.parametrize("k", [1, -1, 2])
def test_count_at_c_is_monotone_across_thresholds(k):
    """thresholds and predict_at read only the threshold rows, built from k's
    inverse: at m = 100003 the count is monotone in c and moves across the
    thresholds."""
    p = validate(100003, k, 1.0)
    ths = thresholds(p)
    lo, hi = math.log(ths[0].c0 / 10.0), math.log(ths[-1].c0 * 10.0)
    counts = [predict_at(p, math.exp(lo + (hi - lo) * i / 50)) for i in range(51)]
    assert counts == sorted(counts, reverse=k < 0) and counts[0] != counts[-1]


class TestPredictAt:
    def test_example_counts(self):
        p = validate(5, 4, 1.0)
        assert [predict_at(p, c) for c in (0.1, 1.0, 3.0)] == [5, 7, 11]
        q = validate(5, -4, 1.0)
        assert [predict_at(q, c) for c in (0.1, 0.2, 1.0)] == [11, 9, 5]

    def test_below_all_thresholds_attains_min(self):
        for m, k in valid_pairs(12):
            p = validate(m, k, 1.0)
            pred = predict_table(p)
            ths = thresholds(p)
            lo_c = min((th.c0 for th in ths), default=1.0) / 4.0
            hi_c = max((th.c0 for th in ths), default=1.0) * 4.0
            lo_count = pred.min_count if k > 0 else pred.max_count
            hi_count = pred.max_count if k > 0 else pred.min_count
            assert predict_at(p, lo_c) == lo_count
            assert predict_at(p, hi_c) == hi_count

    def test_sandwich(self):
        rng = random.Random(777)
        for _ in range(50):
            m = rng.randint(2, 13)
            k = rng.choice(valid_k_choices(m))
            c = 10.0 ** rng.uniform(-4, 4)
            p = validate(m, k, c)
            pred = predict_table(p)
            assert pred.min_count <= predict_at(p, c) <= pred.max_count

    def test_equals_sum_of_ray_counts(self):
        for m, k in ((5, 4), (5, -4), (7, 3), (8, -5), (2, 1)):
            p = validate(m, k, 1.0)
            for c in (0.01, 0.4, 1.1, 2.9, 40.0):
                direct = sum(count_at(analyze_ray(p, j), c) for j in range(2 * m))
                assert predict_at(p, c) == direct

    def test_steps_only_at_thresholds(self):
        p = validate(5, -4, 1.0)
        ths = [th.c0 for th in thresholds(p)]
        grid = sorted(
            [c for c in (0.05, 0.1, 0.3, 0.6, 1.0, 5.0)]
            + [c0 * (1 - 1e-6) for c0 in ths]
            + [c0 * (1 + 1e-6) for c0 in ths]
        )
        prev_c, prev_n = grid[0], predict_at(p, grid[0])
        for c in grid[1:]:
            n = predict_at(p, c)
            if n != prev_n:
                assert any(prev_c < c0 <= c for c0 in ths), (prev_c, c)
            prev_c, prev_n = c, n

    def test_monotone_step_function(self):
        rng = random.Random(1234)
        for _ in range(25):
            m = rng.randint(2, 13)
            k = rng.choice(valid_k_choices(m))
            p = validate(m, k, 1.0)
            counts = [
                predict_at(p, math.exp(x))
                for x in [math.log(1e-3) + i * (math.log(1e3) - math.log(1e-3)) / 99 for i in range(100)]
            ]
            if k > 0:
                assert counts == sorted(counts)
            else:
                assert counts == sorted(counts, reverse=True)

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError):
            predict_at(validate(3, 1, 1.0), 0.0)


def exact_count(m, k, c):
    """The count at c from the exact side of each threshold row: the ladder's
    min (k > 0) or max (k < 0), plus (k > 0) or minus (k < 0) two zeros for
    each ray whose exact c0 lies below c.  The rows' residues are the
    threshold parity's with 2s < m, their c0 rises with s, and fold 0's axis
    row (s = 0) stands for one ray."""
    low, high = reference_ladder(m, k)
    rays = 0
    for s in range(k % 2 if k > 0 else 0, (m + 1) // 2, 2):
        if not exact.c0(m, k, s) < c:
            break
        rays += 1 if s == 0 else 2
    return low + 2 * rays if k > 0 else high - 2 * rays


class TestBandFromC0Error:
    """The tangency band is c0's float error bound, DEGENERACY_RTOL = 4e-15, so
    every c the float c0 places on one side gets that side's exact count."""

    @pytest.mark.parametrize("m", [10**5 + 3, 10**6 + 3, 10**9 + 7, 10**12 + 39])
    def test_c0_error_is_inside_the_derived_bound(self, m):
        """The float c0 = C / alpha of the first two and the last threshold rows
        of k = +-1, +-2 and +-(m - 1) is within 19.4 u of the exact one, the
        derivation's bound on c0 before the band's own edges add 2 u."""
        bound = 19.4 * 2.0**-53
        assert bound + 2 * 2.0**-53 < rays_mod.DEGENERACY_RTOL
        for k in (1, -1, 2, -2, m - 1, 1 - m):
            residues, big_c = rays_mod._pair_facts(m, k)[:2]
            for s in (residues[0], residues[1], residues[-1]):
                c0 = big_c / alpha_from_residue(m, s)
                assert abs(c0 / exact.c0(m, k, s) - 1) <= bound, (m, k, s)

    # the geometric mean of the first two c0s, where the two rows' 1e-9 bands overlapped
    @pytest.mark.parametrize("m, k, c, count", [
        (100003, 2, 0.5001182089016019, 100005), (100003, -1, 0.4999374414819113, 200004),
    ])
    def test_between_the_first_two_c0s_at_large_m(self, m, k, c, count):
        p = validate(m, k, c)
        c0s = [th.c0 for th in thresholds(p)[:2]]
        assert c == math.sqrt(c0s[0] * c0s[1])
        assert exact_count(m, k, c) == count
        assert predict_at(p, c) == count
        recs = all_zeros(p)
        assert len(recs) == count
        assert not any(rec.degenerate for rec in recs)

    # from the old band's edge down to just above the new one
    DELTAS = (1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 5e-15)

    @pytest.mark.parametrize("m, k", [(5, 4), (5, -4), (12, 7), (13, -6), (30, -29), (49, 10), (96, -95), (201, -61)])
    def test_next_to_every_c0_the_count_is_the_exact_side(self, m, k):
        for th in thresholds(validate(m, k, 1.0)):
            for c in (th.c0 * (1 + d) for d in self.DELTAS + tuple(-d for d in self.DELTAS)):
                p, want = validate(m, k, c), exact_count(m, k, c)
                assert predict_at(p, c) == want, (m, k, c)
                recs = all_zeros(p)
                assert len(recs) == want, (m, k, c)
                assert all(not rec.degenerate and passes_gate(p, rec) for rec in recs), (m, k, c)
