"""The cached per-(m, k) ray table and the paths that read it.

all_zeros solves one ray per conjugate group and predict_at bisects the
table's sorted thresholds; both must agree exactly with the plain per-ray
loops they replace.
"""
from __future__ import annotations

import math
import random
import sys
import tracemalloc
from array import array
from bisect import bisect_left, bisect_right
from typing import NamedTuple

import pytest

from rayzeros import (
    BracketFailure,
    all_zeros,
    analyze_ray,
    census,
    classify_ray,
    count_at,
    degenerate_at,
    predict_at,
    solve_ray,
    thresholds,
    validate,
)
from rayzeros.family import alpha_from_residue
from rayzeros.rays import (
    _CASES,
    _PROFILES,
    DEGENERACY_RTOL,
    EXTREMUM_CASES,
    THRESHOLD_CASES,
    _IS_THRESHOLD,
    RayTable,
    Threshold,
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
            case, c0 = row_facts(t)
            assert len(t.alpha) == len(t.kind) == len(case) == len(c0) == m + 1
            assert sorted({t.row(j) for j in range(2 * m)}) == list(range(m + 1))
            p = validate(m, k, 1.0)
            for j in range(2 * m):
                a = analyze_ray(p, j)
                row = t.row(j)
                assert row == t.row(2 * m - j), (m, k, j)
                assert (a.alpha, a.case, a.c0) == (t.alpha[row], case[row], c0[row])


def row_facts(t):
    """A RayTable's case and c0 (None outside the threshold cases) per row: the
    case from the row's kind, and c0 from the c0s at the row's folded residue
    s, at index s // 2."""
    case = tuple(_CASES[t.k > 0][kind] for kind in t.kind)
    c0 = [None] * (t.m + 1)
    for row in range(t.m + 1):
        if case[row] in THRESHOLD_CASES:
            s = min(t.k * row % (2 * t.m), -t.k * row % (2 * t.m))
            c0[row] = t.c0s[s // 2]
    return case, tuple(c0)


class ReferenceTable(NamedTuple):
    """RayTable's fields, then each row's case and c0 as the per-row loop computes
    them, and its tally of the 2m rays by parity and alpha sign, which unity.census
    must equal."""

    m: int
    k: int
    alpha: array
    kind: bytes
    order: array
    c0s: array
    case: tuple
    c0: tuple
    census: tuple


def reference_c0(m, k, alpha):
    """A threshold row's c0 as one formula per row, C(m, k) / alpha, the form the
    table's once-per-pair C must reproduce bit for bit."""
    a = abs(k)
    tail = (m - k) / m if k > 0 else (m + a) / m
    return math.exp(-(k * math.log(a / m) + (m - k) * math.log(tail)) / m) / 2.0 / alpha


def reference_table(m, k):
    """The ray table built by a plain per-row loop: every row folds its own
    residue, takes alpha and sign through the per-ray functions and its kind
    and case from _CASES, and computes its own c0; the threshold rows are
    sorted by that c0."""
    p = validate(m, k, 1.0)
    alphas = array("d")
    cases = []
    kinds = bytearray()
    c0 = []
    tally = [0] * 6  # rays by parity, then by alpha sign from positive to negative
    for j in range(m + 1):
        t = (k * j) % (2 * m)
        alpha = alpha_from_residue(m, t)
        sign = classify_ray(p, j).alpha_sign
        kind = 3 * (j % 2) + 1 - sign
        case = _CASES[k > 0][kind]
        alphas.append(alpha)
        cases.append(case)
        kinds.append(kind)
        tally[3 * (j % 2) + 1 - sign] += 1 if j in (0, m) else 2
        threshold = case in THRESHOLD_CASES
        c0.append(reference_c0(m, k, alpha) if threshold else None)
    order = sorted((row for row in range(m + 1) if c0[row] is not None), key=c0.__getitem__)
    return ReferenceTable(
        m=m,
        k=k,
        alpha=alphas,
        kind=bytes(kinds),
        order=array("q", order),
        c0s=array("d", (c0[row] for row in order)),
        case=tuple(cases),
        c0=tuple(c0),
        census=tuple(tally),
    )


def reference_steps(t):
    """A running count over a per-row table: steps[i] is the total count once the
    first i threshold rows of t.order are passed, so steps[0] sums every row's
    count below its c0.  Rows 0 and m stand for one ray, the others for two."""
    rays = [1 if row in (0, t.m) else 2 for row in range(t.m + 1)]
    steps = [sum(n * _PROFILES[case].below for n, case in zip(rays, t.case))]
    for row in t.order:
        profile = _PROFILES[t.case[row]]
        steps.append(steps[-1] + rays[row] * (profile.above - profile.below))
    return steps


def running_count_at(t, steps, c):
    """The count at c from a running count: the rows whose tangency band holds c
    are the run c0s[a:b], and each adds half its gain there."""
    a = bisect_left(t.c0s, c / (1.0 + DEGENERACY_RTOL))
    b = bisect_right(t.c0s, c / (1.0 - DEGENERACY_RTOL), a)
    return steps[a] + (steps[b] - steps[a]) // 2


def bits(x):
    """A float (or None) in a form that tells -0.0 from 0.0 and every ulp apart."""
    return None if x is None else x.hex()


def table_bits(t):
    """Every field of a RayTable or ReferenceTable, its rows' case and c0, and
    the census (the reference's own tally, or unity.census for a RayTable), in a
    form that compares bit for bit."""
    if isinstance(t, ReferenceTable):
        case, c0, tally = t.case, t.c0, t.census
    else:
        (case, c0), tally = row_facts(t), tuple(census(validate(t.m, t.k, 1.0)))
    return (
        t.m, t.k,
        t.alpha.typecode, [bits(a) for a in t.alpha],
        t.kind,
        case,
        [bits(c) for c in c0],
        t.order.typecode, list(t.order),
        t.c0s.typecode, [bits(c) for c in t.c0s],
        tally,
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
        assert ReferenceTable._fields[:len(RayTable._fields)] == RayTable._fields
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
            log_beta = -m / (m - k) * math.log(ref.c0[row]) if ref.c0[row] is not None else None
            got = (bits(a.alpha), a.case, bits(a.c0), bits(a.log_beta), bits(a.r0))
            assert got == (bits(alpha), case, bits(ref.c0[row]), bits(log_beta), bits(r0)), (m, k, j)

    LARGE_M = [(100003, 1), (100003, -3), (100003, 2), (300007, 3001), (300007, -1), (300007, -2)]

    @pytest.mark.parametrize("m, k", LARGE_M)
    def test_threshold_rows_in_increasing_residue(self, m, k):
        """order[i] is the threshold row of folded residue q + 2i (q = 1 for odd
        k > 0, else 0), c0s[i] is that row's C / alpha, and c0 rises strictly
        with i, with no sort."""
        t = ray_table.__wrapped__(m, k)
        q = 1 if k > 0 and k % 2 else 0
        assert [min(k * row % (2 * m), -k * row % (2 * m)) for row in t.order] == list(range(q, (m + 1) // 2, 2))
        big_c = [c0 * t.alpha[row] for c0, row in zip(t.c0s, t.order)]
        assert max(big_c) - min(big_c) <= 1e-15 * big_c[0]
        assert all(a < b for a, b in zip(t.c0s, t.c0s[1:]))

    @staticmethod
    def assert_kinds_place_the_threshold_rows(t):
        """The rows whose kind is the threshold case of k's sign are exactly the rows
        of order, each once: the table's kinds and the rows from k's inverse agree."""
        flags = t.kind.translate(_IS_THRESHOLD[t.k > 0])
        assert set(flags) <= {0, 1}, (t.m, t.k)
        assert [row for row, flag in enumerate(flags) if flag] == sorted(t.order), (t.m, t.k)
        assert len(set(t.order)) == len(t.order), (t.m, t.k)

    def test_kinds_place_the_threshold_rows_small_m(self):
        for m, k in valid_pairs(200):
            self.assert_kinds_place_the_threshold_rows(ray_table.__wrapped__(m, k))

    @pytest.mark.parametrize("m, k", LARGE_M)
    def test_kinds_place_the_threshold_rows_large_m(self, m, k):
        self.assert_kinds_place_the_threshold_rows(ray_table.__wrapped__(m, k))

    @pytest.mark.parametrize("m, k", [(8, 3), (9, -2), (61, -30), (2048, 1001), (1001, 500)])
    def test_table_shares_the_threshold_rows(self, m, k):
        """The table's order and c0s are the threshold rows' own arrays, not copies,
        so c0 has one source."""
        t = ray_table.__wrapped__(m, k)
        order, c0s, _ = rays._threshold_rows(m, k)
        assert t.order is order and t.c0s is c0s

    @pytest.mark.parametrize("m, k", LARGE_M)
    def test_kinds_tally_to_the_census(self, m, k):
        """The table's exact-integer kinds, counted per ray (rows 0 and m once,
        every other row twice), give unity.census from the roots of unity."""
        kind = ray_table.__wrapped__(m, k).kind
        tally = [2 * kind.count(i) - (kind[0] == i) - (kind[m] == i) for i in range(6)]
        assert tuple(tally) == census(validate(m, k, 1.0))

    @pytest.mark.parametrize("m, k", [(8, 3), (9, -2), (61, -30), (64, 33), (1001, 500)])
    def test_build_is_per_residue_not_per_row(self, monkeypatch, m, k):
        """One cold build takes alpha for every residue s <= m/2 in one whole-range
        pass, and the threshold rows' alphas in one strided pass over s = q, q + 2,
        ..., and never folds a single cosine, analyzes or classifies a ray, so a
        per-row loop cannot come back unnoticed."""
        calls = {"_alpha_half": [], "alpha_from_residue": [], "classify_ray": [], "analyze_ray": []}
        for name in calls:
            fn = getattr(rays, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name].append(args)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(rays, name, counted)
        rays._threshold_rows.cache_clear()
        ray_table.__wrapped__(m, k)
        q = 1 if k > 0 and k % 2 else 0
        assert calls["_alpha_half"] == [(m,), (m, q, 2)]
        assert calls["alpha_from_residue"] == calls["classify_ray"] == calls["analyze_ray"] == []


def reference_thresholds(p):
    """thresholds() from a plain per-ray loop: analyze every one of the 2m rays,
    group the threshold rays by residue class min(t, 2m - t), and sort the groups
    by c0 (ties by their first ray, the table's row order)."""
    groups = {}
    for j in range(2 * p.m):
        a = analyze_ray(p, j)
        if a.c0 is not None:
            t = a.ray.residue
            groups.setdefault(min(t, 2 * p.m - t), []).append(a)
    rows = [(g[0].c0, tuple(a.ray.j for a in g), g[0].alpha) for g in groups.values()]
    assert all(a.c0 == g[0].c0 and a.alpha == g[0].alpha for g in groups.values() for a in g)
    return sorted(rows, key=lambda row: (row[0], row[1]))


def log_uniform_pairs(n, max_m, seed):
    """Seeded coprime pairs with m log-uniform in [61, max_m] and either sign of k."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < n:
        m = int(math.exp(rng.uniform(math.log(61), math.log(max_m + 1))))
        a = rng.randint(1, m - 1)
        if math.gcd(m, a) == 1:
            pairs.append((m, rng.choice((a, -a))))
    return pairs


class TestThresholdsEqualPerRayReference:
    """thresholds() built from the table's sorted rows equals the per-ray loop bit for bit."""

    @staticmethod
    def assert_equal_reference(m, k):
        p = validate(m, k, 1.0)
        got = [(bits(th.c0), th.rays, bits(th.alpha)) for th in thresholds(p)]
        want = [(bits(c0), rays, bits(alpha)) for c0, rays, alpha in reference_thresholds(p)]
        assert got == want, (m, k)

    def test_every_pair_small_m(self):
        pairs = list(valid_pairs(60))
        # both axis rows carry a threshold somewhere: row 0 for k < 0, row m for odd m and even k > 0
        assert any(row_facts(ray_table(m, k))[1][0] is not None for m, k in pairs)
        assert any(row_facts(ray_table(m, k))[1][m] is not None for m, k in pairs)
        for m, k in pairs:
            self.assert_equal_reference(m, k)

    SEEDED = log_uniform_pairs(300, 10_000, seed=16)

    @pytest.mark.parametrize("chunk", range(6))
    def test_seeded_pairs_large_m(self, chunk):
        for m, k in self.SEEDED[chunk::6]:
            self.assert_equal_reference(m, k)

    @pytest.mark.parametrize("m, k", [(10000, 9999), (10000, -9999), (1988, -869)])
    def test_named_pairs(self, m, k):
        self.assert_equal_reference(m, k)

    @pytest.mark.parametrize("m, k", [(3, 1), (5, 4), (5, -4), (12, 5), (13, -6), (2048, 1001), (2047, -2)])
    def test_records_equal_keyword_built_records(self, m, k):
        """thresholds() builds its records without the keyword constructor; they are
        Threshold records equal to the same ones built by keyword."""
        got = thresholds(validate(m, k, 1.0))
        order, c0s, alphas = rays._threshold_rows(m, k)
        axis = k < 0 or k % 2 == 0
        want = [
            Threshold(c0=c0, rays=(row,) if i == 0 and axis else (row, 2 * m - row), alpha=alpha)
            for i, (row, c0, alpha) in enumerate(zip(order, c0s, alphas))
        ]
        assert got == want
        assert all(type(th) is Threshold for th in got)
        assert [(th.c0, th.rays, th.alpha) for th in got] == [tuple(th) for th in want]


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
    # (5, 4) and (5, -4) have a threshold on an axis row (m and 0), which stands
    # for one ray; all_zeros runs on the pairs with m below 100, to keep the test short
    PAIRS = ((3, 1), (5, 4), (5, -4), (12, 5), (13, -6), (30, 7), (31, -30), (101, 38), (128, -45))

    @pytest.mark.parametrize("m, k", PAIRS)
    def test_equals_sum_of_ray_counts_around_every_threshold(self, m, k):
        p = validate(m, k, 1.0)
        points = []
        for th in thresholds(p):
            for c in (th.c0, th.c0 * (1 + DEGENERACY_RTOL), th.c0 * (1 - DEGENERACY_RTOL)):
                points += [c, math.nextafter(c, 0.0), math.nextafter(c, math.inf)]
        assert points
        analyses = [analyze_ray(p, j) for j in range(2 * m)]
        for c in points:
            assert predict_at(p, c) == reference_count(p, c), (m, k, c)
            if m < 100:
                recs = all_zeros(validate(m, k, c))
                assert len(recs) == predict_at(p, c), (m, k, c)
                # the solver's merged flag and the per-ray predicate pick the same rays
                merged = {j for j, a in enumerate(analyses) if degenerate_at(a, c)}
                assert {rec.j for rec in recs if rec.degenerate} == merged, (m, k, c)

    def test_equals_sum_of_ray_counts_on_log_grid(self):
        for m, k in ((2, 1), (4, -1), (9, 2), (16, 9)):
            p = validate(m, k, 1.0)
            for e in range(-40, 41):
                c = 10.0 ** (e / 8)
                assert predict_at(p, c) == reference_count(p, c), (m, k, c)


class TestPredictAtEqualsRunningCount:
    """predict_at, the modular band's end moved by the threshold rays passed,
    equals a running count of the per-row table's counts at every band edge."""

    @staticmethod
    def assert_equal_running_count(m, k):
        ref = reference_table(m, k)
        steps = reference_steps(ref)
        p = validate(m, k, 1.0)
        w = DEGENERACY_RTOL
        points = [5e-324, sys.float_info.max]
        for c0 in ref.c0s:
            for c in (c0, c0 * (1 + w), c0 * (1 - w), c0 / (1 + w), c0 / (1 - w)):
                points += [c, math.nextafter(c, 0.0), math.nextafter(c, math.inf)]
        for c in points:
            assert predict_at(p, c) == running_count_at(ref, steps, c), (m, k, c)

    def test_every_pair_small_m(self):
        for m, k in valid_pairs(60):
            self.assert_equal_running_count(m, k)

    @pytest.mark.parametrize("m, k", sampled_pairs(6, 10_000, seed=23) + [(9999, 9998), (10000, -9999)])
    def test_seeded_pairs_large_m(self, m, k):
        self.assert_equal_running_count(m, k)


def test_fold_zero_is_the_only_axis_threshold_and_the_first():
    """Fold 0 (alpha = 1, c0 = C) puts an axis row among the thresholds exactly
    when k < 0 or k is even, and that row's c0 is strictly the least."""
    for m, k in valid_pairs(200):
        t = ray_table.__wrapped__(m, k)
        c0 = row_facts(t)[1]
        axes = [row for row in (0, m) if c0[row] is not None]
        first = k < 0 or k % 2 == 0
        assert axes == (list(t.order[:1]) if first else []), (m, k)
        if first:
            assert axes and t.alpha[axes[0]] == 1.0, (m, k)
            assert len(t.c0s) == 1 or t.c0s[0] < t.c0s[1], (m, k)


def test_table_cache_memory_is_bounded():
    """Tables and threshold rows of pairs no longer in use are dropped: retained
    memory stays flat.

    An unbounded cache would keep every entry, about 11 KB for a table and its
    threshold rows at m = 500.  tracemalloc slows each build about eightfold, so
    250 fresh pairs are traced.
    """
    pairs = [(m, k) for m in range(480, 530) for k in range(-m + 1, 0) if math.gcd(m, k) == 1]
    pairs = pairs[:: len(pairs) // 250][:250]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for m, k in pairs:
            ray_table(m, k)
            predict_at(validate(m, k, 1.0), 1.0)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(set(pairs)) == 250
    assert retained < 1_500_000, retained
