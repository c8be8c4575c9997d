"""The per-row facts of (m, k) against a plain per-row reference table.

analyze_ray answers from the ray's own residue, all_zeros solves one ray per
conjugate group, and thresholds and predict_at read the threshold rows'
increasing c0s; all must agree with the plain per-ray loops they replace,
exactly but for all_zeros' radii, which may move within the Newton stop.
"""
from __future__ import annotations

import ast
import math
import pathlib
import random
import sys
import threading
import tracemalloc
from array import array
from bisect import bisect_left, bisect_right
from functools import partial
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
    extremum_radius,
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
    Threshold,
    _r0,
)
from rayzeros.roots import unit_direction
from rayzeros import oracle, predict, rays, roots

from conftest import assert_named_ray_fails_alone, passes_gate, valid_pairs


def reference_zeros(p):
    return [rec for j in range(2 * p.m) for rec in solve_ray(p, analyze_ray(p, j))]


def reference_count(p, c):
    return sum(count_at(analyze_ray(p, j), c) for j in range(2 * p.m))


def at_thresholds(m, k):
    return [(m, k, th.c0) for th in thresholds(validate(m, k, 1.0))]


class TestTable:
    def test_one_row_per_conjugate_group(self):
        """Ray j and its mirror 2m - j are one row of the reference table: analyze_ray
        gives both that row's alpha, case and c0, bit for bit."""
        for m, k in valid_pairs(14):
            p, ref = validate(m, k, 1.0), reference_table(m, k)
            assert len(ref.alpha) == len(ref.kind) == len(ref.case) == len(ref.c0) == m + 1
            for j in range(2 * m):
                a, row = analyze_ray(p, j), min(j, 2 * m - j)
                got = (bits(a.alpha), a.case, bits(a.c0))
                assert got == (bits(ref.alpha[row]), ref.case[row], bits(ref.c0[row])), (m, k, j)


def row_kinds(m, k):
    """Each row's kind, alpha's sign slot (positive, zero, negative) + 3 * parity,
    from its folded residue s by integer arithmetic: alpha > 0 iff 2s < m and
    alpha = 0 iff 2s = m."""
    two_m = 2 * m
    folded = [min(t, two_m - t) for t in map(two_m.__rmod__, range(0, k * (m + 1), k))]
    return [3 * (j % 2) + (2 * s >= m) + (2 * s > m) for j, s in enumerate(folded)]


class ReferenceTable(NamedTuple):
    """The facts of the m + 1 rows as a plain per-row loop computes them: alpha,
    kind, the threshold rows sorted by c0 and their c0s, each row's case and c0,
    and the tally of the 2m rays by parity and alpha sign, which unity.census
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
    """A threshold row's c0 as one formula per row, C(m, k) / alpha, the form
    rays._big_c's C must reproduce bit for bit."""
    a = abs(k)
    tail = (m - k) / m if k > 0 else (m + a) / m
    return math.exp(-(k * math.log(a / m) + (m - k) * math.log(tail)) / m) / 2.0 / alpha


def reference_table(m, k):
    """The facts of rows 0..m from a plain per-row loop: every row folds its
    own residue, takes alpha and sign through the per-ray functions and its
    kind and case from _CASES, and computes its own c0; the threshold rows
    are sorted by that c0."""
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
    """Every field of a ReferenceTable in a form that compares bit for bit."""
    return (
        t.m, t.k,
        [bits(a) for a in t.alpha], t.kind, t.case, [bits(c) for c in t.c0],
        list(t.order), [bits(c) for c in t.c0s],
        t.census,
    )


def row_bits(a):
    """A ray's alpha, kind, case and c0 from its analysis, in table_bits' form."""
    return bits(a.alpha), 1 - a.ray.alpha_sign + 3 * a.ray.parity, a.case, bits(a.c0)


def analyzed_bits(m, k):
    """table_bits' fields read with no table: each row's facts through analyze_ray
    on ray j and on its mirror 2m - j, which must agree, the threshold rows'
    order and c0s from rays._build_threshold_rows, and the tally from unity.census."""
    p = validate(m, k, 1.0)
    rows = [row_bits(analyze_ray(p, j)) for j in range(m + 1)]
    assert [row_bits(analyze_ray(p, 2 * m - j)) for j in range(1, m)] == rows[1:m], (m, k)
    alpha, kind, case, c0 = map(list, zip(*rows))
    order, c0s = rays._build_threshold_rows(m, k)[:2]
    return (
        m, k,
        alpha, bytes(kind), tuple(case), c0,
        list(order), [bits(c) for c in c0s],
        tuple(census(p)),
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
    """analyze_ray and the threshold rows, each from residues, equal the per-row loop bit for bit."""

    def test_bitwise_equal_to_per_row_loop_small_m(self):
        pairs = list(valid_pairs(60))
        assert len(pairs) > 2000
        zero_rows = 0
        for m, k in pairs:
            got = analyzed_bits(m, k)
            assert got == table_bits(reference_table(m, k)), (m, k)
            zero_rows += got[2].count(bits(0.0))
        # even m has alpha = 0 rows, which must keep their exact 0.0
        assert zero_rows

    LARGE = sampled_pairs(24, 10_000, seed=8) + [(10000, 9999), (10000, -9999), (10000, 1), (9999, -2)]

    @pytest.mark.parametrize("m, k", LARGE)
    def test_bitwise_equal_to_per_row_loop_large_m(self, m, k):
        assert analyzed_bits(m, k) == table_bits(reference_table(m, k))

    @pytest.mark.parametrize("m, k, c", [(12, 5, 0.8), (13, -6, 2.0), (31, -30, 1.0), (60, 7, 1e-3), (257, -101, 3.0)])
    def test_analyze_ray_unchanged(self, m, k, c):
        p = validate(m, k, c)
        ref = reference_table(m, k)
        for j in range(2 * m):
            a = analyze_ray(p, j)
            row = min(j, 2 * m - j)
            alpha, case = ref.alpha[row], ref.case[row]
            r0 = _r0(m, k, alpha, c) if case in EXTREMUM_CASES else None
            got = (bits(a.alpha), a.case, bits(a.c0), bits(extremum_radius(a, c)))
            assert got == (bits(alpha), case, bits(ref.c0[row]), bits(r0)), (m, k, j)

    LARGE_M = [(100003, 1), (100003, -3), (100003, 2), (300007, 3001), (300007, -1), (300007, -2)]

    @pytest.mark.parametrize("m, k", LARGE_M)
    def test_threshold_rows_in_increasing_residue(self, m, k):
        """order[i] is the threshold row of folded residue q + 2i (q = 1 for odd
        k > 0, else 0), c0s[i] is that row's C / alpha, and c0 rises strictly
        with i, with no sort; alphas[i] is alpha_from_residue(m, q + 2i) bit for bit."""
        order, c0s, alphas = rays._build_threshold_rows(m, k)[:3]
        q = 1 if k > 0 and k % 2 else 0
        residues = range(q, (m + 1) // 2, 2)
        assert [min(k * row % (2 * m), -k * row % (2 * m)) for row in order] == list(residues)
        assert list(map(bits, alphas)) == [bits(alpha_from_residue(m, s)) for s in residues]
        big_c = [c0 * alpha for c0, alpha in zip(c0s, alphas)]
        assert max(big_c) - min(big_c) <= 1e-15 * big_c[0]
        assert all(a < b for a, b in zip(c0s, c0s[1:]))

    @staticmethod
    def assert_kinds_place_the_threshold_rows(m, k):
        """The rows whose integer kind is the threshold case of k's sign are exactly
        the threshold rows' order, each once: the folded residues and the rows from
        k's inverse agree."""
        order = rays._build_threshold_rows(m, k)[0]
        rows = [row for row, kind in enumerate(row_kinds(m, k)) if _CASES[k > 0][kind] in THRESHOLD_CASES]
        assert rows == sorted(order), (m, k)
        assert len(set(order)) == len(order), (m, k)

    def test_kinds_place_the_threshold_rows_small_m(self):
        for m, k in valid_pairs(200):
            self.assert_kinds_place_the_threshold_rows(m, k)

    @pytest.mark.parametrize("m, k", LARGE_M)
    def test_kinds_place_the_threshold_rows_large_m(self, m, k):
        self.assert_kinds_place_the_threshold_rows(m, k)

    @pytest.mark.parametrize("m, k", [(8, 3), (9, -2), (61, -30), (2048, 1001), (1001, 500)])
    def test_table_shares_the_threshold_rows(self, monkeypatch, m, k):
        """analyze_ray's alpha and c0 on each threshold row are the threshold rows'
        own, bit for bit, and both take C from rays._big_c: C has one source."""
        p = validate(m, k, 1.0)
        order, c0s, alphas = rays._build_threshold_rows(m, k)[:3]
        for row, c0, alpha in zip(order, c0s, alphas):
            a = analyze_ray(p, row)
            assert (bits(a.alpha), bits(a.c0)) == (bits(alpha), bits(c0)), (m, k, row)
        monkeypatch.setattr(rays, "_big_c", lambda m, k: 2.0)
        assert list(rays._build_threshold_rows(m, k)[1]) == [2.0 / alpha for alpha in alphas]
        assert [analyze_ray(p, row).c0 for row in order] == [2.0 / alpha for alpha in alphas]

    @pytest.mark.parametrize("m, k", LARGE_M)
    def test_kinds_tally_to_the_census(self, m, k):
        """The rows' exact-integer kinds, counted per ray (rows 0 and m once,
        every other row twice), give unity.census from the roots of unity."""
        kind = row_kinds(m, k)
        tally = [2 * kind.count(i) - (kind[0] == i) - (kind[m] == i) for i in range(6)]
        assert tuple(tally) == census(validate(m, k, 1.0))

    @pytest.mark.parametrize("m, k", [(8, 3), (9, -2), (61, -30), (64, 33), (1001, 500)])
    def test_build_is_per_residue_not_per_row(self, monkeypatch, m, k):
        """One cold build of the threshold rows takes their alphas in one strided
        pass over s = q, q + 2, ..., and never folds a single cosine, analyzes or
        classifies a ray, so a per-row loop cannot come back unnoticed."""
        calls = {"_alpha_half": [], "alpha_from_residue": [], "classify_ray": [], "analyze_ray": []}
        for name in calls:
            fn = getattr(rays, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name].append(args)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(rays, name, counted)
        rays._build_threshold_rows(m, k)
        q = 1 if k > 0 and k % 2 else 0
        assert calls["_alpha_half"] == [(m, q, 2)]
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
    """thresholds() built from the threshold rows equals the per-ray loop bit for bit."""

    @staticmethod
    def assert_equal_reference(m, k):
        p = validate(m, k, 1.0)
        got = [(bits(th.c0), th.rays, bits(th.alpha)) for th in thresholds(p)]
        want = [(bits(c0), rays, bits(alpha)) for c0, rays, alpha in reference_thresholds(p)]
        assert got == want, (m, k)

    def test_every_pair_small_m(self):
        pairs = list(valid_pairs(60))
        # both axis rows carry a threshold somewhere: row 0 for k < 0, row m for odd m and even k > 0
        assert any(analyze_ray(validate(m, k, 1.0), 0).c0 is not None for m, k in pairs)
        assert any(analyze_ray(validate(m, k, 1.0), m).c0 is not None for m, k in pairs)
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
        order, c0s, alphas = rays._build_threshold_rows(m, k)[:3]
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

    @staticmethod
    def assert_matches_reference_loop(p):
        """all_zeros against cold solve_ray on every ray: the same rays, flags,
        count and order, each radius within the Newton stop (all_zeros starts
        Newton from neighbouring rows' zeros), each z on its ray and each record
        that is not a merged pair inside the residual gate."""
        recs, want = all_zeros(p), reference_zeros(p)
        assert [(rec.j, rec.degenerate) for rec in recs] == [(rec.j, rec.degenerate) for rec in want]
        for rec, ref in zip(recs, want):
            assert abs(rec.r - ref.r) <= roots._STEP_RTOL * ref.r, (rec, ref)
            assert rec.z == rec.r * unit_direction(p.m, rec.j), rec
            assert rec.degenerate or passes_gate(p, rec), rec
        return recs

    @pytest.mark.parametrize("m, k, c", CASES)
    def test_records_equal_reference_loop(self, m, k, c):
        self.assert_matches_reference_loop(validate(m, k, c))

    AT_C0 = at_thresholds(3, 1) + at_thresholds(5, -4) + at_thresholds(12, 5)[:3] + at_thresholds(13, -6)[:3]

    @pytest.mark.parametrize("m, k, c", AT_C0)
    def test_records_equal_reference_loop_at_c0(self, m, k, c):
        recs = self.assert_matches_reference_loop(validate(m, k, c))
        assert any(rec.degenerate for rec in recs)

    # (1987, -1528, c): ray 1487 fails the residual gate, so each row must be
    # gated before the next row is solved.  At (2941, 2020, c) and (95, -77, c)
    # several rows fail, and all_zeros names the first one its runs meet, not
    # the lowest one the reference loop names
    @pytest.mark.parametrize(
        "m, k, c",
        [(1987, -1528, 34.42266034645957), (2941, 2020, 1566.8), (95, -77, 2.2524703952891094e-308)],
    )
    def test_failure_matches_reference_loop(self, m, k, c):
        p = validate(m, k, c)
        with pytest.raises(BracketFailure) as new:
            all_zeros(p)
        with pytest.raises(BracketFailure):
            reference_zeros(p)
        assert_named_ray_fails_alone(p, new.value)

    def test_one_table_no_analysis_and_newton_through_roots(self, monkeypatch):
        """all_zeros never builds a per-ray analysis, and takes every Newton step
        through the roots module's own binding."""
        calls = {"analyze_ray": 0, "_log_f": 0}
        for module, name in ((roots, "analyze_ray"), (roots, "_log_f")):
            fn = getattr(module, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        all_zeros(validate(8, 3, 0.7))
        assert calls["analyze_ray"] == 0
        assert calls["_log_f"] > 0

    # odd k of both signs and even k; the tail of the benchmark's solve workload is m near 4096
    @pytest.mark.parametrize("m, k, c", [(4001, 3001, 0.05), (4001, -101, 1.0), (4001, 3000, 0.05)])
    def test_builds_no_threshold_rows(self, m, k, c):
        """all_zeros takes its band split from its own runs' alphas: a cold call
        builds no threshold rows."""
        p = validate(m, k, c)
        rays._last_rows[0] = ((), None)
        recs = all_zeros(p)
        assert rays._last_rows[0][0] == ()
        assert len(recs) == predict_at(p, c)


# the nine fixed c of tools/records.py, from 5e-324 to max_float
FIXED_C = (5e-324, 1e-300, 1e-10, 0.3, 1.0, 3.0, 1e10, 1e300, sys.float_info.max)


def test_runs_hand_over_every_row_once_with_its_own_facts():
    """rays._runs, the runs all_zeros solves, against the per-row facts: at every
    c0, c0 (1 +- DEGENERACY_RTOL) and the fixed c of every pair with m <= 40,
    each run has zeros, the rows are distinct, their zeros (the axis rows once,
    the others for both mirrors) sum to predict_at, each alpha and unit is bit
    for bit alpha_from_residue's and unit_direction's, and the merged pair is
    exactly the threshold rows whose c lies in the band around C / alpha."""
    for m, k in valid_pairs(40):
        p = validate(m, k, 1.0)
        big_c = rays._big_c(m, k)
        alpha = [alpha_from_residue(m, k * x) for x in range(m + 1)]
        unit = [unit_direction(m, x) for x in range(m + 1)]
        threshold_c0s = [(x, big_c / alpha[x]) for x in range(m + 1) if analyze_ray(p, x).case in THRESHOLD_CASES]
        cs = [c for th in thresholds(p) for c in (th.c0, th.c0 * (1 + DEGENERACY_RTOL), th.c0 * (1 - DEGENERACY_RTOL))]
        for c in cs + list(FIXED_C):
            rows, alphas, units, merged, zeros = [], [], [], set(), 0
            for case, n, degenerate, run, run_alphas, run_units in rays._runs(validate(m, k, c)):
                assert n > 0 and run, (m, k, c, case)
                rows += run
                alphas += run_alphas
                units += run_units
                merged.update(run if degenerate else ())
                zeros += n * (2 * len(run) - (0 in run) - (m in run))
            assert len(set(rows)) == len(rows), (m, k, c)
            assert zeros == predict_at(p, c), (m, k, c)
            assert array("d", alphas).tobytes() == array("d", [alpha[x] for x in rows]).tobytes(), (m, k, c)
            got = array("d", [u.real for u in units] + [u.imag for u in units])
            want = array("d", [unit[x].real for x in rows] + [unit[x].imag for x in rows])
            assert got.tobytes() == want.tobytes(), (m, k, c)
            assert merged == {x for x, c0 in threshold_c0s if rays._side(c, c0) == 1}, (m, k, c)


class TestRunsBoundary:
    """rays owns the walk over the runs of rows, and family the overflow rule:
    roots reads the runs only through rays._runs, and the oracle keeps no copy
    of power_term."""

    @staticmethod
    def imported(module):
        tree = ast.parse(pathlib.Path(module.__file__).read_text())
        return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}

    def test_roots_takes_its_runs_from_rays(self):
        walk = {"_CASES", "_PROFILES", "THRESHOLD_CASES", "_band", "_big_c", "_rows", "_alpha_half", "_alpha_range"}
        assert not walk & self.imported(roots)
        assert "_runs" in self.imported(roots)

    def test_oracle_takes_the_overflow_rule_from_family(self):
        tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert "_pow" not in defined
        assert "power_term" in self.imported(oracle)


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


class TestClosedBand:
    """predict_at on any pair but the one thresholds was last called on counts
    from rays._closed_band and keeps nothing; on that pair it runs _band on the
    cached rows' c0s.  The two answer every query alike."""

    @staticmethod
    def queries(m, k, sample=None):
        """The nine fixed c, then each c0, c0 (1 +- w) and c0 / (1 +- w) with one
        ulp either side, of every threshold row or of a seeded sample of them."""
        w, cs, c0s = DEGENERACY_RTOL, list(FIXED_C), rays._build_threshold_rows(m, k)[1]
        if sample is not None:
            c0s = random.Random(f"{m}:{k}").sample(c0s, min(sample, len(c0s)))
        for c0 in c0s:
            for c in (c0, c0 * (1 + w), c0 * (1 - w), c0 / (1 + w), c0 / (1 - w)):
                cs += [math.nextafter(c, 0.0), c, math.nextafter(c, math.inf)]
        return cs

    @classmethod
    def assert_cold_equals_warm(cls, m, k, sample=None):
        p, cs = validate(m, k, 1.0), cls.queries(m, k, sample)
        rays._last_rows[0] = ((), None)
        cold = [predict_at(p, c) for c in cs]
        assert rays._last_rows[0][0] == (), (m, k)
        thresholds(p)
        assert [predict_at(p, c) for c in cs] == cold, (m, k)
        return len(cs)

    def test_every_pair_small_m(self):
        assert sum(self.assert_cold_equals_warm(m, k) for m, k in valid_pairs(60)) > 300_000

    @pytest.mark.parametrize("m, k", sampled_pairs(6, 100_000, seed=48) + [(10000, 1), (100003, -2), (99991, 99990)])
    def test_seeded_pairs_large_m(self, m, k):
        self.assert_cold_equals_warm(m, k, sample=400)

    @pytest.mark.parametrize("m", [10**6 + 3, 10**12 + 39])
    @pytest.mark.parametrize("k", [1, -2])
    def test_any_m_builds_nothing_and_meets_the_limit(self, monkeypatch, m, k):
        """A cold predict_at builds no threshold rows and takes no pass over
        residues, so it answers at m = 10^12 + 39 too.  Its count per m lies within
        4/m of the large-m limit, with kappa = k/m and
        C(kappa) = 1 / (2 |kappa|^kappa (1 - kappa)^(1 - kappa)):
        1 + (2/pi) acos(min(1, C(kappa)/c)) for k > 0, 2 - (2/pi) acos(...) for k < 0."""
        calls = {"_alpha_half": 0, "_build_threshold_rows": 0}
        for name in calls:

            def counted(*args, _fn=getattr(rays, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(rays, name, counted)
        kappa = k / m
        big_c = 1.0 / (2.0 * abs(kappa) ** kappa * (1.0 - kappa) ** (1.0 - kappa))
        p = validate(m, k, 1.0)
        rays._last_rows[0] = ((), None)
        # c near C is left out: there the limit's acos moves faster than 1/m per ulp of C
        for c in [big_c * f for f in (0.5, 1.001, 1.01, 1.1, 1.5, 2.0, 10.0, 1e6)] + [5e-324, sys.float_info.max]:
            arc = 2.0 / math.pi * math.acos(min(1.0, big_c / c))
            limit = 1.0 + arc if k > 0 else 2.0 - arc
            assert abs(predict_at(p, c) / m - limit) <= 4 / m, (m, k, c)
        assert calls == {"_alpha_half": 0, "_build_threshold_rows": 0}
        assert rays._last_rows[0][0] == ()

    @pytest.mark.parametrize("k", [1, -2])
    def test_edges_near_c_at_m_ten_to_the_twelve(self, k):
        """Near C at m = 10^12 + 39 thousands of rows share one float c0; a and b
        still meet the float c0s C / alpha_from_residue(m, s) as _band's
        bisections meet the cached list:
        c0s[a - 1] < c / (1 + w) <= c0s[a] and c0s[b - 1] <= c / (1 - w) < c0s[b]."""
        m, w = 10**12 + 39, DEGENERACY_RTOL
        big_c, q = rays._big_c(m, k), 1 if k % 2 and k > 0 else 0
        n = len(range(q, (m + 1) // 2, 2))

        def c0(i):
            return big_c / alpha_from_residue(m, q + 2 * i)

        rays._last_rows[0] = ((), None)
        for t in (0.0, 1e-16, 1e-15, 1e-13, 1e-12, 1e-10, 1e-9, 2e-9):
            for c in (big_c * (1 - t), big_c * (1 + t)):
                for c in (math.nextafter(c, 0.0), c, math.nextafter(c, math.inf)):
                    a, b = rays._closed_band(m, k, c)[:2]
                    x, y = c / (1 + w), c / (1 - w)
                    assert (a == 0 or c0(a - 1) < x) and (a == n or x <= c0(a)), (k, c, a)
                    assert (b == 0 or c0(b - 1) <= y) and (b == n or y < c0(b)), (k, c, b)
        assert rays._last_rows[0][0] == ()

    def test_only_the_pair_thresholds_last_built_is_warm(self, monkeypatch):
        """After thresholds(p), predict_at(p, .) never calls _closed_band (at its
        binding in predict); after thresholds on another pair it calls it for
        every query of p, and both give the cold answers.  thresholds(p) again
        rebuilds rows equal to the first ones."""
        (m, k), other = (251, 77), validate(2039, 1001, 1.0)
        p, cs = validate(m, k, 1.0), self.queries(m, k)
        thresholds(other)
        cold = [predict_at(p, c) for c in cs]
        calls = {"_closed_band": 0, "_build_threshold_rows": 0}
        for module, name in ((predict, "_closed_band"), (rays, "_build_threshold_rows")):

            def counted(*args, _fn=getattr(module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)
        thresholds(p)
        first = rays._last_rows[0]
        assert [predict_at(p, c) for c in cs] == cold
        assert calls == {"_closed_band": 0, "_build_threshold_rows": 1}
        thresholds(other)
        assert [predict_at(p, c) for c in cs] == cold
        assert calls == {"_closed_band": len(cs), "_build_threshold_rows": 2}
        thresholds(p)
        assert calls["_build_threshold_rows"] == 3
        assert rays._last_rows[0] == first and rays._last_rows[0][1] is not first[1]


def test_fold_zero_is_the_only_axis_threshold_and_the_first():
    """Fold 0 (alpha = 1, c0 = C) puts an axis row among the thresholds exactly
    when k < 0 or k is even, and that row's c0 is strictly the least."""
    for m, k in valid_pairs(200):
        p = validate(m, k, 1.0)
        order, c0s = rays._build_threshold_rows(m, k)[:2]
        axes = [row for row in (0, m) if analyze_ray(p, row).c0 is not None]
        first = k < 0 or k % 2 == 0
        assert axes == (list(order[:1]) if first else []), (m, k)
        if first:
            assert axes and analyze_ray(p, axes[0]).alpha == 1.0, (m, k)
            assert len(c0s) == 1 or c0s[0] < c0s[1], (m, k)


def test_table_cache_memory_is_bounded():
    """Threshold rows of pairs no longer in use are dropped, and analyze_ray keeps
    nothing: retained memory stays flat.

    An unbounded cache would keep every entry, 7-10 KB of threshold rows at
    m = 500.  tracemalloc slows each build about eightfold, so 250 fresh pairs
    are traced.
    """
    pairs = [(m, k) for m in range(480, 530) for k in range(-m + 1, 0) if math.gcd(m, k) == 1]
    pairs = pairs[:: len(pairs) // 250][:250]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for m, k in pairs:
            p = validate(m, k, 1.0)
            analyze_ray(p, 1)
            predict_at(p, 1.0)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(set(pairs)) == 250
    assert retained < 1_500_000, retained


def test_full_cache_memory_at_m_ten_thousand():
    """The cache holds predict_at's record of the last pair thresholds was
    called on, its c0s, base, sign and axis flag: about 0.2 MB near m = 10^4
    and 0.93 MB near 10^5, a third of the full threshold rows.  So thresholds
    on 32 pairs near 10^4 keeps under 0.3 MB, on 3 pairs near 10^5 under
    1.5 MB, and the cache holds the last pair's record, with exactly the four
    fields predict_at reads; predict_at alone on 16 pairs keeps nothing.  Each
    input takes pairs of its own, so no record of an earlier one can serve it."""
    first, second, third = (
        [(m, k) for m in range(start, start + 40) for k in (m // 2 - 1, -(m // 3) - 1) if math.gcd(m, k) == 1][:16]
        for start in (10_000, 10_040, 10_080)
    )
    fourth = [(m, m // 2 - 1) for m in range(100_000, 100_040) if math.gcd(m, m // 2 - 1) == 1][:3]
    assert len(set(first + second + third)) == 48 and len(fourth) == 3
    count = partial(predict_at, c=1.0)
    for query, pairs, key, bound in (
        (count, first, (), 500_000),
        (thresholds, second + third, third[-1], 300_000),
        (thresholds, fourth, fourth[-1], 1_500_000),
    ):
        rays._last_rows[0] = ((), None)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for m, k in pairs:
                query(validate(m, k, 1.0))
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert rays._last_rows[0][0] == key
        assert retained < bound, (key, retained)
        if key:
            _, c0s, _, *tail = rays._build_threshold_rows(*key)
            assert rays._last_rows[0][1] == (c0s, *tail), key


def test_cache_stays_bounded_under_threads():
    """Threads that call thresholds and predict_at on many pairs, switching
    every microsecond, leave the cache holding one pair's key and record, the
    c0s, base, sign and axis flag of the builder's rows of that key, and every
    answer equals the one asked alone."""
    pairs = [(m, k) for m in range(40, 52) for k in (7, -5) if math.gcd(m, abs(k)) == 1]
    assert len(pairs) > 1
    want = {pair: (thresholds(validate(*pair, 1.0)), predict_at(validate(*pair, 1.0), 0.9)) for pair in pairs}
    got, errors = [], []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(150):
                pair = rng.choice(pairs)
                p = validate(*pair, 1.0)
                got.append((pair, (thresholds(p), predict_at(p, 0.9))))
        except Exception as exc:  # a failure in a thread fails the test below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers) and not errors, errors
    assert len(got) == 6 * 150 and all(answer == want[pair] for pair, answer in got)
    key, record = rays._last_rows[0]
    _, c0s, _, *tail = rays._build_threshold_rows(*key)
    assert key in pairs and record == (c0s, *tail), key


@pytest.mark.parametrize("m, k", [(8, 3), (9, -2), (251, 77), (2039, 1001), (1001, -500)])
def test_thresholds_read_the_cached_objects(m, k):
    """Each Threshold's c0 is the very float object the stored record holds:
    thresholds boxes no c0 of its own.  Two calls on one pair give equal lists."""
    p = validate(m, k, 1.0)
    got = thresholds(p)
    key, (c0s, *_) = rays._last_rows[0]
    assert key == (m, k) and len(got) == len(c0s)
    for i, t in enumerate(got):
        assert t.c0 is c0s[i], (m, k, i)
    assert [t.alpha for t in got] == list(rays._build_threshold_rows(m, k)[2])
    assert thresholds(p) == got


@pytest.mark.parametrize("m", [10**6 + 3, 10**12 + 39])
@pytest.mark.parametrize("k", [1, -2])
def test_analyze_ray_reads_only_its_own_residue(monkeypatch, m, k):
    """analyze_ray takes alpha, case and c0 from the ray's own integers in O(1),
    so it answers at m = 10^12 + 39 too: it never takes a pass over residues or
    builds the threshold rows.  A threshold ray, odd for k > 0 and even for
    k < 0 with 2s < m, has c0 = C / alpha; every other ray has none."""
    calls = {"_alpha_half": 0, "_build_threshold_rows": 0}
    for name in calls:

        def counted(*args, _fn=getattr(rays, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(rays, name, counted)
    p = validate(m, k, 0.7)
    seen = set()
    for j in (0, 1, 2, 3, m // 2, m // 2 + 1, m - 1, m, m + 1, 2 * m - 2, 2 * m - 1):
        a = analyze_ray(p, j)
        s = min(k * j % (2 * m), -k * j % (2 * m))
        threshold = j % 2 == (k > 0) and 2 * s < m
        assert bits(a.alpha) == bits(alpha_from_residue(m, k * j)), (m, k, j)
        assert bits(a.c0) == bits(reference_c0(m, k, a.alpha) if threshold else None), (m, k, j)
        seen.add(threshold)
    assert seen == {False, True}
    assert calls == {"_alpha_half": 0, "_build_threshold_rows": 0}
