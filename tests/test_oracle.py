"""The ray-agnostic grid oracle and its cross-validation against the ray path."""
from __future__ import annotations

import ast
import math
import pathlib

import random
import re
from types import SimpleNamespace

import numpy as np
import pytest

import rayzeros.oracle
from rayzeros import all_zeros, compare, find_zeros_grid, predict_at, thresholds, validate
from rayzeros.oracle import (
    _MAX_SUBDIVISIONS,
    REFINE_TOL,
    OracleResult,
    ResolutionTooCoarse,
    _annulus,
    _newton,
    _row_codes,
    _sign_codes,
    _v_signs,
)


class TestFindZerosGrid:
    def test_figure_panel_positive_k(self):
        res = find_zeros_grid(validate(5, 4, 3.0), 256)
        assert len(res.zeros) == 11

    def test_figure_panel_negative_k(self):
        res = find_zeros_grid(validate(5, -4, 1.0), 256)
        assert len(res.zeros) == 5

    def test_residuals_within_gate(self):
        from rayzeros import evaluate

        p = validate(5, -4, 0.2)
        res = find_zeros_grid(p, 256)
        assert len(res.zeros) == 9
        for z in res.zeros:
            assert abs(evaluate(p, z)) <= 1e-8

    def test_ray_confinement_is_observed_not_assumed(self):
        """Every oracle zero angle lands within 1e-6 of some j pi / m."""
        for m, k, c in ((5, 4, 1.0), (5, -4, 0.2), (4, 3, 2.0), (7, -2, 0.4)):
            res = find_zeros_grid(validate(m, k, c), 192)
            assert res.zeros
            for z in res.zeros:
                ang = math.atan2(z.imag, z.real) % (2 * math.pi)
                scaled = ang / (math.pi / m)
                assert abs(scaled - round(scaled)) * (math.pi / m) < 1e-6

    def test_pairwise_separation(self):
        res = find_zeros_grid(validate(5, 4, 3.0), 256)
        zs = res.zeros
        for i, a in enumerate(zs):
            for b in zs[i + 1 :]:
                assert abs(a - b) > 1e-7

    def test_rejects_coarse_resolution(self):
        """A resolution below 64 or not an integer is refused by value, before any scan."""
        for resolution in (32, 64.0, 256.5, "256"):
            with pytest.raises(ValueError, match=re.escape(repr(resolution))):
                find_zeros_grid(validate(5, 4, 1.0), resolution)

    def test_too_coarse_is_an_arithmetic_and_a_runtime_error(self):
        # the CLI's one ArithmeticError clause catches it with BracketFailure;
        # callers that catch RuntimeError still do
        assert issubclass(ResolutionTooCoarse, ArithmeticError)
        assert issubclass(ResolutionTooCoarse, RuntimeError)

    def test_overflowing_power_rejects_the_candidate(self):
        # complex ** raises OverflowError where a float power would give inf
        assert _newton(2, 1, 1.0, 1e200 + 0j, 1.0, 1e300) is None

    def test_overflow_in_newton_ends_as_too_coarse(self):
        # a candidate cell where z^m overflows: the scan subdivides it and
        # gives up with the documented error instead of an OverflowError
        with pytest.raises(ResolutionTooCoarse):
            find_zeros_grid(validate(2, 1, 1.7e170))

    @pytest.mark.parametrize(
        "m, k, c",
        [
            (3, 2, 1e308),  # r_lo underflows to 0, r_hi overflows
            (49, 10, 1.7e308),  # the same
            (5, 4, 8.98e307),  # r_lo > 0, r_hi overflows
            (5, -4, 1.7e308),  # the same for k < 0
        ],
    )
    def test_annulus_beyond_the_float_range_is_too_coarse(self, m, k, c):
        with pytest.raises(ResolutionTooCoarse, match=r"^annulus \(.*\) leaves the float range$"):
            find_zeros_grid(validate(m, k, c))


class TestRowCodes:
    """A row's packed node bytes equal _sign_codes's node-by-node bytes, whichever path codes them."""

    TINY = 5e-324
    US = [0.0, -0.0, TINY, -TINY, 2.2e-308, -1.5, 0.25, 1e308, -1e308, math.inf, -math.inf, math.nan]
    SINES = [0.0, -0.0, 1e-300, -1e-300, 0.5, -0.75, 1.0, -1.0]
    # 0, a product rm * 1e-300 that underflows, subnormal or normal, and overflow
    RMS = [0.0, TINY, 1e-10, 1e-300, 1.0, 1e300, math.inf]

    @staticmethod
    def check(us, rm, sin_m):
        row = _row_codes(us, rm, sin_m, *_v_signs(sin_m))
        assert row.to_bytes(len(us), "little") == _sign_codes(us, [rm * s for s in sin_m])

    @pytest.mark.parametrize("rm", RMS)
    def test_special_values(self, rm):
        sin_m = self.SINES * 2
        for u in self.US:
            for us in ([u] * len(sin_m), [1.0] * (len(sin_m) - 1) + [u], [-0.5, u] * (len(sin_m) // 2)):
                self.check(us, rm, sin_m)
        # finite nodes whose sum overflows
        us = [1e308, 1e308, -1.0, 2.0] * 4
        self.check(us, rm, sin_m)

    def test_random_rows(self):
        rng = random.Random(14)
        finite = [-3.0, -1e-200, 7.5, 1e-310, 1e200]
        for _ in range(2000):
            n = rng.randint(1, 9)
            us = [rng.choice(finite if rng.random() < 0.8 else self.US) for _ in range(n)]
            sin_m = [rng.choice(self.SINES) for _ in range(n)]
            rm = rng.choice(self.RMS)
            self.check(us, rm, sin_m)


def numpy_scan_cell(m, k, c, lr0, lr1, th0, th1, r_lo, r_hi, depth):
    """The vectorized subdivision the pure-Python scan replaced, kept as its reference."""
    if depth > _MAX_SUBDIVISIONS:
        raise ResolutionTooCoarse(
            f"ambiguous cell near r={math.exp(0.5 * (lr0 + lr1)):.3g}, "
            f"theta={0.5 * (th0 + th1):.3g}"
        )
    lrm = 0.5 * (lr0 + lr1)
    thm = 0.5 * (th0 + th1)
    hit = _newton(m, k, c, math.exp(lrm) * complex(math.cos(thm), math.sin(thm)), r_lo, r_hi)
    if hit is not None:
        return [hit]
    found = []
    for a0, a1 in ((lr0, lrm), (lrm, lr1)):
        for b0, b1 in ((th0, thm), (thm, th1)):
            rs = np.exp([a0, a0, a1, a1])
            ts = np.array([b0, b1, b0, b1])
            with np.errstate(over="ignore", invalid="ignore"):
                u = rs ** m * np.cos(m * ts) + 2 * c * rs ** float(k) * np.cos(k * ts) - 1.0
                v = rs ** m * np.sin(m * ts)
            if u.min() < 0.0 < u.max() and v.min() < 0.0 < v.max():
                found.extend(numpy_scan_cell(m, k, c, a0, a1, b0, b1, r_lo, r_hi, depth + 1))
    return found


def numpy_find_zeros_grid(params, resolution):
    """The vectorized grid scan with all-pairs dedupe, kept as the reference."""
    m, k, c = params.m, params.k, params.c
    r_lo, r_hi = _annulus(m, k, c)
    n_th = max(resolution, 6 * m)
    log_r = np.linspace(math.log(r_lo), math.log(r_hi), resolution + 1)
    theta = (np.arange(n_th + 1) + 0.381966) * (2.0 * math.pi / n_th)
    rg = np.exp(log_r)[:, None]
    tg = theta[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        u = rg ** m * np.cos(m * tg) + 2.0 * c * rg ** float(k) * np.cos(k * tg) - 1.0
        v = rg ** m * np.sin(m * tg)

    def both_signs(w):
        corners = np.stack([w[:-1, :-1], w[1:, :-1], w[:-1, 1:], w[1:, 1:]])
        return (corners.min(axis=0) < 0.0) & (corners.max(axis=0) > 0.0)

    raw = []
    for i, jj in zip(*np.nonzero(both_signs(u) & both_signs(v))):
        raw.extend(
            numpy_scan_cell(m, k, c, log_r[i], log_r[i + 1], theta[jj], theta[jj + 1], r_lo, r_hi, 0)
        )
    zeros = []
    for z in sorted(raw, key=lambda w: (abs(w), math.atan2(w.imag, w.real))):
        if all(abs(z - w) > 10.0 * REFINE_TOL for w in zeros):
            zeros.append(z)
    zeros.sort(key=lambda w: (math.atan2(w.imag, w.real), abs(w)))
    return SimpleNamespace(zeros=tuple(zeros), annulus=(r_lo, r_hi))


def outcome(scan, params, resolution):
    try:
        res = scan(params, resolution)
    except ResolutionTooCoarse as exc:
        return type(exc), str(exc)
    return res.zeros, res.annulus


class TestGridIdentity:
    """The pure-Python scan finds exactly the vectorized scan's zeros.

    Only a node within an ulp of zero can flip a sign mask between the two
    (numpy's SIMD exp and power may differ from libm in the last bit), so the
    outputs are expected equal, raises included.
    """

    @pytest.mark.parametrize(
        "m, k, c, resolution",
        [
            (5, 4, 3.0, 256),
            (5, -4, 0.2, 256),
            (7, -6, 0.33, 192),
            (13, 8, 1e-3, 256),
            (13, -8, 1e3, 256),
            (29, 4, 1e3, 160),
            (29, -4, 1e-3, 192),
            (41, -10, 0.15, 256),
            (47, -46, 1e3, 256),
            (53, 47, 0.5, 256),
            (58, 31, 3.0, 256),
            (60, 59, 1e3, 192),
            (60, -7, 1e-3, 256),
            (5, -2, 1e250, 256),  # r^m overflows to inf on the outer rows
            (3, 2, 1e300, 256),  # inf - inf: nan corners
            (7, 3, 1e305, 64),  # a nan corner on a cell whose other corners change sign
            # subdivision-heavy: too coarse, then solved
            (30, -29, 1.0, 256),
            (60, 59, 1.0, 256),
            (45, -44, 6.982168640717276, 256),
            (40, -17, 0.5019073433065202, 256),
            (50, -3, 1.0, 256),
            (55, 21, 0.3, 256),
        ],
    )
    def test_matches_vectorized_scan(self, m, k, c, resolution):
        p = validate(m, k, c)
        assert outcome(find_zeros_grid, p, resolution) == outcome(numpy_find_zeros_grid, p, resolution)

    @staticmethod
    def count_node_by_node(monkeypatch):
        widths = []

        def counting(us, vs):
            widths.append(len(us))
            return _sign_codes(us, vs)

        monkeypatch.setattr(rayzeros.oracle, "_sign_codes", counting)
        return widths

    @pytest.mark.parametrize(
        "m, k, c, resolution",
        [
            (13, 1, 1e25, 256),  # r^m underflows on the inner rows, subcells included
            (8, -3, 1e-142, 256),  # the same at tiny c, and every zero is found
            (11, 7, 3e231, 128),  # hundreds of subcell rows coded node by node
        ],
    )
    def test_rows_coded_node_by_node_match_vectorized_scan(self, monkeypatch, m, k, c, resolution):
        widths = self.count_node_by_node(monkeypatch)
        p = validate(m, k, c)
        assert outcome(find_zeros_grid, p, resolution) == outcome(numpy_find_zeros_grid, p, resolution)
        assert widths

    def test_ordinary_grid_reads_every_top_level_row_in_c(self, monkeypatch):
        widths = self.count_node_by_node(monkeypatch)
        assert len(find_zeros_grid(validate(49, 10, 0.3), 256).zeros) == 49
        assert all(w == 3 for w in widths)  # only 3-node subcell rows, if any


def all_pairs_compare(a, b, cap=1e-3):
    """compare()'s greedy matching over every pair, kept as its reference."""
    pairs = sorted(
        ((abs(za - zb), i, jj) for i, za in enumerate(a) for jj, zb in enumerate(b)),
        key=lambda t: t[0],
    )
    used_a, used_b = set(), set()
    matched, max_distance = 0, 0.0
    for dist, i, jj in pairs:
        if dist > cap:
            break
        if i in used_a or jj in used_b:
            continue
        used_a.add(i)
        used_b.add(jj)
        matched += 1
        max_distance = max(max_distance, dist)
    return (
        matched,
        max_distance,
        tuple(z for i, z in enumerate(a) if i not in used_a),
        tuple(z for jj, z in enumerate(b) if jj not in used_b),
    )


class TestCompare:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_all_pairs_matching(self, seed):
        """Random clusters on a lattice of half the cap give exact distance ties
        (at the cap too, around 0) and duplicate points; the windowed pairing
        matches as all pairs would."""
        rnd = random.Random(seed)
        p = validate(5, 4, 1.0)
        centers = [0j] + [complex(rnd.uniform(-3, 3), rnd.uniform(-3, 3)) for _ in range(rnd.randint(0, 5))]

        def point():
            z = rnd.choice(centers) + 5e-4 * complex(rnd.randint(-3, 3), rnd.randint(-3, 3))
            return z if rnd.random() < 0.7 else z + complex(rnd.gauss(0, 1e-3), rnd.gauss(0, 1e-3))

        a = [point() for _ in range(rnd.randint(0, 30))]
        b = [point() for _ in range(rnd.randint(0, 30))]
        a += rnd.sample(a, min(len(a), 3))
        oracle_res = OracleResult(zeros=a, grid_resolution=256, annulus=(0.5, 4.0), params=p)
        report = compare(p, oracle_res, [SimpleNamespace(z=z) for z in b])
        assert (
            report.matched, report.max_distance, report.unmatched_oracle, report.unmatched_ray
        ) == all_pairs_compare(a, b)

    def test_equidistant_tie_goes_to_the_first_record(self):
        p = validate(5, 4, 1.0)
        oracle_res = OracleResult(zeros=[0j], grid_resolution=256, annulus=(0.5, 4.0), params=p)
        records = [SimpleNamespace(z=complex(5e-4, 0.0)), SimpleNamespace(z=complex(-5e-4, 0.0))]
        report = compare(p, oracle_res, records)
        assert report.matched == 1
        assert report.unmatched_ray == (complex(-5e-4, 0.0),)

    def test_matched_counts(self):
        p = validate(5, 4, 1.0)
        res = find_zeros_grid(p, 256)
        report = compare(p, res, all_zeros(p))
        assert report.matched == 7
        assert report.clean
        assert report.max_distance < 1e-6

    def test_large_c(self):
        p = validate(3, 2, 10.0)
        res = find_zeros_grid(p, 256)
        report = compare(p, res, all_zeros(p))
        assert report.clean
        assert report.max_distance < 1e-6

    def test_params_mismatch_raises(self):
        p = validate(5, 4, 1.0)
        res = find_zeros_grid(p, 128)
        with pytest.raises(ValueError):
            compare(validate(5, 4, 2.0), res, all_zeros(validate(5, 4, 2.0)))


class TestCrossValidation:
    def test_counts_agree_across_small_families(self):
        for m, k, c in (
            (2, 1, 0.5),
            (3, -1, 0.7),
            (4, -3, 0.15),
            (5, 2, 1.3),
            (6, 5, 0.8),
            (7, -6, 0.33),
        ):
            p = validate(m, k, c)
            if any(abs(c - th.c0) < 1e-3 * th.c0 for th in thresholds(p)):
                continue
            res = find_zeros_grid(p, 192)
            recs = all_zeros(p)
            assert len(res.zeros) == len(recs) == predict_at(p, c), (m, k, c)
            report = compare(p, res, recs)
            assert report.clean
            assert report.max_distance < 1e-6


class TestIndependenceBoundary:
    def test_oracle_module_does_not_import_ray_machinery(self):
        """The oracle must not lean on the classification or per-ray analysis;
        its value is independence.  Enforced mechanically on the import graph."""
        src = pathlib.Path(rayzeros.oracle.__file__).read_text()
        tree = ast.parse(src)
        banned = {"rays", "unity", "predict", "roots"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[-1] not in banned
                for alias in node.names:
                    assert alias.name not in banned
            if isinstance(node, ast.Import):
                for alias in node.names:
                    assert alias.name.split(".")[-1] not in banned
        assert "classify_ray" not in src
        assert "analyze_ray" not in src

    def test_exact_reference_is_the_one_mpmath_user(self):
        """Every exact value comes from tests/exact.py: the one test module that imports
        mpmath, it imports no library code and leaves mpmath.mp at its default."""
        tests = pathlib.Path(__file__).parent
        assert [path.name for path in sorted(tests.glob("*.py")) if "mpmath" in imported(path)] == ["exact.py"]
        assert "rayzeros" not in imported(tests / "exact.py")
        import exact  # conftest imported it first

        assert exact.mpmath.mp.dps == 15  # mpmath's default


def imported(path: pathlib.Path) -> set[str]:
    """The top-level names of the modules that the file at path imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add((node.module or "").split(".")[0])
    return names


def test_library_does_not_import_numpy():
    """The library is pure Python; numpy is a test-only dependency."""
    src_dir = pathlib.Path(rayzeros.oracle.__file__).parent
    offenders = [path.name for path in sorted(src_dir.glob("*.py")) if "numpy" in imported(path)]
    assert not offenders
