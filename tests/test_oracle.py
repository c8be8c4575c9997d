"""The ray-agnostic grid oracle and its cross-validation against the ray path."""
from __future__ import annotations

import ast
import math
import pathlib

import pytest

import rayzeros.oracle
from rayzeros import all_zeros, compare, find_zeros_grid, predict_at, thresholds, validate


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
        with pytest.raises(ValueError):
            find_zeros_grid(validate(5, 4, 1.0), 32)


class TestCompare:
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
