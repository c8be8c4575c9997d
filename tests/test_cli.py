"""Command-line surface: dispatch, serialization parity, exit codes, flags and tolerances."""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import pathlib
import random
import runpy
import subprocess
import sys

import pytest

import rayzeros
import rayzeros.cli as cli_mod
from rayzeros import Sign, count_at, extremum_radius, thresholds, validate
from rayzeros.cli import main

from conftest import valid_pairs


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


class TestZerosCommand:
    def test_json_records(self, capsys):
        code, out, _ = run_cli(capsys, "zeros", "--m", "5", "--k", "4", "--c", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["params"] == {"m": 5, "k": 4, "c": 3.0}
        assert len(doc["results"]) == 11
        for row in doc["results"]:
            assert set(row) == {"j", "r", "re", "im", "residual", "degenerate"}

    def test_round_trip_bit_for_bit(self, capsys):
        argv = ("zeros", "--m", "5", "--k", "-4", "--c", "0.2", "--format", "json")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2
        doc = json.loads(out1)
        assert json.loads(json.dumps(doc)) == doc

    def test_csv_json_same_data(self, capsys):
        base = ("zeros", "--m", "5", "--k", "4", "--c", "1")
        _, jout, _ = run_cli(capsys, *base, "--format", "json")
        _, cout, _ = run_cli(capsys, *base, "--format", "csv")
        jrows = json.loads(jout)["results"]
        crows = parse_csv(cout)
        assert len(jrows) == len(crows)
        for jr, cr in zip(jrows, crows):
            assert int(cr["j"]) == jr["j"]
            for field in ("r", "re", "im", "residual"):
                assert float(cr[field]) == jr[field]  # repr round-trips exactly
            assert (cr["degenerate"] == "true") == jr["degenerate"]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "zeros.json"
        code, out, _ = run_cli(
            capsys, "zeros", "--m", "5", "--k", "4", "--c", "1", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        assert len(json.loads(target.read_text())["results"]) == 7


class TestPredictCommand:
    def test_both_sources(self, capsys):
        code, out, _ = run_cli(capsys, "predict", "--m", "5", "--k", "-4")
        assert code == 0
        rows = json.loads(out)["results"]
        assert [r["source"] for r in rows] == ["table", "census"]
        for r in rows:
            assert (r["min_count"], r["max_count"], r["direction"]) == (5, 11, "decreasing")


class TestClassifyCommand:
    def test_rows(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--m", "2", "--k", "1")
        assert code == 0
        rows = json.loads(out)["results"]
        assert len(rows) == 4
        assert rows[1]["alpha_sign"] == "zero"
        assert rows[1]["parity"] == "odd"
        assert rows[0]["case"] == "pos_k_even_pos"
        assert rows[0]["count"] == 1

    @staticmethod
    def classify_every_ray(args, params):
        """The plain loop: one analyze_ray per ray on all 2m rays."""
        rows = []
        for j in range(2 * params.m):
            a = cli_mod.analyze_ray(params, j)
            rows.append(
                {
                    "j": j,
                    "angle": a.ray.angle,
                    "parity": "even" if a.ray.parity == 0 else "odd",
                    "alpha_sign": Sign(a.ray.alpha_sign).name.lower(),
                    "alpha": a.alpha,
                    "case": a.case.value,
                    "count": count_at(a, params.c),
                    "r0": extremum_radius(a, params.c),
                    "c0": a.c0,
                }
            )
        return rows

    def test_r0_is_extremum_radius_of_an_analysis_built_at_another_c(self):
        for m, k in valid_pairs(30):
            analyses = [cli_mod.analyze_ray(validate(m, k, 1.0), j) for j in range(2 * m)]
            for c in [5e-324, 1.0, 1.7e308] + [th.c0 for th in thresholds(validate(m, k, 1.0))[:1]]:
                rows = cli_mod._cmd_classify(None, validate(m, k, c))
                assert [row["r0"] for row in rows] == [extremum_radius(a, c) for a in analyses], (m, k, c)

    # even m with alpha = 0 rays, k < 0, both sides of a threshold, odd m
    @pytest.mark.parametrize(
        "m, k, c", [(2, 1, 1.0), (4, 1, 2.0), (8, -3, 0.7), (12, 5, 1.3), (5, -4, 0.2), (64, -31, 1e-3), (31, 7, 40.0)]
    )
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_rows_equal_every_ray_loop(self, capsys, monkeypatch, m, k, c, fmt):
        calls = []
        analyze = cli_mod.analyze_ray
        monkeypatch.setattr(cli_mod, "analyze_ray", lambda p, j: calls.append(j) or analyze(p, j))
        argv = ("classify", "--m", str(m), "--k", str(k), "--c", repr(c), "--format", fmt)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert calls == list(range(m + 1))
        monkeypatch.setattr(cli_mod, "_cmd_classify", self.classify_every_ray)
        assert run_cli(capsys, *argv) == (0, out, "")

    def test_beta_overflow_pair(self, capsys):
        # ray 1509 has log_beta 712.4 > log(max float); its c0 is 0.70
        code, out, _ = run_cli(capsys, "classify", "--m", "2000", "--k", "1999")
        assert code == 0
        rows = json.loads(out)["results"]
        assert len(rows) == 4000
        assert 0.69 < rows[1509]["c0"] < 0.71

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_r0_beyond_max_float_is_inf(self, capsys, fmt):
        # ray 3's r0 exceeds max_float: a value of the table, not a numerical failure
        code, out, err = run_cli(capsys, "classify", "--m", "3", "--k", "2", "--c", "1.7e308", "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            assert json.loads(out)["results"][3]["r0"] == "inf"
        else:
            assert parse_csv(out)[3]["r0"] == "inf"

    @pytest.mark.parametrize(
        "argv, key",
        [
            (("zeros", "--m", "13", "--k", "12", "--c", "1e50"), "residual"),
            (("classify", "--m", "3", "--k", "2", "--c", "1.7e308"), "r0"),
        ],
    )
    def test_json_is_strict_with_non_finite_values(self, capsys, argv, key):
        def reject(name):
            raise ValueError(f"{name} is not JSON")

        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        rows = json.loads(out, parse_constant=reject)["results"]
        assert "inf" in [row[key] for row in rows]


class TestJsonLayout:
    """params, each result row and meta sit on a line of their own, in strict JSON."""

    @staticmethod
    def strict(text):
        def reject(name):
            raise ValueError(f"{name} is not JSON")

        return json.loads(text, parse_constant=reject)

    @pytest.mark.parametrize(
        "argv",
        [
            ("zeros", "--m", "13", "--k", "12", "--c", "1e50"),
            ("classify", "--m", "3", "--k", "2", "--c", "1.7e308"),
            ("sweep", "--m", "5", "--k", "4", "--c-min", "0.5", "--c-max", "3", "--steps", "4"),
            ("verify", "--m", "5", "--k", "4", "--c", "1"),
            ("thresholds", "--m", "2", "--k", "1"),  # no thresholds: no rows
        ],
    )
    def test_one_line_per_row(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        doc = self.strict(out)
        lines = out.split("\n")
        rows = lines[3:-4] if doc["results"] else []
        head = '  "results": [' if rows else '  "results": [],'
        assert lines[:3] == ["{", f'  "params": {json.dumps(doc["params"])},', head]
        assert [self.strict(line.rstrip(",")) for line in rows] == doc["results"]
        assert all(line.startswith("    {") for line in rows)
        tail = ["  ],"] if rows else []
        assert lines[3 + len(rows) :] == tail + [f'  "meta": {json.dumps(doc["meta"])}', "}", ""]

    def test_readme_example_is_literal_output(self, capsys):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("```json\n", 1)[1].split("```", 1)[0]
        assert run_cli(capsys, "thresholds", "--m", "5", "--k", "4")[1] == example


class TestThresholdsCommand:
    def test_grouped_rows(self, capsys):
        code, out, _ = run_cli(capsys, "thresholds", "--m", "5", "--k", "4")
        assert code == 0
        rows = json.loads(out)["results"]
        assert [r["rays"] for r in rows] == [[5], [3, 7]]
        assert rows[0]["c0"] < rows[1]["c0"]


class TestSweepCommand:
    def test_monotone_counts_and_crossings(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--m", "5", "--k", "4",
            "--c-min", "0.05", "--c-max", "5", "--steps", "200", "--spacing", "log",
        )
        assert code == 0
        doc = json.loads(out)
        counts = [row["count"] for row in doc["results"]]
        assert counts[0] == 5 and counts[-1] == 11
        assert counts == sorted(counts)
        crossed = [c0 for row in doc["results"] for c0 in row["crossed"]]
        assert crossed == sorted(th["c0"] for th in doc["meta"]["thresholds"])

    @pytest.mark.parametrize("m, k, spacing", [(61, 30, "linear"), (64, -33, "log"), (257, -100, "linear")])
    def test_crossed_are_the_thresholds_passed_since_the_last_step(self, capsys, m, k, spacing):
        code, out, _ = run_cli(
            capsys, "sweep", "--m", str(m), "--k", str(k),
            "--c-min", "0.01", "--c-max", "100", "--steps", "7", "--spacing", spacing,
        )
        assert code == 0
        doc = json.loads(out)
        c0s = [th["c0"] for th in doc["meta"]["thresholds"]]
        cs = [row["c"] for row in doc["results"]]
        expected = [[]] + [[c0 for c0 in c0s if a < c0 <= b] for a, b in zip(cs, cs[1:])]
        assert [row["crossed"] for row in doc["results"]] == expected
        assert sum(map(len, expected)) > len(cs)  # several thresholds per step

    def test_requires_ordered_range(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--m", "5", "--k", "4",
            "--c-min", "2", "--c-max", "1", "--steps", "10",
        )
        assert code == 1
        assert "c-min" in err

    def test_requires_two_steps(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--m", "5", "--k", "4",
            "--c-min", "1", "--c-max", "2", "--steps", "1",
        )
        assert code == 1

    @pytest.mark.parametrize("c_min, c_max", [("1", "inf"), ("1", "nan"), ("nan", "2")])
    def test_rejects_non_finite_bounds(self, capsys, c_min, c_max):
        code, out, err = run_cli(
            capsys, "sweep", "--m", "3", "--k", "1",
            "--c-min", c_min, "--c-max", c_max, "--steps", "3",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: sweep needs 0 < c-min < c-max")

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    @pytest.mark.parametrize("c_max", ["1.7e308", "1.7976931348623157e308"])
    def test_grid_stays_finite_near_max_float(self, capsys, spacing, c_max):
        code, out, _ = run_cli(
            capsys, "sweep", "--m", "3", "--k", "1",
            "--c-min", "1e-300", "--c-max", c_max, "--steps", "7", "--spacing", spacing,
        )
        assert code == 0
        cs = [row["c"] for row in json.loads(out)["results"]]
        assert len(cs) == 7 and cs == sorted(cs)
        assert all(0.0 < c <= float(c_max) for c in cs)
        assert cs[0] == pytest.approx(1e-300, rel=1e-12) and cs[-1] == pytest.approx(float(c_max), rel=1e-12)

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    def test_grid_ends_at_its_bounds(self, spacing):
        """The first and last grid points are --c-min and --c-max exactly; the
        points between are the unpinned grid's."""
        rng = random.Random(16)
        grids = [(1e-320, 1e-300, 5), (1e-300, 1.7e308, 7), (1.0, sys.float_info.max, 3), (0.01, 100.0, 50)]
        while len(grids) < 500:
            lo = 10 ** rng.uniform(-320, 308)
            hi = min(10 ** rng.uniform(math.log10(lo), 308.25), sys.float_info.max)
            if lo < hi:
                grids.append((lo, hi, rng.randint(2, 60)))
        for lo, hi, n in grids:
            grid = cli_mod._sweep_grid(argparse.Namespace(c_min=lo, c_max=hi, steps=n, spacing=spacing))
            if spacing == "log":
                points = [math.exp(x) if x <= math.log(sys.float_info.max) else hi
                          for x in cli_mod._linspace(math.log(lo), math.log(hi), n)]
            else:
                points = cli_mod._linspace(lo, hi, n)
            assert grid == [lo] + points[1:-1] + [hi], (lo, hi, n)
            assert grid == sorted(grid), (lo, hi, n)

    def test_log_sweep_prints_its_bounds(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--m", "3", "--k", "1",
            "--c-min", "1e-320", "--c-max", "1e-300", "--steps", "4", "--spacing", "log",
        )
        assert code == 0
        cs = [row["c"] for row in json.loads(out)["results"]]
        assert (cs[0], cs[-1]) == (1e-320, 1e-300)

    def test_narrow_log_grids_are_sorted_and_in_bounds(self):
        """Over a range narrower than the rounding of exp(log(x)), a log grid's
        interior points are clamped into [c_min, c_max], so the grid stays sorted."""
        rng = random.Random(17)
        grids = []
        while len(grids) < 1000:
            lo = 10 ** rng.uniform(-320, 308)
            hi = lo * (1.0 + 10 ** rng.uniform(-16, -10))
            if lo < hi < math.inf:
                grids.append((lo, hi, rng.randint(3, 60)))
        for lo, hi, n in grids:
            grid = cli_mod._sweep_grid(argparse.Namespace(c_min=lo, c_max=hi, steps=n, spacing="log"))
            assert len(grid) == n and grid[0] == lo and grid[-1] == hi, (lo, hi, n)
            assert grid == sorted(grid), (lo, hi, n)

    def test_narrow_log_sweep_stays_above_c_min(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--m", "3", "--k", "1",
            "--c-min", "5.762297935717866e-120", "--c-max", "5.7622979357180446e-120", "--steps", "5",
            "--spacing", "log",
        )
        assert code == 0
        cs = [row["c"] for row in json.loads(out)["results"]]
        assert cs == sorted(cs) and (cs[0], cs[-1]) == (5.762297935717866e-120, 5.7622979357180446e-120)

    def test_linear_grid_unchanged_where_finite(self):
        for lo, hi, n in ((0.01, 100.0, 7), (1e-300, 1e307, 11), (0.05, 5.0, 200), (1.0, 8e307, 3)):
            assert cli_mod._linspace(lo, hi, n) == [lo + (hi - lo) * i / (n - 1) for i in range(n)]


class TestCsvListColumns:
    """A list cell is its values' shortest reprs joined by ';', empty for no values."""

    def test_threshold_rays(self, capsys):
        _, out, _ = run_cli(capsys, "thresholds", "--m", "5", "--k", "-4", "--format", "csv")
        assert [row["rays"] for row in parse_csv(out)] == ["0", "2;8"]

    def test_cell_text_of_every_value_kind(self):
        row = {
            "none": None, "yes": True, "no": False, "rays": [0, 2, 8], "crossed": [0.1, math.inf, 5e-324, 1e22],
            "empty": [], "inf": math.inf, "ninf": -math.inf, "nan": math.nan, "c": 0.1, "big": 1e22, "j": 3,
            "case": "pos_k_odd_pos",
        }
        assert cli_mod._emit(argparse.Namespace(format="csv"), [row]) == (
            "none,yes,no,rays,crossed,empty,inf,ninf,nan,c,big,j,case\n"
            ",true,false,0;2;8,0.1;inf;5e-324;1e+22,,inf,-inf,nan,0.1,1e+22,3,pos_k_odd_pos\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("thresholds", "--m", "61", "--k", "30"),
            ("sweep", "--m", "61", "--k", "30", "--c-min", "0.01", "--c-max", "100", "--steps", "7"),
        ],
    )
    def test_csv_rows_match_json_rows(self, capsys, argv):
        _, jout, _ = run_cli(capsys, *argv, "--format", "json")
        _, cout, _ = run_cli(capsys, *argv, "--format", "csv")
        jrows, crows = json.loads(jout)["results"], parse_csv(cout)
        assert len(jrows) == len(crows) > 1
        lists = 0
        for jr, cr in zip(jrows, crows):
            assert set(cr) == set(jr)
            for field, value in jr.items():
                if isinstance(value, list):
                    lists += len(value) > 1
                    assert cr[field] == ";".join(map(repr, value))
                else:
                    assert cr[field] == repr(value)
        assert lists > 0
        if argv[0] == "sweep":
            assert crows[0]["crossed"] == ""


class TestVerifyCommand:
    def test_clean_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--m", "5", "--k", "4", "--c", "1", "--resolution", "128"
        )
        assert code == 0
        rows = json.loads(out)["results"]
        assert all(r["passed"] for r in rows)
        assert {r["check"] for r in rows} == {
            "table_census_equivalence",
            "ray_count_vs_prediction",
            "oracle_agreement",
        }

    def test_deterministic(self, capsys):
        argv = ("verify", "--m", "3", "--k", "-2", "--c", "0.4", "--resolution", "96")
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


class TestExitCodes:
    def test_invalid_parameters(self, capsys):
        code, _, err = run_cli(capsys, "zeros", "--m", "6", "--k", "4", "--c", "1")
        assert code == 1
        assert "NonCoprimeError" in err

    def test_degree_order(self, capsys):
        code, _, err = run_cli(capsys, "predict", "--m", "3", "--k", "5")
        assert code == 1
        assert "DegreeOrderError" in err

    def test_numerical_failure_from_solver(self, capsys, monkeypatch):
        from rayzeros.roots import BracketFailure
        import rayzeros.cli as cli_mod

        def boom(params):
            raise BracketFailure("sign change lost")

        monkeypatch.setattr(cli_mod, "all_zeros", boom)
        code, _, err = run_cli(capsys, "zeros", "--m", "5", "--k", "4", "--c", "1")
        assert code == 3
        assert "BracketFailure" in err

    def test_overflow_is_numerical_failure(self, capsys, monkeypatch):
        import rayzeros.cli as cli_mod

        def boom(params):
            raise OverflowError("math range error")

        monkeypatch.setattr(cli_mod, "all_zeros", boom)
        code, _, err = run_cli(capsys, "zeros", "--m", "5", "--k", "4", "--c", "1")
        assert code == 3
        assert "OverflowError" in err

    def test_resolution_below_minimum(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--m", "5", "--k", "4", "--c", "1", "--resolution", "32"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--resolution" in err

    # neither tolerance is a flag of zeros: each is rejected before any value is read
    @pytest.mark.parametrize("flag", ["--tol-radius", "--tol-residual"])
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_bad_tolerance_flag_is_invalid(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "zeros", "--m", "5", "--k", "4", "--c", "1", flag, value)
        assert code == 1
        assert out == ""
        assert err == f"error: unrecognized arguments: {flag} {value}\n"

    def test_numerical_failure_from_oracle(self, capsys, monkeypatch):
        from rayzeros.oracle import ResolutionTooCoarse
        import rayzeros.cli as cli_mod

        def boom(params, resolution=256):
            raise ResolutionTooCoarse("ambiguous cell")

        monkeypatch.setattr(cli_mod, "find_zeros_grid", boom)
        code, _, err = run_cli(capsys, "verify", "--m", "5", "--k", "4", "--c", "1")
        assert code == 3
        assert "ResolutionTooCoarse" in err

    @pytest.mark.parametrize("check", ["oracle_agreement", "ray_count_vs_prediction", "table_census_equivalence"])
    def test_oracle_mismatch_exits_two(self, capsys, monkeypatch, check):
        grid, at, census = cli_mod.find_zeros_grid, cli_mod.predict_at, cli_mod.predict_census

        def drop_one(params, resolution=256):
            res = grid(params, resolution)
            return res._replace(zeros=res.zeros[1:])

        name, fake = {
            "oracle_agreement": ("find_zeros_grid", drop_one),
            "ray_count_vs_prediction": ("predict_at", lambda params, c: at(params, c) + 1),
            "table_census_equivalence": (
                "predict_census",
                lambda params: census(params)._replace(max_count=census(params).max_count + 1),
            ),
        }[check]
        monkeypatch.setattr(cli_mod, name, fake)
        code, out, _ = run_cli(capsys, "verify", "--m", "5", "--k", "4", "--c", "1", "--resolution", "128")
        assert code == 2
        rows = {r["check"]: r["passed"] for r in json.loads(out)["results"]}
        assert rows == {
            "table_census_equivalence": check != "table_census_equivalence",
            "ray_count_vs_prediction": check != "ray_count_vs_prediction",
            "oracle_agreement": check != "oracle_agreement",
        }

    def test_oracle_overflow_is_too_coarse(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--m", "2", "--k", "1", "--c", "1.7e170")
        assert code == 3
        assert "ResolutionTooCoarse" in err and "OverflowError" not in err

    # the oracle's annulus leaves the float range: a ValueError at (49, 10),
    # no oracle zero at all at (5, -4)
    @pytest.mark.parametrize("m, k", [("49", "10"), ("5", "-4")])
    def test_oracle_annulus_beyond_the_float_range_is_too_coarse(self, capsys, m, k):
        code, out, err = run_cli(capsys, "verify", "--m", m, "--k", k, "--c", "1.7e308")
        assert (code, out) == (3, "")
        assert err.startswith("error: ResolutionTooCoarse: annulus (") and err.endswith(") leaves the float range\n")

    def test_unwritable_output_is_invalid(self, capsys, tmp_path):
        target = tmp_path / "missing" / "zeros.json"
        code, out, err = run_cli(capsys, "zeros", "--m", "5", "--k", "4", "--c", "1", "--output", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and str(target) in err
        assert not target.exists()


class TestParserSurface:
    """Each command's options: strings, default, required flag, choices and type."""

    HELP = (["-h", "--help"], argparse.SUPPRESS, False, None, None)
    COMMON = [
        (["--m"], None, True, None, "int"),
        (["--k"], None, True, None, "int"),
        (["--format"], "json", False, ("json", "csv"), None),
        (["--output"], None, False, None, None),
    ]
    # the commands that locate zeros take a required c
    LOCATE = [(["--c"], None, True, None, "float")]
    EXPECTED = {
        "classify": [*COMMON, (["--c"], 1.0, False, None, "float")],
        "predict": COMMON,
        "zeros": [*COMMON, *LOCATE],
        "thresholds": COMMON,
        "sweep": [
            *COMMON,
            (["--c-min"], None, True, None, "float"),
            (["--c-max"], None, True, None, "float"),
            (["--steps"], None, True, None, "int"),
            (["--spacing"], "linear", False, ("linear", "log"), None),
        ],
        "verify": [*COMMON, *LOCATE, (["--resolution"], 256, False, None, "int")],
    }

    def test_every_option_of_every_command(self):
        parser = cli_mod._build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == list(self.EXPECTED)
        for name, command in sub.choices.items():
            got = [
                (a.option_strings, a.default, a.required, a.choices, getattr(a.type, "__name__", None))
                for a in command._actions
            ]
            assert got == [self.HELP, *self.EXPECTED[name]], name
            assert command.get_default("run") is getattr(cli_mod, f"_cmd_{name}")

    @pytest.mark.parametrize("name", list(EXPECTED))
    def test_help_exits_zero_and_names_each_flag(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        flags = {word.strip("[],") for word in out.split() if word.startswith(("--", "[--"))}
        assert flags == {"--help", *(strings[0] for strings, *_ in self.EXPECTED[name])}


class TestUsageErrors:
    """A usage error exits 1 with one error: line on stderr and nothing on
    stdout; exit 2 stays a verify mismatch."""

    ARGS = {
        "classify": ["--m", "5", "--k", "4"],
        "predict": ["--m", "5", "--k", "4"],
        "thresholds": ["--m", "5", "--k", "4"],
        "sweep": ["--m", "5", "--k", "4", "--c-min", "0.5", "--c-max", "3", "--steps", "4"],
        "zeros": ["--m", "5", "--k", "4", "--c", "1"],
        "verify": ["--m", "5", "--k", "4", "--c", "1", "--resolution", "64"],
    }
    REMOVED = [
        ("classify", "--tol-radius"), ("classify", "--tol-residual"),
        *((cmd, flag) for cmd in ("predict", "thresholds", "sweep") for flag in ("--c", "--tol-radius", "--tol-residual")),
        ("zeros", "--tol-residual"), ("verify", "--tol-residual"),
    ]

    @staticmethod
    def assert_usage_error(capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    @pytest.mark.parametrize("command, flag", REMOVED)
    def test_removed_flag(self, capsys, command, flag):
        argv = [command, *self.ARGS[command]]
        assert run_cli(capsys, *argv)[0] == 0
        self.assert_usage_error(capsys, [*argv, flag, "1"])

    @pytest.mark.parametrize("command", ["zeros", "verify"])
    def test_no_radius_tolerance(self, capsys, command):
        """Refinement stops at a fixed Newton step, which no flag sets."""
        err = self.assert_usage_error(capsys, [command, *self.ARGS[command], "--tol-radius", "1e-11"])
        assert err == "error: unrecognized arguments: --tol-radius 1e-11\n"

    @pytest.mark.parametrize(
        "command, flag, value",
        [("predict", "--form", "csv"), ("verify", "--res", "64"), ("zeros", "--tol-res", "1e-10"),
         ("sweep", "--st", "3"), ("sweep", "--c", "1"), ("predict", "--c", "1")],
    )
    def test_flag_by_its_full_name_only(self, capsys, command, flag, value):
        """A prefix of a flag is not that flag, and --c is not a prefix of sweep's
        --c-min and --c-max: each is reported like any other unknown flag."""
        argv = [command, *self.ARGS[command]]
        assert run_cli(capsys, *argv)[0] == 0
        err = self.assert_usage_error(capsys, [*argv, flag, value])
        assert err == f"error: unrecognized arguments: {flag} {value}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["nosuch"],
            ["predict", "--m", "5"],
            ["zeros", "--m", "5", "--k", "4"],
            ["predict", "--m", "5", "--k", "4", "--format", "xml"],
            ["predict", "--m", "x", "--k", "4"],
            ["sweep", "--m", "5", "--k", "4", "--c-min", "1", "--c-max", "2", "--steps", "3", "--spacing", "cubic"],
        ],
        ids=["no-command", "unknown-command", "missing-k", "missing-c", "format-xml", "m-not-int", "bad-spacing"],
    )
    def test_usage_error(self, capsys, argv):
        self.assert_usage_error(capsys, argv)


class TestParamsAndMeta:
    """params holds c exactly where the command takes --c, and meta holds the
    version, plus the thresholds for sweep: no command's meta holds tolerances,
    since the residual gate is fixed."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--m", "5", "--k", "4"],
            ["predict", "--m", "5", "--k", "4"],
            ["zeros", "--m", "5", "--k", "4", "--c", "1"],
            ["thresholds", "--m", "5", "--k", "4"],
            ["sweep", "--m", "5", "--k", "4", "--c-min", "0.5", "--c-max", "3", "--steps", "4"],
            ["verify", "--m", "5", "--k", "4", "--c", "1", "--resolution", "64"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_c_and_tolerances_only_where_read(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        c = {"classify": 1.0, "zeros": 1.0, "verify": 1.0}.get(argv[0])
        assert doc["params"] == {"m": 5, "k": 4, **({"c": c} if c else {})}
        assert set(doc["meta"]) == {"version", *(["thresholds"] if argv[0] == "sweep" else [])}


class TestToleranceConfig:
    """Neither a flag nor an environment variable sets a tolerance."""

    @pytest.mark.parametrize("raw", ["1e-10", "abc", "0"])
    @pytest.mark.parametrize(
        "argv", [("zeros", "--c", "1"), ("verify", "--c", "1", "--resolution", "64")], ids=lambda argv: argv[0]
    )
    def test_environment_changes_nothing(self, capsys, monkeypatch, argv, raw):
        argv = (argv[0], "--m", "5", "--k", "4", *argv[1:])
        plain = run_cli(capsys, *argv)
        for name in ("RAYZEROS_TOL_RADIUS", "RAYZEROS_TOL_RESIDUAL"):
            monkeypatch.setenv(name, raw)
        assert run_cli(capsys, *argv) == plain
        assert plain[0] == 0


class TestModuleEntryPoint:
    """python -m rayzeros.cli runs main and exits with its code."""

    @pytest.mark.parametrize(
        "argv, code", [(["predict", "--m", "5", "--k", "4"], 0), (["predict", "--m", "4", "--k", "2"], 1)]
    )
    def test_same_output_and_exit_code_as_main(self, capsys, argv, code):
        src = str(pathlib.Path(rayzeros.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-m", "rayzeros.cli", *argv], capture_output=True, text=True, env=env, timeout=120
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys, *argv)
        assert proc.returncode == code

    def test_main_guard_in_process(self, capsys, monkeypatch):
        """The __main__ guard, run in this process by runpy, exits with main's code
        and writes main's output; rayzeros.cli is dropped from sys.modules first,
        as runpy warns of running a module that is already loaded."""
        argv = ["predict", "--m", "5", "--k", "4"]
        monkeypatch.delitem(sys.modules, "rayzeros.cli")
        monkeypatch.setattr(sys, "argv", ["rayzeros", *argv])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("rayzeros.cli", run_name="__main__")
        out = capsys.readouterr().out
        assert exc.value.code == 0
        assert out == run_cli(capsys, *argv)[1]


class TestLazyNumpy:
    """The library is pure Python, so no command loads numpy, verify included."""

    SCRIPT = (
        "import contextlib, io, sys\n"
        "import rayzeros\n"
        "from rayzeros import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(sys.argv[1:])\n"
        "print(rc, 'numpy' in sys.modules)\n"
    )

    @pytest.mark.parametrize(
        "argv",
        [
            ["predict", "--m", "5", "--k", "-4"],
            ["zeros", "--m", "5", "--k", "4", "--c", "3"],
            ["verify", "--m", "5", "--k", "4", "--c", "1"],
        ],
    )
    def test_no_command_loads_numpy(self, argv):
        src = str(pathlib.Path(rayzeros.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *argv],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        assert proc.stdout.split() == ["0", "False"]


class TestWhatEachCommandLoads:
    """A process imports only what its command needs: no command loads
    dataclasses or inspect, only zeros and verify load the root finder, only
    verify loads the grid oracle, and only the csv format loads csv.  Counting
    loads neither the root finder nor cmath: p is evaluated only in roots."""

    SCRIPT = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import rayzeros.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = rayzeros.cli.main(sys.argv[1:])\n"
        "print(rc, *sorted(set(sys.modules) - before))\n"
    )

    @staticmethod
    def run(*argv):
        src = str(pathlib.Path(rayzeros.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-c", *argv], capture_output=True, text=True, env=env, timeout=120, check=True
        )
        return proc.stdout.split()

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--m", "5", "--k", "4"],
            ["predict", "--m", "5", "--k", "-4"],
            ["zeros", "--m", "5", "--k", "4", "--c", "3"],
            ["thresholds", "--m", "7", "--k", "2"],
            ["sweep", "--m", "5", "--k", "4", "--c-min", "0.5", "--c-max", "3", "--steps", "4"],
            ["verify", "--m", "5", "--k", "4", "--c", "1"],
            ["thresholds", "--m", "7", "--k", "2", "--format", "csv"],
            # the root finder fails here (exit 3): matching the error loads no oracle
            pytest.param(["zeros", "--m", "5", "--k", "-4", "--c", "5e-324"], id="zeros-failing"),
        ],
        ids=lambda argv: argv[0] + ("-csv" if "csv" in argv else ""),
    )
    def test_added_modules(self, argv):
        rc, *added = self.run(self.SCRIPT, *argv)
        assert rc == ("3" if "5e-324" in argv else "0")
        assert "rayzeros.cli" in added
        assert not {"dataclasses", "inspect"} & set(added)
        assert ("rayzeros.oracle" in added) == (argv[0] == "verify")
        assert ("rayzeros.roots" in added) == (argv[0] in ("zeros", "verify"))
        assert ("csv" in added) == ("csv" in argv)

    def test_package_loads_the_oracle_on_first_use(self):
        script = (
            "import sys\n"
            "import rayzeros\n"
            "print('rayzeros.oracle' in sys.modules)\n"
            "rayzeros.find_zeros_grid\n"
            "print('rayzeros.oracle' in sys.modules)\n"
        )
        assert self.run(script) == ["False", "True"]

    def test_package_loads_the_root_finder_on_first_use(self):
        script = (
            "import sys\n"
            "import rayzeros\n"
            "print('rayzeros.roots' in sys.modules)\n"
            "rayzeros.all_zeros\n"
            "print('rayzeros.roots' in sys.modules)\n"
        )
        assert self.run(script) == ["False", "True"]

    def test_counting_never_loads_the_evaluation_of_p(self):
        script = (
            "import sys\n"
            "import rayzeros as rz\n"
            "p = rz.validate(49, 10, 1.0)\n"
            "rz.predict_at(p, 0.3), rz.thresholds(p), rz.predict_census(p), rz.predict_table(p)\n"
            "for j in (0, 1, 3):\n"
            "    a = rz.analyze_ray(p, j)\n"
            "    rz.count_at(a, 0.3), rz.degenerate_at(a, 0.3), rz.extremum_radius(a, 0.3)\n"
            "print('rayzeros.roots' in sys.modules, 'cmath' in sys.modules)\n"
        )
        assert self.run(script) == ["False", "False"]

    @pytest.mark.parametrize("name", ["evaluate", "f_value", "f_derivative", "family.evaluate"])
    def test_evaluating_p_loads_the_root_finder_on_first_use(self, name):
        script = (
            "import sys\n"
            "import rayzeros\n"
            "print('rayzeros.roots' in sys.modules)\n"
            f"f = rayzeros.{name}\n"
            "print('rayzeros.roots' in sys.modules)\n"
            f"print(f is rayzeros.roots.{name.split('.')[-1]})\n"
        )
        assert self.run(script) == ["False", "True", "True"]

    def test_family_forwards_evaluate_alone(self):
        """family.evaluate is roots' own object; the helpers that moved with
        it, and every other unknown name, raise AttributeError."""
        from rayzeros import family, roots

        assert family.evaluate is roots.evaluate
        for name in ("unit_direction", "_radial_sum", "_over_power", "f_value", "no_such_name"):
            with pytest.raises(AttributeError, match=f"'rayzeros.family' has no attribute '{name}'"):
                getattr(family, name)
