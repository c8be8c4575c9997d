"""Command-line surface: dispatch, serialization parity, exit codes, env config."""
from __future__ import annotations

import csv
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import rayzeros
import rayzeros.cli as cli_mod
from rayzeros import Sign, count_at
from rayzeros.cli import main


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
                    "r0": a.r0,
                    "c0": a.c0,
                }
            )
        return rows

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

        def boom(params, tolerances=None):
            raise BracketFailure("sign change lost")

        monkeypatch.setattr(cli_mod, "all_zeros", boom)
        code, _, err = run_cli(capsys, "zeros", "--m", "5", "--k", "4", "--c", "1")
        assert code == 3
        assert "BracketFailure" in err

    def test_overflow_is_numerical_failure(self, capsys, monkeypatch):
        import rayzeros.cli as cli_mod

        def boom(params, tolerances=None):
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

    @pytest.mark.parametrize("flag", ["--tol-radius", "--tol-residual"])
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_bad_tolerance_flag_is_invalid(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "zeros", "--m", "5", "--k", "4", "--c", "1", flag, value)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and flag in err

    def test_numerical_failure_from_oracle(self, capsys, monkeypatch):
        from rayzeros.oracle import ResolutionTooCoarse
        import rayzeros.cli as cli_mod

        def boom(params, resolution=256):
            raise ResolutionTooCoarse("ambiguous cell")

        monkeypatch.setattr(cli_mod, "find_zeros_grid", boom)
        code, _, err = run_cli(capsys, "verify", "--m", "5", "--k", "4", "--c", "1")
        assert code == 3
        assert "ResolutionTooCoarse" in err

    def test_oracle_overflow_is_too_coarse(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--m", "2", "--k", "1", "--c", "1.7e170")
        assert code == 3
        assert "ResolutionTooCoarse" in err and "OverflowError" not in err


class TestToleranceConfig:
    def test_default_in_meta(self, capsys):
        _, out, _ = run_cli(capsys, "zeros", "--m", "5", "--k", "4", "--c", "1")
        meta = json.loads(out)["meta"]
        assert meta["tolerances"] == {"radius": 1e-12, "residual": 1e-10}

    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("RAYZEROS_TOL_RADIUS", "1e-10")
        _, out, _ = run_cli(capsys, "zeros", "--m", "5", "--k", "4", "--c", "1")
        assert json.loads(out)["meta"]["tolerances"]["radius"] == 1e-10

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("RAYZEROS_TOL_RADIUS", "1e-10")
        _, out, _ = run_cli(
            capsys, "zeros", "--m", "5", "--k", "4", "--c", "1", "--tol-radius", "1e-11"
        )
        assert json.loads(out)["meta"]["tolerances"]["radius"] == 1e-11

    @pytest.mark.parametrize("name", ["RAYZEROS_TOL_RADIUS", "RAYZEROS_TOL_RESIDUAL"])
    @pytest.mark.parametrize("raw", ["abc", "", "0", "-1e-10", "nan", "inf"])
    def test_bad_env_value_is_invalid(self, capsys, monkeypatch, name, raw):
        monkeypatch.setenv(name, raw)
        code, out, err = run_cli(capsys, "zeros", "--m", "5", "--k", "4", "--c", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and name in err


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
