"""The schema of tools/bench.py's record, fed canned benchmark output; no benchmark runs."""
from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("_tools_bench", ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned(tail_ms: float, failed: int = 4, rate: float = 200.0) -> str:
    """What perfbench/run.py prints: report lines, the env line, the JSON result last."""
    metrics = {"setup_s": 0.018, "op_ms_p50": tail_ms / 50, "op_ms_tail": tail_ms, "ops_per_s": rate,
               "rss_peak_mb": 38.5}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    result = {"correct": True, "attempted": 353, "failed": failed,
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    return "\n".join([
        "env workload=solve seed=7 trace=0 python=3.11.7 nproc=2 host_factor=0.8",
        f"solve  op_ms_tail     {tail_ms} ms percentile=96.85 n=349",
        "failures 4 of 353 ops, by class {'residual_gate': 4}",
        json.dumps(result),
    ]) + "\n"


def test_parse_run_reads_the_last_line_and_the_host_line(bench):
    run = bench.parse_run(canned(36.0))
    assert run["host"].startswith("env workload=solve seed=7")
    assert (run["failed"], run["attempted"], run["correct"]) == (4, 353, True)
    assert run["failures"] == "failures 4 of 353 ops, by class {'residual_gate': 4}"
    assert run["metrics"]["op_ms_tail"] == 36.0
    assert set(run["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_record_holds_every_run_and_the_bound_decision(bench):
    before = [bench.parse_run(canned(t)) for t in (36.0, 35.0, 37.0, 36.5, 35.5)]
    after = [bench.parse_run(canned(t, failed=4, rate=150.0)) for t in (23.0, 24.0, 36.8, 22.5, 23.5)]
    sides = {"before": {"commit": "a"}, "after": {"commit": "b"}}
    rec = bench.record(SPEC, 7, sides, before, after)
    assert rec["pairs"] == 5 and rec["seed"] == 7 and rec["checkouts"] == sides
    assert rec["failed"] == {"before": [4] * 5, "after": [4] * 5}
    assert rec["attempted"] == {"before": [353] * 5, "after": [353] * 5}
    assert set(rec["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    tail = rec["metrics"]["op_ms_tail"]
    assert tail["before"]["runs"] == [36.0, 35.0, 37.0, 36.5, 35.5]
    assert tail["after"]["runs"] == [23.0, 24.0, 36.8, 22.5, 23.5]
    assert (tail["before"]["median"], tail["after"]["median"]) == (36.0, 23.5)
    assert tail["before"]["q1"] <= tail["before"]["median"] <= tail["before"]["q3"]
    assert tail["after_wins"] == 5  # 36.8 < 37.0
    assert tail["bound"] == 0.25 and tail["inside_bound"] and tail["beyond_before_iqr"]
    assert tail["change"] == pytest.approx(23.5 / 36.0 - 1)
    # ops_per_s is better higher: falling by more than its bound leaves it
    rate = rec["metrics"]["ops_per_s"]
    assert rate["better"] == "higher" and rate["after_wins"] == 0 and not rate["inside_bound"]
    assert rate["change"] == pytest.approx(-0.25) and rate["bound"] == 0.2
    flat = rec["metrics"]["setup_s"]
    assert flat["change"] == 0.0 and flat["inside_bound"] and not flat["beyond_before_iqr"]
    assert tail["gain_shown"] and not rate["gain_shown"] and not flat["gain_shown"]


def test_gain_shown_needs_nine_pairs_in_ten_and_a_better_median_beyond_the_iqr(bench):
    """gain_shown is the claim rule: AFTER wins at least 9 of 10 pairs, ties
    counting for neither, and its median is better by more than BEFORE's
    quartile distance.  beyond_before_iqr reads True for a regression too."""
    base = [36.0, 35.0, 37.0, 36.5, 35.5, 36.2, 35.8, 36.4, 35.6, 36.1]
    before = [bench.parse_run(canned(t)) for t in base]

    def tail(after_ms):
        return bench.compare(SPEC, before, [bench.parse_run(canned(t)) for t in after_ms])["op_ms_tail"]

    nine = tail([t - 5.0 for t in base[:9]] + [base[9]])  # the tie counts for neither side
    assert nine["after_wins"] == 9 and nine["beyond_before_iqr"] and nine["gain_shown"]
    eight = tail([t - 5.0 for t in base[:8]] + [base[8], base[9] + 1.0])
    assert eight["after_wins"] == 8 and eight["beyond_before_iqr"] and not eight["gain_shown"]
    worse = tail([t + 5.0 for t in base])
    assert worse["after_wins"] == 0 and worse["beyond_before_iqr"] and not worse["gain_shown"]
    close = tail([t - 0.1 for t in base])  # every pair won, the medians inside the IQR
    assert close["after_wins"] == 10 and not close["beyond_before_iqr"] and not close["gain_shown"]


def test_main_alternates_sides_and_merges_workloads(bench, monkeypatch, tmp_path, capsys):
    calls = []

    def fake_run(root, spec, workload, seed):
        calls.append(root.name)
        return bench.parse_run(canned(36.0 if root.name == "old" else 24.0))

    monkeypatch.setattr(bench, "run_once", fake_run)
    monkeypatch.setattr(bench, "commit", lambda root: {"commit": root.name})
    (tmp_path / "old").mkdir()
    (tmp_path / "new").mkdir()
    (tmp_path / "new" / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = tmp_path / "BENCH.json"
    for workload, pairs in (("solve", 3), ("sweep", 2)):
        argv = ["bench.py", str(tmp_path / "old"), str(tmp_path / "new"), "--workload", workload,
                "--seed", "7", "--pairs", str(pairs), "--out", str(out)]
        monkeypatch.setattr(sys, "argv", argv)
        assert bench.main() == 0
    assert calls == ["old", "new", "new", "old", "old", "new"] + ["old", "new", "new", "old"]
    printed = capsys.readouterr().out
    assert "solve  before failed/attempted 4/353 4/353 4/353" in printed
    assert "sweep  after  failed/attempted 4/353 4/353" in printed
    doc = json.loads(out.read_text())
    assert set(doc["workloads"]) == {"solve", "sweep"}
    assert doc["workloads"]["solve"]["pairs"] == 3
    assert doc["workloads"]["sweep"]["checkouts"] == {"before": {"commit": "old"}, "after": {"commit": "new"}}
