"""The pair loop, summary and output parsing of tools/bench_pairs.py, on
made-up runs: no benchmark runs here."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_pairs  # noqa: E402

NAMES = ("wall_s", "wall_s_raw", "setup_s", "setup_s_raw", "peak_rss_mb")


def side(wall, failed=0):
    return {"wall_s": wall, "wall_s_raw": wall / 2, "setup_s": 0.2,
            "setup_s_raw": 0.3, "peak_rss_mb": 60.0 + wall, "failed": failed}


def test_summary_counts_the_pairs_the_change_wins():
    pairs = [{"parent": side(p), "change": side(c, failed)}
             for p, c, failed in ((1.0, 0.8, 0), (1.2, 0.9, 0), (1.1, 1.15, 1),
                                  (1.3, 1.0, 0), (1.4, 1.1, 0))]
    summary = bench_pairs.summarize(pairs, NAMES)
    wall = summary["wall_s"]
    assert wall["parent_q1_median_q3"] == [1.1, 1.2, 1.3]
    assert wall["change_q1_median_q3"] == [0.9, 1.0, 1.1]
    assert wall["change_lower_in_pairs"] == 4
    # equal values are no win
    assert summary["setup_s"]["change_lower_in_pairs"] == 0
    assert summary["pairs"] == 5
    assert summary["failed"] == {"parent": 0, "change": 1}


def test_summary_of_one_pair():
    summary = bench_pairs.summarize([{"parent": side(1.0),
                                      "change": side(0.5)}], NAMES)
    assert summary["wall_s"]["change_q1_median_q3"] == [0.5, 0.5, 0.5]


def test_parse_run_reads_the_raw_lines_and_the_last_json():
    last = {"correct": True, "attempted": 12, "failed": 0, "metrics": {
        "wall_s": {"value": 1.23456, "unit": "s"},
        "setup_s": {"value": 0.18, "unit": "s"},
        "peak_rss_mb": {"value": 67.5, "unit": "MB"}}}
    stdout = "\n".join([
        "wall_s: median 1.2346 s at reference speed over 3 passes: 1 2 3",
        "  raw wall per pass: 0.9000 1.0000 1.2000",
        "setup_s: median 0.1800 s at reference speed over 3 fresh ...",
        "  raw: 0.1700 0.2000 0.1600",
        json.dumps(last)])
    values = bench_pairs.parse_run(stdout, traced=False)
    assert values == {"wall_s": 1.2346, "setup_s": 0.18, "peak_rss_mb": 67.5,
                      "wall_s_raw": 1.0, "passes": 3, "setup_s_raw": 0.17,
                      "attempted": 12, "failed": 0}


def test_metrics_are_the_benchmarks_and_their_raw_times():
    benchmark = json.loads((Path(bench_pairs.ROOT) / "BENCHMARK.json")
                           .read_text())
    units = bench_pairs.metrics(benchmark)
    assert sorted(units) == sorted(NAMES)
    assert units["wall_s_raw"] == units["wall_s"] + ", not scaled"


def test_pairs_alternate_the_side_that_runs_first(monkeypatch):
    calls = []

    def run_bench(copy, workload, seed, seconds, traced=False):
        calls.append((copy, workload, seed, traced))
        return {"wall_s": float(seed), "failed": 0}

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    pairs = list(bench_pairs.run_pairs({"parent": "P", "change": "C"},
                                       "preset_mix", range(21, 24), 50.0,
                                       traced=True))
    assert [(copy, seed) for copy, _, seed, _ in calls] == [
        ("P", 21), ("C", 21), ("C", 22), ("P", 22), ("P", 23), ("C", 23)]
    assert all(workload == "preset_mix" and traced
               for _, workload, _, traced in calls)
    assert [(pair["seed"], pair["first"]) for pair in pairs] == [
        (21, "parent"), (22, "change"), (23, "parent")]
    summary = bench_pairs.summarize(pairs, ["wall_s"])
    assert summary["pairs"] == 3
    assert summary["wall_s"]["parent_q1_median_q3"] == [21.5, 22.0, 22.5]


def test_emit_diff_lists_the_files_that_differ(monkeypatch, tmp_path):
    # fake emit runs: each copy writes a small tree; diff -r compares them
    trees = {
        "parent": {"li/trace.csv": "1\n", "li/summary.json": "{}\n",
                   "li.log": "exit 0\n", "gone/a.csv": "x\n"},
        "change": {"li/trace.csv": "2\n", "li/summary.json": "{}\n",
                   "li.log": "exit 0\n", "new.log": "exit 2\n"},
    }
    calls = []

    def emit_cases(script, copy, out):
        calls.append((script, copy))
        for name, text in trees[copy.name].items():
            (out / name).parent.mkdir(parents=True, exist_ok=True)
            (out / name).write_text(text)

    monkeypatch.setattr(bench_pairs, "emit_cases", emit_cases)
    copies = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    found = bench_pairs.emit_diff(copies, tmp_path)
    script = tmp_path / "parent" / "tools" / "emit_cases.py"
    assert calls == [(script, copies["parent"]), (script, copies["change"])]
    assert found == ["gone (only in emit_parent)", "li/trace.csv",
                     "new.log (only in emit_change)"]


def test_emit_diff_of_identical_trees_is_empty(monkeypatch, tmp_path):
    def emit_cases(script, copy, out):
        (out / "li").mkdir(parents=True)
        (out / "li" / "trace.csv").write_text("1\n")

    monkeypatch.setattr(bench_pairs, "emit_cases", emit_cases)
    assert bench_pairs.emit_diff({"parent": tmp_path / "p",
                                  "change": tmp_path / "c"}, tmp_path) == []


PYTEST_OUTPUT = """\
........F.........
============================= slowest 10 durations =============================
12.70s setup    tests/test_acceptance.py::test_criterion_07_lifetime_trends
=========================== short test summary info ============================
FAILED tests/test_cli.py::TestOtherCommands::test_solver_failure_exits_3 - as...
1 failed, 346 passed, 2 deselected in 56.70s
"""


def test_tier1_runs_the_suite_in_the_copy_and_counts_outcomes(monkeypatch,
                                                             tmp_path):
    # a fake pytest run: the command, the copy it runs in and its package
    calls = []

    def run(command, cwd, env, capture_output, text):
        calls.append((command, cwd, env["PYTHONPATH"]))
        return subprocess.CompletedProcess(command, 1, PYTEST_OUTPUT, "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    result = bench_pairs.tier1(tmp_path)
    assert calls == [([sys.executable, "-m", "pytest", "-q",
                       "--continue-on-collection-errors"], tmp_path,
                      str(tmp_path / "src"))]
    assert result.pop("wall_s") >= 0.0
    assert result == {"passed": 346, "failed": 1, "deselected": 2}


def test_tier1_counts_default_to_zero_and_need_a_summary():
    assert bench_pairs.tier1_counts("..\n347 passed in 57.03s\n") == {
        "passed": 347, "failed": 0}
    assert bench_pairs.tier1_counts("2 errors in 0.50s") == {
        "passed": 0, "failed": 0, "errors": 2}
    with pytest.raises(ValueError, match="summary"):
        bench_pairs.tier1_counts("ImportError: no module named numpy\n")
