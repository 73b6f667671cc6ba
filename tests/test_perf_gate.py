"""The perf gate's decision on synthetic perfbench result lines.

No perfbench run happens here: ``judge`` is pure, and these tests feed
it result lines of the shape ``perfbench/run.py --trace 0`` prints; the
one test of ``perfbench`` replaces the subprocess it starts.
"""

import subprocess
from pathlib import Path

import pytest

from benchmarks import perf_gate
from benchmarks.perf_gate import digest_report, judge, render

END_TO_END = (
    {"name": "throughput_per_s", "better": "higher", "bound": 0.24},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
)


def result(correct=True, failed=0, **metrics):
    return {
        "correct": correct,
        "attempted": 96,
        "failed": failed,
        "metrics": {name: {"value": value} for name, value in metrics.items()},
    }


def pairs(base, change, n=3):
    return [(base, change) for _ in range(n)]


def row(rows, metric):
    (match,) = [r for r in rows if r["metric"] == metric]
    return match


BASE = result(throughput_per_s=100.0, setup_s=1.0)


class TestBounds:
    def test_higher_is_better_drop_just_inside_passes(self):
        change = result(throughput_per_s=76.5, setup_s=1.0)
        rows, failures = judge(END_TO_END, {"w": pairs(BASE, change)})
        assert failures == []
        assert row(rows, "throughput_per_s")["verdict"] == "ok"
        assert row(rows, "throughput_per_s")["rel"] == pytest.approx(-0.235)

    def test_higher_is_better_drop_just_past_fails(self):
        change = result(throughput_per_s=75.5, setup_s=1.0)
        rows, failures = judge(END_TO_END, {"w": pairs(BASE, change)})
        assert row(rows, "throughput_per_s")["verdict"] == "WORSE"
        assert len(failures) == 1 and "throughput_per_s" in failures[0]

    def test_lower_is_better_rise_just_inside_passes(self):
        change = result(throughput_per_s=100.0, setup_s=1.245)
        rows, failures = judge(END_TO_END, {"w": pairs(BASE, change)})
        assert failures == []
        assert row(rows, "setup_s")["verdict"] == "ok"

    def test_lower_is_better_rise_just_past_fails(self):
        change = result(throughput_per_s=100.0, setup_s=1.255)
        rows, failures = judge(END_TO_END, {"w": pairs(BASE, change)})
        assert row(rows, "setup_s")["verdict"] == "WORSE"
        assert len(failures) == 1 and "setup_s" in failures[0]

    def test_improvements_never_fail(self):
        change = result(throughput_per_s=200.0, setup_s=0.5)
        _, failures = judge(END_TO_END, {"w": pairs(BASE, change)})
        assert failures == []

    def test_medians_not_single_runs_decide(self):
        # one slow change run out of three is noise, not a regression
        slow = result(throughput_per_s=50.0, setup_s=1.0)
        runs = [(BASE, BASE), (BASE, slow), (BASE, BASE)]
        rows, failures = judge(END_TO_END, {"w": runs})
        assert failures == []
        assert row(rows, "throughput_per_s")["change"] == 100.0


class TestCorrectness:
    def test_incorrect_change_run_fails(self):
        bad = result(correct=False, throughput_per_s=100.0, setup_s=1.0)
        runs = [(BASE, BASE), (BASE, bad), (BASE, BASE)]
        _, failures = judge(END_TO_END, {"w": runs})
        assert failures == ["w pair 2: the change run reports correct: false"]

    def test_more_failed_ops_than_paired_base_fails(self):
        change = result(failed=2, throughput_per_s=100.0, setup_s=1.0)
        base = result(failed=1, throughput_per_s=100.0, setup_s=1.0)
        _, failures = judge(END_TO_END, {"w": [(base, change)]})
        assert any("failed 2 operation(s), its base run 1" in f for f in failures)

    def test_as_many_failed_ops_as_paired_base_passes(self):
        run = result(failed=1, throughput_per_s=100.0, setup_s=1.0)
        _, failures = judge(END_TO_END, {"w": pairs(run, run)})
        assert failures == []

    def test_change_run_without_result_fails(self):
        runs = [(BASE, BASE), (BASE, None), (BASE, BASE)]
        _, failures = judge(END_TO_END, {"w": runs})
        assert failures == ["w pair 2: the change run printed no result"]


class TestMissingMetrics:
    def test_metric_the_base_does_not_print_is_skipped(self):
        old_base = result(throughput_per_s=100.0)
        change = result(throughput_per_s=100.0, setup_s=9.0)
        rows, failures = judge(END_TO_END, {"w": pairs(old_base, change)})
        assert failures == []
        skipped = row(rows, "setup_s")
        assert skipped["verdict"] == "skipped: the base does not print it"
        assert skipped["base"] is None and skipped["rel"] is None
        table = render(rows)
        assert "skipped: the base does not print it" in table
        assert "setup_s" in table

    def test_metric_no_change_run_prints_fails(self):
        change = result(throughput_per_s=100.0)
        rows, failures = judge(END_TO_END, {"w": pairs(BASE, change)})
        assert row(rows, "setup_s")["verdict"].startswith("FAIL")
        assert failures == ["w setup_s: no change run prints it"]


def test_table_has_one_row_per_workload_and_metric():
    runs = {"a": pairs(BASE, BASE), "b": pairs(BASE, BASE)}
    rows, failures = judge(END_TO_END, runs)
    assert failures == []
    assert [(r["workload"], r["metric"]) for r in rows] == [
        ("a", "throughput_per_s"), ("a", "setup_s"),
        ("b", "throughput_per_s"), ("b", "setup_s"),
    ]
    lines = render(rows).splitlines()
    assert lines[0].split()[:2] == ["workload", "metric"]
    assert len(lines) == 1 + len(rows)


def test_both_trees_run_perfbench_with_bytecode_caches(monkeypatch):
    """A fresh base worktree must fill its bytecode cache in the
    pre-warm process, as the working tree's is filled."""
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append(kwargs)
        return subprocess.CompletedProcess(cmd, 0, stdout='{"correct": true}\n')

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PERF_GATE_PROBE", "kept")
    monkeypatch.setattr(perf_gate.subprocess, "run", fake_run)
    spec = {"command": ["python3", "perfbench/run.py"]}
    for tree in (Path("base"), Path("change")):
        assert perf_gate.perfbench(spec, tree, "batch-paper") == {"correct": True}
    assert len(calls) == 2
    for kwargs in calls:
        assert "PYTHONDONTWRITEBYTECODE" not in kwargs["env"]
        assert kwargs["env"]["PERF_GATE_PROBE"] == "kept"


class TestDigests:
    """The gate reports whether virtual-time results moved, and never
    fails a change for it."""

    def test_perfbench_keeps_the_vt_digest_line(self, monkeypatch):
        stdout = 'perfbench: workload=w\nvt digest: 0123abcd\nchecks: ok\n{"correct": true}\n'
        monkeypatch.setattr(
            perf_gate.subprocess, "run",
            lambda cmd, **kwargs: subprocess.CompletedProcess(cmd, 0, stdout=stdout),
        )
        spec = {"command": ["python3", "perfbench/run.py"]}
        got = perf_gate.perfbench(spec, Path("tree"), "w")
        assert got == {"correct": True, "vt_digest": "0123abcd"}

    def test_unchanged_and_moved_digests(self):
        base = {**BASE, "vt_digest": "aaaa"}
        moved = {**BASE, "vt_digest": "bbbb"}
        runs = {"same": pairs(base, dict(base)), "moved": pairs(base, moved)}
        assert digest_report(runs) == [
            "same: vt digest base aaaa, change aaaa: unchanged",
            "moved: vt digest base aaaa, change bbbb: MOVED: virtual-time results differ",
        ]
        # a report, not a verdict: moved results fail nothing
        assert judge(END_TO_END, runs)[1] == []

    def test_missing_or_disagreeing_digests_are_said_so(self):
        base = {**BASE, "vt_digest": "aaaa"}
        runs = {
            "old": pairs(BASE, base),
            "lost": [(base, None)],
            "flaky": [(base, base), (base, {**BASE, "vt_digest": "cccc"})],
        }
        assert digest_report(runs) == [
            "old: vt digest base -, change aaaa: not compared: a side printed no digest",
            "lost: vt digest base aaaa, change -: not compared: a side printed no digest",
            "flaky: vt digest base aaaa, change aaaa, cccc: runs of one side disagree",
        ]
