"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

#: What every CLI command and sweep pool worker imports before it runs.
_COLD_START = """
import sys
import repro.experiments.parallel
import repro.cli
repro.cli.build_parser()
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cold_start_imports_no_scipy():
    """SciPy is imported where it runs (the NNLS fallback, the
    Black-Scholes closed form); loading it costs every process that
    imports ``repro`` about a third of a second."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def library_error(argv, capsys):
    """Run ``main(argv)`` that fails in the library: it returns 1 and
    prints one stderr line, which this returns."""
    code = main(argv)
    (line,) = capsys.readouterr().err.splitlines()
    assert code == 1
    assert "Traceback" not in line
    return line


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.app == "matmul"
        assert args.policy == "plb-hec"
        assert args.machines == 4

    def test_invalid_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "magic"])

    def test_invalid_machines_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--machines", "7"])

    def test_jobs_flag_on_sweep_commands(self):
        args = build_parser().parse_args(["fig4", "--jobs", "3"])
        assert args.jobs == 3
        args = build_parser().parse_args(["compare", "--jobs", "2"])
        assert args.jobs == 2

    def test_log_flags_are_global(self):
        args = build_parser().parse_args(
            ["--log-level", "debug", "--log-format", "json", "run"]
        )
        assert args.log_level == "debug"
        assert args.log_format == "json"
        args = build_parser().parse_args(["run"])
        assert args.log_level is None and args.log_format is None

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.out == "trace.json"
        assert args.policy == "plb-hec"

    def test_run_trace_and_metrics_out(self):
        args = build_parser().parse_args(
            ["run", "--trace-out", "t.json", "--metrics-out", "m.json"]
        )
        assert args.trace_out == "t.json"
        assert args.metrics_out == "m.json"

    def test_compare_trace_out(self):
        args = build_parser().parse_args(["compare", "--trace-out", "c.json"])
        assert args.trace_out == "c.json"

    def test_run_fault_flags_are_repeatable(self):
        args = build_parser().parse_args(
            ["run", "--fail", "A.gpu0@0.1", "--fail", "B.cpu@0.2",
             "--perturb", "A.cpu@0.1:2.5", "--transient", "B.gpu0@0.1+0.05"]
        )
        assert args.fail == ["A.gpu0@0.1", "B.cpu@0.2"]
        assert args.perturb == ["A.cpu@0.1:2.5"]
        assert args.transient == ["B.gpu0@0.1+0.05"]

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.runs == 16
        assert args.seed == 0
        assert args.out == "chaos_scorecard.json"
        assert args.quick is False
        assert args.policies is None

    def test_dashboard_defaults(self):
        args = build_parser().parse_args(["dashboard"])
        assert args.out == "dashboard.html"
        assert args.app == "matmul"
        assert args.replications == 2

    def test_dashboard_scorecard_flag(self):
        args = build_parser().parse_args(
            ["dashboard", "--scorecard", "sc.json"]
        )
        assert args.scorecard == "sc.json"


class TestCommands:
    def test_run(self, capsys):
        assert main(["run", "--app", "matmul", "--size", "4096"]) == 0
        out = capsys.readouterr().out
        assert "plb-hec" in out
        assert "time_s" in out

    def test_run_oracle(self, capsys):
        assert main(
            ["run", "--app", "matmul", "--size", "4096", "--policy", "oracle"]
        ) == 0
        assert "oracle" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(
            ["compare", "--app", "matmul", "--size", "4096",
             "--machines", "2", "--replications", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "speedup_vs_greedy" in out
        for policy in ("greedy", "acosta", "hdss", "plb-hec"):
            assert policy in out
        # per-policy makespan-attribution columns ride the table
        for column in ("compute", "transfer", "idle", "solver"):
            assert column in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "Tesla K20c" in capsys.readouterr().out

    def test_fig1(self, capsys):
        assert main(["fig1", "--points", "6"]) == 0
        assert "Fig.1" in capsys.readouterr().out

    def test_fig4_fast(self, capsys):
        assert main(["fig4", "--fast", "--replications", "1"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_fig5_fast(self, capsys):
        assert main(["fig5", "--fast", "--replications", "1"]) == 0
        assert "blackscholes" in capsys.readouterr().out

    def test_fig6(self, capsys):
        assert main(["fig6", "--replications", "1"]) == 0
        assert "gpu_total" in capsys.readouterr().out

    def test_fig7(self, capsys):
        assert main(["fig7", "--replications", "1"]) == 0
        assert "rebalances" in capsys.readouterr().out

    def test_overhead(self, capsys):
        assert main(["overhead", "--repetitions", "3"]) == 0
        assert "solver overhead" in capsys.readouterr().out

    def test_run_gantt(self, capsys):
        assert main(
            ["run", "--app", "matmul", "--size", "4096", "--gantt"]
        ) == 0
        out = capsys.readouterr().out
        assert "=probe" in out and "=exec" in out

    def test_run_trace_and_metrics_out(self, capsys, tmp_path):
        import json

        from repro.obs.trace_export import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert main(
            ["run", "--app", "matmul", "--size", "4096",
             "--trace-out", str(trace_path), "--metrics-out", str(metrics_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "trace written to" in out and "metrics written to" in out
        doc = json.loads(trace_path.read_text())
        assert validate_chrome_trace(doc) == []
        report = json.loads(metrics_path.read_text())
        assert report["config"]["app"] == "matmul"
        assert report["run_id"] == doc["otherData"]["run_id"]
        counters = report["metrics"]["counters"]
        assert counters["plbhec.probe_rounds"] > 0
        assert counters["plbhec.solves"] > 0
        assert counters["sim.events_dispatched"] > 0
        methods = {
            e["args"]["method"]
            for e in doc["traceEvents"]
            if e.get("cat") == "decision"
        }
        assert "certified" in methods

    @pytest.mark.parametrize("fmt", ["json", "prom"])
    def test_run_metrics_out_counts_this_run_only(self, capsys, tmp_path, fmt):
        import json

        outputs = []
        for name in ("first", "second"):
            path = tmp_path / name
            assert main(
                ["run", "--app", "matmul", "--size", "4096",
                 "--metrics-out", str(path), "--metrics-format", fmt]
            ) == 0
            outputs.append(path.read_text())
        # a run's telemetry is a pure function of the run: no host time
        assert outputs[0] == outputs[1]
        if fmt == "json":
            first, second = (json.loads(t)["metrics"]["counters"] for t in outputs)
            assert first["plbhec.solves"] > 0
        else:
            first, second = (
                [line for line in t.splitlines() if line.startswith("plbhec_solves ")
                 or line.startswith("sim_events_dispatched ")]
                for t in outputs
            )
            assert len(first) == 2
        assert first == second

    def test_run_output_does_not_depend_on_host_speed(self, capsys, monkeypatch):
        # PLB-HeC charges modeled fit and solve costs, never host time:
        # slowing every fit and solve on the host moves no output byte.
        import time

        import repro.core.plb_hec as plb_hec
        from repro.modeling.perf_profile import PerfProfile

        argv = ["run", "--app", "matmul", "--size", "4096", "--machines", "4",
                "--policy", "plb-hec", "--seed", "0"]
        assert main(argv) == 0
        plain = capsys.readouterr().out

        def slowed(fn):
            def slow(*args, **kwargs):
                time.sleep(0.005)
                return fn(*args, **kwargs)

            return slow

        monkeypatch.setattr(
            plb_hec, "solve_block_partition", slowed(plb_hec.solve_block_partition)
        )
        monkeypatch.setattr(PerfProfile, "fit", slowed(PerfProfile.fit))
        assert main(argv) == 0
        assert capsys.readouterr().out == plain

    def test_trace_command(self, capsys, tmp_path):
        import json

        from repro.obs.trace_export import validate_chrome_trace

        out_path = tmp_path / "t.json"
        assert main(
            ["trace", "--app", "matmul", "--size", "2048",
             "--out", str(out_path)]
        ) == 0
        assert "perfetto" in capsys.readouterr().out
        assert validate_chrome_trace(json.loads(out_path.read_text())) == []

    def test_compare_trace_out(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "cmp.json"
        assert main(
            ["compare", "--app", "matmul", "--size", "2048",
             "--machines", "2", "--replications", "1",
             "--trace-out", str(out_path)]
        ) == 0
        doc = json.loads(out_path.read_text())
        names = [
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        # one process group per compared policy
        assert sorted(names) == ["acosta", "greedy", "hdss", "plb-hec"]


class TestChaosArtifacts:
    """``repro chaos`` writes its scorecard and dashboard, nothing else."""

    def test_chaos_writes_only_its_out_and_dashboard(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_HISTORY", "1")
        assert main(
            ["chaos", "--quick", "--runs", "1", "--dashboard", "dash.html"]
        ) == 0
        written = sorted(p.name for p in tmp_path.rglob("*"))
        assert written == ["chaos_scorecard.json", "dash.html"]

    def test_history_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--quick", "--history", "h"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --history" in capsys.readouterr().err


class TestDashboardCommand:
    def test_dashboard_writes_file(self, tmp_path, monkeypatch, capsys):
        import repro.obs.dashboard as dashboard_mod
        from tests.obs.test_dashboard import make_data

        monkeypatch.setattr(
            dashboard_mod, "collect_dashboard_data",
            lambda **kwargs: make_data(),
        )
        out = tmp_path / "dash.html"
        assert main(["dashboard", "--out", str(out)]) == 0
        assert "dashboard written" in capsys.readouterr().out
        assert out.read_text().startswith("<!DOCTYPE html>")


class TestProfileParser:
    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.app == "matmul"
        assert args.policy == "plb-hec"
        assert args.flame == "profile.svg"
        assert args.collapsed is None
        assert args.json_out is None
        assert args.trace_out is None
        assert args.top == 10

    def test_profile_flags(self):
        args = build_parser().parse_args(
            ["profile", "--flame", "-", "--collapsed", "p.txt",
             "--json", "p.json", "--trace-out", "t.json", "--top", "5"]
        )
        assert args.flame == "-"
        assert args.collapsed == "p.txt"
        assert args.json_out == "p.json"
        assert args.trace_out == "t.json"
        assert args.top == 5

    @pytest.mark.parametrize("command", ["compare"])
    def test_profile_flag_everywhere(self, command):
        assert build_parser().parse_args([command]).profile is False
        assert build_parser().parse_args([command, "--profile"]).profile is True


class TestProfileCommand:
    def test_writes_all_artifacts(self, capsys, tmp_path):
        import json

        from repro.obs.trace_export import validate_chrome_trace

        flame = tmp_path / "p.svg"
        collapsed = tmp_path / "p.txt"
        snap_path = tmp_path / "p.json"
        trace = tmp_path / "t.json"
        assert main(
            ["profile", "--app", "matmul", "--size", "4096",
             "--flame", str(flame), "--collapsed", str(collapsed),
             "--json", str(snap_path), "--trace-out", str(trace)]
        ) == 0
        out = capsys.readouterr().out
        assert "attributed to a named phase" in out
        assert "CPU time by phase" in out
        # Acceptance: self-contained SVG + loadable collapsed stacks.
        svg = flame.read_text()
        assert svg.startswith("<svg") and "<script" not in svg
        lines = collapsed.read_text().splitlines()
        assert lines
        for line in lines:
            stack, _, value = line.rpartition(" ")
            assert int(value) > 0 and stack
        snap = json.loads(snap_path.read_text())
        named = sum(p["self_s"] for p in snap["phases"].values())
        assert named / snap["total_self_s"] >= 0.95  # >=95% named-phase
        doc = json.loads(trace.read_text())
        assert validate_chrome_trace(doc) == []
        assert any(
            e.get("cat") == "cpu-profile" for e in doc["traceEvents"]
        )

    def test_flame_dash_skips_svg(self, capsys, tmp_path, monkeypatch):
        import re

        monkeypatch.chdir(tmp_path)
        # a faulted run profiles like any other: `profile` takes `run`'s
        # fault flags
        for faults in ([], ["--machines", "2", "--fail", "B.gpu0@0.05"]):
            assert main(
                ["profile", "--app", "matmul", "--size", "4096", "--flame", "-",
                 *faults]
            ) == 0
            out = capsys.readouterr().out
            assert "flamegraph written" not in out
            assert "CPU time by phase" in out
            named = re.search(r"([\d.]+)% attributed to a named phase", out)
            assert float(named.group(1)) >= 95.0, out
        assert not (tmp_path / "profile.svg").exists()


class TestFaultInjectionCommand:
    def test_run_with_transient(self, capsys):
        # The window closes well before the overhead-free makespan
        # (~0.033 s), so both events land whatever PLB-HeC's overhead
        # charge adds.
        assert main(
            ["run", "--app", "matmul", "--size", "2048", "--machines", "2",
             "--transient", "B.gpu0@0.01+0.005"]
        ) == 0
        out = capsys.readouterr().out
        assert "faults: 1 down event(s), 1 recovery(ies)" in out

    def test_run_with_failure(self, capsys):
        assert main(
            ["run", "--app", "matmul", "--size", "2048", "--machines", "2",
             "--policy", "greedy", "--fail", "A.gpu0@0.02"]
        ) == 0
        assert "down event" in capsys.readouterr().out

    def test_unknown_device_named_in_error(self, capsys):
        line = library_error(
            ["run", "--app", "matmul", "--size", "1024", "--fail", "ghost@0.1"],
            capsys,
        )
        assert line.startswith("repro run: error: ConfigurationError: ")
        assert "'ghost'" in line

    def test_malformed_spec_rejected(self, capsys):
        line = library_error(["run", "--transient", "A.gpu0@nope"], capsys)
        assert line.startswith("repro run: error: ConfigurationError: ")
        assert "--transient wants" in line


class TestChaosCommand:
    def test_quick_campaign_green(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["chaos", "--runs", "2", "--quick", "--dashboard", "dash.html"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "-> OK" in out
        assert "plb-hec" in out and "greedy" in out
        # per-policy mean-attribution columns on the chaos table
        assert "fault_rec" in out and "rework" in out

        import json

        scorecard = json.loads((tmp_path / "chaos_scorecard.json").read_text())
        assert scorecard["total_runs"] == 2
        assert scorecard["all_invariants_ok"] is True
        assert all(r["faults"] for r in scorecard["runs"])

        html = (tmp_path / "dash.html").read_text()
        assert "<h2>Resilience</h2>" in html


class TestExplainParser:
    def test_explain_defaults(self):
        args = build_parser().parse_args(["explain"])
        assert args.app == "matmul"
        assert args.policy == "plb-hec"
        assert args.out is None

    def test_explain_accepts_fault_flags(self):
        args = build_parser().parse_args(
            ["explain", "--fail", "A.gpu0@0.5", "--out", "e.jsonl"]
        )
        assert args.fail == ["A.gpu0@0.5"]
        assert args.out == "e.jsonl"

    def test_run_explain_out_and_metrics_format(self):
        args = build_parser().parse_args(
            ["run", "--explain-out", "e.jsonl", "--metrics-format", "prom"]
        )
        assert args.explain_out == "e.jsonl"
        assert args.metrics_format == "prom"
        assert build_parser().parse_args(["run"]).metrics_format == "json"

    def test_bad_metrics_format_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--metrics-format", "xml"])


class TestExplainCommand:
    def test_explain_prints_decisions_and_calibration(self, capsys):
        assert main(
            ["explain", "--app", "matmul", "--size", "2048", "--machines", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "trigger" in out
        assert "probe-round" in out
        assert "selection" in out
        assert "coverage" in out
        assert "Prediction calibration" in out

    def test_explain_writes_valid_artifact(self, capsys, tmp_path):
        from repro.obs.ledger import read_explain

        path = tmp_path / "explain.jsonl"
        assert main(
            ["explain", "--app", "matmul", "--size", "2048",
             "--machines", "2", "--out", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "explain ledger written to" in out
        parsed = read_explain(str(path))
        # 100% attribution: every executed block maps to a decision
        assert parsed["header"]["attribution"]["unattributed"] == 0
        assert parsed["header"]["attribution"]["attributed"] > 0
        assert parsed["header"]["decisions"] == len(parsed["decisions"])
        # the printed count is the decision count, not the line count
        assert f"({parsed['header']['decisions']} decision(s))" in out

    def test_explain_ledgerless_policy_fails_cleanly(self, capsys):
        assert main(
            ["explain", "--app", "matmul", "--size", "2048",
             "--machines", "2", "--policy", "greedy"]
        ) == 1
        assert "no decision ledger" in capsys.readouterr().out

    def test_run_explain_out(self, capsys, tmp_path):
        from repro.obs.ledger import read_explain

        path = tmp_path / "explain.jsonl"
        assert main(
            ["run", "--app", "matmul", "--size", "2048", "--machines", "2",
             "--explain-out", str(path)]
        ) == 0
        assert "explain ledger written to" in capsys.readouterr().out
        read_explain(str(path))

    def test_run_metrics_prom_format(self, capsys, tmp_path):
        path = tmp_path / "metrics.prom"
        assert main(
            ["run", "--app", "matmul", "--size", "2048", "--machines", "2",
             "--metrics-out", str(path), "--metrics-format", "prom"]
        ) == 0
        assert "(prom)" in capsys.readouterr().out
        text = path.read_text()
        assert "# TYPE" in text
        assert "plbhec_probe_rounds" in text

    def test_run_trace_out_carries_decision_instants(self, tmp_path):
        import json

        path = tmp_path / "trace.json"
        assert main(
            ["run", "--app", "matmul", "--size", "2048", "--machines", "2",
             "--trace-out", str(path)]
        ) == 0
        doc = json.loads(path.read_text())
        marks = [e for e in doc["traceEvents"] if e.get("cat") == "decision"]
        assert marks, "plb-hec runs must export decision instants"
        assert all(m["ph"] == "i" for m in marks)

    def test_chaos_table_has_decision_columns(self, capsys, tmp_path):
        assert main(
            ["chaos", "--app", "matmul", "--size", "1024",
             "--machines", "2", "--runs", "2", "--seed", "0",
             "--policies", "plb-hec,greedy",
             "--out", str(tmp_path / "scorecard.json")]
        ) == 0
        out = capsys.readouterr().out
        assert "decisions" in out
        assert "fallbacks" in out


class TestTelemetryParser:
    def test_run_telemetry_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.sample_interval is None
        assert args.series_out is None
        assert args.slo is None
        assert args.slo_report_out is None

    def test_run_telemetry_flags(self):
        args = build_parser().parse_args(
            ["run", "--sample-interval", "0", "--series-out", "s.jsonl",
             "--slo", "default", "--slo-report-out", "r.json"]
        )
        assert args.sample_interval == 0.0
        assert args.series_out == "s.jsonl"
        assert args.slo == "default"
        assert args.slo_report_out == "r.json"

    def test_top_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.series == "series.jsonl"
        assert args.once is False
        assert args.interval == 2.0
        assert args.width == 40
        assert args.slo_report is None


class TestTelemetryCommands:
    RUN = ["run", "--app", "matmul", "--size", "2048", "--machines", "2"]

    def test_series_out_validates_and_reports(self, capsys, tmp_path):
        from repro.obs.timeseries import read_series, validate_series

        path = tmp_path / "series.jsonl"
        assert main(self.RUN + ["--series-out", str(path)]) == 0
        assert "series written to" in capsys.readouterr().out
        lines = path.read_text().splitlines()
        assert validate_series(lines) == []
        header, store = read_series(path)
        assert header["interval"] > 0  # auto interval resolved
        assert store.values("completed_units")[-1] > 0

    def test_default_slo_passes_healthy_run(self, capsys, tmp_path):
        report_path = tmp_path / "slo_report.json"
        assert main(
            self.RUN + ["--slo", "default",
                        "--slo-report-out", str(report_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "SLO evaluation: default" in out
        assert "slo: OK" in out
        import json as _json

        report = _json.loads(report_path.read_text())
        assert report["ok"] is True

    def test_violated_slo_exits_2_and_stamps_trace(self, capsys, tmp_path):
        import json as _json

        spec_path = tmp_path / "impossible.slo.json"
        spec_path.write_text(
            _json.dumps(
                {
                    "name": "impossible",
                    "objectives": [
                        {"name": "no-goodput",
                         "expr": "max(goodput_units_per_s) < 0"}
                    ],
                }
            )
        )
        trace_path = tmp_path / "trace.json"
        code = main(
            self.RUN + ["--slo", str(spec_path),
                        "--trace-out", str(trace_path)]
        )
        assert code == 2
        assert "slo: FAIL" in capsys.readouterr().out
        doc = _json.loads(trace_path.read_text())
        alerts = [e for e in doc["traceEvents"] if e.get("cat") == "alert"]
        assert alerts, "SLO violations must stamp alert instants"
        assert any("no-goodput" in a.get("name", "") for a in alerts)

    def test_slo_report_out_requires_slo(self, capsys):
        line = library_error(self.RUN + ["--slo-report-out", "r.json"], capsys)
        assert line == (
            "repro run: error: ConfigurationError: --slo-report-out requires --slo"
        )

    def test_top_once_renders_frame(self, capsys, tmp_path):
        series = tmp_path / "series.jsonl"
        report = tmp_path / "slo_report.json"
        assert main(
            self.RUN + ["--series-out", str(series), "--slo", "default",
                        "--slo-report-out", str(report)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["top", "--once", "--series", str(series),
             "--slo-report", str(report)]
        ) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "units left" in out
        assert "SLO: default" in out

    def test_top_missing_series_exits_1(self, capsys, tmp_path):
        assert main(
            ["top", "--once", "--series", str(tmp_path / "absent.jsonl")]
        ) == 1
        assert "repro run --series-out" in capsys.readouterr().err

    def test_chaos_table_has_slo_column(self, capsys, tmp_path):
        assert main(
            ["chaos", "--app", "matmul", "--size", "1024",
             "--machines", "2", "--runs", "2", "--seed", "0",
             "--policies", "plb-hec,greedy",
             "--out", str(tmp_path / "scorecard.json")]
        ) == 0
        assert "slo_viol" in capsys.readouterr().out


class TestExitCodeContract:
    """The exit-code table exists in exactly one place (EXIT_CODE_TABLE);
    README and --help must be renderings of it, never forks."""

    def readme_rows(self):
        import pathlib

        from repro import cli

        readme = (
            pathlib.Path(cli.__file__).parents[2] / "README.md"
        ).read_text()
        _, _, section = readme.partition("### Exit codes")
        assert section, "README lost its '### Exit codes' section"
        rows = []
        for line in section.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) != 3 or not cells[0].isdigit():
                continue
            rows.append((int(cells[0]), cells[1], cells[2]))
        return rows

    def test_readme_table_matches_code(self):
        from repro.cli import EXIT_CODE_TABLE

        assert self.readme_rows() == list(EXIT_CODE_TABLE)

    def test_help_epilog_matches_code(self):
        from repro.cli import EXIT_CODE_TABLE

        text = build_parser().format_help()
        assert "exit codes:" in text
        for code, name, meaning in EXIT_CODE_TABLE:
            assert f"{code}" in text and name in text
            # argparse re-wraps nothing in a RawDescription epilog, so
            # the full meaning must appear verbatim
            assert meaning in text

    def test_table_covers_exit_codes_in_use(self):
        from repro.cli import EXIT_CODE_TABLE, EXIT_GATE_FAILED

        codes = {code for code, _, _ in EXIT_CODE_TABLE}
        assert {0, 1, 3} <= codes
        assert EXIT_GATE_FAILED in codes


class TestWhyParser:
    def test_why_defaults(self):
        args = build_parser().parse_args(["why"])
        assert args.app == "matmul"
        assert args.policy == "plb-hec"
        assert args.out == "critpath.json"
        assert args.speedup_factor == 2.0
        assert args.assert_bound is False
        assert args.trace_out is None

    def test_why_flags(self):
        args = build_parser().parse_args(
            ["why", "--out", "-", "--speedup-factor", "4",
             "--assert-bound", "--trace-out", "t.json",
             "--transient", "B.gpu0@0.05+0.02"]
        )
        assert args.out == "-"
        assert args.speedup_factor == 4.0
        assert args.assert_bound is True
        assert args.trace_out == "t.json"
        assert args.transient == ["B.gpu0@0.05+0.02"]


class TestWhyCommand:
    RUN = ["why", "--app", "matmul", "--size", "2048", "--machines", "2"]

    def test_writes_valid_artifact_and_reports(self, capsys, tmp_path):
        import json

        from repro.obs.critpath import validate_critpath

        path = tmp_path / "critpath.json"
        assert main(self.RUN + ["--out", str(path), "--assert-bound"]) == 0
        out = capsys.readouterr().out
        assert "Makespan attribution" in out
        assert "fully attributed" in out
        assert "What-if lower bounds" in out
        assert "bottleneck:" in out
        assert "decisions on the critical path" in out
        assert "critpath written to" in out
        doc = json.loads(path.read_text())
        assert validate_critpath(doc) == []

    def test_out_dash_skips_artifact(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(self.RUN + ["--out", "-"]) == 0
        assert "critpath written" not in capsys.readouterr().out
        assert not (tmp_path / "critpath.json").exists()

    def test_trace_out_flags_critical_path(self, capsys, tmp_path):
        import json

        from repro.obs.trace_export import validate_chrome_trace

        trace_path = tmp_path / "why_trace.json"
        assert main(
            self.RUN + ["--out", "-", "--trace-out", str(trace_path)]
        ) == 0
        doc = json.loads(trace_path.read_text())
        assert validate_chrome_trace(doc) == []
        flagged = [e for e in doc["traceEvents"]
                   if e.get("args", {}).get("critpath")]
        flows = [e for e in doc["traceEvents"] if e.get("cat") == "critpath"]
        assert flagged and flows

    def test_faulted_run_attributes_recovery(self, capsys, tmp_path):
        import json

        path = tmp_path / "critpath.json"
        assert main(
            self.RUN + ["--out", str(path), "--assert-bound",
                        "--transient", "B.gpu0@0.02+0.05"]
        ) == 0
        doc = json.loads(path.read_text())
        categories = doc["categories"]
        assert abs(sum(categories.values()) - doc["makespan"]) < 1e-9


class TestUsageErrors:
    """Usage errors exit 1 (EXIT_CODE_TABLE row 1): 2 means a failed
    gate, so a script can tell a typo from a regression."""

    @pytest.mark.parametrize(
        "argv",
        [["run", "--policy", "bogus"], ["run", "--size", "abc"], []],
        ids=["unknown-choice", "bad-int", "no-command"],
    )
    def test_usage_error_exits_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage: repro" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["top", "--interval", "-1"],
            ["top", "--interval", "nan"],
            ["top", "--frames", "0"],
            ["top", "--width", "0"],
            ["profile", "--top", "-1"],
        ],
        ids=["interval", "interval-nan", "frames", "width", "profile-top"],
    )
    def test_degenerate_number_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 1
        assert f"argument {argv[1]}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["run", "--size", "1024", "--machines", "1"], ["serve", "--duration", "1"]],
        ids=["run", "serve"],
    )
    def test_negative_seed_is_a_configuration_error(self, argv, capsys):
        line = library_error(argv + ["--seed", "-1"], capsys)
        assert line == (
            f"repro {argv[0]}: error: ConfigurationError: "
            "seed must be >= 0, got -1"
        )

    def test_boundary_numbers_accepted(self):
        args = build_parser().parse_args(
            ["top", "--interval", "0", "--frames", "1", "--width", "1"]
        )
        assert (args.interval, args.frames, args.width) == (0.0, 1, 1)
        assert build_parser().parse_args(["profile", "--top", "1"]).top == 1


class TestSharedPipeline:
    """Flag groups and the single-run pipeline behave alike in every
    command that shares them."""

    RUN = ["--app", "matmul", "--size", "2048", "--machines", "2"]

    @pytest.mark.parametrize(
        "argv",
        [["run", *RUN], ["serve", "--rate", "2", "--duration", "3"]],
        ids=["run", "serve"],
    )
    def test_slo_report_out_requires_slo(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        line = library_error(argv + ["--slo-report-out", "r.json"], capsys)
        assert "ConfigurationError: --slo-report-out requires --slo" in line
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command",
        [
            ["trace", "--out"],
            ["why", "--out", "-", "--trace-out"],
            ["profile", "--flame", "-", "--trace-out"],
        ],
        ids=["trace", "why", "profile"],
    )
    def test_single_run_trace_carries_decisions(
        self, command, tmp_path, monkeypatch, capsys
    ):
        import json

        from repro import cli
        from repro.obs.trace_export import validate_chrome_trace

        results = []
        simulate = cli._simulate

        def recording_simulate(*args, **kwargs):
            policy, result = simulate(*args, **kwargs)
            results.append(result)
            return policy, result

        monkeypatch.setattr(cli, "_simulate", recording_simulate)
        path = tmp_path / "trace.json"
        argv = [command[0], *self.RUN, "--policy", "plb-hec", *command[1:]]
        assert main(argv + [str(path)]) == 0
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []
        marks = [
            e["args"]["id"] for e in doc["traceEvents"]
            if e.get("cat") == "decision"
        ]
        (result,) = results
        assert marks, "plb-hec traces must carry decision instants"
        assert marks == [d.decision_id for d in result.ledger.decisions]

    def test_top_follow_mode_stops_after_frames(self, tmp_path, capsys):
        series = tmp_path / "series.jsonl"
        assert main(["run", *self.RUN, "--series-out", str(series)]) == 0
        capsys.readouterr()
        assert main(
            ["top", "--series", str(series), "--frames", "2",
             "--interval", "0"]
        ) == 0
        assert capsys.readouterr().out.count("\x1b[H\x1b[2J") == 2
