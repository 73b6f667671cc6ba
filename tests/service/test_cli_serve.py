"""``repro serve`` and ``repro chaos --serve`` at the CLI boundary."""

import json

import pytest

from repro.cli import build_parser, main
from repro.service import validate_scorecard


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.rate == 2.0
        assert args.policy == "plb-hec"
        assert args.shed_policy == "reject"
        assert args.scorecard_out == "serve_scorecard.json"
        assert args.slo is None

    def test_serve_rejects_unknown_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--policy", "magic"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--shed-policy", "coin"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--pattern", "tidal"])

    def test_chaos_grows_serve_mode(self):
        args = build_parser().parse_args(["chaos", "--serve", "--quick"])
        assert args.serve and args.quick


class TestServeCommand:
    def test_healthy_episode_exits_zero(self, tmp_path, capsys):
        card_path = tmp_path / "card.json"
        series_path = tmp_path / "series.jsonl"
        code = main([
            "serve", "--rate", "2", "--duration", "8", "--seed", "3",
            "--scorecard-out", str(card_path),
            "--series-out", str(series_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Service episode" in out
        card = json.loads(card_path.read_text())
        assert validate_scorecard(card) == []
        assert card["jobs"]["completed"] > 0
        from repro.obs.timeseries import validate_series

        lines = series_path.read_text().splitlines()
        assert validate_series(lines) == []

    def test_slo_violation_exits_two(self, tmp_path):
        spec = tmp_path / "impossible.slo.json"
        spec.write_text(json.dumps({
            "name": "impossible",
            "objectives": [
                {"name": "no-goodput",
                 "expr": "max(serve_goodput_jobs_per_s) < 0"},
            ],
        }))
        code = main([
            "serve", "--rate", "2", "--duration", "6", "--seed", "0",
            "--scorecard-out", "-", "--slo", str(spec),
        ])
        assert code == 2

    def test_passing_slo_exits_zero(self, tmp_path):
        spec = tmp_path / "ok.slo.json"
        spec.write_text(json.dumps({
            "name": "ok",
            "objectives": [
                {"name": "drained", "expr": "last(serve_backlog_jobs) <= 0"},
            ],
        }))
        report = tmp_path / "slo_report.json"
        code = main([
            "serve", "--rate", "2", "--duration", "6", "--seed", "0",
            "--scorecard-out", "-", "--slo", str(spec),
            "--slo-report-out", str(report),
        ])
        assert code == 0
        assert json.loads(report.read_text())["ok"]

    def test_fault_flags_reach_the_episode(self, tmp_path, capsys):
        card_path = tmp_path / "card.json"
        code = main([
            "serve", "--rate", "3", "--duration", "8", "--seed", "4",
            "--transient", "A.gpu0@2.0+2.0",
            "--scorecard-out", str(card_path),
        ])
        assert code == 0
        card = json.loads(card_path.read_text())
        assert card["breakers"]["A.gpu0"]["opens"] >= 1

    def test_overload_sheds_and_stays_bounded(self, tmp_path):
        card_path = tmp_path / "card.json"
        code = main([
            "serve", "--rate", "12", "--duration", "8", "--seed", "0",
            "--queue-limit", "6", "--shed-policy", "drop-oldest",
            "--scorecard-out", str(card_path),
        ])
        assert code == 0
        card = json.loads(card_path.read_text())
        assert card["jobs"]["shed"] > 0
        assert card["latency_s"]["p99"] < 8.0


class TestTopOnServeSeries:
    def test_top_renders_the_serve_frame(self, tmp_path, capsys):
        series_path = tmp_path / "series.jsonl"
        assert main([
            "serve", "--rate", "2", "--duration", "8", "--seed", "3",
            "--scorecard-out", "-", "--series-out", str(series_path),
        ]) == 0
        capsys.readouterr()
        assert main(["top", "--once", "--series", str(series_path)]) == 0
        out = capsys.readouterr().out
        assert "A.gpu0" in out
        assert "jobs in flight" in out
        assert "jobs/s" in out
        assert "tenant-fairness" in out


class TestServeChaosCommand:
    def test_quick_campaign_exits_zero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        out_path = tmp_path / "serve_chaos.json"
        code = main([
            "chaos", "--serve", "--quick", "--runs", "2", "--seed", "0",
            "--out", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Serve chaos campaign" in out
        card = json.loads(out_path.read_text())
        assert card["all_invariants_ok"]
        assert card["total_runs"] == 2
        assert set(card["config"]["policies"]) == {"plb-hec", "greedy"}

    def test_writes_only_its_scorecard_and_dashboard(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_HISTORY", "1")
        code = main([
            "chaos", "--serve", "--quick", "--runs", "2", "--seed", "0",
            "--dashboard", "x.html",
        ])
        assert code == 0
        written = sorted(p.name for p in tmp_path.rglob("*"))
        assert written == ["chaos_scorecard.json", "x.html"]
        card = json.loads((tmp_path / "chaos_scorecard.json").read_text())
        assert card["survived_runs"] == 2
        html = (tmp_path / "x.html").read_text()
        assert "<h2>Resilience</h2>" in html
