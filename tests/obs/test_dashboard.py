"""Tests for repro.obs.dashboard (the self-contained HTML dashboard)."""

import re

import pytest

from repro.experiments.runner import PolicyOutcome, SweepPoint
from repro.obs.dashboard import (
    DashboardData,
    collect_dashboard_data,
    render_dashboard,
    write_dashboard,
)
from repro.obs.regress import Anomaly
from repro.sim.trace import ExecutionTrace, TaskRecord
from repro.solver.diagnostics import ConvergenceReport

SECTIONS = (
    "Policy comparison",
    "Solver convergence",
    "Execution timeline",
    "Critical path",
    "CPU profile",
    "Anomalies",
)


def make_point():
    outcomes = {}
    for name, base in (("plb-hec", 1.0), ("greedy", 1.4), ("static", 1.2)):
        outcomes[name] = PolicyOutcome(
            policy=name,
            makespans=[base, base * 1.02],
            idle_fractions=[{"A.cpu": 0.05, "A.gpu0": 0.10}] * 2,
            distributions=[{}] * 2,
            overheads=[0.01] * 2,
            rebalances=[2, 2],
        )
    return SweepPoint(
        app_name="matmul", size=4096, num_machines=1, outcomes=outcomes
    )


def make_trace():
    tr = ExecutionTrace(["A.cpu", "A.gpu0"])
    tr.add_record(
        TaskRecord(
            worker_id="A.cpu", units=8, dispatch_time=0.0, transfer_time=0.0,
            exec_time=0.4, start_time=0.0, end_time=0.4, phase="probe",
        )
    )
    tr.add_record(
        TaskRecord(
            worker_id="A.gpu0", units=100, dispatch_time=0.4, transfer_time=0.0,
            exec_time=0.6, start_time=0.4, end_time=1.0, phase="exec",
        )
    )
    tr.record_rebalance(0.5)
    tr.finalize(1.0)
    return tr


def make_data(**overrides):
    data = DashboardData(
        config={"app": "matmul", "size": 4096, "machines": 1,
                "seed": 0, "noise": 0.005, "replications": 2},
        generated_at="2026-01-01 00:00:00",
        host={"platform": "test-os", "python": "3.12.0", "cpu_count": 8},
        git_rev="abc1234",
        point=make_point(),
        trace=make_trace(),
        convergence=ConvergenceReport(
            iterations=12, converged=True, final_kkt_error=3e-9,
            final_mu=1e-9, feasibility_improved=True, barrier_decreased=True,
            mean_step_length=0.85, restorations_suspected=False,
        ),
        convergence_history=[
            {"iter": i, "kkt_error": 10.0 ** -i} for i in range(6)
        ],
        anomalies=[],
    )
    for key, value in overrides.items():
        setattr(data, key, value)
    return data


class TestRenderDashboard:
    def test_all_sections_present(self):
        html = render_dashboard(make_data())
        for section in SECTIONS:
            assert section in html

    def test_single_self_contained_document(self):
        html = render_dashboard(make_data())
        assert html.startswith("<!DOCTYPE html>")
        # No external requests of any kind: no scripts, stylesheets,
        # images, fonts or CSS url() loads.
        assert "<script" not in html
        assert "<link" not in html
        assert "<img" not in html
        assert "url(" not in html
        assert "@import" not in html
        # The only protocol occurrences are SVG xmlns identifiers.
        for m in re.finditer(r"https?://", html):
            context = html[max(0, m.start() - 30):m.start()]
            assert "xmlns" in context

    def test_policy_bars_with_value_labels_and_tooltips(self):
        html = render_dashboard(make_data())
        assert html.count("<svg") >= 4
        assert "plb-hec" in html and "greedy" in html
        assert 'class="value-label"' in html
        assert "<title>" in html

    def test_speedup_hero(self):
        html = render_dashboard(make_data())
        assert "1.40" in html and "speedup" in html

    def test_dark_mode_palette_selected(self):
        html = render_dashboard(make_data())
        assert "prefers-color-scheme: dark" in html
        assert "#2a78d6" in html  # light series-1
        assert "#3987e5" in html  # dark series-1 step

    def test_convergence_tiles(self):
        html = render_dashboard(make_data())
        assert "interior-point iteration" in html
        assert "3.00e-09" in html

    def test_gantt_embedded(self):
        html = render_dashboard(make_data())
        assert "A.gpu0" in html
        assert "rebalance at" in html

    def test_anomaly_findings_rendered_with_badge(self):
        anomaly = Anomaly(
            name="load-imbalance", severity="critical",
            message="idle spread 40%", value=0.4, threshold=0.25,
        )
        html = render_dashboard(make_data(anomalies=[anomaly]))
        assert "load-imbalance" in html
        assert 'badge critical' in html

    def test_no_anomalies_all_clear(self):
        html = render_dashboard(make_data(anomalies=[]))
        assert "no anomalies detected" in html

    def test_missing_pieces_degrade_to_placeholders(self):
        html = render_dashboard(
            make_data(point=None, trace=None, convergence=None)
        )
        for section in SECTIONS:
            assert section in html
        assert "no sweep data" in html
        assert "no trace" in html
        assert "no recorded solve" in html

    def test_legend_present_for_multi_series(self):
        html = render_dashboard(make_data())
        assert 'class="legend"' in html

    def test_table_views_present(self):
        # Relief rule for sub-contrast light-mode slots: the numbers are
        # always available as text.
        html = render_dashboard(make_data())
        assert "table view" in html
        assert "<table>" in html


class TestWriteDashboard:
    def test_writes_single_file(self, tmp_path):
        target = tmp_path / "dash.html"
        path = write_dashboard(target, make_data())
        assert path == target
        assert target.read_text().startswith("<!DOCTYPE html>")
        assert list(tmp_path.iterdir()) == [target]  # no sidecar files


class TestCollectDashboardData:
    def test_collects_every_section_input(self):
        data = collect_dashboard_data(
            app="matmul", size=2048, machines=1, replications=1, jobs=1,
        )
        assert data.point is not None and "plb-hec" in data.point.outcomes
        assert data.trace is not None and data.trace.makespan > 0
        assert data.critpath and data.critpath["path"]
        assert data.convergence is not None and data.convergence.iterations > 0
        assert data.convergence_history
        assert data.config["size"] == 2048
        html = render_dashboard(data)
        for section in SECTIONS:
            assert section in html


def make_profile_snapshot():
    from repro.obs.profiler import profile_phase, profiling

    def burn(n=500):
        acc = 0
        for i in range(n):
            acc += i * i
        return acc

    with profiling() as prof:
        with profile_phase("fit"):
            burn()
        with profile_phase("solve"):
            burn()
    return prof.snapshot()


class TestProfileSection:
    def test_empty_profile_placeholder(self):
        html = render_dashboard(make_data())
        assert "CPU profile" in html
        assert "no profile captured" in html

    def test_profile_tiles_and_table(self):
        html = render_dashboard(make_data(profile=make_profile_snapshot()))
        assert "no profile captured" not in html
        assert "fit" in html and "solve" in html
        assert "ms self" in html  # per-phase tiles
        assert "burn" in html  # hot-function table row

    def test_flamegraph_embedded_and_self_contained(self):
        html = render_dashboard(make_data(profile=make_profile_snapshot()))
        assert "repro-flame" in html
        assert "host CPU time by phase and call stack" in html
        # The embedded SVG must not break the document's bans.
        assert "<script" not in html
        assert "<img" not in html
        assert "url(" not in html

    def test_collect_populates_profile(self):
        data = collect_dashboard_data(
            app="matmul", size=2048, machines=1, replications=1, jobs=1,
        )
        assert data.profile.get("phases")
        from repro.obs.profiler import phase_breakdown

        breakdown = phase_breakdown(data.profile)
        assert sum(d["share"] for d in breakdown.values()) == pytest.approx(1.0)
        html = render_dashboard(data)
        assert "no profile captured" not in html


def make_ledger_dict():
    from repro.obs.ledger import DecisionLedger

    ledger = DecisionLedger("run-dash")
    ledger.open_decision(
        trigger="probe-round", t=0.0, phase="modeling",
        allocation={"A.cpu": 8, "A.gpu0": 8},
        solver={"method": "probe"},
    )
    did = ledger.open_decision(
        trigger="selection", t=0.5, phase="execution",
        allocation={"A.cpu": 10, "A.gpu0": 90},
        predicted={"A.cpu": 1.0, "A.gpu0": 1.0},
        predicted_time=1.0,
        solver={"method": "ipm", "iterations": 11, "kkt_error": 2e-10},
    )
    fb = ledger.open_decision(
        trigger="rebalance", t=1.5, phase="execution",
        allocation={"A.cpu": 12, "A.gpu0": 88},
        predicted={"A.cpu": 1.1, "A.gpu0": 0.9},
        predicted_time=1.1,
        solver={
            "method": "fallback-last-good", "fallback_stage": "last-good",
            "converged": False, "iterations": 0,
        },
    )
    for decision in (did, fb):
        ledger.attribute(
            decision, "A.cpu", units=10, predicted_s=1.0, observed_s=1.1
        )
        ledger.attribute(
            decision, "A.gpu0", units=90, predicted_s=1.0, observed_s=0.8
        )
    return ledger.to_dict()


class TestDecisionsSection:
    def test_section_title_present(self):
        html = render_dashboard(make_data(ledger=make_ledger_dict()))
        assert "Scheduler decisions" in html

    def test_empty_ledger_placeholder(self):
        html = render_dashboard(make_data())
        assert "Scheduler decisions" in html
        assert "no decision ledger" in html

    def test_tiles_report_coverage_and_fallbacks(self):
        html = render_dashboard(make_data(ledger=make_ledger_dict()))
        assert "blocks attributed" in html
        assert "100%" in html  # 4/4 blocks attributed
        assert "fallback decisions" in html
        assert "last-good" in html

    def test_decision_table_with_fallback_badge(self):
        html = render_dashboard(make_data(ledger=make_ledger_dict()))
        assert "d0001" in html and "d0002" in html
        assert re.search(r'class="badge warning">\s*fallback: last-good', html)

    def test_calibration_scatter_and_drift_sparkline(self):
        html = render_dashboard(make_data(ledger=make_ledger_dict()))
        assert "perfect prediction" in html  # the y=x diagonal
        assert "scored block (completion order)" in html

    def test_calibration_table_per_device(self):
        html = render_dashboard(make_data(ledger=make_ledger_dict()))
        assert "Prediction calibration" in html
        assert "A.cpu" in html and "A.gpu0" in html

    def test_still_self_contained(self):
        html = render_dashboard(make_data(ledger=make_ledger_dict()))
        assert "<script" not in html and "<img" not in html
        # the only protocol occurrences are SVG xmlns identifiers
        for m in re.finditer(r"https?://", html):
            assert "xmlns" in html[max(0, m.start() - 30):m.start()]


class TestCritpathSection:
    def analyzed(self):
        from repro.obs.critpath import analyze_trace

        return make_data(critpath=analyze_trace(make_trace()))

    def test_empty_state_points_at_repro_why(self):
        html = render_dashboard(make_data())
        assert "Critical path" in html
        assert "repro why" in html

    def test_attribution_bars_and_headroom_tiles(self):
        html = render_dashboard(self.analyzed())
        assert "Critical path" in html
        assert "compute" in html
        assert "makespan" in html
        assert "zero transfer" in html
        assert "zero scheduler" in html
        assert "perfect balance" in html

    def test_bottleneck_device_starred(self):
        html = render_dashboard(self.analyzed())
        assert "★" in html  # the bottleneck row is starred
        assert "A.gpu0" in html

    def test_still_self_contained(self):
        html = render_dashboard(self.analyzed())
        for banned in ("<script", "<link", "<img", "url(", "@import"):
            assert banned not in html


class TestResilienceAttributionColumns:
    def scorecard(self):
        return {
            "total_runs": 2,
            "survived_runs": 2,
            "total_violations": 0,
            "all_invariants_ok": True,
            "policies": {
                "plb-hec": {
                    "runs": 2, "survived": 2, "survival_rate": 1.0,
                    "mean_degradation": 1.1, "max_degradation": 1.2,
                    "mean_recovery_lag": 0.01, "violations": 0,
                    "mean_attribution": {
                        "compute": 0.7, "transfer": 0.05, "idle": 0.1,
                        "solver": 0.05, "retries": 0.0,
                        "fault_recovery": 0.06, "rework": 0.04,
                    },
                },
                "greedy": {
                    "runs": 2, "survived": 2, "survival_rate": 1.0,
                    "mean_degradation": 1.3, "max_degradation": 1.5,
                    "mean_recovery_lag": None, "violations": 0,
                    "mean_attribution": {},
                },
            },
        }

    def test_attribution_columns_rendered(self):
        html = render_dashboard(make_data(resilience=self.scorecard()))
        assert "fault recovery" in html
        assert "rework" in html
        assert "6.0%" in html  # plb-hec fault_recovery share
        assert "4.0%" in html  # plb-hec rework share

    def test_missing_attribution_degrades_to_dash(self):
        html = render_dashboard(make_data(resilience=self.scorecard()))
        assert "&#8212;" in html or "—" in html  # greedy has no shares
