"""Tests for repro.obs.slo (spec parsing, evaluation, alerts)."""

import json
import logging

import pytest

from repro.errors import ConfigurationError
from repro.obs.regress import detect_slo_anomalies
from repro.obs.slo import (
    DEFAULT_SLO_SPEC,
    SLO_REPORT_SCHEMA,
    SLOObjective,
    SLOSpec,
    emit_slo_alerts,
    evaluate_slo,
    load_slo_spec,
    parse_objective,
    slo_alerts,
    spec_from_dict,
    validate_slo_report,
    write_slo_report,
)
from repro.obs.timeseries import TimeSeriesStore


class _Capture(logging.Handler):
    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture
def capture():
    handler = _Capture()
    root = logging.getLogger("repro")
    root.addHandler(handler)
    root.setLevel(logging.DEBUG)
    yield handler
    root.removeHandler(handler)
    root.setLevel(logging.NOTSET)


def _store(**series):
    """Build a store from name -> list-of-values (t = index)."""
    store = TimeSeriesStore()
    for name, values in series.items():
        for i, v in enumerate(values):
            store.record(name, float(i), float(v))
    return store


class TestParseObjective:
    def test_aggregate_form(self):
        obj = parse_objective("idle", "p95(device_idle_frac) < 0.2")
        assert obj.series == "device_idle_frac"
        assert obj.agg == "p95"
        assert obj.op == "<"
        assert obj.threshold == 0.2

    def test_bare_name_picks_strictest_aggregate(self):
        assert parse_objective("f", "fairness > 0.9").agg == "min"
        assert parse_objective("i", "imbalance <= 3").agg == "max"

    def test_scientific_and_negative_thresholds(self):
        assert parse_objective("x", "mean(x) >= 1e-3").threshold == 1e-3
        assert parse_objective("x", "min(x) > -2.5").threshold == -2.5

    def test_bad_expressions_rejected(self):
        for expr in (
            "p95(x)",  # no comparison
            "stddev(x) < 1",  # unknown aggregate
            "x == 1",  # unsupported operator
            "p95(x) < banana",
            "",
        ):
            with pytest.raises(ConfigurationError):
                parse_objective("bad", expr)

    def test_budget_and_severity_validation(self):
        with pytest.raises(ConfigurationError):
            parse_objective("b", "mean(x) < 1", budget=1.0)
        with pytest.raises(ConfigurationError):
            parse_objective("b", "mean(x) < 1", severity="info")
        with pytest.raises(ConfigurationError):
            parse_objective("b", "mean(x) < 1", window=0.0)

    def test_holds_respects_operator(self):
        obj = parse_objective("x", "last(x) <= 5")
        assert obj.holds(5.0) and not obj.holds(5.1)


class TestSpec:
    def test_spec_needs_objectives_and_unique_names(self):
        with pytest.raises(ConfigurationError):
            SLOSpec(name="empty", objectives=())
        obj = parse_objective("dup", "mean(x) < 1")
        with pytest.raises(ConfigurationError):
            SLOSpec(name="dups", objectives=(obj, obj))

    def test_spec_from_dict(self):
        spec = spec_from_dict(
            {
                "name": "ci",
                "description": "gate",
                "objectives": [
                    {"name": "idle", "expr": "p95(device_idle_frac) < 0.5"},
                    {"expr": "fairness > 0.8", "budget": 0.1,
                     "severity": "warning"},
                ],
            }
        )
        assert spec.name == "ci"
        assert [o.name for o in spec.objectives] == ["idle", "objective-1"]
        assert spec.objectives[1].budget == 0.1
        assert spec.objectives[1].severity == "warning"

    def test_spec_from_dict_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            spec_from_dict([])
        with pytest.raises(ConfigurationError):
            spec_from_dict({"objectives": []})
        with pytest.raises(ConfigurationError):
            spec_from_dict({"objectives": [{"name": "no-expr"}]})

    def test_load_slo_spec_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {"name": "file", "objectives": [{"name": "g",
                 "expr": "max(goodput_units_per_s) > 0"}]}
            )
        )
        spec = load_slo_spec(path)
        assert spec.name == "file"
        assert spec.objectives[0].series == "goodput_units_per_s"

    def test_load_slo_spec_bad_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_slo_spec(path)

    def test_default_spec_is_valid(self):
        assert isinstance(DEFAULT_SLO_SPEC, SLOSpec)
        assert {o.name for o in DEFAULT_SLO_SPEC.objectives} == {
            "device-idle", "fairness", "completion", "goodput",
        }


class TestEvaluate:
    def test_aggregate_pass_and_fail(self):
        store = _store(fairness=[0.9, 0.95, 1.0])
        spec = SLOSpec(
            name="t",
            objectives=(
                parse_objective("ok", "mean(fairness) > 0.9"),
                parse_objective("bad", "min(fairness) > 0.92"),
            ),
        )
        report = evaluate_slo(spec, store, run_id="run-1")
        assert report["schema"] == SLO_REPORT_SCHEMA
        assert report["run_id"] == "run-1"
        by_name = {r["name"]: r for r in report["objectives"]}
        assert by_name["ok"]["verdict"] == "pass"
        assert by_name["bad"]["verdict"] == "fail"
        assert by_name["bad"]["first_violation_t"] == 0.0
        assert report["ok"] is False and report["violations"] == 1

    def test_mean_adds_left_to_right(self):
        # 1e16 / 3 on every Python; 3.12's compensated sum() would give
        # 1.0000000000000002e16 / 3
        spec = SLOSpec(
            name="t", objectives=(parse_objective("m", "mean(x) > 0"),)
        )
        (row,) = evaluate_slo(spec, _store(x=[1e16, 1.0, 1.0]))["objectives"]
        assert row["measured"] == 1e16 / 3

    def test_missing_series_is_no_data_not_fail(self):
        spec = SLOSpec(
            name="t", objectives=(parse_objective("m", "mean(absent) < 1"),)
        )
        report = evaluate_slo(spec, _store(fairness=[1.0]))
        (row,) = report["objectives"]
        assert row["verdict"] == "no-data"
        assert row["measured"] is None
        assert report["ok"] is True  # surfaced, not failed
        assert report["no_data"] == 1

    def test_error_budget_tolerates_fraction(self):
        # 2 of 10 samples violate `< 5`; a 30% budget absorbs that,
        # a 10% budget does not.
        values = [1, 1, 9, 1, 1, 1, 9, 1, 1, 1]
        loose = SLOSpec(
            name="t",
            objectives=(parse_objective("b", "mean(x) < 5", budget=0.3),),
        )
        tight = SLOSpec(
            name="t",
            objectives=(parse_objective("b", "mean(x) < 5", budget=0.1),),
        )
        assert evaluate_slo(loose, _store(x=values))["ok"] is True
        report = evaluate_slo(tight, _store(x=values))
        (row,) = report["objectives"]
        assert row["verdict"] == "fail"
        assert row["violating_samples"] == 2
        assert row["violating_fraction"] == pytest.approx(0.2)
        assert row["burn_rate"] is not None

    def test_burn_rate_reflects_trailing_window(self):
        # all violations land in the trailing half: the window burn
        # rate must exceed the whole-run violating fraction / budget
        values = [1] * 10 + [9] * 10
        spec = SLOSpec(
            name="t",
            objectives=(
                parse_objective("b", "mean(x) < 5", budget=0.25, window=5.0),
            ),
        )
        (row,) = evaluate_slo(spec, _store(x=values))["objectives"]
        assert row["verdict"] == "fail"
        assert row["window_violating_fraction"] == 1.0
        assert row["burn_rate"] == pytest.approx(4.0)  # 100% / 25%

    def test_labelled_series_merge_across_devices(self):
        store = TimeSeriesStore()
        store.record("device_util", 0.0, 0.2, device="a")
        store.record("device_util", 0.0, 0.8, device="b")
        spec = SLOSpec(
            name="t",
            objectives=(parse_objective("u", "mean(device_util) >= 0.5"),),
        )
        (row,) = evaluate_slo(spec, store)["objectives"]
        assert row["samples"] == 2
        assert row["measured"] == pytest.approx(0.5)
        assert row["verdict"] == "pass"

    def test_report_validates(self):
        report = evaluate_slo(DEFAULT_SLO_SPEC, _store(fairness=[0.9]))
        assert validate_slo_report(report) == []
        json.dumps(report)  # JSON-compatible


class TestReportFile:
    def test_write_slo_report_round_trip(self, tmp_path):
        report = evaluate_slo(DEFAULT_SLO_SPEC, _store(fairness=[0.9]))
        path = write_slo_report(tmp_path / "slo_report.json", report)
        assert json.loads(path.read_text()) == report

    def test_write_rejects_invalid_report(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_slo_report(tmp_path / "r.json", {"schema": 99})

    def test_validator_catches_inconsistencies(self):
        report = evaluate_slo(
            SLOSpec(
                name="t",
                objectives=(parse_objective("f", "min(fairness) > 2"),),
            ),
            _store(fairness=[1.0]),
        )
        assert validate_slo_report(report) == []
        report["ok"] = True  # contradicts the failing row
        assert any("'ok' is true" in p for p in validate_slo_report(report))
        report["violations"] = 5
        assert any("violations" in p for p in validate_slo_report(report))


class TestAlerts:
    def _failing_report(self):
        spec = SLOSpec(
            name="t",
            objectives=(
                parse_objective("f", "min(fairness) > 0.99",
                                severity="warning"),
                parse_objective("ok", "max(fairness) > 0"),
            ),
        )
        return evaluate_slo(spec, _store(fairness=[0.5, 1.0]))

    def test_slo_alerts_only_failures(self):
        (alert,) = slo_alerts(self._failing_report())
        assert alert["name"] == "slo:f"
        assert alert["severity"] == "warning"
        assert alert["t"] == 0.0  # first violating sample
        assert "violated" in alert["message"]

    def test_emit_slo_alerts_logs_instants(self, capture):
        alerts = emit_slo_alerts(self._failing_report())
        assert len(alerts) == 1
        payloads = [r.repro_event for r in capture.records]
        (event,) = [p for p in payloads if p["name"] == "alert.slo.f"]
        assert event["severity"] == "warning"
        assert event["virtual_t"] == 0.0

    def test_passing_report_emits_nothing(self, capture):
        report = evaluate_slo(
            SLOSpec(
                name="t",
                objectives=(parse_objective("ok", "max(fairness) > 0"),),
            ),
            _store(fairness=[1.0]),
        )
        assert emit_slo_alerts(report) == []
        assert not any(
            r.repro_event["name"].startswith("alert.slo")
            for r in capture.records
        )


class TestDetectSloAnomalies:
    def test_fail_rows_become_findings(self, capture):
        spec = SLOSpec(
            name="t",
            objectives=(
                parse_objective("f", "min(fairness) > 0.99"),
                parse_objective("b", "mean(x) < 5", budget=0.05,
                                severity="warning"),
            ),
        )
        report = evaluate_slo(spec, _store(fairness=[0.5], x=[9, 9]))
        findings = detect_slo_anomalies(report)
        assert {a.name for a in findings} == {"slo.f", "slo.b"}
        by_name = {a.name: a for a in findings}
        assert by_name["slo.f"].severity == "critical"
        assert by_name["slo.b"].severity == "warning"
        assert "error budget" in by_name["slo.b"].message
        emitted = [
            r.repro_event["name"]
            for r in capture.records
            if r.repro_event["name"].startswith("anomaly.slo.")
        ]
        assert sorted(emitted) == ["anomaly.slo.b", "anomaly.slo.f"]

    def test_no_data_rows_skipped_and_emit_false_silent(self, capture):
        spec = SLOSpec(
            name="t", objectives=(parse_objective("m", "mean(absent) < 1"),)
        )
        report = evaluate_slo(spec, _store(fairness=[1.0]))
        assert detect_slo_anomalies(report, emit=False) == []
        assert not capture.records
