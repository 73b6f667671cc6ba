"""Tests for repro.obs.regress (the built-in anomaly detectors)."""

import logging

import pytest

from repro.obs.regress import (
    Anomaly,
    detect_anomalies,
    detect_report_anomalies,
)


class TestAnomalyDetectors:
    def test_all_clear(self):
        findings = detect_anomalies(
            phase_summary={"probe": {"unit_share": 0.05}},
            metrics={"gauges": {"plbhec.r2{device=a}": 0.95}},
            idle_fractions={"a": 0.05, "b": 0.07},
            emit=False,
        )
        assert findings == []

    def test_probe_share(self):
        findings = detect_anomalies(
            phase_summary={"probe": {"unit_share": 0.35}}, emit=False
        )
        assert [f.name for f in findings] == ["probe-share"]
        assert findings[0].severity == "warning"

    def test_low_r2(self):
        findings = detect_anomalies(
            metrics={
                "gauges": {
                    "plbhec.r2{device=a}": 0.4,
                    "plbhec.r2{device=b}": 0.95,
                }
            },
            emit=False,
        )
        assert [f.name for f in findings] == ["low-r2"]
        assert findings[0].context["devices"] == {"a": 0.4}

    def test_load_imbalance_is_critical(self):
        findings = detect_anomalies(
            idle_fractions={"a": 0.05, "b": 0.60}, emit=False
        )
        assert [f.name for f in findings] == ["load-imbalance"]
        assert findings[0].severity == "critical"

    def test_ipm_restoration_rate(self):
        findings = detect_anomalies(
            metrics={"counters": {"ipm.solves": 2.0, "ipm.restorations": 5.0}},
            emit=False,
        )
        assert [f.name for f in findings] == ["ipm-restorations"]

    def test_emits_structured_warnings(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.obs.regress"):
            detect_anomalies(idle_fractions={"a": 0.0, "b": 0.9})
        assert any("anomaly.load-imbalance" in r.getMessage() for r in caplog.records)

    def test_report_wrapper(self):
        findings = detect_report_anomalies(
            {"phase_summary": {"probe": {"unit_share": 0.5}}, "metrics": {}},
            emit=False,
        )
        assert findings and isinstance(findings[0], Anomaly)


class TestCalibrationAnomalies:
    def test_bias_beyond_threshold_flagged(self):
        findings = detect_anomalies(
            metrics={
                "gauges": {
                    "plbhec.calibration.bias{device=a}": 0.30,
                    "plbhec.calibration.bias{device=b}": -0.02,
                }
            },
            emit=False,
        )
        assert [f.name for f in findings] == ["calibration-bias"]
        assert findings[0].severity == "warning"
        assert findings[0].context["devices"] == {"a": 0.30}
        assert "over-predict" in findings[0].message

    def test_negative_bias_magnitude_counts(self):
        findings = detect_anomalies(
            metrics={"gauges": {"plbhec.calibration.bias{device=a}": -0.40}},
            emit=False,
        )
        assert [f.name for f in findings] == ["calibration-bias"]
        assert "under-predict" in findings[0].message

    def test_mape_beyond_threshold_flagged(self):
        findings = detect_anomalies(
            metrics={"gauges": {"plbhec.calibration.mape{device=a}": 0.50}},
            emit=False,
        )
        assert [f.name for f in findings] == ["calibration-mape"]
        assert findings[0].context["devices"] == {"a": 0.50}

    def test_calibrated_run_is_clear(self):
        findings = detect_anomalies(
            metrics={
                "gauges": {
                    "plbhec.calibration.bias{device=a}": 0.05,
                    "plbhec.calibration.mape{device=a}": 0.10,
                }
            },
            emit=False,
        )
        assert findings == []

    def test_thresholds_adjustable(self):
        findings = detect_anomalies(
            metrics={"gauges": {"plbhec.calibration.mape{device=a}": 0.10}},
            calibration_mape_threshold=0.05,
            emit=False,
        )
        assert [f.name for f in findings] == ["calibration-mape"]

    def test_defaults_are_the_issue_thresholds(self):
        from repro.obs.regress import (
            CALIBRATION_BIAS_THRESHOLD,
            CALIBRATION_MAPE_THRESHOLD,
        )

        assert CALIBRATION_BIAS_THRESHOLD == 0.15
        assert CALIBRATION_MAPE_THRESHOLD == 0.25


def critpath_analysis(makespan=10.0, **share_overrides):
    shares = {
        "compute": 0.85, "transfer": 0.05, "idle": 0.05, "solver": 0.05,
        "retries": 0.0, "fault_recovery": 0.0, "rework": 0.0,
    }
    shares.update(share_overrides)
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    return {
        "makespan": makespan,
        "categories": {k: v * makespan for k, v in shares.items()},
    }


class TestCritpathAnomalies:
    def test_healthy_attribution_is_clear(self):
        from repro.obs.regress import detect_critpath_anomalies

        assert detect_critpath_anomalies(critpath_analysis(), emit=False) == []

    def test_idle_share_flagged(self):
        from repro.obs.regress import detect_critpath_anomalies

        findings = detect_critpath_anomalies(
            critpath_analysis(idle=0.30, compute=0.60), emit=False
        )
        assert [f.name for f in findings] == ["critpath.idle-share"]
        assert findings[0].severity == "warning"
        assert findings[0].value == pytest.approx(0.30)
        assert findings[0].context["categories"]["idle"] == pytest.approx(0.30)

    def test_solver_share_flagged(self):
        from repro.obs.regress import detect_critpath_anomalies

        findings = detect_critpath_anomalies(
            critpath_analysis(solver=0.30, compute=0.60), emit=False
        )
        assert [f.name for f in findings] == ["critpath.solver-share"]

    def test_thresholds_configurable(self):
        from repro.obs.regress import detect_critpath_anomalies

        findings = detect_critpath_anomalies(
            critpath_analysis(idle=0.30, compute=0.60),
            idle_share_threshold=0.50, emit=False,
        )
        assert findings == []

    def test_zero_makespan_is_neutral(self):
        from repro.obs.regress import detect_critpath_anomalies

        assert detect_critpath_anomalies({"makespan": 0.0}, emit=False) == []

    def test_drift_vs_baseline_median(self):
        from repro.obs.regress import detect_critpath_anomalies

        baseline = [
            {"compute": 0.90, "transfer": 0.05, "idle": 0.02, "solver": 0.03},
            {"compute": 0.88, "transfer": 0.06, "idle": 0.03, "solver": 0.03},
        ]
        findings = detect_critpath_anomalies(
            critpath_analysis(compute=0.75, transfer=0.15),
            baseline_shares=baseline, emit=False,
        )
        drifted = {f.context["category"] for f in findings
                   if f.name == "critpath.drift"}
        assert "compute" in drifted and "transfer" in drifted
        assert "solver" not in drifted

    def test_below_min_samples_no_drift(self):
        from repro.obs.regress import detect_critpath_anomalies

        findings = detect_critpath_anomalies(
            critpath_analysis(compute=0.60, idle=0.05, transfer=0.30),
            baseline_shares=[{"compute": 0.90}], emit=False,
        )
        assert not [f for f in findings if f.name == "critpath.drift"]

    def test_emits_structured_warnings(self, caplog):
        from repro.obs.regress import detect_critpath_anomalies

        with caplog.at_level(logging.WARNING, logger="repro.obs.regress"):
            detect_critpath_anomalies(
                critpath_analysis(idle=0.30, compute=0.60)
            )
        assert any("anomaly.critpath.idle-share" in r.getMessage()
                   for r in caplog.records)
