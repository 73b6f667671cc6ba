"""Tests for repro.obs.ledger (decision records, attribution, explain)."""

import json
import math

import pytest

from repro.apps import MatMul
from repro.errors import ConfigurationError, SolverError
from repro.obs.ledger import (
    EXPLAIN_SCHEMA,
    DecisionLedger,
    DecisionRecord,
    decision_rows,
    json_safe,
    ledger_summary,
    read_explain,
    validate_explain,
    write_explain,
)
from repro import PLBHeC, Runtime


def run_plbhec(cluster, *, seed=17, n=2048, **policy_kwargs):
    app = MatMul(n=n)
    rt = Runtime(cluster, app.codelet(), seed=seed, noise_sigma=0.02)
    return rt.run(
        PLBHeC(fixed_overhead_s=0.01, **policy_kwargs),
        app.total_units,
        app.default_initial_block_size(),
    )


class TestDecisionRecord:
    def test_unknown_trigger_rejected(self):
        with pytest.raises(ConfigurationError):
            DecisionRecord(
                decision_id="d0000", trigger="vibes", t=0.0, phase="modeling"
            )


class TestJsonSafe:
    def test_non_finite_floats_become_none(self):
        cleaned = json_safe(
            {"a": float("nan"), "b": [1.0, float("inf")], "c": {"d": -math.inf}}
        )
        assert cleaned == {"a": None, "b": [1.0, None], "c": {"d": None}}
        json.dumps(cleaned)  # strict-JSON serialisable

    def test_finite_values_untouched(self):
        assert json_safe({"x": 1.5, "y": "s", "z": 3}) == {
            "x": 1.5, "y": "s", "z": 3,
        }


class TestDecisionLedger:
    def test_decision_rows_mean_mape_adds_left_to_right(self):
    # 1e16 + 1 + 1 left to right is 1e16 on every Python; 3.12's
    # compensated sum() would give 1.0000000000000002e16
        observed = {d: {"blocks": 1, "mape": m} for d, m in zip("abc", (1e16, 1.0, 1.0))}
        decision = {"id": "d0000", "t": 0.0, "trigger": "selection",
                    "phase": "execution", "observed": observed}
        (row,) = decision_rows({"decisions": [decision]})
        assert row["mape"] == 1e16 / 3
        assert row["blocks"] == 3

    def test_ids_are_sequential(self):
        ledger = DecisionLedger("run-x")
        ids = [
            ledger.open_decision(trigger="probe-round", t=0.0, phase="modeling")
            for _ in range(3)
        ]
        assert ids == ["d0000", "d0001", "d0002"]
        assert ledger.current_id == "d0002"

    def test_attribution_routes_to_decision_and_device(self):
        ledger = DecisionLedger("run-x")
        did = ledger.open_decision(
            trigger="selection",
            t=1.0,
            phase="execution",
            allocation={"gpu": 8},
            predicted={"gpu": 1.0},
        )
        ledger.attribute(did, "gpu", units=8, predicted_s=1.2, observed_s=1.0)
        ledger.attribute(did, "gpu", units=8, predicted_s=0.8, observed_s=1.0)
        observed = ledger.observed_for(did)["gpu"]
        assert observed["blocks"] == 2
        assert observed["units"] == 16
        assert observed["mape"] == pytest.approx(0.2)
        assert observed["bias"] == pytest.approx(0.0)
        cal = ledger.device_calibration("gpu")
        assert cal.count == 2
        assert ledger.attributed_blocks == 2

    def test_unknown_decision_counts_unattributed(self):
        ledger = DecisionLedger("run-x")
        ledger.attribute(None, "gpu", units=1, predicted_s=1.0, observed_s=1.0)
        ledger.attribute("d9999", "gpu", units=1, predicted_s=1.0, observed_s=1.0)
        assert ledger.unattributed_blocks == 2
        assert ledger.attributed_blocks == 0

    def test_missing_prediction_skipped_not_scored(self):
        ledger = DecisionLedger("run-x")
        did = ledger.open_decision(
            trigger="probe-round", t=0.0, phase="modeling"
        )
        ledger.attribute(did, "gpu", units=4, predicted_s=None, observed_s=0.5)
        observed = ledger.observed_for(did)["gpu"]
        assert observed["blocks"] == 1
        assert observed["mape"] is None  # counted, not scored
        assert ledger.device_calibration("gpu").skipped == 1

    def test_fallback_stages_and_trigger_counts(self):
        ledger = DecisionLedger("run-x")
        ledger.open_decision(trigger="probe-round", t=0.0, phase="modeling")
        ledger.open_decision(
            trigger="selection",
            t=1.0,
            phase="execution",
            solver={"method": "fallback-last-good", "fallback_stage": "last-good"},
        )
        assert ledger.fallback_stages() == ["last-good"]
        assert ledger.trigger_counts() == {"probe-round": 1, "selection": 1}

    def test_to_dict_is_strict_json(self):
        ledger = DecisionLedger("run-x")
        ledger.open_decision(
            trigger="selection",
            t=1.0,
            phase="execution",
            predicted_time=float("nan"),
            solver={"kkt_error": float("nan")},
        )
        data = ledger.to_dict()
        assert data["schema"] == EXPLAIN_SCHEMA
        assert data["decisions"][0]["predicted_time"] is None
        assert data["decisions"][0]["solver"]["kkt_error"] is None
        json.dumps(data, allow_nan=False)


class TestExplainArtifact:
    def make_ledger(self):
        ledger = DecisionLedger("run-artifact")
        did = ledger.open_decision(
            trigger="selection",
            t=0.5,
            phase="execution",
            allocation={"gpu": 8},
            predicted={"gpu": 1.0},
            predicted_time=1.0,
            solver={"method": "ipm", "iterations": 9, "kkt_error": 1e-9},
        )
        ledger.attribute(did, "gpu", units=8, predicted_s=1.1, observed_s=1.0)
        return ledger

    def test_write_read_round_trip(self, tmp_path):
        ledger = self.make_ledger()
        path = tmp_path / "explain.jsonl"
        lines = write_explain(ledger, str(path))
        # header + one decision + calibration
        assert lines == 3
        parsed = read_explain(str(path))
        assert parsed["header"]["decisions"] == 1
        assert parsed["header"]["attribution"]["attributed"] == 1
        assert parsed["decisions"][0]["id"] == "d0000"
        assert parsed["calibration"]["devices"]["gpu"]["mape"] == pytest.approx(
            0.1
        )

    def test_every_line_carries_run_id(self, tmp_path):
        path = tmp_path / "explain.jsonl"
        write_explain(self.make_ledger(), str(path))
        for line in path.read_text().splitlines():
            assert json.loads(line)["run_id"] == "run-artifact"

    @staticmethod
    def assert_rejected(objs, tmp_path):
        """The validator lists problems and the reader refuses the file."""
        assert validate_explain(objs)
        path = tmp_path / "explain.jsonl"
        path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
        with pytest.raises(ConfigurationError):
            read_explain(str(path))

    def test_validate_rejects_missing_header(self, tmp_path):
        self.assert_rejected([{"type": "decision"}], tmp_path)

    def test_validate_rejects_wrong_schema(self, tmp_path):
        self.assert_rejected([{"type": "header", "schema": 99}], tmp_path)

    def test_validate_rejects_count_mismatch(self, tmp_path):
        objs = [
            {"type": "header", "schema": EXPLAIN_SCHEMA, "decisions": 2},
            {"type": "calibration", "devices": {}},
        ]
        self.assert_rejected(objs, tmp_path)

    def test_validate_rejects_missing_calibration(self, tmp_path):
        self.assert_rejected(
            [{"type": "header", "schema": EXPLAIN_SCHEMA, "decisions": 0}],
            tmp_path,
        )

    def test_decision_rows_aggregate_blocks_and_mape(self):
        data = self.make_ledger().to_dict()
        rows = list(decision_rows(data))
        assert len(rows) == 1
        assert rows[0]["blocks"] == 1
        assert rows[0]["method"] == "ipm"
        assert rows[0]["fallback_stage"] is None
        assert rows[0]["mape"] == pytest.approx(0.1)


class TestPolicyLedger:
    def test_every_block_attributed(self, small_cluster):
        """100% attribution: every trace record maps to a decision."""
        result = run_plbhec(small_cluster)
        ledger = result.ledger
        assert ledger is not None
        total = len(result.trace.records)
        assert ledger.attributed_blocks == total
        assert ledger.unattributed_blocks == 0
        # the run reaches execution, so calibration has scored blocks
        cals = ledger.calibration()
        assert cals and any(c.count > 0 for c in cals.values())

    def test_trace_records_stamped_with_ledger_ids(self, small_cluster):
        result = run_plbhec(small_cluster)
        ids = {d.decision_id for d in result.ledger.decisions}
        for record in result.trace.records:
            assert record.decision in ids

    def test_ledger_deterministic_across_reruns(self, small_cluster):
        a = run_plbhec(small_cluster).ledger.to_dict()
        b = run_plbhec(small_cluster).ledger.to_dict()
        # the ambient run id is minted per run; everything else —
        # virtual times, solver numbers, residuals — must be identical
        a.pop("run_id"), b.pop("run_id")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_probe_and_selection_decisions_present(self, small_cluster):
        triggers = run_plbhec(small_cluster).ledger.trigger_counts()
        assert triggers.get("probe-round", 0) >= 2
        assert triggers.get("selection", 0) == 1

    def test_fallback_decision_has_finite_prediction(
        self, small_cluster, monkeypatch
    ):
        """A failed solve degrades to a fallback decision that still
        carries an analytic prediction (not NaN), so its blocks calibrate."""

        def boom(*args, **kwargs):
            raise SolverError("forced for test")

        monkeypatch.setattr(
            "repro.core.plb_hec.solve_block_partition", boom
        )
        result = run_plbhec(small_cluster)
        ledger = result.ledger
        stages = ledger.fallback_stages()
        assert stages, "forced solver failure must surface fallback decisions"
        fallback = [
            d for d in ledger.decisions if d.solver.get("fallback_stage")
        ]
        for d in fallback:
            assert math.isfinite(d.predicted_time)
            assert d.predicted, "fallback must predict per-device times"
        # with no solver-produced partition the chain lands on speed-ratio
        assert stages[0] == "speed-ratio"
        # fallback blocks score against the analytic prediction
        assert ledger.attributed_blocks == len(result.trace.records)
        assert any(c.count > 0 for c in ledger.calibration().values())

    @pytest.mark.parametrize("pin", [None, 0.01])
    def test_fallback_decision_records_its_charge(self, pin):
        """A failed solve was charged before the chain ran; its fallback
        decision records that charge, as a solved decision does."""
        from repro import paper_cluster

        class FailingSplit(PLBHeC):
            def _split(self, quantum):
                raise SolverError("forced for test")

        cluster = paper_cluster(2)
        app = MatMul(n=4096)
        result = Runtime(cluster, app.codelet(), seed=0).run(
            FailingSplit(fixed_overhead_s=pin),
            app.total_units,
            app.default_initial_block_size(),
        )
        n = len(cluster.devices())
        charge = pin if pin is not None else (
            PLBHeC.solve_s + PLBHeC.solve_s_per_device * n
        )
        fallback = [
            d for d in result.ledger.decisions
            if d.solver["method"].startswith("fallback-")
        ]
        assert fallback
        assert [d.solver["solve_time_s"] for d in fallback] == [charge] * len(
            fallback
        )

    def test_fault_and_recovery_open_decisions(self, small_cluster):
        from repro.runtime.faults import TransientFailure

        app = MatMul(n=4096)
        baseline = run_plbhec(small_cluster, seed=5, n=4096)
        t_down = baseline.makespan * 0.5
        rt = Runtime(
            small_cluster,
            app.codelet(),
            seed=5,
            noise_sigma=0.02,
            faults=(
                TransientFailure(
                    device_id="beta.gpu0",
                    time=t_down,
                    downtime=baseline.makespan * 0.2,
                ),
            ),
        )
        result = rt.run(
            PLBHeC(fixed_overhead_s=0.01),
            app.total_units,
            app.default_initial_block_size(),
        )
        triggers = result.ledger.trigger_counts()
        assert triggers.get("fault", 0) >= 1
        assert triggers.get("recovery", 0) >= 1


class TestLedgerSummary:
    """Sweep payloads cache :meth:`DecisionLedger.summary`; its readers
    must not tell it from the full :meth:`DecisionLedger.to_dict`."""

    @pytest.fixture
    def fallback_run(self, small_cluster, monkeypatch):
        """A live run whose failed solves fire fallback stages."""

        def boom(*args, **kwargs):
            raise SolverError("forced for test")

        monkeypatch.setattr("repro.core.plb_hec.solve_block_partition", boom)
        result = run_plbhec(small_cluster)
        assert result.ledger.fallback_stages()
        return result

    def test_summary_is_to_dict_without_records(self, fallback_run):
        ledger = fallback_run.ledger
        full = ledger.to_dict()
        summary = ledger.summary()
        assert "decisions" not in summary
        assert summary.pop("decision_count") == len(full.pop("decisions")) > 0
        # nor the per-block calibration series, which only the live
        # run's dashboard sparkline reads
        assert full["calibration"]
        for device, entry in full["calibration"].items():
            assert entry.pop("series") == ledger.device_calibration(device).series
            assert "series" not in summary["calibration"][device]
        assert summary == full
        json.dumps(summary, allow_nan=False)

    def test_headline_numbers_equal_for_both_forms(self, fallback_run):
        ledger = fallback_run.ledger
        assert ledger_summary(ledger.summary()) == ledger_summary(ledger.to_dict())
        assert ledger_summary({})["decisions"] == 0

    def test_chaos_row_equal_for_both_forms(self, fallback_run):
        from repro.resilience import ChaosConfig
        from repro.resilience.campaign import Slot

        ledger = fallback_run.ledger
        config = ChaosConfig(apps=("matmul",), sizes=(2048,), policies=("plb-hec",))
        slot = Slot(index=0, policy="plb-hec", seed=0)
        baseline = {"makespan": fallback_run.makespan}
        rows = []
        for form in (ledger.summary(), ledger.to_dict()):
            payload = {"makespan": fallback_run.makespan, "ledger": form}
            rows.append(config.score(slot, baseline, payload, survived=True))
        assert rows[0] == rows[1]
        assert rows[0]["fallback_stages"] and rows[0]["decisions"] > 0
