"""Critical-path extraction & makespan attribution (repro.obs.critpath).

The synthetic traces here are hand-built so every category total and
every what-if bound has a known closed-form answer — the analyzer is
checked against arithmetic, not against itself.
"""

import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.obs.critpath import (
    ATTRIBUTION_TOLERANCE,
    CATEGORIES,
    CRITPATH_SCHEMA,
    analyze_trace,
    category_shares,
    payload_from_analysis,
    validate_critpath,
    write_critpath,
)
from repro.sim.trace import ExecutionTrace, TaskRecord


def task(worker, start, end, *, units=50, dispatch=None, transfer=0.0,
         retry=0.0, retries=0, start_unit=-1, decision=""):
    return TaskRecord(
        worker_id=worker,
        units=units,
        dispatch_time=start if dispatch is None else dispatch,
        transfer_time=transfer,
        exec_time=end - start - transfer - retry,
        start_time=start,
        end_time=end,
        start_unit=start_unit,
        retries=retries,
        retry_time=retry,
        decision=decision,
    )


def trace_of(workers, records, *, makespan=None, failures=(),
             recoveries=(), lost=()):
    tr = ExecutionTrace(workers)
    for r in records:
        tr.add_record(r)
    for t, d in failures:
        tr.record_failure(t, d)
    for t, d in recoveries:
        tr.record_recovery(t, d)
    for t, d, u, s in lost:
        tr.record_lost_block(t, d, u, start_unit=s)
    if makespan is not None:
        tr.finalize(makespan)
    return tr


def assert_exact(analysis):
    """The acceptance bar: categories tile the makespan exactly."""
    total = math.fsum(analysis["categories"].values())
    assert abs(total - analysis["makespan"]) < ATTRIBUTION_TOLERANCE
    assert validate_critpath(analysis) == []


class TestSingleDevice:
    def make(self):
        return trace_of(["a"], [
            task("a", 0.0, 1.0, units=50, start_unit=0),
            task("a", 1.0, 2.0, units=50, start_unit=50),
        ])

    def test_all_compute(self):
        analysis = analyze_trace(self.make())
        assert_exact(analysis)
        assert analysis["makespan"] == 2.0
        assert analysis["categories"]["compute"] == pytest.approx(2.0)
        assert all(
            analysis["categories"][c] == 0.0
            for c in CATEGORIES if c != "compute"
        )
        assert analysis["path_tasks"] == 2

    def test_bounds_known_answers(self):
        bounds = analyze_trace(self.make())["bounds"]
        # nothing to remove: both idealizations leave the makespan alone
        assert bounds["zero_transfer"] == pytest.approx(2.0)
        assert bounds["zero_scheduler"] == pytest.approx(2.0)
        # one fully-busy device IS the Σwork/Σspeed oracle
        assert bounds["perfect_balance"] == pytest.approx(2.0)
        # 2x faster exec on the only device halves the makespan
        assert bounds["device_speedup"]["a"] == pytest.approx(1.0)

    def test_bottleneck_is_the_device(self):
        analysis = analyze_trace(self.make())
        assert analysis["bottleneck"]["device"] == "a"
        assert analysis["bottleneck"]["share"] == pytest.approx(1.0)
        assert analysis["bottleneck"]["units"] == 100


class TestTwoEqualDevices:
    def make(self):
        # a carries 100 units over [0, 2); b finishes its 50 by t=1
        return trace_of(["a", "b"], [
            task("a", 0.0, 2.0, units=100, start_unit=0),
            task("b", 0.0, 1.0, units=50, start_unit=100),
        ])

    def test_path_sits_on_the_straggler(self):
        analysis = analyze_trace(self.make())
        assert_exact(analysis)
        assert analysis["categories"]["compute"] == pytest.approx(2.0)
        assert [n["worker"] for n in analysis["path"]
                if n["kind"] == "task"] == ["a"]
        assert analysis["bottleneck"]["device"] == "a"

    def test_perfect_balance_uses_both_rates(self):
        bounds = analyze_trace(self.make())["bounds"]
        # rates: a = 100/2 = 50 u/s, b = 50/1 = 50 u/s → 150/100 = 1.5 s
        assert bounds["perfect_balance"] == pytest.approx(1.5)
        assert bounds["perfect_balance"] <= 2.0

    def test_off_path_device_speedup_is_free(self):
        bounds = analyze_trace(self.make())["bounds"]
        # only on-path exec shrinks: b is off the path, so no change
        assert bounds["device_speedup"]["a"] == pytest.approx(1.0)
        assert bounds["device_speedup"]["b"] == pytest.approx(2.0)

    def test_speedup_factor_is_configurable(self):
        bounds = analyze_trace(self.make(), speedup_factor=4.0)["bounds"]
        assert bounds["speedup_factor"] == 4.0
        assert bounds["device_speedup"]["a"] == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "factor", [0, -2.0, 0.5, math.nan, math.inf, True, "2"]
    )
    def test_degenerate_speedup_factor_rejected(self, factor):
        with pytest.raises(ConfigurationError, match="speedup_factor") as err:
            analyze_trace(self.make(), speedup_factor=factor)
        assert repr(factor) in str(err.value)


class TestTransferDominated:
    def make(self):
        return trace_of(["a"], [
            task("a", 0.0, 1.0, transfer=0.8, start_unit=0),
        ])

    def test_transfer_attributed(self):
        analysis = analyze_trace(self.make())
        assert_exact(analysis)
        assert analysis["categories"]["transfer"] == pytest.approx(0.8)
        assert analysis["categories"]["compute"] == pytest.approx(0.2)

    def test_zero_transfer_bound(self):
        bounds = analyze_trace(self.make())["bounds"]
        assert bounds["zero_transfer"] == pytest.approx(0.2)


class TestIdleAndSolver:
    def test_causal_gap_is_idle(self):
        tr = trace_of(["a"], [
            task("a", 0.0, 1.0, start_unit=0),
            task("a", 1.5, 2.5, start_unit=50),
        ])
        analysis = analyze_trace(tr)
        assert_exact(analysis)
        assert analysis["categories"]["idle"] == pytest.approx(0.5)
        assert analysis["categories"]["compute"] == pytest.approx(2.0)
        kinds = [n["kind"] for n in analysis["path"]]
        assert kinds == ["task", "idle", "task"]

    def test_dispatch_stall_is_solver(self):
        tr = trace_of(["a"], [
            task("a", 0.3, 1.0, dispatch=0.0, start_unit=0),
        ])
        analysis = analyze_trace(tr)
        assert_exact(analysis)
        assert analysis["categories"]["solver"] == pytest.approx(0.3)
        assert analysis["categories"]["compute"] == pytest.approx(0.7)
        assert analysis["bounds"]["zero_scheduler"] == pytest.approx(0.7)

    def test_retry_time_attributed(self):
        tr = trace_of(["a"], [
            task("a", 0.0, 1.0, transfer=0.2, retry=0.1, retries=1,
                 start_unit=0),
        ])
        analysis = analyze_trace(tr)
        assert_exact(analysis)
        assert analysis["categories"]["retries"] == pytest.approx(0.1)
        assert analysis["categories"]["transfer"] == pytest.approx(0.2)
        assert analysis["categories"]["compute"] == pytest.approx(0.7)

    def test_trailing_idle_to_finalized_makespan(self):
        tr = trace_of(["a"], [task("a", 0.0, 1.0, start_unit=0)],
                      makespan=1.5)
        analysis = analyze_trace(tr)
        assert_exact(analysis)
        assert analysis["categories"]["idle"] == pytest.approx(0.5)


class TestFaultInterrupted:
    def make(self):
        # b dies at t=1 taking units [80, 100) with it; a picks the
        # range back up at t=1.4 after b's downtime blocks the path
        return trace_of(
            ["a", "b"],
            [
                task("a", 0.0, 1.0, units=80, start_unit=0),
                task("a", 1.4, 2.0, units=20, dispatch=1.4, start_unit=80),
            ],
            failures=[(1.0, "b")],
            recoveries=[(1.4, "b")],
            lost=[(1.0, "b", 20, 80)],
        )

    def test_downtime_and_rework_attributed(self):
        analysis = analyze_trace(self.make())
        assert_exact(analysis)
        assert analysis["categories"]["compute"] == pytest.approx(1.0)
        assert analysis["categories"]["fault_recovery"] == pytest.approx(0.4)
        assert analysis["categories"]["rework"] == pytest.approx(0.6)
        assert analysis["categories"]["idle"] == 0.0

    def test_rework_flagged_on_path_node(self):
        analysis = analyze_trace(self.make())
        rework_nodes = [n for n in analysis["path"]
                        if n["kind"] == "task" and n["rework"]]
        assert len(rework_nodes) == 1
        assert rework_nodes[0]["units"] == 20

    def test_untracked_range_is_not_rework(self):
        tr = trace_of(
            ["a", "b"],
            [
                task("a", 0.0, 1.0, units=80, start_unit=0),
                task("a", 1.4, 2.0, units=20, dispatch=1.4, start_unit=-1),
            ],
            failures=[(1.0, "b")],
            recoveries=[(1.4, "b")],
            lost=[(1.0, "b", 20, -1)],
        )
        analysis = analyze_trace(tr)
        assert_exact(analysis)
        assert analysis["categories"]["rework"] == 0.0
        assert analysis["categories"]["compute"] == pytest.approx(1.6)


class TestDecisionBlame:
    def test_on_path_busy_grouped_by_decision(self):
        tr = trace_of(["a"], [
            task("a", 0.0, 1.0, decision="d0001", start_unit=0),
            task("a", 1.0, 3.0, decision="d0002", start_unit=50),
        ])
        analysis = analyze_trace(tr)
        assert analysis["decisions"] == [
            {"id": "d0002", "tasks": 1, "busy_s": pytest.approx(2.0)},
            {"id": "d0001", "tasks": 1, "busy_s": pytest.approx(1.0)},
        ]


class TestEmptyTrace:
    def test_zero_makespan_is_valid(self):
        analysis = analyze_trace(trace_of(["a"], []))
        assert analysis["makespan"] == 0.0
        assert analysis["path"] == []
        assert validate_critpath(analysis) == []
        assert category_shares(analysis) == {c: 0.0 for c in CATEGORIES}


class TestValidation:
    def good(self):
        return analyze_trace(trace_of(["a"], [task("a", 0.0, 1.0)]))

    def test_schema_mismatch_flagged(self):
        doc = self.good()
        doc["schema"] = CRITPATH_SCHEMA + 1
        assert any("schema" in p for p in validate_critpath(doc))

    def test_attribution_gap_flagged(self):
        doc = self.good()
        doc["categories"]["compute"] -= 0.5
        assert any("sum to" in p for p in validate_critpath(doc))

    def test_bound_above_makespan_flagged(self):
        doc = self.good()
        doc["bounds"]["perfect_balance"] = doc["makespan"] * 2
        assert any("exceeds the makespan" in p for p in validate_critpath(doc))

    def test_device_bound_above_makespan_flagged(self):
        doc = self.good()
        doc["bounds"]["device_speedup"]["a"] = doc["makespan"] * 2
        assert any("device_speedup" in p for p in validate_critpath(doc))

    def test_empty_path_with_makespan_flagged(self):
        doc = self.good()
        doc["path"] = []
        assert any("empty critical path" in p for p in validate_critpath(doc))

    def test_missing_key_flagged(self):
        doc = self.good()
        del doc["bounds"]
        assert any("missing key" in p for p in validate_critpath(doc))


class TestArtifact:
    def test_write_and_reload(self, tmp_path):
        analysis = analyze_trace(trace_of(["a"], [task("a", 0.0, 1.0)]))
        path = write_critpath(tmp_path / "critpath.json", analysis)
        doc = json.loads(path.read_text())
        assert validate_critpath(doc) == []
        assert doc["makespan"] == analysis["makespan"]

    def test_write_refuses_invalid(self, tmp_path):
        analysis = analyze_trace(trace_of(["a"], [task("a", 0.0, 1.0)]))
        analysis["categories"]["compute"] += 1.0
        with pytest.raises(ValueError, match="refusing to write"):
            write_critpath(tmp_path / "critpath.json", analysis)
        assert not (tmp_path / "critpath.json").exists()

    def test_payload_is_deterministic(self):
        tr = trace_of(["a", "b"], [
            task("a", 0.0, 2.0, units=100, decision="d0001", start_unit=0),
            task("b", 0.0, 1.0, units=50, start_unit=100),
        ])
        one = json.dumps(payload_from_analysis(analyze_trace(tr)),
                         sort_keys=True)
        two = json.dumps(payload_from_analysis(analyze_trace(tr)),
                         sort_keys=True)
        assert one == two
        assert "path" not in json.loads(one)  # compact form drops the path


class TestRealRun:
    """End-to-end on simulated runs: exactness must survive real traces."""

    def _run(self, small_cluster, **kwargs):
        from repro import PLBHeC, Runtime
        from repro.apps import MatMul

        app = MatMul(n=4096)
        rt = Runtime(small_cluster, app.codelet(), seed=7,
                     noise_sigma=0.02, **kwargs)
        return rt.run(PLBHeC(fixed_overhead_s=0.01),
                      app.total_units, app.default_initial_block_size())

    def test_clean_run_exact(self, small_cluster):
        analysis = analyze_trace(self._run(small_cluster).trace)
        assert_exact(analysis)
        assert analysis["categories"]["solver"] > 0.0  # charged stalls
        shares = category_shares(analysis)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_faulted_run_exact(self, small_cluster):
        from repro.runtime.sim_executor import TransientFailure

        result = self._run(
            small_cluster,
            transients=(
                TransientFailure("alpha.gpu0", time=0.05, downtime=0.03),
            ),
        )
        analysis = analyze_trace(result.trace)
        assert_exact(analysis)
        assert all(v <= analysis["makespan"] + ATTRIBUTION_TOLERANCE
                   for v in analysis["bounds"]["device_speedup"].values())
