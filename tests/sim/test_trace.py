"""Tests for repro.sim.trace."""

import pytest

from repro.sim.trace import ExecutionTrace, TaskRecord


def record(worker, start, end, units=10, phase="exec", step=0, transfer=0.0):
    return TaskRecord(
        worker_id=worker,
        units=units,
        dispatch_time=start,
        transfer_time=transfer,
        exec_time=end - start - transfer,
        start_time=start,
        end_time=end,
        phase=phase,
        step=step,
    )


class TestTaskRecord:
    def test_total_time(self):
        r = record("w", 0.0, 2.0, transfer=0.5)
        assert r.total_time == pytest.approx(2.0)


class TestExecutionTrace:
    def test_duplicate_workers_rejected(self):
        with pytest.raises(ValueError):
            ExecutionTrace(["a", "a"])

    def test_unknown_worker_rejected(self):
        tr = ExecutionTrace(["a"])
        with pytest.raises(ValueError, match="unknown worker"):
            tr.add_record(record("b", 0.0, 1.0))

    def test_backwards_record_rejected(self):
        tr = ExecutionTrace(["a"])
        bad = TaskRecord(
            worker_id="a", units=1, dispatch_time=0, transfer_time=0,
            exec_time=0, start_time=2.0, end_time=1.0,
        )
        with pytest.raises(ValueError):
            tr.add_record(bad)

    def test_makespan_tracks_latest_end(self):
        tr = ExecutionTrace(["a", "b"])
        tr.add_record(record("a", 0.0, 1.0))
        tr.add_record(record("b", 0.0, 3.0))
        assert tr.makespan == 3.0

    def test_finalize_extends_makespan(self):
        tr = ExecutionTrace(["a"])
        tr.add_record(record("a", 0.0, 1.0))
        tr.finalize(5.0)
        assert tr.makespan == 5.0

    def test_busy_time(self):
        tr = ExecutionTrace(["a"])
        tr.add_record(record("a", 0.0, 1.0))
        tr.add_record(record("a", 2.0, 4.0))
        assert tr.busy_time("a") == pytest.approx(3.0)

    def test_busy_time_adds_left_to_right(self):
        # durations 1e16, 1, 1 in start order: 1e16 on every Python
        # (a compensated sum, 3.12's sum(), gives 1.0000000000000002e16)
        tr = ExecutionTrace(["a"])
        tr.add_record(record("a", 3.0, 4.0))
        tr.add_record(record("a", 0.0, 1e16))
        tr.add_record(record("a", 1.0, 2.0))
        assert tr.busy_time("a") == 1e16

    def test_idle_fraction(self):
        tr = ExecutionTrace(["a", "b"])
        tr.add_record(record("a", 0.0, 4.0))
        tr.add_record(record("b", 0.0, 1.0))
        tr.finalize(4.0)
        assert tr.idle_fraction("a") == pytest.approx(0.0)
        assert tr.idle_fraction("b") == pytest.approx(0.75)

    def test_idle_fraction_zero_makespan(self):
        tr = ExecutionTrace(["a"])
        assert tr.idle_fraction("a") == 0.0

    def test_idle_fraction_clipped_to_unit_interval(self):
        tr = ExecutionTrace(["a"])
        # overlapping records can push busy > makespan; fraction clips at 0
        tr.add_record(record("a", 0.0, 3.0))
        tr.add_record(record("a", 1.0, 3.0))
        tr.finalize(3.0)
        assert tr.idle_fraction("a") == 0.0

    def test_allocated_units_by_phase(self):
        tr = ExecutionTrace(["a", "b"])
        tr.add_record(record("a", 0, 1, units=5, phase="probe"))
        tr.add_record(record("a", 1, 2, units=7, phase="exec"))
        tr.add_record(record("b", 0, 1, units=3, phase="exec"))
        assert tr.allocated_units() == {"a": 12, "b": 3}
        assert tr.allocated_units(phase="probe") == {"a": 5, "b": 0}

    def test_distribution_normalised(self):
        tr = ExecutionTrace(["a", "b"])
        tr.add_record(record("a", 0, 1, units=30))
        tr.add_record(record("b", 0, 1, units=10))
        dist = tr.distribution()
        assert dist["a"] == pytest.approx(0.75)
        assert dist["b"] == pytest.approx(0.25)
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_distribution_by_step(self):
        tr = ExecutionTrace(["a", "b"])
        tr.add_record(record("a", 0, 1, units=10, step=1))
        tr.add_record(record("b", 0, 1, units=10, step=1))
        tr.add_record(record("a", 1, 2, units=100, step=2))
        dist = tr.distribution(step=1)
        assert dist == {"a": 0.5, "b": 0.5}

    def test_distribution_empty_is_zero(self):
        tr = ExecutionTrace(["a"])
        assert tr.distribution() == {"a": 0.0}

    def test_busy_intervals_sorted(self):
        tr = ExecutionTrace(["a"])
        tr.add_record(record("a", 2.0, 3.0))
        tr.add_record(record("a", 0.0, 1.0))
        intervals = tr.busy_intervals("a")
        assert [i.start for i in intervals] == [0.0, 2.0]

    def test_gantt_structure(self):
        tr = ExecutionTrace(["a", "b"])
        tr.add_record(record("a", 0.0, 1.0, phase="probe"))
        g = tr.gantt()
        assert g["a"] == [(0.0, 1.0, "probe")]
        assert g["b"] == []

    def test_phase_span(self):
        tr = ExecutionTrace(["a"])
        tr.mark_phase(0.0, "modeling")
        tr.mark_phase(2.0, "execution")
        tr.add_record(record("a", 2.0, 5.0))
        tr.finalize(5.0)
        assert tr.phase_span("modeling") == (0.0, 2.0)
        assert tr.phase_span("execution") == (2.0, 5.0)
        assert tr.phase_span("missing") is None

    def test_rebalance_and_overhead_accounting(self):
        tr = ExecutionTrace(["a"])
        tr.record_rebalance(1.0)
        tr.record_rebalance(2.0)
        tr.record_solver_overhead(0.1)
        tr.record_solver_overhead(0.05)
        assert tr.num_rebalances == 2
        assert tr.total_solver_overhead == pytest.approx(0.15)

    def test_solver_overhead_adds_left_to_right(self):
        tr = ExecutionTrace(["a"])
        for seconds in (1e16, 1.0, 1.0):
            tr.record_solver_overhead(seconds)
        assert tr.total_solver_overhead == 1e16

    def test_records_for_ordered_by_completion(self):
        tr = ExecutionTrace(["a"])
        tr.add_record(record("a", 5.0, 6.0))
        tr.add_record(record("a", 0.0, 1.0))
        recs = tr.records_for("a")
        assert [r.end_time for r in recs] == [1.0, 6.0]

    def test_total_units(self):
        tr = ExecutionTrace(["a", "b"])
        tr.add_record(record("a", 0, 1, units=5))
        tr.add_record(record("b", 0, 1, units=6))
        assert tr.total_units() == 11


class TestPhaseSummary:
    def test_summary_structure(self):
        tr = ExecutionTrace(["a", "b"])
        tr.add_record(record("a", 0.0, 1.0, units=10, phase="probe"))
        tr.add_record(record("b", 0.0, 2.0, units=20, phase="probe"))
        tr.add_record(record("a", 2.0, 5.0, units=70, phase="exec"))
        tr.finalize(5.0)
        summary = tr.phase_summary()
        assert set(summary) == {"probe", "exec"}
        assert summary["probe"]["units"] == 30
        assert summary["probe"]["unit_share"] == pytest.approx(0.3)
        assert summary["probe"]["span_s"] == pytest.approx(2.0)
        assert summary["exec"]["busy_s"] == pytest.approx(3.0)

    def test_empty_trace(self):
        assert ExecutionTrace(["a"]).phase_summary() == {}

    def test_marked_phase_uses_phase_span(self):
        tr = ExecutionTrace(["a"])
        tr.mark_phase(0.0, "probe")
        tr.add_record(record("a", 1.0, 2.0, units=10, phase="probe"))
        tr.mark_phase(4.0, "exec")
        tr.add_record(record("a", 4.5, 5.0, units=10, phase="exec"))
        tr.finalize(6.0)
        summary = tr.phase_summary()
        # marked phases span mark-to-mark (0..4), not the record envelope
        assert summary["probe"]["span_s"] == pytest.approx(4.0)
        # the last mark extends to the makespan
        assert summary["exec"]["span_s"] == pytest.approx(2.0)

    def test_unmarked_phase_falls_back_to_record_envelope(self):
        tr = ExecutionTrace(["a"])
        tr.mark_phase(0.0, "probe")
        tr.add_record(record("a", 0.0, 1.0, phase="probe"))
        tr.add_record(record("a", 2.0, 5.0, phase="exec"))  # never marked
        tr.finalize(5.0)
        summary = tr.phase_summary()
        assert summary["exec"]["span_s"] == pytest.approx(3.0)

    def test_plb_initial_phase_share(self, small_cluster):
        """The modeling phase consumes a bounded share of the data."""
        from repro import PLBHeC, Runtime
        from repro.apps import MatMul

        app = MatMul(n=16384)
        res = Runtime(small_cluster, app.codelet(), seed=1).run(
            PLBHeC(), app.total_units, app.default_initial_block_size()
        )
        summary = res.trace.phase_summary()
        assert 0.0 < summary["probe"]["unit_share"] <= 0.35


class TestTraceSerialisation:
    def make_trace(self):
        tr = ExecutionTrace(["a", "b"])
        tr.add_record(record("a", 0.0, 1.5, units=7, phase="probe", step=1))
        tr.add_record(record("b", 0.5, 3.0, units=9, transfer=0.25))
        # one record exercising every optional field the executor stamps
        tr.add_record(TaskRecord(
            worker_id="a", units=4, dispatch_time=1.5, transfer_time=0.1,
            exec_time=0.8, start_time=1.6, end_time=2.7, phase="exec",
            step=2, start_unit=16, retries=2, retry_time=0.2,
            decision="d0003",
        ))
        tr.mark_phase(0.0, "modeling")
        tr.record_rebalance(2.0)
        tr.record_solver_overhead(0.01, time=0.75)
        tr.record_failure(2.5, "b")
        tr.record_recovery(2.9, "b")
        tr.record_lost_block(2.5, "b", 5, start_unit=20)
        tr.finalize(3.5)
        return tr

    def test_roundtrip_preserves_everything(self):
        original = self.make_trace()
        rebuilt = ExecutionTrace.from_dict(original.to_dict())
        assert rebuilt.worker_ids == original.worker_ids
        assert rebuilt.makespan == original.makespan
        assert rebuilt.num_rebalances == original.num_rebalances
        assert rebuilt.total_solver_overhead == original.total_solver_overhead
        assert rebuilt.solver_overhead_times == original.solver_overhead_times
        assert rebuilt.failures == original.failures
        assert rebuilt.recoveries == original.recoveries
        assert rebuilt.lost_blocks == original.lost_blocks
        assert len(rebuilt.records) == len(original.records)
        assert rebuilt.records == original.records
        assert rebuilt.idle_fractions() == original.idle_fractions()

    def test_roundtrip_is_lossless_by_dict_equality(self):
        original = self.make_trace()
        data = original.to_dict()
        assert ExecutionTrace.from_dict(data).to_dict() == data

    def test_roundtrip_lossless_for_generated_traces(self):
        """Property-style: random traces survive the round trip exactly.

        Seeded exhaustively over the optional fields (decision ids,
        retry charges, range tracking, fault events) that historically
        leaked out of ``to_dict`` — a regression here means a field was
        added to ``TaskRecord`` or the trace without serialising it.
        """
        import random

        rng = random.Random(1234)
        for case in range(25):
            workers = [f"w{i}" for i in range(rng.randint(1, 4))]
            tr = ExecutionTrace(workers)
            cursor = {w: 0.0 for w in workers}
            unit = 0
            for _ in range(rng.randint(0, 12)):
                w = rng.choice(workers)
                units = rng.randint(1, 50)
                dispatch = cursor[w]
                start = dispatch + rng.choice([0.0, rng.random() * 0.1])
                duration = 0.05 + rng.random()
                retries = rng.randint(0, 2)
                tr.add_record(TaskRecord(
                    worker_id=w, units=units, dispatch_time=dispatch,
                    transfer_time=rng.random() * 0.02,
                    exec_time=duration, start_time=start,
                    end_time=start + duration, phase=rng.choice(["probe", "exec"]),
                    step=rng.randint(0, 5),
                    start_unit=rng.choice([-1, unit]),
                    retries=retries,
                    retry_time=0.01 * retries,
                    decision=rng.choice(["", f"d{case:04d}"]),
                ))
                cursor[w] = start + duration
                unit += units
            if rng.random() < 0.5:
                tr.record_failure(rng.random(), rng.choice(workers))
                tr.record_recovery(1.0 + rng.random(), rng.choice(workers))
                tr.record_lost_block(
                    rng.random(), rng.choice(workers), rng.randint(1, 9),
                    start_unit=rng.choice([-1, rng.randint(0, unit + 1)]),
                )
            if rng.random() < 0.5:
                tr.mark_phase(0.0, "modeling")
                tr.record_rebalance(rng.random())
                tr.record_solver_overhead(rng.random() * 0.01, time=rng.random())
            tr.finalize(max(cursor.values(), default=0.0) + rng.random())
            data = tr.to_dict()
            assert ExecutionTrace.from_dict(data).to_dict() == data

    def test_legacy_three_wide_lost_blocks_accepted(self):
        data = self.make_trace().to_dict()
        data["lost_blocks"] = [b[:3] for b in data["lost_blocks"]]
        rebuilt = ExecutionTrace.from_dict(data)
        # pre-range-tracking entries read back with start_unit = -1
        assert rebuilt.lost_blocks == [(2.5, "b", 5, -1)]

    def test_legacy_payload_without_overhead_times_accepted(self):
        data = self.make_trace().to_dict()
        del data["solver_overhead_times"]
        rebuilt = ExecutionTrace.from_dict(data)
        # times default to 0.0 per recorded overhead, lengths stay paired
        assert rebuilt.solver_overhead_times == [0.0]
        assert rebuilt.total_solver_overhead == pytest.approx(0.01)

    def test_mismatched_overhead_times_rejected(self):
        data = self.make_trace().to_dict()
        data["solver_overhead_times"] = [0.0, 1.0]
        with pytest.raises(ValueError):
            ExecutionTrace.from_dict(data)

    def test_json_compatible(self):
        import json

        payload = json.dumps(self.make_trace().to_dict())
        rebuilt = ExecutionTrace.from_dict(json.loads(payload))
        assert rebuilt.total_units() == 20

    def test_missing_key_rejected(self):
        data = self.make_trace().to_dict()
        del data["records"]
        with pytest.raises(ValueError, match="missing key"):
            ExecutionTrace.from_dict(data)

    def test_malformed_record_rejected(self):
        data = self.make_trace().to_dict()
        data["records"][0]["worker_id"] = "ghost"
        with pytest.raises(ValueError):
            ExecutionTrace.from_dict(data)
