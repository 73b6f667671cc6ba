"""Tests for repro.runtime.sim_executor."""

import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.runtime.scheduler_api import SchedulingPolicy
from repro.runtime.faults import Perturbation
from repro.runtime.sim_executor import SimulatedExecutor
from repro.sim.trace import TaskRecord


class FixedBlocks(SchedulingPolicy):
    """Dispatch fixed-size blocks to every idle worker."""

    name = "fixed"

    def __init__(self, size=10):
        self.size = size
        self.records: list[TaskRecord] = []

    def next_block(self, worker_id, now):
        return self.size

    def on_task_finished(self, record, remaining, now):
        self.records.append(record)


class OneShotThenPark(SchedulingPolicy):
    """One block per worker, then park forever (deadlock probe)."""

    name = "oneshot"

    def setup(self, ctx):
        super().setup(ctx)
        self.given = set()

    def next_block(self, worker_id, now):
        if worker_id in self.given:
            return 0
        self.given.add(worker_id)
        return 5


class NegativeSize(SchedulingPolicy):
    name = "negative"

    def next_block(self, worker_id, now):
        return -1


@pytest.fixture
def executor(small_cluster, mm_kernel):
    return SimulatedExecutor(small_cluster, mm_kernel, noise_sigma=0.0, seed=0)


class TestSimulatedExecutor:
    def test_processes_whole_domain(self, executor):
        policy = FixedBlocks(16)
        trace, makespan = executor.run(policy, 256, 16)
        assert trace.total_units() == 256
        assert makespan > 0.0

    def test_trace_records_match_policy_observations(self, executor):
        policy = FixedBlocks(16)
        trace, _ = executor.run(policy, 128, 16)
        assert len(policy.records) == len(trace.records)

    def test_deterministic_given_seed(self, small_cluster, mm_kernel):
        runs = []
        for _ in range(2):
            ex = SimulatedExecutor(small_cluster, mm_kernel, noise_sigma=0.02, seed=9)
            _, makespan = ex.run(FixedBlocks(16), 512, 16)
            runs.append(makespan)
        assert runs[0] == runs[1]

    def test_different_seeds_differ(self, small_cluster, mm_kernel):
        spans = set()
        for seed in (1, 2):
            ex = SimulatedExecutor(
                small_cluster, mm_kernel, noise_sigma=0.05, seed=seed
            )
            _, makespan = ex.run(FixedBlocks(16), 512, 16)
            spans.add(makespan)
        assert len(spans) == 2

    def test_zero_noise_is_noise_free(self, small_cluster, mm_kernel, mm_ground_truth):
        ex = SimulatedExecutor(small_cluster, mm_kernel, noise_sigma=0.0, seed=0)
        policy = FixedBlocks(32)
        trace, _ = ex.run(policy, 64, 32)
        for r in trace.records:
            expected = mm_ground_truth.exec_time(r.worker_id, r.units)
            assert r.exec_time == pytest.approx(expected, rel=1e-12)

    def test_deadlock_detected(self, executor):
        with pytest.raises(SchedulingError, match="deadlock|unprocessed"):
            executor.run(OneShotThenPark(), 10_000, 16)

    def test_negative_block_rejected(self, executor):
        with pytest.raises(SchedulingError, match="negative"):
            executor.run(NegativeSize(), 100, 16)

    def test_tail_clamped(self, executor):
        policy = FixedBlocks(100)
        trace, _ = executor.run(policy, 250, 16)
        sizes = sorted(r.units for r in trace.records)
        assert sizes[0] == 50  # the clamped tail block
        assert trace.total_units() == 250

    def test_overhead_stalls_dispatch(self, small_cluster, mm_kernel):
        class Charger(FixedBlocks):
            def on_task_finished(self, record, remaining, now):
                super().on_task_finished(record, remaining, now)
                self.ctx.charge_overhead(10.0, "think")

        ex = SimulatedExecutor(small_cluster, mm_kernel, noise_sigma=0.0, seed=0)
        _, makespan_charged = ex.run(Charger(32), 512, 32)
        ex2 = SimulatedExecutor(small_cluster, mm_kernel, noise_sigma=0.0, seed=0)
        _, makespan_free = ex2.run(FixedBlocks(32), 512, 32)
        assert makespan_charged > makespan_free + 10.0

    def test_overhead_recorded_in_trace(self, small_cluster, mm_kernel):
        class Charger(FixedBlocks):
            def on_task_finished(self, record, remaining, now):
                self.ctx.charge_overhead(0.5)

        ex = SimulatedExecutor(small_cluster, mm_kernel, noise_sigma=0.0, seed=0)
        trace, _ = ex.run(Charger(64), 128, 64)
        assert trace.total_solver_overhead > 0.0

    def test_perturbation_slows_device(self, small_cluster, mm_kernel):
        base = SimulatedExecutor(small_cluster, mm_kernel, noise_sigma=0.0, seed=0)
        trace_base, _ = base.run(FixedBlocks(32), 64, 32)
        slowed = SimulatedExecutor(
            small_cluster,
            mm_kernel,
            noise_sigma=0.0,
            seed=0,
            faults=(
                Perturbation(device_id="alpha.gpu0", start_time=0.0, factor=3.0),
            ),
        )
        trace_slow, _ = slowed.run(FixedBlocks(32), 64, 32)
        base_time = trace_base.records_for("alpha.gpu0")[0].exec_time
        slow_time = trace_slow.records_for("alpha.gpu0")[0].exec_time
        assert slow_time == pytest.approx(3.0 * base_time, rel=1e-9)

    def test_perturbation_unknown_device_rejected(self, small_cluster, mm_kernel):
        with pytest.raises(ConfigurationError, match="unknown device 'nope'"):
            SimulatedExecutor(
                small_cluster,
                mm_kernel,
                faults=(
                    Perturbation(device_id="nope", start_time=0.0, factor=2.0),
                ),
            )

    def test_invalid_inputs(self, executor):
        with pytest.raises(Exception):
            executor.run(FixedBlocks(), 0, 16)
        with pytest.raises(Exception):
            executor.run(FixedBlocks(), 100, 0)

    def test_dispatch_confirmation_hook(self, executor):
        confirmed = []

        class Confirming(FixedBlocks):
            def on_block_dispatched(self, worker_id, granted, now):
                confirmed.append((worker_id, granted))

        executor.run(Confirming(32), 96, 32)
        assert sum(g for _, g in confirmed) == 96
