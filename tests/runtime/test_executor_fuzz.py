"""Executor fuzzing: random policies must never break the invariants.

Hypothesis drives a policy that makes arbitrary (but protocol-legal)
decisions — random block sizes, random parking — under random fault
schedules, and the simulated executor must uphold its contract
regardless: exact work conservation, causality, fault isolation, no
double-booked devices, and termination.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.resilience.invariants import (
    check_busy_overlap,
    check_conservation,
    check_fault_isolation,
)
from repro.runtime.scheduler_api import SchedulingPolicy
from repro.runtime.faults import (
    DeviceFailure,
    Perturbation,
    TransferFault,
    TransientFailure,
)
from repro.runtime.sim_executor import SimulatedExecutor

#: One drawn fault: (kind, device index, start and length as fractions
#: of the fault-free makespan, transfer jitter, perturbation factor).
FAULT_SPECS = st.lists(
    st.tuples(
        st.sampled_from(("failure", "transient", "transfer", "perturbation")),
        st.integers(0, 63),
        st.floats(0.05, 0.95),
        st.floats(0.02, 0.5),
        st.one_of(st.just(0.0), st.floats(0.05, 0.9)),
        st.floats(0.3, 3.0),
    ),
    max_size=6,
)


def fault_schedule(specs, device_ids, survivor, span):
    """An executor fault tuple from drawn specs, scaled to ``span``.

    Permanent failures and transfer faults (which escalate to a
    permanent failure when every retry lands in the window) never hit
    ``survivor``, so some device always finishes the work.  A device
    gets at most one transient outage: overlapping windows on one
    device are not modelled.
    """
    killable = [d for d in device_ids if d != survivor]
    faults = []
    down = set()
    for kind, index, start, length, jitter, factor in specs:
        t = start * span
        if kind == "failure":
            device = killable[index % len(killable)]
            faults.append(DeviceFailure(device, t))
        elif kind == "transfer":
            device = killable[index % len(killable)]
            faults.append(TransferFault(device, t, length * span, jitter=jitter))
        elif kind == "transient":
            device = device_ids[index % len(device_ids)]
            if device not in down:
                down.add(device)
                faults.append(TransientFailure(device, t, length * span))
        else:
            device = device_ids[index % len(device_ids)]
            faults.append(Perturbation(device, t, factor))
    return tuple(faults)


class RandomPolicy(SchedulingPolicy):
    """Protocol-legal chaos: sizes and parking from a seeded stream."""

    name = "fuzz"

    def __init__(self, seed: int, park_probability: float, max_block: int):
        self.rng = np.random.default_rng(seed)
        self.park_probability = park_probability
        self.max_block = max_block
        self._just_parked_all = 0

    def next_block(self, worker_id: str, now: float) -> int:
        # park sometimes, but never everyone forever: after enough
        # consecutive parks, force a dispatch so the run can't deadlock
        if (
            self.rng.random() < self.park_probability
            and self._just_parked_all < len(self.ctx.device_ids) - 1
        ):
            self._just_parked_all += 1
            return 0
        self._just_parked_all = 0
        return int(self.rng.integers(1, self.max_block + 1))


class TestExecutorInvariantsUnderFuzz:
    @given(
        seed=st.integers(0, 10_000),
        park=st.floats(0.0, 0.6),
        max_block=st.integers(1, 400),
        total=st.integers(1, 3000),
        noise=st.floats(0.0, 0.1),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_invariants(self, small_cluster_factory, seed, park, max_block, total, noise):
        cluster = small_cluster_factory()
        executor = SimulatedExecutor(
            cluster, self.kernel(), noise_sigma=noise, seed=seed
        )
        policy = RandomPolicy(seed, park, max_block)
        trace, makespan = executor.run(policy, total, 8)

        # conservation
        assert trace.total_units() == total
        # causality and ordering
        for r in trace.records:
            assert 0.0 <= r.start_time <= r.end_time <= makespan + 1e-9
            assert r.exec_time >= 0 and r.transfer_time >= 0
        # no double-booking
        for worker in trace.worker_ids:
            intervals = trace.busy_intervals(worker)
            for a, b in zip(intervals, intervals[1:]):
                assert b.start >= a.end - 1e-9

    @given(
        seed=st.integers(0, 10_000),
        total=st.integers(100, 3000),
        fail_frac=st.floats(0.05, 0.9),
        survivor=st.integers(1, 63),
        specs=FAULT_SPECS,
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_invariants_with_failure(
        self, small_cluster_factory, seed, total, fail_frac, survivor, specs
    ):
        cluster = small_cluster_factory()
        device_ids = [d.device_id for d in cluster.devices()]
        # estimate the undisturbed duration to place the faults inside it
        probe_exec = SimulatedExecutor(cluster, self.kernel(), seed=seed)
        base_trace, base_span = probe_exec.run(RandomPolicy(seed, 0.0, 64), total, 8)
        faults = fault_schedule(
            specs,
            device_ids,
            device_ids[1:][survivor % (len(device_ids) - 1)],
            base_span,
        )
        faults += (
            DeviceFailure(device_id=device_ids[0], time=base_span * fail_frac),
        )
        executor = SimulatedExecutor(
            cluster, self.kernel(), seed=seed, faults=faults
        )
        trace, makespan = executor.run(RandomPolicy(seed, 0.0, 64), total, 8)
        # every unit completed exactly once (lost blocks are replayed), no
        # dispatch to a down device, no worker running two blocks at once
        assert check_conservation(trace, total) == []
        assert check_fault_isolation(trace) == []
        assert check_busy_overlap(trace) == []

    @staticmethod
    def kernel():
        from repro.cluster import KernelCharacteristics

        return KernelCharacteristics(
            name="fuzz-kernel",
            flops_per_unit=1e7,
            bytes_in_per_unit=1e3,
            gpu_half_units=64.0,
            cpu_half_units=8.0,
        )


@pytest.fixture
def small_cluster_factory(small_cluster):
    """Factory fixture so hypothesis examples share one cluster object."""
    return lambda: small_cluster
