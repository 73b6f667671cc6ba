"""One fault model: the timeline both executors ask what a fault does."""

import pytest

from repro import Greedy, Runtime
from repro.apps import MatMul
from repro.cluster import paper_cluster
from repro.errors import ConfigurationError
from repro.runtime.faults import (
    DeviceFailure,
    FaultTimeline,
    Perturbation,
    TransferFault,
    TransientFailure,
)
from repro.service import ClusterService, ServiceConfig
from repro.service.arrivals import ArrivalSpec
from repro.sim.engine import Engine
from repro.sim.random import RandomStreams

ALL_KINDS = (
    DeviceFailure("d0", 1.0),
    Perturbation("d1", 0.5, 2.0),
    TransientFailure("d0", 0.2, 0.1),
    TransferFault("d1", 0.3, 0.05, max_retries=2, backoff_factor=0.5),
)


class TestFaultTimeline:
    def test_partitions_by_kind(self):
        timeline = FaultTimeline(ALL_KINDS, ("d0", "d1"))
        assert timeline.failures == (ALL_KINDS[0],)
        assert timeline.perturbations == (ALL_KINDS[1],)
        assert timeline.transients == (ALL_KINDS[2],)
        assert timeline.transfer_faults == (ALL_KINDS[3],)

    def test_unknown_kind_and_device_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault object"):
            FaultTimeline((object(),), ("d0",))
        with pytest.raises(ConfigurationError, match="unknown device 'd9'"):
            FaultTimeline((DeviceFailure("d9", 1.0),), ("d0",))

    def test_second_down_only_upgrades_to_permanent(self):
        timeline = FaultTimeline((), ("d0", "d1"))
        assert timeline.fail("d0", permanent=False)
        assert not timeline.fail("d0", permanent=True)
        assert timeline.down == {"d0"} and timeline.perm_down == {"d0"}
        assert not timeline.stranded
        assert timeline.fail("d1", permanent=True)
        assert timeline.stranded

    def test_events_keep_kind_then_tuple_order(self):
        # equal times: failures fire first, then each transient's down,
        # each kind in tuple order; a permanent device never comes back
        faults = (
            TransientFailure("b", 1.0, 1.0),
            DeviceFailure("c", 1.0),
            TransientFailure("a", 1.0, 1.0),
            DeviceFailure("a", 1.5),
        )
        timeline = FaultTimeline(faults, ("a", "b", "c", "d"))
        seen = []
        engine = Engine()
        timeline.schedule(
            engine,
            lambda d: seen.append(("down", d, engine.now)),
            lambda d: seen.append(("up", d, engine.now)),
        )
        engine.run()
        assert seen == [
            ("down", "c", 1.0),
            ("down", "b", 1.0),
            ("down", "a", 1.0),
            ("up", "b", 2.0),
        ]
        assert timeline.perm_down == {"a", "c"}
        assert timeline.pending_recoveries == 0

    def test_walk_backs_off_then_gives_up(self):
        fault = TransferFault("d0", 0.0, 100.0, max_retries=3)
        timeline = FaultTimeline((fault,), ("d0",))
        retry_time, retries, gave_up = timeline.transfer_stall(
            "d0", 1.0, 0.5, 2.0
        )
        # attempt i costs (timeout + min(backoff * 2**i, cap)) transfers
        assert (retries, gave_up) == (3, True)
        assert retry_time == pytest.approx((3.0 + 4.0 + 6.0) * 0.5)


# ----------------------------------------------------------------------
# the same TransferFault in a batch run and in a service episode
# ----------------------------------------------------------------------
DEVICE = "A.gpu0"
SEED = 5


def batch_run(faults=()):
    app = MatMul(n=8192)
    runtime = Runtime(
        paper_cluster(1), app.codelet(), seed=SEED, faults=faults
    )
    return runtime.run(
        Greedy(), app.total_units, app.default_initial_block_size()
    )


def serve_run(faults=()):
    """One 1-machine episode; returns it and the blocks it completed as
    ``(device, dispatched, completed, transfer, exec)``."""
    service = ClusterService(
        ServiceConfig(
            arrivals=ArrivalSpec(rate=2.0, duration=8.0),
            machines=1,
            seed=SEED,
            faults=faults,
        )
    )
    done = []
    block_done = service._block_done

    def spy(device_id):
        _, _, t0, transfer, exec_s = service.busy[device_id]
        done.append((device_id, t0, service.engine.now, transfer, exec_s))
        block_done(device_id)

    service._block_done = spy
    service.run()
    return service, done


def batch_victim(result):
    """A mid-run transfer to DEVICE of the fault-free batch run."""
    return min(
        (
            r for r in result.trace.records
            if r.worker_id == DEVICE
            and r.start_time > result.makespan * 0.3
            and r.transfer_time > 0.0
        ),
        key=lambda r: r.start_time,
    )


def serve_victim(done, duration=8.0):
    """A mid-episode transfer to DEVICE of the fault-free episode."""
    return min(
        (
            b for b in done
            if b[0] == DEVICE and b[1] > duration * 0.3 and b[3] > 0.0
        ),
        key=lambda b: b[1],
    )


def stall(fault, begin, transfer, exec_s):
    timeline = FaultTimeline(
        (fault,), ("A.cpu", DEVICE), RandomStreams(SEED)
    )
    return timeline.transfer_stall(DEVICE, begin, transfer, exec_s)


class TestOneFaultModel:
    def test_a_window_past_every_retry_gives_the_device_up(self):
        base = batch_victim(batch_run())
        fault = TransferFault(
            DEVICE, base.start_time - 1e-9, 1e3, max_retries=2
        )
        result = batch_run((fault,))
        assert [d for _, d in result.trace.failures] == [DEVICE]
        t_fail = result.trace.failures[0][0]
        assert not [
            r for r in result.trace.records_for(DEVICE) if r.end_time > t_fail
        ]

        _, done = serve_run()
        _, t0, _, transfer, exec_s = serve_victim(done)
        fault = TransferFault(DEVICE, t0 - 1e-9, 1e3, max_retries=2)
        assert stall(fault, t0, transfer, exec_s)[2], "the walk must give up"
        service, done = serve_run((fault,))
        assert service.timeline.perm_down == {DEVICE}
        assert not [b for b in done if b[0] == DEVICE and b[2] >= t0]
        assert service.breakers[DEVICE].state == "open"

    def test_a_window_shorter_than_one_attempt_delays_the_block(self):
        base_run = batch_run()
        base = batch_victim(base_run)
        # the first attempt lands in the window, the second outside it
        fault = TransferFault(
            DEVICE, base.start_time - 1e-9, 2.0 * base.transfer_time
        )
        retry_time, retries, gave_up = stall(
            fault, base.start_time, base.transfer_time, base.exec_time
        )
        assert (retries, gave_up) == (1, False)
        result = batch_run((fault,))
        (hit,) = [
            r for r in result.trace.records_for(DEVICE)
            if r.start_time == base.start_time
        ]
        assert hit.retry_time == retry_time
        assert hit.end_time == pytest.approx(
            base.end_time + retry_time, rel=1e-12
        )

        _, done = serve_run()
        _, t0, end, transfer, exec_s = serve_victim(done)
        fault = TransferFault(DEVICE, t0 - 1e-9, 2.0 * transfer)
        retry_time, retries, gave_up = stall(fault, t0, transfer, exec_s)
        assert (retries, gave_up) == (1, False)
        service, done = serve_run((fault,))
        (hit,) = [b for b in done if b[0] == DEVICE and b[1] == t0]
        assert hit[2] == pytest.approx(end + retry_time, rel=1e-12)
        assert not service.timeline.down
