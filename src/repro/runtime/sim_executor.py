"""Virtual-time execution backend.

Drives a scheduling policy against the cluster's hidden ground truth:
idle workers poll the policy for block sizes, completions are scheduled
on the discrete-event engine with lognormal measurement noise, and every
completion is reported back through the policy's
``on_task_finished`` hook — the same dispatch/completion contract the
paper's StarPU implementation uses, minus the silicon.

Master "thinking time" (model fits, interior-point solves) charged via
:meth:`SchedulingContext.charge_overhead` delays subsequent dispatches,
so scheduler overhead degrades the makespan here exactly as it does on
a real cluster.
"""

from __future__ import annotations

from functools import partial

from repro.cluster.perfmodel import GroundTruth, KernelCharacteristics
from repro.cluster.topology import Cluster
from repro.errors import ConfigurationError, SchedulingError, SimulationError
from repro.obs.metrics import get_registry
from repro.obs.profiler import switch_phase
from repro.runtime.data import BlockDomain
from repro.runtime.faults import Fault, FaultTimeline
from repro.runtime.scheduler_api import (
    DeviceInfo,
    SchedulingContext,
    SchedulingPolicy,
)
from repro.runtime.task import Task
from repro.sim.engine import Engine
from repro.sim.random import RandomStreams
from repro.sim.trace import ExecutionTrace, TaskRecord
from repro.util.validation import check_positive, check_positive_int

__all__ = ["SimulatedExecutor"]


class SimulatedExecutor:
    """Runs one policy over one workload on a simulated cluster.

    Parameters
    ----------
    cluster:
        The hardware topology.
    kernel:
        Device-load characterisation of the application's codelet.
    noise_sigma:
        Log-space standard deviation of the multiplicative measurement
        noise on execution and transfer times (0 = deterministic).
    seed:
        Root seed for all noise streams.
    faults:
        Optional mixed fault tuple (:mod:`repro.runtime.faults`):
        slowdowns, permanent and transient device outages, and transfer
        faults.  Kinds and device ids are checked up front.
    """

    def __init__(
        self,
        cluster: Cluster,
        kernel: KernelCharacteristics,
        *,
        noise_sigma: float = 0.005,
        seed: int = 0,
        faults: tuple[Fault, ...] = (),
    ) -> None:
        check_positive("noise_sigma", noise_sigma, strict=False)
        self.cluster = cluster
        self.kernel = kernel
        self.noise_sigma = float(noise_sigma)
        self.seed = int(seed)
        self.ground_truth = GroundTruth(cluster, kernel)
        self.faults = tuple(faults)
        timeline = FaultTimeline(
            self.faults, [d.device_id for d in cluster.devices()]
        )
        if timeline.failures and len(
            {f.device_id for f in timeline.failures}
        ) == len(timeline.device_ids):
            raise ConfigurationError("cannot fail every device in the cluster")

    def suggest_sample_interval(self, total_units: int) -> float:
        """A deterministic telemetry interval: ~1/128th of the predicted run.

        Uses the ground truth's noise-free per-device throughput on a
        ~1 % block to estimate the makespan — a pure function of the
        cluster and workload, so auto-interval sampling stays
        cache-compatible across sweep replays.
        """
        check_positive_int("total_units", total_units)
        block = max(int(total_units) // 100, 1)
        rate = 0.0
        for device in self.cluster.devices():
            seconds = self.ground_truth.transfer_time(
                device.device_id, block
            ) + self.ground_truth.exec_time(device.device_id, block)
            if seconds > 0.0:
                rate += block / seconds
        if rate <= 0.0:  # pragma: no cover - degenerate ground truth
            return 1e-3
        return max(int(total_units) / rate / 128.0, 1e-9)

    def run(
        self,
        policy: SchedulingPolicy,
        total_units: int,
        initial_block_size: int,
        *,
        sampler=None,
    ) -> tuple[ExecutionTrace, float]:
        """Execute the whole domain under ``policy``.

        Returns ``(trace, makespan_seconds)``.

        ``sampler`` (a single-use
        :class:`~repro.obs.timeseries.ClusterSampler`) records periodic
        virtual-time telemetry; it only observes, so the schedule is
        byte-identical with or without one.  A sampler with an
        unresolved (auto) interval gets
        :meth:`suggest_sample_interval` substituted.

        Raises
        ------
        SchedulingError
            If the policy deadlocks (parks every worker while work
            remains) or violates the protocol (negative block size).
        """
        check_positive_int("total_units", total_units)
        check_positive_int("initial_block_size", initial_block_size)

        devices = self.cluster.devices()
        order = [d.device_id for d in devices]
        engine = Engine()
        domain = BlockDomain(int(total_units))
        trace = ExecutionTrace(order)
        streams = RandomStreams(self.seed)
        timeline = FaultTimeline(self.faults, order, streams)
        down = timeline.down
        transfer_faults = timeline.transfer_faults
        ctx = SchedulingContext(
            devices=tuple(DeviceInfo.from_device(d) for d in devices),
            total_units=int(total_units),
            initial_block_size=int(initial_block_size),
        )
        policy.setup(ctx)

        busy: dict[str, tuple[Task, object]] = {}
        stall_until = 0.0
        task_counter = 0
        last_phase: str | None = None
        # Hot-path string constants, hoisted so the per-task dispatch loop
        # does not rebuild them for every event (the noise keys must stay
        # byte-identical to the historical f-strings for seed stability).
        complete_tag = {w: "complete:" + w for w in order}
        transfer_key = {w: w + "/transfer/" for w in order}
        exec_key = {w: w + "/exec/" for w in order}
        noisy = self.noise_sigma > 0.0
        # data ranges lost to failed devices, awaiting reprocessing
        pending_retry: list[tuple[int, int]] = []
        registry = get_registry()

        def work_remaining() -> int:
            if not pending_retry:
                return domain.remaining
            return domain.remaining + sum(u for _, u in pending_retry)

        def grant(requested: int) -> tuple[int, int]:
            """Serve lost ranges first, then fresh domain data."""
            if pending_retry:
                start, units = pending_retry[0]
                take = min(requested, units)
                if take == units:
                    pending_retry.pop(0)
                else:
                    pending_retry[0] = (start + take, units - take)
                return start, take
            return domain.take(requested)

        def charge_pending() -> None:
            nonlocal stall_until
            overhead = ctx.drain_overhead()
            if overhead > 0.0:
                begin = max(stall_until, engine.now)
                stall_until = begin + overhead
                trace.record_solver_overhead(overhead, begin)
            for _ in range(ctx.drain_rebalances()):
                trace.record_rebalance(engine.now)

        def noise(key: str) -> float:
            return streams.lognormal_factor(key, self.noise_sigma)

        def dispatch_idle() -> None:
            nonlocal task_counter, last_phase
            for worker_id in order:
                if worker_id in busy or worker_id in down:
                    continue
                if work_remaining() == 0:
                    break
                requested = policy.next_block(worker_id, engine.now)
                charge_pending()
                if requested < 0:
                    raise SchedulingError(
                        f"policy {policy.name!r} returned negative block "
                        f"size {requested} for {worker_id}"
                    )
                if requested == 0:
                    continue  # parked until the next completion
                start_unit, granted = grant(requested)
                if granted == 0:
                    continue
                policy.on_block_dispatched(worker_id, granted, engine.now)
                task_counter += 1
                phase = policy.phase_label(worker_id)
                if phase != last_phase:
                    # first dispatch of a new phase: mark the transition so
                    # phase spans cover stalls, not just busy intervals
                    trace.mark_phase(engine.now, phase)
                    last_phase = phase
                    # keep the CPU profiler's phase in step with the
                    # policy's (probe rounds vs. block execution)
                    switch_phase("probe" if phase == "probe" else "execute")
                task = Task(
                    task_id=task_counter,
                    worker_id=worker_id,
                    start_unit=start_unit,
                    units=granted,
                    phase=phase,
                    step=policy.step_index(worker_id),
                    dispatch_time=engine.now,
                    decision=policy.decision_tag(worker_id) or "",
                )
                begin = max(engine.now, stall_until)
                slow = timeline.slowdown_at(worker_id, begin)
                transfer = self.ground_truth.transfer_time(worker_id, granted)
                exec_s = self.ground_truth.exec_time(worker_id, granted) * slow
                if noisy:
                    task_key = str(task.task_id)
                    transfer *= noise(transfer_key[worker_id] + task_key)
                    exec_s *= noise(exec_key[worker_id] + task_key)
                task.transfer_time = transfer
                task.exec_time = exec_s
                task.mark_running(begin)
                if transfer_faults:
                    retry_time, retries, gave_up = timeline.transfer_stall(
                        worker_id, begin, transfer, exec_s
                    )
                    task.retries = retries
                    task.retry_time = retry_time
                    if retries:
                        registry.inc("sim.transfer_retries", retries)
                    if gave_up:
                        registry.inc("sim.transfer_giveups")
                        event = engine.schedule_at(
                            begin + retry_time,
                            partial(transfer_give_up, task),
                            tag="giveup:" + worker_id,
                            payload=task.task_id,
                        )
                        busy[worker_id] = (task, event)
                        if sampler is not None:
                            sampler.on_dispatch(
                                worker_id, begin, begin + retry_time, granted
                            )
                        continue
                end = begin + task.retry_time + transfer + exec_s
                event = engine.schedule_at(
                    end,
                    partial(complete, task),
                    tag=complete_tag[worker_id],
                    payload=task.task_id,
                )
                busy[worker_id] = (task, event)
                if sampler is not None:
                    sampler.on_dispatch(worker_id, begin, end, granted)

        def complete(task: Task) -> None:
            task.mark_done(engine.now)
            del busy[task.worker_id]
            if sampler is not None:
                sampler.on_complete(task.worker_id, task.units)
            record = TaskRecord(
                worker_id=task.worker_id,
                units=task.units,
                dispatch_time=task.dispatch_time,
                transfer_time=task.transfer_time,
                exec_time=task.exec_time,
                start_time=task.start_time,
                end_time=task.end_time,
                phase=task.phase,
                step=task.step,
                start_unit=task.start_unit,
                retries=task.retries,
                retry_time=task.retry_time,
                decision=task.decision,
            )
            trace.add_record(record)
            policy.on_task_finished(record, work_remaining(), engine.now)
            charge_pending()
            dispatch_idle()
            if work_remaining() == 0 and not busy:
                # the run is over: pending fault events (and the
                # sampler's next tick) must not extend the virtual
                # clock past the last completion
                timeline.cancel(engine)
                if sampler is not None:
                    sampler.stop()

        def record_lost(task: Task) -> None:
            # the in-flight block is lost; its range returns to the pool
            pending_retry.append((task.start_unit, task.units))
            trace.record_lost_block(
                engine.now, task.worker_id, task.units, task.start_unit
            )
            if sampler is not None:
                sampler.on_lost(task.worker_id, engine.now)

        def device_down(device_id: str) -> None:
            trace.record_failure(engine.now, device_id)
            registry.inc("sim.device_failures")
            entry = busy.pop(device_id, None)
            if entry is not None:
                task, event = entry
                engine.cancel(event)
                record_lost(task)
            if timeline.stranded:
                raise SchedulingError("every device failed; cannot finish")
            policy.on_device_failed(device_id, engine.now)
            charge_pending()
            dispatch_idle()

        def transfer_give_up(task: Task) -> None:
            # drop the stalled task before going down so device_down does
            # not try to cancel its (already-fired) give-up event
            del busy[task.worker_id]
            record_lost(task)
            if timeline.fail(task.worker_id, permanent=True):
                device_down(task.worker_id)

        def device_up(device_id: str) -> None:
            trace.record_recovery(engine.now, device_id)
            registry.inc("sim.device_recoveries")
            policy.on_device_recovered(device_id, engine.now)
            charge_pending()
            dispatch_idle()

        timeline.schedule(engine, device_down, device_up)
        dispatch_idle()
        if not engine.queue and work_remaining() > 0:
            raise SchedulingError(
                f"policy {policy.name!r} parked every worker at t=0 with "
                f"{work_remaining()} units unprocessed"
            )
        if sampler is not None:
            # started after the parked-at-t=0 check so an empty queue
            # still means "no work was dispatched", and the sampler's
            # first tick can never outlive the run it observes
            if not sampler.interval:
                sampler.interval = self.suggest_sample_interval(total_units)
            sampler.start(
                engine,
                devices=order,
                total_units=int(total_units),
                work_remaining=work_remaining,
            )
        engine.run()

        if work_remaining() > 0:
            raise SchedulingError(
                f"policy {policy.name!r} deadlocked: {work_remaining()} of "
                f"{domain.total_units} units unprocessed with all workers idle"
            )
        if busy:
            raise SimulationError(
                f"engine drained with busy workers: {sorted(busy)}"
            )
        trace.finalize(max((r.end_time for r in trace.records), default=engine.now))
        if sampler is not None:
            # the closing sample lands exactly on the makespan, so the
            # per-device utilization integral matches the trace's busy time
            sampler.finish(trace.makespan)
        return trace, trace.makespan
