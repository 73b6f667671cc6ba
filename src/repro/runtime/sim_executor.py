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

from dataclasses import dataclass
from functools import partial
from typing import Sequence

from repro.cluster.perfmodel import GroundTruth, KernelCharacteristics
from repro.cluster.topology import Cluster
from repro.errors import ConfigurationError, SchedulingError, SimulationError
from repro.obs.metrics import get_registry
from repro.obs.profiler import switch_phase
from repro.runtime.data import BlockDomain
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

__all__ = [
    "Fault",
    "Perturbation",
    "DeviceFailure",
    "TransientFailure",
    "TransferFault",
    "SimulatedExecutor",
    "slowdown_at",
    "transfer_fault_at",
]


class Fault:
    """An injected fault; its kind's ``TAG`` is the ``"type"`` of its JSON form."""

    TAG = ""


@dataclass(frozen=True)
class Perturbation(Fault):
    """A mid-run change of one device's speed.

    Models the paper's Sec. VI scenarios (shared clouds, degraded
    nodes): from ``start_time`` on, the device's execution times are
    multiplied by ``factor`` (> 1 slows it down, < 1 speeds it up).
    """

    TAG = "perturbation"

    device_id: str
    start_time: float
    factor: float

    def __post_init__(self) -> None:
        check_positive("factor", self.factor)
        check_positive("start_time", self.start_time, strict=False)


@dataclass(frozen=True)
class DeviceFailure(Fault):
    """A device becomes permanently unavailable mid-run.

    The paper's Sec. VI fault-tolerance outlook: "machines may become
    unavailable during execution ... a simple redistribution of the data
    among the remaining devices would permit the application to
    re-adapt."  At ``time`` the device stops; its in-flight block (if
    any) is lost and its data range returns to the pool for the
    surviving devices to reprocess.
    """

    TAG = "failure"

    device_id: str
    time: float

    def __post_init__(self) -> None:
        check_positive("time", self.time, strict=False)


@dataclass(frozen=True)
class TransientFailure(Fault):
    """A device goes down at ``time`` and returns at ``time + downtime``.

    The Sec. VI "machines may become unavailable" scenario without the
    permanence: while down, the device behaves exactly like a failed one
    (its in-flight block is lost, the policy's ``on_device_failed`` hook
    fires, the runtime stops polling it).  At ``time + downtime`` the
    policy's :meth:`~repro.runtime.scheduler_api.SchedulingPolicy.\
on_device_recovered` hook fires and polling resumes.  A permanent
    :class:`DeviceFailure` for the same device suppresses the recovery.
    Overlapping transient windows on one device are not modelled: the
    first recovery revives it.
    """

    TAG = "transient"

    device_id: str
    time: float
    downtime: float

    def __post_init__(self) -> None:
        check_positive("time", self.time, strict=False)
        check_positive("downtime", self.downtime)


@dataclass(frozen=True)
class TransferFault(Fault):
    """Transfers to one device fail during ``[time, time + duration)``.

    A dispatch whose transfer would start inside the window stalls: the
    runtime retries with a per-attempt timeout and capped exponential
    backoff, charging the stall to the trace (the worker's busy interval
    grows by ``retry_time``; ``TaskRecord.retries`` counts the
    attempts).  When ``max_retries`` attempts all land inside the
    window, the runtime gives up: the block is lost back to the pool
    and the device is marked permanently failed — the same observable a
    host sees when a PCIe link or NIC wedges for good.

    Timeout and backoff are expressed as factors of the block's nominal
    transfer time (attempt ``i`` costs ``timeout_factor + min(
    backoff_factor * 2**i, backoff_cap_factor)`` transfer times), so the
    fault scales with the workload instead of hard-coding seconds.

    ``jitter`` spreads each backoff by a seeded multiplicative factor in
    ``[1 - jitter, 1 + jitter]``: blocks that fail together stop
    retrying in lock-step, so a wide fault window no longer produces a
    synchronized retry storm the instant it lifts.  The draw is keyed by
    (device, dispatch time, attempt) off the run's root seed, so retry
    timelines stay bit-reproducible — and ``jitter == 0`` (the default)
    consumes no randomness at all, leaving jitter-free runs
    byte-identical to before the knob existed.
    """

    TAG = "transfer"

    device_id: str
    time: float
    duration: float
    max_retries: int = 4
    timeout_factor: float = 2.0
    backoff_factor: float = 1.0
    backoff_cap_factor: float = 8.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        check_positive("time", self.time, strict=False)
        check_positive("duration", self.duration)
        check_positive_int("max_retries", self.max_retries)
        check_positive("timeout_factor", self.timeout_factor)
        check_positive("backoff_factor", self.backoff_factor)
        if self.backoff_cap_factor < self.backoff_factor:
            raise ConfigurationError(
                f"backoff_cap_factor ({self.backoff_cap_factor}) must be >= "
                f"backoff_factor ({self.backoff_factor})"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1), got {self.jitter}"
            )


def slowdown_at(
    perturbations: Sequence[Perturbation], device_id: str, now: float
) -> float:
    """The execution-time factor of ``device_id`` at ``now``: the
    product of every perturbation of it that has started."""
    factor = 1.0
    for p in perturbations:
        if p.device_id == device_id and now >= p.start_time:
            factor *= p.factor
    return factor


def transfer_fault_at(
    transfer_faults: Sequence[TransferFault], device_id: str, now: float
) -> TransferFault | None:
    """The first transfer-fault window on ``device_id`` open at ``now``."""
    for tf in transfer_faults:
        if (
            tf.device_id == device_id
            and tf.time <= now < tf.time + tf.duration
        ):
            return tf
    return None


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
    perturbations:
        Optional mid-run device slowdowns.
    failures:
        Optional permanent device failures.
    transients:
        Optional transient device outages (down, then recovered).
    transfer_faults:
        Optional windows during which transfers to a device stall.
    """

    def __init__(
        self,
        cluster: Cluster,
        kernel: KernelCharacteristics,
        *,
        noise_sigma: float = 0.005,
        seed: int = 0,
        perturbations: tuple[Perturbation, ...] = (),
        failures: tuple[DeviceFailure, ...] = (),
        transients: tuple[TransientFailure, ...] = (),
        transfer_faults: tuple[TransferFault, ...] = (),
    ) -> None:
        check_positive("noise_sigma", noise_sigma, strict=False)
        self.cluster = cluster
        self.kernel = kernel
        self.noise_sigma = float(noise_sigma)
        self.seed = int(seed)
        self.ground_truth = GroundTruth(cluster, kernel)
        self.perturbations = tuple(perturbations)
        self.failures = tuple(failures)
        self.transients = tuple(transients)
        self.transfer_faults = tuple(transfer_faults)
        device_ids = {d.device_id for d in cluster.devices()}
        for kind, faults in (
            ("perturbation", self.perturbations),
            ("failure", self.failures),
            ("transient failure", self.transients),
            ("transfer fault", self.transfer_faults),
        ):
            for f in faults:
                if f.device_id not in device_ids:
                    raise ConfigurationError(
                        f"{kind} targets unknown device {f.device_id!r}"
                    )
        if self.failures and len(
            {f.device_id for f in self.failures}
        ) == len(device_ids):
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
        failed: set[str] = set()
        # Hot-path string constants, hoisted so the per-task dispatch loop
        # does not rebuild them for every event (the noise keys must stay
        # byte-identical to the historical f-strings for seed stability).
        complete_tag = {w: "complete:" + w for w in order}
        transfer_key = {w: w + "/transfer/" for w in order}
        exec_key = {w: w + "/exec/" for w in order}
        noisy = self.noise_sigma > 0.0
        # data ranges lost to failed devices, awaiting reprocessing
        pending_retry: list[tuple[int, int]] = []
        fault_events: list = []
        # devices that will never come back (DeviceFailure or transfer
        # give-up), as opposed to `failed` which also holds transient downs
        perm_failed: set[str] = set()
        pending_recoveries = 0
        registry = get_registry()

        def work_remaining() -> int:
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

        def transfer_stall(
            worker_id: str, begin: float, transfer: float, exec_s: float
        ) -> tuple[float, int, bool]:
            """Walk the retry timeline through any transfer-fault window.

            Returns ``(retry_time, retries, gave_up)``.  The timeline is
            deterministic: attempt ``i`` burns ``timeout_factor`` transfer
            times waiting, then ``min(backoff * 2**i, cap)`` backing off;
            the transfer succeeds at the first attempt that starts outside
            every fault window, or the device gives up after
            ``max_retries`` in-window attempts.
            """
            retry_time = 0.0
            retries = 0
            t = begin
            while True:
                fault = transfer_fault_at(self.transfer_faults, worker_id, t)
                if fault is None:
                    return retry_time, retries, False
                # master-local devices have zero transfer time; scale the
                # stall off the execution time so the fault still bites
                base = transfer if transfer > 0.0 else 0.1 * exec_s
                if base <= 0.0:
                    return retry_time, retries, False
                if retries >= fault.max_retries:
                    return retry_time, retries, True
                backoff = min(
                    fault.backoff_factor * 2.0**retries,
                    fault.backoff_cap_factor,
                )
                if fault.jitter > 0.0:
                    # keyed per (device, dispatch, attempt): concurrent
                    # failures desynchronize, identical seeds replay the
                    # exact same spread
                    spread = streams.stream(
                        f"{worker_id}/transfer_backoff/{begin!r}/{retries}"
                    ).uniform(-1.0, 1.0)
                    backoff *= 1.0 + fault.jitter * float(spread)
                retry_time += (fault.timeout_factor + backoff) * base
                retries += 1
                t = begin + retry_time

        def dispatch_idle() -> None:
            nonlocal task_counter, last_phase
            for worker_id in order:
                if worker_id in busy or worker_id in failed:
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
                slow = slowdown_at(self.perturbations, worker_id, begin)
                transfer = self.ground_truth.transfer_time(worker_id, granted)
                exec_s = self.ground_truth.exec_time(worker_id, granted) * slow
                if noisy:
                    task_key = str(task.task_id)
                    transfer *= noise(transfer_key[worker_id] + task_key)
                    exec_s *= noise(exec_key[worker_id] + task_key)
                task.transfer_time = transfer
                task.exec_time = exec_s
                task.mark_running(begin)
                if self.transfer_faults:
                    retry_time, retries, gave_up = transfer_stall(
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
                for ev in fault_events:
                    engine.cancel(ev)
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

        def mark_down(device_id: str, *, permanent: bool) -> None:
            if device_id in failed:
                # already down (e.g. a permanent failure landing inside a
                # transient window): upgrade to permanent without notifying
                # the policy a second time
                if permanent:
                    perm_failed.add(device_id)
                return
            failed.add(device_id)
            if permanent:
                perm_failed.add(device_id)
            trace.record_failure(engine.now, device_id)
            registry.inc("sim.device_failures")
            entry = busy.pop(device_id, None)
            if entry is not None:
                task, event = entry
                engine.cancel(event)
                record_lost(task)
            if len(failed) == len(order) and pending_recoveries == 0:
                raise SchedulingError("every device failed; cannot finish")
            policy.on_device_failed(device_id, engine.now)
            charge_pending()
            dispatch_idle()

        def fail_device(failure: DeviceFailure) -> None:
            mark_down(failure.device_id, permanent=True)

        def transient_down(fault: TransientFailure) -> None:
            mark_down(fault.device_id, permanent=False)

        def transfer_give_up(task: Task) -> None:
            # drop the stalled task before going down so mark_down does
            # not try to cancel its (already-fired) give-up event
            del busy[task.worker_id]
            record_lost(task)
            mark_down(task.worker_id, permanent=True)

        def recover_device(fault: TransientFailure) -> None:
            nonlocal pending_recoveries
            pending_recoveries -= 1
            if fault.device_id in perm_failed or fault.device_id not in failed:
                return
            failed.discard(fault.device_id)
            trace.record_recovery(engine.now, fault.device_id)
            registry.inc("sim.device_recoveries")
            policy.on_device_recovered(fault.device_id, engine.now)
            charge_pending()
            dispatch_idle()

        for failure in self.failures:
            fault_events.append(
                engine.schedule_at(
                    failure.time,
                    lambda f=failure: fail_device(f),
                    tag=f"fail:{failure.device_id}",
                )
            )
        for tr in self.transients:
            pending_recoveries += 1
            fault_events.append(
                engine.schedule_at(
                    tr.time,
                    lambda f=tr: transient_down(f),
                    tag=f"down:{tr.device_id}",
                )
            )
            fault_events.append(
                engine.schedule_at(
                    tr.time + tr.downtime,
                    lambda f=tr: recover_device(f),
                    tag=f"recover:{tr.device_id}",
                )
            )

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
