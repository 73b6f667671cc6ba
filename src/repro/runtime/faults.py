"""The Sec. VI fault model: what a slowdown, an outage or a wedged transfer does.

Both executors — the batch
:class:`~repro.runtime.sim_executor.SimulatedExecutor` and the online
:class:`~repro.service.server.ClusterService` — take one mixed fault
tuple and build one :class:`FaultTimeline` from it.  The timeline
validates the faults, answers a device's slowdown and a transfer's
retry timeline at any instant, schedules the down and up events, and
keeps the down / permanently-down / pending-recovery state.  What an
executor does *in reaction* to a down or an up (trace records and
policy hooks in batch; breakers and retry budgets in serve) stays with
the executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

from repro.errors import ConfigurationError
from repro.sim.engine import Engine
from repro.sim.random import RandomStreams
from repro.util.validation import check_positive, check_positive_int

__all__ = [
    "Fault",
    "Perturbation",
    "DeviceFailure",
    "TransientFailure",
    "TransferFault",
    "FaultTimeline",
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
    executor retries with a per-attempt timeout and capped exponential
    backoff, and the block completes ``retry_time`` late (batch records
    the stall in ``TaskRecord.retry_time`` and counts the attempts in
    ``TaskRecord.retries``).  When ``max_retries`` attempts all land
    inside the window, the executor gives up: the block is lost and the
    device is marked permanently failed — the same observable a host
    sees when a PCIe link or NIC wedges for good.

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


class FaultTimeline:
    """One run's faults and what each does, built once from its fault tuple.

    ``streams`` (the run's :class:`~repro.sim.random.RandomStreams`)
    draws the transfer-backoff jitter; a timeline built only to validate
    a fault tuple needs none.  The down state is shared by every
    executor: :attr:`down` holds the devices that are down now,
    :attr:`perm_down` those that will never come back, and
    :attr:`pending_recoveries` counts the recoveries still scheduled.
    """

    def __init__(
        self,
        faults: Iterable[Fault],
        device_ids: Iterable[str],
        streams: RandomStreams | None = None,
    ) -> None:
        kinds = (Perturbation, DeviceFailure, TransientFailure, TransferFault)
        found: dict[type, list] = {kind: [] for kind in kinds}
        self.device_ids = tuple(device_ids)
        for fault in faults:
            if type(fault) not in found:
                raise ConfigurationError(f"unknown fault object {fault!r}")
            if fault.device_id not in self.device_ids:
                raise ConfigurationError(
                    f"{type(fault).__name__} targets unknown device "
                    f"{fault.device_id!r}"
                )
            found[type(fault)].append(fault)
        # each kind in tuple order: equal-time events keep their order
        (
            self.perturbations, self.failures, self.transients,
            self.transfer_faults,
        ) = (tuple(found[kind]) for kind in kinds)
        self._streams = streams
        self.down: set[str] = set()
        self.perm_down: set[str] = set()
        self.pending_recoveries = 0
        self._events: list = []

    # ---- what a fault does at an instant -----------------------------

    def slowdown_at(self, device_id: str, now: float) -> float:
        """The execution-time factor of ``device_id`` at ``now``: the
        product of every perturbation of it that has started."""
        factor = 1.0
        for p in self.perturbations:
            if p.device_id == device_id and now >= p.start_time:
                factor *= p.factor
        return factor

    def transfer_fault_at(
        self, device_id: str, now: float
    ) -> TransferFault | None:
        """The first transfer-fault window on ``device_id`` open at ``now``."""
        for tf in self.transfer_faults:
            if (
                tf.device_id == device_id
                and tf.time <= now < tf.time + tf.duration
            ):
                return tf
        return None

    def transfer_stall(
        self, device_id: str, begin: float, transfer: float, exec_s: float
    ) -> tuple[float, int, bool]:
        """Walk the retry timeline of a transfer that starts at ``begin``.

        Returns ``(retry_time, retries, gave_up)``.  Attempt ``i`` burns
        ``timeout_factor`` transfer times waiting, then ``min(backoff *
        2**i, cap)`` backing off; the transfer succeeds at the first
        attempt that starts outside every fault window, or the device
        gives up after ``max_retries`` in-window attempts.
        """
        retry_time = 0.0
        retries = 0
        t = begin
        while True:
            fault = self.transfer_fault_at(device_id, t)
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
                spread = self._streams.stream(
                    f"{device_id}/transfer_backoff/{begin!r}/{retries}"
                ).uniform(-1.0, 1.0)
                backoff *= 1.0 + fault.jitter * float(spread)
            retry_time += (fault.timeout_factor + backoff) * base
            retries += 1
            t = begin + retry_time

    # ---- downs and ups -----------------------------------------------

    def schedule(
        self,
        engine: Engine,
        on_down: Callable[[str], None],
        on_up: Callable[[str], None],
    ) -> None:
        """Schedule every failure, then each transient's down and up.

        Each kind keeps its tuple order, so equal-time events keep their
        tie-break order.  ``on_down(device)`` runs when a down is news
        (see :meth:`fail`); ``on_up(device)`` when a device that is down,
        and not for good, comes back.
        """
        for f in self.failures:
            self._events.append(
                engine.schedule_at(
                    f.time,
                    partial(self._down, f.device_id, True, on_down),
                    tag="fail:" + f.device_id,
                )
            )
        for f in self.transients:
            self.pending_recoveries += 1
            self._events.append(
                engine.schedule_at(
                    f.time,
                    partial(self._down, f.device_id, False, on_down),
                    tag="down:" + f.device_id,
                )
            )
            self._events.append(
                engine.schedule_at(
                    f.time + f.downtime,
                    partial(self._up, f.device_id, on_up),
                    tag="recover:" + f.device_id,
                )
            )

    def cancel(self, engine: Engine) -> None:
        """Cancel the down and up events that have not fired."""
        for event in self._events:
            engine.cancel(event)
        self._events.clear()

    def fail(self, device_id: str, *, permanent: bool) -> bool:
        """Take ``device_id`` down; True when the executor must react.

        A second down of a device that is already down (a failure inside
        a transient window, say) only upgrades it to permanent.
        """
        if permanent:
            self.perm_down.add(device_id)
        if device_id in self.down:
            return False
        self.down.add(device_id)
        return True

    @property
    def stranded(self) -> bool:
        """Every device is down and no recovery is scheduled."""
        return (
            len(self.down) == len(self.device_ids)
            and self.pending_recoveries == 0
        )

    def _down(
        self, device_id: str, permanent: bool, react: Callable[[str], None]
    ) -> None:
        if self.fail(device_id, permanent=permanent):
            react(device_id)

    def _up(self, device_id: str, react: Callable[[str], None]) -> None:
        self.pending_recoveries -= 1
        if device_id in self.perm_down or device_id not in self.down:
            return
        self.down.discard(device_id)
        react(device_id)
