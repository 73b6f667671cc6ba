"""The scheduling-policy protocol.

StarPU lets schedulers hook task dispatch and completion; the paper's
Algorithm 2 is written against exactly two hooks — "give this worker a
task" and ``FinishedTaskExecution``.  The protocol here mirrors that:

* :meth:`SchedulingPolicy.next_block` — called whenever a worker is
  idle and work remains.  Return the block size (units) to dispatch, or
  0 to *park* the worker (used by synchronising phases).  Parked
  workers are re-polled after every completion.
* :meth:`SchedulingPolicy.on_task_finished` — called with the completed
  task's :class:`~repro.sim.trace.TaskRecord` (measured transfer and
  execution times — the policy's only window into device performance).

Policies charge their own decision overhead (model fitting, the
interior-point solve) through
:meth:`SchedulingContext.charge_overhead`; the executor serialises
subsequent dispatches behind it, so "thinking time" shows up in the
makespan exactly as the paper's 170 ms solver calls did.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.cluster.device import Device, DeviceKind
from repro.errors import SchedulingError
from repro.sim.trace import TaskRecord
from repro.util.stats import left_sum

__all__ = ["DeviceInfo", "SchedulingContext", "SchedulingPolicy"]


@dataclass(frozen=True)
class DeviceInfo:
    """Public facts about a processing unit (safe for policies to see)."""

    device_id: str
    kind: DeviceKind
    machine_name: str
    model: str

    @classmethod
    def from_device(cls, device: Device) -> "DeviceInfo":
        return cls(
            device_id=device.device_id,
            kind=device.kind,
            machine_name=device.machine_name,
            model=device.model,
        )


@dataclass
class SchedulingContext:
    """Everything a policy may know about the run.

    Attributes
    ----------
    devices:
        Public device facts, in dispatch-polling order.
    total_units:
        Size of the data domain.
    initial_block_size:
        The user-chosen probe size every algorithm starts from (the
        paper uses the same value for all algorithms).
    """

    devices: tuple[DeviceInfo, ...]
    total_units: int
    initial_block_size: int
    _overhead_charges: list[tuple[float, str]] = field(default_factory=list)
    _rebalance_notes: int = 0

    def __post_init__(self) -> None:
        if self.total_units <= 0:
            raise SchedulingError("total_units must be positive")
        if self.initial_block_size <= 0:
            raise SchedulingError("initial_block_size must be positive")
        if not self.devices:
            raise SchedulingError("a run needs at least one device")

    @property
    def device_ids(self) -> tuple[str, ...]:
        """Processing-unit ids in polling order."""
        return tuple(d.device_id for d in self.devices)

    def note_rebalance(self) -> None:
        """Tell the runtime a rebalancing pass just ran (trace annotation)."""
        self._rebalance_notes += 1

    def drain_rebalances(self) -> int:
        """Executor-side: collect and clear pending rebalance notes."""
        count = self._rebalance_notes
        self._rebalance_notes = 0
        return count

    def charge_overhead(self, seconds: float, label: str = "") -> None:
        """Charge scheduler decision time to the run.

        The executor drains the charges after each policy callback and
        delays subsequent dispatches by their sum.
        """
        if seconds < 0.0:
            raise SchedulingError(f"overhead must be >= 0, got {seconds}")
        if seconds > 0.0:
            self._overhead_charges.append((float(seconds), label))

    def drain_overhead(self) -> float:
        """Executor-side: collect and clear pending overhead charges."""
        if not self._overhead_charges:
            return 0.0
        total = left_sum(s for s, _ in self._overhead_charges)
        self._overhead_charges.clear()
        return total


class SchedulingPolicy(abc.ABC):
    """Base class of every load-balancing algorithm in this library."""

    #: short name used in reports ("plb-hec", "greedy", "hdss", "acosta")
    name: str = "policy"

    def setup(self, ctx: SchedulingContext) -> None:
        """Called once before the run starts.  Default: store the context."""
        self.ctx = ctx

    @abc.abstractmethod
    def next_block(self, worker_id: str, now: float) -> int:
        """Units to dispatch to an idle worker, or 0 to park it.

        Must not exceed the domain's remaining units by design — the
        executor clamps, and the policy sees the clamped size in the
        completion record.
        """

    def on_block_dispatched(
        self, worker_id: str, granted_units: int, now: float
    ) -> None:
        """Confirm a successful dispatch.

        Called synchronously after ``next_block`` whenever the domain
        actually granted units (the grant may be smaller than requested
        at the tail of the domain).  If a request could not be granted
        at all — the domain ran dry between the poll and the take — no
        confirmation arrives and the worker simply idles, so barrier
        bookkeeping must key off this hook, not off ``next_block``.
        Default: no-op.
        """

    def on_task_finished(
        self, record: TaskRecord, remaining: int, now: float
    ) -> None:
        """Observe a completion.  Default: no-op."""

    def on_device_failed(self, device_id: str, now: float) -> None:
        """A device became permanently unavailable (Sec. VI scenario).

        The runtime will never poll the device again; any in-flight
        block it held has returned to the work pool.  Policies holding
        per-device state (barriers, assignments) must forget the device
        here or they will deadlock waiting for it.  Default: no-op —
        sufficient for stateless self-schedulers like Greedy.
        """

    def on_device_recovered(self, device_id: str, now: float) -> None:
        """A transiently-failed device came back online.

        Fired by :class:`~repro.runtime.faults.TransientFailure`
        at ``time + downtime``.  The runtime resumes polling the device
        immediately after this hook; policies that dropped the device in
        :meth:`on_device_failed` should fold it back into their
        assignments here (PLB-HeC restores the device's profile and
        re-solves the partition).  Default: no-op — the device then
        competes for work under whatever the policy answers
        ``next_block`` with, which is already correct for stateless
        self-schedulers.
        """

    def decision_tag(self, worker_id: str) -> str | None:
        """Ledger id of the decision governing this worker's next block.

        Called by the executor at dispatch time, right after
        :meth:`on_block_dispatched`; the id is stamped onto the task and
        travels into its completion :class:`~repro.sim.trace.TaskRecord`
        so the policy can attribute the observed block time back to the
        decision that sized it — even if the governing decision changed
        while the block was in flight.  Default: None (no ledger).
        """
        return None

    def phase_label(self, worker_id: str) -> str:
        """Trace phase label for the next block of this worker."""
        return "exec"

    def step_index(self, worker_id: str) -> int:
        """Trace step index for the next block of this worker."""
        return 0
