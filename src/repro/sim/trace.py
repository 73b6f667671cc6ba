"""Execution traces: the measured side of every experiment.

The trace recorder captures what the paper's instrumentation captured:

* per-task records (who ran what size, when, for how long) — the input to
  the block-size-distribution analysis (Fig. 6);
* per-worker busy intervals — the input to the idleness analysis (Fig. 7)
  and to Gantt rendering (Fig. 3);
* phase marks and rebalance/solver events — the input to the overhead
  accounting (Sec. V.a).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable

__all__ = ["TaskRecord", "BusyInterval", "ExecutionTrace"]


@dataclass(frozen=True)
class TaskRecord:
    """One completed block execution on one processing unit.

    Attributes
    ----------
    worker_id:
        Stable identifier of the processing unit (e.g. ``"A.gpu0"``).
    units:
        Block size in application units (rows / genes / options).
    dispatch_time:
        Virtual time at which the block was handed to the worker.
    transfer_time:
        Seconds spent moving the block's data to the device.
    exec_time:
        Seconds spent computing (excludes transfer).
    start_time / end_time:
        Busy interval covered by the task (transfer + execution).
    phase:
        Phase label assigned by the scheduling policy (``"probe"``,
        ``"exec"``, ...).
    step:
        Dispatch round index within the phase, policy-defined.
    start_unit:
        First unit of the block's contiguous data range, or -1 for
        records predating range tracking (the work-conservation
        invariants need the exact tiling, not just the totals).
    retries / retry_time:
        Transfer-retry attempts survived before the block ran, and the
        seconds those attempts stalled the worker (part of the busy
        interval but not of ``total_time`` — the retries moved no data).
    decision:
        Ledger id of the scheduler decision that placed this block
        (:mod:`repro.obs.ledger`); empty when the policy keeps no
        ledger.  Stamped at dispatch time by the executor, so a block
        completing after a later rebalance still attributes to the
        decision that actually sized it.
    """

    worker_id: str
    units: int
    dispatch_time: float
    transfer_time: float
    exec_time: float
    start_time: float
    end_time: float
    phase: str = "exec"
    step: int = 0
    start_unit: int = -1
    retries: int = 0
    retry_time: float = 0.0
    decision: str = ""

    @property
    def total_time(self) -> float:
        """Transfer + execution seconds."""
        return self.transfer_time + self.exec_time


@dataclass(frozen=True)
class BusyInterval:
    """A half-open interval [start, end) during which a worker was busy."""

    worker_id: str
    start: float
    end: float
    phase: str = "exec"

    @property
    def duration(self) -> float:
        return self.end - self.start


class ExecutionTrace:
    """Accumulates task records and derives the paper's measurements."""

    def __init__(self, worker_ids: Iterable[str]) -> None:
        self.worker_ids: list[str] = list(worker_ids)
        if len(set(self.worker_ids)) != len(self.worker_ids):
            raise ValueError("duplicate worker ids in trace")
        self.records: list[TaskRecord] = []
        self.phase_marks: list[tuple[float, str]] = []
        self.rebalance_times: list[float] = []
        self.solver_overheads: list[float] = []
        self.solver_overhead_times: list[float] = []
        self.failures: list[tuple[float, str]] = []
        self.recoveries: list[tuple[float, str]] = []
        self.lost_blocks: list[tuple[float, str, int, int]] = []
        self.makespan: float = 0.0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def add_record(self, record: TaskRecord) -> None:
        """Record one completed task."""
        if record.worker_id not in self.worker_ids:
            raise ValueError(f"unknown worker {record.worker_id!r}")
        if record.end_time < record.start_time:
            raise ValueError("task record ends before it starts")
        self.records.append(record)
        self.makespan = max(self.makespan, record.end_time)

    def mark_phase(self, time: float, name: str) -> None:
        """Note that the policy entered phase ``name`` at ``time``."""
        self.phase_marks.append((time, name))

    def record_rebalance(self, time: float) -> None:
        """Note that a rebalancing pass ran at ``time``."""
        self.rebalance_times.append(time)

    def record_solver_overhead(self, seconds: float, time: float = 0.0) -> None:
        """Charge one model-fit + partition-solve overhead.

        ``time`` is the virtual time at which the charge was applied —
        the start of the dispatch stall it causes.  Recording it lets
        the trace exporter draw the overhead as a span on the scheduler
        track instead of a bare total.
        """
        self.solver_overheads.append(seconds)
        self.solver_overhead_times.append(time)

    def record_failure(self, time: float, device_id: str) -> None:
        """Note that a device went down at ``time``.

        Permanent failures and transient downtimes both land here; a
        later :meth:`record_recovery` for the same device marks the
        downtime as transient.
        """
        self.failures.append((time, device_id))

    def record_recovery(self, time: float, device_id: str) -> None:
        """Note that a transiently-failed device came back at ``time``."""
        self.recoveries.append((time, device_id))

    def record_lost_block(
        self, time: float, device_id: str, units: int, start_unit: int = -1
    ) -> None:
        """Note that ``units`` in flight on ``device_id`` were lost.

        The range returns to the pool and is reprocessed elsewhere; the
        resilience invariants reconcile these entries against the
        completed records.  ``start_unit`` pins the lost contiguous
        range so the critical-path analysis can classify the later
        re-execution of those exact units as rework (-1 when the caller
        does not track ranges).
        """
        self.lost_blocks.append((time, device_id, int(units), int(start_unit)))

    def finalize(self, end_time: float) -> None:
        """Set the run's final makespan (call once, at completion)."""
        self.makespan = max(self.makespan, end_time)

    # ------------------------------------------------------------------
    # derived measurements
    # ------------------------------------------------------------------
    def busy_intervals(self, worker_id: str) -> list[BusyInterval]:
        """Busy intervals of one worker in start order (Gantt row)."""
        rows = [
            BusyInterval(r.worker_id, r.start_time, r.end_time, r.phase)
            for r in self.records
            if r.worker_id == worker_id
        ]
        rows.sort(key=lambda b: b.start)
        return rows

    def busy_time(self, worker_id: str) -> float:
        """Total busy seconds of one worker."""
        # left to right from 0, as repro.util.stats.left_sum adds (which
        # this module cannot import: repro.util imports it)
        total = 0
        for b in self.busy_intervals(worker_id):
            total += b.duration
        return total

    def idle_fraction(self, worker_id: str) -> float:
        """Fraction of the run during which the worker sat idle.

        Defined, as in Fig. 7, relative to total execution time
        (the makespan).  0.0 for a zero-length run.
        """
        if self.makespan <= 0.0:
            return 0.0
        frac = 1.0 - self.busy_time(worker_id) / self.makespan
        return min(max(frac, 0.0), 1.0)

    def idle_fractions(self) -> dict[str, float]:
        """Idle fraction for every worker."""
        return {w: self.idle_fraction(w) for w in self.worker_ids}

    def allocated_units(self, *, phase: str | None = None) -> dict[str, int]:
        """Units processed per worker, optionally restricted to a phase."""
        out = {w: 0 for w in self.worker_ids}
        for r in self.records:
            if phase is None or r.phase == phase:
                out[r.worker_id] += r.units
        return out

    def distribution(self, *, phase: str | None = None, step: int | None = None) -> dict[str, float]:
        """Normalised share of units per worker (Fig. 6 measurement).

        Restricting to a ``step`` gives the per-dispatch-round share, which
        is what the paper plots ("ratio of total data allocated on a single
        step").
        """
        out = {w: 0.0 for w in self.worker_ids}
        total = 0
        for r in self.records:
            if phase is not None and r.phase != phase:
                continue
            if step is not None and r.step != step:
                continue
            out[r.worker_id] += r.units
            total += r.units
        if total > 0:
            for w in out:
                out[w] /= total
        return out

    def total_units(self) -> int:
        """Units processed across all workers."""
        return sum(r.units for r in self.records)

    def records_for(self, worker_id: str) -> list[TaskRecord]:
        """All task records of one worker in completion order."""
        return sorted(
            (r for r in self.records if r.worker_id == worker_id),
            key=lambda r: r.end_time,
        )

    def phase_span(self, name: str) -> tuple[float, float] | None:
        """Return (start, end) of the named phase, if it was marked.

        The end is the next phase mark's time, or the makespan for the
        final phase.
        """
        marks = sorted(self.phase_marks)
        for i, (t, phase_name) in enumerate(marks):
            if phase_name == name:
                end = marks[i + 1][0] if i + 1 < len(marks) else self.makespan
                return (t, end)
        return None

    def gantt(self) -> dict[str, list[tuple[float, float, str]]]:
        """Gantt data: per worker, a list of (start, end, phase) tuples."""
        return {
            w: [(b.start, b.end, b.phase) for b in self.busy_intervals(w)]
            for w in self.worker_ids
        }

    def down_windows(self) -> list[tuple[str, float, float | None]]:
        """``(device, t_down, t_up)`` of every failure, in record order.

        A failure pairs with the first recovery of the same device at or
        after it; ``t_up`` is None when none follows (a permanent failure).
        """
        windows: list[tuple[str, float, float | None]] = []
        for t_down, device in self.failures:
            ups = [t for t, d in self.recoveries if d == device and t >= t_down]
            windows.append((device, t_down, min(ups, default=None)))
        return windows

    @property
    def num_rebalances(self) -> int:
        """How many threshold-triggered rebalances the policy executed."""
        return len(self.rebalance_times)

    @property
    def total_solver_overhead(self) -> float:
        """Summed model-fit/solve overhead seconds charged to the run."""
        total = 0
        for seconds in self.solver_overheads:  # as busy_time adds
            total += seconds
        return total

    def phase_summary(self) -> dict[str, dict[str, float]]:
        """Per-phase aggregates: units, busy seconds, wall span, share.

        Returns ``{phase: {units, busy_s, span_s, unit_share}}``, the
        numbers behind statements like "the initial phase took ~10 % of
        the execution time".

        ``span_s`` prefers the policy's explicit :meth:`mark_phase`
        marks (via :meth:`phase_span`) when a mark with the phase's name
        exists: task records only cover busy intervals, so a phase with
        dispatch gaps (a barrier drain, a solver stall) under-reports
        its wall span when derived from records alone.  Phases never
        marked fall back to the record-derived envelope.
        """
        phases: dict[str, dict[str, float]] = {}
        total_units = max(self.total_units(), 1)
        for r in self.records:
            agg = phases.setdefault(
                r.phase,
                {"units": 0.0, "busy_s": 0.0, "start": r.start_time,
                 "end": r.end_time},
            )
            agg["units"] += r.units
            agg["busy_s"] += r.total_time
            agg["start"] = min(agg["start"], r.start_time)
            agg["end"] = max(agg["end"], r.end_time)
        marked = {name for _, name in self.phase_marks}
        summary: dict[str, dict[str, float]] = {}
        for name, agg in phases.items():
            span_s = agg["end"] - agg["start"]
            if name in marked:
                span = self.phase_span(name)
                if span is not None:
                    span_s = span[1] - span[0]
            summary[name] = {
                "units": agg["units"],
                "busy_s": agg["busy_s"],
                "span_s": span_s,
                "unit_share": agg["units"] / total_units,
            }
        return summary

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialise the trace to JSON-compatible plain data."""
        return {
            "worker_ids": list(self.worker_ids),
            "makespan": self.makespan,
            "records": [asdict(r) for r in self.records],
            "phase_marks": [list(m) for m in self.phase_marks],
            "rebalance_times": list(self.rebalance_times),
            "solver_overheads": list(self.solver_overheads),
            "solver_overhead_times": list(self.solver_overhead_times),
            "failures": [list(f) for f in self.failures],
            "recoveries": [list(r) for r in self.recoveries],
            "lost_blocks": [list(b) for b in self.lost_blocks],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionTrace":
        """Rebuild a trace serialised by :meth:`to_dict`.

        The round trip is lossless: ``from_dict(t.to_dict()).to_dict()
        == t.to_dict()`` for every trace (verified by the test suite).
        ``solver_overhead_times`` is optional for compatibility with
        traces serialised before it existed (charges default to t=0);
        so are ``recoveries``/``lost_blocks`` and the per-record
        ``start_unit``/``retries``/``retry_time``/``decision`` fields
        (defaulting to empty / untracked).  ``lost_blocks`` entries may
        be 3-wide (pre-range-tracking: ``start_unit`` reads back as -1)
        or 4-wide.

        Raises
        ------
        ValueError
            On missing keys or malformed records (same validation as the
            live recording path).
        """
        try:
            trace = cls(data["worker_ids"])
            for r in data["records"]:
                trace.add_record(TaskRecord(**r))
            trace.phase_marks = [(float(t), str(n)) for t, n in data["phase_marks"]]
            trace.rebalance_times = [float(t) for t in data["rebalance_times"]]
            trace.solver_overheads = [float(s) for s in data["solver_overheads"]]
            trace.solver_overhead_times = [
                float(t)
                for t in data.get(
                    "solver_overhead_times", [0.0] * len(trace.solver_overheads)
                )
            ]
            if len(trace.solver_overhead_times) != len(trace.solver_overheads):
                raise ValueError(
                    "solver_overhead_times length does not match solver_overheads"
                )
            trace.failures = [(float(t), str(d)) for t, d in data["failures"]]
            trace.recoveries = [
                (float(t), str(d)) for t, d in data.get("recoveries", [])
            ]
            trace.lost_blocks = [
                (float(b[0]), str(b[1]), int(b[2]), int(b[3]) if len(b) > 3 else -1)
                for b in data.get("lost_blocks", [])
            ]
            trace.finalize(float(data["makespan"]))
        except KeyError as exc:
            raise ValueError(f"trace dict missing key: {exc}") from exc
        return trace
