"""Work-conservation and fault-isolation invariants for faulted runs.

A chaos campaign is only convincing if every run is *checked*, not just
survived.  These predicates operate on a completed
:class:`~repro.sim.trace.ExecutionTrace`:

* **conservation** — the completed task records tile the data domain
  exactly: every unit processed at least once (lost blocks are
  reprocessed), completed exactly once;
* **fault isolation** — no block is dispatched to a device while it is
  down, and every lost block corresponds to a recorded down event;
* **busy exclusivity** — a worker processes one block at a time: its
  recorded busy intervals never overlap (the critical-path analysis in
  :mod:`repro.obs.critpath` walks per-worker busy chains and silently
  mis-attributes on overlap, so ``repro why`` runs this check too);
* **makespan sanity** — a faulted run should not beat its fault-free
  baseline by more than a scheduling-anomaly tolerance (losing a slow
  device *can* legitimately help — Graham's timing anomalies — so the
  check is a tolerance band, not a strict inequality).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.trace import ExecutionTrace

__all__ = [
    "Violation",
    "check_busy_overlap",
    "check_conservation",
    "check_fault_isolation",
    "check_makespan",
    "check_run",
    "recovery_lags",
]


@dataclass(frozen=True)
class Violation:
    """One invariant breach: which rule, and what happened."""

    name: str
    message: str


def check_conservation(
    trace: ExecutionTrace, total_units: int
) -> list[Violation]:
    """Completed records must tile ``[0, total_units)`` exactly once.

    Requires the per-record ``start_unit`` provenance (runs recorded
    before it existed fall back to a totals-only check).
    """
    violations: list[Violation] = []
    records = trace.records
    if not records:
        violations.append(
            Violation("conservation", "no task records in the trace")
        )
        return violations
    if any(r.start_unit < 0 for r in records):
        completed = sum(r.units for r in records)
        if completed != total_units:
            violations.append(
                Violation(
                    "conservation",
                    f"completed {completed} units, domain has {total_units}",
                )
            )
        return violations
    ranges = sorted((r.start_unit, r.units) for r in records)
    cursor = 0
    for start, units in ranges:
        if start < cursor:
            violations.append(
                Violation(
                    "conservation",
                    f"range [{start}, {start + units}) overlaps a prior "
                    f"completion ending at {cursor}",
                )
            )
            break
        if start > cursor:
            violations.append(
                Violation(
                    "conservation",
                    f"units [{cursor}, {start}) were never completed",
                )
            )
            break
        cursor = start + units
    else:
        if cursor != total_units:
            violations.append(
                Violation(
                    "conservation",
                    f"domain ends at {total_units} but completions "
                    f"cover [0, {cursor})",
                )
            )
    return violations


def check_fault_isolation(trace: ExecutionTrace) -> list[Violation]:
    """No dispatch may land on a device while it is down.

    Each recorded failure is paired with the first recovery of the same
    device after it (:meth:`ExecutionTrace.down_windows`); a failure with
    no such recovery is permanent.  Also checks lost-block accounting:
    every lost block needs a down event at the same instant on the same
    device.
    """
    violations: list[Violation] = []
    for device, t_down, t_up in trace.down_windows():
        for r in trace.records:
            if r.worker_id != device:
                continue
            down = (
                r.dispatch_time > t_down
                if t_up is None
                else t_down < r.dispatch_time < t_up
            )
            if down:
                window = (
                    f"after its failure at t={t_down:.4f}"
                    if t_up is None
                    else f"inside its downtime ({t_down:.4f}, {t_up:.4f})"
                )
                violations.append(
                    Violation(
                        "fault-isolation",
                        f"block dispatched to {device} at "
                        f"t={r.dispatch_time:.4f}, {window}",
                    )
                )
    down_events = {(t, d) for t, d in trace.failures}
    for t, device, units, _start_unit in trace.lost_blocks:
        if (t, device) not in down_events:
            violations.append(
                Violation(
                    "fault-isolation",
                    f"{units} units lost on {device} at t={t:.4f} with no "
                    "down event recorded there",
                )
            )
    return violations


def check_busy_overlap(trace: ExecutionTrace) -> list[Violation]:
    """Per-worker busy intervals must never overlap.

    A worker is one processing unit: two blocks cannot be in flight on
    it at once, so the half-open intervals ``[start_time, end_time)`` of
    its records must be disjoint.  Back-to-back intervals (one ending
    exactly where the next starts) are fine.  Reports at most one
    violation per worker — the first overlap in start order — so a
    systematically broken trace yields a readable list.
    """
    violations: list[Violation] = []
    for worker in trace.worker_ids:
        intervals = trace.busy_intervals(worker)
        for prev, cur in zip(intervals, intervals[1:]):
            if cur.start < prev.end:
                violations.append(
                    Violation(
                        "busy-overlap",
                        f"{worker} busy [{cur.start:.4f}, {cur.end:.4f}) "
                        f"overlaps prior busy "
                        f"[{prev.start:.4f}, {prev.end:.4f})",
                    )
                )
                break
    return violations


def check_makespan(
    makespan: float,
    baseline: float,
    *,
    anomaly_tolerance: float = 0.25,
) -> list[Violation]:
    """A faulted run must not beat the fault-free baseline implausibly.

    ``anomaly_tolerance`` is the fraction by which the faulted makespan
    may undercut the baseline before it is flagged — scheduling
    anomalies (Graham 1969) make small speedups legitimate, a 2× one is
    a lost-work accounting bug.
    """
    if makespan < baseline * (1.0 - anomaly_tolerance):
        return [
            Violation(
                "makespan",
                f"faulted makespan {makespan:.4f}s implausibly beats the "
                f"fault-free baseline {baseline:.4f}s by more than "
                f"{anomaly_tolerance:.0%}",
            )
        ]
    return []


def recovery_lags(trace: ExecutionTrace) -> list[float]:
    """Seconds from each recovery to the device's next dispatch.

    Recoveries after which the device never ran again contribute no lag
    (the run may simply have finished; fault isolation already polices
    wrongful dispatches).
    """
    lags: list[float] = []
    for t_rec, device in trace.recoveries:
        dispatches = [
            r.dispatch_time
            for r in trace.records
            if r.worker_id == device and r.dispatch_time >= t_rec
        ]
        if dispatches:
            lags.append(min(dispatches) - t_rec)
    return lags


def check_run(
    trace: ExecutionTrace,
    total_units: int,
    makespan: float,
    baseline: float,
    *,
    anomaly_tolerance: float = 0.25,
) -> list[Violation]:
    """All invariants of one faulted run, concatenated."""
    violations = check_conservation(trace, total_units)
    violations += check_fault_isolation(trace)
    violations += check_busy_overlap(trace)
    violations += check_makespan(
        makespan, baseline, anomaly_tolerance=anomaly_tolerance
    )
    return violations
